// Known-bad corpus for griffin-lint's uninit-serialized-field rule.
// Every line carrying a FIRE marker must produce exactly that finding;
// nothing else in this file may fire.  Fixtures are linted, never
// compiled.
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace fixture {

struct RowRecord
{
    std::uint64_t id = 0;
    std::uint32_t flags; // FIRE(uninit-serialized-field)
    double score; // FIRE(uninit-serialized-field)
    bool pinned{false};
    std::string name;
    std::vector<int> cols;

    void serialize(std::ostream &os) const;
};

// Reaches an encoder through a free function, so it carries the
// marker instead of a member:
// griffin-lint: serialized
struct MarkedRecord
{
    int count; // FIRE(uninit-serialized-field)
    long window[4]; // FIRE(uninit-serialized-field)
};

struct ScratchState // never encoded: raw fields are the caller's job
{
    int tmp;
    double acc;
};

} // namespace fixture
