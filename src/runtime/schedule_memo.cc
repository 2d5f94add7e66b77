#include "runtime/schedule_memo.hh"

namespace griffin {

CacheKey128
ScheduleMemo::contentKey(const TileViewB &b, const Borrow &db,
                         const Shuffler &shuffler)
{
    ContentHasher h(0x5ca1ab1eULL, 0xdecafbadULL,
                    static_cast<std::uint64_t>(b.steps()));
    h.fold(static_cast<std::uint64_t>(b.lanes()));
    h.fold(static_cast<std::uint64_t>(b.units()));
    h.fold(static_cast<std::uint64_t>(db.d1));
    h.fold(static_cast<std::uint64_t>(db.d2));
    h.fold(static_cast<std::uint64_t>(db.d3));
    h.fold(shuffler.enabled() ? 1u : 0u);
    h.fold(static_cast<std::uint64_t>(shuffler.groupSize()));
    // The tile's INT8 elements, 8 per word: one splitmix round per 8
    // elements instead of per element.
    std::uint64_t word = 0;
    int packed = 0;
    for (std::int64_t k1 = 0; k1 < b.steps(); ++k1) {
        for (int k2 = 0; k2 < b.lanes(); ++k2) {
            for (int u = 0; u < b.units(); ++u) {
                word = (word << 8) |
                       static_cast<std::uint8_t>(b.at(k1, k2, u));
                if (++packed == 8) {
                    h.fold(word);
                    word = 0;
                    packed = 0;
                }
            }
        }
    }
    if (packed != 0)
        h.fold(word);
    return h.key();
}

std::shared_ptr<const BSchedule>
ScheduleMemo::obtain(const TileViewB &b, const Borrow &db,
                     const Shuffler &shuffler)
{
    auto [it, fresh] = entries_.try_emplace(contentKey(b, db, shuffler));
    if (!fresh) {
        ++stats_.hits;
        return it->second;
    }
    ++stats_.misses;
    it->second = std::make_shared<const BSchedule>(
        preprocessB(b, db, shuffler, false));
    ++stats_.entries;
    stats_.residentBytes += it->second->approxBytes();
    return it->second;
}

} // namespace griffin
