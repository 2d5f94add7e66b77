/**
 * @file
 * Fixed-width little-endian scalar I/O for binary file formats.
 *
 * The persistent workset-cache format (tensor/workset.cc payload,
 * runtime/cache_store.cc container) is defined in these units: every
 * scalar is written as exactly 8 little-endian bytes, independent of
 * host byte order and integer widths, so a cache file written on one
 * platform parses on any other.
 */

#ifndef GRIFFIN_COMMON_BINIO_HH
#define GRIFFIN_COMMON_BINIO_HH

#include <cstdint>
#include <istream>
#include <ostream>

namespace griffin {

inline void
putU64(std::ostream &os, std::uint64_t v)
{
    char buf[8];
    for (int i = 0; i < 8; ++i)
        buf[i] = static_cast<char>((v >> (8 * i)) & 0xff);
    os.write(buf, 8);
}

inline void
putI64(std::ostream &os, std::int64_t v)
{
    putU64(os, static_cast<std::uint64_t>(v));
}

/** False on short read; `v` is unspecified then. */
inline bool
getU64(std::istream &is, std::uint64_t &v)
{
    char buf[8];
    if (!is.read(buf, 8))
        return false;
    v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(static_cast<unsigned char>(buf[i]))
             << (8 * i);
    return true;
}

inline bool
getI64(std::istream &is, std::int64_t &v)
{
    std::uint64_t u = 0;
    if (!getU64(is, u))
        return false;
    v = static_cast<std::int64_t>(u);
    return true;
}

} // namespace griffin

#endif // GRIFFIN_COMMON_BINIO_HH
