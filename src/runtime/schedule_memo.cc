#include "runtime/schedule_memo.hh"

#include "common/arena.hh"
#include "simd/occupancy.hh"

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
    // The zero pattern is the schedule's whole content input: one
    // occupancy word per flat k, zero-extended past the matrix edge.
    Arena &arena = workArena();
    ArenaScope scope(arena);
    const std::int64_t flat = b.steps() * b.lanes();
    auto *occ =
        arena.alloc<std::uint64_t>(static_cast<std::size_t>(flat));
    simd::bTileOccupancy(b.matrix(), b.unitBase(), b.units(), b.steps(),
                         b.lanes(), occ);
    for (std::int64_t f = 0; f < flat; ++f)
        h.fold(occ[f]);
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
