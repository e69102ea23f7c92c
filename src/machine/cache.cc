#include "machine/cache.h"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <string>

#include <sanitizer/asan_interface.h>

#include "machine/host_pool.h"

namespace cheri
{

namespace
{

/** Set count of a geometry.  Every dimension is a power of two, so
 *  the hot path indexes with shifts and masks; a cache smaller than one
 *  set is a configuration error too. */
u64
checkedSets(u64 size_bytes, u32 ways, u64 line_bytes)
{
    std::string geometry = std::to_string(size_bytes) + " bytes, " +
                           std::to_string(ways) + " ways of " +
                           std::to_string(line_bytes) + "-byte lines";
    if (!std::has_single_bit(size_bytes) || !std::has_single_bit(ways) ||
        !std::has_single_bit(line_bytes)) {
        throw std::invalid_argument("cache geometry: " + geometry +
                                    " is not a power of two");
    }
    if (size_bytes / line_bytes < ways) {
        throw std::invalid_argument("cache geometry: " + geometry +
                                    " holds no complete set");
    }
    return size_bytes / (ways * line_bytes);
}

u32
shiftOf(u64 v)
{
    return static_cast<u32>(std::countr_zero(v));
}

} // namespace

void
Cache::Release::operator()(Way *p) const noexcept
{
    hostpool::release(p, bytes);
}

std::unique_ptr<Cache::Way[], Cache::Release>
Cache::allocWays() const
{
    std::size_t bytes = numSets * ways * sizeof(Way);
    Way *p = static_cast<Way *>(hostpool::alloc(bytes));
    ASAN_POISON_MEMORY_REGION(p, bytes);
    return {p, Release{bytes}};
}

Cache::Cache(u64 size_bytes, u32 ways, u64 line_bytes)
    : numSets(checkedSets(size_bytes, ways, line_bytes)), ways(ways),
      lineShift(shiftOf(line_bytes)), setShift(shiftOf(numSets)),
      wayShift(shiftOf(ways)), setMask(numSets - 1), wayMask(ways - 1),
      fill(numSets), slots(allocWays())
{
}

Cache::Cache(const Cache &other)
    : numSets(other.numSets), ways(other.ways), lineShift(other.lineShift),
      setShift(other.setShift), wayShift(other.wayShift),
      setMask(other.setMask), wayMask(other.wayMask), tick(other.tick),
      _hits(other._hits), _misses(other._misses), probe(other.probe),
      fill(numSets), slots(allocWays())
{
    // Copy each set's filled suffix through the one fill path.
    for (u64 set = 0; set < numSets; ++set) {
        const Way *from = &other.slots[set << wayShift];
        for (u32 w = ways; w > ways - other.fill[set];)
            fillWay(set) = from[--w];
    }
}

Cache &
Cache::operator=(const Cache &other)
{
    if (this != &other)
        *this = Cache(other);
    return *this;
}

Cache::Way &
Cache::fillWay(u64 set)
{
    u32 w = ways - ++fill[set];
    Way *way = &slots[(set << wayShift) + w];
    ASAN_UNPOISON_MEMORY_REGION(way, sizeof(Way));
    return *way;
}

bool
Cache::accessSet(u64 set, u64 tag)
{
    u64 first = set << wayShift;
    Way *base = &slots[first];
    u32 filled = fill[set];
    for (u32 w = ways - filled; w < ways; ++w) {
        if (base[w].tag == tag) {
            base[w].lru = tick;
            probe = first + w;
            ++_hits;
            return true;
        }
    }
    // Miss: fill the next empty way, or evict the first LRU way.
    Way *victim;
    if (filled < ways) {
        victim = &fillWay(set);
    } else {
        victim = base;
        for (u32 w = 1; w < ways; ++w) {
            if (base[w].lru < victim->lru)
                victim = &base[w];
        }
    }
    victim->tag = tag;
    victim->lru = tick;
    probe = static_cast<u64>(victim - &slots[0]);
    ++_misses;
    return false;
}

void
Cache::flush()
{
    std::fill(fill.begin(), fill.end(), 0u);
    ASAN_POISON_MEMORY_REGION(slots.get(), numSets * ways * sizeof(Way));
}

void
Cache::reset()
{
    flush();
    tick = 0;
    _hits = 0;
    _misses = 0;
}

CacheHierarchy::CacheHierarchy()
    : l1i(32 * 1024, 4), l1d(32 * 1024, 4), l2(256 * 1024, 8)
{
}

HitLevel
CacheHierarchy::accessLines(u64 first, u64 last, Access kind)
{
    HitLevel worst = HitLevel::L1;
    for (u64 l = first; l <= last; ++l)
        worst = std::max(worst, accessLine(l * cacheLineBytes, kind));
    return worst;
}

void
CacheHierarchy::reset()
{
    l1i.reset();
    l1d.reset();
    l2.reset();
}

} // namespace cheri
