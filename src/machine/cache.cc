#include "machine/cache.h"

#include <stdexcept>
#include <string>

namespace cheri
{

namespace
{

/** Set count of a geometry; a cache smaller than one set is a
 *  configuration error, reported before anything divides by zero. */
u64
checkedSets(u64 size_bytes, u32 ways, u64 line_bytes)
{
    if (ways == 0 || line_bytes == 0 || size_bytes / line_bytes < ways) {
        throw std::invalid_argument(
            "cache geometry: " + std::to_string(size_bytes) + " bytes, " +
            std::to_string(ways) + " ways of " + std::to_string(line_bytes) +
            "-byte lines holds no complete set");
    }
    return size_bytes / (ways * line_bytes);
}

} // namespace

Cache::Cache(u64 size_bytes, u32 ways, u64 line_bytes)
    : lineBytes(line_bytes),
      numSets(checkedSets(size_bytes, ways, line_bytes)), ways(ways),
      sets(numSets * ways)
{
}

bool
Cache::access(u64 addr)
{
    ++tick;
    u64 line = addr / lineBytes;
    u64 set = line % numSets;
    u64 tag = line / numSets;
    Way *base = &sets[set * ways];
    for (u32 w = 0; w < ways; ++w) {
        if (base[w].valid && base[w].tag == tag) {
            base[w].lru = tick;
            ++_hits;
            return true;
        }
    }
    // Miss: fill into the LRU way.
    Way *victim = base;
    for (u32 w = 1; w < ways; ++w) {
        if (!base[w].valid || base[w].lru < victim->lru)
            victim = &base[w];
    }
    victim->valid = true;
    victim->tag = tag;
    victim->lru = tick;
    ++_misses;
    return false;
}

void
Cache::flush()
{
    for (Way &w : sets)
        w.valid = false;
}

CacheHierarchy::CacheHierarchy()
    : l1i(32 * 1024, 4), l1d(32 * 1024, 4), l2(256 * 1024, 8)
{
}

HitLevel
CacheHierarchy::access(u64 addr, u64 size, Access kind)
{
    HitLevel worst = HitLevel::L1;
    const u64 line = 64;
    u64 first = addr / line;
    u64 last = (addr + (size ? size - 1 : 0)) / line;
    for (u64 l = first; l <= last; ++l) {
        u64 a = l * line;
        Cache &l1 = kind == Access::InstrFetch ? l1i : l1d;
        if (l1.access(a))
            continue;
        if (l2.access(a)) {
            if (worst == HitLevel::L1)
                worst = HitLevel::L2;
            continue;
        }
        worst = HitLevel::Memory;
    }
    return worst;
}

void
CacheHierarchy::flush()
{
    l1i.flush();
    l1d.flush();
    l2.flush();
}

} // namespace cheri
