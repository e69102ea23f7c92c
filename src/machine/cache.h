/**
 * @file
 * Set-associative cache hierarchy model.
 *
 * Mirrors the paper's FPGA system (section 5): split 32 KiB L1 caches and
 * a shared 256 KiB L2, set-associative with LRU replacement and no
 * prefetching.  The model tracks hits and misses only — enough to expose
 * the cache-pressure effect of doubling pointer size, which is the
 * microarchitectural story behind Figure 4's cycle and L2-miss columns.
 */

#ifndef CHERI_MACHINE_CACHE_H
#define CHERI_MACHINE_CACHE_H

#include <cstdint>
#include <vector>

#include "cap/types.h"
#include "machine/host_pool.h"

namespace cheri
{

namespace snap
{
struct Access;
}

/** A single set-associative cache level with LRU replacement. */
class Cache
{
  public:
    /**
     * @param size_bytes total capacity
     * @param ways associativity
     * @param line_bytes line size
     */
    Cache(u64 size_bytes, u32 ways, u64 line_bytes = 64);

    /** Access the line containing @p addr; true on hit. */
    bool access(u64 addr);

    /** Drop all contents (context-switch cost modeling, tests). */
    void flush();

    u64 hits() const { return _hits; }
    u64 misses() const { return _misses; }

  private:
    /** Checkpoint/restore preserves way state so post-restore cycle
     *  counts match an uninterrupted run bit-for-bit. */
    friend struct snap::Access;

    struct Way
    {
        u64 tag = 0;
        bool valid = false;
        u64 lru = 0;
    };

    u64 lineBytes;
    u64 numSets;
    u32 ways;
    u64 tick = 0;
    u64 _hits = 0;
    u64 _misses = 0;
    std::vector<Way, hostpool::Allocator<Way>> sets; // numSets * ways
};

/** Kinds of memory reference for the hierarchy. */
enum class Access
{
    InstrFetch,
    DataLoad,
    DataStore,
};

/** Result of a hierarchy access: the level that serviced it. */
enum class HitLevel
{
    L1,
    L2,
    Memory,
};

/**
 * The paper's two-level hierarchy: L1I + L1D (32 KiB, 4-way) over a
 * shared L2 (256 KiB, 8-way).
 */
class CacheHierarchy
{
  public:
    CacheHierarchy();

    /** Access @p size bytes at @p addr; returns the servicing level of
     *  the worst-faring line touched. */
    HitLevel access(u64 addr, u64 size, Access kind);

    void flush();

    u64 l1iMisses() const { return l1i.misses(); }
    u64 l1dMisses() const { return l1d.misses(); }
    u64 l2Misses() const { return l2.misses(); }
    u64 l1Accesses() const
    {
        return l1i.hits() + l1i.misses() + l1d.hits() + l1d.misses();
    }

  private:
    friend struct snap::Access;

    Cache l1i;
    Cache l1d;
    Cache l2;
};

} // namespace cheri

#endif // CHERI_MACHINE_CACHE_H
