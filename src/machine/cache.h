/**
 * @file
 * Set-associative cache hierarchy model.
 *
 * Mirrors the paper's FPGA system (section 5): split 32 KiB L1 caches and
 * a shared 256 KiB L2, set-associative with LRU replacement and no
 * prefetching.  The model tracks hits and misses only — enough to expose
 * the cache-pressure effect of doubling pointer size, which is the
 * microarchitectural story behind Figure 4's cycle and L2-miss columns.
 *
 * Every guest load, store and instruction-line fetch comes through
 * here, so the single-line access is inline.  A set fills from its last
 * way down and no single way is ever invalidated, so a set's valid ways
 * are always a suffix [ways - filled, ways): a per-set count replaces a
 * per-way valid flag, and only the counts are cleared on construction
 * and flush (see DESIGN.md, "Cache model").
 */

#ifndef CHERI_MACHINE_CACHE_H
#define CHERI_MACHINE_CACHE_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "cap/types.h"

namespace cheri
{

namespace snap
{
struct Access;
}

/** The line size of every level of the modelled hierarchy. */
constexpr u64 cacheLineBytes = 64;

/** A single set-associative cache level with LRU replacement. */
class Cache
{
  public:
    /**
     * @param size_bytes total capacity
     * @param ways associativity
     * @param line_bytes line size
     * @throws std::invalid_argument unless all three are powers of two
     *         and the capacity holds at least one complete set
     */
    Cache(u64 size_bytes, u32 ways, u64 line_bytes = cacheLineBytes);

    Cache(const Cache &other);
    Cache(Cache &&) noexcept = default;
    Cache &operator=(const Cache &other);
    Cache &operator=(Cache &&) noexcept = default;

    /** Access the line containing @p addr; true on hit. */
    bool
    access(u64 addr)
    {
        ++tick;
        u64 line = addr >> lineShift;
        u64 set = line & setMask;
        u64 tag = line >> setShift;
        // The way the previous access hit or filled: sequential
        // accesses repeat a line most of the time.  Tags within a set
        // are distinct, so a match here is the way a scan would find.
        if ((probe >> wayShift) == set &&
            (probe & wayMask) >= ways - fill[set] &&
            slots[probe].tag == tag) {
            slots[probe].lru = tick;
            ++_hits;
            return true;
        }
        return accessSet(set, tag);
    }

    /** Drop all contents, keeping the counters: O(sets). */
    void flush();

    /** Drop all contents and zero the counters: a new cache. */
    void reset();

    u64 hits() const { return _hits; }
    u64 misses() const { return _misses; }

  private:
    /** Checkpoint/restore preserves way state so post-restore cycle
     *  counts match an uninterrupted run bit-for-bit. */
    friend struct snap::Access;
    /** The cost model writes a warm L1I's deferred hits and stamps. */
    friend class CostModel;

    struct Way
    {
        u64 tag;
        u64 lru;
    };

    /** Hands way arrays back to the host pool. */
    struct Release
    {
        std::size_t bytes = 0;
        void operator()(Way *p) const noexcept;
    };

    /** Scan @p set after the probe missed; fill on a miss. */
    bool accessSet(u64 set, u64 tag);

    /** The next way of @p set's filled suffix (the set must not be
     *  full); it holds garbage until the caller writes it. */
    Way &fillWay(u64 set);

    /** A way array for this geometry, not zeroed, every way poisoned
     *  for AddressSanitizer until it is filled. */
    std::unique_ptr<Way[], Release> allocWays() const;

    u64 numSets;
    u32 ways;
    u32 lineShift;
    u32 setShift;
    u32 wayShift;
    u64 setMask;
    u64 wayMask;
    u64 tick = 0;
    u64 _hits = 0;
    u64 _misses = 0;
    /** Index into slots of the last way hit or filled; validated
     *  against the accessed set and its fill count before use. */
    u64 probe = 0;
    /** Per set, how many of its ways are valid (the last ones). */
    std::vector<u32> fill;
    /** numSets * ways; only each set's filled suffix is ever read. */
    std::unique_ptr<Way[], Release> slots;
};

/** Kinds of memory reference for the hierarchy. */
enum class Access
{
    InstrFetch,
    DataLoad,
    DataStore,
};

/** Result of a hierarchy access: the level that serviced it, ordered
 *  from best to worst. */
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
    HitLevel
    access(u64 addr, u64 size, Access kind)
    {
        u64 last = (addr + (size ? size - 1 : 0)) / cacheLineBytes;
        if (last == addr / cacheLineBytes)
            return accessLine(addr, kind);
        return accessLines(addr / cacheLineBytes, last, kind);
    }

    /** Empty every level and zero its counters, in place. */
    void reset();

    u64 l1iMisses() const { return l1i.misses(); }
    u64 l1dMisses() const { return l1d.misses(); }
    u64 l2Misses() const { return l2.misses(); }
    u64 l1Accesses() const
    {
        return l1i.hits() + l1i.misses() + l1d.hits() + l1d.misses();
    }

  private:
    friend struct snap::Access;
    friend class CostModel;

    /** Lines @p first to @p last (none when last < first: an access
     *  that wraps the address space). */
    HitLevel accessLines(u64 first, u64 last, Access kind);

    HitLevel
    accessLine(u64 a, Access kind)
    {
        Cache &l1 = kind == Access::InstrFetch ? l1i : l1d;
        if (l1.access(a))
            return HitLevel::L1;
        return l2.access(a) ? HitLevel::L2 : HitLevel::Memory;
    }

    Cache l1i;
    Cache l1d;
    Cache l2;
};

} // namespace cheri

#endif // CHERI_MACHINE_CACHE_H
