/**
 * @file
 * The unified guest-memory access path.
 *
 * Every consumer of guest memory — the interpreter's data and fetch
 * paths, the kernel's copyin/copyout family, the exec loader, ptrace,
 * and the guest C run-time — goes through one MemAccess object instead
 * of calling AddressSpace::readBytes/writeBytes directly.  MemAccess
 * owns a small direct-mapped software TLB caching, per page,
 * (page va → resolved frame pointer, protection, COW/shared state), so
 * the hot path is a mask + compare + memcpy into the frame; only a miss
 * falls back to the std::map page walk in AddressSpace::walk.
 *
 * Coherence contract: AddressSpace fires explicit invalidation hooks on
 * every operation that changes a translation — unmap, protect,
 * swapOutPage/swapOutResident, installFrame, forkCopy, COW resolution,
 * and revocation sweeps — so a MemAccess can never serve a stale frame
 * pointer or a stale protection decision.  Writable entries are cached
 * only for pages that are not copy-on-write; a COW page always misses
 * on write, forcing the walk that performs the copy.
 *
 * The layer also feeds the other two stacks: a CostModel (nullable)
 * receives modelled iTLB/dTLB hit/miss events, and a raw per-ABI
 * counter block (nullable, owned by obs::Metrics) accumulates hit,
 * miss, and invalidation counts for the JSON/CSV emitters.
 */

#ifndef CHERI_MEM_ACCESS_H
#define CHERI_MEM_ACCESS_H

#include <array>
#include <string>

#include "cap/capability.h"
#include "cap/fault.h"
#include "machine/cost_model.h"
#include "mem/vm.h"

namespace cheri
{

/**
 * Indices into the per-ABI TLB counter block exported by obs::Metrics.
 * Lives here (not in obs) so mem/ never depends on the observability
 * layer; Metrics hands MemAccess a raw u64 block to increment.
 */
enum TlbCounter : unsigned
{
    TlbDataHit = 0,
    TlbDataMiss,
    TlbFetchHit,
    TlbFetchMiss,
    TlbInvalidation,
    numTlbCounters,
};

class MemAccess
{
  public:
    /** Entries per TLB (each of iTLB and dTLB), direct-mapped. */
    static constexpr u64 tlbSize = 64;

    explicit MemAccess(AddressSpace &as);
    ~MemAccess();
    MemAccess(const MemAccess &) = delete;
    MemAccess &operator=(const MemAccess &) = delete;

    /** Re-target another address space (execve replaces the process's
     *  AddressSpace); flushes everything. */
    void bind(AddressSpace &as);

    AddressSpace *space() { return as; }

    /** Attach the modelled-cost sink (nullable). */
    void setCostModel(CostModel *c) { cost = c; }

    /** Attach a per-ABI counter block of numTlbCounters u64s
     *  (nullable; typically obs::Metrics::tlbCounterBlock). */
    void setCounterBlock(u64 *block) { counters = block; }

    /** @name Checked guest accesses
     * Same MMU semantics as the AddressSpace methods they front:
     * translation + protection check, demand-zero/COW/swap-in on miss,
     * and the same precise fault causes on failure (PageFault,
     * MemoryExhausted, SwapInFailure).  Like AddressSpace::writeBytes,
     * write() is not atomic across pages: on a mid-range fault, bytes
     * up to the faulting page boundary have already been stored.
     *
     * read() and write() are inline for a non-empty access within one
     * page that hits the dTLB (for a write: a cached-writable, non-
     * executable page).  They count the hit, probe the injector and
     * copy exactly as the general loop does; everything else — an
     * empty or page-crossing access, a miss, a COW or executable page,
     * a detached space — takes readSlow()/writeSlow().
     */
    /// @{
    CapCheck
    read(u64 va, void *buf, u64 len)
    {
        const u64 off = va & pageMask;
        const u64 page = va - off;
        const Entry &e = dtlb[indexOf(page)];
        if (len - 1 < pageSize - off && e.pageVa == page &&
            (e.prot & PROT_READ) && as) {
            countDataHit();
            // Corruption probe after translation, as in readSlow.
            if (as->physMem().injectDataLoadCorruption(va))
                return CapFault::MachineCheck;
            e.frame->read(off, buf, len);
            return std::nullopt;
        }
        return readSlow(va, buf, len);
    }

    CapCheck
    write(u64 va, const void *buf, u64 len)
    {
        const u64 off = va & pageMask;
        const u64 page = va - off;
        const Entry &e = dtlb[indexOf(page)];
        if (len - 1 < pageSize - off && e.pageVa == page && e.writable &&
            !(e.prot & PROT_EXEC) && as) {
            countDataHit();
            e.frame->write(off, buf, len);
            return std::nullopt;
        }
        return writeSlow(va, buf, len);
    }

    /**
     * Capability load: capSize-aligned.  Inline for an aligned load
     * that hits the dTLB, as read(); only a tagged granule probes the
     * injector, as in readCapSlow().
     */
    Result<Capability>
    readCap(u64 va)
    {
        const u64 off = va & pageMask;
        const u64 page = va - off;
        const Entry &e = dtlb[indexOf(page)];
        if (va % capAlign == 0 && e.pageVa == page &&
            (e.prot & PROT_READ) && as) {
            countDataHit();
            if (e.frame->tagAt(off) &&
                as->physMem().injectCapLoadCorruption(*e.frame, off, va))
                return CapFault::MachineCheck;
            return e.frame->readCap(off);
        }
        return readCapSlow(va);
    }

    /** The general paths behind read(), write() and readCap() (public
     *  so tests can run them in lock step with the inline path). */
    CapCheck readSlow(u64 va, void *buf, u64 len);
    CapCheck writeSlow(u64 va, const void *buf, u64 len);
    Result<Capability> readCapSlow(u64 va);

    /** Instruction fetch: like read(), but through the iTLB. */
    CapCheck fetch(u64 va, void *buf, u64 len);
    /** Capability store: capSize-aligned. */
    CapCheck writeCap(u64 va, const Capability &cap);
    /// @}

    /** Outcome of readString(). */
    enum class StrRead
    {
        Ok,      ///< NUL found within the window
        Fault,   ///< translation failed mid-scan
        TooLong, ///< max bytes scanned without a NUL
    };

    /**
     * Copy a NUL-terminated string of at most @p max bytes (including
     * the NUL) starting at @p va into @p out, scanning page-sized
     * chunks.  @p scanned (nullable) receives the number of bytes
     * examined, NUL included when found.
     */
    StrRead readString(u64 va, std::string *out, u64 max,
                       u64 *scanned = nullptr);

    /** @name Decode-cache support
     * fetchGen() increments on every invalidation event and on any
     * write to an executable page, so a decoded-instruction cache keyed
     * on (va, fetchGen) can never execute stale bytes.
     */
    /// @{
    u64 fetchGen() const { return _fetchGen; }
    /** Count a decode-cache hit as a modelled iTLB hit (the fetch never
     *  reached memory but the translation was exercised). */
    void countFetchHit();
    /// @}

    /** @name Invalidation interface (fired by AddressSpace) */
    /// @{
    void invalidatePage(u64 page_va);
    void invalidateRange(u64 start, u64 len);
    void invalidateAll();
    /** A write reached an executable page: decoded instructions may be
     *  stale even though the translation itself still holds. */
    void noteCodeWrite() { ++_fetchGen; }
    /** The address space is going away; drop every translation. */
    void detach();
    /// @}

    /** Local (per-object) statistics, independent of the Metrics block. */
    struct Stats
    {
        u64 dataHits = 0;
        u64 dataMisses = 0;
        u64 fetchHits = 0;
        u64 fetchMisses = 0;
        u64 invalidations = 0;
    };
    const Stats &stats() const { return st; }

  private:
    struct Entry
    {
        /** Page VA this entry maps; invalidVa when empty. */
        u64 pageVa = invalidVa;
        Frame *frame = nullptr;
        u32 prot = PROT_NONE;
        /** Cached write permission: set only when the page is writable
         *  AND not copy-on-write, so writes through the fast path can
         *  never dodge a pending COW copy. */
        bool writable = false;
        /** Cached capability-store permission: set only when the page
         *  is writable-cacheable AND already cap-dirty AND no
         *  revocation epoch is open against the space.  The first
         *  capability store to a cap-clean page therefore always takes
         *  the walk path, where the dirty bit is set — the same
         *  mechanism the COW rule above uses (PR 2), extended to
         *  revocation's dirty tracking.  During an open epoch every
         *  cap store walks, so the scheduler can re-queue pages stored
         *  to after their scan. */
        bool capWritable = false;
    };

    static constexpr u64 invalidVa = ~u64{0};

    static u64 indexOf(u64 page_va)
    {
        return (page_va / pageSize) & (tlbSize - 1);
    }

    /** Slow path: walk the page table and install an entry.  With
     *  @p cap_store the walk marks the page cap-dirty. */
    Frame *missData(u64 page_va, bool for_write, bool cap_store = false);
    Frame *missFetch(u64 page_va);

    /** Fault cause after a failed miss: the space knows why its walk
     *  failed; a detached access path is a plain page fault. */
    CapFault missFault() const
    {
        return as ? as->lastWalkFault() : CapFault::PageFault;
    }

    void
    countDataHit()
    {
        ++st.dataHits;
        if (counters)
            ++counters[TlbDataHit];
        if (cost)
            cost->tlbAccess(false, true);
    }

    AddressSpace *as;
    CostModel *cost = nullptr;
    u64 *counters = nullptr;
    u64 _fetchGen = 1;
    Stats st;
    std::array<Entry, tlbSize> dtlb{};
    std::array<Entry, tlbSize> itlb{};
};

} // namespace cheri

#endif // CHERI_MEM_ACCESS_H
