/**
 * @file
 * Tagged physical memory.
 *
 * CHERI adds one out-of-band tag bit per capability-sized, capability-
 * aligned granule of physical memory, distinguishing valid capabilities
 * from plain data.  Data writes to a granule clear its tag; only the
 * dedicated capability store can set it.  This file models physical
 * frames carrying those tags, plus the frame allocator.
 *
 * Modeling note: real hardware recovers a capability's bounds from its
 * 128-bit compressed pattern.  Our 16-byte pattern keeps only the cursor
 * architecturally visible; the full decoded capability for each *tagged*
 * granule is kept in a per-frame side structure.  This is observationally
 * equivalent: untagged patterns never decode to dereferenceable
 * capabilities, any byte store invalidates the granule's tag, and tagged
 * loads return exactly the capability that was stored.
 */

#ifndef CHERI_MEM_PHYS_MEM_H
#define CHERI_MEM_PHYS_MEM_H

#include <array>
#include <bit>
#include <cstddef>
#include <cstring>
#include <memory>

#include "cap/capability.h"
#include "cap/types.h"
#include "machine/host_pool.h"
#include "mem/fault_inject.h"
#include "os/panic.h"

namespace cheri
{

namespace snap
{
struct Access;
}

/** Page size used throughout the system. */
constexpr u64 pageSize = 4096;
constexpr u64 pageMask = pageSize - 1;

/** Capability granules per page. */
constexpr u64 granulesPerPage = pageSize / capSize;

/** 64-bit words of one page's tag bitmap. */
constexpr u64 tagWordsPerPage = granulesPerPage / 64;
static_assert(granulesPerPage % 64 == 0, "tag bitmap is whole words");

/**
 * Next value of the host's one change counter, which stamps frames and
 * address spaces (Frame::stamp, AddressSpace::generation) for the
 * checking layer's memo.  Both draw from it and it only grows, so a
 * frame or address space recycled at the same host address never
 * carries a stamp an earlier one had.  Host state only: nothing
 * modelled, saved or digested reads it.
 */
inline u64
nextChangeStamp()
{
    static u64 counter = 0;
    return ++counter;
}

/** Round @p v down / up to a page boundary. */
constexpr u64 pageTrunc(u64 v) { return v & ~pageMask; }
constexpr u64 pageRound(u64 v) { return (v + pageMask) & ~pageMask; }

/**
 * One physical page: 4 KiB of data, one tag bit per 16-byte granule, and
 * the decoded capability for each tagged granule.
 */
class Frame
{
  public:
    Frame() { data.fill(0); }

    /** Frames come and go with every process: recycle their storage
     *  (see machine/host_pool.h). */
    static void *
    operator new(std::size_t bytes)
    {
        return hostpool::alloc(bytes);
    }
    static void
    operator delete(void *p, std::size_t bytes) noexcept
    {
        hostpool::release(p, bytes);
    }

    /** Copy @p other including tags (used for COW and fork). */
    void copyFrom(const Frame &other);

    /** Read bytes; never affects tags. */
    void
    read(u64 off, void *buf, u64 len) const
    {
        CHERI_KASSERT(off + len <= pageSize, "frame read within page");
        std::memcpy(buf, data.data() + off, len);
    }

    /** Write bytes, clearing the tag of every granule touched. */
    void
    write(u64 off, const void *buf, u64 len)
    {
        CHERI_KASSERT(off + len <= pageSize, "frame write within page");
        std::memcpy(data.data() + off, buf, len);
        // A data store invalidates every capability granule it overlaps;
        // the stamp moves only when a tag actually went.
        if (len != 0 && clearTags(off / capSize, (off + len - 1) / capSize))
            _stamp = nextChangeStamp();
    }

    /** Zero the page and clear all tags. */
    void clear();

    /**
     * Load the capability at granule-aligned @p off.  Tagged granules
     * return the stored capability; untagged ones decode the raw bytes
     * into an untagged (data-only) capability.
     */
    Capability readCap(u64 off) const;

    /** Store a capability at granule-aligned @p off, setting the tag iff
     *  the capability is tagged. */
    void writeCap(u64 off, const Capability &cap);

    /** Tag bit of the granule containing @p off. */
    bool
    tagAt(u64 off) const
    {
        u64 g = off / capSize;
        return (tags[g / 64] >> (g % 64)) & 1;
    }

    /** Clear the tag of the granule containing @p off. */
    void
    clearTagAt(u64 off)
    {
        u64 g = off / capSize;
        tags[g / 64] &= ~(u64{1} << (g % 64));
        _stamp = nextChangeStamp();
    }

    /**
     * Change stamp of the tag bitmap and the tagged granules' entries,
     * drawn from nextChangeStamp() at construction and again by every
     * change to either: writeCap, a data write that clears a tag,
     * clear, copyFrom, clearTagAt and a restore.  Equal stamps on the
     * same frame mean the same tagged capabilities.
     */
    u64 stamp() const { return _stamp; }

    /** Number of tagged granules in the page. */
    u64
    taggedCount() const
    {
        u64 n = 0;
        for (u64 w : tags)
            n += std::popcount(w);
        return n;
    }

    /** Raw data access for swap and checkpointing. */
    const std::array<u8, pageSize> &bytes() const { return data; }

    /** Visit every tagged granule as (offset, capability), offset
     *  ascending.  Only set bits are visited: the cost follows the
     *  capabilities the page holds, not its size.  Each word is read
     *  before its granules are visited, so @p fn may clear tags. */
    template <typename Fn>
    void
    forEachTagged(Fn &&fn) const
    {
        for (u64 w = 0; w < tagWordsPerPage; ++w) {
            for (u64 bits = tags[w]; bits != 0; bits &= bits - 1) {
                u64 g = w * 64 + std::countr_zero(bits);
                fn(g * capSize, caps[g]);
            }
        }
    }

  private:
    /** Checkpoint/restore moves the bytes in and out in place. */
    friend struct snap::Access;

    /** Clear the tags of granules [first, last]; true when any was
     *  set. */
    bool
    clearTags(u64 first, u64 last)
    {
        u64 cleared = 0;
        for (u64 w = first / 64; w <= last / 64; ++w) {
            u64 lo = w == first / 64 ? first % 64 : 0;
            u64 hi = w == last / 64 ? last % 64 : 63;
            u64 mask = (~u64{0} >> (63 - hi)) & (~u64{0} << lo);
            cleared |= tags[w] & mask;
            tags[w] &= ~mask;
        }
        return cleared != 0;
    }

    std::array<u8, pageSize> data;
    /** Bit g % 64 of word g / 64: granule g holds a capability. */
    std::array<u64, tagWordsPerPage> tags{};
    /** The decoded capability of each tagged granule; entries of
     *  untagged granules are never read. */
    std::array<Capability, granulesPerPage> caps;
    u64 _stamp = nextChangeStamp();
};

using FrameRef = std::shared_ptr<Frame>;

/**
 * Frame allocator with simple accounting.  Frames are reference counted:
 * copy-on-write and shared mappings alias the same Frame until a write
 * forces a copy.
 *
 * With a capacity configured, the allocator enforces it: an allocation
 * that would exceed the budget first asks MemEvents::reclaim (the
 * kernel's eviction pass) and then fails by returning nullptr — callers
 * must turn that into a guest-visible error, never a host abort.
 */
class PhysMem
{
  public:
    /**
     * Allocate a zeroed frame, or nullptr when the injector fires or
     * the capacity is exhausted even after reclaim.  @p requester
     * identifies the address space being serviced so reclaim can
     * exempt it from destructive measures (OOM kill).
     */
    FrameRef allocFrame(const void *requester = nullptr);

    /**
     * Admission probe for syscalls: true when @p n frames could be
     * allocated right now, running reclaim if needed.  Consumes one
     * FrameAlloc injector event, so injected exhaustion surfaces here
     * exactly like at a real allocation.
     */
    bool canAlloc(u64 n, const void *requester = nullptr);

    /** Max live frames; 0 = unlimited. */
    void setCapacity(u64 frames) { capacity = frames; }
    u64 frameCapacity() const { return capacity; }

    /** Nullable; checked on every allocation. */
    void setFaultInjector(FaultInjector *inj) { injector = inj; }
    FaultInjector *faultInjector() const { return injector; }

    /** Where reclaim requests and detected corruption go (nullable:
     *  no reclaim, and corruption still machine-checks the access). */
    void setMemEvents(MemEvents *ev) { memEvents = ev; }

    /**
     * Consult the TagBitFlip arm for a capability load of a *tagged*
     * granule at @p off in @p frame (guest address @p va).  When the
     * injector fires, the granule's tag is cleared — the modeled bit
     * flip — a machine check is reported, and the caller must raise
     * CapFault::MachineCheck instead of returning a capability.  The
     * corrupted granule can never surface as a forged capability: its
     * tag is gone before any load completes.
     *
     * Inline down to the injector's disarmed-point count.
     */
    bool
    injectCapLoadCorruption(Frame &frame, u64 off, u64 va)
    {
        if (!injector || !injector->shouldFail(FaultPoint::TagBitFlip))
            return false;
        corruptCapLoad(frame, off, va);
        return true;
    }

    /** DataBitFlip arm for a plain data load at @p va.  Fires at most
     *  once per access; data bytes are left intact (detection is
     *  modeled as ECC catching the flip), the access machine-checks.
     *  Inline down to the injector's disarmed-point count. */
    bool
    injectDataLoadCorruption(u64 va)
    {
        if (!injector || !injector->shouldFail(FaultPoint::DataBitFlip))
            return false;
        noteCorruption(FaultPoint::DataBitFlip, va);
        return true;
    }

    /** Frames currently live (allocated and not yet destroyed). */
    u64 liveFrames() const;

    /** Total allocations over the lifetime of the system. */
    u64 totalAllocated() const { return allocated; }

    /** Allocations refused (capacity or injection). */
    u64 failedAllocs() const { return failed; }

    /** Times reclaim was asked for. */
    u64 reclaimRequests() const { return reclaims; }

    /** Zero the lifetime counters (panic reset: the rebuilt-empty
     *  kernel restarts accounting from scratch).  Capacity and
     *  wiring survive; live frames are owned by their references. */
    void resetAccounting()
    {
        allocated = 0;
        failed = 0;
        reclaims = 0;
    }

  private:
    /** Checkpoint/restore mints frames against the live counter without
     *  consulting capacity or the injector. */
    friend struct snap::Access;

    /** Run reclaim if needed so @p n more frames fit; true on success. */
    bool makeRoom(u64 n, const void *requester);

    /** The tag probe's fired half: flip the tag and report it. */
    void corruptCapLoad(Frame &frame, u64 off, u64 va);
    /** Report a machine check for @p point at @p va, if anyone listens. */
    void noteCorruption(FaultPoint point, u64 va);

    u64 allocated = 0;
    std::shared_ptr<u64> live = std::make_shared<u64>(0);
    u64 capacity = 0;
    u64 failed = 0;
    u64 reclaims = 0;
    FaultInjector *injector = nullptr;
    MemEvents *memEvents = nullptr;
};

} // namespace cheri

#endif // CHERI_MEM_PHYS_MEM_H
