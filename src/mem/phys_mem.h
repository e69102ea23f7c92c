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
#include <bitset>
#include <cstddef>
#include <cstring>
#include <functional>
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
        // A data store invalidates every capability granule it overlaps.
        u64 first = off / capSize;
        u64 last = (off + len - 1) / capSize;
        for (u64 g = first; g <= last; ++g)
            tags.reset(g);
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
    bool tagAt(u64 off) const { return tags.test(off / capSize); }

    /** Clear the tag of the granule containing @p off. */
    void clearTagAt(u64 off) { tags.reset(off / capSize); }

    /** Number of tagged granules in the page. */
    u64 taggedCount() const { return tags.count(); }

    /** Raw data access for swap and checkpointing. */
    const std::array<u8, pageSize> &bytes() const { return data; }

    /** Visit every tagged granule as (offset, capability). */
    template <typename Fn>
    void
    forEachTagged(Fn &&fn) const
    {
        for (u64 g = 0; g < granulesPerPage; ++g) {
            if (tags.test(g))
                fn(g * capSize, caps[g]);
        }
    }

  private:
    /** Checkpoint/restore moves the bytes in and out in place. */
    friend struct snap::Access;

    std::array<u8, pageSize> data;
    std::bitset<granulesPerPage> tags;
    std::array<Capability, granulesPerPage> caps;
};

using FrameRef = std::shared_ptr<Frame>;

/**
 * Frame allocator with simple accounting.  Frames are reference counted:
 * copy-on-write and shared mappings alias the same Frame until a write
 * forces a copy.
 *
 * With a capacity configured, the allocator enforces it: an allocation
 * that would exceed the budget first runs the reclaim hook (the kernel's
 * eviction pass) and then fails by returning nullptr — callers must turn
 * that into a guest-visible error, never a host abort.
 */
class PhysMem
{
  public:
    /**
     * Asked to make room for @p wanted frames on behalf of
     * @p requester (the AddressSpace whose fault is being serviced, or
     * nullptr); returns frames actually freed.  The hook may evict from
     * the requester itself — pages pinned by an in-flight fault are
     * never evictable — but must not destroy it.
     */
    using ReclaimHook = std::function<u64(u64 wanted, const void *requester)>;

    /**
     * Allocate a zeroed frame, or nullptr when the injector fires or
     * the capacity is exhausted even after reclaim.  @p requester
     * identifies the address space being serviced so the reclaim hook
     * can exempt it from destructive measures (OOM kill).
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

    void setReclaimHook(ReclaimHook hook) { reclaim = std::move(hook); }
    /** Nullable; checked on every allocation. */
    void setFaultInjector(FaultInjector *inj) { injector = inj; }
    FaultInjector *faultInjector() const { return injector; }

    /** Notified of every injected corruption event as
     *  (point, guest VA); the kernel counts machine checks and feeds
     *  the flight recorder through it. */
    using CorruptionHook = std::function<void(FaultPoint, u64 va)>;
    void setCorruptionHook(CorruptionHook hook)
    {
        corruption = std::move(hook);
    }

    /**
     * Consult the TagBitFlip arm for a capability load of a *tagged*
     * granule at @p off in @p frame (guest address @p va).  When the
     * injector fires, the granule's tag is cleared — the modeled bit
     * flip — the hook is notified, and the caller must raise
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

    /** Times the reclaim hook was invoked. */
    u64 reclaimRequests() const { return reclaims; }

    /** Zero the lifetime counters (panic reset: the rebuilt-empty
     *  kernel restarts accounting from scratch).  Capacity and hook
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
    /** Tell the corruption hook, if any, that @p point fired at @p va. */
    void noteCorruption(FaultPoint point, u64 va);

    u64 allocated = 0;
    std::shared_ptr<u64> live = std::make_shared<u64>(0);
    u64 capacity = 0;
    u64 failed = 0;
    u64 reclaims = 0;
    ReclaimHook reclaim;
    FaultInjector *injector = nullptr;
    CorruptionHook corruption;
};

} // namespace cheri

#endif // CHERI_MEM_PHYS_MEM_H
