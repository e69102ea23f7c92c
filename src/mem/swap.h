/**
 * @file
 * Swap device with tag-preserving metadata.
 *
 * External storage does not carry tag bits, so naively paging a frame
 * out and back in would destroy every capability on it — silently
 * breaking pointers in swapped processes.  CheriBSD's swap pager instead
 * scans evicted pages, records which granules were tagged (together with
 * the capability pattern), and on swap-in *rederives* fresh architectural
 * capabilities from an appropriate root.  The architectural provenance
 * chain is broken, but the abstract capability is preserved (paper
 * section 3, "Swapping").
 *
 * SwapPolicy::Naive models the broken alternative and is used by tests
 * and the ablation bench to show why the metadata is necessary.
 */

#ifndef CHERI_MEM_SWAP_H
#define CHERI_MEM_SWAP_H

#include <array>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "cap/capability.h"
#include "mem/fault_inject.h"
#include "mem/phys_mem.h"

namespace cheri
{

namespace snap
{
struct Access;
}

/** How the swap subsystem treats capability tags. */
enum class SwapPolicy
{
    /** Record tag metadata at swap-out; rederive at swap-in (CheriBSD). */
    PreserveTags,
    /** Store raw bytes only; all tags are lost (the failure mode). */
    Naive,
};

/**
 * A paging store: raw page images plus, under PreserveTags, the tagged
 * granules of each page saved as untagged capability patterns.
 */
class SwapDevice
{
  public:
    explicit SwapDevice(SwapPolicy policy = SwapPolicy::PreserveTags)
        : _policy(policy)
    {
    }

    SwapPolicy policy() const { return _policy; }

    /** swapOut's failure value: no slot was written. */
    static constexpr u64 invalidSlot = ~u64{0};

    /**
     * Write @p frame out, returning the slot id — or invalidSlot when
     * the device is full (slot budget) or the injector fires.  Tags
     * never reach the device's data area; under PreserveTags they are
     * captured in the slot's metadata instead.
     */
    u64 swapOut(const Frame &frame);

    /**
     * Read slot @p slot back into @p frame.  Raw bytes are restored
     * as-is (untagged).  Under PreserveTags, each recorded granule is
     * rederived from @p root via CBuildCap; granules whose pattern the
     * root cannot legitimately cover stay untagged (rederivation must
     * never escalate).  On success one reference is dropped — the slot
     * is released only when no other space still holds it (fork) — and
     * true is returned; an injected failure leaves the slot (and
     * @p frame's prior contents) untouched so the access can be
     * retried.  An unknown slot is a failure, never a host abort.
     *
     * @p fault (nullable) receives the precise cause on failure:
     * CapFault::MachineCheck when the TagBitFlip injector corrupted
     * the slot's tag metadata (the corrupted entry is dropped, so the
     * retry succeeds with that granule untagged), SwapInFailure for
     * every other refusal.
     */
    bool swapIn(u64 slot, Frame &frame, const Capability &root,
                CapFault *fault = nullptr);

    /**
     * Drop one reference to @p slot without reading it back — the page
     * it held was unmapped or its owner exited.  The slot is released
     * when the last reference goes.  Idempotent for unknown slots.
     */
    void discard(u64 slot);

    /**
     * Add a reference to @p slot: fork shares swapped-out pages the
     * same way COW shares frames, so each space's later swap-in (or
     * discard) resolves independently.  No-op for unknown slots.
     */
    void retain(u64 slot);

    /** Max occupied slots; 0 = unlimited. */
    void setSlotBudget(u64 n) { budget = n; }
    u64 slotBudget() const { return budget; }

    /** Nullable; checked on every swap-out and swap-in. */
    void setFaultInjector(FaultInjector *inj) { injector = inj; }

    /** Told of detected corruption of swapped tag metadata as a
     *  machine check at (point, slot id); nullable. */
    void setMemEvents(MemEvents *ev) { memEvents = ev; }

    /**
     * Revocation sweep of @p slot: drop recorded tag metadata for
     * patterns matching @p pred, so the capability is not rederived at
     * swap-in.  The sweep must read the slot's metadata back from the
     * device, so this reports a SweepScan event to the injector and
     * can fail like any device read.  On success stores entries
     * dropped in @p revoked and the tag-metadata entries left in
     * @p remaining (both nullable) and returns true; on an injected
     * failure the slot is untouched and the scan can be retried.  An
     * unknown slot scans as empty.
     */
    bool sweepSlot(u64 slot,
                   const std::function<bool(const Capability &)> &pred,
                   u64 *revoked, u64 *remaining);

    /** Tagged granules recorded in @p slot (0 for unknown slots). */
    u64
    slotTagCount(u64 slot) const
    {
        auto it = slots.find(slot);
        return it == slots.end() ? 0 : it->second.tagMeta.size();
    }

    /** Visit @p slot's tag metadata as (granule offset, pattern) — the
     *  oracle audits swapped pages without paging them in. */
    void
    forEachTaggedInSlot(
        u64 slot,
        const std::function<void(u64, const Capability &)> &fn) const
    {
        auto it = slots.find(slot);
        if (it == slots.end())
            return;
        for (const auto &[off, pattern] : it->second.tagMeta)
            fn(off, pattern);
    }

    /** Sweep-scan reads refused (injection). */
    u64 failedSweepScans() const { return sweepScanFailures; }

    /** Slots currently occupied. */
    u64 usedSlots() const { return slots.size(); }

    /** @name Checking-layer introspection (src/check)
     * Read-only views of the slot table so the invariant oracle can
     * compare device refcounts against the page-table ground truth
     * (each slot's refs must equal the number of PTEs naming it).
     */
    /// @{
    /** Reference count of @p slot; 0 when the slot is unoccupied. */
    u64
    slotRefs(u64 slot) const
    {
        auto it = slots.find(slot);
        return it == slots.end() ? 0 : it->second.refs;
    }

    /** Visit every occupied slot as (slot id, refcount). */
    void
    forEachSlot(const std::function<void(u64, u64)> &fn) const
    {
        for (const auto &[id, s] : slots)
            fn(id, s.refs);
    }
    /// @}

    /** Tagged granules recorded across all swap-outs so far. */
    u64 totalTagsPreserved() const { return tagsPreserved; }

    /** Swap-outs refused (budget or injection). */
    u64 failedSwapOuts() const { return swapOutFailures; }

    /** Swap-ins refused (injection). */
    u64 failedSwapIns() const { return swapInFailures; }

    /** Slots released unread via discard(). */
    u64 totalDiscards() const { return discards; }

    /** Zero the operation counters (kernel panic reset rebuilds an
     *  empty kernel); occupied slots are untouched. */
    void
    resetAccounting()
    {
        swapOuts = 0;
        tagsPreserved = 0;
        swapOutFailures = 0;
        swapInFailures = 0;
        sweepScanFailures = 0;
        discards = 0;
    }

  private:
    /** Checkpoint/restore serializes the slot table bit-exactly. */
    friend struct snap::Access;

    struct Slot
    {
        std::array<u8, pageSize> bytes;
        /** (granule offset, untagged capability pattern) pairs. */
        std::vector<std::pair<u64, Capability>> tagMeta;
        /** Spaces referencing this slot (> 1 after fork). */
        u64 refs = 1;
    };

    SwapPolicy _policy;
    std::unordered_map<u64, Slot> slots;
    u64 nextSlot = 0;
    u64 swapOuts = 0;
    u64 tagsPreserved = 0;
    u64 budget = 0;
    u64 swapOutFailures = 0;
    u64 swapInFailures = 0;
    u64 sweepScanFailures = 0;
    u64 discards = 0;
    FaultInjector *injector = nullptr;
    MemEvents *memEvents = nullptr;
};

} // namespace cheri

#endif // CHERI_MEM_SWAP_H
