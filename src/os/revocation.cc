/**
 * @file
 * Epoch-based revocation: the revoke2 syscall, the sweep scheduler,
 * and the close sweep over the kernel-held capability roots.
 *
 * See os/revocation.h for the model.  The scheduler's soundness
 * argument, for any page P and revoked range R:
 *
 *  - If P was cap-dirty at open, P is on the worklist and will be
 *    scanned before close (device failures re-queue, never drop).
 *  - If P was cap-clean at open, P provably held no capabilities at
 *    all (the dirty bit is sticky — only a proving scan clears it).
 *  - If a capability is stored to P after its scan (or P is mapped
 *    mid-epoch), the VM layer's markCapStore re-queues P, and the
 *    epoch cannot close until the re-scan happens.  Opening the epoch
 *    flushes every software TLB and suppresses cached cap-store
 *    permission, so no store can take a fast path around markCapStore.
 *  - If P is shared, a sibling address space can store to its frame
 *    through a mapping this page table cannot see; every shared
 *    content page is therefore rescanned once more at the close
 *    barrier, when no sibling can run.
 *  - Register files, saved thread contexts, live signal frames, and
 *    kevent udata are swept at close, when the guest cannot run, so
 *    no capability can hop from an unscanned register into an
 *    already-scanned page.
 */

#include "os/kernel.h"

#include <algorithm>

#include "obs/metrics.h"

namespace cheri
{

namespace
{

/** Modelled cost of the close sweep over the kernel-held roots: four
 *  capability operations for each root group (register files, startup
 *  slots, signal frames, kevent udata), however many roots each holds. */
constexpr u64 rootSweepCapOps = 4 * 4;

} // namespace

bool
capInSortedRanges(const Capability &cap,
                  const std::vector<std::pair<u64, u64>> &sorted)
{
    u64 base = cap.base();
    auto it = std::upper_bound(
        sorted.begin(), sorted.end(), base,
        [](u64 v, const std::pair<u64, u64> &r) { return v < r.first; });
    if (it == sorted.begin())
        return false;
    --it;
    return base >= it->first && base < it->second;
}

void
coalesceRanges(std::vector<std::pair<u64, u64>> &ranges)
{
    // The binary search above tests only the predecessor range, which
    // is exact only for disjoint ranges — but revoke2 accepts arbitrary
    // user arrays, including nested and overlapping ones (e.g.
    // [0x1000,0x5000) with [0x2000,0x2100) inside it, where a cap at
    // 0x3000 would land in the inner predecessor and be missed).
    std::sort(ranges.begin(), ranges.end());
    std::vector<std::pair<u64, u64>> merged;
    merged.reserve(ranges.size());
    for (const auto &r : ranges) {
        if (!merged.empty() && r.first <= merged.back().second)
            merged.back().second = std::max(merged.back().second, r.second);
        else
            merged.push_back(r);
    }
    ranges = std::move(merged);
}

std::string
RootSite::toString() const
{
    std::string out = kind;
    if (index != noIndex)
        out += " " + std::to_string(index);
    switch (slot) {
      case Whole:
        break;
      case Pcc:
        out += " pcc";
        break;
      case Ddc:
        out += " ddc";
        break;
      case Stack:
        out += " stack";
        break;
      default:
        out += " c" + std::to_string(slot);
        break;
    }
    return out;
}

SysResult
Kernel::openEpoch(Process &proc, std::vector<std::pair<u64, u64>> ranges,
                  u32 flags)
{
    for (const auto &[lo, hi] : ranges) {
        if (lo >= hi)
            return SysResult::fail(E_INVAL);
    }
    // Sorted disjoint ranges give O(log n) membership per granule —
    // the in-kernel equivalent of CHERIvoke's shadow bitmap.
    coalesceRanges(ranges);
    RevocationEpoch &ep = revEpochs[proc.pid()];
    ep.open = true;
    ep.id = ++nextEpochId;
    ep.ranges = std::move(ranges);
    ep.forceFull = (flags & REVOKE_FORCE_FULL) != 0;
    ep.incremental = (flags & REVOKE_INCREMENTAL) != 0;
    ep.revoked = 0;
    ep.cyclesAtOpen = proc.cost().cycles();
    u64 content = proc.as().contentPages();
    std::vector<u64> work = proc.as().beginSweepEpoch(ep.id, ep.forceFull);
    ep.worklist.assign(work.begin(), work.end());
    // Every content page not on the worklist was proven capability-free
    // by an earlier epoch and never cap-stored since: the pages the
    // dirty-tracking pays for itself by skipping.
    u64 skipped = ep.forceFull ? 0 : content - work.size();
    ++stats->revocation.epochsOpened;
    stats->revocation.pagesSkippedClean += skipped;
    return SysResult::ok(0);
}

u64
Kernel::runRevocationSlice(Process &proc, RevocationEpoch &ep,
                           u64 max_pages)
{
    if (!ep.open)
        return 0;
    auto pred = [&ep](const Capability &cap) {
        return capInSortedRanges(cap, ep.ranges);
    };
    u64 scanned = 0;
    u64 granules = 0;
    u64 revoked = 0;
    while (scanned < max_pages && !ep.worklist.empty()) {
        u64 va = ep.worklist.front();
        ep.worklist.pop_front();
        AddressSpace::PageSweep r = proc.as().sweepPage(va, ep.id, pred);
        if (r.deviceFailed) {
            // Re-queue behind the rest; end the slice so a persistently
            // failing device cannot spin inside one dispatch.
            ep.worklist.push_back(va);
            break;
        }
        ++scanned;
        granules += r.granules;
        revoked += r.revoked;
        if (r.granules != 0) {
            // The scan loads and checks every capability granule.
            proc.cost().alu(4 * r.granules);
            proc.cost().copyLoop(va, 0xD000000000 + scanned * 64, 64);
        }
    }
    // Absorb pages cap-stored after their scan (or mapped mid-epoch).
    for (u64 va : proc.as().takeRedirtiedPages())
        ep.worklist.push_back(va);
    ep.revoked += revoked;
    stats->revocation.pagesScanned += scanned;
    stats->revocation.granulesVisited += granules;
    stats->revocation.tagsRevoked += revoked;
    if (ep.incremental)
        ++stats->revocation.incrementalSlices;
    if (ep.worklist.empty())
        closeRevocationEpoch(proc, ep);
    return scanned;
}

void
Kernel::closeRevocationEpoch(Process &proc, RevocationEpoch &ep)
{
    // Every page is proven scanned; now sweep the capability stores the
    // page tables cannot see.  The guest cannot run between here and
    // the epoch being closed, so nothing can re-hide a capability.
    //
    // Shared pages first: cap-dirtiness is tracked per address space,
    // so a sibling process storing a revoked-range capability through
    // its own mapping of a shared frame after this epoch scanned the
    // page is invisible to markCapStore.  Rescanning every shared
    // content page at the close barrier makes that window sound.
    auto pred = [&ep](const Capability &cap) {
        return capInSortedRanges(cap, ep.ranges);
    };
    AddressSpace::SharedSweep sh =
        proc.as().sweepSharedPagesForClose(ep.id, pred);
    if (sh.granules != 0)
        proc.cost().alu(4 * sh.granules);
    ep.revoked += sh.revoked;
    stats->revocation.pagesScanned += sh.pages;
    stats->revocation.granulesVisited += sh.granules;
    stats->revocation.tagsRevoked += sh.revoked;

    u64 root_revoked = 0;
    forEachRootCap(proc, [&](const RootSite &, Capability &c) {
        if (c.tag() && capInSortedRanges(c, ep.ranges)) {
            c = c.withoutTag();
            ++root_revoked;
        }
    });
    proc.cost().capManip(rootSweepCapOps);
    ep.revoked += root_revoked;
    proc.as().endSweepEpoch();
    ep.open = false;
    ep.worklist.clear();
    ep.closedRanges = ep.ranges;
    // The close is its own tick of the quiescent clock: the oracle's
    // absence rule is live exactly while no later kernel entry
    // (dispatch or direct syscall) has advanced the clock, whichever
    // path drove the epoch here.
    ep.closeSeq = ++quiescentSeq;
    u64 cycle_delta = proc.cost().cycles() - ep.cyclesAtOpen;
    ++stats->revocation.epochsClosed;
    stats->revocation.tagsRevoked += root_revoked;
    stats->revocation.cyclesInEpochs += cycle_delta;
}

SysResult
Kernel::driveEpochToClose(Process &proc, RevocationEpoch &ep)
{
    while (ep.open) {
        u64 chunk = std::max<u64>(cfg.revokeSliceBudget, 64);
        u64 scanned = runRevocationSlice(proc, ep, chunk);
        if (ep.open && scanned == 0) {
            // Zero progress with work queued: the swap device refused
            // every read.  Leave the epoch open — the caller retries
            // (or the incremental pump drains it) once the device
            // recovers; quarantined memory stays unreusable meanwhile.
            return SysResult::fail(E_INTR);
        }
    }
    ++stats->revocation.syncSweeps;
    return SysResult::ok(ep.revoked);
}

void
Kernel::pumpRevocation(Process &proc)
{
    auto it = revEpochs.find(proc.pid());
    if (it == revEpochs.end() || !it->second.open)
        return;
    runRevocationSlice(proc, it->second, cfg.revokeSliceBudget);
}

void
Kernel::abortRevocationEpoch(Process &proc)
{
    auto it = revEpochs.find(proc.pid());
    if (it == revEpochs.end() || !it->second.open)
        return;
    RevocationEpoch &ep = it->second;
    proc.as().endSweepEpoch();
    ep.open = false;
    ep.worklist.clear();
    // Deliberately no closedRanges/closeSeq update: this epoch proved
    // nothing, and the oracle must not treat its ranges as revoked.
    ++stats->revocation.epochsAborted;
}

SysResult
Kernel::sysRevoke2(Process &proc,
                   const std::vector<std::pair<u64, u64>> &ranges,
                   u32 flags)
{
    chargeSyscall(proc, 1);
    constexpr u32 known =
        REVOKE_SYNC | REVOKE_INCREMENTAL | REVOKE_FORCE_FULL;
    if (flags & ~known)
        return SysResult::fail(E_INVAL);
    const bool sync = (flags & REVOKE_SYNC) != 0;
    const bool incremental = (flags & REVOKE_INCREMENTAL) != 0;
    // Exactly one mode: SYNC|INCREMENTAL is contradictory, neither is
    // a no-op request.
    if (sync == incremental)
        return SysResult::fail(E_INVAL);
    RevocationEpoch &ep = revEpochs[proc.pid()];
    if (!ranges.empty()) {
        if (ep.open)
            return SysResult::fail(E_BUSY);
        SysResult r = openEpoch(proc, ranges, flags);
        if (r.failed())
            return r;
        if (sync)
            return driveEpochToClose(proc, ep);
        runRevocationSlice(proc, ep, cfg.revokeSliceBudget);
        return SysResult::ok(ep.open ? ep.worklist.size() : 0);
    }
    // Empty range set: drain (SYNC) or advance (INCREMENTAL) whatever
    // epoch is open; nothing open is trivially done.
    if (!ep.open)
        return SysResult::ok(0);
    if (sync)
        return driveEpochToClose(proc, ep);
    runRevocationSlice(proc, ep, cfg.revokeSliceBudget);
    return SysResult::ok(ep.open ? ep.worklist.size() : 0);
}

} // namespace cheri
