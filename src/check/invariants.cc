#include "check/invariants.h"

#include <array>
#include <cinttypes>
#include <unordered_map>
#include <unordered_set>

#include "cap/capability.h"
#include "check/strfmt.h"
#include "obs/metrics.h"
#include "os/kernel.h"

namespace cheri::check
{

namespace
{

/** Per-frame holders seen while sweeping the page tables. */
struct FrameUse
{
    u64 pteUsers = 0;
    u64 shmHolds = 0;
    /** PTE users not marked COW or shared (must be <= 1 per frame). */
    u64 exclusiveUsers = 0;
    /** shared_ptr use count observed at one of the holders. */
    long observedRefs = 0;
};

/** Sealing authorities cover otype space, not the address space; they
 *  are exempt from address-space containment. */
bool
isSealer(const Capability &cap)
{
    return (cap.perms() & (PERM_SEAL | PERM_UNSEAL)) != 0;
}

/**
 * Rule 1: the capability's bounds must survive CHERI-Concentrate
 * re-decompression exactly — a tagged capability whose bounds are not
 * representable could never have been produced by the architecture.
 */
bool
representable(const Capability &cap)
{
    if (cap.top() > u128{~u64{0}})
        return true; // whole-address-space root; always representable
    return compress::boundsExactlyRepresentable(cap.base(), cap.length(),
                                                cap.format());
}

/** Rules 1+2 for a kernel-held root capability (bounds only: register
 *  files legitimately hold e.g. execute-permission code caps).  The
 *  site is formatted only when a violation is recorded, so a clean pass
 *  builds no strings. */
void
checkRootCap(Report &r, const Process &proc, const RootSite &site,
             const Capability &cap, const Capability &root)
{
    if (!cap.tag())
        return;
    ++r.capsChecked;
    if (!representable(cap)) {
        r.violations.push_back(
            {"cap-representability",
             fmt("pid %" PRIu64 " %s: %s", proc.pid(),
                 site.toString().c_str(), cap.toString().c_str())});
    }
    if (isSealer(cap))
        return;
    if (cap.base() < root.base() || cap.top() > root.top()) {
        r.violations.push_back(
            {"cap-containment",
             fmt("pid %" PRIu64 " %s: %s outside root %s", proc.pid(),
                 site.toString().c_str(), cap.toString().c_str(),
                 root.toString().c_str())});
    }
}

/** Rules 1-3 for one tagged capability resident in @p proc's memory —
 *  including signal frames, which live on the stack. */
void
checkMemoryCap(Report &r, const Process &proc, const Capability &root,
               u64 va, const Capability &cap)
{
    ++r.capsChecked;
    if (!representable(cap)) {
        r.violations.push_back(
            {"cap-representability",
             fmt("pid %" PRIu64 " mem @0x%" PRIx64 ": %s", proc.pid(), va,
                 cap.toString().c_str())});
        return;
    }
    if (isSealer(cap))
        return;
    bool contained = cap.base() >= root.base() && cap.top() <= root.top() &&
                     (cap.perms() & ~root.perms()) == 0;
    if (!contained) {
        r.violations.push_back(
            {"cap-containment",
             fmt("pid %" PRIu64 " mem @0x%" PRIx64 ": %s outside root",
                 proc.pid(), va, cap.toString().c_str())});
        return;
    }
    if (cap.sealed())
        return; // CBuildCap round-trips unsealed patterns only
    auto rebuilt = Capability::build(root, cap.withoutTag());
    if (!rebuilt.ok() || !(rebuilt.value() == cap)) {
        r.violations.push_back(
            {"cap-derivation",
             fmt("pid %" PRIu64 " mem @0x%" PRIx64
                 ": %s not rederivable from root",
                 proc.pid(), va, cap.toString().c_str())});
    }
}

} // namespace

std::string
Report::toString() const
{
    std::string out;
    for (const Violation &v : violations) {
        out += v.rule;
        out += ": ";
        out += v.detail;
        out += "\n";
    }
    if (violations.empty())
        out = "ok\n";
    return out;
}

Report
Invariants::check(Kernel &kern)
{
    Report r;

    std::unordered_map<const Frame *, FrameUse> frames;
    std::unordered_map<u64, u64> slotRefs; // slot -> PTEs naming it

    kern.forEachProcess([&](const Process &proc) {
        ++r.processes;
        const Capability &root = proc.as().rederivationRoot();

        // Capability state outside the page tables: every kernel-held
        // root (register files, thread and signal-frame contexts,
        // startup slots, kevent udata; Figure 1).
        kern.forEachRootCap(proc, [&](const RootSite &site,
                                      const Capability &cap) {
            checkRootCap(r, proc, site, cap, root);
        });

        // Rule 7: a revocation epoch that closed at this exact
        // quiescent point promises absence — no tagged capability into
        // its ranges anywhere the kernel can see.  Only the close tick
        // itself is checked (the close bumps the quiescent clock, so
        // the window is exact for dispatched and direct entry paths
        // alike): afterwards the guest may legitimately re-derive into
        // the (now reusable) ranges.
        const RevocationEpoch *ep = kern.findRevocationEpoch(proc.pid());
        bool epochClosedNow = ep && !ep->open && ep->closeSeq != 0 &&
                              ep->closeSeq == kern.quiescentCount() &&
                              !ep->closedRanges.empty();
        // Swap tag metadata keeps each tagged granule's pattern with the
        // tag stripped, so it is tested as is; memory and roots may hold
        // untagged values, which promise nothing.
        auto revoked = [&](const Capability &cap) {
            return capInSortedRanges(cap, ep->closedRanges);
        };
        auto survivor = [&](std::vector<Violation> &out, const char *where,
                            u64 at, const Capability &cap) {
            out.push_back({"revoked-cap-survives",
                           fmt("pid %" PRIu64 " %s @0x%" PRIx64
                               ": %s survived closed epoch %" PRIu64,
                               proc.pid(), where, at,
                               cap.toString().c_str(), ep->id)});
        };

        // One walk over the page table checks the memory capabilities
        // (rules 1-3), the PTEs (frame ownership and swap references)
        // and rule 7's memory and swap sweep.  Only entries with a
        // frame or a slot can break a rule, so only those are visited.
        // The report keeps the order of separate passes: memory
        // capabilities, then PTE rules, then rule 7 over memory, swap,
        // and the roots.
        std::vector<Violation> pteViolations;
        std::vector<Violation> memSurvivors;
        std::vector<Violation> swapSurvivors;
        r.pagesChecked += proc.as().mappedPages();
        proc.as().forEachPteWithCaps<AddressSpace::PteSet::Content>(
            [&](const AddressSpace::PteView &pte) {
                if (pte.frame && pte.swapped) {
                    pteViolations.push_back(
                        {"pte-resident-and-swapped",
                         fmt("pid %" PRIu64 " va 0x%" PRIx64
                             " holds both a frame and slot %" PRIu64,
                             proc.pid(), pte.va, pte.swapSlot)});
                }
                if (pte.frame) {
                    FrameUse &u = frames[pte.frame];
                    ++u.pteUsers;
                    if (!pte.cow && !pte.shared)
                        ++u.exclusiveUsers;
                    u.observedRefs = pte.frameRefs;
                } else if (pte.swapped) {
                    ++slotRefs[pte.swapSlot];
                }
                if (epochClosedNow && pte.swapped) {
                    kern.swapDevice().forEachTaggedInSlot(
                        pte.swapSlot,
                        [&](u64 off, const Capability &pattern) {
                            if (revoked(pattern))
                                survivor(swapSurvivors, "swap",
                                         pte.va + off, pattern);
                        });
                }
            },
            [&](u64 va, const Capability &cap) {
                checkMemoryCap(r, proc, root, va, cap);
                if (epochClosedNow && revoked(cap))
                    survivor(memSurvivors, "mem", va, cap);
            });
        for (std::vector<Violation> *list :
             {&pteViolations, &memSurvivors, &swapSurvivors}) {
            r.violations.insert(r.violations.end(),
                                std::make_move_iterator(list->begin()),
                                std::make_move_iterator(list->end()));
        }

        if (epochClosedNow) {
            kern.forEachRootCap(proc, [&](const RootSite &site,
                                          const Capability &cap) {
                if (cap.tag() && revoked(cap))
                    survivor(r.violations, site.toString().c_str(),
                             cap.address(), cap);
            });
        }

        // Rule 8: the teardown left an ended process holding nothing.
        if (proc.exited()) {
            u64 maps = 0;
            proc.as().forEachMapping([&](const Mapping &) { ++maps; });
            u64 slots = proc.as().swappedPages();
            bool epoch = ep && ep->open;
            if (maps || slots || proc.fdCount() || epoch) {
                r.violations.push_back(
                    {"dead-process-holds",
                     fmt("pid %" PRIu64 " exited but holds %" PRIu64
                         " mappings, %" PRIu64 " swap slots, %" PRIu64
                         " descriptors%s",
                         proc.pid(), maps, slots, proc.fdCount(),
                         epoch ? ", an open epoch" : "")});
            }
        }
    });

    // SysV segments pin their frames independently of any mapping.
    kern.forEachShmFrame([&](const FrameRef &f) {
        FrameUse &u = frames[f.get()];
        ++u.shmHolds;
        u.observedRefs = f.use_count();
    });

    // Rule 4: frame ownership.
    for (const auto &[frame, use] : frames) {
        ++r.framesChecked;
        u64 holders = use.pteUsers + use.shmHolds;
        if (holders > 1 && use.exclusiveUsers > 0) {
            r.violations.push_back(
                {"frame-aliased-exclusively",
                 fmt("frame %p: %" PRIu64 " holders but %" PRIu64
                     " non-COW non-shared PTEs",
                     static_cast<const void *>(frame), holders,
                     use.exclusiveUsers)});
        }
        if (use.observedRefs != static_cast<long>(holders)) {
            r.violations.push_back(
                {"frame-refcount",
                 fmt("frame %p: use_count %ld but %" PRIu64
                     " holders visible",
                     static_cast<const void *>(frame), use.observedRefs,
                     holders)});
        }
    }
    if (frames.size() != kern.physMem().liveFrames()) {
        r.violations.push_back(
            {"frame-live-count",
             fmt("page tables + shm reference %zu frames, PhysMem "
                 "reports %" PRIu64 " live",
                 frames.size(), kern.physMem().liveFrames())});
    }

    // Rule 5: swap accounting, from both directions.
    const SwapDevice &swap = kern.swapDevice();
    for (const auto &[slot, refs] : slotRefs) {
        ++r.slotsChecked;
        u64 devRefs = swap.slotRefs(slot);
        if (devRefs != refs) {
            r.violations.push_back(
                {"slot-refcount",
                 fmt("slot %" PRIu64 ": device refcount %" PRIu64
                     " but %" PRIu64 " PTEs reference it",
                     slot, devRefs, refs)});
        }
    }
    swap.forEachSlot([&](u64 slot, u64 refs) {
        if (slotRefs.find(slot) == slotRefs.end()) {
            r.violations.push_back(
                {"slot-leaked",
                 fmt("slot %" PRIu64 " occupied (refs %" PRIu64
                     ") but no PTE references it",
                     slot, refs)});
        }
    });

    // Rule 6: machine-check containment.  Every injected memory
    // corruption (TagBitFlip, DataBitFlip) fires its detection hook
    // exactly once, so the kernel's machine-check count dominates the
    // injector's fired counts.  A shortfall means a corrupted granule
    // slipped past detection — the precursor to a forged capability.
    // (">=", not "==": the machine-check counter deliberately survives
    // the panic path's transactional reset while injector arms do not.)
    {
        FaultInjector &inj = kern.faultInjector();
        u64 corrupted = inj.injected(FaultPoint::TagBitFlip) +
                        inj.injected(FaultPoint::DataBitFlip);
        u64 mchecks = kern.counters().hardening.machineChecks;
        if (mchecks < corrupted) {
            r.violations.push_back(
                {"machine-check-containment",
                 fmt("%" PRIu64 " corruption injections but only "
                     "%" PRIu64 " machine checks: corruption escaped "
                     "detection",
                     corrupted, mchecks)});
        }
    }

    // Rule 7: the registry's per-cause fault counters agree with its
    // recorded fault log.
    if (obs::Metrics *m = kern.metrics()) {
        std::array<u64, numCapFaults> logged{};
        for (const obs::FaultRecord &f : m->faults())
            ++logged[static_cast<unsigned>(f.cause)];
        for (unsigned c = 0; c < numCapFaults; ++c) {
            // The record log is capped; counters must dominate it.
            if (m->faultCount(static_cast<CapFault>(c)) < logged[c]) {
                r.violations.push_back(
                    {"metrics-fault-mirror",
                     fmt("cause %s: counter %" PRIu64
                         " < %" PRIu64 " recorded faults",
                         std::string(
                             capFaultName(static_cast<CapFault>(c)))
                             .c_str(),
                         m->faultCount(static_cast<CapFault>(c)),
                         logged[c])});
            }
        }
        m->recordOracleRun(r.violations.size());
    }

    return r;
}

} // namespace cheri::check
