#include "check/invariants.h"

#include <array>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <unordered_map>
#include <unordered_set>

#include "cap/capability.h"
#include "obs/metrics.h"
#include "os/kernel.h"

namespace cheri::check
{

namespace
{

std::string
fmt(const char *f, ...)
{
    char buf[256];
    va_list ap;
    va_start(ap, f);
    std::vsnprintf(buf, sizeof(buf), f, ap);
    va_end(ap);
    return buf;
}

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

/** Rules 1+2 for a register-file capability (bounds only: register
 *  files legitimately hold e.g. execute-permission code caps).
 *  @p where() names the slot, e.g. "tid 3 c5"; it runs only when a
 *  violation is recorded, so a clean pass formats nothing. */
template <typename Where>
void
checkRegCap(Report &r, const Process &proc, const Where &where,
            const Capability &cap, const Capability &root)
{
    if (!cap.tag())
        return;
    ++r.capsChecked;
    if (!representable(cap)) {
        r.violations.push_back(
            {"cap-representability",
             fmt("pid %" PRIu64 " %s: %s", proc.pid(), where().c_str(),
                 cap.toString().c_str())});
    }
    if (isSealer(cap))
        return;
    if (cap.base() < root.base() || cap.top() > root.top()) {
        r.violations.push_back(
            {"cap-containment",
             fmt("pid %" PRIu64 " %s: %s outside root %s", proc.pid(),
                 where().c_str(), cap.toString().c_str(),
                 root.toString().c_str())});
    }
}

/** Rules 1+2 for a register file; @p ctx() names it ("regs",
 *  "tid 3"), formatted only on violation like checkRegCap's slot. */
template <typename Ctx>
void
checkRegs(Report &r, const Process &proc, const Ctx &ctx,
          const ThreadRegs &regs, const Capability &root)
{
    checkRegCap(r, proc, [&] { return ctx() + " pcc"; }, regs.pcc, root);
    checkRegCap(r, proc, [&] { return ctx() + " ddc"; }, regs.ddc, root);
    for (unsigned i = 0; i < numCapRegs; ++i) {
        checkRegCap(r, proc, [&] { return ctx() + fmt(" c%u", i); },
                    regs.c[i], root);
    }
}

/** A constant slot name for checkRegs/checkRegCap. */
auto
named(const char *name)
{
    return [name] { return std::string(name); };
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

        // Capability state: current register file, switched-out thread
        // contexts, and the startup capability slots (Figure 1).
        checkRegs(r, proc, named("regs"), proc.regs(), root);
        proc.forEachThread([&](const ThreadRecord &t) {
            auto thread = [&] { return fmt("tid %" PRIu64, t.tid); };
            checkRegs(r, proc, thread, t.saved, root);
            checkRegCap(r, proc, [&] { return thread() + " stack"; },
                        t.stackCap, root);
        });
        checkRegCap(r, proc, named("stackCap"), proc.stackCap, root);
        checkRegCap(r, proc, named("argvCap"), proc.argvCap, root);
        checkRegCap(r, proc, named("envvCap"), proc.envvCap, root);
        checkRegCap(r, proc, named("auxvCap"), proc.auxvCap, root);
        checkRegCap(r, proc, named("trampolineCap"), proc.trampolineCap,
                    root);

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
        // tag stripped, so it is checked as is; registers and startup
        // slots may hold untagged values, which promise nothing.
        auto survivorPattern = [&](std::vector<Violation> &out,
                                   const char *where, u64 at,
                                   const Capability &cap) {
            if (!capInSortedRanges(cap, ep->closedRanges))
                return;
            out.push_back({"revoked-cap-survives",
                           fmt("pid %" PRIu64 " %s @0x%" PRIx64
                               ": %s survived closed epoch %" PRIu64,
                               proc.pid(), where, at,
                               cap.toString().c_str(), ep->id)});
        };
        auto survivor = [&](std::vector<Violation> &out, const char *where,
                            u64 at, const Capability &cap) {
            if (cap.tag())
                survivorPattern(out, where, at, cap);
        };

        // One walk over the page table checks the memory capabilities
        // (rules 1-3), the PTEs (frame ownership and swap references)
        // and rule 7's memory and swap sweep.  Only entries with a
        // frame or a slot can break a rule, so only those are visited.
        // The report keeps the order of separate passes: memory
        // capabilities, then PTE rules, then rule 7 over memory, swap,
        // and registers.
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
                            survivorPattern(swapSurvivors, "swap",
                                            pte.va + off, pattern);
                        });
                }
            },
            [&](u64 va, const Capability &cap) {
                checkMemoryCap(r, proc, root, va, cap);
                if (epochClosedNow)
                    survivor(memSurvivors, "mem", va, cap);
            });
        for (std::vector<Violation> *list :
             {&pteViolations, &memSurvivors, &swapSurvivors}) {
            r.violations.insert(r.violations.end(),
                                std::make_move_iterator(list->begin()),
                                std::make_move_iterator(list->end()));
        }

        if (epochClosedNow) {
            auto sweepRegs = [&](const char *where,
                                 const ThreadRegs &regs) {
                survivor(r.violations, where, regs.pcc.address(),
                         regs.pcc);
                survivor(r.violations, where, regs.ddc.address(),
                         regs.ddc);
                for (const Capability &c : regs.c)
                    survivor(r.violations, where, c.address(), c);
            };
            sweepRegs("regs", proc.regs());
            proc.forEachThread([&](const ThreadRecord &t) {
                sweepRegs("thread-saved", t.saved);
                survivor(r.violations, "thread-stack", t.stackCap.address(),
                         t.stackCap);
            });
            for (const SigFrame *frame : proc.liveSigFrames)
                sweepRegs("sigframe", frame->saved);
            survivor(r.violations, "stackCap", proc.stackCap.address(),
                     proc.stackCap);
            survivor(r.violations, "argvCap", proc.argvCap.address(),
                     proc.argvCap);
            survivor(r.violations, "envvCap", proc.envvCap.address(),
                     proc.envvCap);
            survivor(r.violations, "auxvCap", proc.auxvCap.address(),
                     proc.auxvCap);
            survivor(r.violations, "trampolineCap",
                     proc.trampolineCap.address(), proc.trampolineCap);
            kern.forEachKeventUdata(
                proc.pid(), [&](const Capability &udata) {
                    survivor(r.violations, "kevent-udata", udata.address(),
                             udata);
                });
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
        if (kern.hardeningStats().machineChecks < corrupted) {
            r.violations.push_back(
                {"machine-check-containment",
                 fmt("%" PRIu64 " corruption injections but only "
                     "%" PRIu64 " machine checks: corruption escaped "
                     "detection",
                     corrupted, kern.hardeningStats().machineChecks)});
        }
    }

    // Rule 7: the Metrics mirror must agree with the kernel's own
    // accounting, and cause counters with the recorded fault log.
    if (obs::Metrics *m = kern.metrics()) {
        const obs::PressureCounters &mp = m->pressure();
        const Kernel::MemPressureStats &kp = kern.memPressure();
        if (mp.reclaimPasses != kp.reclaimPasses ||
            mp.pagesReclaimed != kp.pagesReclaimed ||
            mp.oomKills != kp.oomKills ||
            mp.enomemErrors != kp.enomemErrors) {
            r.violations.push_back(
                {"metrics-pressure-mirror",
                 fmt("metrics (%" PRIu64 "/%" PRIu64 "/%" PRIu64
                     "/%" PRIu64 ") != kernel (%" PRIu64 "/%" PRIu64
                     "/%" PRIu64 "/%" PRIu64 ")",
                     mp.reclaimPasses, mp.pagesReclaimed, mp.oomKills,
                     mp.enomemErrors, kp.reclaimPasses,
                     kp.pagesReclaimed, kp.oomKills, kp.enomemErrors)});
        }
        const obs::RevocationCounters &mr = m->revocation();
        const Kernel::RevocationStats &kr = kern.revocationStats();
        if (mr.epochsOpened != kr.epochsOpened ||
            mr.epochsClosed != kr.epochsClosed ||
            mr.epochsAborted != kr.epochsAborted ||
            mr.pagesScanned != kr.pagesScanned ||
            mr.pagesSkippedClean != kr.pagesSkippedClean ||
            mr.granulesVisited != kr.granulesVisited ||
            mr.tagsRevoked != kr.tagsRevoked ||
            mr.incrementalSlices != kr.incrementalSlices ||
            mr.syncSweeps != kr.syncSweeps ||
            mr.cyclesInEpochs != kr.cyclesInEpochs) {
            r.violations.push_back(
                {"metrics-revocation-mirror",
                 fmt("metrics epochs %" PRIu64 "/%" PRIu64 "/%" PRIu64
                     " pages %" PRIu64 " tags %" PRIu64
                     " != kernel %" PRIu64 "/%" PRIu64 "/%" PRIu64
                     " pages %" PRIu64 " tags %" PRIu64,
                     mr.epochsOpened, mr.epochsClosed, mr.epochsAborted,
                     mr.pagesScanned, mr.tagsRevoked, kr.epochsOpened,
                     kr.epochsClosed, kr.epochsAborted, kr.pagesScanned,
                     kr.tagsRevoked)});
        }
        // Scheduler counters: the metrics mirror is updated at exactly
        // the same points as the scheduler's own SchedStats, so any
        // drift means a counting path was missed.
        if (const SchedStats *ks = kern.schedulerStats()) {
            const obs::SchedCounters &ms = m->sched();
            if (ms.contextSwitches != ks->contextSwitches ||
                ms.preemptions != ks->preemptions ||
                ms.slices != ks->slices ||
                ms.blocksWait4 != ks->blocksWait4 ||
                ms.blocksEvent != ks->blocksEvent ||
                ms.blocksSleep != ks->blocksSleep ||
                ms.blocksFd != ks->blocksFd ||
                ms.wakes != ks->wakes ||
                ms.maxRunQueueDepth != ks->maxRunQueueDepth ||
                ms.idleAdvances != ks->idleAdvances ||
                ms.stepsExecuted != ks->stepsExecuted) {
                r.violations.push_back(
                    {"metrics-sched-mirror",
                     fmt("metrics switches %" PRIu64 " preempts %" PRIu64
                         " slices %" PRIu64 " steps %" PRIu64
                         " != scheduler %" PRIu64 "/%" PRIu64 "/%" PRIu64
                         "/%" PRIu64,
                         ms.contextSwitches, ms.preemptions, ms.slices,
                         ms.stepsExecuted, ks->contextSwitches,
                         ks->preemptions, ks->slices,
                         ks->stepsExecuted)});
            }
        }
        // Blocking FD I/O counters: mirrored at the same points as the
        // kernel's FdIoStats (park, wake edge, E_AGAIN, EPIPE, partial
        // write, select timeout).
        {
            const obs::FdCounters &mf = m->fd();
            const Kernel::FdIoStats &kf = kern.fdIoStats();
            if (mf.blocks != kf.blocks || mf.wakes != kf.wakes ||
                mf.eagainErrors != kf.eagainErrors ||
                mf.epipeErrors != kf.epipeErrors ||
                mf.partialWrites != kf.partialWrites ||
                mf.selectTimeouts != kf.selectTimeouts) {
                r.violations.push_back(
                    {"metrics-fd-mirror",
                     fmt("metrics blocks %" PRIu64 " wakes %" PRIu64
                         " eagain %" PRIu64 " epipe %" PRIu64
                         " partial %" PRIu64 " timeouts %" PRIu64
                         " != kernel %" PRIu64 "/%" PRIu64 "/%" PRIu64
                         "/%" PRIu64 "/%" PRIu64 "/%" PRIu64,
                         mf.blocks, mf.wakes, mf.eagainErrors,
                         mf.epipeErrors, mf.partialWrites,
                         mf.selectTimeouts, kf.blocks, kf.wakes,
                         kf.eagainErrors, kf.epipeErrors,
                         kf.partialWrites, kf.selectTimeouts)});
            }
        }
        // Hardening counters: the panic / watchdog / machine-check
        // paths bump the kernel stat and the metrics mirror at the
        // same call sites; any drift means a path skipped one side.
        {
            const obs::HardeningCounters &mh = m->hardening();
            const Kernel::HardeningStats &kh = kern.hardeningStats();
            if (mh.panics != kh.panics ||
                mh.deadlocksDetected != kh.deadlocksDetected ||
                mh.deadlocksKilled != kh.deadlocksKilled ||
                mh.machineChecks != kh.machineChecks) {
                r.violations.push_back(
                    {"metrics-hardening-mirror",
                     fmt("metrics panics %" PRIu64 " deadlocks %" PRIu64
                         "/%" PRIu64 " mchecks %" PRIu64
                         " != kernel %" PRIu64 "/%" PRIu64 "/%" PRIu64
                         "/%" PRIu64,
                         mh.panics, mh.deadlocksDetected,
                         mh.deadlocksKilled, mh.machineChecks, kh.panics,
                         kh.deadlocksDetected, kh.deadlocksKilled,
                         kh.machineChecks)});
            }
        }
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
