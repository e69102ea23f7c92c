/**
 * @file
 * Kernel-hardening tests: structured panic + flight recorder, the
 * deadlock watchdog, and memory-corruption machine-check degradation.
 *
 * The contract under test:
 *
 *  - a CHERI_KASSERT failure never aborts the host: the kernel captures
 *    the flight-recorder ring into a JSON panic report, auto-emits a
 *    CHRIIMG1 snapshot (restorable as a postmortem), and transactionally
 *    resets to an empty, usable baseline;
 *  - the deadlock watchdog classifies true wait-for cycles (pipe FD
 *    edges, wait4 parent->child, ev_wait posters) at scheduler idle,
 *    and under DeadlockPolicy::Kill breaks them by killing one
 *    deterministically chosen victim whose parent's wait4 reap reports
 *    E_DEADLK — while host-wakeable parks never trip it;
 *  - injected memory corruption (tag/data bit flips) is always detected
 *    and degraded to a counted CapFault::MachineCheck, never surfacing
 *    as a forged capability;
 *  - the kill decision routes through the fault-injection tap, so a
 *    recorded deadlock kill replays bit-for-bit.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "check/diff_fuzzer.h"
#include "check/invariants.h"
#include "check/replay.h"
#include "isa/assembler.h"
#include "isa/interp.h"
#include "obs/metrics.h"
#include "os/kernel.h"
#include "os/sched/sched.h"
#include "os/snapshot/snapshot.h"
#include "os/sys_invoke.h"
#include "sched_util.h"
#include "test_util.h"

namespace cheri
{
namespace
{

using test::admitProgram;
using test::makeGuest;
using test::presetBufArg;
using test::SchedGuest;

/** Count flight-recorder events of @p kind. */
u64
countEvents(const Kernel &kern, panic::EventKind kind)
{
    u64 n = 0;
    for (const panic::Event &e : kern.flightRecorder().entries()) {
        if (e.kind == kind)
            ++n;
    }
    return n;
}

/**
 * The planted cross-pipe deadlock: guest A holds pipe1's read end and
 * pipe2's write end, guest B the converse, and both block reading —
 * each waiting on a write only the other (itself stuck) could make.
 * Returns the two read contexts; pids are (A, B) in spawn order.
 */
struct PipeCycle
{
    SchedGuest a, b;
    sched::ExecContext *acx = nullptr;
    sched::ExecContext *bcx = nullptr;
};

PipeCycle
plantPipeCycle(Kernel &kern, sched::Scheduler &s)
{
    PipeCycle pc;
    pc.a = makeGuest(kern, Abi::Mips64, "cycle-a");
    pc.b = makeGuest(kern, Abi::Mips64, "cycle-b");

    auto pipe1 = Vfs::makePipe();
    auto pipe2 = Vfs::makePipe();
    auto openEnd = [](const VNodeRef &node, u32 flags) {
        auto of = std::make_shared<OpenFile>();
        of->node = node;
        of->flags = flags;
        return of;
    };
    // A: read pipe1, hold pipe2's only write end.
    int a_rfd = pc.a.proc->allocFd(openEnd(pipe1.first, O_RDONLY));
    pc.a.proc->allocFd(openEnd(pipe2.second, O_WRONLY));
    // B: read pipe2, hold pipe1's only write end.
    int b_rfd = pc.b.proc->allocFd(openEnd(pipe2.first, O_RDONLY));
    pc.b.proc->allocFd(openEnd(pipe1.second, O_WRONLY));

    auto blockReading = [&](SchedGuest &g, int rfd) {
        isa::Assembler p;
        p.li(4, rfd)
            .li(6, 16)
            .syscall(static_cast<s64>(SysNum::Read))
            .halt();
        sched::ExecContext &cx = admitProgram(s, g, p);
        presetBufArg(g, cx);
        return &cx;
    };
    pc.acx = blockReading(pc.a, a_rfd);
    pc.bcx = blockReading(pc.b, b_rfd);
    return pc;
}

TEST(HardeningWatchdog, PipeCycleDetectedUnderReportPolicy)
{
    obs::Metrics metrics; // must outlive the kernel
    KernelConfig cfg;
    cfg.timeSliceSteps = 32;
    cfg.deadlockPolicy = DeadlockPolicy::Report;
    Kernel kern(cfg);
    kern.setMetrics(&metrics);
    sched::Scheduler &s = sched::schedulerFor(kern);

    PipeCycle pc = plantPipeCycle(kern, s);
    kern.runUntilIdle();

    // Detected and recorded, but nobody died and nobody ran again.
    EXPECT_EQ(kern.counters().hardening.deadlocksDetected, 1u);
    EXPECT_EQ(kern.counters().hardening.deadlocksKilled, 0u);
    EXPECT_EQ(metrics.kernelCounters().hardening.deadlocksDetected, 1u);
    EXPECT_FALSE(pc.a.proc->exited());
    EXPECT_FALSE(pc.b.proc->exited());
    EXPECT_EQ(pc.acx->state, sched::ExecContext::State::Blocked);
    EXPECT_EQ(pc.bcx->state, sched::ExecContext::State::Blocked);
    EXPECT_GE(countEvents(kern, panic::EventKind::Watchdog), 1u);

    check::Report rep = check::Invariants::check(kern);
    EXPECT_TRUE(rep.violations.empty())
        << rep.violations.front().detail;
}

TEST(HardeningWatchdog, PipeCycleKillBreaksTheCycle)
{
    obs::Metrics metrics; // must outlive the kernel
    KernelConfig cfg;
    cfg.timeSliceSteps = 32;
    cfg.deadlockPolicy = DeadlockPolicy::Kill;
    Kernel kern(cfg);
    kern.setMetrics(&metrics);
    sched::Scheduler &s = sched::schedulerFor(kern);

    PipeCycle pc = plantPipeCycle(kern, s);
    kern.runUntilIdle();

    EXPECT_EQ(kern.counters().hardening.deadlocksDetected, 1u);
    EXPECT_EQ(kern.counters().hardening.deadlocksKilled, 1u);

    // Equal footprints, neither in wait4: the victim tiebreak is the
    // higher pid — B.  Its death closes pipe1's only write end, so A's
    // read wakes with EOF and runs to completion.
    EXPECT_TRUE(pc.b.proc->exited());
    ASSERT_TRUE(pc.b.proc->death().has_value());
    EXPECT_TRUE(pc.b.proc->death()->deadlock);
    EXPECT_EQ(pc.b.proc->death()->signal, SIG_KILL);

    ASSERT_EQ(pc.acx->last.status, isa::InterpResult::Status::Halted);
    EXPECT_EQ(pc.acx->interp->regs().x[regSysErr], 0u);
    EXPECT_EQ(pc.acx->interp->regs().x[regRetVal], 0u) << "EOF read";

    check::Report rep = check::Invariants::check(kern);
    EXPECT_TRUE(rep.violations.empty())
        << rep.violations.front().detail;
}

TEST(HardeningWatchdog, Wait4EvWaitCycleKillSurfacesEdeadlk)
{
    obs::Metrics metrics; // must outlive the kernel
    KernelConfig cfg;
    cfg.timeSliceSteps = 32;
    cfg.deadlockPolicy = DeadlockPolicy::Kill;
    Kernel kern(cfg);
    kern.setMetrics(&metrics);
    sched::Scheduler &s = sched::schedulerFor(kern);
    SchedGuest g = makeGuest(kern, Abi::Mips64, "wait4-dl");

    // Parent wait4()s its forked child; the child ev_wait()s for a
    // post that no capable process will ever make.  The watchdog must
    // pick the child (the wait-for leaf), letting the parent reap it —
    // as E_DEADLK, not a normal exit.
    isa::Assembler a;
    a.syscall(static_cast<s64>(SysNum::Fork))
        .bne(3, 0, "parent")
        .syscall(static_cast<s64>(SysNum::EvWait))
        .halt()
        .label("parent")
        .move(4, 3) // wait4 pid filter = the child
        .move(9, 3) // keep the child pid for the assertions
        .syscall(static_cast<s64>(SysNum::Wait4))
        .halt();
    sched::ExecContext &cx = admitProgram(s, g, a);
    kern.runUntilIdle();

    ASSERT_EQ(cx.last.status, isa::InterpResult::Status::Halted);
    const ThreadRegs &r = cx.interp->regs();
    u64 child = r.x[9];
    ASSERT_NE(child, 0u);
    // The reap surfaced the watchdog kill as E_DEADLK...
    EXPECT_EQ(r.x[regSysErr], 1u);
    EXPECT_EQ(r.x[regRetVal], static_cast<u64>(E_DEADLK));
    // ...and the child is gone (reaped), not a lingering zombie.
    EXPECT_EQ(kern.findProcess(child), nullptr);
    EXPECT_FALSE(g.proc->exited());
    EXPECT_EQ(kern.counters().hardening.deadlocksKilled, 1u);

    check::Report rep = check::Invariants::check(kern);
    EXPECT_TRUE(rep.violations.empty())
        << rep.violations.front().detail;
}

TEST(HardeningWatchdog, HostWakeableParkDoesNotTrip)
{
    obs::Metrics metrics; // must outlive the kernel
    KernelConfig cfg;
    cfg.timeSliceSteps = 32;
    cfg.deadlockPolicy = DeadlockPolicy::Kill;
    Kernel kern(cfg);
    kern.setMetrics(&metrics);
    sched::Scheduler &s = sched::schedulerFor(kern);

    // One guest parks in ev_wait — but a host-driven process (no
    // scheduler context at all) is alive and could ev_post at any
    // time, so this is a wakeable park, not a deadlock.
    SchedGuest waiter = makeGuest(kern, Abi::Mips64, "ev-waiter");
    Process *poster = kern.spawn(Abi::Mips64, "host-poster");
    SelfObject prog;
    prog.name = "host-poster";
    ASSERT_EQ(kern.execve(*poster, prog, {"host-poster"}, {}), E_OK);

    isa::Assembler a;
    a.syscall(static_cast<s64>(SysNum::EvWait)).halt();
    sched::ExecContext &cx = admitProgram(s, waiter, a);
    kern.runUntilIdle();

    // Watchdog stayed quiet; the waiter is still parked.
    EXPECT_EQ(kern.counters().hardening.deadlocksDetected, 0u);
    EXPECT_EQ(kern.counters().hardening.deadlocksKilled, 0u);
    EXPECT_EQ(cx.state, sched::ExecContext::State::Blocked);
    EXPECT_FALSE(waiter.proc->exited());

    // The host-driven post wakes it and it runs to completion.
    auto rr = sysInvoke(kern, *poster, SysNum::EvPost,
                        {SysArg::i(waiter.proc->pid())});
    ASSERT_FALSE(rr.res.failed());
    kern.runUntilIdle();
    EXPECT_EQ(cx.last.status, isa::InterpResult::Status::Halted);
    EXPECT_EQ(kern.counters().hardening.deadlocksDetected, 0u);
}

TEST(HardeningWatchdog, KillDecisionReplaysBitForBit)
{
    // The kill decision flows through the FaultPoint::DeadlockKill
    // tap: record one planted-cycle run, then replay it — the same
    // victim must die from the substituted decision, zero divergences.
    auto runCycle = [](check::ReplaySession *session) {
        KernelConfig cfg;
        cfg.timeSliceSteps = 32;
        cfg.deadlockPolicy = DeadlockPolicy::Kill;
        Kernel kern(cfg);
        kern.faultInjector().setTap(session);
        sched::Scheduler &s = sched::schedulerFor(kern);
        PipeCycle pc = plantPipeCycle(kern, s);
        kern.runUntilIdle();
        u64 victim = pc.b.proc->exited() ? pc.b.proc->pid()
                                         : (pc.a.proc->exited()
                                                ? pc.a.proc->pid()
                                                : 0);
        kern.faultInjector().setTap(nullptr);
        return victim;
    };

    check::ReplaySession rec(check::ReplaySession::Mode::Record);
    u64 victim1 = runCycle(&rec);
    ASSERT_NE(victim1, 0u);
    rec.finish();
    std::vector<u8> log = rec.serialize(check::FuzzOptions{});

    check::ReplaySession rep(check::ReplaySession::Mode::Replay);
    ASSERT_TRUE(rep.load(log));
    u64 victim2 = runCycle(&rep);
    rep.finish();
    EXPECT_EQ(victim1, victim2);
    EXPECT_EQ(rep.divergenceCount(), 0u) << rep.firstDivergence();
}

TEST(HardeningCorruption, TagFlipMachineChecksAndNeverForgesACap)
{
    obs::Metrics metrics; // must outlive the kernel
    Kernel kern{KernelConfig{}};
    kern.setMetrics(&metrics);
    SchedGuest g = makeGuest(kern, Abi::CheriAbi, "tagflip");
    Process &proc = *g.proc;

    Capability c = proc.as().capForRange(g.data, pageSize,
                                         PROT_READ | PROT_WRITE, false);
    ASSERT_TRUE(c.tag());
    ASSERT_FALSE(proc.mem().writeCap(g.data, c).has_value());

    // The very next tagged capability load is corrupted: detection
    // machine-checks the load instead of handing out a flipped cap.
    kern.faultInjector().failAfter(FaultPoint::TagBitFlip, 1);
    Result<Capability> r = test::readCap(proc.mem(), g.data);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.fault(), CapFault::MachineCheck);
    EXPECT_EQ(kern.counters().hardening.machineChecks, 1u);
    EXPECT_EQ(metrics.kernelCounters().hardening.machineChecks, 1u);
    EXPECT_GE(countEvents(kern, panic::EventKind::MachineCheck), 1u);

    // The corrupted granule's tag is gone for good: re-reading yields
    // an untagged pattern, never a usable (forged) capability.
    Result<Capability> r2 = test::readCap(proc.mem(), g.data);
    ASSERT_TRUE(r2.ok());
    EXPECT_FALSE(r2.value().tag());

    // Data-line flips degrade the same way on plain loads.
    kern.faultInjector().failAfter(FaultPoint::DataBitFlip, 1);
    u64 word = 0;
    CapCheck cc = proc.mem().read(g.data + 64, &word, 8);
    ASSERT_TRUE(cc.has_value());
    EXPECT_EQ(*cc, CapFault::MachineCheck);
    EXPECT_EQ(kern.counters().hardening.machineChecks, 2u);

    // The oracle's containment rule agrees: every injected corruption
    // is accounted for by a machine check.
    check::Report rep = check::Invariants::check(kern);
    EXPECT_TRUE(rep.violations.empty())
        << rep.violations.front().detail;
}

TEST(HardeningCorruption, SwappedTagMetadataFlipMachineChecks)
{
    obs::Metrics metrics; // must outlive the kernel
    Kernel kern{KernelConfig{}};
    kern.setMetrics(&metrics);
    SchedGuest g = makeGuest(kern, Abi::CheriAbi, "swapflip");
    Process &proc = *g.proc;

    Capability c = proc.as().capForRange(g.data, pageSize,
                                         PROT_READ | PROT_WRITE, false);
    ASSERT_FALSE(proc.mem().writeCap(g.data, c).has_value());
    ASSERT_TRUE(proc.as().swapOutPage(g.data));

    // Corrupt the slot's tag metadata under the swap-in: the load that
    // faulted the page back machine-checks instead of reviving a
    // corrupted capability.
    kern.faultInjector().failAfter(FaultPoint::TagBitFlip, 1);
    Result<Capability> r = test::readCap(proc.mem(), g.data);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.fault(), CapFault::MachineCheck);
    EXPECT_GE(kern.counters().hardening.machineChecks, 1u);

    check::Report rep = check::Invariants::check(kern);
    EXPECT_TRUE(rep.violations.empty())
        << rep.violations.front().detail;
}

TEST(HardeningPanic, KassertCapturesReportImageAndResets)
{
    obs::Metrics metrics; // must outlive the kernels
    test::GuestSystem sys(Abi::CheriAbi);
    Kernel &kern = sys.kern;
    kern.setMetrics(&metrics);
    snap::installPanicSnapshotHook(kern);

    // Drive a few real syscalls so the flight recorder has a trail.
    // Capture the pid now: panicReset destroys the process table, so
    // sys.proc dangles once the planted panic fires.
    const u64 oldPid = sys.proc->pid();
    EXPECT_EQ(sys.ctx->getpid(), static_cast<s64>(oldPid));
    GuestPtr buf = sys.ctx->mmap(pageSize);
    ASSERT_NE(buf.addr(), 0u);

    kern.plantPanicAtDispatch(1);
    auto rr = sysInvoke(kern, *sys.proc, SysNum::Getpid, {});
    // The panic unwound to dispatch's catch site: the syscall failed
    // cleanly (E_FAULT), the host did not abort.
    ASSERT_TRUE(rr.res.failed());
    EXPECT_EQ(rr.res.error, E_FAULT);

    // Captured artifacts: structured report + restorable image.
    ASSERT_TRUE(kern.panicked());
    const std::string &report = kern.panicReportJson();
    EXPECT_NE(report.find("cheri.panic.v1"), std::string::npos);
    EXPECT_NE(report.find("planted dispatch panic"), std::string::npos);
    EXPECT_NE(report.find("\"ring\""), std::string::npos);
    EXPECT_NE(report.find("\"syscall\""), std::string::npos);
    ASSERT_FALSE(kern.panicImage().empty());
    EXPECT_EQ(kern.counters().hardening.panics, 1u);
    EXPECT_EQ(metrics.kernelCounters().hardening.panics, 1u);

    // The reset kernel is empty but fully usable: fresh processes
    // spawn, dispatch, and satisfy the whole-system oracle.
    EXPECT_EQ(kern.findProcess(oldPid), nullptr);
    Process *fresh = kern.spawn(Abi::CheriAbi, "after-panic");
    ASSERT_NE(fresh, nullptr);
    SelfObject prog = test::trivialProgram();
    ASSERT_EQ(kern.execve(*fresh, prog, {"after"}, {}), E_OK);
    auto pid = sysInvoke(kern, *fresh, SysNum::Getpid, {});
    EXPECT_FALSE(pid.res.failed());
    check::Report rep = check::Invariants::check(kern);
    EXPECT_TRUE(rep.violations.empty())
        << rep.violations.front().detail;

    // Postmortem: the panic image restores into a second kernel that
    // holds the pre-panic state and passes the invariant oracle.
    obs::Metrics m2;
    Kernel k2{KernelConfig{}};
    k2.setMetrics(&m2);
    std::string err;
    ASSERT_TRUE(snap::restore(k2, kern.panicImage(), &err)) << err;
    Process *restored = k2.findProcess(1);
    ASSERT_NE(restored, nullptr);
    EXPECT_FALSE(restored->exited());
    check::Report rep2 = check::Invariants::check(k2);
    EXPECT_TRUE(rep2.violations.empty())
        << rep2.violations.front().detail;
}

TEST(HardeningPanic, SchedulerDrainAbsorbsPanicAndStaysUsable)
{
    obs::Metrics metrics; // must outlive the kernel
    KernelConfig cfg;
    cfg.timeSliceSteps = 32;
    Kernel kern(cfg);
    kern.setMetrics(&metrics);
    snap::installPanicSnapshotHook(kern);
    sched::Scheduler &s = sched::schedulerFor(kern);

    // Two CPU-bound guests with syscalls; the 3rd dispatch panics
    // mid-drain.  The scheduler's catch site must absorb it.
    for (int i = 0; i < 2; ++i) {
        SchedGuest g = makeGuest(kern, Abi::Mips64, "drain-guest");
        isa::Assembler a;
        a.syscall(static_cast<s64>(SysNum::Getpid))
            .syscall(static_cast<s64>(SysNum::Getpid))
            .halt();
        admitProgram(s, g, a);
    }
    kern.plantPanicAtDispatch(3);
    kern.runUntilIdle();

    EXPECT_TRUE(kern.panicked());
    EXPECT_EQ(kern.counters().hardening.panics, 1u);
    ASSERT_FALSE(kern.panicImage().empty());

    // The drained-and-reset system schedules fresh work normally.
    SchedGuest fresh = makeGuest(kern, Abi::Mips64, "after");
    isa::Assembler a;
    a.syscall(static_cast<s64>(SysNum::Getpid)).halt();
    sched::ExecContext &cx = admitProgram(s, fresh, a);
    kern.runUntilIdle();
    EXPECT_EQ(cx.last.status, isa::InterpResult::Status::Halted);
    check::Report rep = check::Invariants::check(kern);
    EXPECT_TRUE(rep.violations.empty())
        << rep.violations.front().detail;
}

TEST(HardeningRecorder, RingKeepsLastEventsInOrder)
{
    KernelConfig cfg;
    cfg.flightRecorderDepth = 8;
    test::GuestSystem sys(Abi::Mips64, cfg);

    for (int i = 0; i < 20; ++i)
        sys.ctx->getpid();

    const panic::FlightRecorder &fr = sys.kern.flightRecorder();
    EXPECT_GE(fr.eventsRecorded(), 20u);
    ASSERT_EQ(fr.size(), 8u);
    std::vector<panic::Event> evs = fr.entries();
    // Oldest-first, strictly ordered, and all of them syscalls from
    // the recent window.
    for (size_t i = 1; i < evs.size(); ++i)
        EXPECT_LT(evs[i - 1].seq, evs[i].seq);
    for (const panic::Event &e : evs)
        EXPECT_EQ(e.kind, panic::EventKind::Syscall);

    // Depth 0 degrades to count-only (no storage, no recording cost).
    KernelConfig off;
    off.flightRecorderDepth = 0;
    test::GuestSystem quiet(Abi::Mips64, off);
    quiet.ctx->getpid();
    EXPECT_EQ(quiet.kern.flightRecorder().size(), 0u);
    EXPECT_GE(quiet.kern.flightRecorder().eventsRecorded(), 1u);
}

} // namespace
} // namespace cheri
