/**
 * @file
 * Kernel scheduler tests: preemptive time slices, blocking syscalls,
 * and the unified execution engine's state-preservation guarantees.
 *
 * Four properties from the scheduler's contract:
 *
 *  - preemption is fair: identical CPU-bound guests share the engine
 *    round-robin, one time slice each, never starving;
 *  - wait4 truly blocks: a parent with live children parks off the run
 *    queue and is woken exactly once per child exit;
 *  - context switches preserve capability register files tag-exact —
 *    including while an incremental revocation epoch is open, with the
 *    whole-system invariant oracle consulted at every slice boundary;
 *  - the per-context decode cache survives preemption: each distinct
 *    instruction is decoded once for the life of the thread, however
 *    many slices (and ABIs) interleave.
 */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "check/invariants.h"
#include "isa/assembler.h"
#include "isa/interp.h"
#include "obs/metrics.h"
#include "os/kernel.h"
#include "os/revocation.h"
#include "os/sched/sched.h"

namespace cheri
{
namespace
{

/** Spawn + execve a process of @p abi with a 4-page RWX code mapping
 *  and a data page; returns (proc, codeVa, dataVa). */
struct SchedGuest
{
    Process *proc = nullptr;
    u64 code = 0;
    u64 data = 0;
};

SchedGuest
makeGuest(Kernel &kern, Abi abi, const char *name)
{
    SelfObject prog;
    prog.name = name;
    Process *proc = kern.spawn(abi, name);
    if (kern.execve(*proc, prog, {name}, {}) != E_OK)
        throw std::runtime_error("execve failed");
    u64 code = proc->as().map(0, 4 * pageSize,
                              PROT_READ | PROT_WRITE | PROT_EXEC,
                              MappingKind::Text);
    u64 data = proc->as().map(0, pageSize, PROT_READ | PROT_WRITE,
                              MappingKind::Data);
    return {proc, code, data};
}

/** A pure-ALU loop of @p iters iterations with @p body distinct adds
 *  per iteration. */
isa::Assembler
aluLoop(u64 iters, u64 body = 8)
{
    isa::Assembler a;
    a.li(3, static_cast<s64>(iters)).label("loop");
    for (u64 i = 0; i < body; ++i)
        a.addi(4 + (i % 8), 4 + (i % 8), 1);
    a.addi(3, 3, -1).bne(3, 0, "loop").halt();
    return a;
}

/** Admit @p g running @p prog under @p s (entry derivation per ABI). */
sched::ExecContext &
admitProgram(sched::Scheduler &s, SchedGuest &g, isa::Assembler &prog)
{
    prog.writeTo(g.proc->as(), g.code);
    sched::ExecContext &cx = s.context(*g.proc);
    if (g.proc->abi() == Abi::CheriAbi) {
        cx.interp->setEntry(g.proc->as()
                                .capForRange(g.code, 4 * pageSize,
                                             PROT_READ | PROT_EXEC,
                                             false)
                                .setAddress(g.code));
    } else {
        cx.interp->setEntry(Capability::fromAddress(g.code));
    }
    s.ready(cx);
    return cx;
}

TEST(SchedTest, RoundRobinPreemptionIsFair)
{
    KernelConfig cfg;
    cfg.timeSliceSteps = 64;
    Kernel kern(cfg);
    sched::Scheduler &s = sched::schedulerFor(kern);

    std::vector<u64> pids;
    isa::Assembler prog = aluLoop(200);
    for (int i = 0; i < 3; ++i) {
        SchedGuest g = makeGuest(kern, Abi::Mips64, "rr-guest");
        admitProgram(s, g, prog);
        pids.push_back(g.proc->pid());
    }

    std::vector<u64> sliceOrder;
    s.setSliceHook([&](Process &p) { sliceOrder.push_back(p.pid()); });
    kern.runUntilIdle();
    s.setSliceHook(nullptr);

    // All three ran to completion...
    for (u64 pid : pids) {
        Process *p = kern.findProcess(pid);
        ASSERT_NE(p, nullptr);
        sched::ExecContext &cx = s.context(*p);
        EXPECT_EQ(cx.last.status, isa::InterpResult::Status::Halted);
    }
    // ...and the identical programs interleaved round-robin: while all
    // three are runnable, every window of three slices runs all three
    // pids (no starvation, no double turns).
    ASSERT_GE(sliceOrder.size(), 9u);
    for (size_t w = 0; w + 3 <= 9; w += 3) {
        std::map<u64, int> seen;
        for (size_t i = w; i < w + 3; ++i)
            ++seen[sliceOrder[i]];
        for (u64 pid : pids)
            EXPECT_EQ(seen[pid], 1)
                << "window at " << w << " starved pid " << pid;
    }
    // Identical programs get slice counts within one of each other.
    std::map<u64, u64> counts;
    for (u64 pid : sliceOrder)
        ++counts[pid];
    u64 lo = ~u64(0), hi = 0;
    for (u64 pid : pids) {
        lo = std::min(lo, counts[pid]);
        hi = std::max(hi, counts[pid]);
    }
    EXPECT_LE(hi - lo, 1u);

    const SchedStats &st = s.stats();
    EXPECT_GT(st.preemptions, 0u);
    EXPECT_GT(st.contextSwitches, 0u);
    EXPECT_EQ(st.slices, sliceOrder.size());
}

TEST(SchedTest, BlockingWait4WakesOncePerChildExit)
{
    KernelConfig cfg;
    cfg.timeSliceSteps = 64;
    Kernel kern(cfg);
    sched::Scheduler &s = sched::schedulerFor(kern);
    SchedGuest g = makeGuest(kern, Abi::Mips64, "waiter");

    // fork twice, then reap twice through blocking wait4(0).  The
    // children spin different lengths so their exits stagger; the
    // parent parks on each wait4 and is woken by each exit edge.
    isa::Assembler a;
    a.syscall(static_cast<s64>(SysNum::Fork))
        .bne(3, 0, "parentA")
        // child 1: the long spinner, exit status 7.
        .li(9, 2000)
        .label("spin1")
        .addi(9, 9, -1)
        .bne(9, 0, "spin1")
        .li(4, 7)
        .syscall(static_cast<s64>(SysNum::Exit))
        .label("parentA")
        .move(5, 3) // x5 = child 1 pid
        .syscall(static_cast<s64>(SysNum::Fork))
        .bne(3, 0, "parentB")
        // child 2: the short spinner, exit status 9.
        .li(9, 600)
        .label("spin2")
        .addi(9, 9, -1)
        .bne(9, 0, "spin2")
        .li(4, 9)
        .syscall(static_cast<s64>(SysNum::Exit))
        .label("parentB")
        .move(6, 3) // x6 = child 2 pid
        .li(4, 0)
        .syscall(static_cast<s64>(SysNum::Wait4))
        .move(7, 3) // x7 = first reaped pid
        .li(4, 0)
        .syscall(static_cast<s64>(SysNum::Wait4))
        .move(8, 3) // x8 = second reaped pid
        .halt();

    sched::ExecContext &cx = admitProgram(s, g, a);
    kern.runUntilIdle();

    ASSERT_EQ(cx.last.status, isa::InterpResult::Status::Halted);
    const ThreadRegs &r = cx.interp->regs();
    u64 c1 = r.x[5], c2 = r.x[6];
    ASSERT_NE(c1, 0u);
    ASSERT_NE(c2, 0u);
    ASSERT_NE(c1, c2);
    // The short spinner exits (and is reaped) first; both reaps
    // returned a real child, no E_CHILD polling.
    EXPECT_EQ(r.x[7], c2);
    EXPECT_EQ(r.x[8], c1);
    // Both children are gone from the process table.
    EXPECT_EQ(kern.findProcess(c1), nullptr);
    EXPECT_EQ(kern.findProcess(c2), nullptr);

    // The parent blocked once per outstanding child and was woken
    // exactly once per child exit.
    const SchedStats &st = s.stats();
    EXPECT_EQ(st.blocksWait4, 2u);
    EXPECT_EQ(st.wakes, 2u);
}

TEST(SchedTest, SleepBlocksUntilVirtualDeadline)
{
    KernelConfig cfg;
    cfg.timeSliceSteps = 32;
    Kernel kern(cfg);
    sched::Scheduler &s = sched::schedulerFor(kern);
    SchedGuest g = makeGuest(kern, Abi::Mips64, "sleeper");

    isa::Assembler a;
    a.li(4, 1000).syscall(static_cast<s64>(SysNum::Sleep)).halt();
    sched::ExecContext &cx = admitProgram(s, g, a);
    kern.runUntilIdle();

    EXPECT_EQ(cx.last.status, isa::InterpResult::Status::Halted);
    const SchedStats &st = s.stats();
    EXPECT_EQ(st.blocksSleep, 1u);
    EXPECT_EQ(st.wakes, 1u);
    // With nothing else runnable the virtual clock jumped to the
    // deadline instead of spinning.
    EXPECT_GE(st.idleAdvances, 1u);
    EXPECT_GE(s.now(), 1000u);
}

TEST(SchedTest, NeverRunSchedulerIsInert)
{
    // Every kernel owns a scheduler, but its edges act only on a
    // context it is running: syscalls driven from the host keep their
    // non-blocking results, and draining the empty queue moves nothing.
    obs::Metrics m;
    Kernel kern;
    kern.setMetrics(&m);
    sched::Scheduler &s = sched::schedulerFor(kern);
    SchedGuest g = makeGuest(kern, Abi::Mips64, "host-driven");
    Process &p = *g.proc;

    Process *child = kern.fork(p);
    ASSERT_NE(child, nullptr);
    SysResult tid = kern.sysThrNew(p);
    ASSERT_FALSE(tid.failed());
    SysResult sw = kern.sysThrSwitch(p, tid.value);
    ASSERT_FALSE(sw.failed());
    EXPECT_EQ(p.currentTid(), tid.value); // switched at once
    EXPECT_EQ(kern.wait4(p, 0).error, E_CHILD); // polls
    SysResult slept = kern.sysSleep(p, 1000);
    EXPECT_FALSE(slept.failed());
    EXPECT_EQ(slept.value, 0u);
    EXPECT_EQ(kern.sysEvWait(p).error, E_BUSY);
    int fds[2];
    ASSERT_FALSE(kern.sysPipe(p, fds).failed());
    EXPECT_EQ(kern.sysRead(p, fds[0], UserPtr::fromAddr(g.data), 8).error,
              E_AGAIN);
    EXPECT_EQ(kern.counters().fd.blocks, 0u);

    auto expectSchedStatsZero = [&] {
        forEachField(kern.counters().sched, [](const auto &f, u64 v) {
            EXPECT_EQ(v, 0u) << f.key;
        });
    };
    expectSchedStatsZero();
    EXPECT_FALSE(s.holdsState()); // the fork child was not admitted
    const panic::FlightRecorder &fr = kern.flightRecorder();
    const u64 events = fr.eventsRecorded();
    const std::string json = m.toJson();

    kern.runUntilIdle();

    expectSchedStatsZero();
    EXPECT_FALSE(s.holdsState());
    EXPECT_EQ(s.now(), 0u);
    EXPECT_EQ(fr.eventsRecorded(), events);
    for (const panic::Event &e : fr.entries()) {
        EXPECT_NE(e.kind, panic::EventKind::SchedBlock);
        EXPECT_NE(e.kind, panic::EventKind::SchedWake);
    }
    EXPECT_EQ(m.toJson(), json);
    EXPECT_FALSE(child->exited());
}

TEST(SchedTest, CapRegsSurviveSwitchesTagExactAcrossOpenEpoch)
{
    KernelConfig cfg;
    cfg.timeSliceSteps = 32;
    cfg.revokeSliceBudget = 2;
    Kernel kern(cfg);
    sched::Scheduler &s = sched::schedulerFor(kern);

    // Guest A (CheriABI) derives capabilities into its register file,
    // cap-dirties its data page, then spins long enough to be
    // preempted dozens of times.
    SchedGuest ga = makeGuest(kern, Abi::CheriAbi, "cap-guest");
    isa::Assembler a;
    a.csetboundsimm(2, 1, 64)    // c2 = c1 bounded to 64 bytes
        .cincoffsetimm(3, 2, 16) // c3 = c2 + 16
        .csc(2, 1, 0)            // store c2 at [c1]: page is cap-dirty
        .li(9, 2000)
        .label("spin")
        .addi(9, 9, -1)
        .bne(9, 0, "spin")
        .halt();
    sched::ExecContext &ca = admitProgram(s, ga, a);
    Capability dataCap =
        ga.proc->as()
            .capForRange(ga.data, pageSize, PROT_READ | PROT_WRITE,
                         false)
            .setAddress(ga.data);
    ca.interp->regs().c[1] = dataCap;

    // Guest B (mips64) forces context switches every slice.
    SchedGuest gb = makeGuest(kern, Abi::Mips64, "spin-guest");
    isa::Assembler b = aluLoop(2000);
    admitProgram(s, gb, b);

    // The revocation victim: a separate mapping in A, cap-dirtied on
    // enough pages that the incremental epoch (2 pages per pump) stays
    // open across many slice boundaries.  Nothing in A's registers
    // points here, so the sweep must not touch them.
    u64 victim = ga.proc->as().map(0, 16 * pageSize,
                                   PROT_READ | PROT_WRITE,
                                   MappingKind::Data);
    Capability vcap = ga.proc->as()
                          .capForRange(victim, 16 * pageSize,
                                       PROT_READ | PROT_WRITE, false)
                          .setAddress(victim);
    for (u64 i = 0; i < 16; ++i)
        ASSERT_FALSE(ga.proc->mem().writeCap(victim + i * pageSize,
                                             vcap.setAddress(victim)));

    // Open the epoch from the third slice boundary, then let the
    // scheduler's background pump drive it; the invariant oracle runs
    // at every boundary (rule 6 covers the scheduler counters too).
    u64 slices = 0;
    u64 violations = 0;
    bool opened = false;
    u64 pidA = ga.proc->pid();
    s.setSliceHook([&](Process &) {
        if (++slices == 3 && !opened) {
            opened = true;
            SysResult r = kern.sysRevoke2(
                *kern.findProcess(pidA),
                {{victim, victim + 16 * pageSize}}, REVOKE_INCREMENTAL);
            ASSERT_FALSE(r.failed());
        }
        violations += check::Invariants::check(kern).violations.size();
    });
    kern.runUntilIdle();
    s.setSliceHook(nullptr);

    EXPECT_EQ(violations, 0u);
    EXPECT_TRUE(opened);
    EXPECT_GT(s.stats().contextSwitches, 10u);
    ASSERT_EQ(ca.last.status, isa::InterpResult::Status::Halted);

    // Drain whatever remains of the epoch, then check the register
    // file: every derived capability is still tagged with its exact
    // bounds — switches round-tripped the caps architecturally, never
    // through untagged storage — while the victim's own caps died.
    ASSERT_FALSE(kern.sysRevoke2(*ga.proc, {}, REVOKE_SYNC).failed());
    const ThreadRegs &r = ca.interp->regs();
    EXPECT_TRUE(r.c[1].tag());
    EXPECT_EQ(r.c[1], dataCap);
    EXPECT_TRUE(r.c[2].tag());
    EXPECT_EQ(r.c[2].base(), ga.data);
    EXPECT_EQ(r.c[2].length(), 64u);
    EXPECT_TRUE(r.c[3].tag());
    EXPECT_EQ(r.c[3].address(), ga.data + 16);
    Capability stored, dead;
    ASSERT_FALSE(ga.proc->mem().readCap(ga.data, stored));
    EXPECT_TRUE(stored.tag()) << "cap outside revoked range";
    ASSERT_FALSE(ga.proc->mem().readCap(victim, dead));
    EXPECT_FALSE(dead.tag()) << "victim cap must be revoked";
}

TEST(SchedTest, DecodeCacheSurvivesContextSwitches)
{
    KernelConfig cfg;
    cfg.timeSliceSteps = 32;
    Kernel kern(cfg);
    sched::Scheduler &s = sched::schedulerFor(kern);

    // Two guests on different ABIs, each a 19-instruction loop run 500
    // times: ~9000 retired steps across ~280 slices each.
    SchedGuest ga = makeGuest(kern, Abi::Mips64, "dc-mips");
    SchedGuest gb = makeGuest(kern, Abi::CheriAbi, "dc-cheri");
    isa::Assembler pa = aluLoop(500, 16);
    isa::Assembler pb = aluLoop(500, 16);
    sched::ExecContext &ca = admitProgram(s, ga, pa);
    sched::ExecContext &cb = admitProgram(s, gb, pb);
    kern.runUntilIdle();

    ASSERT_EQ(ca.last.status, isa::InterpResult::Status::Halted);
    ASSERT_EQ(cb.last.status, isa::InterpResult::Status::Halted);
    EXPECT_GT(s.stats().contextSwitches, 10u);

    // Each distinct instruction is fetched-and-decoded once per
    // context lifetime; every further execution hits the persistent
    // decode cache even though the context was preempted hundreds of
    // times.  (A per-slice interpreter would re-decode the loop body
    // every slice: ~19 misses x ~280 slices.)
    constexpr u64 kDistinct = 16 + 3; // body + li/addi/bne (+halt)
    for (Process *p : {ga.proc, gb.proc}) {
        const CostModel &cost = p->cost();
        EXPECT_LE(cost.itlbMisses(), kDistinct + 2)
            << "decode cache was lost across a context switch";
        EXPECT_GT(cost.itlbAccesses() - cost.itlbMisses(), 8000u);
    }
}

// --- Metrics reads the kernel's counters at emit time -------------------

/** Run @p guests identical ALU guests to completion under @p kern's
 *  scheduler (short slices: the run queue holds all of them at once),
 *  then count one E_NOMEM and one watchdog detection, so every pulled
 *  section the test reads is non-zero. */
void
runPullWorkload(Kernel &kern, int guests)
{
    sched::Scheduler &s = sched::schedulerFor(kern);
    isa::Assembler prog = aluLoop(50);
    for (int i = 0; i < guests; ++i) {
        SchedGuest g = makeGuest(kern, Abi::Mips64, "pull-guest");
        admitProgram(s, g, prog);
    }
    kern.runUntilIdle();
    SchedGuest host = makeGuest(kern, Abi::Mips64, "pull-host");
    kern.faultInjector().failAfter(FaultPoint::FrameAlloc, 1);
    UserPtr out;
    ASSERT_EQ(kern.sysMmap(*host.proc, UserPtr::null(), pageSize,
                           PROT_READ | PROT_WRITE,
                           MAP_ANON | MAP_PRIVATE, &out)
                  .error,
              E_NOMEM);
    kern.noteDeadlockDetected(1);
}

/** @p m reports the sum of @p a and @p b, and the larger run-queue
 *  high-water mark. */
void
expectSummed(const obs::Metrics &m, const KernelCounters &a,
             const KernelCounters &b)
{
    KernelCounters got = m.kernelCounters();
    EXPECT_EQ(got.sched.slices, a.sched.slices + b.sched.slices);
    EXPECT_EQ(got.sched.preemptions,
              a.sched.preemptions + b.sched.preemptions);
    EXPECT_EQ(got.sched.stepsExecuted,
              a.sched.stepsExecuted + b.sched.stepsExecuted);
    EXPECT_EQ(got.sched.maxRunQueueDepth, 3u);
    EXPECT_EQ(got.pressure.enomemErrors, 2u);
    EXPECT_EQ(got.hardening.deadlocksDetected, 2u);
    std::string json = m.toJson();
    EXPECT_NE(json.find("\"steps_executed\":" +
                        std::to_string(got.sched.stepsExecuted)),
              std::string::npos);
    EXPECT_NE(json.find("\"max_run_queue_depth\":3"), std::string::npos);
    EXPECT_NE(json.find("\"enomem\":2"), std::string::npos);
    EXPECT_NE(json.find("\"deadlocks_detected\":2"), std::string::npos);
}

TEST(MetricsPullTest, RegistryOutlivingKernelsReportsTheirSum)
{
    obs::Metrics m;
    KernelCounters a, b;
    {
        KernelConfig cfg;
        cfg.timeSliceSteps = 16;
        Kernel kern(cfg);
        kern.setMetrics(&m);
        runPullWorkload(kern, 3);
        a = kern.counters();
    }
    {
        KernelConfig cfg;
        cfg.timeSliceSteps = 16;
        Kernel kern(cfg);
        kern.setMetrics(&m);
        runPullWorkload(kern, 2);
        b = kern.counters();
    }
    EXPECT_EQ(a.sched.maxRunQueueDepth, 3u);
    EXPECT_EQ(b.sched.maxRunQueueDepth, 2u);
    EXPECT_GT(a.sched.stepsExecuted, 0u);
    // Both kernels are gone: the registry reads the blocks it shares.
    expectSummed(m, a, b);
}

TEST(MetricsPullTest, KernelsOutlivingRegistryReportTheirSum)
{
    KernelConfig cfg;
    cfg.timeSliceSteps = 16;
    Kernel k1(cfg);
    Kernel k2(cfg);
    {
        obs::Metrics m;
        k1.setMetrics(&m);
        runPullWorkload(k1, 3);
        k2.setMetrics(&m);
        runPullWorkload(k2, 2);
        expectSummed(m, k1.counters(), k2.counters());
        // Attaching the same kernel again does not double-count it.
        k1.setMetrics(&m);
        expectSummed(m, k1.counters(), k2.counters());
    }
    // The registry is gone; the kernels keep counting on their own.
    k1.setMetrics(nullptr);
    k1.noteDeadlockDetected(1);
    EXPECT_EQ(k1.counters().hardening.deadlocksDetected, 2u);
}

TEST(MetricsPullTest, RegistryAttachedBeforeSchedulerReportsSched)
{
    obs::Metrics m;
    KernelConfig cfg;
    cfg.timeSliceSteps = 16;
    Kernel kern(cfg);
    kern.setMetrics(&m);
    sched::Scheduler &s = sched::schedulerFor(kern);
    isa::Assembler prog = aluLoop(50);
    for (int i = 0; i < 2; ++i) {
        SchedGuest g = makeGuest(kern, Abi::Mips64, "late-sched");
        admitProgram(s, g, prog);
    }
    kern.runUntilIdle();

    const SchedStats &st = s.stats();
    ASSERT_GT(st.slices, 0u);
    ASSERT_GT(st.preemptions, 0u);
    SchedStats got = m.kernelCounters().sched;
    EXPECT_EQ(got.slices, st.slices);
    EXPECT_EQ(got.preemptions, st.preemptions);
    EXPECT_EQ(got.contextSwitches, st.contextSwitches);
    EXPECT_EQ(got.stepsExecuted, st.stepsExecuted);
    EXPECT_EQ(got.maxRunQueueDepth, 2u);
    EXPECT_NE(m.toJson().find("\"slices\":" + std::to_string(st.slices)),
              std::string::npos);
}

} // namespace
} // namespace cheri
