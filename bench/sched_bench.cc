/**
 * @file
 * Scheduler bench: what the unified execution engine buys.
 *
 * Before the scheduler, every driver that wanted to interleave guest
 * programs hand-rolled the same pattern per turn: construct an
 * isa::Interpreter, derive an entry capability, run a bounded chunk,
 * throw the interpreter away.  The decode micro-cache died with every
 * chunk.  The scheduler keeps one
 * ExecContext per (process, thread) alive across slices, so the cache
 * stays warm however many times the context is preempted.
 *
 * Three measurements:
 *  - multi-process throughput: four CPU-bound guests, time-sliced by
 *    the scheduler, versus the same four programs interleaved by
 *    serially re-creating interpreters (the old per-driver pattern);
 *  - context-switch cost: host-side overhead per scheduler context
 *    switch, from the timing delta between a two-process run (which
 *    switches every slice) and the same work run back to back;
 *  - scaling: aggregate 4-process throughput versus a single process,
 *    which should be flat — the engine serializes slices, so adding
 *    runnable processes must not collapse per-step cost.
 *
 * The three throughput arms are timed in interleaved trials and
 * reported by their medians; they are host numbers and gate nothing.
 *
 * --check gates on exact counts that fail when the same regressions
 * would show in the timings:
 *  - one persistent interpreter per context: the contexts' retired()
 *    counts sum to the steps the scheduler executed (an interpreter
 *    re-created per slice restarts its count, and its decode cache);
 *  - adding runnable processes adds no work: four guests execute
 *    exactly four times one guest's steps, in four times its slices;
 *  - switching costs one switch per slice boundary: the 4-guest run
 *    switches on every slice after the first, and in the 2-guest run
 *    every scheduler switch charges exactly one kernel context switch.
 */

#include <vector>

#include "bench_util.h"
#include "isa/assembler.h"
#include "isa/interp.h"
#include "os/kernel.h"
#include "os/sched/sched.h"

using namespace cheri;

namespace
{

/** Loop iterations per guest program. */
constexpr u64 kLoops = 4000;
/** Distinct ALU instructions in the loop body: large enough that a
 *  cold decode cache misses on (nearly) every step of a time slice,
 *  small enough to fit the 256-entry cache once warm. */
constexpr u64 kBodyInsns = 224;
/** The scheduler time slice (and the baseline's chunk size): fine
 *  enough that four guests interleave responsively, which is exactly
 *  where the per-dispatch re-creation tax hurts the old pattern. */
constexpr u64 kSlice = 64;
/** Interleaved trials per throughput arm; the gates read medians. */
constexpr int kTrials = 5;

struct Guest
{
    Process *proc = nullptr;
    u64 codeVa = 0;
};

/** The CPU-bound loop kernel every guest runs. */
isa::Assembler
buildLoop()
{
    isa::Assembler a;
    a.li(3, static_cast<s64>(kLoops)).label("loop");
    for (u64 i = 0; i < kBodyInsns; ++i)
        a.addi(4 + (i % 8), 4 + (i % 8), 1);
    a.addi(3, 3, -1).bne(3, 0, "loop").halt();
    return a;
}

/** Spawn a mips64 process running the CPU-bound loop kernel. */
Guest
makeGuest(Kernel &kern, const char *name)
{
    SelfObject prog;
    prog.name = name;
    Process *proc = kern.spawn(Abi::Mips64, name);
    if (kern.execve(*proc, prog, {name}, {}) != E_OK)
        throw std::runtime_error("execve failed");
    u64 code = proc->as().map(0, 4 * pageSize,
                              PROT_READ | PROT_WRITE | PROT_EXEC,
                              MappingKind::Text);
    buildLoop().writeTo(proc->as(), code);
    proc->regs().pcc = Capability::fromAddress(code);
    return {proc, code};
}

double
stepsPerSec(u64 steps, double secs)
{
    return secs > 0 ? static_cast<double>(steps) / secs : 0;
}

/** The exact counts of one scheduled run. */
struct Counts
{
    SchedStats st;
    /** Sum of the contexts' retired() after the run. */
    u64 retired = 0;
    /** Context switches the kernel charged (Kernel::contextSwitches). */
    u64 kernelSwitches = 0;
};

/** Run @p n guests to completion under the scheduler; returns
 *  steps/sec and exposes the run's exact counts. */
double
runScheduled(unsigned n, Counts *out = nullptr)
{
    KernelConfig cfg;
    cfg.timeSliceSteps = kSlice;
    Kernel kern(cfg);
    sched::Scheduler &s = sched::schedulerFor(kern);
    std::vector<sched::ExecContext *> ctxs;
    for (unsigned i = 0; i < n; ++i)
        ctxs.push_back(&s.admit(*makeGuest(kern, "sched-guest").proc));
    bench::Instant t0 = bench::now();
    kern.runUntilIdle();
    double secs = bench::secondsSince(t0);
    if (out) {
        *out = {s.stats(), 0, kern.contextSwitches()};
        for (const sched::ExecContext *cx : ctxs)
            out->retired += cx->retired();
    }
    return stepsPerSec(s.stats().stepsExecuted, secs);
}

/**
 * The old per-driver pattern, exactly as the pre-scheduler DiffFuzzer
 * Compute op ran guest code on every dispatch: lower the program, write
 * it into guest memory, construct a fresh interpreter (cold decode
 * cache), derive a fresh entry, run a bounded chunk, throw it all
 * away.  Interleaving @p n guests means paying that per turn.
 */
double
runRecreated(unsigned n)
{
    Kernel kern;
    std::vector<Guest> guests;
    std::vector<bool> halted(n, false);
    for (unsigned i = 0; i < n; ++i)
        guests.push_back(makeGuest(kern, "recreate-guest"));
    u64 steps = 0;
    bench::Instant t0 = bench::now();
    for (bool any = true; any;) {
        any = false;
        for (unsigned i = 0; i < n; ++i) {
            if (halted[i])
                continue;
            any = true;
            Process &proc = *guests[i].proc;
            buildLoop().writeTo(proc.as(), guests[i].codeVa);
            isa::Interpreter interp(proc);
            interp.setEntry(
                Capability::fromAddress(proc.regs().pcc.address()));
            isa::InterpResult r = interp.run(kSlice);
            steps += r.steps;
            if (r.status != isa::InterpResult::Status::StepLimit)
                halted[i] = true;
        }
    }
    return stepsPerSec(steps, bench::secondsSince(t0));
}

/** Host nanoseconds of pure switch overhead per context switch; the
 *  2-guest run's counts go to @p pair. */
double
switchCostNs(Counts &pair)
{
    // Two processes ping-pong every slice; the same total work run as
    // two one-process drains has (almost) no switches.  The timing
    // delta divided by the switch count isolates the per-switch cost.
    bench::Instant t0 = bench::now();
    runScheduled(2, &pair);
    double paired = bench::secondsSince(t0);
    t0 = bench::now();
    runScheduled(1);
    runScheduled(1);
    double serial = bench::secondsSince(t0);
    double delta = paired - serial;
    if (delta < 0)
        delta = 0;
    return pair.st.contextSwitches
               ? delta * 1e9 / static_cast<double>(pair.st.contextSwitches)
               : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Report report(argc, argv);
    Counts multi, single, pair;
    std::vector<bench::Trials> rates = bench::interleavedMedians(
        kTrials, {[&] { return runScheduled(4, &multi); },
                  [] { return runRecreated(4); },
                  [&] { return runScheduled(1, &single); }});
    double schedMulti = rates[0].median;
    double recreate = rates[1].median;
    double schedSingle = rates[2].median;
    double ratio = recreate > 0 ? schedMulti / recreate : 0;
    double scaling = schedSingle > 0 ? schedMulti / schedSingle : 0;
    double switchNs = switchCostNs(pair);

    report.section("Scheduler: persistent contexts vs per-chunk "
                   "interpreter re-creation (median of " +
                   std::to_string(kTrials) + " interleaved trials)");
    const char *arms[] = {"4 guests, scheduler (warm caches)",
                          "4 guests, re-created per chunk",
                          "1 guest, scheduler"};
    for (int i = 0; i < 3; ++i) {
        report.add(arms[i], "throughput", rates[i].median,
                   {.unit = "steps/s", .host = true, .iqr = rates[i].iqr});
    }
    report.note("");
    bench::Style times{.unit = "x", .places = 2, .host = true};
    report.add("sched / re-create", "throughput ratio", ratio, times);
    report.add("4 guests / 1 guest", "throughput ratio", scaling, times);
    report.note("");
    const std::pair<const char *, const Counts *> runs[] = {
        {"1 guest, scheduler", &single},
        {"2 guests, scheduler", &pair},
        {"4 guests, scheduler", &multi}};
    for (const auto &[kase, c] : runs) {
        report.add(kase, "steps executed", c->st.stepsExecuted);
        report.add(kase, "retired (sum over contexts)", c->retired);
        report.add(kase, "slices", c->st.slices);
        report.add(kase, "context switches", c->st.contextSwitches);
        report.add(kase, "kernel context switches", c->kernelSwitches);
        report.add(kase, "preemptions", c->st.preemptions);
    }
    report.add("2 guests, scheduler", "switch cost", switchNs,
               {.unit = "ns", .host = true});

    report.expect(multi.retired == multi.st.stepsExecuted,
                  "4 guests: contexts' retired() sum == steps executed "
                  "(one persistent interpreter per context)");
    report.expect(multi.st.stepsExecuted == 4 * single.st.stepsExecuted &&
                      multi.st.slices == 4 * single.st.slices,
                  "4 guests execute exactly 4x one guest's steps, in 4x "
                  "its slices");
    report.expect(multi.st.contextSwitches == multi.st.slices - 1,
                  "4 guests: context switches == slices - 1");
    report.expect(pair.st.contextSwitches == 2 * single.st.slices - 1 &&
                      pair.kernelSwitches == pair.st.contextSwitches,
                  "2 guests: context switches == 2x one guest's slices "
                  "- 1, each charged once by the kernel");
    return report.finish();
}
