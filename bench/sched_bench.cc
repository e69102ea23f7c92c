/**
 * @file
 * Scheduler bench: what the unified execution engine buys.
 *
 * Before the scheduler, every driver that wanted to interleave guest
 * programs hand-rolled the same pattern per turn: construct an
 * isa::Interpreter, install the syscall hook, derive an entry
 * capability, run a bounded chunk, throw the interpreter away.  The
 * decode micro-cache died with every chunk.  The scheduler keeps one
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
 * compared by their medians, so host load that comes and goes cannot
 * flip the gates alone.
 *
 * --check exits nonzero unless the scheduler clears a 3x throughput
 * floor over the re-create pattern, switch cost stays bounded, and
 * scaling stays flat.
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

/** Run @p n guests to completion under the scheduler; returns
 *  steps/sec and exposes the kernel's final scheduler stats. */
double
runScheduled(unsigned n, SchedStats *out = nullptr)
{
    KernelConfig cfg;
    cfg.timeSliceSteps = kSlice;
    Kernel kern(cfg);
    sched::Scheduler &s = sched::schedulerFor(kern);
    for (unsigned i = 0; i < n; ++i)
        s.admit(*makeGuest(kern, "sched-guest").proc);
    bench::Instant t0 = bench::now();
    kern.runUntilIdle();
    double secs = bench::secondsSince(t0);
    if (out)
        *out = s.stats();
    return stepsPerSec(s.stats().stepsExecuted, secs);
}

/**
 * The old per-driver pattern, exactly as the pre-scheduler DiffFuzzer
 * Compute op ran guest code on every dispatch: lower the program, write
 * it into guest memory, construct a fresh interpreter (cold decode
 * cache), install a fresh syscall hook, derive a fresh entry, run a
 * bounded chunk, throw it all away.  Interleaving @p n guests means
 * paying that per turn.
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
            isa::installDefaultSyscallHook(interp, kern);
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

/** Host nanoseconds of pure switch overhead per context switch. */
double
switchCostNs()
{
    // Two processes ping-pong every slice; the same total work run as
    // two one-process drains has (almost) no switches.  The timing
    // delta divided by the switch count isolates the per-switch cost.
    SchedStats pair;
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
    return pair.contextSwitches
               ? delta * 1e9 / static_cast<double>(pair.contextSwitches)
               : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Report report(argc, argv);
    SchedStats multi;
    std::vector<bench::Trials> rates = bench::interleavedMedians(
        kTrials, {[&] { return runScheduled(4, &multi); },
                  [] { return runRecreated(4); },
                  [] { return runScheduled(1); }});
    double schedMulti = rates[0].median;
    double recreate = rates[1].median;
    double schedSingle = rates[2].median;
    double ratio = recreate > 0 ? schedMulti / recreate : 0;
    double scaling = schedSingle > 0 ? schedMulti / schedSingle : 0;
    double switchNs = switchCostNs();

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
    report.add("4 guests, scheduler", "context switches",
               multi.contextSwitches);
    report.add("4 guests, scheduler", "preemptions", multi.preemptions);
    report.add("4 guests, scheduler", "switch cost", switchNs,
               {.unit = "ns", .host = true});

    report.expect(ratio >= 3.0, "scheduler/recreate throughput ratio >= 3.0");
    report.expect(scaling >= 0.5,
                  "4-process throughput >= 0.5 of single-process");
    report.expect(switchNs <= 50000, "context-switch cost <= 50000 ns");
    return report.finish();
}
