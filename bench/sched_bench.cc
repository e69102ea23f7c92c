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
 * --json emits machine-readable results; --check exits nonzero unless
 * the scheduler clears a 3x throughput floor over the re-create
 * pattern, switch cost stays bounded, and scaling stays flat.
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <vector>

#include "bench_util.h"
#include "isa/assembler.h"
#include "isa/interp.h"
#include "os/kernel.h"
#include "os/sched/sched.h"

using namespace cheri;

namespace
{

using Clock = std::chrono::steady_clock;

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
stepsPerSec(u64 steps, Clock::duration d)
{
    double secs = std::chrono::duration<double>(d).count();
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
    auto t0 = Clock::now();
    kern.runUntilIdle();
    auto t1 = Clock::now();
    if (out)
        *out = s.stats();
    return stepsPerSec(s.stats().stepsExecuted, t1 - t0);
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
    auto t0 = Clock::now();
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
    auto t1 = Clock::now();
    return stepsPerSec(steps, t1 - t0);
}

/** Host nanoseconds of pure switch overhead per context switch. */
double
switchCostNs()
{
    // Two processes ping-pong every slice; the same total work run as
    // two one-process drains has (almost) no switches.  The timing
    // delta divided by the switch count isolates the per-switch cost.
    SchedStats pair;
    auto t0 = Clock::now();
    runScheduled(2, &pair);
    auto t1 = Clock::now();
    auto t2 = Clock::now();
    runScheduled(1);
    runScheduled(1);
    auto t3 = Clock::now();
    double paired = std::chrono::duration<double>(t1 - t0).count();
    double serial = std::chrono::duration<double>(t3 - t2).count();
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
    bool json = false;
    bool check = false;
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--json"))
            json = true;
        else if (!std::strcmp(argv[i], "--check"))
            check = true;
    }

    SchedStats multi;
    std::vector<double> rates = bench::interleavedMedians(
        kTrials, {[&] { return runScheduled(4, &multi); },
                  [] { return runRecreated(4); },
                  [] { return runScheduled(1); }});
    double schedMulti = rates[0];
    double recreate = rates[1];
    double schedSingle = rates[2];
    double ratio = recreate > 0 ? schedMulti / recreate : 0;
    double scaling = schedSingle > 0 ? schedMulti / schedSingle : 0;
    double switchNs = switchCostNs();

    if (json) {
        std::printf("{\n"
                    "  \"schema\": \"cheri.sched_bench.v1\",\n"
                    "  \"slice_steps\": %llu,\n"
                    "  \"guests\": 4,\n"
                    "  \"sched_steps_per_sec\": %.0f,\n"
                    "  \"recreate_steps_per_sec\": %.0f,\n"
                    "  \"throughput_ratio\": %.2f,\n"
                    "  \"single_proc_steps_per_sec\": %.0f,\n"
                    "  \"scaling_vs_single\": %.2f,\n"
                    "  \"context_switches\": %llu,\n"
                    "  \"preemptions\": %llu,\n"
                    "  \"switch_cost_ns\": %.0f\n"
                    "}\n",
                    static_cast<unsigned long long>(kSlice), schedMulti,
                    recreate, ratio, schedSingle, scaling,
                    static_cast<unsigned long long>(multi.contextSwitches),
                    static_cast<unsigned long long>(multi.preemptions),
                    switchNs);
    } else {
        bench::banner("Scheduler: persistent contexts vs per-chunk "
                      "interpreter re-creation");
        std::printf("%-38s %14s\n", "configuration", "steps/sec");
        std::printf("%-38s %14.0f\n",
                    "4 guests, scheduler (warm caches)", schedMulti);
        std::printf("%-38s %14.0f\n",
                    "4 guests, re-created per chunk", recreate);
        std::printf("%-38s %14.0f\n", "1 guest, scheduler", schedSingle);
        std::printf("\nthroughput ratio (sched / re-create): %.2fx\n",
                    ratio);
        std::printf("scaling vs single process:            %.2fx\n",
                    scaling);
        std::printf("context switches: %llu   preemptions: %llu   "
                    "switch cost: %.0f ns\n",
                    static_cast<unsigned long long>(multi.contextSwitches),
                    static_cast<unsigned long long>(multi.preemptions),
                    switchNs);
    }

    if (check) {
        bool ok = true;
        if (ratio < 3.0) {
            std::fprintf(stderr,
                         "CHECK FAIL: scheduler/recreate throughput "
                         "ratio %.2f < 3.0\n",
                         ratio);
            ok = false;
        }
        if (scaling < 0.5) {
            std::fprintf(stderr,
                         "CHECK FAIL: 4-process scaling %.2f < 0.5 of "
                         "single-process throughput\n",
                         scaling);
            ok = false;
        }
        if (switchNs > 50000) {
            std::fprintf(stderr,
                         "CHECK FAIL: context-switch cost %.0f ns > "
                         "50000 ns\n",
                         switchNs);
            ok = false;
        }
        if (!ok)
            return 1;
        std::printf("CHECK OK: ratio %.2fx >= 3.0, scaling %.2fx >= "
                    "0.5, switch cost %.0f ns <= 50000\n",
                    ratio, scaling, switchNs);
    }
    return 0;
}
