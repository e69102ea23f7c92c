/**
 * @file
 * Hardening bench: the cost of always-on kernel hardening.
 *
 * Two overheads gate here because they are paid on every run, not just
 * on failures:
 *
 *  - flight-recorder ring recording: every syscall dispatch appends
 *    one event.  Measured as dispatch throughput with the default ring
 *    (depth 64) vs the ring disabled (depth 0, count-only), each the
 *    median of interleaved timed trials;
 *  - the deadlock-watchdog scan: every scheduler drain that goes idle
 *    with deadline-less blocked contexts walks the wait-for relation.
 *    Measured as nanoseconds per scan over a population of blocked
 *    (but host-wakeable, so never killed) ev_wait contexts, the median
 *    of several timed trials.
 *
 * --check exits nonzero when either overhead exceeds its (deliberately
 * generous, host-noise tolerant) bound.
 */

#include <chrono>
#include <vector>

#include "bench_util.h"
#include "isa/assembler.h"
#include "os/kernel.h"
#include "os/sched/sched.h"
#include "os/sys_invoke.h"

using namespace cheri;

namespace
{

constexpr int kDispatchReps = 200000;
/** Interleaved ring-on / ring-off trials; the gate compares medians. */
constexpr int kDispatchTrials = 5;
constexpr u64 kBlockedContexts = 32;
/** Timed watchdog-scan trials; the gate reads their median, so host
 *  load that slows fewer than half of them cannot flip it. */
constexpr int kScanTrials = 11;
constexpr int kScanReps = 200;

SelfObject
benchProgram()
{
    SelfObject prog;
    prog.name = "hardbench";
    return prog;
}

/** Host-driven getpid dispatches per second at @p ring_depth. */
double
dispatchRate(u64 ring_depth)
{
    KernelConfig cfg;
    cfg.flightRecorderDepth = ring_depth;
    Kernel kern(cfg);
    SelfObject prog = benchProgram();
    Process *p = kern.spawn(Abi::CheriAbi, "hardbench");
    if (!p || kern.execve(*p, prog, {"hardbench"}, {}) != E_OK)
        return 0;
    // Warm-up, then the timed loop.
    for (int i = 0; i < 1000; ++i)
        sysInvoke(kern, *p, SysNum::Getpid, {});
    auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kDispatchReps; ++i)
        sysInvoke(kern, *p, SysNum::Getpid, {});
    double sec = bench::secondsSince(t0);
    return sec > 0 ? kDispatchReps / sec : 0;
}

/**
 * Nanoseconds per watchdog scan over kBlockedContexts parked ev_wait
 * guests, over kScanTrials trials; a median of -1 flags a failed setup.
 * A host-driven process keeps every park wakeable, so each idle drain
 * runs exactly one full (non-killing) fixpoint scan.
 */
bench::Trials
watchdogScanNs()
{
    KernelConfig cfg;
    cfg.timeSliceSteps = 64;
    cfg.deadlockPolicy = DeadlockPolicy::Kill;
    Kernel kern(cfg);
    sched::Scheduler &s = sched::schedulerFor(kern);
    SelfObject prog = benchProgram();

    // The capable host-driven peer: its mere existence makes every
    // ev_wait park wakeable.
    Process *host = kern.spawn(Abi::Mips64, "host-peer");
    if (!host || kern.execve(*host, prog, {"host-peer"}, {}) != E_OK)
        return {-1, 0};

    for (u64 i = 0; i < kBlockedContexts; ++i) {
        Process *p = kern.spawn(Abi::Mips64, "parked");
        if (!p || kern.execve(*p, prog, {"parked"}, {}) != E_OK)
            return {-1, 0};
        u64 code = p->as().map(0, pageSize,
                               PROT_READ | PROT_WRITE | PROT_EXEC,
                               MappingKind::Text);
        isa::Assembler a;
        a.syscall(static_cast<s64>(SysNum::EvWait)).halt();
        a.writeTo(p->as(), code);
        sched::ExecContext &cx = s.context(*p);
        cx.interp->setEntry(Capability::fromAddress(code));
        s.ready(cx);
    }
    kern.runUntilIdle(); // park everyone (first scan: warm-up)
    if (kern.counters().hardening.deadlocksDetected != 0 ||
        kern.counters().hardening.deadlocksKilled != 0)
        return {-1, 0}; // wakeable parks must never trip the watchdog

    std::vector<double> trialNs;
    for (int t = 0; t < kScanTrials; ++t) {
        auto t0 = std::chrono::steady_clock::now();
        for (int i = 0; i < kScanReps; ++i)
            kern.runUntilIdle(); // nothing runnable: idle pass + one scan
        trialNs.push_back(bench::secondsSince(t0) * 1e9 / kScanReps);
    }
    if (kern.counters().hardening.deadlocksDetected != 0)
        return {-1, 0};
    return {bench::median(trialNs), bench::iqr(trialNs)};
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Report report(argc, argv);
    std::vector<bench::Trials> rates = bench::interleavedMedians(
        kDispatchTrials,
        {[] { return dispatchRate(64); }, [] { return dispatchRate(0); }});
    double rateOn = rates[0].median;
    double rateOff = rates[1].median;
    double overheadPct =
        rateOff > 0 ? (rateOff - rateOn) * 100.0 / rateOff : 100.0;
    bench::Trials scan = watchdogScanNs();

    report.section("Hardening: flight-recorder and watchdog cost");
    report.add("ring depth 64", "dispatch rate", rateOn,
               {.unit = "calls/s", .host = true, .iqr = rates[0].iqr});
    report.add("ring off", "dispatch rate", rateOff,
               {.unit = "calls/s", .host = true, .iqr = rates[1].iqr});
    report.note("");
    report.add("ring recording", "overhead", overheadPct,
               {.unit = "%", .places = 1, .host = true});
    report.note("");
    report.add("watchdog scan", "blocked contexts", kBlockedContexts);
    report.add("watchdog scan", "time", scan.median,
               {.unit = "ns", .host = true, .iqr = scan.iqr});

    report.expect(rateOn > 0 && rateOff > 0, "dispatch bench setup");
    // The ring is a fixed-size array append behind one branch; the
    // bound is generous to tolerate host noise, but a copying or
    // allocating implementation would blow straight through it.
    report.expect(overheadPct <= 40.0, "ring recording overhead <= 40%");
    report.expect(scan.median >= 0,
                  "watchdog scan setup (and no wakeable park tripped the "
                  "watchdog)");
    // Fixpoint over 32 contexts consulting the process table and FD
    // tables: anything near a millisecond means the scan went
    // quadratic-with-a-large-constant or started allocating per edge.
    report.expect(scan.median <= 1e6,
                  "watchdog scan median <= 1 ms for " +
                      std::to_string(kBlockedContexts) +
                      " blocked contexts");
    return report.finish();
}
