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
 * --json emits machine-readable results; --check exits nonzero when
 * either overhead exceeds its (deliberately generous, host-noise
 * tolerant) bound.
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <utility>
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

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
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
    double sec = secondsSince(t0);
    return sec > 0 ? kDispatchReps / sec : 0;
}

/**
 * Median over kScanTrials trials of the nanoseconds per watchdog scan
 * over kBlockedContexts parked ev_wait guests.  A host-driven process
 * keeps every park wakeable, so each idle drain runs exactly one full
 * (non-killing) fixpoint scan.
 */
double
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
        return -1;

    for (u64 i = 0; i < kBlockedContexts; ++i) {
        Process *p = kern.spawn(Abi::Mips64, "parked");
        if (!p || kern.execve(*p, prog, {"parked"}, {}) != E_OK)
            return -1;
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
        return -1; // wakeable parks must never trip the watchdog

    std::vector<double> trialNs;
    for (int t = 0; t < kScanTrials; ++t) {
        auto t0 = std::chrono::steady_clock::now();
        for (int i = 0; i < kScanReps; ++i)
            kern.runUntilIdle(); // nothing runnable: idle pass + one scan
        trialNs.push_back(secondsSince(t0) * 1e9 / kScanReps);
    }
    if (kern.counters().hardening.deadlocksDetected != 0)
        return -1;
    return bench::median(std::move(trialNs));
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

    std::vector<double> rates = bench::interleavedMedians(
        kDispatchTrials,
        {[] { return dispatchRate(64); }, [] { return dispatchRate(0); }});
    double rateOn = rates[0];
    double rateOff = rates[1];
    double overheadPct =
        rateOff > 0 ? (rateOff - rateOn) * 100.0 / rateOff : 100.0;
    double scanNs = watchdogScanNs();

    if (json) {
        std::printf("{\n"
                    "  \"schema\": \"cheri.hardening_bench.v1\",\n"
                    "  \"dispatch_per_sec_ring_on\": %.0f,\n"
                    "  \"dispatch_per_sec_ring_off\": %.0f,\n"
                    "  \"ring_overhead_pct\": %.1f,\n"
                    "  \"blocked_contexts\": %llu,\n"
                    "  \"watchdog_scan_ns\": %.0f\n"
                    "}\n",
                    rateOn, rateOff, overheadPct,
                    static_cast<unsigned long long>(kBlockedContexts),
                    scanNs);
    } else {
        bench::banner("Hardening: flight-recorder and watchdog cost");
        std::printf("%-40s %14.0f\n", "dispatches/sec, ring depth 64",
                    rateOn);
        std::printf("%-40s %14.0f\n", "dispatches/sec, ring off",
                    rateOff);
        std::printf("%-40s %13.1f%%\n", "ring recording overhead",
                    overheadPct);
        std::printf("%-40s %14.0f\n",
                    "watchdog scan ns (32 blocked ctxs)", scanNs);
    }

    if (check) {
        bool ok = true;
        if (rateOn <= 0 || rateOff <= 0) {
            std::fprintf(stderr, "CHECK FAIL: dispatch bench setup "
                                 "failed\n");
            ok = false;
        }
        // The ring is a fixed-size array append behind one branch; the
        // bound is generous to tolerate host noise, but a copying or
        // allocating implementation would blow straight through it.
        if (overheadPct > 40.0) {
            std::fprintf(stderr,
                         "CHECK FAIL: ring recording overhead %.1f%% > "
                         "40%%\n",
                         overheadPct);
            ok = false;
        }
        if (scanNs < 0) {
            std::fprintf(stderr, "CHECK FAIL: watchdog scan bench "
                                 "setup failed (or a wakeable park "
                                 "tripped the watchdog)\n");
            ok = false;
        }
        // Fixpoint over 32 contexts consulting the process table and
        // FD tables: anything near a millisecond means the scan went
        // quadratic-with-a-large-constant or started allocating per
        // edge.
        if (scanNs > 1e6) {
            std::fprintf(stderr,
                         "CHECK FAIL: watchdog scan median %.0f ns > 1ms "
                         "for %llu blocked contexts\n",
                         scanNs,
                         static_cast<unsigned long long>(
                             kBlockedContexts));
            ok = false;
        }
        if (!ok)
            return 1;
        std::printf("CHECK OK\n");
    }
    return 0;
}
