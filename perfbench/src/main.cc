/**
 * @file
 * perfbench — the end-to-end benchmark.
 *
 *   perfbench --workload paper|isa|fuzz --seed N --seconds S --trace 0|1
 *             [--plant none|checksum|replay|slot] [--trace-out FILE]
 *
 * One single-threaded client issues a workload's items back to back
 * (closed loop).  Set-up — building the seeded plan plus one warm-up
 * round — runs once before the measured phase and again at even
 * intervals within it; setup_s is the median.  The measured phase runs
 * passes over the workload's whole item set until --seconds have
 * passed, so each item is timed once per pass.  Each execution is
 * timed around its run and its teardown; drawing its inputs and
 * verifying its outputs stay outside the timing.  An item's time is
 * the fastest() of its executions; the throughput and percentile
 * figures are taken over those per-item times.
 *
 * Every execution of an item must reproduce the simulated counts of its
 * first execution exactly; a mismatch, like a failed output check,
 * counts the item as failed.
 *
 * --trace 0 prints the end-to-end metrics.  --trace 1 alternates
 * untraced and traced passes, recording a span around each call the
 * workload makes into a simulator layer; it prints the per-layer
 * metrics, per-layer self time, and the tracing overhead (untraced
 * versus traced items/s over the same items), and writes the spans as
 * Chrome trace-event JSON to --trace-out.
 *
 * The last line of stdout is one JSON object:
 *   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
 * Exit status: 0 on a completed run (whatever it measured), 2 on a
 * usage error.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <string>
#include <vector>

#include "harness.h"

using namespace perfbench;

namespace
{

struct MetricDef
{
    const char *name;
    const char *unit;
};

constexpr MetricDef endToEnd[] = {
    {"setup_s", "s"},
    {"items_per_s", "1/s"},
    {"item_ms_p50", "ms"},
    {"item_ms_p90", "ms"},
    {"sim_minsn_per_s", "Minsn/s"},
    {"syscalls_per_s", "1/s"},
    {"peak_rss_mb", "MB"},
};

/** Every per-layer metric; a workload that does not exercise a layer
 *  reports 0 for it. */
constexpr MetricDef perLayer[] = {
    {"bench.failed_frac", "ratio"},
    {"bench.trace_overhead_pct", "%"},
    // paper
    {"os.boot_ms", "ms"},
    {"apps.run_ms", "ms"},
    {"apps.ns_per_sim_insn", "ns"},
    {"apps.paper_err_pp", "pp"},
    {"machine.sim_insn", "count"},
    {"machine.sim_cycles", "count"},
    {"machine.l2_misses", "count"},
    {"mem.dtlb_miss_rate", "ratio"},
    {"machine.tlb_refill_cycle_share", "ratio"},
    {"os.syscall_ns", "ns"},
    // isa
    {"isa.assemble_ms", "ms"},
    {"sched.run_ms", "ms"},
    {"sched.ns_per_step", "ns"},
    {"isa.decode_hit_rate", "ratio"},
    {"mem.itlb_hit_rate", "ratio"},
    {"mem.dtlb_hit_rate", "ratio"},
    {"sched.context_switches", "count"},
    {"sched.blocks_fd", "count"},
    {"sched.wakes", "count"},
    {"snapshot.save_ms", "ms"},
    {"snapshot.restore_ms", "ms"},
    {"snapshot.image_mb", "MB"},
    // fuzz
    {"check.record_ms", "ms"},
    {"check.inject_record_ms", "ms"},
    {"check.replay_ms", "ms"},
    {"check.ns_per_syscall", "ns"},
    {"os.syscalls", "count"},
    {"check.oracle_runs", "count"},
    {"check.replay_entries", "count"},
    {"mem.reclaim_passes", "count"},
};

/** Set-up repetitions behind the setup_s median. */
constexpr int setupReps = 15;

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload paper|isa|fuzz --seed N "
                 "--seconds S --trace 0|1\n"
                 "                 [--plant none|checksum|replay|slot] "
                 "[--trace-out FILE]\n");
    return 2;
}

/** Everything one phase of items produced. */
struct Phase
{
    /** Per item: the ns of each of its executions. */
    std::vector<std::vector<double>> itemNs =
        std::vector<std::vector<double>>(itemsPerPass);
    u64 attempted = 0;
    u64 failed = 0;
    std::vector<std::string> failures;

    /** Per item: its fastest() execution, in ns. */
    std::vector<double>
    itemTimes() const
    {
        std::vector<double> t;
        for (const std::vector<double> &v : itemNs)
            t.push_back(fastest(v));
        return t;
    }

    /** Seconds of a typical pass: the sum of the item times. */
    double
    passSeconds() const
    {
        double s = 0;
        for (double ns : itemTimes())
            s += ns;
        return s / 1e9;
    }
};

class Driver
{
  public:
    Driver(Workload &w, u64 seed, Plant plant)
        : w(w), seed(seed), plant(plant), ref(itemsPerPass)
    {
    }

    /** Plan + one warm-up round into @p warm; records its seconds. */
    void
    setup(Phase &warm)
    {
        u64 t0 = nowNs();
        w.plan(seed, plant);
        for (u64 k = 0; k < w.roundSize(); ++k)
            runItem(k, warm);
        setupSecs.push_back(static_cast<double>(nowNs() - t0) / 1e9);
        for (const auto &[name, v] : w.setupValues())
            setupValues[name].push_back(v);
    }

    /**
     * Whole passes over the item set until @p seconds have passed, into
     * @p plain.  With @p traced non-null, passes alternate between
     * untraced into @p plain and traced into @p traced, so the tracing
     * overhead compares the same items over the same window.
     *
     * The set-up repetitions after the first are spread evenly over
     * the window, so their median sees the same host as the items do.
     */
    void
    measure(double seconds, int setupReps, Phase &plain, Phase *traced,
            Phase &warm)
    {
        u64 t0 = nowNs();
        u64 window = static_cast<u64>(seconds * 1e9);
        u64 minPasses = traced ? 2 : 1;
        int done = 1;
        for (u64 pass = 0; pass < minPasses || nowNs() < t0 + window; ++pass) {
            bool tracing = traced && (pass & 1);
            Phase &ph = tracing ? *traced : plain;
            tracer().enabled = tracing;
            tracer().pass = pass;
            for (u64 k = 0; k < itemsPerPass; ++k) {
                if (done < setupReps &&
                    nowNs() >= t0 + window / setupReps * done) {
                    tracer().enabled = false;
                    setup(warm);
                    tracer().enabled = tracing;
                    ++done;
                }
                runItem(k, ph);
            }
        }
        tracer().enabled = false;
        for (; done < setupReps; ++done)
            setup(warm);
    }

    /** Outcomes of the items' first executions (identical on every
     *  execution). */
    const std::vector<Outcome> &reference() const { return ref; }

    std::vector<double> setupSecs;
    std::map<std::string, std::vector<double>> setupValues;

  private:
    void
    runItem(u64 k, Phase &ph)
    {
        tracer().item = k;
        std::unique_ptr<ItemState> st = w.prepare(k);
        u64 t0 = nowNs();
        w.run(*st);
        u64 t1 = nowNs();
        Outcome out = w.check(*st);
        u64 t2 = nowNs();
        st.reset();
        u64 t3 = nowNs();
        ph.itemNs[k].push_back(static_cast<double>((t1 - t0) + (t3 - t2)));
        ++ph.attempted;

        // Determinism: every later execution of an item must reproduce
        // its first execution's counts bit for bit.
        if (!seen[k]) {
            ref[k] = out;
            seen[k] = true;
        } else if (ref[k].counts != out.counts && out.failure.empty()) {
            out.failure = "simulated counts differ between executions";
        }
        if (!out.failure.empty()) {
            ++ph.failed;
            if (ph.failures.size() < 8)
                ph.failures.push_back("item " + std::to_string(k) + ": " +
                                      out.failure);
        }
    }

    Workload &w;
    u64 seed;
    Plant plant;
    std::vector<Outcome> ref;
    std::vector<bool> seen = std::vector<bool>(itemsPerPass);
};

/**
 * Peak resident set of this address space (VmHWM), in MB.  Not
 * getrusage: its ru_maxrss survives execve, so it would report the
 * launching process's resident set whenever that was larger.
 */
double
peakRssMb()
{
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (!f)
        return 0;
    char line[256];
    unsigned long long kb = 0;
    while (std::fgets(line, sizeof line, f)) {
        if (std::sscanf(line, "VmHWM: %llu kB", &kb) == 1)
            break;
    }
    std::fclose(f);
    return static_cast<double>(kb) / 1024.0;
}

void
printResult(bool correct, u64 attempted, u64 failed, const Values &vals,
            const MetricDef *defs, size_t n)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (size_t i = 0; i < n; ++i) {
        auto it = vals.find(defs[i].name);
        double v = it == vals.end() || !std::isfinite(it->second)
                       ? 0.0
                       : it->second;
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", defs[i].name, v, defs[i].unit);
    }
    std::printf("}}\n");
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload, traceOut;
    u64 seed = 0;
    double seconds = 0;
    int trace = -1;
    bool haveSeed = false;
    Plant plant = Plant::None;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (i + 1 >= argc)
            return usage();
        std::string v = argv[++i];
        if (a == "--workload")
            workload = v;
        else if (a == "--seed") {
            seed = std::strtoull(v.c_str(), nullptr, 0);
            haveSeed = true;
        } else if (a == "--seconds")
            seconds = std::strtod(v.c_str(), nullptr);
        else if (a == "--trace")
            trace = v == "1" ? 1 : (v == "0" ? 0 : -1);
        else if (a == "--trace-out")
            traceOut = v;
        else if (a == "--plant") {
            if (v == "checksum")
                plant = Plant::Checksum;
            else if (v == "replay")
                plant = Plant::Replay;
            else if (v == "slot")
                plant = Plant::Slot;
            else if (v != "none")
                return usage();
        } else
            return usage();
    }
    std::unique_ptr<Workload> w;
    if (workload == "paper")
        w = makePaper();
    else if (workload == "isa")
        w = makeIsa();
    else if (workload == "fuzz")
        w = makeFuzz();
    if (!w || !haveSeed || trace < 0 || !(seconds > 0))
        return usage();

    Driver d(*w, seed, plant);
    Phase warm, plain, traced;
    d.setup(warm);
    d.measure(seconds, setupReps, plain, trace ? &traced : nullptr, warm);

    Values vals;
    const MetricDef *defs = endToEnd;
    size_t ndefs = std::size(endToEnd);
    size_t passes = plain.itemNs[0].size();
    if (!trace) {
        // Simulated work of a pass (exact) over a typical pass's seconds.
        double passSecs = plain.passSeconds();
        auto perSec = [&](const char *key) {
            return ratio(static_cast<double>(sumCount(d.reference(), key)),
                         passSecs);
        };
        std::vector<double> ms;
        for (double ns : plain.itemTimes())
            ms.push_back(ns / 1e6);
        vals["setup_s"] = median(d.setupSecs);
        vals["items_per_s"] = ratio(double(itemsPerPass), passSecs);
        vals["item_ms_p50"] = quantile(ms, 0.5);
        vals["item_ms_p90"] = quantile(ms, 0.9);
        vals["sim_minsn_per_s"] = perSec("sim_insn") / 1e6;
        vals["syscalls_per_s"] = perSec("syscalls");
        vals["peak_rss_mb"] = peakRssMb();
        std::printf("%s: %llu items x %zu passes; p50/p90 over %zu item "
                    "times, %zu beyond p90; %zu set-ups\n",
                    workload.c_str(),
                    static_cast<unsigned long long>(itemsPerPass), passes,
                    ms.size(), (ms.size() - 1) - (ms.size() - 1) * 9 / 10,
                    d.setupSecs.size());
    } else {
        auto spans = tracer().passTotals();
        w->derive(d.reference(), spans, vals);
        for (auto &[name, v] : d.setupValues)
            vals[name] = median(v);
        double untracedIps = ratio(double(itemsPerPass), plain.passSeconds());
        double tracedIps = ratio(double(itemsPerPass), traced.passSeconds());
        vals["bench.trace_overhead_pct"] =
            tracedIps > 0 ? (untracedIps / tracedIps - 1.0) * 100.0 : 0.0;
        defs = perLayer;
        ndefs = std::size(perLayer);

        std::printf("per-layer time of a typical traced pass "
                    "(%zu untraced + %zu traced passes)\n",
                    passes, traced.itemNs[0].size());
        std::printf("%-24s %12s %12s %8s\n", "span", "self ms", "total ms",
                    "count");
        for (const auto &[name, t] : spans)
            std::printf("%-24s %12.3f %12.3f %8.0f\n", name.c_str(),
                        t.selfNs / 1e6, t.ns / 1e6, t.count);
        std::printf("tracing overhead: %.2f%% (untraced %.2f items/s, "
                    "traced %.2f items/s)\n",
                    vals["bench.trace_overhead_pct"], untracedIps,
                    tracedIps);
        if (!traceOut.empty() && !tracer().writeChromeTrace(traceOut))
            std::fprintf(stderr, "perfbench: cannot write %s\n",
                         traceOut.c_str());
    }

    u64 attempted = 0, failed = 0;
    for (const Phase *ph : {&warm, &plain, &traced}) {
        attempted += ph->attempted;
        failed += ph->failed;
        for (const std::string &f : ph->failures)
            std::fprintf(stderr, "FAILED %s\n", f.c_str());
    }
    if (trace)
        vals["bench.failed_frac"] = ratio(double(failed), double(attempted));
    printResult(failed == 0, attempted, failed, vals, defs, ndefs);
    return 0;
}
