/**
 * @file
 * Figure 4 reproduction: MiBench and SPEC CPU2006 workload overheads
 * of pure-capability (CheriABI) execution relative to the mips64
 * baseline — instructions, cycles, and L2 misses — plus the
 * initdb-dynamic macro-benchmark.
 *
 * Like the paper, each point is a median over repeated runs with an
 * interquartile range: run-to-run variation comes from ASLR (each run
 * gets a different address-space slide, perturbing cache behaviour).
 */

#include <algorithm>
#include <vector>

#include "apps/minidb.h"
#include "apps/workloads.h"
#include "bench_util.h"

using namespace cheri;
using namespace cheri::apps;

namespace
{

constexpr int numRuns = 5;

struct Series
{
    WorkloadResult median;
    double cycleIqrPct = 0; // IQR of cycles as % of the median
};

Series
runSeries(const Workload &w, Abi abi)
{
    std::vector<WorkloadResult> runs;
    std::vector<double> cycles;
    for (int i = 0; i < numRuns; ++i) {
        runs.push_back(runWorkload(w, abi, {}, 1000 + i * 7));
        cycles.push_back(static_cast<double>(runs.back().cycles));
    }
    std::sort(runs.begin(), runs.end(),
              [](const WorkloadResult &a, const WorkloadResult &b) {
                  return a.cycles < b.cycles;
              });
    Series s;
    s.median = runs[numRuns / 2];
    s.cycleIqrPct = 100.0 * bench::iqr(cycles) /
                    static_cast<double>(s.median.cycles);
    return s;
}

/** The three Figure 4 overheads of @p cheri over @p mips, the cycles
 *  one with its error bar @p cycleIqrPct when there is one. */
template <typename Result>
void
addOverheads(bench::Report &report, const std::string &name,
             const Result &mips, const Result &cheri,
             double cycleIqrPct = -1)
{
    bench::Style pct{.unit = "%", .places = 1, .sign = true};
    report.add(name, "instr", overheadPct(mips.instructions,
                                          cheri.instructions), pct);
    report.add(name, "cycles", overheadPct(mips.cycles, cheri.cycles),
               {.unit = "%", .places = 1, .sign = true,
                .iqr = cycleIqrPct, .iqrPlaces = 2});
    report.add(name, "l2-miss", overheadPct(mips.l2Misses, cheri.l2Misses),
               pct);
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Report report(argc, argv);
    report.section("Figure 4: CheriABI overhead vs mips64 baseline "
                   "(median of 5 ASLR seeds; IQR = cycle IQR as % of the "
                   "median, the error bar)");
    for (const Workload &w : figure4Workloads()) {
        Series m = runSeries(w, Abi::Mips64);
        Series c = runSeries(w, Abi::CheriAbi);
        addOverheads(report, w.name, m.median, c.median,
                     std::max(m.cycleIqrPct, c.cycleIqrPct));
    }

    // initdb-dynamic: the dynamically linked macro-benchmark.
    addOverheads(report, "initdb-dynamic", runInitdb(Abi::Mips64),
                 runInitdb(Abi::CheriAbi));

    report.note(
        "\nPaper (Figure 4) shape: most benchmarks within noise "
        "(+-10%);\npointer-dense workloads (patricia, astar, "
        "xalancbmk, qsort) pay\ncycles and L2 misses for 128-bit "
        "pointers; security-sha is *faster*\nunder CheriABI (separate "
        "capability register file); initdb-dynamic\n~= +6.8% cycles.");
    return report.finish();
}
