/**
 * @file
 * Ablation: 128-bit compressed vs 256-bit uncompressed capabilities.
 *
 * The paper benchmarks the 128-bit format because "its lower overheads
 * make it a more realistic candidate for commercial adoption"
 * (section 5), at the price of representability padding (footnote 2).
 * This bench quantifies both sides: pointer-dense workloads under both
 * formats, and the allocation padding the compressed format forces.
 */

#include "apps/minidb.h"
#include "apps/workloads.h"
#include "bench_util.h"

using namespace cheri;
using namespace cheri::apps;

namespace
{

/** Cycles @p w takes under @p abi with capabilities in @p fmt. */
u64
runWith(const Workload &w, Abi abi, compress::CapFormat fmt)
{
    KernelConfig cfg;
    cfg.capFormat = fmt;
    Kernel kern(cfg);
    SelfObject prog;
    prog.name = w.name;
    Process *proc = kern.spawn(abi, w.name);
    if (kern.execve(*proc, prog, {w.name}, {}) != E_OK)
        throw std::runtime_error("execve failed");
    GuestContext ctx(kern, *proc);
    GuestMalloc heap(ctx);
    proc->cost().reset();
    w.run(ctx, heap);
    return proc->cost().cycles();
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Report report(argc, argv);
    report.section("Ablation: capability format (cycle overhead vs "
                   "mips64)");
    for (const Workload &w : figure4Workloads()) {
        if (w.name != "network-patricia" && w.name != "auto-qsort" &&
            w.name != "spec2006-xalancbmk" && w.name != "spec2006-astar" &&
            w.name != "auto-basicmath") {
            continue;
        }
        u64 mips = runWith(w, Abi::Mips64, compress::CapFormat::Cap128);
        for (auto [metric, fmt] :
             {std::pair{"cheri-128", compress::CapFormat::Cap128},
              std::pair{"cheri-256", compress::CapFormat::Cap256}}) {
            report.add(w.name, metric,
                       overheadPct(mips, runWith(w, Abi::CheriAbi, fmt)),
                       {.unit = "%", .places = 1, .sign = true});
        }
    }

    report.section("The compressed format's price: allocation padding (bounds "
                   "granted per request)");
    for (u64 want :
         {u64{100}, u64{1} << 14, (u64{1} << 20) + 7,
          (u64{1} << 26) + 4096}) {
        std::string request = "request " + std::to_string(want);
        report.add(request, "cap128",
                   compress::representableLength(
                       want, compress::CapFormat::Cap128),
                   {.unit = "B"});
        report.add(request, "cap256",
                   compress::representableLength(
                       want, compress::CapFormat::Cap256),
                   {.unit = "B"});
    }
    report.note("\nShape: 256-bit capabilities give exact bounds but "
                "double pointer\nfootprint again — the pointer-dense "
                "workloads pay visibly more.");
    return report.finish();
}
