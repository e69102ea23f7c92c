/**
 * @file
 * CLC-immediate ablation (paper section 5.2).
 *
 * The original capability-relative load (CLC) had an immediate too
 * small to reach most GOT entries, costing a 3-instruction sequence
 * per global access.  The paper's ISA extension enlarges the
 * immediate, reducing code size by over 10% and cutting the initdb
 * overhead from 11% to 6.8%.  This bench toggles the feature on the
 * initdb macro-benchmark.
 */

#include "apps/minidb.h"
#include "bench_util.h"

using namespace cheri;
using namespace cheri::apps;

int
main(int argc, char **argv)
{
    bench::Report report(argc, argv);
    report.section("Ablation: CLC immediate width (initdb)");
    InitdbResult mips = runInitdb(Abi::Mips64);
    InitdbResult small_imm =
        runInitdb(Abi::CheriAbi, {.largeClcImmediate = false});
    InitdbResult large_imm =
        runInitdb(Abi::CheriAbi, {.largeClcImmediate = true});

    for (auto [name, r] : {std::pair{"mips64 baseline", &mips},
                           std::pair{"cheriabi, small CLC imm", &small_imm},
                           std::pair{"cheriabi, large CLC imm", &large_imm}}) {
        report.add(name, "cycles", r->cycles);
        report.add(name, "instructions", r->instructions);
        report.add(name, "code-bytes", r->codeBytes);
    }

    report.note("");
    bench::Style pct{.unit = "%", .places = 1};
    report.add("small CLC imm", "initdb overhead",
               overheadPct(mips.cycles, small_imm.cycles), pct);
    report.add("large CLC imm", "initdb overhead",
               overheadPct(mips.cycles, large_imm.cycles), pct);
    report.add("large CLC imm", "code footprint change",
               overheadPct(small_imm.codeBytes, large_imm.codeBytes),
               {.unit = "%", .places = 1, .sign = true});
    report.note("(paper: initdb overhead 11% -> 6.8%; >10% static "
                "code-size reduction)");
    return report.finish();
}
