/**
 * @file
 * The PostgreSQL initdb macro-benchmark (paper section 5.2): CheriABI
 * overhead vs the mips64 baseline, and the AddressSanitizer comparison
 * point (paper: 3.29x cycles with the binary instrumented).
 */

#include "apps/minidb.h"
#include "bench_util.h"

using namespace cheri;
using namespace cheri::apps;

int
main(int argc, char **argv)
{
    bench::Report report(argc, argv);
    report.section("initdb macro-benchmark");
    InitdbResult mips = runInitdb(Abi::Mips64);
    InitdbResult cheri = runInitdb(Abi::CheriAbi);
    InitdbResult asan = runInitdb(Abi::Mips64, {}, true);

    for (auto [name, r] : {std::pair{"mips64", &mips},
                           std::pair{"cheriabi", &cheri},
                           std::pair{"mips64+asan", &asan}}) {
        report.add(name, "instructions", r->instructions);
        report.add(name, "cycles", r->cycles);
        report.add(name, "l2-misses", r->l2Misses);
    }

    report.note("");
    report.add("cheriabi vs mips64", "cycles",
               overheadPct(mips.cycles, cheri.cycles),
               {.unit = "%", .places = 1, .sign = true});
    report.add("mips64+asan vs mips64", "cycles",
               static_cast<double>(asan.cycles) /
                   static_cast<double>(mips.cycles),
               {.unit = "x", .places = 2});
    report.note("(paper: cheriabi +6.8%, asan 3.29x)\n\nwork done per run "
                "(plus a shared-memory buffer pool and TLS backend "
                "state):");
    report.add("initdb", "files created", mips.filesCreated);
    report.add("initdb", "catalog rows", mips.catalogRows);
    return report.finish();
}
