/**
 * @file
 * Table 1 reproduction: test-suite results under mips64 and CheriABI.
 *
 * Runs the FreeBSD-base, PostgreSQL-pg_regress, and libc++ analogue
 * suites under both ABIs and prints the pass/fail/skip matrix next to
 * the paper's reported values.
 */

#include "apps/minidb.h"
#include "apps/testsuite.h"
#include "bench_util.h"

using namespace cheri;
using namespace cheri::apps;

namespace
{

template <typename Totals>
void
row(bench::Report &report, const std::string &name, const Totals &t)
{
    report.add(name, "Pass", t.pass);
    report.add(name, "Fail", t.fail);
    report.add(name, "Skip", t.skip);
    report.add(name, "Total", t.total());
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Report report(argc, argv);
    report.section("Table 1: Test suite results (measured)");
    row(report, "FreeBSD MIPS", runFreebsdSuite(Abi::Mips64));
    row(report, "FreeBSD CheriABI", runFreebsdSuite(Abi::CheriAbi));
    row(report, "PostgreSQL MIPS", runPgRegress(Abi::Mips64));
    row(report, "PostgreSQL CheriABI", runPgRegress(Abi::CheriAbi));
    row(report, "libc++ MIPS", runLibcxxSuite(Abi::Mips64));
    row(report, "libc++ CheriABI", runLibcxxSuite(Abi::CheriAbi));

    report.section("Table 1 (paper, for reference)");
    report.note("                       Pass   Fail   Skip  Total\n"
                "FreeBSD MIPS           3501     90    244   3835\n"
                "FreeBSD CheriABI       3301    122    246   3669\n"
                "PostgreSQL MIPS         167      0      0    167\n"
                "PostgreSQL CheriABI     150     16      1    167\n"
                "libc++ MIPS            5338     29    789   6156\n"
                "libc++ CheriABI        5333     34    789   6156");

    report.note("\nCheriABI failure causes (pg_regress):");
    std::vector<RegressCase> cases;
    runPgRegress(Abi::CheriAbi, &cases);
    int shown = 0;
    for (const RegressCase &c : cases) {
        if (c.outcome == RegressCase::Outcome::Pass)
            continue;
        report.note(bench::format(
            "  %-28s %s %s", c.name.c_str(),
            c.outcome == RegressCase::Outcome::Fail ? "FAIL" : "SKIP",
            c.detail.c_str()));
        if (++shown >= 20)
            break;
    }
    return report.finish();
}
