/**
 * @file
 * Table 3 reproduction: BOdiagsuite detection results.
 *
 * Runs all 291 overflow cases at the three magnitudes under the three
 * protection regimes and prints the detection matrix next to the
 * paper's values, plus the real-bug gallery (section 5.4 bug classes).
 */

#include "bench_util.h"
#include "bodiag/suite.h"

using namespace cheri;
using namespace cheri::bodiag;

int
main(int argc, char **argv)
{
    bench::Report report(argc, argv);
    auto suite = generateSuite();
    report.section("Table 3: BOdiagsuite detections (measured, " +
                   std::to_string(suite.size()) + " cases)");
    for (Mode mode : {Mode::Mips64, Mode::CheriAbi, Mode::Asan}) {
        ModeSummary s = runAll(suite, mode);
        report.add(modeName(mode), "min", s.min);
        report.add(modeName(mode), "med", s.med);
        report.add(modeName(mode), "large", s.large);
        report.add(modeName(mode), "ok-failures", s.okFailures);
    }

    report.section("Table 3 (paper, for reference)");
    report.note("              min    med  large\n"
                "mips64          4      8    175\n"
                "cheriabi      279    289    291\n"
                "asan          276    286    286");

    report.section("Real-bug gallery (paper section 5.4 bug classes)");
    struct GalleryEntry
    {
        const char *bug;
        BodiagCase c;
        Magnitude mag;
    };
    const GalleryEntry gallery[] = {
        {"tcsh history-expansion underrun read",
         {0, Region::Heap, AccessKind::Read, Technique::PtrArith, 16},
         Magnitude::Min},
        {"DHCP client under-allocated ioctl buffer",
         {0, Region::Heap, AccessKind::Write, Technique::PosixGetcwd,
          12},
         Magnitude::Med},
        {"ttyname small buffer overflow",
         {0, Region::Global, AccessKind::Write, Technique::LibcStrcpy,
          32},
         Magnitude::Min},
        {"humanize_number overflow",
         {0, Region::Stack, AccessKind::Write, Technique::LibcMemcpy,
          16},
         Magnitude::Min},
        {"strvis test-case overflow",
         {0, Region::Stack, AccessKind::Write, Technique::LoopIndex,
          64},
         Magnitude::Min},
    };
    for (const GalleryEntry &g : gallery) {
        for (Mode m : {Mode::Mips64, Mode::CheriAbi, Mode::Asan})
            report.add(g.bug, modeName(m), runCase(g.c, g.mag, m).detected,
                       {.unit = "caught"});
    }
    return report.finish();
}
