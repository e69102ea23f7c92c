/**
 * @file
 * Figure 5 reproduction: capability-granularity CDF from a traced run
 * of the openssl s_server analogue (startup, authentication, file
 * exchange), grouped by derivation source.
 */

#include "apps/sslserver.h"
#include "bench_util.h"
#include "trace/analysis.h"

using namespace cheri;
using namespace cheri::apps;

int
main(int argc, char **argv)
{
    bench::Report report(argc, argv);
    CapTraceRecorder rec;
    SslServerReport run = runSslServer(Abi::CheriAbi, &rec);

    report.section("Figure 5: cumulative capability count by bounds size "
                   "(mini_s_server)");
    report.add("run", "handshake ok", run.handshakeOk);
    report.add("run", "bytes served", run.bytesServed);
    report.add("run", "derivations traced", rec.count());
    report.note("");

    GranularityCdf cdf(rec.all());
    for (unsigned shift = GranularityCdf::minShift;
         shift <= GranularityCdf::maxShift; shift += 2) {
        std::string size = "size <= 2^" + std::to_string(shift);
        report.add(size, "all", cdf.cumulativeAll(shift));
        // Every source but the transient Temp, in legend order.
        for (unsigned i = 0; i < unsigned(DeriveSource::Temp); ++i) {
            auto s = static_cast<DeriveSource>(i);
            report.add(size, std::string(deriveSourceName(s)),
                       cdf.cumulative(s, shift));
        }
    }

    report.section("Headline statistics (paper section 5.5)");
    report.add("largest capability bound (bytes)", "measured",
               cdf.maxLengthAll(), {.unit = "B"});
    report.add("fraction with bounds <= 1 KiB", "measured",
               cdf.fractionBelow(1024) * 100.0, {.unit = "%", .places = 1});
    report.add("largest stack capability (bytes)", "measured",
               cdf.maxLength(DeriveSource::Stack), {.unit = "B"});
    report.add("largest malloc capability (bytes)", "measured",
               cdf.maxLength(DeriveSource::Malloc), {.unit = "B"});
    report.add("kern capability count", "measured",
               cdf.total(DeriveSource::Kern));
    report.add("syscall capability count", "measured",
               cdf.total(DeriveSource::Syscall));
    report.note(
        "\nPaper: no capability > 16 MiB; ~90% of bounds <= 1 KiB; "
        "stack and\nmalloc capabilities <= 8 MiB; the kern and syscall "
        "lines lie nearly\non the X-axis.  (A legacy mips64 run would be "
        "a single vertical line\nat the maximum user address: every "
        "pointer carries whole-address-space\nauthority.)");
    return report.finish();
}
