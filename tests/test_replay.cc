/**
 * @file
 * Record-replay tests: a seeded fuzzer run — fault injection, forks,
 * open revocation epochs, multi-process scheduling — records its
 * nondeterministic inputs and replays bit-for-bit with zero
 * divergences and identical metrics JSON; a planted perturbation is
 * caught by the divergence oracle and attributed to the right
 * syscall; corrupt logs are rejected cleanly.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "check/diff_fuzzer.h"
#include "check/replay.h"
#include "obs/metrics.h"

namespace cheri
{
namespace
{

using check::DiffFuzzer;
using check::FuzzOptions;
using check::FuzzReport;
using check::ReplaySession;

FuzzOptions
baseOptions()
{
    FuzzOptions opts;
    opts.seed = 11;
    opts.cases = 4;
    opts.opsPerCase = 32;
    opts.checkEvery = 1;
    // Fault injection is one of the two recorded input streams; the
    // generated cases themselves exercise fork (multi-process) and
    // Revoke ops (open incremental epochs).
    opts.inject = true;
    return opts;
}

/** Record @p opts, returning the serialized log. */
std::vector<u8>
recordRun(FuzzOptions opts, u64 *entriesOut = nullptr)
{
    ReplaySession rec(ReplaySession::Mode::Record);
    FuzzOptions run = opts;
    run.replay = &rec;
    DiffFuzzer fuzzer(run);
    FuzzReport rep = fuzzer.run();
    EXPECT_TRUE(rep.ok()) << rep.summary();
    EXPECT_EQ(rec.divergenceCount(), 0u);
    EXPECT_GT(rec.entryCount(), 0u);
    if (entriesOut)
        *entriesOut = rec.entryCount();
    return rec.serialize(opts);
}

TEST(ReplayTest, InjectedRunReplaysBitForBit)
{
    u64 recorded = 0;
    std::vector<u8> log = recordRun(baseOptions(), &recorded);

    ReplaySession rp(ReplaySession::Mode::Replay);
    std::string err;
    ASSERT_TRUE(rp.load(log, &err)) << err;
    // The log header is self-contained: the recorded configuration
    // comes back without external arguments.
    FuzzOptions opts = rp.options();
    EXPECT_EQ(opts.seed, 11u);
    EXPECT_EQ(opts.cases, 4u);
    EXPECT_TRUE(opts.inject);

    opts.replay = &rp;
    DiffFuzzer fuzzer(opts);
    FuzzReport rep = fuzzer.run();
    EXPECT_TRUE(rep.ok()) << rep.summary();
    EXPECT_EQ(rp.divergenceCount(), 0u) << rp.firstDivergence();
    EXPECT_EQ(rp.entryCount(), recorded);
}

TEST(ReplayTest, MultiProcScheduledRunReplaysBitForBit)
{
    FuzzOptions opts = baseOptions();
    opts.cases = 3;
    opts.multiProc = 3;
    std::vector<u8> log = recordRun(opts);

    ReplaySession rp(ReplaySession::Mode::Replay);
    std::string err;
    ASSERT_TRUE(rp.load(log, &err)) << err;
    FuzzOptions o2 = rp.options();
    EXPECT_EQ(o2.multiProc, 3u);
    o2.replay = &rp;
    DiffFuzzer fuzzer(o2);
    FuzzReport rep = fuzzer.run();
    EXPECT_TRUE(rep.ok()) << rep.summary();
    EXPECT_EQ(rp.divergenceCount(), 0u) << rp.firstDivergence();
}

TEST(ReplayTest, MetricsJsonIdenticalAcrossReplay)
{
    FuzzOptions opts = baseOptions();
    opts.cases = 1;
    opts.keepMetricsJson = true;

    ReplaySession rec(ReplaySession::Mode::Record);
    FuzzOptions runOpts = opts;
    runOpts.replay = &rec;
    DiffFuzzer recorder(runOpts);
    check::CaseReport cr1 = recorder.runCase(0);
    EXPECT_FALSE(cr1.failed());
    ASSERT_FALSE(cr1.metricsJson.empty());
    EXPECT_NE(cr1.metricsJson.find("cheri.metrics.v9"),
              std::string::npos);
    std::vector<u8> log = rec.serialize(opts);

    ReplaySession rp(ReplaySession::Mode::Replay);
    std::string err;
    ASSERT_TRUE(rp.load(log, &err)) << err;
    FuzzOptions o2 = rp.options();
    o2.replay = &rp;
    o2.keepMetricsJson = true;
    DiffFuzzer replayer(o2);
    check::CaseReport cr2 = replayer.runCase(0);
    EXPECT_FALSE(cr2.failed());
    EXPECT_EQ(rp.divergenceCount(), 0u) << rp.firstDivergence();
    // Bit-for-bit: the full metrics export of both ABI runs agrees
    // between the recorded and the replayed timeline.
    EXPECT_EQ(cr1.metricsJson, cr2.metricsJson);
}

TEST(ReplayTest, PlantedDivergenceCaughtAndAttributed)
{
    FuzzOptions opts = baseOptions();
    opts.cases = 2;
    std::vector<u8> log = recordRun(opts);

    ReplaySession rp(ReplaySession::Mode::Replay);
    std::string err;
    ASSERT_TRUE(rp.load(log, &err)) << err;
    rp.plantAtQuiesce(7);
    FuzzOptions o2 = rp.options();
    o2.replay = &rp;
    DiffFuzzer fuzzer(o2);
    fuzzer.run();

    // Exactly the planted divergence — nothing cascades, because the
    // logged inputs (not the digests) drive the replayed timeline.
    ASSERT_EQ(rp.divergenceCount(), 1u);
    const check::ReplayDivergence &d = rp.divergences().front();
    EXPECT_EQ(d.field, "regHash");
    EXPECT_EQ(d.seq, 7u);
    EXPECT_FALSE(d.sysName.empty())
        << "divergence not attributed to a syscall";
    std::string first = rp.firstDivergence();
    EXPECT_NE(first.find("regHash"), std::string::npos);
    EXPECT_NE(first.find(d.sysName), std::string::npos);
}

TEST(ReplayTest, CorruptLogRejectedCleanly)
{
    FuzzOptions opts = baseOptions();
    opts.cases = 1;
    std::vector<u8> log = recordRun(opts);

    std::string err;
    ReplaySession bad1(ReplaySession::Mode::Replay);
    std::vector<u8> trunc(log.begin(), log.begin() + log.size() / 2);
    EXPECT_FALSE(bad1.load(trunc, &err));
    EXPECT_FALSE(err.empty());

    ReplaySession bad2(ReplaySession::Mode::Replay);
    std::vector<u8> magic = log;
    magic[0] ^= 0xff;
    EXPECT_FALSE(bad2.load(magic, &err));

    ReplaySession bad3(ReplaySession::Mode::Replay);
    EXPECT_FALSE(bad3.load({}, &err));

    // The pristine log still loads.
    ReplaySession good(ReplaySession::Mode::Replay);
    EXPECT_TRUE(good.load(log, &err)) << err;
}

TEST(ReplayTest, VersionOneLogRejected)
{
    // Version 2 changed what the quiesce digest covers, not the layout:
    // a version-1 log would load and then diverge at its first digest.
    ReplaySession rec(ReplaySession::Mode::Record);
    rec.finish();
    std::vector<u8> log = rec.serialize(baseOptions());
    ReplaySession ok(ReplaySession::Mode::Replay);
    std::string err;
    ASSERT_TRUE(ok.load(log, &err)) << err;

    // The version word follows the 8-byte magic, little-endian.
    ASSERT_EQ(log[8], ReplaySession::logVersion);
    log[8] = 1;
    ReplaySession old(ReplaySession::Mode::Replay);
    EXPECT_FALSE(old.load(log, &err));
    EXPECT_EQ(err, "unsupported log version");
}

TEST(ReplayTest, SessionsRecordedInMetrics)
{
    FuzzOptions opts = baseOptions();
    opts.cases = 1;

    obs::Metrics mx;
    ReplaySession rec(ReplaySession::Mode::Record);
    FuzzOptions runOpts = opts;
    runOpts.replay = &rec;
    DiffFuzzer recorder(runOpts);
    recorder.setMetrics(&mx);
    recorder.run();
    EXPECT_EQ(mx.snapshot().records, 1u);
    EXPECT_EQ(mx.snapshot().replays, 0u);
    EXPECT_GT(mx.snapshot().logEntries, 0u);

    obs::Metrics mx2;
    ReplaySession rp(ReplaySession::Mode::Replay);
    std::string err;
    ASSERT_TRUE(rp.load(rec.serialize(opts), &err)) << err;
    FuzzOptions o2 = rp.options();
    o2.replay = &rp;
    DiffFuzzer replayer(o2);
    replayer.setMetrics(&mx2);
    replayer.run();
    EXPECT_EQ(mx2.snapshot().replays, 1u);
    EXPECT_EQ(mx2.snapshot().replayDivergences, 0u);
}

} // namespace
} // namespace cheri
