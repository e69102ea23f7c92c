/**
 * @file
 * Record-replay tests: a seeded fuzzer run — fault injection, forks,
 * open revocation epochs, multi-process scheduling — records its
 * nondeterministic inputs and replays bit-for-bit with zero
 * divergences and identical metrics JSON; a planted perturbation is
 * caught by the divergence oracle and attributed to the right
 * syscall; corrupt logs are rejected cleanly.  The digest the log
 * carries sees every hashed field on its own.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "check/diff_fuzzer.h"
#include "check/digest.h"
#include "check/replay.h"
#include "obs/metrics.h"
#include "os/kernel.h"

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

TEST(ReplayTest, OldLogVersionsRejected)
{
    // Versions 2 and 3 changed the quiesce digest, not the layout: an
    // older log would load and then diverge at its first digest.
    ReplaySession rec(ReplaySession::Mode::Record);
    rec.finish();
    std::vector<u8> log = rec.serialize(baseOptions());
    ReplaySession ok(ReplaySession::Mode::Replay);
    std::string err;
    ASSERT_TRUE(ok.load(log, &err)) << err;

    // The version word follows the 8-byte magic, little-endian.
    ASSERT_EQ(log[8], ReplaySession::logVersion);
    for (u8 version : {1, 2}) {
        log[8] = version;
        ReplaySession old(ReplaySession::Mode::Replay);
        EXPECT_FALSE(old.load(log, &err)) << "version " << int(version);
        EXPECT_EQ(err, "unsupported log version");
    }
}

TEST(ReplayTest, SaveLoadSaveIsByteIdentical)
{
    FuzzOptions opts = baseOptions();
    opts.cases = 2;
    opts.multiProc = 3;
    std::vector<u8> log = recordRun(opts);

    ReplaySession loaded(ReplaySession::Mode::Replay);
    std::string err;
    ASSERT_TRUE(loaded.load(log, &err)) << err;
    EXPECT_EQ(loaded.serialize(loaded.options()), log);
}

// --- the digest -----------------------------------------------------------

/** The seven values the digest takes from a capability, in order. */
std::array<u64, 7>
hashedFields(const Capability &c)
{
    return {c.tag() ? 1u : 0u,   c.base(),    static_cast<u64>(c.top()),
            static_cast<u64>(c.top() >> 64), c.address(), c.perms(),
            c.otype()};
}

/** Pairs of capabilities that differ in exactly one hashed value, one
 *  pair per value, derived through the public (monotonic) API. */
std::vector<std::pair<Capability, Capability>>
oneFieldPairs()
{
    Capability root = Capability::root();
    // [0x10000, 0x20000) @0x18000, read-write.
    Capability cap = root.setAddress(0x10000)
                         .setBoundsExact(0x10000)
                         .value()
                         .andPerms(PERM_GLOBAL | PERM_LOAD | PERM_STORE)
                         .value()
                         .setAddress(0x18000);
    Capability sealer = root.setAddress(42);
    Capability atZero = root.setAddress(0);
    return {
        // tag
        {cap, cap.withoutTag()},
        // base: [0x18000, 0x20000)
        {cap, cap.setBoundsExact(0x8000).value()},
        // top, low half: [0x10000, 0x19000)
        {cap, cap.setAddress(0x10000)
                  .setBoundsExact(0x9000)
                  .value()
                  .setAddress(0x18000)},
        // top, high half: the root ends at 2^64, [0, 0) at 0
        {atZero, atZero.setBoundsExact(0).value()},
        // address
        {cap, cap.setAddress(0x18010)},
        // perms
        {cap, cap.andPerms(PERM_GLOBAL | PERM_LOAD).value()},
        // otype
        {cap, cap.seal(sealer).value()},
    };
}

TEST(ReplayDigest, RegsDigestSeesEveryField)
{
    auto pairs = oneFieldPairs();
    ASSERT_EQ(pairs.size(), 7u);
    for (std::size_t f = 0; f < pairs.size(); ++f) {
        auto a = hashedFields(pairs[f].first);
        auto b = hashedFields(pairs[f].second);
        for (std::size_t i = 0; i < a.size(); ++i)
            ASSERT_EQ(a[i] != b[i], i == f) << "pair " << f << " value " << i;
    }

    ThreadRegs base;
    for (std::size_t i = 0; i < base.x.size(); ++i)
        base.x[i] = 0x1000 + i;
    using check::hashRegs;
    auto expectSeen = [&](const char *what, std::size_t idx,
                          auto &&slot) {
        for (std::size_t f = 0; f < pairs.size(); ++f) {
            ThreadRegs r1 = base, r2 = base;
            slot(r1) = pairs[f].first;
            slot(r2) = pairs[f].second;
            EXPECT_NE(hashRegs(r1), hashRegs(r2))
                << what << idx << " value " << f;
        }
    };
    expectSeen("pcc", 0, [](ThreadRegs &r) -> Capability & { return r.pcc; });
    expectSeen("ddc", 0, [](ThreadRegs &r) -> Capability & { return r.ddc; });
    for (std::size_t i = 0; i < base.c.size(); ++i)
        expectSeen("c", i,
                   [i](ThreadRegs &r) -> Capability & { return r.c[i]; });
    for (std::size_t i = 0; i < base.x.size(); ++i) {
        ThreadRegs r = base;
        r.x[i] ^= 1;
        EXPECT_NE(hashRegs(r), hashRegs(base)) << "x" << i;
    }
}

TEST(ReplayDigest, StatsDigestSeesEveryCounter)
{
    Kernel kern;
    // The kernel exposes its counters read-only; bump them in place.
    auto &counters = const_cast<KernelCounters &>(kern.counters());
    const u64 before = check::hashStats(kern);
    std::size_t fields = 0;
    auto block = [&](auto &b) {
        forEachField(b, [&](const auto &f, u64 &v) {
            ++fields;
            ++v;
            EXPECT_NE(check::hashStats(kern), before) << f.key;
            --v;
        });
    };
    forEachBlock(block, counters);
    EXPECT_GT(fields, 30u);
    EXPECT_EQ(check::hashStats(kern), before);
}

TEST(ReplayDigest, TopBitFlipsInTwoWordsDoNotCancel)
{
    std::array<u64, 16> words;
    for (std::size_t i = 0; i < words.size(); ++i)
        words[i] = 0x0123456789abcdefULL * (i + 1);
    const u64 before = check::digestWords(words.data(), words.size());
    for (std::size_t i = 0; i < words.size(); ++i) {
        for (std::size_t j = i + 1; j < words.size(); ++j) {
            std::array<u64, 16> w = words;
            w[i] ^= u64{1} << 63;
            w[j] ^= u64{1} << 63;
            EXPECT_NE(check::digestWords(w.data(), w.size()), before)
                << "words " << i << " and " << j;
        }
    }
    // A bare (h ^ v) * odd step is blind to exactly this change.
    auto bare = [](const std::array<u64, 16> &w) {
        u64 h = check::digestSeed;
        for (u64 v : w)
            h = (h ^ v) * 0x9e3779b97f4a7c15ULL;
        return h;
    };
    std::array<u64, 16> w = words;
    w[0] ^= u64{1} << 63;
    w[5] ^= u64{1} << 63;
    EXPECT_EQ(bare(w), bare(words));
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
