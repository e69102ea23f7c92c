/**
 * @file
 * ctest wrapper around the differential ABI fuzzer and its invariant
 * oracle (src/check).  The fixed seed corpus keeps a small slice of the
 * fuzzer's search space in every CI run; CHERI_TEST_FUZZ_SEEDS widens
 * or pins it without a rebuild.  The oracle tests prove the checker is
 * not vacuous: a deliberately planted slot-refcount corruption, a
 * hand-built slot leak and out-of-root capabilities in kernel-held
 * roots must all be reported, with seed-reproducible output for the
 * fuzzer-driven one.
 */

#include <gtest/gtest.h>

#include "check/diff_fuzzer.h"
#include "check/invariants.h"
#include "check/strfmt.h"
#include "obs/metrics.h"
#include "rng_util.h"
#include "test_util.h"

namespace cheri
{
namespace
{

using test::GuestSystem;

// --- differential corpus -------------------------------------------------

class DiffFuzz : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(DiffFuzz, SeededCorpusAgreesAcrossAbisWithCleanOracle)
{
    CHERI_TRACE_SEED(GetParam(), "CHERI_TEST_FUZZ_SEEDS");
    check::FuzzOptions opts;
    opts.seed = GetParam();
    opts.cases = 6;
    opts.opsPerCase = 24;
    opts.checkEvery = 1;
    obs::Metrics m;
    check::DiffFuzzer fuzzer(opts);
    fuzzer.setMetrics(&m);
    check::FuzzReport rep = fuzzer.run();
    EXPECT_TRUE(rep.ok()) << rep.summary();
    EXPECT_EQ(rep.casesRun, opts.cases);
    EXPECT_GT(rep.syscalls, 0u);
    EXPECT_GT(rep.oracleRuns, 0u) << "the oracle must actually run";
    EXPECT_EQ(m.check().fuzzCases, opts.cases);
    EXPECT_EQ(m.check().fuzzDivergences, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, DiffFuzz,
    ::testing::ValuesIn(test::seedsFromEnv("CHERI_TEST_FUZZ_SEEDS", 3)));

TEST(StrFmt, LongLineKeptWhole)
{
    // A compute-event divergence line with two long register dumps.
    std::string mips(600, 'm'), cheri(600, 'c');
    std::string line = check::fmt("event %d: mips64 '%s' vs cheriabi '%s'",
                                  7, mips.c_str(), cheri.c_str());
    EXPECT_EQ(line,
              "event 7: mips64 '" + mips + "' vs cheriabi '" + cheri + "'");
    EXPECT_GT(line.size(), 1000u);
    EXPECT_EQ(check::fmt("%s", ""), "");
}

// Fault-injected runs skip the differential comparison by design (the
// two ABIs hit periodic schedules at different points), but the kernel
// invariants must hold on every injected path.
TEST(DiffFuzzInject, InjectedRunsKeepInvariantsClean)
{
    check::FuzzOptions opts;
    opts.seed = 1;
    opts.cases = 6;
    opts.opsPerCase = 24;
    opts.checkEvery = 1;
    opts.inject = true;
    check::FuzzReport rep = check::DiffFuzzer(opts).run();
    EXPECT_EQ(rep.violationCount, 0u) << rep.summary();
    EXPECT_TRUE(rep.ok()) << rep.summary();
}

// --- the oracle is not vacuous -------------------------------------------

TEST(DiffFuzzOracle, PlantedSlotRefcountBugIsCaughtAndReproducible)
{
    check::FuzzOptions opts;
    opts.seed = 1;
    opts.cases = 3;
    opts.opsPerCase = 24;
    opts.checkEvery = 1;
    opts.plantSlotBug = true;
    check::FuzzReport rep = check::DiffFuzzer(opts).run();
    EXPECT_FALSE(rep.ok());
    EXPECT_GT(rep.violationCount, 0u);
    bool slot_rule = false;
    for (const check::CaseReport &c : rep.failures)
        for (const check::Violation &v : c.violations)
            slot_rule |= v.rule == "slot-refcount";
    EXPECT_TRUE(slot_rule)
        << "the corruption must be attributed to the slot-refcount "
           "rule:\n"
        << rep.summary();
    EXPECT_NE(rep.summary().find("reproduce: abi_fuzz --seed 1"),
              std::string::npos)
        << "failures must carry a reproduction command";
}

TEST(DiffFuzzOracle, CleanBootedSystemPassesAndRecordsTelemetry)
{
    GuestSystem sys(Abi::CheriAbi);
    obs::Metrics m;
    sys.kern.setMetrics(&m);
    check::Report rep = check::Invariants::check(sys.kern);
    EXPECT_TRUE(rep.ok()) << rep.toString();
    EXPECT_GE(rep.processes, 1u);
    EXPECT_GT(rep.capsChecked, 0u);
    EXPECT_GT(rep.pagesChecked, 0u);
    EXPECT_EQ(m.check().oracleRuns, 1u);
    EXPECT_EQ(m.check().oracleViolations, 0u);
    std::string json = m.toJson();
    EXPECT_NE(json.find("cheri.metrics.v9"), std::string::npos);
    EXPECT_NE(json.find("\"oracle_runs\":1"), std::string::npos);
    sys.kern.setMetrics(nullptr);
}

TEST(DiffFuzzOracle, HandPlantedExtraSlotRefIsReported)
{
    GuestSystem sys(Abi::CheriAbi);
    GuestContext &ctx = *sys.ctx;
    GuestPtr buf = ctx.mmap(pageSize);
    ctx.store<u64>(buf, 0, 1);
    ASSERT_TRUE(
        sys.proc->as().swapOutPage(buf.addr() & ~(pageSize - 1)));
    // Corrupt the accounting below the syscall layer: one extra device
    // reference no PTE will ever drop.
    u64 slot = ~u64{0};
    sys.kern.swapDevice().forEachSlot(
        [&](u64 id, u64) { slot = std::min(slot, id); });
    ASSERT_NE(slot, ~u64{0});
    sys.kern.swapDevice().retain(slot);

    check::Report rep = check::Invariants::check(sys.kern);
    EXPECT_FALSE(rep.ok());
    bool found = false;
    for (const check::Violation &v : rep.violations)
        found |= v.rule == "slot-refcount";
    EXPECT_TRUE(found) << rep.toString();
    // Clean up so teardown's slot accounting stays balanced.
    sys.kern.swapDevice().discard(slot);
}

TEST(DiffFuzzOracle, MappingPlantedInZombieIsReported)
{
    GuestSystem sys(Abi::CheriAbi);
    Process *child = sys.kern.fork(*sys.proc);
    ASSERT_NE(child, nullptr);
    sys.kern.exitProcess(*child, 0);
    check::Report clean = check::Invariants::check(sys.kern);
    EXPECT_TRUE(clean.ok()) << clean.toString();

    // Memory mapped below the syscall layer after the teardown ran:
    // a dead process that holds something.
    ASSERT_NE(child->as().map(0, pageSize, PROT_READ | PROT_WRITE,
                              MappingKind::Data),
              0u);
    check::Report rep = check::Invariants::check(sys.kern);
    ASSERT_EQ(rep.violations.size(), 1u) << rep.toString();
    EXPECT_EQ(rep.violations[0].rule, "dead-process-holds");
    EXPECT_EQ(rep.violations[0].detail,
              "pid " + std::to_string(child->pid()) +
                  " exited but holds 1 mappings, 0 swap slots, "
                  "0 descriptors");
}

// The oracle builds each diagnostic only when it records a violation.
// Pin the whole rendering — rule names, detail text and order — for
// planted faults in a switched-out thread's register file, a startup
// slot, a memory granule and the swap accounting.
TEST(DiffFuzzOracle, ReportTextIsPinned)
{
    GuestSystem sys(Abi::CheriAbi);
    GuestContext &ctx = *sys.ctx;
    Process &proc = *sys.proc;
    AddressSpace &as = proc.as();
    // A data capability above userTop: tagged and representable, but
    // outside every process's rederivation root.
    Capability rogue = Capability::root()
                           .setAddress(AddressSpace::userTop * 2)
                           .setBounds(0x100)
                           .value()
                           .andPerms(PERM_GLOBAL | PERM_LOAD | PERM_STORE)
                           .value();
    ASSERT_GT(rogue.top(), as.rederivationRoot().top());

    SysResult tid = sys.kern.sysThrNew(proc);
    ASSERT_FALSE(tid.failed());
    ThreadRecord *thread = proc.threadById(tid.value);
    ASSERT_NE(thread, nullptr);
    thread->saved.c[5] = rogue;
    proc.argvCap = rogue;

    GuestPtr buf = ctx.mmap(2 * pageSize);
    ctx.store<u64>(buf, pageSize, 1);
    ASSERT_FALSE(as.writeCap(buf.addr() + 0x20, rogue));
    ASSERT_TRUE(as.swapOutPage(buf.addr() + pageSize));
    u64 slot = ~u64{0};
    sys.kern.swapDevice().forEachSlot(
        [&](u64 id, u64) { slot = std::min(slot, id); });
    ASSERT_NE(slot, ~u64{0});
    sys.kern.swapDevice().retain(slot);

    check::Report rep = check::Invariants::check(sys.kern);
    // Clean up so teardown's slot accounting stays balanced.
    sys.kern.swapDevice().discard(slot);
    ASSERT_EQ(proc.pid(), 1u);
    ASSERT_EQ(tid.value, 1u);
    ASSERT_EQ(buf.addr(), 0x40105000u);
    ASSERT_EQ(slot, 0u);
    EXPECT_EQ(rep.toString(),
              "cap-containment: pid 1 tid 1 c5: cap[t 0x20000000000-"
              "0x20000000100 @0x20000000000 Grw-------] outside root "
              "cap[t 0x0-0x10000000000 @0x10000 GrwxRWLsu-+vmmap]\n"
              "cap-containment: pid 1 argvCap: cap[t 0x20000000000-"
              "0x20000000100 @0x20000000000 Grw-------] outside root "
              "cap[t 0x0-0x10000000000 @0x10000 GrwxRWLsu-+vmmap]\n"
              "cap-containment: pid 1 mem @0x40105020: cap[t "
              "0x20000000000-0x20000000100 @0x20000000000 Grw-------] "
              "outside root\n"
              "slot-refcount: slot 0: device refcount 2 but 1 PTEs "
              "reference it\n");
    EXPECT_EQ(rep.violations.size(), 4u);
}

// Rules 1-2 walk the same kernel-held roots as the revocation sweep,
// including kevent udata and the interrupted context of a live signal
// frame, which is checked from inside the handler while it is live.
TEST(DiffFuzzOracle, KeventUdataAndLiveSigframeAreContained)
{
    GuestSystem sys(Abi::CheriAbi);
    Process &proc = *sys.proc;
    Capability rogue = Capability::root()
                           .setAddress(AddressSpace::userTop * 2)
                           .setBounds(0x100)
                           .value()
                           .andPerms(PERM_GLOBAL | PERM_LOAD | PERM_STORE)
                           .value();
    ASSERT_GT(rogue.top(), proc.as().rederivationRoot().top());
    auto expectContainment = [&](const check::Report &rep,
                                 const std::string &site) {
        ASSERT_EQ(rep.violations.size(), 1u) << rep.toString();
        EXPECT_EQ(rep.violations[0].rule, "cap-containment");
        const std::string prefix =
            "pid " + std::to_string(proc.pid()) + " " + site + ": ";
        EXPECT_EQ(rep.violations[0].detail.substr(0, prefix.size()), prefix)
            << rep.toString();
    };
    check::Report clean = check::Invariants::check(sys.kern);
    ASSERT_TRUE(clean.ok()) << clean.toString();

    KEvent reg;
    reg.filter = KFilter::User;
    reg.udata = rogue;
    ASSERT_EQ(sys.kern.sysKevent(proc, {reg}, nullptr, 0).error, E_OK);
    expectContainment(check::Invariants::check(sys.kern), "kevent-udata 0");
    reg.udata = Capability();
    ASSERT_EQ(sys.kern.sysKevent(proc, {reg}, nullptr, 0).error, E_OK);

    check::Report inHandler;
    u64 hid = proc.registerHandler([&](Process &, SigFrame &frame) {
        frame.saved.c[5] = rogue;
        inHandler = check::Invariants::check(sys.kern);
        frame.saved.c[5] = Capability();
    });
    sys.kern.sysSigaction(proc, SIG_USR1, {SigAction::Kind::Handler, hid});
    ASSERT_EQ(sys.kern.sysKill(proc, proc.pid(), SIG_USR1).error, E_OK);
    ASSERT_EQ(sys.kern.deliverSignals(proc), 1u);
    expectContainment(inHandler, "sigframe 0 c5");
}

} // namespace
} // namespace cheri
