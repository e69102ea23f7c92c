/**
 * @file
 * Tests for the unified revocation syscall (revoke2), the cap-dirty
 * epoch sweep scheduler, and the invariant oracle's closed-epoch
 * absence rule.  The allocator-level quarantine behaviour is covered
 * in test_extensions.cc; this file targets the kernel API: flag
 * validation, busy/retry semantics, incremental slicing, the dispatch
 * pump, epoch aborts, fork-shared swap slots, device failures
 * mid-epoch, and the close sweep over every kernel-held root kind.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "check/invariants.h"
#include "libc/revoke.h"
#include "os/sys_invoke.h"
#include "test_util.h"

namespace cheri
{
namespace
{

using test::GuestSystem;

class Revoke2Test : public ::testing::Test
{
  protected:
    GuestSystem sys{Abi::CheriAbi};
    Kernel &kern() { return sys.kern; }
    Process &proc() { return *sys.proc; }
    GuestContext &ctx() { return *sys.ctx; }
    RevokingMalloc heap{*sys.ctx, 1 << 16};

    /** Cap-store into @p n distinct pages of a fresh mapping so the
     *  epoch worklist holds at least n entries; returns the buffer. */
    GuestPtr
    dirtyPages(u64 n)
    {
        GuestPtr buf = ctx().mmap(n * pageSize);
        for (u64 i = 0; i < n; ++i)
            ctx().storePtr(buf, static_cast<s64>(i * pageSize), buf);
        return buf;
    }

    static std::vector<std::pair<u64, u64>>
    rangeOf(const GuestPtr &p)
    {
        return {{p.cap.base(), p.cap.base() + p.cap.length()}};
    }
};

TEST_F(Revoke2Test, FlagValidation)
{
    std::vector<std::pair<u64, u64>> r = {
        {0x7000000000, 0x7000001000}};
    // Exactly one of SYNC/INCREMENTAL must be set.
    EXPECT_EQ(kern().sysRevoke2(proc(), r, 0).error, E_INVAL);
    EXPECT_EQ(kern()
                  .sysRevoke2(proc(), r,
                              REVOKE_SYNC | REVOKE_INCREMENTAL)
                  .error,
              E_INVAL);
    EXPECT_EQ(kern().sysRevoke2(proc(), r, REVOKE_FORCE_FULL).error,
              E_INVAL);
    // Unknown flag bits are rejected, not ignored (versioned ABI).
    EXPECT_EQ(kern().sysRevoke2(proc(), r, REVOKE_SYNC | 0x80).error,
              E_INVAL);
    // Degenerate ranges are rejected before any state changes.
    std::vector<std::pair<u64, u64>> bad = {
        {0x7000001000, 0x7000001000}};
    EXPECT_EQ(kern().sysRevoke2(proc(), bad, REVOKE_SYNC).error,
              E_INVAL);
    EXPECT_EQ(kern().counters().revocation.epochsOpened, 0u);
}

TEST_F(Revoke2Test, EmptyDrainWithNoEpochIsTrivial)
{
    SysResult s = kern().sysRevoke2(proc(), {}, REVOKE_SYNC);
    EXPECT_FALSE(s.failed());
    EXPECT_EQ(s.value, 0u);
    SysResult i = kern().sysRevoke2(proc(), {}, REVOKE_INCREMENTAL);
    EXPECT_FALSE(i.failed());
    EXPECT_EQ(i.value, 0u);
    EXPECT_EQ(kern().counters().revocation.epochsOpened, 0u);
}

TEST_F(Revoke2Test, SecondOpenIsBusyUntilDrained)
{
    GuestPtr buf = dirtyPages(32); // worklist > default slice budget
    auto ranges = rangeOf(buf);
    SysResult res =
        kern().sysRevoke2(proc(), ranges, REVOKE_INCREMENTAL);
    ASSERT_FALSE(res.failed());
    ASSERT_GT(res.value, 0u) << "epoch must still have queued pages";
    // One epoch per process: a second open fails in either mode.
    EXPECT_EQ(
        kern().sysRevoke2(proc(), ranges, REVOKE_INCREMENTAL).error,
        E_BUSY);
    EXPECT_EQ(kern().sysRevoke2(proc(), ranges, REVOKE_SYNC).error,
              E_BUSY);
    // Empty-range SYNC drains the open epoch...
    SysResult drain = kern().sysRevoke2(proc(), {}, REVOKE_SYNC);
    ASSERT_FALSE(drain.failed());
    const RevocationEpoch *ep =
        kern().findRevocationEpoch(proc().pid());
    ASSERT_NE(ep, nullptr);
    EXPECT_FALSE(ep->open);
    // ...after which a fresh open succeeds.
    EXPECT_FALSE(
        kern().sysRevoke2(proc(), ranges, REVOKE_SYNC).failed());
}

TEST(Revoke2SliceTest, IncrementalRespectsPageBudget)
{
    KernelConfig cfg;
    cfg.revokeSliceBudget = 2;
    GuestSystem sys{Abi::CheriAbi, cfg};
    GuestContext &ctx = *sys.ctx;
    GuestPtr buf = ctx.mmap(24 * pageSize);
    for (u64 i = 0; i < 24; ++i)
        ctx.storePtr(buf, static_cast<s64>(i * pageSize), buf);
    std::vector<std::pair<u64, u64>> ranges = {
        {buf.cap.base(), buf.cap.base() + buf.cap.length()}};

    u64 before = sys.kern.counters().revocation.pagesScanned;
    SysResult res =
        sys.kern.sysRevoke2(*sys.proc, ranges, REVOKE_INCREMENTAL);
    ASSERT_FALSE(res.failed());
    u64 after = sys.kern.counters().revocation.pagesScanned;
    EXPECT_LE(after - before, 2u) << "open runs at most one slice";
    u64 slices = 1;
    while (!res.failed() && res.value != 0) {
        before = after;
        res = sys.kern.sysRevoke2(*sys.proc, {}, REVOKE_INCREMENTAL);
        after = sys.kern.counters().revocation.pagesScanned;
        EXPECT_LE(after - before, 2u)
            << "each advance is one bounded slice";
        ASSERT_LT(++slices, 1000u) << "epoch failed to converge";
    }
    ASSERT_FALSE(res.failed());
    EXPECT_GT(slices, 1u);
    // Every planted capability (base inside the buffer) is dead.
    for (u64 i = 0; i < 24; ++i) {
        EXPECT_FALSE(
            ctx.loadPtr(buf, static_cast<s64>(i * pageSize)).cap.tag());
    }
}

TEST_F(Revoke2Test, DispatchPumpDrainsEpochInBackground)
{
    GuestPtr buf = dirtyPages(32);
    SysResult res =
        kern().sysRevoke2(proc(), rangeOf(buf), REVOKE_INCREMENTAL);
    ASSERT_FALSE(res.failed());
    ASSERT_TRUE(kern().findRevocationEpoch(proc().pid())->open);
    // Unrelated syscall traffic: the dispatch pump advances the epoch
    // one slice per dispatch without the guest ever polling.
    for (int i = 0;
         i < 64 && kern().findRevocationEpoch(proc().pid())->open; ++i) {
        ASSERT_FALSE(
            sysInvoke(kern(), proc(), SysNum::Getpid).res.failed());
    }
    EXPECT_FALSE(kern().findRevocationEpoch(proc().pid())->open)
        << "background slices must drain the epoch";
    EXPECT_EQ(kern().counters().revocation.epochsClosed, 1u);
    EXPECT_FALSE(ctx().loadPtr(buf, 0).cap.tag());
}

TEST_F(Revoke2Test, ForkSharedSwapSlotRevoked)
{
    GuestPtr victim = heap.malloc(64);
    GuestPtr table = heap.malloc(4096);
    ctx().storePtr(table, 0, victim);
    // The page holding the stale pointer goes to swap, then fork
    // shares its slot (refcounted) with the child.
    ASSERT_TRUE(proc().as().swapOutPage(pageTrunc(table.addr())));
    Process *child = kern().fork(proc());
    ASSERT_NE(child, nullptr);
    ASSERT_TRUE(heap.free(victim));
    EXPECT_GE(heap.forceSweep(), 1u);
    // Parent swap-in must not resurrect the revoked capability...
    EXPECT_FALSE(ctx().loadPtr(table, 0).cap.tag());
    // ...and the shared slot means the child's view is revoked too:
    // the tag metadata is physical state, swept once.
    GuestContext cctx(kern(), *child);
    EXPECT_FALSE(cctx.loadPtr(table, 0).cap.tag());
    check::Report rep = check::Invariants::check(kern());
    EXPECT_TRUE(rep.ok()) << rep.toString();
}

TEST_F(Revoke2Test, SweepScanFailureLeavesEpochOpenAndRetryable)
{
    GuestPtr victim = heap.malloc(64);
    GuestPtr table = heap.malloc(4096);
    ctx().storePtr(table, 0, victim);
    ASSERT_TRUE(proc().as().swapOutPage(pageTrunc(table.addr())));
    // Every sweep read of swapped tag metadata fails: the sync drive
    // makes no progress on that page and must hand back E_INTR with
    // the epoch still open (quarantined memory stays unreusable).
    kern().faultInjector().failRandomly(FaultPoint::SweepScan, 1, 7);
    SysResult res = kern().sysRevoke2(
        proc(),
        {{victim.cap.base(), victim.cap.base() + victim.cap.length()}},
        REVOKE_SYNC);
    EXPECT_EQ(res.error, E_INTR);
    const RevocationEpoch *ep =
        kern().findRevocationEpoch(proc().pid());
    ASSERT_NE(ep, nullptr);
    EXPECT_TRUE(ep->open);
    EXPECT_EQ(ep->closeSeq, 0u) << "an interrupted epoch proves nothing";
    EXPECT_GE(kern().swapDevice().failedSweepScans(), 1u);
    // The device recovers; the same epoch drains to a sound close.
    kern().faultInjector().disarm(FaultPoint::SweepScan);
    SysResult retry = kern().sysRevoke2(proc(), {}, REVOKE_SYNC);
    ASSERT_FALSE(retry.failed());
    EXPECT_GE(retry.value, 1u);
    EXPECT_FALSE(ctx().loadPtr(table, 0).cap.tag());
}

/**
 * One kernel-held root kind: plant @p cap there, call @p sweep (which
 * drives a SYNC epoch over the victim's range to close), and return
 * what the root holds afterwards.
 */
struct RootRow
{
    const char *root;
    std::function<Capability(GuestSystem &sys, const Capability &cap,
                             const std::function<void()> &sweep)>
        roundTrip;
};

/** A startup slot as a RootRow. */
RootRow
startupRow(const char *name, Capability Process::*slot)
{
    return {name, [slot](GuestSystem &sys, const Capability &cap,
                         const std::function<void()> &sweep) {
                sys.proc->*slot = cap;
                sweep();
                return sys.proc->*slot;
            }};
}

TEST_F(Revoke2Test, ClosedEpochSweepsEveryRootKind)
{
    /** A spawned, never-run thread: its record is switched out. */
    auto newThread = [](GuestSystem &sys) {
        SysResult t = sys.kern.sysThrNew(*sys.proc);
        EXPECT_FALSE(t.failed());
        return sys.proc->threadById(t.value);
    };
    const RootRow rows[] = {
        {"current regs",
         [](GuestSystem &sys, const Capability &cap, const auto &sweep) {
             sys.proc->regs().c[9] = cap;
             sweep();
             return sys.proc->regs().c[9];
         }},
        // Switching to a new thread spills the main thread's register
        // file into its ThreadRecord; switching back restores it.
        {"thread saved regs",
         [&](GuestSystem &sys, const Capability &cap, const auto &sweep) {
             Process &p = *sys.proc;
             u64 tid = newThread(sys)->tid;
             p.regs().c[9] = cap;
             EXPECT_EQ(sys.kern.sysThrSwitch(p, tid).error, E_OK);
             p.regs().c[9] = Capability();
             sweep();
             EXPECT_EQ(sys.kern.sysThrSwitch(p, 0).error, E_OK);
             return p.regs().c[9];
         }},
        {"thread stackCap",
         [&](GuestSystem &sys, const Capability &cap, const auto &sweep) {
             ThreadRecord *t = newThread(sys);
             t->stackCap = cap;
             sweep();
             return t->stackCap;
         }},
        startupRow("stackCap", &Process::stackCap),
        startupRow("argvCap", &Process::argvCap),
        startupRow("envvCap", &Process::envvCap),
        startupRow("auxvCap", &Process::auxvCap),
        startupRow("trampolineCap", &Process::trampolineCap),
        // While a handler runs, the interrupted context lives in the
        // kernel's copy of the signal frame.
        {"live sigframe",
         [](GuestSystem &sys, const Capability &cap, const auto &sweep) {
             Process &p = *sys.proc;
             Capability out;
             u64 hid = p.registerHandler([&](Process &, SigFrame &f) {
                 f.saved.c[9] = cap;
                 sweep();
                 out = f.saved.c[9];
                 f.saved.c[9] = Capability();
             });
             sys.kern.sysSigaction(p, SIG_USR1,
                                   {SigAction::Kind::Handler, hid});
             EXPECT_EQ(sys.kern.sysKill(p, p.pid(), SIG_USR1).error, E_OK);
             EXPECT_EQ(sys.kern.deliverSignals(p), 1u);
             return out;
         }},
        {"kevent udata",
         [](GuestSystem &sys, const Capability &cap, const auto &sweep) {
             KEvent reg;
             reg.filter = KFilter::User;
             reg.udata = cap;
             EXPECT_EQ(sys.kern.sysKevent(*sys.proc, {reg}, nullptr, 0)
                           .error,
                       E_OK);
             sweep();
             std::vector<KEvent> events;
             EXPECT_EQ(
                 sys.kern.sysKevent(*sys.proc, {}, &events, 1).error, E_OK);
             return events.empty() ? Capability() : events[0].udata;
         }},
    };
    for (const RootRow &row : rows) {
        SCOPED_TRACE(row.root);
        GuestSystem sys{Abi::CheriAbi};
        GuestPtr victim = sys.ctx->mmap(pageSize);
        GuestPtr keeper = sys.ctx->mmap(pageSize);
        auto sweep = [&] {
            SysResult r =
                sys.kern.sysRevoke2(*sys.proc, rangeOf(victim), REVOKE_SYNC);
            EXPECT_FALSE(r.failed());
            const RevocationEpoch *ep =
                sys.kern.findRevocationEpoch(sys.proc->pid());
            ASSERT_NE(ep, nullptr);
            EXPECT_FALSE(ep->open);
        };
        EXPECT_FALSE(row.roundTrip(sys, victim.cap, sweep).tag())
            << "a closed epoch must clear a revoked capability here";
        EXPECT_EQ(row.roundTrip(sys, keeper.cap, sweep), keeper.cap)
            << "a capability outside the revoked range must survive";
    }
}

TEST_F(Revoke2Test, ExecveAbortsOpenEpoch)
{
    GuestPtr buf = dirtyPages(32);
    ASSERT_FALSE(
        kern()
            .sysRevoke2(proc(), rangeOf(buf), REVOKE_INCREMENTAL)
            .failed());
    ASSERT_TRUE(kern().findRevocationEpoch(proc().pid())->open);
    u64 aborted = kern().counters().revocation.epochsAborted;
    ASSERT_EQ(kern().execve(proc(), sys.prog, {"again"}, {}), E_OK);
    EXPECT_EQ(kern().counters().revocation.epochsAborted, aborted + 1);
    const RevocationEpoch *ep =
        kern().findRevocationEpoch(proc().pid());
    ASSERT_NE(ep, nullptr);
    EXPECT_FALSE(ep->open);
    EXPECT_EQ(ep->closeSeq, 0u)
        << "an aborted epoch must never read as closed";
    check::Report rep = check::Invariants::check(kern());
    EXPECT_TRUE(rep.ok()) << rep.toString();
}

TEST_F(Revoke2Test, ExitAbortsOpenEpoch)
{
    GuestPtr buf = dirtyPages(32);
    ASSERT_FALSE(
        kern()
            .sysRevoke2(proc(), rangeOf(buf), REVOKE_INCREMENTAL)
            .failed());
    u64 aborted = kern().counters().revocation.epochsAborted;
    kern().exitProcess(proc(), 0);
    EXPECT_EQ(kern().counters().revocation.epochsAborted, aborted + 1);
}

TEST_F(Revoke2Test, OracleChecksClosedEpochAbsence)
{
    GuestPtr victim = heap.malloc(64);
    GuestPtr table = heap.malloc(32);
    ctx().storePtr(table, 0, victim);
    GuestPtr stash = ctx().mmap(2 * pageSize);
    // Issue revoke2 through dispatch: closeSeq lands on the oracle's
    // quiescent-point clock either way (the close is its own tick).
    GuestPtr rbuf = ctx().mmap(pageSize);
    ctx().store<u64>(rbuf, 0, victim.cap.base());
    ctx().store<u64>(rbuf, 8,
                     victim.cap.base() + victim.cap.length());
    auto rr = sysInvoke(kern(), proc(), SysNum::Revoke2,
                        {SysArg::p(UserPtr::fromCap(rbuf.cap)),
                         SysArg::i(1), SysArg::i(REVOKE_SYNC)});
    ASSERT_FALSE(rr.res.failed());
    EXPECT_GE(rr.res.value, 1u);
    const RevocationEpoch *ep =
        kern().findRevocationEpoch(proc().pid());
    ASSERT_NE(ep, nullptr);
    ASSERT_FALSE(ep->open);
    ASSERT_EQ(ep->closeSeq, kern().quiescentCount());
    // A sound close: the oracle's absence rule stays silent.
    check::Report ok = check::Invariants::check(kern());
    EXPECT_TRUE(ok.ok()) << ok.toString();
    // Resurrect the stale capability into a register, a resident
    // granule and a swapped-out page: the rule fires for each, memory
    // first, then swap, then registers.
    proc().regs().c[9] = victim.cap;
    ASSERT_FALSE(proc().as().writeCap(stash.addr(), victim.cap));
    ASSERT_FALSE(proc().as().writeCap(stash.addr() + pageSize, victim.cap));
    ASSERT_TRUE(proc().as().swapOutPage(stash.addr() + pageSize));
    ASSERT_EQ(ep->closeSeq, kern().quiescentCount());
    check::Report bad = check::Invariants::check(kern());
    std::vector<std::string> where;
    for (const check::Violation &v : bad.violations) {
        if (v.rule == "revoked-cap-survives")
            where.push_back(v.detail.substr(0, v.detail.find(':')));
    }
    auto at = [&](const char *kind, u64 va) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "pid %llu %s @0x%llx",
                      static_cast<unsigned long long>(proc().pid()), kind,
                      static_cast<unsigned long long>(va));
        return std::string(buf);
    };
    EXPECT_EQ(where, (std::vector<std::string>{
                         at("mem", stash.addr()),
                         at("swap", stash.addr() + pageSize),
                         at("regs c9", victim.cap.address())}))
        << bad.toString();
}

/** Epoch id of the last sweep that scanned the page holding @p va
 *  (0 when the page has never been scanned). */
u64
sweptEpochOf(Process &proc, u64 va)
{
    u64 swept = 0;
    proc.as().forEachPte([&](const AddressSpace::PteView &v) {
        if (v.va == pageTrunc(va))
            swept = v.sweptEpoch;
    });
    return swept;
}

TEST(Revoke2TlbTest, MidEpochStoreToScannedPageIsRequeued)
{
    KernelConfig cfg;
    cfg.revokeSliceBudget = 1;
    GuestSystem sys{Abi::CheriAbi, cfg};
    Kernel &kern = sys.kern;
    Process &proc = *sys.proc;
    GuestContext &ctx = *sys.ctx;

    // Sequential placement: bufA < bufB < tail, so tail's 32 dirty
    // pages keep the epoch open well past bufA's scan.
    GuestPtr bufA = ctx.mmap(pageSize);
    GuestPtr bufB = ctx.mmap(pageSize);
    GuestPtr tail = ctx.mmap(32 * pageSize);
    // Two stores: the second one caches cap-store permission for
    // bufA's (now cap-dirty) page in the data TLB.
    ctx.storePtr(bufA, 0, bufA);
    ctx.storePtr(bufA, 16, bufA);
    for (u64 i = 0; i < 32; ++i)
        ctx.storePtr(tail, static_cast<s64>(i * pageSize), tail);

    std::vector<std::pair<u64, u64>> ranges = {
        {bufB.cap.base(), bufB.cap.base() + bufB.cap.length()}};
    ASSERT_FALSE(
        kern.sysRevoke2(proc, ranges, REVOKE_INCREMENTAL).failed());
    const RevocationEpoch *ep = kern.findRevocationEpoch(proc.pid());
    ASSERT_NE(ep, nullptr);
    // Advance one page per slice until bufA's page has been scanned
    // with the epoch still open: the dangerous window, since bufA
    // stays cap-dirty (it holds a non-revoked keeper capability).
    int spins = 0;
    while (ep->open && sweptEpochOf(proc, bufA.addr()) != ep->id) {
        ASSERT_FALSE(
            kern.sysRevoke2(proc, {}, REVOKE_INCREMENTAL).failed());
        ASSERT_LT(++spins, 500) << "bufA never scanned";
    }
    ASSERT_TRUE(ep->open) << "tail pages must keep the epoch open";
    // A capability into the revoked range lands on the already-swept
    // page.  A stale fast-path TLB entry would let this store dodge
    // the scheduler entirely; the epoch must still catch it.
    ctx.storePtr(bufA, 16, bufB);
    ASSERT_FALSE(kern.sysRevoke2(proc, {}, REVOKE_SYNC).failed());
    EXPECT_FALSE(ep->open);
    EXPECT_FALSE(ctx.loadPtr(bufA, 16).cap.tag())
        << "mid-epoch store must be re-queued and swept";
    EXPECT_TRUE(ctx.loadPtr(bufA, 0).cap.tag())
        << "non-revoked keeper must survive";
    check::Report rep = check::Invariants::check(kern);
    EXPECT_TRUE(rep.ok()) << rep.toString();
}

TEST_F(Revoke2Test, ShmFrameAttachedMidEpochIsSwept)
{
    SysResult id = kern().sysShmget(proc(), 42, pageSize);
    ASSERT_EQ(id.error, E_OK);
    UserPtr first;
    ASSERT_EQ(kern()
                  .sysShmat(proc(), static_cast<int>(id.value),
                            UserPtr::null(), &first)
                  .error,
              E_OK);
    GuestPtr victim = ctx().mmap(pageSize);
    ctx().storePtr(GuestPtr(first.cap), 0, victim);
    ASSERT_EQ(kern().sysShmdt(proc(), first).error, E_OK);
    // The cap-bearing frame now lives only in the SysV segment; open
    // an epoch with enough queued pages that it outlasts one slice.
    dirtyPages(32);
    ASSERT_FALSE(
        kern()
            .sysRevoke2(proc(), rangeOf(victim), REVOKE_INCREMENTAL)
            .failed());
    ASSERT_TRUE(kern().findRevocationEpoch(proc().pid())->open);
    // Re-attach mid-epoch: the mapping did not exist when the
    // worklist was built, so installFrame must queue it itself.
    UserPtr again;
    ASSERT_EQ(kern()
                  .sysShmat(proc(), static_cast<int>(id.value),
                            UserPtr::null(), &again)
                  .error,
              E_OK);
    ASSERT_FALSE(kern().sysRevoke2(proc(), {}, REVOKE_SYNC).failed());
    EXPECT_FALSE(ctx().loadPtr(GuestPtr(again.cap), 0).cap.tag())
        << "frame attached mid-epoch must be swept before close";
    check::Report rep = check::Invariants::check(kern());
    EXPECT_TRUE(rep.ok()) << rep.toString();
}

TEST(Revoke2SharedTest, SiblingStoreCaughtAtCloseBarrier)
{
    KernelConfig cfg;
    cfg.revokeSliceBudget = 1;
    GuestSystem sys{Abi::CheriAbi, cfg};
    Kernel &kern = sys.kern;
    Process &pa = *sys.proc;
    GuestContext &actx = *sys.ctx;

    SysResult id = kern.sysShmget(pa, 9, pageSize);
    ASSERT_EQ(id.error, E_OK);
    UserPtr a_ptr;
    ASSERT_EQ(kern
                  .sysShmat(pa, static_cast<int>(id.value),
                            UserPtr::null(), &a_ptr)
                  .error,
              E_OK);
    // A sibling maps the same segment through its own page table.
    Process *pb = kern.spawn(Abi::CheriAbi, "peer");
    SelfObject prog = test::trivialProgram();
    ASSERT_EQ(kern.execve(*pb, prog, {"peer"}, {}), E_OK);
    UserPtr b_ptr;
    ASSERT_EQ(kern
                  .sysShmat(*pb, static_cast<int>(id.value),
                            UserPtr::null(), &b_ptr)
                  .error,
              E_OK);
    GuestContext bctx(kern, *pb);
    GuestPtr victim = bctx.mmap(pageSize);

    // Dirty pages above the shared mapping keep the epoch open after
    // the shared page's scan.
    GuestPtr tail = actx.mmap(32 * pageSize);
    for (u64 i = 0; i < 32; ++i)
        actx.storePtr(tail, static_cast<s64>(i * pageSize), tail);

    std::vector<std::pair<u64, u64>> ranges = {
        {victim.cap.base(),
         victim.cap.base() + victim.cap.length()}};
    ASSERT_FALSE(
        kern.sysRevoke2(pa, ranges, REVOKE_INCREMENTAL).failed());
    const RevocationEpoch *ep = kern.findRevocationEpoch(pa.pid());
    ASSERT_NE(ep, nullptr);
    int spins = 0;
    while (ep->open && sweptEpochOf(pa, a_ptr.addr()) != ep->id) {
        ASSERT_FALSE(
            kern.sysRevoke2(pa, {}, REVOKE_INCREMENTAL).failed());
        ASSERT_LT(++spins, 500) << "shared page never scanned";
    }
    ASSERT_TRUE(ep->open);
    // The sibling plants a to-be-revoked capability in the shared
    // frame through its own mapping: invisible to the revoking
    // process's page tables, but physical all the same.  Only the
    // close-barrier rescan of shared pages can catch it.
    bctx.storePtr(GuestPtr(b_ptr.cap), 0, victim);
    ASSERT_FALSE(kern.sysRevoke2(pa, {}, REVOKE_SYNC).failed());
    ASSERT_FALSE(ep->open);
    EXPECT_FALSE(actx.loadPtr(GuestPtr(a_ptr.cap), 0).cap.tag())
        << "close barrier must rescan shared pages";
    EXPECT_FALSE(bctx.loadPtr(GuestPtr(b_ptr.cap), 0).cap.tag())
        << "tags are physical: the sibling's view is revoked too";
    check::Report rep = check::Invariants::check(kern);
    EXPECT_TRUE(rep.ok()) << rep.toString();
}

TEST_F(Revoke2Test, NestedAndOverlappingRangesFullyRevoked)
{
    GuestPtr buf = ctx().mmap(pageSize);
    // A capability inside the outer range but outside the nested one:
    // a predecessor-only membership test over un-merged ranges would
    // land on the nested range and miss it.
    auto inner =
        buf.cap.setAddress(buf.addr() + 0x300).setBounds(16);
    ASSERT_TRUE(inner.ok());
    ctx().storePtr(buf, 0, GuestPtr(inner.value()));
    ASSERT_TRUE(ctx().loadPtr(buf, 0).cap.tag());
    u64 b = buf.cap.base();
    std::vector<std::pair<u64, u64>> ranges = {
        {b + 0x100, b + 0x200}, {b, b + 0x1000}};
    ASSERT_FALSE(kern().sysRevoke2(proc(), ranges, REVOKE_SYNC).failed());
    EXPECT_FALSE(ctx().loadPtr(buf, 0).cap.tag())
        << "overlapping ranges must be coalesced before the sweep";
    check::Report rep = check::Invariants::check(kern());
    EXPECT_TRUE(rep.ok()) << rep.toString();
}

TEST_F(Revoke2Test, QuiescentClockAdvancesOnDirectSyscalls)
{
    GuestPtr victim = heap.malloc(64);
    GuestPtr table = heap.malloc(32);
    ctx().storePtr(table, 0, victim);
    ASSERT_TRUE(heap.free(victim));
    // The allocator drives revoke2 directly, never through dispatch.
    ASSERT_GE(heap.forceSweep(), 1u);
    const RevocationEpoch *ep =
        kern().findRevocationEpoch(proc().pid());
    ASSERT_NE(ep, nullptr);
    ASSERT_FALSE(ep->open);
    // The direct-path close is its own quiescent tick...
    EXPECT_EQ(ep->closeSeq, kern().quiescentCount());
    // ...and any later syscall entry — direct, not just dispatched —
    // moves the clock past it.
    ASSERT_FALSE(kern().sysGetpid(proc()).failed());
    EXPECT_NE(ep->closeSeq, kern().quiescentCount());
    // The guest may now legitimately re-derive into the reclaimed
    // range; a clock stuck on the close would misread this as a
    // revocation violation.
    proc().regs().c[9] = victim.cap;
    check::Report rep = check::Invariants::check(kern());
    for (const check::Violation &v : rep.violations)
        EXPECT_NE(v.rule, "revoked-cap-survives") << rep.toString();
    proc().regs().c[9] = Capability();
}

TEST_F(Revoke2Test, GuestMarshallingRejectsOversizedRangeSet)
{
    GuestPtr rbuf = ctx().mmap(pageSize);
    auto rr = sysInvoke(kern(), proc(), SysNum::Revoke2,
                        {SysArg::p(UserPtr::fromCap(rbuf.cap)),
                         SysArg::i(100000), SysArg::i(REVOKE_SYNC)});
    EXPECT_EQ(rr.res.error, E_INVAL);
}

} // namespace
} // namespace cheri
