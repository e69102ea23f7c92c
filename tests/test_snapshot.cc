/**
 * @file
 * Checkpoint/restore tests: round-trip fidelity under the full
 * invariant oracle, tag-exact capability register files, restore in
 * the middle of an open revocation epoch, swapped-out pages and
 * fork-shared swap slots, clean rejection of truncated/corrupt
 * images, the kernelReady wake-edge guard, and the select-deadline
 * regression (a parked select's timeout must fire exactly once on
 * the restored side).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "check/invariants.h"
#include "isa/assembler.h"
#include "isa/interp.h"
#include "obs/metrics.h"
#include "os/kernel.h"
#include "os/sched/sched.h"
#include "os/snapshot/snapshot.h"
#include "test_util.h"

namespace cheri
{
namespace
{

using test::GuestSystem;

/** Restored state must satisfy every invariant the live kernel does. */
void
expectOracleClean(Kernel &kern)
{
    check::Report rep = check::Invariants::check(kern);
    EXPECT_TRUE(rep.violations.empty())
        << rep.violations.front().rule << ": "
        << rep.violations.front().detail;
}

/** A restored kernel must be able to boot fresh work. */
void
expectUsable(Kernel &kern)
{
    Process *p = kern.spawn(Abi::CheriAbi, "probe");
    ASSERT_NE(p, nullptr);
    SelfObject prog = test::trivialProgram();
    EXPECT_EQ(kern.execve(*p, prog, {"probe"}, {}), E_OK);
}

TEST(SnapshotTest, RoundTripIsByteStableAndPassesOracle)
{
    GuestSystem sys{Abi::CheriAbi};
    // Give the image something to carry: touched anon pages, a second
    // process via fork, and a swapped-out page.
    GuestPtr buf = sys.ctx->mmap(4 * pageSize);
    for (u64 pg = 0; pg < 4; ++pg)
        sys.ctx->store<u64>(buf, pg * pageSize, 0x1111 * (pg + 1));
    // Swap out before forking: the slot becomes fork-shared, and COW
    // pages are not individually evictable afterwards.
    ASSERT_TRUE(sys.proc->as().swapOutPage(buf.addr()));
    Process *child = sys.kern.fork(*sys.proc);
    ASSERT_NE(child, nullptr);

    std::string err;
    std::vector<u8> img = snap::save(sys.kern, &err);
    ASSERT_FALSE(img.empty()) << err;

    Kernel kern2;
    ASSERT_TRUE(snap::restore(kern2, img, &err)) << err;
    expectOracleClean(kern2);
    EXPECT_NE(kern2.findProcess(sys.proc->pid()), nullptr);
    EXPECT_NE(kern2.findProcess(child->pid()), nullptr);

    // Strongest fidelity check there is: the restored kernel
    // serializes to the byte-identical image.
    std::vector<u8> img2 = snap::save(kern2, &err);
    EXPECT_EQ(img, img2);

    // The restored COW child still reads the parent's pre-fork bytes
    // (page 1 stayed resident, page 0 comes back from swap).
    Process *c2 = kern2.findProcess(child->pid());
    ASSERT_NE(c2, nullptr);
    u64 v = 0;
    ASSERT_FALSE(c2->as().readBytes(buf.addr() + pageSize, &v, 8));
    EXPECT_EQ(v, 0x2222u);
    ASSERT_FALSE(c2->as().readBytes(buf.addr(), &v, 8));
    EXPECT_EQ(v, 0x1111u);
}

TEST(SnapshotTest, CapabilityRegisterFileRestoredTagExact)
{
    GuestSystem sys{Abi::CheriAbi};
    GuestPtr buf = sys.ctx->mmap(pageSize);
    ThreadRegs &regs = sys.proc->regs();
    // A live tagged capability with real bounds ...
    regs.c[10] = sys.proc->as()
                     .capForRange(buf.addr(), pageSize,
                                  PROT_READ | PROT_WRITE, false)
                     .setAddress(buf.addr() + 32);
    ASSERT_TRUE(regs.c[10].tag());
    // ... an untagged pattern that must stay untagged ...
    regs.c[11] = Capability::fromAddress(0xdead1234);
    ASSERT_FALSE(regs.c[11].tag());
    // ... and a cleared-tag copy of a real capability.
    regs.c[12] = regs.c[10].withoutTag();
    regs.x[13] = 0x5151;

    std::string err;
    std::vector<u8> img = snap::save(sys.kern, &err);
    ASSERT_FALSE(img.empty()) << err;
    Kernel kern2;
    ASSERT_TRUE(snap::restore(kern2, img, &err)) << err;

    Process *p2 = kern2.findProcess(sys.proc->pid());
    ASSERT_NE(p2, nullptr);
    const ThreadRegs &r2 = p2->regs();
    for (int i = 0; i < 32; ++i) {
        SCOPED_TRACE(i);
        EXPECT_EQ(r2.c[i].tag(), regs.c[i].tag());
        EXPECT_EQ(r2.c[i].base(), regs.c[i].base());
        EXPECT_EQ(r2.c[i].top(), regs.c[i].top());
        EXPECT_EQ(r2.c[i].address(), regs.c[i].address());
        EXPECT_EQ(r2.c[i].perms(), regs.c[i].perms());
        EXPECT_EQ(r2.c[i].otype(), regs.c[i].otype());
        EXPECT_EQ(r2.x[i], regs.x[i]);
    }
    EXPECT_TRUE(r2.c[10].tag());
    EXPECT_FALSE(r2.c[11].tag());
    EXPECT_FALSE(r2.c[12].tag());
    EXPECT_EQ(r2.pcc.tag(), regs.pcc.tag());
    EXPECT_EQ(r2.ddc.tag(), regs.ddc.tag());
}

TEST(SnapshotTest, RestoreMidOpenRevocationEpochThenDrain)
{
    GuestSystem sys{Abi::CheriAbi};
    // 16 cap-dirty pages: more worklist than one incremental slice's
    // page budget, so the epoch stays open after the opening call.
    // Plain data stores don't count — only capability stores set the
    // sticky cap-dirty bit the sweep worklist is built from.
    GuestPtr buf = sys.ctx->mmap(16 * pageSize);
    u64 lo = buf.addr();
    for (u64 pg = 0; pg < 16; ++pg) {
        Capability c = sys.proc->as()
                           .capForRange(lo, 16 * pageSize,
                                        PROT_READ | PROT_WRITE, false)
                           .setAddress(lo + pg * pageSize);
        ASSERT_FALSE(
            sys.proc->as().writeCap(lo + pg * pageSize, c).has_value());
    }
    ASSERT_FALSE(sys.kern
                     .sysRevoke2(*sys.proc, {{lo, lo + 16 * pageSize}},
                                 REVOKE_INCREMENTAL)
                     .failed());
    ASSERT_EQ(sys.kern.revocationStats().epochsOpened, 1u);
    ASSERT_EQ(sys.kern.revocationStats().epochsClosed, 0u)
        << "epoch closed too early for the test to mean anything";

    std::string err;
    std::vector<u8> img = snap::save(sys.kern, &err);
    ASSERT_FALSE(img.empty()) << err;
    Kernel kern2;
    ASSERT_TRUE(snap::restore(kern2, img, &err)) << err;
    expectOracleClean(kern2);
    EXPECT_EQ(kern2.revocationStats().epochsOpened, 1u);
    EXPECT_EQ(kern2.revocationStats().epochsClosed, 0u);

    // The restored epoch is live: drain it to completion over there.
    Process *p2 = kern2.findProcess(sys.proc->pid());
    ASSERT_NE(p2, nullptr);
    ASSERT_FALSE(kern2.sysRevoke2(*p2, {}, REVOKE_SYNC).failed());
    EXPECT_EQ(kern2.revocationStats().epochsClosed, 1u);
    expectOracleClean(kern2);
}

TEST(SnapshotTest, SwappedPagesAndForkSharedSlotsSurviveRestore)
{
    GuestSystem sys{Abi::Mips64};
    GuestPtr buf = sys.ctx->mmap(3 * pageSize);
    for (u64 pg = 0; pg < 3; ++pg)
        sys.ctx->store<u64>(buf, pg * pageSize, 0xbeef00 + pg);
    // Swap two pages out, then fork: parent and child share the swap
    // slots (refcount 2 on the device).
    ASSERT_TRUE(sys.proc->as().swapOutPage(buf.addr()));
    ASSERT_TRUE(sys.proc->as().swapOutPage(buf.addr() + pageSize));
    Process *child = sys.kern.fork(*sys.proc);
    ASSERT_NE(child, nullptr);
    u64 slotsBefore = sys.kern.swapDevice().usedSlots();
    ASSERT_GE(slotsBefore, 2u);

    std::string err;
    std::vector<u8> img = snap::save(sys.kern, &err);
    ASSERT_FALSE(img.empty()) << err;
    Kernel kern2;
    ASSERT_TRUE(snap::restore(kern2, img, &err)) << err;
    expectOracleClean(kern2);
    EXPECT_EQ(kern2.swapDevice().usedSlots(), slotsBefore);

    // Both sides fault their shared slots back in with the original
    // bytes — and the slot-refcount invariant must hold throughout.
    Process *p2 = kern2.findProcess(sys.proc->pid());
    Process *c2 = kern2.findProcess(child->pid());
    ASSERT_NE(p2, nullptr);
    ASSERT_NE(c2, nullptr);
    u64 v = 0;
    ASSERT_FALSE(c2->as().readBytes(buf.addr(), &v, 8));
    EXPECT_EQ(v, 0xbeef00u);
    ASSERT_FALSE(p2->as().readBytes(buf.addr() + pageSize, &v, 8));
    EXPECT_EQ(v, 0xbeef01u);
    expectOracleClean(kern2);
}

TEST(SnapshotTest, TruncatedImageRejectedCleanly)
{
    GuestSystem sys{Abi::CheriAbi};
    GuestPtr buf = sys.ctx->mmap(2 * pageSize);
    sys.ctx->store<u64>(buf, 0, 42);
    std::string err;
    std::vector<u8> img = snap::save(sys.kern, &err);
    ASSERT_FALSE(img.empty()) << err;

    Kernel kern2;
    const u64 cuts[] = {0,       7,           17,          64,
                        1000,    img.size() / 4, img.size() / 2,
                        img.size() - 1};
    for (u64 cut : cuts) {
        SCOPED_TRACE(cut);
        std::vector<u8> trunc(img.begin(), img.begin() + cut);
        err.clear();
        EXPECT_FALSE(snap::restore(kern2, trunc, &err));
        EXPECT_FALSE(err.empty());
    }
    // Every rejection left the kernel in a defined state: it accepts
    // the good image afterwards and new work boots on top.
    ASSERT_TRUE(snap::restore(kern2, img, &err)) << err;
    expectOracleClean(kern2);
    expectUsable(kern2);
}

TEST(SnapshotTest, CorruptImageNeverAbortsHost)
{
    GuestSystem sys{Abi::Mips64};
    GuestPtr buf = sys.ctx->mmap(2 * pageSize);
    sys.ctx->store<u64>(buf, 0, 42);
    std::string err;
    std::vector<u8> img = snap::save(sys.kern, &err);
    ASSERT_FALSE(img.empty()) << err;

    // Flip one byte at offsets spread across the whole image.  Every
    // attempt must either be rejected (error text, kernel reset) or —
    // when the flip lands in a don't-care or raw data byte — restore
    // a kernel the oracle still accepts.  Never a host crash.
    Kernel kern2;
    u64 rejected = 0;
    for (u64 i = 0; i < 48; ++i) {
        u64 off = (img.size() * i) / 48;
        std::vector<u8> bad = img;
        bad[off] ^= 0x41;
        err.clear();
        if (!snap::restore(kern2, bad, &err)) {
            EXPECT_FALSE(err.empty());
            ++rejected;
        } else {
            expectOracleClean(kern2);
        }
    }
    // The magic/header flips alone guarantee some rejections.
    EXPECT_GE(rejected, 1u);
    ASSERT_TRUE(snap::restore(kern2, img, &err)) << err;
    expectOracleClean(kern2);
    expectUsable(kern2);
}

/** Offset of the only occurrence of @p bytes in @p img. */
size_t
findUnique(const std::vector<u8> &img, const std::vector<u8> &bytes)
{
    auto at = std::search(img.begin(), img.end(), bytes.begin(), bytes.end());
    EXPECT_NE(at, img.end());
    EXPECT_EQ(std::search(at + 1, img.end(), bytes.begin(), bytes.end()),
              img.end());
    return static_cast<size_t>(at - img.begin());
}

std::vector<u8>
le64(u64 v)
{
    std::vector<u8> out;
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<u8>(v >> (8 * i)));
    return out;
}

void
put64At(std::vector<u8> &img, size_t off, u64 v)
{
    std::vector<u8> b = le64(v);
    std::copy(b.begin(), b.end(), img.begin() + off);
}

// Restore rebuilds each mapping's page-table array from the page
// records, so a record outside every mapping, a duplicated record, or
// a mapping left with fewer records than pages is a corrupt image.
TEST(SnapshotTest, PageRecordsMustTileTheirMappings)
{
    GuestSystem sys{Abi::Mips64};
    // A lone three-page mapping at an address no other record names.
    const u64 start = 0x7b5c3000;
    ASSERT_EQ(sys.proc->as().map(start, 3 * pageSize,
                                 PROT_READ | PROT_WRITE, MappingKind::Data,
                                 true),
              start);
    for (u64 pg = 0; pg < 3; ++pg) {
        u64 v = pg + 1;
        ASSERT_FALSE(
            sys.proc->as().writeBytes(start + pg * pageSize, &v, 8));
    }
    std::string err;
    std::vector<u8> img = snap::save(sys.kern, &err);
    ASSERT_FALSE(img.empty()) << err;

    std::vector<u8> mapRecord = le64(start);
    std::vector<u8> len = le64(3 * pageSize);
    mapRecord.insert(mapRecord.end(), len.begin(), len.end());
    size_t mapAt = findUnique(img, mapRecord);
    size_t page2 = findUnique(img, le64(start + 2 * pageSize));
    ASSERT_LE(mapAt + 16, img.size());
    ASSERT_LE(page2 + 8, img.size());

    struct Corruption
    {
        const char *what;
        size_t off;
        u64 value;
        const char *error;
    };
    const Corruption cases[] = {
        {"page outside every mapping", page2, start + 16 * pageSize,
         "page record outside every mapping"},
        {"duplicate page", page2, start + pageSize,
         "duplicate or out-of-order page record"},
        {"mapping longer than its records", mapAt + 8, 4 * pageSize,
         "mapping page count does not match its page records"},
    };
    Kernel kern2;
    for (const Corruption &c : cases) {
        SCOPED_TRACE(c.what);
        std::vector<u8> bad = img;
        put64At(bad, c.off, c.value);
        err.clear();
        EXPECT_FALSE(snap::restore(kern2, bad, &err));
        EXPECT_NE(err.find(c.error), std::string::npos) << err;
    }
    // The untouched image still restores, byte-stable, and the kernel
    // the rejections reset accepts it.
    ASSERT_TRUE(snap::restore(kern2, img, &err)) << err;
    EXPECT_EQ(snap::save(kern2, &err), img);
    expectOracleClean(kern2);
    expectUsable(kern2);
}

// --- Scheduled guests across restore ---

struct SchedGuest
{
    Process *proc = nullptr;
    u64 code = 0;
    u64 data = 0;
};

SchedGuest
makeGuest(Kernel &kern, Abi abi, const char *name)
{
    SelfObject prog;
    prog.name = name;
    Process *proc = kern.spawn(abi, name);
    if (kern.execve(*proc, prog, {name}, {}) != E_OK)
        throw std::runtime_error("execve failed");
    u64 code = proc->as().map(0, pageSize,
                              PROT_READ | PROT_WRITE | PROT_EXEC,
                              MappingKind::Text);
    u64 data = proc->as().map(0, pageSize, PROT_READ | PROT_WRITE,
                              MappingKind::Data);
    return {proc, code, data};
}

sched::ExecContext &
admitProgram(sched::Scheduler &s, SchedGuest &g, isa::Assembler &prog)
{
    prog.writeTo(g.proc->as(), g.code);
    sched::ExecContext &cx = s.context(*g.proc);
    cx.interp->setEntry(Capability::fromAddress(g.code));
    cx.stepLimit = 65536;
    s.ready(cx);
    return cx;
}

std::pair<int, int>
sharePipe(SchedGuest &a, SchedGuest &b,
          const std::pair<VNodeRef, VNodeRef> &pipe)
{
    auto rof = std::make_shared<OpenFile>();
    rof->node = pipe.first;
    rof->flags = O_RDONLY;
    auto wof = std::make_shared<OpenFile>();
    wof->node = pipe.second;
    wof->flags = O_WRONLY;
    int rfd = a.proc->allocFd(rof);
    int wfd = a.proc->allocFd(wof);
    EXPECT_EQ(b.proc->allocFd(rof), rfd);
    EXPECT_EQ(b.proc->allocFd(wof), wfd);
    return {rfd, wfd};
}

TEST(SnapshotSchedTest, FdCloseEdgesSuppressedWhileKernelNotReady)
{
    KernelConfig cfg;
    cfg.timeSliceSteps = 32;
    Kernel kern(cfg);
    sched::Scheduler &s = sched::schedulerFor(kern);

    SchedGuest reader = makeGuest(kern, Abi::Mips64, "guard-reader");
    SchedGuest writer = makeGuest(kern, Abi::Mips64, "guard-writer");
    auto [rfd, wfd] = sharePipe(reader, writer, Vfs::makePipe());
    (void)wfd;

    // Park the reader on the empty pipe.
    isa::Assembler rp;
    rp.syscall(static_cast<s64>(SysNum::Read)).halt();
    sched::ExecContext &rcx = admitProgram(s, reader, rp);
    rcx.interp->regs().x[4] = static_cast<u64>(rfd);
    rcx.interp->regs().x[5] = reader.data;
    rcx.interp->regs().x[6] = 16;
    kern.runUntilIdle();
    ASSERT_GE(kern.fdIoStats().blocks, 1u);
    u64 wakesBefore = kern.fdIoStats().wakes;

    // Restore-abort teardown runs closeAllFds while the kernel is
    // mid-rebuild: with kernelReady lowered, the writer-side close
    // must NOT fire a wake edge into the half-built scheduler.
    snap::setKernelReadyForTest(kern, false);
    writer.proc->closeAllFds();
    EXPECT_EQ(kern.fdIoStats().wakes, wakesBefore)
        << "close fired a wake edge during restore teardown";
    snap::setKernelReadyForTest(kern, true);

    // A normal close (kernel ready again) delivers the deferred EOF
    // semantics: the reader wakes and halts with a 0-byte read.
    reader.proc->closeFd(wfd);
    kern.runUntilIdle();
    EXPECT_EQ(rcx.last.status, isa::InterpResult::Status::Halted);
    EXPECT_EQ(rcx.interp->regs().x[regRetVal], 0u);
}

TEST(SnapshotSchedTest, SelectDeadlineAcrossRestoreFiresExactlyOnce)
{
    KernelConfig cfg;
    cfg.timeSliceSteps = 32;
    Kernel kern(cfg);
    sched::Scheduler &s = sched::schedulerFor(kern);

    SchedGuest sel = makeGuest(kern, Abi::Mips64, "select-restore");
    SchedGuest busy = makeGuest(kern, Abi::Mips64, "busy-peer");
    auto [rfd, wfd] = sharePipe(sel, busy, Vfs::makePipe());
    (void)wfd;

    // Selector: select({rfd}, tv={600,0}) then halt.  Nothing ever
    // writes, so only the virtual-clock deadline can end it.
    u64 mask = u64{1} << rfd;
    u64 tv[2] = {600, 0};
    ASSERT_FALSE(sel.proc->as().writeBytes(sel.data, &mask, 8));
    ASSERT_FALSE(sel.proc->as().writeBytes(sel.data + 16, tv, 16));
    isa::Assembler a;
    a.syscall(static_cast<s64>(SysNum::Select)).halt();
    sched::ExecContext &cx = admitProgram(s, sel, a);
    ThreadRegs &r = cx.interp->regs();
    r.x[4] = static_cast<u64>(rfd) + 1;
    r.x[5] = sel.data;
    r.x[6] = 0;
    r.x[7] = 0;
    r.x[8] = sel.data + 16;

    // Busy peer: enough arithmetic that the selector is parked with
    // its deadline armed while slices are still being handed out.
    isa::Assembler b;
    b.li(9, 40)
        .label("spin")
        .sub(9, 9, 1)
        .bne(9, 0, "spin")
        .halt();
    admitProgram(s, busy, b);

    // Snapshot from the slice hook, the moment the selector is parked
    // (deadline armed, clock still far from 600).
    std::vector<u8> img;
    s.setSliceHook([&](Process &) {
        if (!img.empty() || kern.fdIoStats().blocks < 1)
            return;
        ASSERT_LT(s.now(), 600u);
        std::string serr;
        img = snap::save(kern, &serr);
        ASSERT_FALSE(img.empty()) << serr;
    });
    kern.runUntilIdle();
    s.setSliceHook(nullptr);
    ASSERT_FALSE(img.empty()) << "selector never parked";
    // The original timeline saw the timeout fire once.
    EXPECT_EQ(kern.fdIoStats().selectTimeouts, 1u);

    // The restored timeline must see it fire exactly once too — not
    // zero (lost deadline) and not twice (double-armed).
    Kernel kern2;
    std::string err;
    ASSERT_TRUE(snap::restore(kern2, img, &err)) << err;
    expectOracleClean(kern2);
    ASSERT_EQ(kern2.fdIoStats().selectTimeouts, 0u)
        << "snapshot was taken after the deadline already fired";
    kern2.runUntilIdle();
    EXPECT_EQ(kern2.fdIoStats().selectTimeouts, 1u);

    // The restored selector completed the select with 0 ready fds and
    // a cleared read set.
    Process *p2 = kern2.findProcess(sel.proc->pid());
    ASSERT_NE(p2, nullptr);
    u64 out = ~u64{0};
    ASSERT_FALSE(p2->as().readBytes(sel.data, &out, 8));
    EXPECT_EQ(out, 0u);
    expectOracleClean(kern2);
}

TEST(SnapshotTest, MetricsSnapshotSectionInV9Schema)
{
    obs::Metrics mx;
    GuestSystem sys{Abi::CheriAbi};
    sys.kern.setMetrics(&mx);
    std::string err;
    std::vector<u8> img = snap::save(sys.kern, &err);
    ASSERT_FALSE(img.empty()) << err;
    EXPECT_EQ(mx.snapshot().snapshotsTaken, 1u);
    EXPECT_EQ(mx.snapshot().snapshotBytes, img.size());

    obs::Metrics mx2;
    Kernel kern2;
    kern2.setMetrics(&mx2);
    ASSERT_TRUE(snap::restore(kern2, img, &err)) << err;
    EXPECT_EQ(mx2.snapshot().restores, 1u);
    EXPECT_EQ(mx2.snapshot().restoreFailures, 0u);
    std::vector<u8> bad(img.begin(), img.begin() + 9);
    EXPECT_FALSE(snap::restore(kern2, bad, &err));
    EXPECT_EQ(mx2.snapshot().restoreFailures, 1u);

    std::string json = mx2.toJson();
    EXPECT_NE(json.find("cheri.metrics.v9"), std::string::npos);
    EXPECT_NE(json.find("\"snapshot\""), std::string::npos);
    EXPECT_NE(json.find("\"restores\""), std::string::npos);
}

} // namespace
} // namespace cheri
