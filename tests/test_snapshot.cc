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
#include <functional>
#include <map>
#include <string>
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
    ASSERT_EQ(sys.kern.counters().revocation.epochsOpened, 1u);
    ASSERT_EQ(sys.kern.counters().revocation.epochsClosed, 0u)
        << "epoch closed too early for the test to mean anything";

    std::string err;
    std::vector<u8> img = snap::save(sys.kern, &err);
    ASSERT_FALSE(img.empty()) << err;
    Kernel kern2;
    ASSERT_TRUE(snap::restore(kern2, img, &err)) << err;
    expectOracleClean(kern2);
    EXPECT_EQ(kern2.counters().revocation.epochsOpened, 1u);
    EXPECT_EQ(kern2.counters().revocation.epochsClosed, 0u);

    // The restored epoch is live: drain it to completion over there.
    Process *p2 = kern2.findProcess(sys.proc->pid());
    ASSERT_NE(p2, nullptr);
    ASSERT_FALSE(kern2.sysRevoke2(*p2, {}, REVOKE_SYNC).failed());
    EXPECT_EQ(kern2.counters().revocation.epochsClosed, 1u);
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

TEST(SnapshotTest, VersionTwoImageRejectedWithParseError)
{
    GuestSystem sys{Abi::CheriAbi};
    std::string err;
    std::vector<u8> img = snap::save(sys.kern, &err);
    ASSERT_FALSE(img.empty()) << err;
    ASSERT_EQ(snap::imageVersion, 3u);
    // Version 2 images also stored the registry's copies of the kernel
    // counters; this build reads neither layout variant of them.
    std::vector<u8> v2 = img;
    const u8 two[4] = {2, 0, 0, 0}; // the u32 after the 8-byte magic
    std::copy(two, two + 4, v2.begin() + 8);

    obs::Metrics mx;
    Kernel kern2;
    kern2.setMetrics(&mx);
    EXPECT_FALSE(snap::restore(kern2, v2, &err));
    EXPECT_NE(err.find("unsupported image version"), std::string::npos)
        << err;
    EXPECT_EQ(mx.snapshot().restoreFailures, 1u);
    expectUsable(kern2);
    ASSERT_TRUE(snap::restore(kern2, img, &err)) << err;
    expectOracleClean(kern2);
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

void
put32At(std::vector<u8> &img, size_t off, u32 v)
{
    for (int i = 0; i < 4; ++i)
        img[off + i] = static_cast<u8>(v >> (8 * i));
}

u64
getAt(const std::vector<u8> &img, size_t off, int bytes)
{
    u64 v = 0;
    for (int i = 0; i < bytes; ++i)
        v |= static_cast<u64>(img[off + i]) << (8 * i);
    return v;
}

u64
get64At(const std::vector<u8> &img, size_t off)
{
    return getAt(img, off, 8);
}

u32
get32At(const std::vector<u8> &img, size_t off)
{
    return static_cast<u32>(getAt(img, off, 4));
}

std::vector<u8>
cat(std::vector<u8> a, const std::vector<u8> &b)
{
    a.insert(a.end(), b.begin(), b.end());
    return a;
}

/** The serialized form of a string: its length, then its bytes. */
std::vector<u8>
strBytes(const std::string &s)
{
    return cat(le64(s.size()), std::vector<u8>(s.begin(), s.end()));
}

/** Store a capability to [@p base, @p base + 64) at @p va, so the frame
 *  holding @p va carries one tagged granule. */
void
storeCap(Process &proc, u64 va, u64 base)
{
    Capability c = proc.as().capForRange(base, 64, PROT_READ | PROT_WRITE,
                                         false);
    ASSERT_TRUE(c.tag());
    ASSERT_FALSE(proc.as().writeCap(va, c).has_value());
}

/** A tag-list entry as saved: granule offset, then the capability's
 *  tag byte and base. */
std::vector<u8>
tagEntry(u64 off, bool tag, u64 base)
{
    return cat(cat(le64(off), {static_cast<u8>(tag ? 1 : 0)}), le64(base));
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

// A swapped-out page keeps its capabilities as (granule offset, pattern)
// metadata.  A forged offset must be rejected at restore, exactly as a
// frame's is; accepting it would let the first swap-in store a
// capability outside the page.
TEST(SnapshotTest, SwapSlotTagOffsetValidatedLikeFrames)
{
    GuestSystem sys{Abi::CheriAbi};
    GuestPtr buf = sys.ctx->mmap(pageSize);
    const u64 off = 0x40;
    storeCap(*sys.proc, buf.addr() + off, buf.addr() + 0x100);
    ASSERT_TRUE(sys.proc->as().swapOutPage(buf.addr()));
    std::string err;
    std::vector<u8> img = snap::save(sys.kern, &err);
    ASSERT_FALSE(img.empty()) << err;

    // The slot stores the pattern untagged.
    size_t entry = findUnique(img, tagEntry(off, false, buf.addr() + 0x100));
    for (u64 forged : {pageSize, off + 1}) {
        SCOPED_TRACE(forged);
        std::vector<u8> bad = img;
        put64At(bad, entry, forged);
        Kernel kern2;
        err.clear();
        EXPECT_FALSE(snap::restore(kern2, bad, &err));
        EXPECT_NE(err.find("corrupt tag offset"), std::string::npos) << err;
        expectUsable(kern2);
    }
    Kernel kern2;
    ASSERT_TRUE(snap::restore(kern2, img, &err)) << err;
    expectOracleClean(kern2);
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
    ASSERT_GE(kern.counters().fd.blocks, 1u);
    u64 wakesBefore = kern.counters().fd.wakes;

    // Restore-abort teardown runs closeAllFds while the kernel is
    // mid-rebuild: with kernelReady lowered, the writer-side close
    // must NOT fire a wake edge into the half-built scheduler.
    snap::setKernelReadyForTest(kern, false);
    writer.proc->closeAllFds();
    EXPECT_EQ(kern.counters().fd.wakes, wakesBefore)
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
        if (!img.empty() || kern.counters().fd.blocks < 1)
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
    EXPECT_EQ(kern.counters().fd.selectTimeouts, 1u);

    // The restored timeline must see it fire exactly once too — not
    // zero (lost deadline) and not twice (double-armed).
    Kernel kern2;
    std::string err;
    ASSERT_TRUE(snap::restore(kern2, img, &err)) << err;
    expectOracleClean(kern2);
    ASSERT_EQ(kern2.counters().fd.selectTimeouts, 0u)
        << "snapshot was taken after the deadline already fired";
    kern2.runUntilIdle();
    EXPECT_EQ(kern2.counters().fd.selectTimeouts, 1u);

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

// --- Every restore check, one corrupt field at a time ---

// Sentinel values planted in kernel state: each one is unique in the
// saved image, so the fields a row corrupts are found relative to it.
constexpr u64 seedSentinel = 0x5eed5eed5eed5eedull;    // cfg.aslrSeed
constexpr u64 fileSentinel = 0x0ff5e70ff5e70ff5ull;    // OpenFile offset
constexpr u64 maskSentinel = 0x516da5c0516da5c0ull;    // sigMask
constexpr u64 regSentinel = 0x7e657e657e657e65ull;     // x[31]
constexpr u64 slotSentinel1 = 0x5107510700000001ull;   // swapped page 1
constexpr u64 slotSentinel2 = 0x5107510700000002ull;   // swapped page 2
constexpr u64 ctxSentinelA = 0xc7a0c7a0c7a0c7a0ull;    // blockArg
constexpr u64 ctxSentinelB = 0xc7b0c7b0c7b0c7b0ull;    // blockArg
constexpr u64 fixedVa = 0x7b5c3000;
const std::string nodeName = "snapshot-sentinel-node";
const std::string victimName = "dup-pid-victim";

/** A kernel holding one instance of every object a restore check
 *  guards, each next to a sentinel; returns its image. */
std::vector<u8>
sentinelImage(u64 *tagBase, u64 *firstPid)
{
    KernelConfig cfg;
    cfg.aslrSeed = seedSentinel;
    GuestSystem sys{Abi::CheriAbi, cfg};
    Kernel &kern = sys.kern;
    Process &proc = *sys.proc;
    *firstPid = proc.pid();

    // Two resident pages at a fixed address (page records).
    EXPECT_EQ(proc.as().map(fixedVa, 2 * pageSize, PROT_READ | PROT_WRITE,
                            MappingKind::Data, true),
              fixedVa);
    for (u64 pg = 0; pg < 2; ++pg) {
        u64 v = pg + 1;
        EXPECT_FALSE(proc.as().writeBytes(fixedVa + pg * pageSize, &v, 8));
    }
    // A frame with one tagged granule.
    GuestPtr capPage = sys.ctx->mmap(pageSize);
    *tagBase = capPage.addr() + 0x100;
    storeCap(proc, capPage.addr() + 0x40, *tagBase);
    // Two swap slots, told apart by their first word.
    GuestPtr swapped = sys.ctx->mmap(2 * pageSize);
    sys.ctx->store<u64>(swapped, 0, slotSentinel1);
    sys.ctx->store<u64>(swapped, pageSize, slotSentinel2);
    EXPECT_TRUE(proc.as().swapOutPage(swapped.addr()));
    EXPECT_TRUE(proc.as().swapOutPage(swapped.addr() + pageSize));
    // A five-page shm segment.
    EXPECT_EQ(kern.sysShmget(proc, 5, 5 * pageSize).error, E_OK);
    // A named regular file, open as the first file description.
    auto of = std::make_shared<OpenFile>();
    of->node = kern.vfs().createFile("/tmp/" + nodeName);
    of->offset = fileSentinel;
    EXPECT_EQ(proc.allocFd(of), 0);
    // A second process with a known name, signal mask, register and
    // one descriptor, and no spawned threads.
    Process *victim = kern.spawn(Abi::Mips64, victimName);
    victim->sigMask = maskSentinel;
    victim->regs().x[31] = regSentinel;
    EXPECT_EQ(victim->allocFd(of), 0);

    std::string err;
    std::vector<u8> img = snap::save(kern, &err);
    EXPECT_FALSE(img.empty()) << err;
    return img;
}

/** One process whose cost model has fetched its code footprint three
 *  times over, so its L1I is full and warm; x[31] holds regSentinel. */
std::vector<u8>
warmL1IImage()
{
    Kernel kern;
    Process *proc = kern.spawn(Abi::CheriAbi, "warm-l1i");
    proc->regs().x[31] = regSentinel;
    proc->cost().reset();
    proc->cost().alu(3 * 16 * 1024 / 4 + 9);
    EXPECT_TRUE(proc->cost().instructionCacheWarm());
    std::string err;
    std::vector<u8> img = snap::save(kern, &err);
    EXPECT_FALSE(img.empty()) << err;
    return img;
}

/** Two admitted, never-run contexts (run queue: A, B). */
std::vector<u8>
schedSentinelImage()
{
    Kernel kern;
    sched::Scheduler &s = sched::schedulerFor(kern);
    SchedGuest a = makeGuest(kern, Abi::Mips64, "ctx-a");
    SchedGuest b = makeGuest(kern, Abi::Mips64, "ctx-b");
    isa::Assembler pa;
    pa.halt();
    admitProgram(s, a, pa).blockArg = ctxSentinelA;
    isa::Assembler pb;
    pb.halt();
    admitProgram(s, b, pb).blockArg = ctxSentinelB;
    std::string err;
    std::vector<u8> img = snap::save(kern, &err);
    EXPECT_FALSE(img.empty()) << err;
    return img;
}

TEST(SnapshotTest, RestoreRejectsEachCorruptField)
{
    u64 tagBase = 0;
    u64 firstPid = 0;
    const std::vector<u8> img = sentinelImage(&tagBase, &firstPid);
    const std::vector<u8> schedImg = schedSentinelImage();
    const std::vector<u8> warmImg = warmL1IImage();
    ASSERT_FALSE(img.empty());
    ASSERT_FALSE(schedImg.empty());
    ASSERT_FALSE(warmImg.empty());

    // Config header: ..., page size, cap format, swap policy, two
    // feature booleans, stack size, ASLR seed.
    const size_t seed = findUnique(img, le64(seedSentinel));
    const size_t capFormat = seed - 12;
    const size_t feature = seed - 10;
    const size_t pageSizeAt = seed - 20;
    const size_t layout = seed - 52;
    // Page record: VA, frame id, ...
    const size_t page2 = findUnique(img, le64(fixedVa + pageSize));
    // Frame tag list entry: offset, capability.
    const size_t tagAt = findUnique(img, tagEntry(0x40, true, tagBase));
    // Swap slot: id, page bytes (first word planted), ...
    const size_t slot1 = findUnique(img, le64(slotSentinel1)) - 8;
    const size_t slot2 = findUnique(img, le64(slotSentinel2)) - 8;
    // Swapped page record: ..., frame id (none), prot (rw), cow,
    // shared, swapped, slot id.
    const size_t sharedFlag =
        findUnique(img, cat(std::vector<u8>{0, 0, 0, 0, 3, 0, 0, 0, 0, 0, 1},
                            le64(get64At(img, slot1)))) +
        9;
    // Shm segment: size, frame count, frame ids.
    const size_t shm =
        findUnique(img, cat(le64(5 * pageSize), le64(5))) + 16;
    // Open file #1: vnode id, offset, flags; the root id and the
    // file count come just before it.
    const size_t fileNode = findUnique(img, le64(fileSentinel)) - 4;
    const size_t rootId = fileNode - 8 - 4;
    // VNode: ..., name, data (empty), children (none), read channel.
    const size_t readCh =
        findUnique(img, cat(cat(strBytes(nodeName), le64(0)), le64(0))) +
        8 + nodeName.size() + 16;
    // The victim: pid, ppid, abi, name, ...; its register file ends
    // with x[31], then the cost model's 9 words and its L1i geometry;
    // its fds precede the thread count (0), curThread, nextTid, the
    // signal actions, sigPending and sigMask.
    const size_t victimPid = findUnique(img, strBytes(victimName)) - 17;
    const size_t l1iLine = findUnique(img, le64(regSentinel)) + 8 + 72;
    // The cost model's last two words: the fetch PC, the code
    // footprint.  The L1i header: line size, set count, ways (u32),
    // tick, hits, misses, way count; then 17-byte way records {tag,
    // valid, lru}.  The victim never ran, so its L1i is empty.
    const size_t fetchPc = l1iLine - 16;
    const size_t footprint = l1iLine - 8;
    const size_t l1iTick = l1iLine + 20;
    auto wayAt = [&](u32 w) { return l1iLine + 52 + 17 * size_t{w}; };
    EXPECT_EQ(get64At(img, l1iTick), 0u);
    for (u32 w = 0; w < 4; ++w)
        EXPECT_EQ(img[wayAt(w) + 8], 0) << "way " << w;
    const size_t curThread =
        findUnique(img, le64(maskSentinel)) - 8 - numSignals * 9 - 16;
    const size_t lastFd = curThread - 8 - 4;
    // Scheduler contexts: pid, tid, state, block kind, block arg...;
    // 104 bytes each, then the run queue's count and (pid, tid) pairs.
    const size_t ctxA = findUnique(schedImg, le64(ctxSentinelA)) - 18;
    const size_t ctxB = findUnique(schedImg, le64(ctxSentinelB)) - 18;
    const size_t runq = ctxB + 104 + 8;
    // The warm L1I, laid out as above: set 0 holds footprint line 0 in
    // way 3 and line 128 in way 2.
    const size_t warmL1I = findUnique(warmImg, le64(regSentinel)) + 8 + 72;
    auto warmWayAt = [&](u32 w) { return warmL1I + 52 + 17 * size_t{w}; };
    EXPECT_EQ(warmImg[warmWayAt(2) + 8], 1);
    EXPECT_EQ(warmImg[warmWayAt(3) + 8], 1);

    struct Row
    {
        const char *what;
        const std::vector<u8> *image;
        std::function<void(std::vector<u8> &)> corrupt;
        const char *error;
    };
    const Row rows[] = {
        {"layout constant", &img,
         [&](auto &b) { put32At(b, layout, numSysNums + 1); },
         "layout-constant mismatch"},
        {"page size", &img,
         [&](auto &b) { put64At(b, pageSizeAt, 2 * pageSize); },
         "page-size mismatch"},
        {"cap format", &img, [&](auto &b) { b[capFormat] = 7; },
         "corrupt enum value: cap format"},
        {"feature flag", &img, [&](auto &b) { b[feature] = 2; },
         "corrupt boolean"},
        {"frame tag offset", &img,
         [&](auto &b) { put64At(b, tagAt, pageSize); },
         "corrupt tag offset"},
        {"duplicate swap slot", &img,
         [&](auto &b) { put64At(b, slot2, get64At(b, slot1)); },
         "duplicate swap slot"},
        {"vnode read channel", &img,
         [&](auto &b) { put32At(b, readCh, 0xffff); },
         "corrupt channel id"},
        {"vfs root", &img,
         [&](auto &b) { put32At(b, rootId, get32At(b, fileNode)); },
         "vfs root is not a directory"},
        {"open file's vnode", &img,
         [&](auto &b) { put32At(b, fileNode, 0xffff); },
         "corrupt vnode id"},
        {"duplicate pid", &img,
         [&](auto &b) { put64At(b, victimPid, firstPid); },
         "duplicate pid"},
        {"page frame id", &img,
         [&](auto &b) { put32At(b, page2 + 8, 0x7fffffff); },
         "corrupt frame id"},
        {"cache geometry", &img,
         [&](auto &b) { put64At(b, l1iLine, get64At(b, l1iLine) * 2); },
         "cache geometry mismatch"},
        {"cache ways not a suffix", &img,
         [&](auto &b) { b[wayAt(0) + 8] = 1; },
         "cache valid ways are not a suffix of their set"},
        {"empty cache way", &img, [&](auto &b) { put64At(b, wayAt(1), 5); },
         "corrupt empty cache way"},
        {"cache way lru", &img,
         [&](auto &b) {
             b[wayAt(3) + 8] = 1;
             put64At(b, wayAt(3) + 9, get64At(b, l1iTick) + 1);
         },
         "cache way used after the cache's clock"},
        {"duplicate cache tag", &img,
         [&](auto &b) {
             b[wayAt(2) + 8] = 1;
             b[wayAt(3) + 8] = 1;
         },
         "duplicate tag in a cache set"},
        {"code footprint", &img,
         [&](auto &b) { put64At(b, footprint, get64At(b, footprint) / 2); },
         "code footprint mismatch"},
        {"fetch pc", &img,
         [&](auto &b) { put64At(b, fetchPc, get64At(b, fetchPc) + 2); },
         "corrupt fetch pc"},
        {"fetch pc past the footprint", &img,
         [&](auto &b) {
             put64At(b, fetchPc,
                     get64At(b, fetchPc) + get64At(b, footprint));
         },
         "corrupt fetch pc"},
        {"fd table", &img, [&](auto &b) { put32At(b, lastFd, 0xffff); },
         "corrupt open-file id"},
        {"current thread", &img, [&](auto &b) { put64At(b, curThread, 1); },
         "corrupt current-thread id"},
        {"shm frame id", &img, [&](auto &b) { put32At(b, shm, 0); },
         "corrupt shm frame id"},
        {"shared swapped page", &img, [&](auto &b) { b[sharedFlag] = 1; },
         "corrupt shared swapped page"},
        {"context pid", &schedImg, [&](auto &b) { put64At(b, ctxA, 999); },
         "context references unknown pid"},
        {"duplicate context", &schedImg,
         [&](auto &b) {
             put64At(b, ctxB, get64At(b, ctxA));
             put64At(b, ctxB + 8, get64At(b, ctxA + 8));
         },
         "duplicate scheduler context"},
        {"run queue entry", &schedImg, [&](auto &b) { put64At(b, runq, 999); },
         "queue references unknown context: run queue"},
        {"L1I line outside the code footprint", &warmImg,
         [&](auto &b) {
             put64At(b, warmWayAt(2), get64At(b, warmWayAt(2)) + 2);
         },
         "L1I line outside the code footprint"},
        {"L1I tag that wraps onto a footprint line", &warmImg,
         [&](auto &b) {
             put64At(b, warmWayAt(2),
                     get64At(b, warmWayAt(2)) + (u64{1} << 60));
         },
         "L1I line outside the code footprint"},
        {"warm L1I stamp", &warmImg,
         [&](auto &b) {
             put64At(b, warmWayAt(3) + 9, get64At(b, warmWayAt(3) + 9) - 1);
         },
         "warm L1I stamps do not match its clock"},
    };
    Kernel kern2;
    std::string err;
    for (const Row &row : rows) {
        SCOPED_TRACE(row.what);
        std::vector<u8> bad = *row.image;
        row.corrupt(bad);
        err.clear();
        EXPECT_FALSE(snap::restore(kern2, bad, &err));
        EXPECT_NE(err.find(row.error), std::string::npos) << err;
    }
    // The untouched images restore, byte-stable, into the kernel the
    // rejections reset.
    for (const std::vector<u8> *good : {&img, &schedImg, &warmImg}) {
        ASSERT_TRUE(snap::restore(kern2, *good, &err)) << err;
        EXPECT_EQ(snap::save(kern2, &err), *good);
        expectOracleClean(kern2);
    }
    expectUsable(kern2);
}

// --- Cost-model images pinned by digest ---

/** FNV-1a over @p image. */
u64
fnv1a(const std::vector<u8> &image)
{
    u64 h = 0xcbf29ce484222325ull;
    for (u8 b : image)
        h = (h ^ b) * 0x100000001b3ull;
    return h;
}

/** From a reset through the first L1I lap (the footprint's last line
 *  is fetched by instruction 4081), with L1D and L2 traffic. */
void
chargeFirstLap(CostModel &m)
{
    m.reset();
    m.alu(2000);
    m.load(0x10000, 8);
    m.store(0x20010, 16);
    m.call(0x7ffff000, 2, 3, true);
    m.alu(2100);
}

/** About seventeen more laps of mixed charges. */
void
chargeLaterLaps(CostModel &m)
{
    for (u64 i = 0; i < 400; ++i) {
        m.alu(1 + i % 97);
        m.load(0x30000 + 24 * i, 8);
        m.syscall(i % 4);
        m.gotLoad(0x40000 + 8 * (i % 64));
        if (i % 50 == 0)
            m.copyLoop(0x50000, 0x60000 + i, 300);
    }
}

TEST(SnapshotTest, WarmCostModelImagesArePinned)
{
    // Every byte of these images, the L1I's clock and LRU stamps
    // included, is what the per-line fetch stream leaves: the digests
    // were taken from a build that streamed every fetch through the
    // L1I.  A change to the image format or to any modelled number
    // moves them.
    struct Pin
    {
        Abi abi;
        u64 firstLap;
        u64 laterLaps;
    };
    const Pin pins[] = {
        {Abi::Mips64, 0x214c21e066f39c6aull, 0x72f9810b4e9addfaull},
        {Abi::CheriAbi, 0x784661c04d319b81ull, 0xd73558df6a2d0f5bull},
        {Abi::Hybrid, 0xbeecba42a85ad8f0ull, 0xadd71e69366b7aa0ull},
    };
    for (const Pin &pin : pins) {
        SCOPED_TRACE(static_cast<int>(pin.abi));
        Kernel kern;
        Process *proc = kern.spawn(pin.abi, "warm-pin");
        ASSERT_NE(proc, nullptr);
        CostModel &m = proc->cost();
        std::string err;
        chargeFirstLap(m);
        EXPECT_TRUE(m.instructionCacheWarm());
        std::vector<u8> image = snap::save(kern, &err);
        ASSERT_FALSE(image.empty()) << err;
        EXPECT_EQ(fnv1a(image), pin.firstLap);
        chargeLaterLaps(m);
        image = snap::save(kern, &err);
        ASSERT_FALSE(image.empty()) << err;
        EXPECT_EQ(fnv1a(image), pin.laterLaps);
    }
}

// --- One image that fills every section ---

/** The swap slot backing @p va in @p proc's page table. */
u64
slotOf(const Process &proc, u64 va)
{
    u64 slot = ~u64{0};
    proc.as().forEachPte([&](const AddressSpace::PteView &v) {
        if (v.va == va && v.swapped)
            slot = v.swapSlot;
    });
    EXPECT_NE(slot, ~u64{0});
    return slot;
}

std::vector<std::pair<u64, Capability>>
slotTags(Kernel &kern, u64 slot)
{
    std::vector<std::pair<u64, Capability>> out;
    kern.swapDevice().forEachTaggedInSlot(
        slot, [&](u64 off, const Capability &c) { out.push_back({off, c}); });
    return out;
}

void
expectSameCap(const Capability &a, const Capability &b)
{
    EXPECT_EQ(a.tag(), b.tag());
    EXPECT_EQ(a.base(), b.base());
    EXPECT_EQ(a.top(), b.top());
    EXPECT_EQ(a.address(), b.address());
    EXPECT_EQ(a.perms(), b.perms());
}

// Kqueues, ptrace attachments, shm segments, spawned threads, posted
// events, a DeathInfo, the registry's costs / provenance / fault
// records, an open revocation epoch, a swap slot with tag metadata and
// a select parked with its deadline armed: restore must reproduce all
// of it, so the restored kernel saves the same bytes.
TEST(SnapshotTest, RoundTripFillsEverySection)
{
    obs::Metrics mx;
    KernelConfig cfg;
    cfg.timeSliceSteps = 32;
    GuestSystem sys{Abi::CheriAbi, cfg};
    Kernel &kern = sys.kern;
    Process &proc = *sys.proc;
    kern.setMetrics(&mx);
    std::string err;
    // One earlier image makes the registry's snapshot counters
    // distinctive (found below).
    ASSERT_FALSE(snap::save(kern, &err).empty()) << err;

    int fds[2];
    ASSERT_EQ(kern.sysPipe(proc, fds).error, E_OK);
    GuestPtr session = sys.ctx->mmap(pageSize);
    KEvent reg;
    reg.ident = fds[0];
    reg.filter = KFilter::Read;
    reg.udata = session.cap;
    ASSERT_EQ(kern.sysKevent(proc, {reg}, nullptr, 0).error, E_OK);
    GuestPtr byte = sys.ctx->mmap(64);
    sys.ctx->store<u8>(byte, 0, 1);
    ASSERT_EQ(sys.ctx->write(fds[1], byte, 1), 1);

    Process *debugger = kern.spawn(Abi::CheriAbi, "gdb");
    ASSERT_EQ(kern.sysPtrace(*debugger, PtReq::Attach, proc.pid(), 0,
                             nullptr, 0)
                  .error,
              E_OK);
    SysResult shm = kern.sysShmget(proc, 3, 2 * pageSize);
    ASSERT_EQ(shm.error, E_OK);
    ASSERT_EQ(kern.sysThrNew(proc).error, E_OK);
    ASSERT_EQ(kern.sysEvPost(proc, proc.pid()).error, E_OK);

    // A zombie killed by an unhandled capability fault: the kernel
    // records the fault (attributed to the capability's provenance),
    // keeps the DeathInfo and writes a core file.
    mx.captureCost("planted", proc.cost());
    mx.derive(DeriveSource::Stack, session.cap);
    Process *victim = kern.spawn(Abi::CheriAbi, "victim");
    DeathInfo death;
    death.signal = SIG_PROT;
    death.fault = CapFault::LengthViolation;
    death.faultAddr = session.addr() + pageSize;
    death.detail = "planted";
    death.faultCap = session.cap;
    death.faultCapKnown = true;
    kern.faultProcess(*victim, death);
    ASSERT_TRUE(victim->exited());

    // A tagged page swapped out: its slot carries tag metadata.
    GuestPtr swapped = sys.ctx->mmap(pageSize);
    storeCap(proc, swapped.addr() + 0x40, swapped.addr() + 0x100);
    ASSERT_TRUE(proc.as().swapOutPage(swapped.addr()));
    const u64 slot = slotOf(proc, swapped.addr());
    ASSERT_EQ(kern.swapDevice().slotTagCount(slot), 1u);

    // More cap-dirty pages than one incremental slice sweeps.
    GuestPtr dirty = sys.ctx->mmap(16 * pageSize);
    for (u64 pg = 0; pg < 16; ++pg)
        storeCap(proc, dirty.addr() + pg * pageSize, dirty.addr());
    ASSERT_FALSE(kern
                     .sysRevoke2(proc,
                                 {{dirty.addr(),
                                   dirty.addr() + 16 * pageSize}},
                                 REVOKE_INCREMENTAL)
                     .failed());

    // A selector parked on an empty pipe with its deadline armed, next
    // to a busy peer; the image is taken from the slice hook.
    sched::Scheduler &s = sched::schedulerFor(kern);
    SchedGuest sel = makeGuest(kern, Abi::Mips64, "selector");
    SchedGuest busy = makeGuest(kern, Abi::Mips64, "busy-peer");
    auto [rfd, wfd] = sharePipe(sel, busy, Vfs::makePipe());
    (void)wfd;
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
    isa::Assembler b;
    b.li(9, 40).label("spin").sub(9, 9, 1).bne(9, 0, "spin").halt();
    admitProgram(s, busy, b);

    // Taken with the image: what the restored side must read back.
    std::vector<u8> img;
    obs::SnapshotCounters snapAtSave;
    std::map<std::pair<u64, u64>, u64> stepsAtSave;
    u64 stackDerivesAtSave = 0;
    RevocationEpoch epochAtSave;
    KernelCounters countersAtSave;
    sched::ExecContext selAtSave;
    s.setSliceHook([&](Process &) {
        if (!img.empty() || kern.counters().fd.blocks < 1)
            return;
        snapAtSave = mx.snapshot();
        stepsAtSave = mx.threadSteps();
        stackDerivesAtSave = mx.deriveCount(DeriveSource::Stack);
        epochAtSave = *kern.findRevocationEpoch(proc.pid());
        countersAtSave = kern.counters();
        selAtSave.state = cx.state;
        selAtSave.fdChans = cx.fdChans;
        selAtSave.fdDeadlineArmed = cx.fdDeadlineArmed;
        selAtSave.fdDeadline = cx.fdDeadline;
        std::string serr;
        img = snap::save(kern, &serr);
        ASSERT_FALSE(img.empty()) << serr;
    });
    kern.runUntilIdle();
    s.setSliceHook(nullptr);
    ASSERT_FALSE(img.empty()) << "selector never parked";
    ASSERT_TRUE(epochAtSave.open) << "epoch closed before the image";
    ASSERT_TRUE(selAtSave.fdDeadlineArmed);

    obs::Metrics mx2;
    Kernel kern2;
    kern2.setMetrics(&mx2);
    ASSERT_TRUE(snap::restore(kern2, img, &err)) << err;

    // save(restore(save(k))) == save(k), once the registry's own
    // count of this restore is taken back out.
    std::vector<u8> img2 = snap::save(kern2, &err);
    ASSERT_EQ(img2.size(), img.size());
    std::vector<u8> counters;
    for (u64 v : {snapAtSave.snapshotsTaken, snapAtSave.snapshotBytes,
                  snapAtSave.restores, snapAtSave.restoreFailures})
        counters = cat(counters, le64(v));
    size_t restoresAt = findUnique(img, counters) + 16;
    EXPECT_EQ(get64At(img2, restoresAt), snapAtSave.restores + 1);
    put64At(img2, restoresAt, snapAtSave.restores);
    EXPECT_TRUE(img2 == img) << "restored kernel saved different bytes";
    // (The oracle counts its runs in the registry: check after saving.)
    expectOracleClean(kern2);

    // Every section, read back through the public accessors.
    Process *p2 = kern2.findProcess(proc.pid());
    ASSERT_NE(p2, nullptr);
    std::vector<KEvent> events;
    ASSERT_EQ(kern2.sysKevent(*p2, {}, &events, 8).error, E_OK);
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].ident, fds[0]);
    EXPECT_EQ(events[0].filter, KFilter::Read);
    expectSameCap(events[0].udata, session.cap);

    Process *dbg2 = kern2.findProcess(debugger->pid());
    ASSERT_NE(dbg2, nullptr);
    u8 peek = 0;
    EXPECT_EQ(kern2.sysPtrace(*dbg2, PtReq::ReadData, proc.pid(),
                              byte.addr(), &peek, 1)
                  .error,
              E_OK);
    EXPECT_EQ(peek, 1u);

    UserPtr shmAt;
    EXPECT_EQ(kern2
                  .sysShmat(*p2, static_cast<int>(shm.value),
                            UserPtr::null(), &shmAt)
                  .error,
              E_OK);
    EXPECT_EQ(shmAt.cap.length(), 2 * pageSize);

    Process *victim2 = kern2.findProcess(victim->pid());
    ASSERT_NE(victim2, nullptr);
    ASSERT_TRUE(victim2->death().has_value());
    const DeathInfo &d2 = *victim2->death();
    EXPECT_EQ(d2.signal, death.signal);
    EXPECT_EQ(d2.fault, death.fault);
    EXPECT_EQ(d2.faultAddr, death.faultAddr);
    EXPECT_EQ(d2.detail, death.detail);
    expectSameCap(d2.faultCap, death.faultCap);
    EXPECT_EQ(d2.faultCapKnown, death.faultCapKnown);
    EXPECT_EQ(d2.deadlock, death.deadlock);

    ASSERT_EQ(mx2.costSnapshots().size(), 1u);
    const obs::CostSnapshot &c1 = mx.costSnapshots()[0];
    const obs::CostSnapshot &c2 = mx2.costSnapshots()[0];
    EXPECT_EQ(c2.label, c1.label);
    EXPECT_EQ(c2.abi, c1.abi);
    EXPECT_EQ(c2.instructions, c1.instructions);
    EXPECT_EQ(c2.cycles, c1.cycles);
    EXPECT_EQ(c2.l1dMisses, c1.l1dMisses);
    EXPECT_EQ(c2.l2Misses, c1.l2Misses);
    EXPECT_EQ(c2.codeBytes, c1.codeBytes);
    EXPECT_EQ(c2.itlbMisses, c1.itlbMisses);
    EXPECT_EQ(c2.dtlbMisses, c1.dtlbMisses);
    ASSERT_EQ(mx2.faults().size(), 1u);
    const obs::FaultRecord &f1 = mx.faults()[0];
    const obs::FaultRecord &f2 = mx2.faults()[0];
    EXPECT_EQ(f2.cause, f1.cause);
    EXPECT_EQ(f2.pc, f1.pc);
    EXPECT_EQ(f2.addr, f1.addr);
    EXPECT_EQ(f2.abi, f1.abi);
    EXPECT_EQ(f2.provenance, DeriveSource::Stack);
    EXPECT_TRUE(f2.provenanceKnown);
    EXPECT_EQ(mx2.deriveCount(DeriveSource::Stack), stackDerivesAtSave);
    EXPECT_EQ(mx2.threadSteps(), stepsAtSave);

    const RevocationEpoch *ep2 = kern2.findRevocationEpoch(proc.pid());
    ASSERT_NE(ep2, nullptr);
    EXPECT_TRUE(ep2->open);
    EXPECT_EQ(ep2->id, epochAtSave.id);
    EXPECT_EQ(ep2->ranges, epochAtSave.ranges);
    EXPECT_EQ(ep2->worklist, epochAtSave.worklist);
    EXPECT_EQ(ep2->revoked, epochAtSave.revoked);
    EXPECT_EQ(ep2->cyclesAtOpen, epochAtSave.cyclesAtOpen);
    EXPECT_EQ(kern2.counters().revocation.epochsOpened,
              countersAtSave.revocation.epochsOpened);
    EXPECT_EQ(kern2.counters().fd.blocks, countersAtSave.fd.blocks);
    EXPECT_EQ(kern2.counters().sched.slices, countersAtSave.sched.slices);

    auto tags = slotTags(kern, slot);
    auto tags2 = slotTags(kern2, slot);
    ASSERT_EQ(tags2.size(), 1u);
    ASSERT_EQ(tags.size(), 1u);
    EXPECT_EQ(tags2[0].first, tags[0].first);
    expectSameCap(tags2[0].second, tags[0].second);

    Process *sel2 = kern2.findProcess(sel.proc->pid());
    ASSERT_NE(sel2, nullptr);
    const sched::ExecContext &cx2 = kern2.scheduler().context(*sel2);
    EXPECT_EQ(cx2.state, selAtSave.state);
    EXPECT_EQ(cx2.fdChans, selAtSave.fdChans);
    EXPECT_TRUE(cx2.fdDeadlineArmed);
    EXPECT_EQ(cx2.fdDeadline, selAtSave.fdDeadline);
}

} // namespace
} // namespace cheri
