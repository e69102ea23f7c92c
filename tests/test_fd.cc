/**
 * @file
 * Blocking FD I/O tests: POSIX pipe/select semantics and their
 * integration with the kernel scheduler.
 *
 * The contract under test (PR 8):
 *
 *  - a write to a pipe whose read ends are all closed fails with
 *    E_PIPE *and* delivers SIG_PIPE to the writer (default: the
 *    process dies through the structured teardown path);
 *  - a read from a pipe whose write ends are all closed returns 0
 *    (EOF) after draining buffered bytes — never an error;
 *  - O_NONBLOCK round-trips E_AGAIN for would-block reads and writes,
 *    and a write to a filling pipe is never 0-for-nonzero-length:
 *    it is partial, E_AGAIN, or (scheduled) a true block;
 *  - under the scheduler, blocked readers/writers/selects park off
 *    the run queue — consuming zero interpreter steps — until a
 *    channel edge (write, read-frees-space, close) or the select
 *    deadline on the virtual clock wakes them;
 *  - fork shares open-file descriptions: parent and child advance one
 *    offset.
 */

#include <gtest/gtest.h>

#include <vector>

#include "check/invariants.h"
#include "guest/context.h"
#include "isa/assembler.h"
#include "isa/interp.h"
#include "obs/metrics.h"
#include "os/kernel.h"
#include "os/sched/sched.h"
#include "sched_util.h"
#include "test_util.h"

namespace cheri
{
namespace
{

using test::admitProgram;
using test::makeGuest;
using test::presetBufArg;
using test::GuestSystem;
using test::SchedGuest;

class FdBothAbis : public ::testing::TestWithParam<Abi>
{
  protected:
    GuestSystem sys{GetParam()};
    GuestContext &ctx() { return *sys.ctx; }
    Process &proc() { return *sys.proc; }
    Kernel &kern() { return sys.kern; }

    /** pipe(2), returning the two descriptors. */
    std::pair<int, int>
    makePipe(u32 flags = 0)
    {
        GuestPtr fds = ctx().mmap(pageSize);
        EXPECT_EQ(ctx().pipe(fds, flags), 0);
        return {ctx().load<std::int32_t>(fds),
                ctx().load<std::int32_t>(fds, 4)};
    }
};

TEST_P(FdBothAbis, EpipeDefaultDispositionKillsWriter)
{
    auto [rfd, wfd] = makePipe();
    GuestPtr buf = ctx().mmap(pageSize);
    ASSERT_EQ(ctx().close(rfd), 0);
    // No read ends left: EPIPE, and the unhandled SIG_PIPE terminates
    // the writer through the same teardown as a capability fault.
    EXPECT_EQ(ctx().write(wfd, buf, 4), -E_PIPE);
    EXPECT_TRUE(proc().exited());
    ASSERT_TRUE(proc().death().has_value());
    EXPECT_EQ(proc().death()->signal, SIG_PIPE);
    EXPECT_EQ(kern().counters().fd.epipeErrors, 1u);
}

TEST_P(FdBothAbis, EpipeIgnoredIsJustErrno)
{
    auto [rfd, wfd] = makePipe();
    GuestPtr buf = ctx().mmap(pageSize);
    kern().sysSigaction(proc(), SIG_PIPE, {SigAction::Kind::Ignore, 0});
    ASSERT_EQ(ctx().close(rfd), 0);
    EXPECT_EQ(ctx().write(wfd, buf, 4), -E_PIPE);
    EXPECT_FALSE(proc().exited());
}

TEST_P(FdBothAbis, EpipeHandlerRunsBeforeErrnoReturns)
{
    auto [rfd, wfd] = makePipe();
    GuestPtr buf = ctx().mmap(pageSize);
    int runs = 0;
    u64 hid = proc().registerHandler([&](Process &, SigFrame &f) {
        ++runs;
        EXPECT_EQ(f.signo, SIG_PIPE);
    });
    kern().sysSigaction(proc(), SIG_PIPE,
                        {SigAction::Kind::Handler, hid});
    ASSERT_EQ(ctx().close(rfd), 0);
    EXPECT_EQ(ctx().write(wfd, buf, 4), -E_PIPE);
    EXPECT_EQ(runs, 1);
    EXPECT_FALSE(proc().exited());
}

TEST_P(FdBothAbis, EofAfterWriterClosesDrainsThenZero)
{
    auto [rfd, wfd] = makePipe();
    GuestPtr buf = ctx().mmap(pageSize);
    const char msg[] = "tail";
    ctx().write(buf, msg, 4);
    ASSERT_EQ(ctx().write(wfd, buf, 4), 4);
    ASSERT_EQ(ctx().close(wfd), 0);
    // Buffered bytes first, EOF after — not an error in either order.
    EXPECT_EQ(ctx().read(rfd, buf, 4), 4);
    EXPECT_EQ(ctx().read(rfd, buf, 4), 0);
    EXPECT_EQ(ctx().read(rfd, buf, 4), 0);
}

TEST_P(FdBothAbis, NonblockRoundTripsEagainAndNeverWritesZero)
{
    auto [rfd, wfd] = makePipe(O_NONBLOCK);
    GuestPtr buf = ctx().mmap(pageSize);
    // Empty pipe, live writer: E_AGAIN (not E_INTR, not EOF).
    EXPECT_EQ(ctx().read(rfd, buf, 8), -E_AGAIN);
    // Fill to capacity one page at a time; the final write is partial,
    // never 0, and the first over-capacity write is E_AGAIN.
    u64 total = 0;
    for (;;) {
        s64 n = ctx().write(wfd, buf, pageSize);
        if (n == -E_AGAIN)
            break;
        ASSERT_GT(n, 0) << "nonzero-length pipe write returned "
                        << n << " after " << total << " bytes";
        total += static_cast<u64>(n);
        ASSERT_LE(total, ByteChannel::capacity);
    }
    EXPECT_EQ(total, ByteChannel::capacity);
    EXPECT_GE(kern().counters().fd.eagainErrors, 2u);
    // Draining frees space for the writer again.
    EXPECT_EQ(ctx().read(rfd, buf, pageSize),
              static_cast<s64>(pageSize));
    EXPECT_EQ(ctx().write(wfd, buf, 8), 8);
}

TEST_P(FdBothAbis, PipeRejectsUnknownFlags)
{
    int fds[2] = {-1, -1};
    EXPECT_EQ(kern().sysPipe(proc(), fds, 0x8000).error, E_INVAL);
}

TEST_P(FdBothAbis, ForkSharesOpenFileOffset)
{
    s64 fd = ctx().open("/tmp/shared", O_RDWR | O_CREAT);
    ASSERT_GE(fd, 0);
    GuestPtr buf = ctx().mmap(pageSize);
    const char msg[] = "abcdef";
    ctx().write(buf, msg, 6);
    ASSERT_EQ(ctx().write(static_cast<int>(fd), buf, 6), 6);
    ASSERT_EQ(ctx().lseek(static_cast<int>(fd), 0, 0), 0);

    // Fork shares the open-file description: the child's read moves
    // the one offset both processes see.
    Process *child = kern().fork(proc());
    ASSERT_NE(child, nullptr);
    std::vector<u8> tmp(8, 0);
    SysResult r = kern().sysRead(*child, static_cast<int>(fd),
                                 ctx().toUser(buf), 3);
    ASSERT_EQ(r.error, E_OK);
    EXPECT_EQ(r.value, 3u);
    EXPECT_EQ(ctx().read(static_cast<int>(fd), buf, 3), 3);
    char got[4] = {};
    ctx().read(buf, got, 3);
    EXPECT_EQ(std::string(got, 3), "def") << "offset was not shared";
}

TEST_P(FdBothAbis, SelectZeroTimeoutPollsImmediately)
{
    auto [rfd, wfd] = makePipe();
    GuestPtr sets = ctx().mmap(pageSize);
    ctx().store<u64>(sets, 0, u64{1} << rfd);  // readfds
    ctx().store<u64>(sets, 16, 0);             // tv = {0, 0}
    ctx().store<u64>(sets, 24, 0);
    // Hosted caller, empty pipe, zero timeout: returns 0 at once.
    EXPECT_EQ(ctx().select(rfd + 1, sets, GuestPtr(), GuestPtr(),
                           sets + 16),
              0);
    EXPECT_EQ(ctx().load<u64>(sets), 0u) << "set must be cleared";
    // Make it readable: the same poll reports the bit.
    GuestPtr buf = ctx().mmap(pageSize);
    ASSERT_EQ(ctx().write(wfd, buf, 1), 1);
    ctx().store<u64>(sets, 0, u64{1} << rfd);
    EXPECT_EQ(ctx().select(rfd + 1, sets, GuestPtr(), GuestPtr(),
                           sets + 16),
              1);
    EXPECT_EQ(ctx().load<u64>(sets), u64{1} << rfd);
}

INSTANTIATE_TEST_SUITE_P(Abis, FdBothAbis,
                         ::testing::Values(Abi::Mips64, Abi::CheriAbi),
                         [](const auto &info) {
                             return info.param == Abi::CheriAbi
                                        ? "cheriabi"
                                        : "mips64";
                         });

// --- Scheduled (interpreted) blocking behavior ---

/** Install the shared pipe ends into both guests' fd tables; returns
 *  (read fd, write fd) — identical slots in both processes. */
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

class FdSchedTest : public ::testing::TestWithParam<Abi>
{
};

TEST_P(FdSchedTest, BlockedReaderParksUntilCrossProcessWrite)
{
    Abi abi = GetParam();
    obs::Metrics metrics; // must outlive the kernel
    KernelConfig cfg;
    cfg.timeSliceSteps = 32;
    Kernel kern(cfg);
    kern.setMetrics(&metrics);
    sched::Scheduler &s = sched::schedulerFor(kern);

    SchedGuest reader = makeGuest(kern, abi, "pipe-reader");
    SchedGuest writer = makeGuest(kern, abi, "pipe-writer");
    auto [rfd, wfd] = sharePipe(reader, writer, Vfs::makePipe());

    // Reader: read(rfd, buf, 16) then halt.  Argument registers are
    // preset host-side; the restarted syscall re-reads them intact.
    isa::Assembler rp;
    rp.syscall(static_cast<s64>(SysNum::Read)).halt();
    sched::ExecContext &rcx = admitProgram(s, reader, rp);
    rcx.interp->regs().x[4] = static_cast<u64>(rfd);
    presetBufArg(reader, rcx);
    rcx.interp->regs().x[6] = 16;

    // Writer: sleep 500 virtual ticks (the reader must PARK across
    // this, not spin), then write 16 bytes and halt.
    const char payload[16] = "fifteen-bytes..";
    ASSERT_FALSE(
        writer.proc->as().writeBytes(writer.data, payload, 16));
    isa::Assembler wp;
    wp.li(4, 500)
        .syscall(static_cast<s64>(SysNum::Sleep))
        .li(4, wfd);
    if (abi == Abi::CheriAbi)
        wp.cmove(5, 8);
    else
        wp.move(5, 8);
    wp.li(6, 16).syscall(static_cast<s64>(SysNum::Write)).halt();
    sched::ExecContext &wcx = admitProgram(s, writer, wp);
    wcx.interp->regs().x[8] = writer.data;
    wcx.interp->regs().c[8] =
        writer.proc->as()
            .capForRange(writer.data, pageSize,
                         PROT_READ | PROT_WRITE, false)
            .setAddress(writer.data);

    kern.runUntilIdle();

    ASSERT_EQ(rcx.last.status, isa::InterpResult::Status::Halted);
    ASSERT_EQ(wcx.last.status, isa::InterpResult::Status::Halted);
    // The read returned the writer's bytes...
    EXPECT_EQ(rcx.interp->regs().x[regRetVal], 16u);
    char got[16] = {};
    ASSERT_FALSE(reader.proc->as().readBytes(reader.data, got, 16));
    EXPECT_EQ(std::string(got, 16), std::string(payload, 16));
    // ...and the reader PARKED for the writer's whole 500-tick sleep:
    // its program is 2 instructions, so even counting the restarted
    // syscall it retires a handful of steps — a spinning reader would
    // retire hundreds.
    EXPECT_LE(rcx.retired(), 8u) << "reader spun instead of parking";
    const SchedStats &st = s.stats();
    EXPECT_GE(st.blocksFd, 1u);
    EXPECT_GE(kern.counters().fd.blocks, 1u);
    EXPECT_GE(kern.counters().fd.wakes, 1u);
    // The whole-system invariant oracle still passes.
    check::Report rep = check::Invariants::check(kern);
    EXPECT_TRUE(rep.violations.empty())
        << rep.violations.front().detail;
}

TEST_P(FdSchedTest, BlockedWriterWokenWhenReadFreesSpace)
{
    Abi abi = GetParam();
    KernelConfig cfg;
    cfg.timeSliceSteps = 32;
    Kernel kern(cfg);
    sched::Scheduler &s = sched::schedulerFor(kern);

    SchedGuest writer = makeGuest(kern, abi, "full-writer");
    SchedGuest reader = makeGuest(kern, abi, "slow-reader");
    auto pipe = Vfs::makePipe();
    auto [rfd, wfd] = sharePipe(writer, reader, pipe);

    // Pre-fill the channel to capacity from the host side.
    OpenFile fill;
    fill.node = pipe.second;
    fill.flags = O_WRONLY;
    std::vector<u8> bulk(ByteChannel::capacity, 0x5a);
    ASSERT_EQ(Vfs::write(fill, bulk.data(), bulk.size()),
              static_cast<s64>(ByteChannel::capacity));

    // Writer: write(wfd, buf, 64) — blocks on the full pipe.
    isa::Assembler wp;
    wp.syscall(static_cast<s64>(SysNum::Write)).halt();
    sched::ExecContext &wcx = admitProgram(s, writer, wp);
    wcx.interp->regs().x[4] = static_cast<u64>(wfd);
    presetBufArg(writer, wcx);
    wcx.interp->regs().x[6] = 64;

    // Reader: sleep, then read a page — freeing space wakes the writer.
    isa::Assembler rp;
    rp.li(4, 200).syscall(static_cast<s64>(SysNum::Sleep)).li(4, rfd);
    if (abi == Abi::CheriAbi)
        rp.cmove(5, 8);
    else
        rp.move(5, 8);
    rp.li(6, static_cast<s64>(pageSize))
        .syscall(static_cast<s64>(SysNum::Read))
        .halt();
    sched::ExecContext &rcx = admitProgram(s, reader, rp);
    rcx.interp->regs().x[8] = reader.data;
    rcx.interp->regs().c[8] =
        reader.proc->as()
            .capForRange(reader.data, pageSize,
                         PROT_READ | PROT_WRITE, false)
            .setAddress(reader.data);

    kern.runUntilIdle();

    ASSERT_EQ(wcx.last.status, isa::InterpResult::Status::Halted);
    ASSERT_EQ(rcx.last.status, isa::InterpResult::Status::Halted);
    EXPECT_EQ(wcx.interp->regs().x[regRetVal], 64u);
    EXPECT_EQ(rcx.interp->regs().x[regRetVal], pageSize);
    EXPECT_GE(s.stats().blocksFd, 1u);
    EXPECT_GE(kern.counters().fd.wakes, 1u);
}

INSTANTIATE_TEST_SUITE_P(Abis, FdSchedTest,
                         ::testing::Values(Abi::Mips64, Abi::CheriAbi),
                         [](const auto &info) {
                             return info.param == Abi::CheriAbi
                                        ? "cheriabi"
                                        : "mips64";
                         });

TEST(FdSelectSchedTest, BlockedSelectWokenByVirtualClockTimeout)
{
    obs::Metrics metrics;
    KernelConfig cfg;
    cfg.timeSliceSteps = 32;
    Kernel kern(cfg);
    kern.setMetrics(&metrics);
    sched::Scheduler &s = sched::schedulerFor(kern);

    SchedGuest g = makeGuest(kern, Abi::Mips64, "select-timeout");
    SchedGuest other = makeGuest(kern, Abi::Mips64, "idle-peer");
    auto [rfd, wfd] = sharePipe(g, other, Vfs::makePipe());
    (void)wfd;

    // readfds = {rfd} at data+0, tv = {200, 0} at data+16; nothing
    // ever writes, so only the deadline can end the select.
    u64 mask = u64{1} << rfd;
    u64 tv[2] = {200, 0};
    ASSERT_FALSE(g.proc->as().writeBytes(g.data, &mask, 8));
    ASSERT_FALSE(g.proc->as().writeBytes(g.data + 16, tv, 16));

    isa::Assembler a;
    a.syscall(static_cast<s64>(SysNum::Select)).halt();
    sched::ExecContext &cx = admitProgram(s, g, a);
    ThreadRegs &r = cx.interp->regs();
    r.x[4] = static_cast<u64>(rfd) + 1;
    r.x[5] = g.data;      // readfds
    r.x[6] = 0;           // writefds: null
    r.x[7] = 0;           // exceptfds: null
    r.x[8] = g.data + 16; // timeout

    kern.runUntilIdle();

    ASSERT_EQ(cx.last.status, isa::InterpResult::Status::Halted);
    EXPECT_EQ(cx.interp->regs().x[regRetVal], 0u);
    // The virtual clock idle-advanced to the deadline; the guest never
    // spun the 200 ticks down.
    EXPECT_GE(s.now(), 200u);
    EXPECT_LE(cx.retired(), 8u) << "select spun instead of parking";
    EXPECT_EQ(kern.counters().fd.selectTimeouts, 1u);
    EXPECT_GE(kern.counters().fd.blocks, 1u);
    u64 out = ~u64{0};
    ASSERT_FALSE(g.proc->as().readBytes(g.data, &out, 8));
    EXPECT_EQ(out, 0u) << "timed-out select must clear the sets";
    check::Report rep = check::Invariants::check(kern);
    EXPECT_TRUE(rep.violations.empty())
        << rep.violations.front().detail;
}

TEST(FdSelectSchedTest, BlockedSelectWokenByDataBeforeDeadline)
{
    KernelConfig cfg;
    cfg.timeSliceSteps = 32;
    Kernel kern(cfg);
    sched::Scheduler &s = sched::schedulerFor(kern);

    SchedGuest sel = makeGuest(kern, Abi::Mips64, "select-data");
    SchedGuest wr = makeGuest(kern, Abi::Mips64, "select-writer");
    auto [rfd, wfd] = sharePipe(sel, wr, Vfs::makePipe());

    u64 mask = u64{1} << rfd;
    u64 tv[2] = {100000, 0};
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

    // The writer sleeps 50 ticks, then writes one byte.
    isa::Assembler w;
    w.li(4, 50)
        .syscall(static_cast<s64>(SysNum::Sleep))
        .li(4, wfd)
        .move(5, 8)
        .li(6, 1)
        .syscall(static_cast<s64>(SysNum::Write))
        .halt();
    sched::ExecContext &wcx = admitProgram(s, wr, w);
    wcx.interp->regs().x[8] = wr.data;

    kern.runUntilIdle();

    ASSERT_EQ(cx.last.status, isa::InterpResult::Status::Halted);
    EXPECT_EQ(cx.interp->regs().x[regRetVal], 1u)
        << "select must report the readable fd, not the timeout";
    u64 out = 0;
    ASSERT_FALSE(sel.proc->as().readBytes(sel.data, &out, 8));
    EXPECT_EQ(out, u64{1} << rfd);
    EXPECT_EQ(kern.counters().fd.selectTimeouts, 0u);
    // Data arrived at tick ~50: nobody waited for the far deadline.
    EXPECT_LT(s.now(), 100000u);
    (void)wcx;
}

TEST(FdSchedCloseTest, ReaderBlockedOnPipeSeesEofWhenWriterExits)
{
    KernelConfig cfg;
    cfg.timeSliceSteps = 32;
    Kernel kern(cfg);
    sched::Scheduler &s = sched::schedulerFor(kern);

    SchedGuest reader = makeGuest(kern, Abi::Mips64, "eof-reader");
    SchedGuest writer = makeGuest(kern, Abi::Mips64, "exiting-writer");
    auto [rfd, wfd] = sharePipe(reader, writer, Vfs::makePipe());

    // The reader drops ITS OWN write end first — otherwise its fd
    // table keeps the pipe writable forever — then blocks reading.
    ASSERT_EQ(reader.proc->closeFd(wfd), E_OK);

    isa::Assembler rp;
    rp.syscall(static_cast<s64>(SysNum::Read)).halt();
    sched::ExecContext &rcx = admitProgram(s, reader, rp);
    rcx.interp->regs().x[4] = static_cast<u64>(rfd);
    presetBufArg(reader, rcx);
    rcx.interp->regs().x[6] = 16;

    // The writer never writes: it sleeps then exits.  Process-exit
    // teardown closes its fds; the last write end fires the EOF edge.
    isa::Assembler wp;
    wp.li(4, 300)
        .syscall(static_cast<s64>(SysNum::Sleep))
        .li(4, 0)
        .syscall(static_cast<s64>(SysNum::Exit))
        .halt();
    admitProgram(s, writer, wp);

    kern.runUntilIdle();

    ASSERT_EQ(rcx.last.status, isa::InterpResult::Status::Halted);
    EXPECT_EQ(rcx.interp->regs().x[regRetVal], 0u)
        << "blocked reader must wake to EOF when the writer dies";
    EXPECT_GE(s.stats().blocksFd, 1u);
}

} // namespace
} // namespace cheri
