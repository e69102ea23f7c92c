/**
 * @file
 * Pipe bench: what blocking FD I/O buys over spin-retry.
 *
 * A producer guest pushes 256 KiB through a 64 KiB pipe to a consumer
 * guest, both time-sliced by the kernel scheduler.  The transfer is
 * 4x the channel capacity, so neither side can run free: the producer
 * must repeatedly wait for the consumer to drain, and the consumer
 * must repeatedly wait for bytes — the cross-process hand-off pattern.
 *
 * Two arms run the *identical* guest programs; only the descriptor
 * flags differ:
 *
 *  - blocking (the PR 8 semantics): a would-block read/write parks
 *    the context on the channel's wait token and the opposite side's
 *    progress wakes it.  A parked context retires zero steps.
 *  - spin-retry (O_NONBLOCK, the only option before blocking I/O):
 *    a would-block call returns E_AGAIN and the guest loops back to
 *    reissue the syscall, burning its whole time slice polling.
 *
 * The figure of merit is bytes moved per retired guest step — work
 * efficiency, independent of host timer noise.  --check exits nonzero
 * unless the blocking arm clears a 2x efficiency floor over spin-retry
 * and actually parked (nonzero scheduler fd-blocks, zero for the spin
 * arm).
 */

#include <cstdlib>
#include <stdexcept>

#include "bench_util.h"
#include "isa/assembler.h"
#include "isa/interp.h"
#include "os/kernel.h"
#include "os/sched/sched.h"

using namespace cheri;

namespace
{

/** Bytes per guest read/write: the full channel capacity, so every
 *  successful write fills the pipe and every successful read drains
 *  it — each transfer forces a genuine hand-off (the next call on the
 *  same side must wait for the peer).  The channel only ever flips
 *  between empty and full, so transfers are always exactly kChunk and
 *  the byte countdown in x9 hits zero exactly. */
constexpr u64 kChunk = ByteChannel::capacity;
/** Total bytes the producer pushes: 4 full-pipe hand-off cycles. */
constexpr u64 kTotal = 4 * ByteChannel::capacity;
constexpr u64 kSlice = 64;

struct Guest
{
    Process *proc = nullptr;
    sched::ExecContext *cx = nullptr;
    u64 code = 0;
    u64 data = 0;
};

u64
envOr(const char *name, u64 dflt)
{
    const char *v = std::getenv(name);
    return v && *v ? std::strtoull(v, nullptr, 0) : dflt;
}

/**
 * The transfer loop, shared by producer (Write) and consumer (Read)
 * and by both arms:
 *
 *     x9 = kTotal
 *   loop:
 *     x4 = fd, x5/c5 = buffer, x6 = kChunk
 *     syscall(op)
 *     if (x2 != 0) goto loop     // E_AGAIN: spin-retry arm only —
 *                                // a blocked call restarts instead
 *                                // and never reaches this branch
 *     x9 -= x3                   // bytes actually moved
 *     if (x9 != 0) goto loop
 *     halt
 */
isa::Assembler
transferLoop(int fd, SysNum op)
{
    isa::Assembler a;
    a.li(9, static_cast<s64>(kTotal))
        .label("loop")
        .li(4, fd)
        .move(5, 8)
        .li(6, static_cast<s64>(kChunk))
        .syscall(static_cast<s64>(op))
        .bne(2, 0, "loop")
        .sub(9, 9, 3)
        .bne(9, 0, "loop")
        .halt();
    return a;
}

Guest
makeGuest(Kernel &kern, const char *name)
{
    SelfObject obj;
    obj.name = name;
    Process *proc = kern.spawn(Abi::Mips64, name);
    if (kern.execve(*proc, obj, {name}, {}) != E_OK)
        throw std::runtime_error("execve failed");
    u64 code = proc->as().map(0, pageSize,
                              PROT_READ | PROT_WRITE | PROT_EXEC,
                              MappingKind::Text);
    u64 data = proc->as().map(0, kChunk, PROT_READ | PROT_WRITE,
                              MappingKind::Data);
    return {proc, nullptr, code, data};
}

void
admit(sched::Scheduler &s, Guest &g, isa::Assembler prog)
{
    prog.writeTo(g.proc->as(), g.code);
    sched::ExecContext &cx = s.context(*g.proc);
    cx.interp->setEntry(Capability::fromAddress(g.code));
    cx.interp->regs().x[8] = g.data;
    cx.stepLimit = ~u64{0} >> 1;
    s.ready(cx);
    g.cx = &cx;
}

struct ArmResult
{
    u64 steps = 0;
    u64 fdBlocks = 0;
    u64 wakes = 0;
    u64 eagain = 0;
    bool completed = false;
};

/** One full 256 KiB transfer; @p nonblock selects the spin-retry arm. */
ArmResult
runArm(bool nonblock)
{
    KernelConfig cfg;
    cfg.timeSliceSteps = kSlice;
    // Constrained-memory runs (cheri_verify.sh): parked contexts must
    // survive the reclaimer evicting their pages out from under them.
    cfg.frameCapacity = envOr("CHERI_TEST_FRAME_BUDGET", 0);
    cfg.swapSlotBudget = envOr("CHERI_TEST_SLOT_BUDGET", 0);
    Kernel kern(cfg);
    sched::Scheduler &s = sched::schedulerFor(kern);

    auto [rd, wr] = Vfs::makePipe();
    u32 extra = nonblock ? static_cast<u32>(O_NONBLOCK) : 0;
    auto rof = std::make_shared<OpenFile>();
    rof->node = rd;
    rof->flags = O_RDONLY | extra;
    auto wof = std::make_shared<OpenFile>();
    wof->node = wr;
    wof->flags = O_WRONLY | extra;

    Guest producer = makeGuest(kern, "pipe-producer");
    Guest consumer = makeGuest(kern, "pipe-consumer");
    int wfd = producer.proc->allocFd(wof);
    int rfd = consumer.proc->allocFd(rof);
    admit(s, producer, transferLoop(wfd, SysNum::Write));
    admit(s, consumer, transferLoop(rfd, SysNum::Read));

    kern.runUntilIdle();

    ArmResult r;
    r.steps = s.stats().stepsExecuted;
    r.fdBlocks = s.stats().blocksFd;
    r.wakes = kern.counters().fd.wakes;
    r.eagain = kern.counters().fd.eagainErrors;
    r.completed =
        producer.cx->last.status == isa::InterpResult::Status::Halted &&
        consumer.cx->last.status == isa::InterpResult::Status::Halted;
    return r;
}

double
bytesPerStep(const ArmResult &r)
{
    return r.steps ? static_cast<double>(kTotal) /
                         static_cast<double>(r.steps)
                   : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Report report(argc, argv);
    ArmResult blocking = runArm(false);
    ArmResult spin = runArm(true);

    report.section("Pipe hand-off: blocking I/O vs O_NONBLOCK spin-retry "
                   "(256 KiB through a 64 KiB pipe)");
    for (auto [arm, r] : {std::pair{"blocking (park on edge)", &blocking},
                          std::pair{"spin-retry (E_AGAIN loop)", &spin}}) {
        report.add(arm, "guest steps", r->steps);
        report.add(arm, "moved", bytesPerStep(*r), {.unit = "B/step"});
        report.add(arm, "parked", r->fdBlocks);
        report.add(arm, "woke", r->wakes);
        report.add(arm, "E_AGAINs", r->eagain);
        report.add(arm, "completed", r->completed);
    }
    double spinEff = bytesPerStep(spin);
    double ratio = spinEff > 0 ? bytesPerStep(blocking) / spinEff : 0;
    report.note("");
    report.add("blocking / spin", "efficiency ratio", ratio,
               {.unit = "x", .places = 2});

    report.expect(blocking.completed && spin.completed,
                  "both transfers must complete");
    report.expect(ratio >= 2.0, "blocking/spin efficiency ratio >= 2.0");
    report.expect(blocking.fdBlocks > 0,
                  "the blocking arm must park a context");
    report.expect(spin.fdBlocks == 0, "the O_NONBLOCK arm must never park");
    return report.finish();
}
