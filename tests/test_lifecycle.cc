/**
 * @file
 * Process death: every way a process ends runs the kernel's one
 * teardown (Kernel::endProcess).
 *
 * One table row per cause of death.  Each row forks a victim from an
 * interpreted parent parked in wait4 on it, gives the victim the only
 * write end of a pipe whose read end the parent holds, kills the victim
 * its own way, and checks what the teardown promises:
 *
 *  - the victim holds no mappings (memory and swap went back to the
 *    pools) and the invariant oracle, rule 8 included, is clean;
 *  - the parent reads EOF from the pipe (the file table was closed);
 *  - the parent has SIG_CHLD pending;
 *  - the parked parent wakes and its restarted wait4 reaps the victim.
 */

#include <gtest/gtest.h>

#include <functional>
#include <ostream>
#include <string>

#include "check/invariants.h"
#include "os/kernel.h"
#include "os/sys_invoke.h"
#include "sched_util.h"

namespace cheri
{
namespace
{

using test::admitProgram;
using test::makeGuest;
using test::SchedGuest;

/** A parent parked in wait4 on a forked victim that holds the only
 *  write end of the parent's pipe. */
struct Family
{
    explicit Family(Abi abi)
    {
        KernelConfig cfg;
        cfg.timeSliceSteps = 32;
        kern = std::make_unique<Kernel>(cfg);
        sched::Scheduler &s = sched::schedulerFor(*kern);
        parent = makeGuest(*kern, abi, "parent");
        victim = kern->fork(*parent.proc);
        if (!victim)
            throw std::runtime_error("fork failed");
        auto pipe = Vfs::makePipe();
        rfd = parent.proc->allocFd(openEnd(pipe.first, O_RDONLY |
                                                           O_NONBLOCK));
        victim->allocFd(openEnd(pipe.second, O_WRONLY));
        isa::Assembler a;
        a.li(4, static_cast<s64>(victim->pid()))
            .syscall(static_cast<s64>(SysNum::Wait4))
            .halt();
        cx = &admitProgram(s, parent, a);
        kern->runUntilIdle();
    }

    static OpenFileRef
    openEnd(const VNodeRef &node, u32 flags)
    {
        auto of = std::make_shared<OpenFile>();
        of->node = node;
        of->flags = flags;
        return of;
    }

    /** A user pointer into @p p's copy of the parent's data page (fork
     *  shared it), as @p p's ABI passes one. */
    UserPtr
    dataPtr(Process &p)
    {
        if (p.abi() != Abi::CheriAbi)
            return UserPtr::fromAddr(parent.data);
        return UserPtr::fromCap(p.as()
                                    .capForRange(parent.data, pageSize,
                                                 PROT_READ | PROT_WRITE,
                                                 false)
                                    .setAddress(parent.data));
    }

    /** Register a SIG_USR1 handler in the victim running @p fn. */
    void
    victimHandler(std::function<void(Process &, SigFrame &)> fn)
    {
        u64 hid = victim->registerHandler(std::move(fn));
        kern->sysSigaction(*victim, SIG_USR1,
                           {SigAction::Kind::Handler, hid});
    }

    /** Send @p sig to the victim and let the kernel act on it. */
    void
    signalVictim(int sig)
    {
        ASSERT_EQ(kern->sysKill(*parent.proc, victim->pid(), sig).error,
                  E_OK);
        kern->deliverSignals(*victim);
    }

    std::unique_ptr<Kernel> kern;
    SchedGuest parent;
    Process *victim = nullptr;
    sched::ExecContext *cx = nullptr;
    int rfd = -1;
};

u64
mappingCount(const Process &p)
{
    u64 n = 0;
    p.as().forEachMapping([&](const Mapping &) { ++n; });
    return n;
}

struct DeathCase
{
    const char *name;
    std::function<void(Family &)> kill;
    int status;
    /** What the parent's reap reports. */
    int waitErr = E_OK;
};

void
PrintTo(const DeathCase &c, std::ostream *os)
{
    *os << c.name;
}

const DeathCase deathCases[] = {
    {"exit",
     [](Family &f) {
         sysInvoke(*f.kern, *f.victim, SysNum::Exit, {SysArg::i(3)});
     },
     3},
    {"last_thread_exit",
     [](Family &f) {
         f.kern->sysThrExit(*f.victim, f.victim->currentTid());
     },
     0},
    {"capability_fault",
     [](Family &f) {
         DeathInfo di;
         di.fault = CapFault::LengthViolation;
         di.faultAddr = f.parent.data + pageSize;
         f.kern->faultProcess(*f.victim, di);
     },
     128 + SIG_PROT},
    {"sigpipe",
     [](Family &f) {
         // A pipe whose only read end the victim closes (the node
         // refs go out of scope first, so the close is the last one).
         int r, w;
         {
             auto pipe = Vfs::makePipe();
             r = f.victim->allocFd(Family::openEnd(pipe.first, O_RDONLY));
             w = f.victim->allocFd(Family::openEnd(pipe.second, O_WRONLY));
         }
         ASSERT_EQ(f.kern->sysClose(*f.victim, r).error, E_OK);
         UserPtr buf = f.dataPtr(*f.victim);
         EXPECT_EQ(f.kern->sysWrite(*f.victim, w, buf, 4).error, E_PIPE);
     },
     128 + SIG_PIPE},
    {"oom_kill",
     [](Family &f) {
         // The victim grows largest; a third process's demand faults
         // then find memory clamped shut and swap full.
         Kernel &k = *f.kern;
         const u8 byte = 0x5a;
         u64 big = f.victim->as().map(0, 24 * pageSize,
                                      PROT_READ | PROT_WRITE,
                                      MappingKind::Data);
         for (u64 p = 0; p < 24; ++p)
             ASSERT_FALSE(
                 f.victim->as().writeBytes(big + p * pageSize, &byte, 1));
         SchedGuest other = makeGuest(k, f.victim->abi(), "requester");
         k.physMem().setCapacity(k.physMem().liveFrames() + 2);
         k.swapDevice().setSlotBudget(2);
         u64 va = other.proc->as().map(0, 8 * pageSize,
                                       PROT_READ | PROT_WRITE,
                                       MappingKind::Data);
         for (u64 p = 0; p < 8 && !f.victim->exited(); ++p)
             other.proc->as().writeBytes(va + p * pageSize, &byte, 1);
         EXPECT_EQ(k.counters().pressure.oomKills, 1u);
     },
     128 + SIG_KILL},
    {"deadlock_kill",
     [](Family &f) { f.kern->deadlockKill(*f.victim, "planted cycle"); },
     128 + SIG_KILL, E_DEADLK},
    {"kill",
     [](Family &f) {
         ASSERT_EQ(f.kern->sysKill(*f.parent.proc, f.victim->pid(),
                                   SIG_KILL)
                       .error,
                   E_OK);
     },
     128 + SIG_KILL},
    {"default_signal", [](Family &f) { f.signalVictim(SIG_TERM); },
     128 + SIG_TERM},
    {"sigframe_spill",
     [](Family &f) {
         // A stack pointer into unmapped memory: the frame cannot be
         // spilled.
         f.victimHandler([](Process &, SigFrame &) {});
         const u64 sp = 0x10000;
         ASSERT_EQ(f.victim->as().findMapping(sp - pageSize), nullptr);
         f.victim->regs().stack() =
             f.victim->regs().stack().setAddress(sp);
         f.signalVictim(SIG_USR1);
     },
     128 + SIG_USR1},
    {"sigframe_restore",
     [](Family &f) {
         // The handler unmaps its own frame: sigreturn cannot restore.
         // (A frame is at most 592 bytes and lies below the stack
         // pointer, inside the stack mapping.)
         f.victimHandler([](Process &p, SigFrame &frame) {
             u64 first = frame.frameVa & ~(pageSize - 1);
             u64 end = (frame.frameVa + 592 + pageSize - 1) &
                       ~(pageSize - 1);
             ASSERT_TRUE(p.as().unmap(first, end - first));
         });
         f.signalVictim(SIG_USR1);
     },
     128 + SIG_USR1},
};

class ProcessDeath
    : public ::testing::TestWithParam<std::tuple<Abi, DeathCase>>
{
};

TEST_P(ProcessDeath, RunsTheOneTeardown)
{
    auto [abi, dc] = GetParam();
    Family f(abi);
    ASSERT_EQ(f.cx->state, sched::ExecContext::State::Blocked)
        << "the parent must be parked in wait4";
    ASSERT_GT(mappingCount(*f.victim), 0u);
    const u64 vpid = f.victim->pid();

    dc.kill(f);
    ASSERT_TRUE(f.victim->exited());
    EXPECT_EQ(f.victim->exitStatus(), dc.status);

    EXPECT_EQ(mappingCount(*f.victim), 0u) << "memory outlived the death";
    EXPECT_EQ(f.victim->as().swappedPages(), 0u);
    SysResult rd =
        f.kern->sysRead(*f.parent.proc, f.rfd, f.dataPtr(*f.parent.proc), 8);
    EXPECT_EQ(rd.error, E_OK) << "the pipe peer must read EOF";
    EXPECT_EQ(rd.value, 0u);
    EXPECT_TRUE(f.parent.proc->pendingSignals() & (u64{1} << SIG_CHLD));
    check::Report rep = check::Invariants::check(*f.kern);
    EXPECT_TRUE(rep.ok()) << rep.toString();

    // The teardown's scheduler edge wakes the parent; its restarted
    // wait4 reaps the victim.
    f.kern->runUntilIdle();
    ASSERT_EQ(f.cx->last.status, isa::InterpResult::Status::Halted);
    const ThreadRegs &r = f.cx->interp->regs();
    if (dc.waitErr == E_OK) {
        EXPECT_EQ(r.x[regSysErr], 0u);
        EXPECT_EQ(r.x[regRetVal], vpid);
    } else {
        EXPECT_EQ(r.x[regSysErr], 1u);
        EXPECT_EQ(r.x[regRetVal], static_cast<u64>(dc.waitErr));
    }
    EXPECT_EQ(f.kern->findProcess(vpid), nullptr) << "victim not reaped";
}

TEST(ProcessDeathUnderScheduler, InterpretedCapabilityFaultRunsTheTeardown)
{
    // The victim runs interpreted code that loads a capability through
    // c0, the NULL DDC of a CheriABI process: SIG_PROT with no handler.
    // Checked in the slice the victim dies in, before its parent runs
    // again and reaps it (the reap also drops the victim's context).
    Family f(Abi::CheriAbi);
    ASSERT_EQ(f.cx->state, sched::ExecContext::State::Blocked);
    const u64 vpid = f.victim->pid();
    sched::Scheduler &s = sched::schedulerFor(*f.kern);
    isa::Assembler a;
    a.clc(5, 0, 0).halt();
    SchedGuest victim{f.victim, f.parent.code, f.parent.data};
    sched::ExecContext &vcx = admitProgram(s, victim, a);

    bool sawDeath = false;
    s.setSliceHook([&](Process &p) {
        if (p.pid() != vpid)
            return;
        sawDeath = true;
        EXPECT_EQ(vcx.last.status, isa::InterpResult::Status::Fault);
        ASSERT_TRUE(p.exited());
        ASSERT_TRUE(p.death());
        EXPECT_EQ(p.death()->signal, SIG_PROT);
        EXPECT_NE(p.death()->fault, CapFault::None);
        EXPECT_EQ(p.death()->detail, "clc faulted");
        EXPECT_EQ(p.exitStatus(), 128 + SIG_PROT);
        EXPECT_EQ(mappingCount(p), 0u) << "memory outlived the death";
        SysResult rd = f.kern->sysRead(*f.parent.proc, f.rfd,
                                       f.dataPtr(*f.parent.proc), 8);
        EXPECT_EQ(rd.error, E_OK) << "the pipe peer must read EOF";
        EXPECT_EQ(rd.value, 0u);
        EXPECT_TRUE(f.parent.proc->pendingSignals() & (u64{1} << SIG_CHLD));
        check::Report rep = check::Invariants::check(*f.kern);
        EXPECT_TRUE(rep.ok()) << rep.toString();
    });
    f.kern->runUntilIdle();
    s.setSliceHook(nullptr);

    EXPECT_TRUE(sawDeath);
    // The teardown woke the parked parent; its wait4 reaped the victim.
    ASSERT_EQ(f.cx->last.status, isa::InterpResult::Status::Halted);
    const ThreadRegs &r = f.cx->interp->regs();
    EXPECT_EQ(r.x[regSysErr], 0u);
    EXPECT_EQ(r.x[regRetVal], vpid);
    EXPECT_EQ(f.kern->findProcess(vpid), nullptr) << "victim not reaped";
}

TEST(ProcessDeathUnderScheduler, InterpretedFetchFaultIsReportedAsAFetch)
{
    // PCC covers two instructions; the third fetch is out of bounds.
    // No instruction was fetched, so the death names the fetch.
    Family f(Abi::CheriAbi);
    const u64 vpid = f.victim->pid();
    sched::Scheduler &s = sched::schedulerFor(*f.kern);
    isa::Assembler a;
    a.nop().nop().nop().halt();
    SchedGuest victim{f.victim, f.parent.code, f.parent.data};
    sched::ExecContext &vcx = admitProgram(s, victim, a);
    vcx.interp->setEntry(f.victim->as()
                             .capForRange(f.parent.code, pageSize,
                                          PROT_READ | PROT_EXEC, false)
                             .setAddress(f.parent.code)
                             .setBounds(2 * isa::insnSize)
                             .value());

    bool sawDeath = false;
    s.setSliceHook([&](Process &p) {
        if (p.pid() != vpid)
            return;
        sawDeath = true;
        ASSERT_EQ(vcx.last.status, isa::InterpResult::Status::Fault);
        EXPECT_FALSE(vcx.last.faultOp.has_value());
        ASSERT_TRUE(p.death());
        EXPECT_EQ(p.death()->fault, CapFault::LengthViolation);
        EXPECT_EQ(p.death()->detail, "instruction fetch faulted");
    });
    f.kern->runUntilIdle();
    s.setSliceHook(nullptr);
    EXPECT_TRUE(sawDeath);
}

INSTANTIATE_TEST_SUITE_P(
    Causes, ProcessDeath,
    ::testing::Combine(::testing::Values(Abi::Mips64, Abi::CheriAbi),
                       ::testing::ValuesIn(deathCases)),
    [](const auto &info) {
        return std::string(std::get<0>(info.param) == Abi::CheriAbi
                               ? "cheriabi_"
                               : "mips64_") +
               std::get<1>(info.param).name;
    });

} // namespace
} // namespace cheri
