/**
 * @file
 * Shared scaffolding for tests that run interpreted guests under the
 * kernel scheduler: a spawned + exec'd process with an RWX code page
 * and a data page, admitted to a scheduler with a program.
 */

#ifndef CHERI_TESTS_SCHED_UTIL_H
#define CHERI_TESTS_SCHED_UTIL_H

#include <stdexcept>

#include "isa/assembler.h"
#include "isa/interp.h"
#include "os/kernel.h"
#include "os/sched/sched.h"

namespace cheri::test
{

/** One scheduled guest: its process and its code and data pages. */
struct SchedGuest
{
    Process *proc = nullptr;
    u64 code = 0;
    u64 data = 0;
};

/** Spawn + execve a process with an RWX code page and a data page. */
inline SchedGuest
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

/** Admit @p g running @p prog under @p s (entry derivation per ABI). */
inline sched::ExecContext &
admitProgram(sched::Scheduler &s, SchedGuest &g, isa::Assembler &prog)
{
    prog.writeTo(g.proc->as(), g.code);
    sched::ExecContext &cx = s.context(*g.proc);
    if (g.proc->abi() == Abi::CheriAbi) {
        cx.interp->setEntry(g.proc->as()
                                .capForRange(g.code, pageSize,
                                             PROT_READ | PROT_EXEC,
                                             false)
                                .setAddress(g.code));
    } else {
        cx.interp->setEntry(Capability::fromAddress(g.code));
    }
    cx.stepLimit = 65536;
    s.ready(cx);
    return cx;
}

/** Point a guest's buffer argument register (x5 for mips64, c5 for
 *  CheriABI) at its own data page. */
inline void
presetBufArg(SchedGuest &g, sched::ExecContext &cx)
{
    cx.interp->regs().x[5] = g.data;
    cx.interp->regs().c[5] =
        g.proc->as()
            .capForRange(g.data, pageSize, PROT_READ | PROT_WRITE,
                         false)
            .setAddress(g.data);
}

} // namespace cheri::test

#endif // CHERI_TESTS_SCHED_UTIL_H
