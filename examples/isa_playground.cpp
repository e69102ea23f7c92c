/**
 * @file
 * Domain example: ISA-level capability semantics.
 *
 * Assembles and runs MiniCHERI machine code inside a CheriABI process:
 * deriving a bounded capability with CSetBounds, faulting precisely at
 * an out-of-bounds CLD, and demonstrating the paper's NULL-DDC rule —
 * the very same legacy load instruction that works in a mips64 process
 * traps immediately in a pure-capability one.  The finale enters the
 * kernel through the numbered syscall ABI and dumps the observability
 * registry (counters, fault telemetry with provenance) as JSON.
 *
 * All guest code executes through the kernel scheduler.  Each demo
 * runs in a process of its own: a capability fault ends the process
 * that takes it (SIGPROT with no handler), so a demo that faults
 * leaves nothing for the next one to run in.
 *
 * Build & run:  ./build/examples/isa_playground
 */

#include <cstdio>

#include "isa/assembler.h"
#include "isa/interp.h"
#include "obs/metrics.h"
#include "os/kernel.h"
#include "os/sched/sched.h"

using namespace cheri;
using namespace cheri::isa;

namespace
{

const char *
statusName(InterpResult::Status s)
{
    switch (s) {
      case InterpResult::Status::Running: return "running";
      case InterpResult::Status::Halted: return "halted";
      case InterpResult::Status::Fault: return "FAULT";
      case InterpResult::Status::StepLimit: return "step limit";
      case InterpResult::Status::Preempted: return "preempted";
    }
    return "?";
}

/** A fresh process with a code page and a data page. */
struct Guest
{
    Process *proc = nullptr;
    u64 code = 0;
    u64 data = 0;
    sched::ExecContext *cx = nullptr;

    Interpreter &interp() { return *cx->interp; }
};

Guest
spawnGuest(Kernel &kern, const SelfObject &prog, Abi abi,
           const std::string &name)
{
    Guest g;
    g.proc = kern.spawn(abi, name);
    kern.execve(*g.proc, prog, {name}, {});
    g.code = g.proc->as().map(0, pageSize,
                              PROT_READ | PROT_WRITE | PROT_EXEC,
                              MappingKind::Text);
    g.data = g.proc->as().map(0, pageSize, PROT_READ | PROT_WRITE,
                              MappingKind::Data);
    g.cx = &sched::schedulerFor(kern).context(*g.proc);
    return g;
}

/** Load @p a at @p g's code page and point PCC at it: an executable
 *  capability under CheriABI, a bare address under mips64. */
void
load(Guest &g, const Assembler &a)
{
    a.writeTo(g.proc->as(), g.code);
    if (g.proc->abi() == Abi::CheriAbi) {
        g.interp().setEntry(g.proc->as()
                                .capForRange(g.code, pageSize,
                                             PROT_READ | PROT_EXEC, false)
                                .setAddress(g.code));
    } else {
        g.interp().setEntry(Capability::fromAddress(g.code));
    }
}

/** Run @p g's context until the kernel is idle; its last result. */
InterpResult
run(Kernel &kern, Guest &g)
{
    sched::schedulerFor(kern).ready(*g.cx);
    kern.runUntilIdle();
    return g.cx->last;
}

} // namespace

int
main()
{
    Kernel kern;
    obs::Metrics metrics;
    kern.setMetrics(&metrics);
    kern.setTrace(&metrics); // learn capability provenance
    SelfObject prog;
    prog.name = "isa";

    std::printf("program: derive a 16-byte capability, fill it, then "
                "walk one word too far\n\n");
    Guest bounds = spawnGuest(kern, prog, Abi::CheriAbi, "isa-bounds");
    Assembler a;
    a.csetboundsimm(2, 1, 16) // c2 = c1 bounded to 16 bytes
        .li(3, 0x11)
        .csd(3, 2, 0)  // in bounds
        .csd(3, 2, 8)  // in bounds
        .cld(4, 2, 16) // one past: traps
        .halt();
    load(bounds, a);
    bounds.interp().regs().c[1] =
        bounds.proc->as()
            .capForRange(bounds.data, pageSize, PROT_READ | PROT_WRITE,
                         false)
            .setAddress(bounds.data);
    InterpResult r = run(kern, bounds);
    std::printf("status: %s after %lu instructions\n",
                statusName(r.status), static_cast<unsigned long>(r.steps));
    std::printf("fault:  %s at pc=0x%lx (instruction #%lu: cld)\n",
                std::string(capFaultName(r.fault)).c_str(),
                static_cast<unsigned long>(r.faultPc),
                static_cast<unsigned long>((r.faultPc - bounds.code) /
                                           insnSize));
    std::printf("c2 was: %s\n\n",
                bounds.interp().regs().c[2].toString().c_str());

    std::printf("now the NULL-DDC rule: `ld r2, 0(r1)` — a legacy "
                "integer load —\n");
    Guest cheri = spawnGuest(kern, prog, Abi::CheriAbi, "isa-cheri");
    Assembler b;
    b.li(1, static_cast<s64>(cheri.data)).ld(2, 1, 0).halt();
    load(cheri, b);
    InterpResult r2 = run(kern, cheri);
    std::printf("  in this CheriABI process: %s (%s) — DDC is NULL\n",
                statusName(r2.status),
                std::string(capFaultName(r2.fault)).c_str());

    Guest legacy = spawnGuest(kern, prog, Abi::Mips64, "isa-legacy");
    Assembler c;
    c.li(1, static_cast<s64>(legacy.data)).ld(2, 1, 0).halt();
    load(legacy, c);
    InterpResult r3 = run(kern, legacy);
    std::printf("  in a mips64 process:      %s — DDC spans the "
                "address space\n",
                statusName(r3.status));

    std::printf("\nfinally, the numbered syscall ABI: `syscall #n` "
                "enters Kernel::dispatch,\nwhich marshals arguments "
                "from the register file and reports errno in "
                "registers\n");
    Guest sys = spawnGuest(kern, prog, Abi::CheriAbi, "isa-syscalls");
    Assembler d;
    d.syscall(static_cast<s64>(SysNum::Getpid))
        .syscall(static_cast<s64>(SysNum::Sbrk)) // CheriABI: E_NOSYS
        .halt();
    load(sys, d);
    ThreadRegs &regs = sys.interp().regs();
    sys.cx->stepLimit = 1; // one instruction this window: getpid first
    run(kern, sys);
    std::printf("  getpid -> err=%lu ret=%lu (the pid)\n",
                static_cast<unsigned long>(regs.x[regSysErr]),
                static_cast<unsigned long>(regs.x[regRetVal]));
    sys.cx->stepLimit = 0; // run the rest to the halt
    run(kern, sys);
    std::printf("  sbrk   -> err=%lu ret=%lu (%s: CheriABI excludes "
                "sbrk by principle)\n",
                static_cast<unsigned long>(regs.x[regSysErr]),
                static_cast<unsigned long>(regs.x[regRetVal]),
                std::string(errnoName(static_cast<int>(
                                regs.x[regRetVal])))
                    .c_str());

    std::printf("\neverything above was observed; the registry as "
                "JSON:\n%s\n",
                metrics.toJson().c_str());
    return 0;
}
