/**
 * @file
 * The reference stepper: the interpreter as it was before its run loop
 * hoisted the per-step work out of the loop body.  It executes one
 * instruction per step(), checking PCC on every fetch, charging every
 * instruction and counting every decode-cache hit as it goes, and
 * writing PCC back after each instruction (it also names the faulting
 * instruction in InterpResult::faultOp).  Its decode cache has the
 * same shape as isa::Interpreter's (256 entries keyed on (va, fetch
 * generation)), because a hit counts a modelled iTLB hit without
 * consulting the iTLB: the two must agree on every hit for their
 * counts to agree.  Its loads and stores go through the same
 * MemAccess core calls as run() (load/store/loadCap/storeCap), so
 * what it checks is the loop's deferral, not the access path.
 *
 * test_interp_lockstep runs it in lock step with Interpreter::run() on
 * a twin process and compares everything either can change.
 */

#ifndef CHERI_TESTS_REF_STEPPER_H
#define CHERI_TESTS_REF_STEPPER_H

#include <array>

#include "isa/interp.h"
#include "obs/metrics.h"
#include "os/kernel.h"

namespace cheri::test
{

class RefStepper
{
  public:
    using InterpResult = isa::InterpResult;
    using Insn = isa::Insn;
    using Op = isa::Op;

    explicit RefStepper(Process &proc, TraceSink *trace = nullptr)
        : proc(proc), traceSink(trace), mx(proc.kernel().metrics())
    {
        if (mx) {
            mx->setOpNamer(+[](unsigned op) {
                return isa::opName(static_cast<Op>(op));
            });
        }
    }

    u64 retired() const { return _retired; }

    /** Execute until halt, fault, or @p max_steps, one step() at a
     *  time. */
    InterpResult
    run(u64 max_steps)
    {
        u64 start = _retired;
        while (_retired - start < max_steps) {
            InterpResult r = step();
            if (r.status != InterpResult::Status::Running)
                return r;
        }
        InterpResult r;
        r.status = InterpResult::Status::StepLimit;
        r.steps = _retired;
        return r;
    }

    /** Execute one instruction. */
    InterpResult
    step()
    {
        InterpResult res;
        ThreadRegs &r = proc.regs();
        CostModel &cost = proc.cost();
        MemAccess &mem = proc.mem();
        u64 pc = r.pcc.address();
        Insn i;
        bool fetched = false;
        try {
            i = fetch();
            fetched = true;
            if (mx)
                mx->countInsn(static_cast<unsigned>(i.op), proc.abi());
            u64 next = pc + isa::insnSize;
            auto branch_to = [&](s64 insn_off) {
                next = pc + isa::insnSize +
                       static_cast<u64>(insn_off *
                                        static_cast<s64>(isa::insnSize));
            };
            auto require = [](Result<Capability> v) {
                if (!v.ok())
                    throw Fault{v.fault(), {}, 0, false};
                return v.value();
            };

            switch (i.op) {
              case Op::Halt:
                res.status = InterpResult::Status::Halted;
                res.steps = ++_retired;
                cost.alu(1);
                return res;
              case Op::Nop: cost.alu(1); break;
              case Op::Li: r.x[i.rd] = static_cast<u64>(i.imm); cost.alu(1); break;
              case Op::Move: r.x[i.rd] = r.x[i.rs]; cost.alu(1); break;
              case Op::Add: r.x[i.rd] = r.x[i.rs] + r.x[i.rt]; cost.alu(1); break;
              case Op::Addi:
                r.x[i.rd] = r.x[i.rs] + static_cast<u64>(i.imm);
                cost.alu(1);
                break;
              case Op::Sub: r.x[i.rd] = r.x[i.rs] - r.x[i.rt]; cost.alu(1); break;
              case Op::Mul: r.x[i.rd] = r.x[i.rs] * r.x[i.rt]; cost.alu(1); break;
              case Op::And: r.x[i.rd] = r.x[i.rs] & r.x[i.rt]; cost.alu(1); break;
              case Op::Or: r.x[i.rd] = r.x[i.rs] | r.x[i.rt]; cost.alu(1); break;
              case Op::Xor: r.x[i.rd] = r.x[i.rs] ^ r.x[i.rt]; cost.alu(1); break;
              case Op::Sll:
                r.x[i.rd] = r.x[i.rs] << (i.imm & 63);
                cost.alu(1);
                break;
              case Op::Srl:
                r.x[i.rd] = r.x[i.rs] >> (i.imm & 63);
                cost.alu(1);
                break;
              case Op::Slt:
                r.x[i.rd] = r.x[i.rs] < r.x[i.rt];
                cost.alu(1);
                break;

              case Op::Beq:
                if (r.x[i.rs] == r.x[i.rt])
                    branch_to(i.imm);
                cost.alu(1);
                break;
              case Op::Bne:
                if (r.x[i.rs] != r.x[i.rt])
                    branch_to(i.imm);
                cost.alu(1);
                break;
              case Op::J:
                branch_to(i.imm);
                cost.alu(1);
                break;

              case Op::Lb: {
                u64 addr = r.x[i.rs] + static_cast<u64>(i.imm);
                u8 v = 0;
                check(mem.load(r.ddc, addr, &v, 1), r.ddc, addr);
                r.x[i.rd] = v;
                break;
              }
              case Op::Ld: {
                u64 addr = r.x[i.rs] + static_cast<u64>(i.imm);
                u64 v = 0;
                check(mem.load(r.ddc, addr, &v, 8), r.ddc, addr);
                r.x[i.rd] = v;
                break;
              }
              case Op::Sb: {
                u64 addr = r.x[i.rs] + static_cast<u64>(i.imm);
                u8 v = static_cast<u8>(r.x[i.rd]);
                check(mem.store(r.ddc, addr, &v, 1), r.ddc, addr);
                break;
              }
              case Op::Sd: {
                u64 addr = r.x[i.rs] + static_cast<u64>(i.imm);
                check(mem.store(r.ddc, addr, &r.x[i.rd], 8), r.ddc, addr);
                break;
              }

              case Op::CGetTag:
                r.x[i.rd] = r.c[i.rs].tag();
                cost.capManip(1);
                break;
              case Op::CGetLen:
                r.x[i.rd] = r.c[i.rs].length();
                cost.capManip(1);
                break;
              case Op::CGetAddr:
                r.x[i.rd] = r.c[i.rs].address();
                cost.capManip(1);
                break;
              case Op::CGetPerm:
                r.x[i.rd] = r.c[i.rs].perms();
                cost.capManip(1);
                break;
              case Op::CMove:
                r.c[i.rd] = r.c[i.rs];
                cost.capManip(1);
                break;
              case Op::CGetDDC:
                r.c[i.rd] = r.ddc;
                cost.capManip(1);
                break;
              case Op::CGetPCC:
                r.c[i.rd] = r.pcc;
                cost.capManip(1);
                break;
              case Op::CIncOffset:
                r.c[i.rd] =
                    r.c[i.rs].incAddress(static_cast<s64>(r.x[i.rt]));
                cost.capManip(1);
                break;
              case Op::CIncOffsetImm:
                r.c[i.rd] = r.c[i.rs].incAddress(i.imm);
                cost.capManip(1);
                break;
              case Op::CSetAddr:
                r.c[i.rd] = r.c[i.rs].setAddress(r.x[i.rt]);
                cost.capManip(1);
                break;
              case Op::CSetBounds:
                r.c[i.rd] = require(r.c[i.rs].setBounds(r.x[i.rt]));
                if (traceSink)
                    traceSink->derive(DeriveSource::Temp, r.c[i.rd]);
                cost.capManip(1);
                break;
              case Op::CSetBoundsImm:
                r.c[i.rd] = require(
                    r.c[i.rs].setBounds(static_cast<u64>(i.imm)));
                if (traceSink)
                    traceSink->derive(DeriveSource::Temp, r.c[i.rd]);
                cost.capManip(1);
                break;
              case Op::CAndPerm:
                r.c[i.rd] = require(
                    r.c[i.rs].andPerms(static_cast<u32>(r.x[i.rt])));
                cost.capManip(1);
                break;
              case Op::CClearTag:
                r.c[i.rd] = r.c[i.rs].withoutTag();
                cost.capManip(1);
                break;
              case Op::CSeal:
                r.c[i.rd] = require(r.c[i.rs].seal(r.c[i.rt]));
                cost.capManip(1);
                break;
              case Op::CUnseal:
                r.c[i.rd] = require(r.c[i.rs].unseal(r.c[i.rt]));
                cost.capManip(1);
                break;

              case Op::Clb: {
                const Capability &cb = r.c[i.rs];
                u64 addr = cb.address() + static_cast<u64>(i.imm);
                u8 v = 0;
                check(mem.load(cb, addr, &v, 1), cb, addr);
                r.x[i.rd] = v;
                break;
              }
              case Op::Cld: {
                const Capability &cb = r.c[i.rs];
                u64 addr = cb.address() + static_cast<u64>(i.imm);
                u64 v = 0;
                check(mem.load(cb, addr, &v, 8), cb, addr);
                r.x[i.rd] = v;
                break;
              }
              case Op::Csb: {
                const Capability &cb = r.c[i.rs];
                u64 addr = cb.address() + static_cast<u64>(i.imm);
                u8 v = static_cast<u8>(r.x[i.rd]);
                check(mem.store(cb, addr, &v, 1), cb, addr);
                break;
              }
              case Op::Csd: {
                const Capability &cb = r.c[i.rs];
                u64 addr = cb.address() + static_cast<u64>(i.imm);
                check(mem.store(cb, addr, &r.x[i.rd], 8), cb, addr);
                break;
              }
              case Op::Clc: {
                const Capability &cb = r.c[i.rs];
                u64 addr = cb.address() + static_cast<u64>(i.imm);
                check(mem.loadCap(cb, addr, r.c[i.rd]), cb, addr);
                break;
              }
              case Op::Csc: {
                const Capability &cb = r.c[i.rs];
                u64 addr = cb.address() + static_cast<u64>(i.imm);
                check(mem.storeCap(cb, addr, r.c[i.rd]), cb, addr);
                break;
              }

              case Op::Cjr: {
                const Capability &cb = r.c[i.rs];
                if (CapCheck chk = cb.checkAccess(cb.address(),
                                                  isa::insnSize,
                                                  PERM_EXECUTE))
                    throw Fault{*chk, {}, 0, false};
                r.pcc = cb;
                next = cb.address();
                cost.alu(1);
                break;
              }

              case Op::Syscall:
                cost.syscall(0);
                proc.kernel().dispatch(proc, static_cast<u64>(i.imm));
                break;
            }
            r.pcc = r.pcc.setAddress(next);
            ++_retired;
            res.status = InterpResult::Status::Running;
            res.steps = _retired;
            return res;
        } catch (const Fault &f) {
            res.status = InterpResult::Status::Fault;
            res.fault = f.cause;
            res.faultPc = pc;
            res.faultAddr = f.addr;
            if (fetched)
                res.faultOp = i.op;
            res.steps = _retired;
            if (mx) {
                mx->recordFault(f.cause, pc, f.addr,
                                f.hasVia ? &f.via : nullptr, proc.abi());
            }
            return res;
        }
    }

  private:
    struct Fault
    {
        CapFault cause;
        Capability via;
        u64 addr = 0;
        bool hasVia = false;
    };

    /** Throw a failed data access: the authority is named only when
     *  its capability check raised the fault. */
    static void
    check(const MemAccess::AccessCheck &f, const Capability &auth, u64 addr)
    {
        if (f)
            throw Fault{f->cause, f->byCheck ? auth : Capability{}, addr,
                        f->byCheck};
    }

    struct DecodeEntry
    {
        u64 va = ~u64{0};
        u64 gen = 0;
        Insn insn;
    };
    static constexpr u64 decodeCacheSize = 256;

    /** Fetch+decode at PCC, checking PCC on every fetch. */
    Insn
    fetch()
    {
        const Capability &pcc = proc.regs().pcc;
        u64 pc = pcc.address();
        if (proc.abi() == Abi::CheriAbi || pcc.tag()) {
            if (CapCheck chk =
                    pcc.checkAccess(pc, isa::insnSize, PERM_EXECUTE))
                throw Fault{*chk, pcc, pc, true};
        }
        MemAccess &mem = proc.mem();
        DecodeEntry &e = dcache[(pc / isa::insnSize) & (decodeCacheSize - 1)];
        if (e.va == pc && e.gen == mem.fetchGen()) {
            mem.countFetchHit();
            return e.insn;
        }
        u64 word = 0;
        if (CapCheck mmu = mem.fetch(pc, &word, isa::insnSize))
            throw Fault{*mmu, {}, pc, false};
        e.va = pc;
        e.gen = mem.fetchGen();
        e.insn = Insn::decode(word);
        return e.insn;
    }

    Process &proc;
    TraceSink *traceSink;
    obs::Metrics *mx;
    u64 _retired = 0;
    std::array<DecodeEntry, decodeCacheSize> dcache{};
};

} // namespace cheri::test

#endif // CHERI_TESTS_REF_STEPPER_H
