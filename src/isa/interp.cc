#include "isa/interp.h"

#include "machine/trap.h"
#include "obs/metrics.h"
#include "os/kernel.h"

namespace cheri::isa
{

namespace
{

/** Internal fault signal carrying the architectural cause, plus (when
 *  the faulting instruction named one) the offending capability and
 *  effective address for telemetry. */
struct IsaFault
{
    CapFault cause;
    Capability via;
    u64 addr = 0;
    bool hasVia = false;
};

[[noreturn]] void
fault(CapFault cause)
{
    throw IsaFault{cause, {}, 0, false};
}

/** Throw a failed data access with its effective address, naming the
 *  authority only when its capability check raised the fault. */
void
check(const MemAccess::AccessCheck &f, const Capability &auth, u64 addr)
{
    if (f)
        throw IsaFault{f->cause, f->byCheck ? auth : Capability{}, addr,
                       f->byCheck};
}

/** Check-and-throw helper for Result-returning capability ops. */
Capability
require(Result<Capability> r)
{
    if (!r.ok())
        fault(r.fault());
    return r.value();
}

} // namespace

Interpreter::Interpreter(Process &proc, TraceSink *trace)
    : proc(proc), traceSink(trace)
{
    attachMetrics();
}

void
Interpreter::attachMetrics()
{
    mx = proc.kernel().metrics();
    if (mx) {
        mx->setOpNamer(+[](unsigned op) {
            return opName(static_cast<Op>(op));
        });
    }
}

Insn
Interpreter::fetch()
{
    const Capability &pcc = proc.regs().pcc;
    u64 pc = pcc.address();
    if (proc.abi() == Abi::CheriAbi || pcc.tag()) {
        // Instruction fetch is authorized by PCC — checked on every
        // fetch, decode cache or not.
        if (CapCheck chk = pcc.checkAccess(pc, insnSize, PERM_EXECUTE))
            throw IsaFault{*chk, pcc, pc, true};
    }
    MemAccess &mem = proc.mem();
    DecodeEntry &e = dcache[(pc / insnSize) & (decodeCacheSize - 1)];
    if (e.va == pc && e.gen == mem.fetchGen()) {
        mem.countFetchHit();
        return e.insn;
    }
    return decodeInto(e, pc);
}

const Insn &
Interpreter::decodeInto(DecodeEntry &e, u64 pc)
{
    MemAccess &mem = proc.mem();
    u64 word = 0;
    if (CapCheck mmu = mem.fetch(pc, &word, insnSize))
        throw IsaFault{*mmu, {}, pc, false};
    e.va = pc;
    e.gen = mem.fetchGen();
    e.insn = Insn::decode(word);
    return e.insn;
}

namespace
{

/**
 * The pcs at which fetch()'s PCC check passes, as [lo, lo + len).
 * Among them a fetch needs no check of its own, and PCC's cursor can
 * move without losing its tag (every in-bounds address is
 * representable), so run() writes PCC back only at sync points.  Where
 * the check does not apply (a mips64 or hybrid process with an
 * untagged PCC) the window is every pc but ~0; a PCC that authorizes
 * no fetch has an empty one.  A pc outside the window takes fetch(),
 * which is exact everywhere.
 */
struct FetchWindow
{
    u64 lo = 0;
    u64 len = 0;

    bool contains(u64 pc) const { return pc - lo < len; }
};

FetchWindow
fetchWindow(const Capability &pcc, Abi abi)
{
    if (abi != Abi::CheriAbi && !pcc.tag())
        return {0, ~u64{0}};
    if (!pcc.tag() || pcc.sealed() || !pcc.hasPerms(PERM_EXECUTE) ||
        pcc.top() < u128{pcc.base()} + insnSize)
        return {};
    return {pcc.base(),
            static_cast<u64>(pcc.top() - insnSize - pcc.base()) + 1};
}

} // namespace

InterpResult
Interpreter::run(u64 max_steps)
{
    ThreadRegs &r = proc.regs();
    CostModel &cost = proc.cost();
    MemAccess &mem = proc.mem();
    Abi abi = proc.abi();
    bool capCharged = cost.abi() != Abi::Mips64;
    u64 pc = r.pcc.address();
    FetchWindow window = fetchWindow(r.pcc, abi);
    u64 gen = mem.fetchGen();
    u64 retired = _retired;
    u64 left = max_steps;
    // Deferred until the next sync point: ALU and capability-
    // manipulation instructions to charge, and decode-cache hits to
    // count as iTLB hits.
    u64 alu = 0;
    u64 fetchHits = 0;
    // The step called out of the loop (or run() just began): the
    // callee may have bumped the fetch generation or asked to yield.
    bool calledOut = true;

    // A sync point: make PCC, the cost model, the TLB counters and
    // retired() exactly what stepping one instruction at a time would
    // have left before the current one.
    auto sync = [&] {
        if (r.pcc.address() != pc)
            r.pcc = r.pcc.setAddress(pc);
        if (alu) {
            cost.alu(alu);
            alu = 0;
        }
        if (fetchHits) {
            mem.countFetchHits(fetchHits);
            fetchHits = 0;
        }
        _retired = retired;
        calledOut = true;
    };

    InterpResult res;
    Insn i;
    // Set only while a fetch that can fault is under way: a fault then
    // has no instruction to name.
    bool fetching = false;
    try {
        for (; left > 0; --left) {
            if (window.contains(pc)) {
                DecodeEntry &e =
                    dcache[(pc / insnSize) & (decodeCacheSize - 1)];
                if (e.va == pc && e.gen == gen) {
                    ++fetchHits;
                    i = e.insn;
                } else {
                    // A miss may walk the page table, and a walk can
                    // reach the kernel (demand paging, reclaim).
                    sync();
                    fetching = true;
                    i = decodeInto(e, pc);
                    fetching = false;
                }
            } else {
                // Faults, unless PCC's check does not apply here.
                sync();
                fetching = true;
                i = fetch();
                fetching = false;
                window = fetchWindow(r.pcc, abi);
            }
            if (mx)
                mx->countInsn(static_cast<unsigned>(i.op), abi);
            // Default next PC; branches overwrite.
            u64 next = pc + insnSize;
            auto branch_to = [&](s64 insn_off) {
                next = pc + insnSize +
                       static_cast<u64>(insn_off *
                                        static_cast<s64>(insnSize));
            };
            auto cap_manip = [&] { alu += capCharged; };

            switch (i.op) {
              case Op::Halt:
                ++alu;
                ++retired;
                sync();
                res.status = InterpResult::Status::Halted;
                res.steps = _retired;
                return res;
              case Op::Nop: ++alu; break;
              case Op::Li: r.x[i.rd] = static_cast<u64>(i.imm); ++alu; break;
              case Op::Move: r.x[i.rd] = r.x[i.rs]; ++alu; break;
              case Op::Add: r.x[i.rd] = r.x[i.rs] + r.x[i.rt]; ++alu; break;
              case Op::Addi:
                r.x[i.rd] = r.x[i.rs] + static_cast<u64>(i.imm);
                ++alu;
                break;
              case Op::Sub: r.x[i.rd] = r.x[i.rs] - r.x[i.rt]; ++alu; break;
              case Op::Mul: r.x[i.rd] = r.x[i.rs] * r.x[i.rt]; ++alu; break;
              case Op::And: r.x[i.rd] = r.x[i.rs] & r.x[i.rt]; ++alu; break;
              case Op::Or: r.x[i.rd] = r.x[i.rs] | r.x[i.rt]; ++alu; break;
              case Op::Xor: r.x[i.rd] = r.x[i.rs] ^ r.x[i.rt]; ++alu; break;
              case Op::Sll:
                r.x[i.rd] = r.x[i.rs] << (i.imm & 63);
                ++alu;
                break;
              case Op::Srl:
                r.x[i.rd] = r.x[i.rs] >> (i.imm & 63);
                ++alu;
                break;
              case Op::Slt:
                r.x[i.rd] = r.x[i.rs] < r.x[i.rt];
                ++alu;
                break;

              case Op::Beq:
                if (r.x[i.rs] == r.x[i.rt])
                    branch_to(i.imm);
                ++alu;
                break;
              case Op::Bne:
                if (r.x[i.rs] != r.x[i.rt])
                    branch_to(i.imm);
                ++alu;
                break;
              case Op::J:
                branch_to(i.imm);
                ++alu;
                break;

              // Legacy loads and stores are checked against DDC: NULL
              // under CheriABI, so they trap there by construction.
              case Op::Lb: {
                sync();
                u64 addr = r.x[i.rs] + static_cast<u64>(i.imm);
                u8 v = 0;
                check(mem.load(r.ddc, addr, &v, 1), r.ddc, addr);
                r.x[i.rd] = v;
                break;
              }
              case Op::Ld: {
                sync();
                u64 addr = r.x[i.rs] + static_cast<u64>(i.imm);
                u64 v = 0;
                check(mem.load(r.ddc, addr, &v, 8), r.ddc, addr);
                r.x[i.rd] = v;
                break;
              }
              case Op::Sb: {
                sync();
                u64 addr = r.x[i.rs] + static_cast<u64>(i.imm);
                u8 v = static_cast<u8>(r.x[i.rd]);
                check(mem.store(r.ddc, addr, &v, 1), r.ddc, addr);
                break;
              }
              case Op::Sd: {
                sync();
                u64 addr = r.x[i.rs] + static_cast<u64>(i.imm);
                check(mem.store(r.ddc, addr, &r.x[i.rd], 8), r.ddc, addr);
                break;
              }

              case Op::CGetTag:
                r.x[i.rd] = r.c[i.rs].tag();
                cap_manip();
                break;
              case Op::CGetLen:
                r.x[i.rd] = r.c[i.rs].length();
                cap_manip();
                break;
              case Op::CGetAddr:
                r.x[i.rd] = r.c[i.rs].address();
                cap_manip();
                break;
              case Op::CGetPerm:
                r.x[i.rd] = r.c[i.rs].perms();
                cap_manip();
                break;
              case Op::CMove:
                r.c[i.rd] = r.c[i.rs];
                cap_manip();
                break;
              case Op::CGetDDC:
                r.c[i.rd] = r.ddc;
                cap_manip();
                break;
              case Op::CGetPCC:
                if (r.pcc.address() != pc)
                    r.pcc = r.pcc.setAddress(pc);
                r.c[i.rd] = r.pcc;
                cap_manip();
                break;
              case Op::CIncOffset:
                r.c[i.rd] =
                    r.c[i.rs].incAddress(static_cast<s64>(r.x[i.rt]));
                cap_manip();
                break;
              case Op::CIncOffsetImm:
                r.c[i.rd] = r.c[i.rs].incAddress(i.imm);
                cap_manip();
                break;
              case Op::CSetAddr:
                r.c[i.rd] = r.c[i.rs].setAddress(r.x[i.rt]);
                cap_manip();
                break;
              case Op::CSetBounds:
                r.c[i.rd] = require(r.c[i.rs].setBounds(r.x[i.rt]));
                if (traceSink)
                    traceSink->derive(DeriveSource::Temp, r.c[i.rd]);
                cap_manip();
                break;
              case Op::CSetBoundsImm:
                r.c[i.rd] = require(
                    r.c[i.rs].setBounds(static_cast<u64>(i.imm)));
                if (traceSink)
                    traceSink->derive(DeriveSource::Temp, r.c[i.rd]);
                cap_manip();
                break;
              case Op::CAndPerm:
                r.c[i.rd] = require(
                    r.c[i.rs].andPerms(static_cast<u32>(r.x[i.rt])));
                cap_manip();
                break;
              case Op::CClearTag:
                r.c[i.rd] = r.c[i.rs].withoutTag();
                cap_manip();
                break;
              case Op::CSeal:
                r.c[i.rd] = require(r.c[i.rs].seal(r.c[i.rt]));
                cap_manip();
                break;
              case Op::CUnseal:
                r.c[i.rd] = require(r.c[i.rs].unseal(r.c[i.rt]));
                cap_manip();
                break;

              case Op::Clb: {
                sync();
                const Capability &cb = r.c[i.rs];
                u64 addr = cb.address() + static_cast<u64>(i.imm);
                u8 v = 0;
                check(mem.load(cb, addr, &v, 1), cb, addr);
                r.x[i.rd] = v;
                break;
              }
              case Op::Cld: {
                sync();
                const Capability &cb = r.c[i.rs];
                u64 addr = cb.address() + static_cast<u64>(i.imm);
                u64 v = 0;
                check(mem.load(cb, addr, &v, 8), cb, addr);
                r.x[i.rd] = v;
                break;
              }
              case Op::Csb: {
                sync();
                const Capability &cb = r.c[i.rs];
                u64 addr = cb.address() + static_cast<u64>(i.imm);
                u8 v = static_cast<u8>(r.x[i.rd]);
                check(mem.store(cb, addr, &v, 1), cb, addr);
                break;
              }
              case Op::Csd: {
                sync();
                const Capability &cb = r.c[i.rs];
                u64 addr = cb.address() + static_cast<u64>(i.imm);
                check(mem.store(cb, addr, &r.x[i.rd], 8), cb, addr);
                break;
              }
              case Op::Clc: {
                // r.c[i.rd] may be cb itself: loadCap writes it last.
                sync();
                const Capability &cb = r.c[i.rs];
                u64 addr = cb.address() + static_cast<u64>(i.imm);
                check(mem.loadCap(cb, addr, r.c[i.rd]), cb, addr);
                break;
              }
              case Op::Csc: {
                sync();
                const Capability &cb = r.c[i.rs];
                u64 addr = cb.address() + static_cast<u64>(i.imm);
                check(mem.storeCap(cb, addr, r.c[i.rd]), cb, addr);
                break;
              }

              case Op::Cjr: {
                // PCC is replaced, not moved: nothing to write back.
                const Capability &cb = r.c[i.rs];
                if (CapCheck chk =
                        cb.checkAccess(cb.address(), insnSize, PERM_EXECUTE))
                    fault(*chk);
                r.pcc = cb;
                next = cb.address();
                window = fetchWindow(r.pcc, abi);
                ++alu;
                break;
              }

              case Op::Syscall:
                sync();
                cost.syscall(0);
                proc.kernel().dispatch(proc, static_cast<u64>(i.imm));
                // The kernel may have replaced PCC (signal delivery,
                // sigreturn, exec) and the ABI with it.  Advance the
                // PCC it left, as a step would have.
                r.pcc = r.pcc.setAddress(next);
                retired = _retired;
                abi = proc.abi();
                capCharged = cost.abi() != Abi::Mips64;
                window = fetchWindow(r.pcc, abi);
                break;
            }
            pc = next;
            ++retired;
            if (calledOut) {
                calledOut = false;
                gen = mem.fetchGen();
                if (yieldPending) {
                    yieldPending = false;
                    sync();
                    res.status = InterpResult::Status::Preempted;
                    res.steps = _retired;
                    return res;
                }
            }
        }
        sync();
        res.status = InterpResult::Status::StepLimit;
        res.steps = _retired;
        return res;
    } catch (const IsaFault &f) {
        sync();
        res.status = InterpResult::Status::Fault;
        res.fault = f.cause;
        res.faultPc = pc;
        res.faultAddr = f.addr;
        if (!fetching)
            res.faultOp = i.op;
        res.steps = _retired;
        if (mx) {
            mx->recordFault(f.cause, pc, f.addr,
                            f.hasVia ? &f.via : nullptr, abi);
        }
        return res;
    }
}

InterpResult
Interpreter::runSlice(u64 budget)
{
    attachMetrics();
    InterpResult r = run(budget);
    // A spent slice budget means "still runnable", not "out of steps":
    // report it as preemption so callers can requeue the context.
    if (r.status == InterpResult::Status::StepLimit)
        r.status = InterpResult::Status::Preempted;
    return r;
}

} // namespace cheri::isa
