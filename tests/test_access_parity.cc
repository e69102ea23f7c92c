/**
 * @file
 * One access, two front ends: a guest load or store made through
 * GuestContext and the same access made as an interpreted instruction
 * must charge the cost model the same.
 *
 * Each row sets up two identical kernels.  On one, a hosted guest makes
 * the access (GuestContext::load/store/loadPtr/storePtr); on the other,
 * the interpreter executes the one instruction that makes it (Ld/Sd
 * through DDC under mips64; Cld/Csd/Clc/Csc through a capability
 * register under CheriABI).  Three outcomes per access: it passes, the
 * capability check faults it, or the MMU faults it on a PROT_NONE page.
 * The test compares the instruction count, the dTLB accesses and
 * misses, the cache counters and the cycles; the interpreter's own
 * instruction fetch (an iTLB access, and a refill when it misses) is
 * taken out of its side.
 */

#include <gtest/gtest.h>

#include "isa/assembler.h"
#include "isa/interp.h"
#include "test_util.h"

namespace cheri::isa
{
namespace
{

enum class Kind
{
    Load,
    Store,
    LoadCap,
    StoreCap,
};

enum class Outcome
{
    Pass,
    CheckFault,
    MmuFault,
};

struct Row
{
    Abi abi;
    Kind kind;
    Outcome outcome;
};

/** The counts both front ends must agree on. */
struct Charges
{
    u64 instructions;
    u64 cycles;
    u64 dtlbAccesses;
    u64 dtlbMisses;
    u64 l1Accesses;
    u64 l1dMisses;
    u64 l1iMisses;
    u64 l2Misses;

    bool operator==(const Charges &) const = default;
};

std::ostream &
operator<<(std::ostream &os, const Charges &c)
{
    return os << "insns " << c.instructions << " cycles " << c.cycles
              << " dtlb " << c.dtlbAccesses << "/" << c.dtlbMisses
              << " l1 " << c.l1Accesses << " l1d-miss " << c.l1dMisses
              << " l1i-miss " << c.l1iMisses << " l2-miss " << c.l2Misses;
}

/** A kernel with one process: a code page, a data page and a PROT_NONE
 *  page, the cost model reset (a cold machine). */
struct Side
{
    explicit Side(Abi abi)
    {
        proc = kern.spawn(abi, "parity");
        if (kern.execve(*proc, prog, {"parity"}, {}) != E_OK)
            throw std::runtime_error("execve failed");
        AddressSpace &as = proc->as();
        code = as.map(0, pageSize, PROT_READ | PROT_WRITE | PROT_EXEC,
                      MappingKind::Text);
        data = as.map(0, pageSize, PROT_READ | PROT_WRITE,
                      MappingKind::Data);
        none = as.map(0, pageSize, PROT_NONE, MappingKind::Data);
    }

    /** The authority and address of @p row's access.  A check fault
     *  reaches past a 16-byte authority; an MMU fault is in bounds of
     *  an authority over the PROT_NONE page. */
    std::pair<Capability, u64>
    target(const Row &row)
    {
        u64 page = row.outcome == Outcome::MmuFault ? none : data;
        Capability auth =
            proc->as()
                .capForRange(page, pageSize, PROT_READ | PROT_WRITE, false)
                .setAddress(page);
        if (row.outcome == Outcome::CheckFault) {
            auth = auth.setBounds(16).value();
            page += 64;
        }
        return {auth, page};
    }

    Charges
    charges()
    {
        CostModel &c = proc->cost();
        const CacheHierarchy &h = c.cache();
        return {c.instructions(),
                c.cycles() - c.itlbMisses() * CyclePenalties{}.tlbRefill,
                c.dtlbAccesses(),
                c.dtlbMisses(),
                h.l1Accesses(),
                h.l1dMisses(),
                h.l1iMisses(),
                h.l2Misses()};
    }

    Kernel kern;
    SelfObject prog = test::trivialProgram();
    Process *proc = nullptr;
    u64 code = 0;
    u64 data = 0;
    u64 none = 0;
};

/** Make @p row's access through GuestContext; returns the fault. */
CapFault
hosted(Side &s, const Row &row)
{
    auto [auth, va] = s.target(row);
    GuestContext ctx(s.kern, *s.proc);
    // mips64: the pointer is an integer and DDC the authority.
    GuestPtr p = row.abi == Abi::CheriAbi ? GuestPtr(auth.setAddress(va))
                                          : ctx.ptrFromInt(va);
    if (row.abi != Abi::CheriAbi)
        s.proc->regs().ddc = auth;
    GuestPtr value(auth);
    s.proc->cost().reset();
    try {
        switch (row.kind) {
          case Kind::Load: (void)ctx.load<u64>(p); break;
          case Kind::Store: ctx.store<u64>(p, 0, 42); break;
          case Kind::LoadCap: (void)ctx.loadPtr(p); break;
          case Kind::StoreCap: ctx.storePtr(p, 0, value); break;
        }
    } catch (const CapTrap &t) {
        return t.fault();
    }
    return CapFault::None;
}

/** Execute the one instruction that makes @p row's access. */
CapFault
interpreted(Side &s, const Row &row)
{
    auto [auth, va] = s.target(row);
    ThreadRegs &r = s.proc->regs();
    Assembler a;
    if (row.abi == Abi::CheriAbi) {
        switch (row.kind) {
          case Kind::Load: a.cld(2, 1, 0); break;
          case Kind::Store: a.csd(2, 1, 0); break;
          case Kind::LoadCap: a.clc(2, 1, 0); break;
          case Kind::StoreCap: a.csc(3, 1, 0); break;
        }
        r.c[1] = auth.setAddress(va);
        r.c[3] = auth;
    } else {
        if (row.kind == Kind::Load)
            a.ld(2, 1, 0);
        else
            a.sd(2, 1, 0);
        r.x[1] = va;
        r.ddc = auth;
    }
    r.x[2] = 42;
    a.writeTo(s.proc->as(), s.code);
    r.pcc = s.proc->as()
                .capForRange(s.code, pageSize, PROT_READ | PROT_EXEC, false)
                .setAddress(s.code);
    s.proc->cost().reset();
    Interpreter interp(*s.proc);
    InterpResult res = interp.run(1);
    if (res.status == InterpResult::Status::Fault)
        return res.fault;
    EXPECT_EQ(res.status, InterpResult::Status::StepLimit);
    return CapFault::None;
}

class GuestAccessParity : public ::testing::TestWithParam<Row>
{
};

TEST_P(GuestAccessParity, HostedAndInterpretedAccessesChargeTheSame)
{
    const Row &row = GetParam();
    Side host(row.abi), isa(row.abi);
    ASSERT_EQ(host.data, isa.data);
    ASSERT_EQ(host.none, isa.none);

    CapFault hf = hosted(host, row);
    CapFault xf = interpreted(isa, row);
    EXPECT_EQ(hf, xf);
    switch (row.outcome) {
      case Outcome::Pass: EXPECT_EQ(hf, CapFault::None); break;
      case Outcome::CheckFault:
        EXPECT_EQ(hf, CapFault::LengthViolation);
        break;
      case Outcome::MmuFault: EXPECT_EQ(hf, CapFault::PageFault); break;
    }
    Charges hc = host.charges();
    EXPECT_EQ(hc, isa.charges());
    // The access issued (and was charged) unless its check failed.
    EXPECT_EQ(hc.instructions, row.outcome == Outcome::CheckFault ? 0u : 1u);
}

/** `clc c1, 0(c1)`: the loaded capability replaces its own authority
 *  only when the load succeeds; a faulting load leaves c1 as it was. */
TEST(GuestAccessCore, ClcIntoItsOwnAuthorityWritesItLast)
{
    for (Outcome o : {Outcome::Pass, Outcome::CheckFault, Outcome::MmuFault}) {
        SCOPED_TRACE(static_cast<int>(o));
        Side s(Abi::CheriAbi);
        auto [auth, va] = s.target({Abi::CheriAbi, Kind::LoadCap, o});
        Capability stored = s.proc->as()
                                .capForRange(s.data, pageSize, PROT_READ,
                                             false)
                                .setAddress(s.data + 32)
                                .setBounds(32)
                                .value();
        ASSERT_FALSE(s.proc->mem().writeCap(s.data, stored).has_value());
        Capability c1 = auth.setAddress(va);
        ThreadRegs &r = s.proc->regs();
        r.c[1] = c1;
        Assembler a;
        a.clc(1, 1, 0);
        a.writeTo(s.proc->as(), s.code);
        r.pcc = s.proc->as()
                    .capForRange(s.code, pageSize, PROT_READ | PROT_EXEC,
                                 false)
                    .setAddress(s.code);
        Interpreter interp(*s.proc);
        InterpResult res = interp.run(1);
        if (o == Outcome::Pass) {
            EXPECT_EQ(res.status, InterpResult::Status::StepLimit);
            EXPECT_EQ(r.c[1], stored);
        } else {
            EXPECT_EQ(res.status, InterpResult::Status::Fault);
            EXPECT_EQ(res.faultAddr, va);
            EXPECT_EQ(r.c[1], c1);
        }
    }
}

std::vector<Row>
rows()
{
    std::vector<Row> out;
    for (Outcome o : {Outcome::Pass, Outcome::CheckFault, Outcome::MmuFault}) {
        out.push_back({Abi::Mips64, Kind::Load, o});
        out.push_back({Abi::Mips64, Kind::Store, o});
        for (Kind k : {Kind::Load, Kind::Store, Kind::LoadCap, Kind::StoreCap})
            out.push_back({Abi::CheriAbi, k, o});
    }
    return out;
}

std::string
rowName(const ::testing::TestParamInfo<Row> &info)
{
    const Row &r = info.param;
    const bool cheri = r.abi == Abi::CheriAbi;
    std::string op;
    switch (r.kind) {
      case Kind::Load: op = cheri ? "cld" : "ld"; break;
      case Kind::Store: op = cheri ? "csd" : "sd"; break;
      case Kind::LoadCap: op = "clc"; break;
      case Kind::StoreCap: op = "csc"; break;
    }
    const char *outcome = r.outcome == Outcome::Pass         ? "pass"
                          : r.outcome == Outcome::CheckFault ? "checkfault"
                                                             : "mmufault";
    return std::string(cheri ? "cheriabi" : "mips64") + "_" + op + "_" +
           outcome;
}

INSTANTIATE_TEST_SUITE_P(Rows, GuestAccessParity,
                         ::testing::ValuesIn(rows()), rowName);

} // namespace
} // namespace cheri::isa
