/**
 * @file
 * MiniCHERI ISA tests: encoding, assembly, interpretation, and the
 * capability semantics at instruction level — including the paper's
 * architectural headline that a NULL DDC makes every legacy load and
 * store trap in a pure-capability process.
 */

#include <gtest/gtest.h>

#include <random>

#include "isa/assembler.h"
#include "isa/interp.h"
#include "obs/metrics.h"
#include "test_util.h"

namespace cheri::isa
{
namespace
{

using test::GuestSystem;

TEST(Insn, EncodeDecodeRoundTrip)
{
    for (Op op : {Op::Halt, Op::Li, Op::Clc, Op::Syscall, Op::CSeal}) {
        Insn i{op, 3, 17, 31, -12345};
        Insn back = Insn::decode(i.encode());
        EXPECT_EQ(back.op, op);
        EXPECT_EQ(back.rd, 3);
        EXPECT_EQ(back.rs, 17);
        EXPECT_EQ(back.rt, 31);
        EXPECT_EQ(back.imm, -12345);
    }
    // Large positive immediates survive too.
    Insn i{Op::Li, 1, 0, 0, 0x7FFFFFFF};
    EXPECT_EQ(Insn::decode(i.encode()).imm, 0x7FFFFFFF);
}

TEST(Assembler, LabelsResolveForwardAndBack)
{
    Assembler a;
    a.li(1, 3)
        .label("loop")
        .addi(2, 2, 1)
        .addi(1, 1, -1)
        .bne(1, 0, "loop")
        .j("end")
        .li(2, 999) // skipped
        .label("end")
        .halt();
    auto image = a.assemble();
    ASSERT_EQ(image.size(), 7u);
    // bne at index 3 targets index 1: offset = 1 - 3 - 1 = -3.
    EXPECT_EQ(Insn::decode(image[3]).imm, -3);
    // j at index 4 targets index 6: offset = 6 - 4 - 1 = 1.
    EXPECT_EQ(Insn::decode(image[4]).imm, 1);
}

TEST(Assembler, UndefinedLabelThrows)
{
    Assembler a;
    a.j("nowhere").halt();
    EXPECT_THROW(a.assemble(), std::runtime_error);
}

/** Fixture: a process with an executable scratch text segment. */
class IsaRun : public ::testing::TestWithParam<Abi>
{
  protected:
    IsaRun() : sys(GetParam())
    {
        // Map a fresh RWX region for test code (the main text mapping
        // is read-only to the process).
        code_va = sys.proc->as().map(0, pageSize,
                                     PROT_READ | PROT_WRITE | PROT_EXEC,
                                     MappingKind::Text, false, false,
                                     "testcode");
        data_va = sys.proc->as().map(0, pageSize,
                                     PROT_READ | PROT_WRITE,
                                     MappingKind::Data);
    }

    /** Install @p a at the code region and point PCC at it. */
    Interpreter
    load(const Assembler &a)
    {
        a.writeTo(sys.proc->as(), code_va);
        Interpreter interp(*sys.proc);
        if (GetParam() == Abi::CheriAbi) {
            Capability pcc =
                sys.proc->as()
                    .capForRange(code_va, pageSize,
                                 PROT_READ | PROT_EXEC, false)
                    .setAddress(code_va);
            interp.setEntry(pcc);
        } else {
            interp.setEntry(Capability::fromAddress(code_va));
        }
        return interp;
    }

    /** A data capability over the scratch data page. */
    Capability
    dataCap()
    {
        return sys.proc->as()
            .capForRange(data_va, pageSize, PROT_READ | PROT_WRITE,
                         false)
            .setAddress(data_va);
    }

    GuestSystem sys;
    u64 code_va = 0;
    u64 data_va = 0;
};

TEST_P(IsaRun, ArithmeticLoop)
{
    // sum = 1 + 2 + ... + 100
    Assembler a;
    a.li(1, 100) // counter
        .li(2, 0) // sum
        .label("loop")
        .add(2, 2, 1)
        .addi(1, 1, -1)
        .bne(1, 0, "loop")
        .halt();
    Interpreter interp = load(a);
    InterpResult r = interp.run();
    ASSERT_EQ(r.status, InterpResult::Status::Halted);
    EXPECT_EQ(interp.regs().x[2], 5050u);
    EXPECT_EQ(interp.retired(), 2 + 3 * 100 + 1);
}

TEST_P(IsaRun, CapabilityDerivationAndAccess)
{
    Assembler a;
    // c2 = bounded 16-byte view at data+32; store/load through it.
    a.li(3, 32)
        .cincoffset(2, 1, 3) // c2 = c1 + 32
        .csetboundsimm(2, 2, 16)
        .li(4, 0xABCD)
        .csd(4, 2, 0)
        .cld(5, 2, 0)
        .cgetlen(6, 2)
        .cgettag(7, 2)
        .halt();
    Interpreter interp = load(a);
    interp.regs().c[1] = dataCap();
    InterpResult r = interp.run();
    ASSERT_EQ(r.status, InterpResult::Status::Halted);
    EXPECT_EQ(interp.regs().x[5], 0xABCDu);
    EXPECT_EQ(interp.regs().x[6], 16u);
    EXPECT_EQ(interp.regs().x[7], 1u);
    // The stored value is visible to the host side too.
    GuestContext ctx(sys.kern, *sys.proc);
    EXPECT_EQ(ctx.load<u64>(GuestPtr(dataCap()), 32), 0xABCDu);
}

TEST_P(IsaRun, BoundedCapabilityFaultsOutOfBounds)
{
    Assembler a;
    a.csetboundsimm(2, 1, 16)
        .cld(3, 2, 16) // one past the end
        .halt();
    Interpreter interp = load(a);
    interp.regs().c[1] = dataCap();
    InterpResult r = interp.run();
    ASSERT_EQ(r.status, InterpResult::Status::Fault);
    EXPECT_EQ(r.fault, CapFault::LengthViolation);
    EXPECT_EQ(r.faultPc, code_va + insnSize)
        << "the fault reports the precise PC";
    EXPECT_EQ(r.faultOp, Op::Cld) << "and the faulting instruction";
}

TEST_P(IsaRun, MonotonicityFaultsAtCSetBounds)
{
    Assembler a;
    a.csetboundsimm(2, 1, 16)
        .csetboundsimm(3, 2, 64) // widen: must fault
        .halt();
    Interpreter interp = load(a);
    interp.regs().c[1] = dataCap();
    InterpResult r = interp.run();
    ASSERT_EQ(r.status, InterpResult::Status::Fault);
    EXPECT_EQ(r.fault, CapFault::LengthViolation);
}

TEST_P(IsaRun, DataOverwriteKillsStoredCapability)
{
    Assembler a;
    a.csc(1, 1, 0)  // store c1 at [c1]
        .li(2, 0x41)
        .csb(2, 1, 3) // scribble a byte over it
        .clc(3, 1, 0) // load it back
        .cgettag(4, 3)
        .halt();
    Interpreter interp = load(a);
    interp.regs().c[1] = dataCap();
    InterpResult r = interp.run();
    ASSERT_EQ(r.status, InterpResult::Status::Halted);
    EXPECT_EQ(interp.regs().x[4], 0u) << "tag must not survive the store";
}

TEST_P(IsaRun, SealUnsealRoundTrip)
{
    Assembler a;
    a.cseal(2, 1, 5)   // seal data cap with otype authority in c5
        .cgettag(3, 2)
        .cunseal(4, 2, 5)
        .cld(6, 4, 0)  // usable again after unseal
        .halt();
    Interpreter interp = load(a);
    interp.regs().c[1] = dataCap();
    Capability sealer =
        Capability::root().setAddress(77).setBounds(1).value();
    interp.regs().c[5] = sealer;
    GuestContext ctx(sys.kern, *sys.proc);
    ctx.store<u64>(GuestPtr(dataCap()), 0, 99);
    InterpResult r = interp.run();
    ASSERT_EQ(r.status, InterpResult::Status::Halted);
    EXPECT_EQ(interp.regs().x[3], 1u);
    EXPECT_EQ(interp.regs().x[6], 99u);
}

TEST_P(IsaRun, SealedCapabilityFaultsOnUse)
{
    Assembler a;
    a.cseal(2, 1, 5).cld(3, 2, 0).halt();
    Interpreter interp = load(a);
    interp.regs().c[1] = dataCap();
    interp.regs().c[5] =
        Capability::root().setAddress(12).setBounds(1).value();
    InterpResult r = interp.run();
    ASSERT_EQ(r.status, InterpResult::Status::Fault);
    EXPECT_EQ(r.fault, CapFault::SealViolation);
}

TEST_P(IsaRun, UnassignedSyscallFailsThroughDispatch)
{
    // A number no syscall owns still enters Kernel::dispatch: it comes
    // back with the error flag set and E_NOSYS in the return register,
    // and the registry counts it in the reserved-invalid row (row 0).
    obs::Metrics m;
    sys.kern.setMetrics(&m);
    const u64 unassigned = numSysNums + 100;
    ASSERT_EQ(syscallInfo(unassigned), nullptr);
    Assembler a;
    a.syscall(static_cast<s64>(unassigned)).halt();
    Interpreter interp = load(a);
    InterpResult r = interp.run();
    ASSERT_EQ(r.status, InterpResult::Status::Halted);
    EXPECT_EQ(interp.regs().x[regSysErr], 1u);
    EXPECT_EQ(interp.regs().x[regRetVal], static_cast<u64>(E_NOSYS));
    EXPECT_EQ(m.syscall(0, GetParam()).calls, 1u);
    EXPECT_EQ(m.syscall(0, GetParam()).errors, 1u);
    sys.kern.setMetrics(nullptr);
}

TEST_P(IsaRun, SyscallDispatchesThroughKernel)
{
    // Op::Syscall goes through Kernel::dispatch and the numbered ABI's
    // register convention: error flag clear, result in the
    // return-value register.
    Assembler a;
    a.syscall(static_cast<s64>(SysNum::Getpid)).halt();
    Interpreter interp = load(a);
    InterpResult r = interp.run();
    ASSERT_EQ(r.status, InterpResult::Status::Halted);
    EXPECT_EQ(interp.regs().x[regSysErr], 0u);
    EXPECT_EQ(interp.regs().x[regRetVal], sys.proc->pid());
}

TEST_P(IsaRun, StepLimitStopsRunaway)
{
    Assembler a;
    a.label("spin").j("spin");
    Interpreter interp = load(a);
    InterpResult r = interp.run(1000);
    EXPECT_EQ(r.status, InterpResult::Status::StepLimit);
    EXPECT_EQ(interp.retired(), 1000u);
}

INSTANTIATE_TEST_SUITE_P(Abis, IsaRun,
                         ::testing::Values(Abi::Mips64, Abi::CheriAbi),
                         [](const auto &info) {
                             return info.param == Abi::CheriAbi
                                        ? "cheriabi"
                                        : "mips64";
                         });

// --- ABI-specific ISA behaviour ---------------------------------------

TEST(IsaAbi, LegacyLoadsTrapUnderNullDdc)
{
    // The architectural core of CheriABI: with DDC = NULL, legacy
    // integer loads/stores cannot execute at all.
    GuestSystem sys(Abi::CheriAbi);
    u64 code = sys.proc->as().map(0, pageSize,
                                  PROT_READ | PROT_WRITE | PROT_EXEC,
                                  MappingKind::Text);
    u64 data = sys.proc->as().map(0, pageSize, PROT_READ | PROT_WRITE,
                                  MappingKind::Data);
    Assembler a;
    a.li(1, static_cast<s64>(data)).ld(2, 1, 0).halt();
    a.writeTo(sys.proc->as(), code);
    Interpreter interp(*sys.proc);
    interp.setEntry(sys.proc->as()
                        .capForRange(code, pageSize,
                                     PROT_READ | PROT_EXEC, false)
                        .setAddress(code));
    InterpResult r = interp.run();
    ASSERT_EQ(r.status, InterpResult::Status::Fault);
    EXPECT_EQ(r.fault, CapFault::TagViolation)
        << "NULL DDC prohibits legacy loads";

    // The same program runs fine under mips64, where DDC spans the
    // address space.
    GuestSystem legacy(Abi::Mips64);
    u64 code2 = legacy.proc->as().map(0, pageSize,
                                      PROT_READ | PROT_WRITE | PROT_EXEC,
                                      MappingKind::Text);
    u64 data2 = legacy.proc->as().map(0, pageSize,
                                      PROT_READ | PROT_WRITE,
                                      MappingKind::Data);
    Assembler b;
    b.li(1, static_cast<s64>(data2)).ld(2, 1, 0).halt();
    b.writeTo(legacy.proc->as(), code2);
    Interpreter li(*legacy.proc);
    li.setEntry(Capability::fromAddress(code2));
    EXPECT_EQ(li.run().status, InterpResult::Status::Halted);
}

TEST(IsaAbi, PccBoundsConfineControlFlow)
{
    GuestSystem sys(Abi::CheriAbi);
    u64 code = sys.proc->as().map(0, pageSize,
                                  PROT_READ | PROT_WRITE | PROT_EXEC,
                                  MappingKind::Text);
    // Jump past the end of the PCC's bounds.
    Assembler a;
    a.j("far");
    for (int i = 0; i < 6; ++i)
        a.nop();
    a.label("far").halt();
    a.writeTo(sys.proc->as(), code);
    Interpreter interp(*sys.proc);
    // PCC bounded to only the first 4 instructions.
    Capability narrow = sys.proc->as()
                            .capForRange(code, pageSize,
                                         PROT_READ | PROT_EXEC, false)
                            .setAddress(code)
                            .setBounds(4 * insnSize)
                            .value();
    interp.setEntry(narrow);
    InterpResult r = interp.run();
    ASSERT_EQ(r.status, InterpResult::Status::Fault);
    EXPECT_EQ(r.fault, CapFault::LengthViolation)
        << "fetch outside PCC bounds must fault";
    EXPECT_FALSE(r.faultOp.has_value())
        << "a fetch fault has no instruction to name";
}

TEST(IsaAbi, CjrRequiresExecutableCapability)
{
    GuestSystem sys(Abi::CheriAbi);
    u64 code = sys.proc->as().map(0, pageSize,
                                  PROT_READ | PROT_WRITE | PROT_EXEC,
                                  MappingKind::Text);
    u64 data = sys.proc->as().map(0, pageSize, PROT_READ | PROT_WRITE,
                                  MappingKind::Data);
    Assembler a;
    a.cjr(1).halt();
    a.writeTo(sys.proc->as(), code);
    Interpreter interp(*sys.proc);
    interp.setEntry(sys.proc->as()
                        .capForRange(code, pageSize,
                                     PROT_READ | PROT_EXEC, false)
                        .setAddress(code));
    // c1 is a *data* capability: jumping through it must fault.
    interp.regs().c[1] =
        sys.proc->as()
            .capForRange(data, pageSize, PROT_READ | PROT_WRITE, false)
            .setAddress(data);
    InterpResult r = interp.run();
    ASSERT_EQ(r.status, InterpResult::Status::Fault);
    EXPECT_EQ(r.fault, CapFault::PermitExecuteViolation);
}

TEST(IsaAbi, InterpreterChargesCostModel)
{
    GuestSystem sys(Abi::CheriAbi);
    u64 code = sys.proc->as().map(0, pageSize,
                                  PROT_READ | PROT_WRITE | PROT_EXEC,
                                  MappingKind::Text);
    Assembler a;
    a.li(1, 1000).label("loop").addi(1, 1, -1).bne(1, 0, "loop").halt();
    a.writeTo(sys.proc->as(), code);
    Interpreter interp(*sys.proc);
    interp.setEntry(sys.proc->as()
                        .capForRange(code, pageSize,
                                     PROT_READ | PROT_EXEC, false)
                        .setAddress(code));
    sys.proc->cost().reset();
    ASSERT_EQ(interp.run().status, InterpResult::Status::Halted);
    EXPECT_GE(sys.proc->cost().instructions(), 2001u);
}

} // namespace
} // namespace cheri::isa
// (appended) -----------------------------------------------------------
// Fuzzing: random instruction streams must never escape the sandbox —
// every run ends in Halted/Fault/StepLimit, the host never crashes, and
// all capability registers remain dominated by the process root.

namespace cheri::isa
{
namespace
{

class IsaFuzz : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(IsaFuzz, RandomProgramsStayContained)
{
    std::mt19937_64 rng(GetParam());
    test::GuestSystem sys(Abi::CheriAbi);
    u64 code = sys.proc->as().map(0, pageSize,
                                  PROT_READ | PROT_WRITE | PROT_EXEC,
                                  MappingKind::Text);
    u64 data = sys.proc->as().map(0, pageSize, PROT_READ | PROT_WRITE,
                                  MappingKind::Data);
    // Fill the page with random instruction words (random opcodes,
    // registers, immediates — most will be wild).
    std::vector<u64> words(pageSize / insnSize);
    for (u64 &w : words) {
        Insn i;
        i.op = static_cast<Op>(rng() % (static_cast<u64>(Op::Syscall) + 1));
        i.rd = static_cast<u8>(rng() % numCapRegs);
        i.rs = static_cast<u8>(rng() % numCapRegs);
        i.rt = static_cast<u8>(rng() % numCapRegs);
        i.imm = static_cast<s64>(static_cast<std::int32_t>(rng()));
        w = i.encode();
    }
    ASSERT_FALSE(
        sys.proc->as().writeBytes(code, words.data(), pageSize)
            .has_value());

    Interpreter interp(*sys.proc);
    interp.setEntry(sys.proc->as()
                        .capForRange(code, pageSize,
                                     PROT_READ | PROT_EXEC, false)
                        .setAddress(code));
    interp.regs().c[1] =
        sys.proc->as()
            .capForRange(data, pageSize, PROT_READ | PROT_WRITE, false)
            .setAddress(data);
    InterpResult r = interp.run(20'000);
    EXPECT_TRUE(r.status == InterpResult::Status::Halted ||
                r.status == InterpResult::Status::Fault ||
                r.status == InterpResult::Status::StepLimit);
    // Whatever happened, no register escaped the principal's root.
    const Capability &root = sys.proc->as().rederivationRoot();
    for (const Capability &c : interp.regs().c) {
        if (!c.tag())
            continue;
        EXPECT_GE(c.base(), root.base());
        EXPECT_LE(c.top(), root.top());
        EXPECT_EQ(c.perms() & ~root.perms() & permsHardware, 0u);
    }
    // And memory containment held throughout.
    EXPECT_EQ(sys.proc->as().verifyCapContainment(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IsaFuzz, ::testing::Range(0u, 24u));

} // namespace
} // namespace cheri::isa
