/**
 * @file
 * The numbered syscall ABI and the observability layer on top of it:
 * Kernel::dispatch argument marshalling and errno conversion for both
 * ABIs, per-syscall metrics (counters + cycle histograms), fault
 * telemetry with DeriveSource provenance, and the JSON/CSV emitters.
 */

#include <gtest/gtest.h>

#include "isa/assembler.h"
#include "isa/interp.h"
#include "obs/metrics.h"
#include "os/sys_invoke.h"
#include "test_util.h"

namespace cheri
{
namespace
{

using isa::Assembler;
using isa::InterpResult;
using isa::Interpreter;
using test::GuestSystem;

class Dispatch : public ::testing::TestWithParam<Abi>
{
  protected:
    Dispatch() : sys(GetParam()) {}
    GuestSystem sys;
};

TEST_P(Dispatch, UnknownSyscallNumberFailsClosed)
{
    SysResult r = sys.kern.dispatch(*sys.proc, 9999);
    EXPECT_TRUE(r.failed());
    EXPECT_EQ(r.error, E_NOSYS);
    EXPECT_EQ(sys.proc->regs().x[regSysErr], 1u);
    EXPECT_EQ(sys.proc->regs().x[regRetVal],
              static_cast<u64>(E_NOSYS));

    // Number 0 is reserved-invalid, not a real syscall.
    EXPECT_EQ(sys.kern.dispatch(*sys.proc, 0).error, E_NOSYS);
}

TEST_P(Dispatch, ErrnoConventionOnFailure)
{
    // read(2) on a descriptor that was never opened.
    SysInvokeResult r =
        sysInvoke(sys.kern, *sys.proc, SysNum::Read,
                  {SysArg::i(42), SysArg::p(UserPtr::fromAddr(0)),
                   SysArg::i(8)});
    EXPECT_TRUE(r.res.failed());
    EXPECT_EQ(r.res.error, E_BADF);
    EXPECT_EQ(sys.proc->regs().x[regSysErr], 1u);
    EXPECT_EQ(sys.proc->regs().x[regRetVal], static_cast<u64>(E_BADF));
}

TEST_P(Dispatch, ErrnoConventionOnSuccess)
{
    SysInvokeResult r = sysInvoke(sys.kern, *sys.proc, SysNum::Getpid);
    EXPECT_FALSE(r.res.failed());
    EXPECT_EQ(sys.proc->regs().x[regSysErr], 0u);
    EXPECT_EQ(sys.proc->regs().x[regRetVal], sys.proc->pid());
}

TEST_P(Dispatch, MmapReturnsAbiAppropriatePointer)
{
    SysInvokeResult r =
        sysInvoke(sys.kern, *sys.proc, SysNum::Mmap,
                  {SysArg::p(UserPtr::fromAddr(0)),
                   SysArg::i(pageSize),
                   SysArg::i(PROT_READ | PROT_WRITE),
                   SysArg::i(MAP_ANON | MAP_PRIVATE)});
    ASSERT_FALSE(r.res.failed());
    const Capability &c = sys.proc->regs().c[regRetVal];
    if (GetParam() == Abi::CheriAbi) {
        // CheriABI mmap returns a tagged capability bounded to the
        // mapping (paper Figure 1 / section 4.2).
        EXPECT_TRUE(c.tag());
        EXPECT_TRUE(r.out.isCap);
        EXPECT_EQ(c.length(), pageSize);
    } else {
        EXPECT_FALSE(c.tag());
        EXPECT_NE(sys.proc->regs().x[regRetVal], 0u);
    }
    // Failed pointer-returning calls must not leak a stale capability.
    sysInvoke(sys.kern, *sys.proc, SysNum::Mmap,
              {SysArg::p(UserPtr::fromAddr(0)), SysArg::i(0),
               SysArg::i(PROT_READ), SysArg::i(MAP_ANON | MAP_PRIVATE)});
    EXPECT_FALSE(sys.proc->regs().c[regRetVal].tag());
}

TEST_P(Dispatch, MetricsCountScriptedSequence)
{
    obs::Metrics m;
    sys.kern.setMetrics(&m);
    const Abi abi = GetParam();

    for (int i = 0; i < 3; ++i)
        sys.ctx->getpid();
    GuestPtr buf; // null pointer: read fails on the bad fd first
    EXPECT_LT(sys.ctx->read(42, buf, 8), 0);
    EXPECT_LT(sys.ctx->read(43, buf, 8), 0);
    GuestPtr p = sys.ctx->mmap(pageSize);
    EXPECT_EQ(sys.ctx->munmap(p, pageSize), E_OK);

    const u64 getpid_num = static_cast<u64>(SysNum::Getpid);
    const u64 read_num = static_cast<u64>(SysNum::Read);
    const u64 mmap_num = static_cast<u64>(SysNum::Mmap);

    EXPECT_EQ(m.syscall(getpid_num, abi).calls, 3u);
    EXPECT_EQ(m.syscall(getpid_num, abi).errors, 0u);
    EXPECT_EQ(m.syscall(read_num, abi).calls, 2u);
    EXPECT_EQ(m.syscall(read_num, abi).errors, 2u);
    EXPECT_EQ(m.syscall(mmap_num, abi).calls, 1u);

    // Histogram integrity: one sample per call, cycles were charged.
    const obs::Histogram &h = m.syscall(getpid_num, abi).cycles;
    EXPECT_EQ(h.count, 3u);
    EXPECT_GT(h.sum, 0u);
    EXPECT_LE(h.min, h.max);

    // The other ABI's row stays untouched.
    Abi other = abi == Abi::CheriAbi ? Abi::Mips64 : Abi::CheriAbi;
    EXPECT_EQ(m.syscall(getpid_num, other).calls, 0u);

    // Unknown numbers accumulate in the reserved-invalid slot.
    sys.kern.dispatch(*sys.proc, 9999);
    EXPECT_EQ(m.syscall(0, abi).calls, 1u);
    EXPECT_EQ(m.syscall(0, abi).errors, 1u);
}

TEST_P(Dispatch, EmittersProduceStructuredOutput)
{
    obs::Metrics m;
    sys.kern.setMetrics(&m);
    sys.ctx->getpid();

    std::string json = m.toJson();
    EXPECT_NE(json.find("cheri.metrics.v9"), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"getpid\""), std::string::npos);
    EXPECT_NE(json.find(obs::abiName(GetParam())), std::string::npos);

    std::string csv = m.toCsv();
    EXPECT_NE(csv.find("num,name,abi,ptr_args,calls,errors"),
              std::string::npos);
    EXPECT_NE(csv.find("getpid"), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(Abis, Dispatch,
                         ::testing::Values(Abi::Mips64, Abi::CheriAbi),
                         [](const auto &info) {
                             return info.param == Abi::CheriAbi
                                        ? "cheriabi"
                                        : "mips64";
                         });

// --- Histogram bucket math --------------------------------------------

TEST(Histogram, PowerOfTwoBuckets)
{
    using obs::Histogram;
    EXPECT_EQ(Histogram::bucketOf(0), 0u);
    EXPECT_EQ(Histogram::bucketOf(1), 1u);
    EXPECT_EQ(Histogram::bucketOf(2), 2u);
    EXPECT_EQ(Histogram::bucketOf(3), 2u);
    EXPECT_EQ(Histogram::bucketOf(1024), 11u);
    EXPECT_EQ(Histogram::bucketOf(~u64{0}), Histogram::numBuckets - 1);
    EXPECT_EQ(Histogram::bucketLo(0), 0u);
    EXPECT_EQ(Histogram::bucketLo(1), 1u);
    EXPECT_EQ(Histogram::bucketLo(11), 1024u);

    Histogram h;
    for (u64 v : {u64{0}, u64{1}, u64{3}, u64{1024}})
        h.record(v);
    EXPECT_EQ(h.count, 4u);
    EXPECT_EQ(h.sum, 1028u);
    EXPECT_EQ(h.min, 0u);
    EXPECT_EQ(h.max, 1024u);
    EXPECT_EQ(h.buckets[2], 1u);
    EXPECT_EQ(h.buckets[11], 1u);
}

// --- Fault telemetry with provenance ----------------------------------

TEST(FaultTelemetry, DirectRecordWithLearnedProvenance)
{
    obs::Metrics m;
    Capability c =
        Capability::root().setAddress(0x1000).setBounds(64).value();
    m.derive(DeriveSource::Stack, c);
    EXPECT_EQ(m.deriveCount(DeriveSource::Stack), 1u);

    m.recordFault(CapFault::LengthViolation, 0x400, 0x1040, &c,
                  Abi::CheriAbi);
    ASSERT_EQ(m.faults().size(), 1u);
    const obs::FaultRecord &f = m.faults()[0];
    EXPECT_EQ(f.cause, CapFault::LengthViolation);
    EXPECT_EQ(f.pc, 0x400u);
    EXPECT_EQ(f.addr, 0x1040u);
    EXPECT_TRUE(f.provenanceKnown);
    EXPECT_EQ(f.provenance, DeriveSource::Stack);
    EXPECT_EQ(m.faultCount(CapFault::LengthViolation), 1u);
}

TEST(FaultTelemetry, InterpreterAttributesSyscallDerivedCapability)
{
    // A CheriABI guest mmaps a page through the numbered ABI, then
    // dereferences one byte past the returned capability's bounds.
    // The fault record must carry the capability's provenance:
    // DeriveSource::Syscall (the paper's Figure 5 legend).
    GuestSystem sys(Abi::CheriAbi);
    obs::Metrics m;
    sys.kern.setMetrics(&m);
    sys.kern.setTrace(&m); // learn provenance from derive events

    u64 code = sys.proc->as().map(0, pageSize,
                                  PROT_READ | PROT_WRITE | PROT_EXEC,
                                  MappingKind::Text, false, false,
                                  "testcode");
    Assembler a;
    a.li(regArg0 + 1, static_cast<s64>(pageSize))
        .li(regArg0 + 2, PROT_READ | PROT_WRITE)
        .li(regArg0 + 3, MAP_ANON | MAP_PRIVATE)
        .syscall(static_cast<s64>(SysNum::Mmap))
        .cld(8, regRetVal, static_cast<s64>(pageSize)) // out of bounds
        .halt();
    a.writeTo(sys.proc->as(), code);

    Interpreter interp(*sys.proc);
    interp.setEntry(sys.proc->as()
                        .capForRange(code, pageSize,
                                     PROT_READ | PROT_EXEC, false)
                        .setAddress(code));

    InterpResult r = interp.run();
    ASSERT_EQ(r.status, InterpResult::Status::Fault);
    EXPECT_EQ(r.fault, CapFault::LengthViolation);

    ASSERT_GE(m.faults().size(), 1u);
    const obs::FaultRecord &f = m.faults().back();
    EXPECT_EQ(f.cause, CapFault::LengthViolation);
    EXPECT_EQ(f.abi, Abi::CheriAbi);
    EXPECT_TRUE(f.provenanceKnown);
    EXPECT_EQ(f.provenance, DeriveSource::Syscall);

    // The mmap itself was counted under the CheriABI row.
    EXPECT_EQ(
        m.syscall(static_cast<u64>(SysNum::Mmap), Abi::CheriAbi).calls,
        1u);
    // And the instruction mix saw the guest's instructions.
    EXPECT_GT(m.insnCount(static_cast<unsigned>(isa::Op::Syscall),
                          Abi::CheriAbi),
              0u);
}

} // namespace
} // namespace cheri
