/**
 * @file
 * Lock-step equivalence of the interpreter's run loop with the
 * reference stepper (ref_stepper.h).
 *
 * Interpreter::run() defers work across instructions: it writes PCC
 * back only at sync points, charges ALU instructions and counts decode-
 * cache hits in batches, and keeps the retired count in a local.  Each
 * seed generates one program and runs it on two twin kernels: one
 * through run(k) for random k, the other through the reference stepper
 * for the same k.  After every call the test compares the results, the
 * register files, PCC and DDC, every CostModel and TLB counter, the
 * observability registry (instruction mix, TLB counters, faults,
 * syscalls) and a checkpoint image of each kernel, which holds the
 * bytes and tags of guest memory and the cache model's state.
 *
 * The programs cover what the deferral must survive: a cold and a warm
 * L1I, code longer than the 256-entry decode cache, more than 64 data
 * pages, a store to the code page mid-run, syscalls mid-loop (one of
 * which invalidates TLBs), capability jumps that narrow and widen PCC,
 * and endings that branch out of PCC bounds, jump through a sealed or
 * an untagged capability, or fault after a run of ALU instructions (in
 * the capability check, in a derivation, or in the MMU).
 *
 * On even seeds the machine is under memory pressure: the loop's tail
 * sits on a second code page, and between calls the code pages that
 * PCC is not in are swapped out and the kernel is left no frame to
 * spare.  A decode-cache miss then walks into a swapped-out page, and
 * its swap-in enters the kernel's reclaim, which evicts a page (often
 * the loop's first code page) and bumps the fetch generation in the
 * middle of a run.
 */

#include <gtest/gtest.h>

#include <random>

#include "isa/assembler.h"
#include "isa/interp.h"
#include "obs/metrics.h"
#include "os/snapshot/snapshot.h"
#include "ref_stepper.h"
#include "test_util.h"

namespace cheri::isa
{
namespace
{

constexpr u64 codePages = 4;
constexpr u64 dataPages = 80; // more than the 64-entry dTLB reaches
constexpr u64 stepBudget = 60'000;

/** Registers the generated programs use. */
enum : u8
{
    xData = 1,     ///< data base (legacy addressing)
    xLoop = 16,    ///< loop counter
    xT0 = 17,
    xT1 = 18,
    xT2 = 19,
    xSpare = 20,   ///< spare page address (mips64 mprotect argument)
    xCode = 21,    ///< code base (legacy self-modifying store)
    xGuard = 22,   ///< PROT_NONE page address
    xZero = 28,
    cData = 1,
    cSpare = 21,   ///< spare page capability (CheriABI mprotect argument)
    cCodeRw = 12,  ///< writable view of the code
    cSealed = 13,  ///< sealed executable capability
    cUntagged = 14,
    cTmp0 = 20,
    cTmp1 = 22,
    cPcc = 23,     ///< executable capability over the program
    cHop = 24,
    cBack = 25,
    cSealer = 26,
    cGuard = 27,   ///< in-bounds capability over the PROT_NONE page
};

/** One kernel with one process, its regions mapped, ready to run. */
struct Twin
{
    explicit Twin(Abi abi)
    {
        kern.setMetrics(&mx);
        kern.setTrace(&mx);
        proc = kern.spawn(abi, "lockstep");
        if (kern.execve(*proc, prog, {"lockstep"}, {}) != E_OK)
            throw std::runtime_error("execve failed");
        AddressSpace &as = proc->as();
        code = as.map(0, codePages * pageSize,
                      PROT_READ | PROT_WRITE | PROT_EXEC, MappingKind::Text);
        data = as.map(0, dataPages * pageSize, PROT_READ | PROT_WRITE,
                      MappingKind::Data);
        spare = as.map(0, pageSize, PROT_READ | PROT_WRITE,
                       MappingKind::Data);
        guard = as.map(0, pageSize, PROT_NONE, MappingKind::Data);
    }

    /** Load @p a, set PCC over the first @p pcc_insns instructions and
     *  the registers the program expects. */
    void
    load(const Assembler &a, u64 pcc_insns, bool tagged_pcc, u64 loops,
         std::mt19937_64 rng)
    {
        AddressSpace &as = proc->as();
        a.writeTo(as, code);
        ThreadRegs &r = proc->regs();
        Capability exec = as.capForRange(code, codePages * pageSize,
                                         PROT_READ | PROT_EXEC, false)
                              .setAddress(code)
                              .setBounds(pcc_insns * insnSize)
                              .value();
        r.pcc = tagged_pcc ? exec : Capability::fromAddress(code);
        r.c[cPcc] = exec;
        Capability sealer =
            Capability::root().setAddress(77).setBounds(1).value();
        r.c[cSealer] = sealer;
        r.c[cSealed] = exec.seal(sealer).value();
        r.c[cUntagged] = exec.withoutTag();
        r.c[cData] = as.capForRange(data, dataPages * pageSize,
                                    PROT_READ | PROT_WRITE, false)
                         .setAddress(data);
        r.c[cCodeRw] = as.capForRange(code, codePages * pageSize,
                                      PROT_READ | PROT_WRITE, false)
                           .setAddress(code);
        r.c[cSpare] = as.capForRange(spare, pageSize,
                                     PROT_READ | PROT_WRITE, false)
                          .setAddress(spare);
        r.c[cGuard] = as.capForRange(guard, pageSize,
                                     PROT_READ | PROT_WRITE, false)
                          .setAddress(guard);
        r.x[xData] = data;
        r.x[xCode] = code;
        r.x[xSpare] = spare;
        r.x[xGuard] = guard;
        r.x[xZero] = 0;
        r.x[xLoop] = loops;
        for (u8 reg = 10; reg <= 15; ++reg)
            r.x[reg] = rng();
        // A cold L1I: fetch streams line by line until it warms.
        proc->cost().reset();
    }

    /** Swap out every code page but the one PCC is in, and leave the
     *  kernel no frame to spare. */
    void
    swapOutCode()
    {
        u64 pcPage = pageTrunc(proc->regs().pcc.address());
        for (u64 page = code; page < code + codePages * pageSize;
             page += pageSize) {
            if (page != pcPage)
                proc->as().swapOutPage(page);
        }
        kern.physMem().setCapacity(kern.physMem().liveFrames());
    }

    /** Declared before the kernel: it must outlive it. */
    obs::Metrics mx;
    Kernel kern;
    SelfObject prog = test::trivialProgram();
    Process *proc = nullptr;
    u64 code = 0;
    u64 data = 0;
    u64 spare = 0;
    u64 guard = 0;
};

/** Endings a program can take (generate()'s last switch). */
constexpr unsigned numEndings = 9;

/** A seeded program for @p abi: a loop of random blocks, then ending
 *  number @p ending.  With @p two_pages the loop's tail and the ending
 *  sit on the second code page.  Returns the number of instructions PCC
 *  covers. */
u64
generate(std::mt19937_64 &rng, Abi abi, bool two_pages, unsigned ending,
         Assembler &a)
{
    auto pick = [&](u64 n) { return rng() % n; };
    const bool cheri = abi == Abi::CheriAbi;

    // Exactly @p n instructions, none of which can fault.
    auto aluRun = [&](u64 n) {
        for (u64 k = 0; k < n; ++k) {
            u8 rd = static_cast<u8>(10 + pick(6));
            u8 rs = static_cast<u8>(10 + pick(6));
            u8 rt = static_cast<u8>(10 + pick(6));
            switch (pick(26)) {
              case 0: a.add(rd, rs, rt); break;
              case 1: a.sub(rd, rs, rt); break;
              case 2: a.xor_(rd, rs, rt); break;
              case 3: a.mul(rd, rs, rt); break;
              case 4: a.and_(rd, rs, rt); break;
              case 5: a.or_(rd, rs, rt); break;
              case 6: a.sll(rd, rs, static_cast<s64>(pick(64))); break;
              case 7: a.srl(rd, rs, static_cast<s64>(pick(64))); break;
              case 8: a.slt(rd, rs, rt); break;
              case 9: a.li(rd, static_cast<s64>(pick(1 << 20))); break;
              case 10: a.move(rd, rs); break;
              case 11: a.nop(); break;
              case 12: a.cgettag(xT0, cData); break;
              case 13: a.cgetlen(xT1, cData); break;
              case 14: a.cgetaddr(xT0, cPcc); break;
              case 15: a.cgetperm(xT1, cData); break;
              case 16: a.cmove(cTmp0, cData); break;
              case 17: a.cincoffsetimm(cTmp0, cData, 64); break;
              case 18: a.cgetpcc(cTmp1); break;
              case 19: a.cgetddc(cTmp0); break;
              case 20: a.csetboundsimm(cTmp0, cData, 64); break;
              case 21: a.ccleartag(cTmp1, cData); break;
              case 22: a.cseal(cTmp1, cData, cSealer); break;
              case 23: a.cunseal(cTmp1, cSealed, cSealer); break;
              case 24: a.csetaddr(cTmp0, cData, rs); break;
              default: a.addi(rd, rs, static_cast<s64>(pick(1000)) - 500);
                  break;
            }
        }
    };

    // A walk over the data pages: each iteration moves eight pages.
    auto dataWalk = [&] {
        a.li(xT2, 0x3FFF8).sll(xT1, xLoop, 15).and_(xT1, xT1, xT2);
        a.cincoffset(cTmp0, cData, xT1).add(xT2, xData, xT1);
        for (u64 k = 1 + pick(4); k > 0; --k) {
            s64 off = static_cast<s64>(pick(16) * pageSize + pick(256) * 16);
            u8 v = static_cast<u8>(10 + pick(6));
            switch (pick(cheri ? 5 : 8)) {
              case 0: a.cld(xT0, cTmp0, off).add(v, v, xT0); break;
              case 1: a.csd(v, cTmp0, off); break;
              case 2: a.clb(xT0, cTmp0, off).csb(v, cTmp0, off + 1);
                  break;
              case 3: a.csc(cData, cTmp0, off); break;
              case 4: a.clc(cTmp1, cTmp0, off); break;
              case 5: a.ld(xT0, xT2, off).add(v, v, xT0); break;
              case 6: a.sd(v, xT2, off); break;
              default: a.lb(xT0, xT2, off).sb(v, xT2, off + 1); break;
            }
        }
    };

    // Rewrite the next instruction: addi x15, x15, (loop count & 0xff).
    auto selfModify = [&] {
        Insn patch{Op::Addi, 15, 15, 0, 0};
        s64 hi = static_cast<s64>(patch.encode() >> 32);
        a.li(xT0, hi).sll(xT0, xT0, 32).li(xT2, 0xff)
            .and_(xT2, xLoop, xT2).or_(xT0, xT0, xT2);
        s64 slot = static_cast<s64>((a.size() + 1) * insnSize);
        if (cheri)
            a.csd(xT0, cCodeRw, slot);
        else
            a.sd(xT0, xCode, slot);
        a.nop(); // the patched slot
    };

    auto syscalls = [&] {
        u64 kind = pick(3);
        if (kind == 0) {
            a.syscall(static_cast<s64>(SysNum::Getpid));
            return;
        }
        if (cheri)
            a.cmove(regArg0, cSpare);
        else
            a.move(regArg0, xSpare);
        a.li(regArg0 + 1, static_cast<s64>(pageSize));
        if (kind == 1) {
            // The kernel copies the path out: data traffic in the
            // cache model, interleaved with the loop's fetch.
            a.syscall(static_cast<s64>(SysNum::Getcwd));
            return;
        }
        // mprotect invalidates the spare page's translations, which
        // bumps the fetch generation: every decode-cache entry misses.
        a.li(regArg0 + 2, PROT_READ | PROT_WRITE)
            .syscall(static_cast<s64>(SysNum::Mprotect));
    };

    // Jump through the whole-program capability to the next
    // instruction (PCC becomes tagged even in a mips64 process).
    auto hop = [&] {
        s64 target = static_cast<s64>((a.size() + 2) * insnSize);
        a.cincoffsetimm(cHop, cPcc, target).cjr(cHop);
    };

    // Run a few instructions under a PCC bounded to just them, then
    // jump back out through the whole-program capability.
    auto narrowPcc = [&] {
        u64 body = 2 + pick(12);
        u64 k = body + 2;
        u64 start = a.size() + 3;
        a.cincoffsetimm(cHop, cPcc, static_cast<s64>(start * insnSize))
            .csetboundsimm(cHop, cHop, static_cast<s64>(k * insnSize))
            .cjr(cHop);
        aluRun(body);
        a.cincoffsetimm(cBack, cPcc,
                        static_cast<s64>((start + k) * insnSize))
            .cjr(cBack);
    };

    // A block that empties the decode cache, on one iteration in
    // eight: on the others, decode-cache hits let deferred work pile
    // up.
    unsigned skips = 0;
    auto everyEighth = [&](auto &&block) {
        std::string skip = "skip" + std::to_string(skips++);
        a.li(xT2, 7).and_(xT2, xLoop, xT2).bne(xT2, xZero, skip);
        block();
        a.label(skip);
    };

    // On one code page the loop body is longer than the decode cache,
    // but its blocks sit where no other instruction shares their entry:
    // from the second iteration on they hit it, so deferred work piles
    // up before them.
    a.label("top");
    aluRun(20 + pick(20));
    for (u64 b = 2 + pick(6); b > 0; --b) {
        switch (pick(6)) {
          case 0: aluRun(1 + pick(40)); break;
          case 1: dataWalk(); break;
          case 2: everyEighth(selfModify); break;
          case 3: everyEighth(syscalls); break;
          case 4: hop(); break;
          default: narrowPcc(); break;
        }
    }
    u64 bodyInsns = (two_pages ? 180 : 270) + pick(50);
    aluRun(a.size() < bodyInsns ? bodyInsns - a.size() : 1);
    if (two_pages) {
        // The loop's tail sits on the next code page, at decode-cache
        // entries the body leaves free: the back branch returns to
        // entries decoded earlier in the same iteration.
        u64 body = a.size() + 1;
        a.j("tail");
        while (a.size() < pageSize / insnSize + body)
            a.nop();
        a.label("tail");
        aluRun(10 + pick(20));
    }
    a.addi(xLoop, xLoop, -1).bne(xLoop, xZero, "top");

    switch (ending) {
      case 0: a.halt(); break;
      case 1: a.j("far"); break; // out of PCC bounds
      case 2: a.cjr(cSealed); break;
      case 3: a.cjr(cUntagged); break;
      case 4: // an out-of-bounds access after a run of ALU instructions
        aluRun(10 + pick(30));
        if (cheri)
            a.cld(xT0, cData, static_cast<s64>(dataPages * pageSize));
        else
            a.ld(xT0, xZero, 0);
        break;
      case 5: // a failing derivation after a run of ALU instructions
        aluRun(10 + pick(30));
        a.csetboundsimm(cTmp0, cData,
                        static_cast<s64>(2 * dataPages * pageSize));
        break;
      case 6: // CheriABI: NULL DDC; mips64: a jump through a data cap
        aluRun(10 + pick(30));
        if (cheri)
            a.ld(xT0, xData, 0);
        else
            a.cjr(cData);
        break;
      case 7: // an MMU fault after a run of ALU instructions
        aluRun(10 + pick(30));
        if (cheri)
            a.cld(xT0, cGuard, 0);
        else
            a.ld(xT0, xGuard, 0);
        break;
      default: // runs until the step budget ends it
        a.label("spin");
        aluRun(5 + pick(20));
        a.j("spin");
        break;
    }
    u64 pccInsns = a.size();
    a.label("far").halt();
    return pccInsns;
}

void
expectSameCost(CostModel &a, CostModel &b)
{
    for (const obs::CostField &f : obs::costFields)
        EXPECT_EQ((a.*f.read)(), (b.*f.read)()) << f.key;
    EXPECT_EQ(a.itlbAccesses(), b.itlbAccesses());
    EXPECT_EQ(a.dtlbAccesses(), b.dtlbAccesses());
    EXPECT_EQ(a.instructionCacheWarm(), b.instructionCacheWarm());
    const CacheHierarchy &ca = a.cache();
    const CacheHierarchy &cb = b.cache();
    EXPECT_EQ(ca.l1Accesses(), cb.l1Accesses());
    EXPECT_EQ(ca.l1iMisses(), cb.l1iMisses());
    EXPECT_EQ(ca.l1dMisses(), cb.l1dMisses());
    EXPECT_EQ(ca.l2Misses(), cb.l2Misses());
}

void
expectSameRegs(const ThreadRegs &a, const ThreadRegs &b)
{
    EXPECT_EQ(a.pcc, b.pcc) << a.pcc.toString() << " vs "
                            << b.pcc.toString();
    EXPECT_EQ(a.ddc, b.ddc);
    for (unsigned k = 0; k < numCapRegs; ++k) {
        EXPECT_EQ(a.x[k], b.x[k]) << "x" << k;
        EXPECT_EQ(a.c[k], b.c[k]) << "c" << k;
    }
}

void
expectSameResult(const InterpResult &a, const InterpResult &b)
{
    EXPECT_EQ(a.status, b.status);
    EXPECT_EQ(a.steps, b.steps);
    EXPECT_EQ(a.fault, b.fault);
    EXPECT_EQ(a.faultPc, b.faultPc);
    EXPECT_EQ(a.faultAddr, b.faultAddr);
    EXPECT_EQ(a.faultOp, b.faultOp);
}

struct Case
{
    unsigned seed;
    Abi abi;
};

class InterpLockstep : public ::testing::TestWithParam<Case>
{
};

TEST_P(InterpLockstep, RunMatchesTheReferenceStepper)
{
    const Case &c = GetParam();
    std::mt19937_64 rng(c.seed * 2 + (c.abi == Abi::CheriAbi));
    Twin fast(c.abi), ref(c.abi);
    ASSERT_EQ(fast.code, ref.code);
    ASSERT_EQ(fast.data, ref.data);

    // Even seeds: memory pressure (see the file comment).  The seed
    // picks the ending, so seeds 1-20 take each one under both ABIs.
    const bool pressure = c.seed % 2 == 0;
    Assembler a;
    u64 pccInsns = generate(rng, c.abi, pressure, c.seed % numEndings, a);
    ASSERT_LE(a.size(), codePages * pageSize / insnSize);
    bool taggedPcc = c.abi == Abi::CheriAbi || rng() % 2;
    u64 loops = 40 + rng() % 60;
    std::mt19937_64 regSeed(rng());
    fast.load(a, pccInsns, taggedPcc, loops, regSeed);
    ref.load(a, pccInsns, taggedPcc, loops, regSeed);

    Interpreter interp(*fast.proc, &fast.mx);
    test::RefStepper stepper(*ref.proc, &ref.mx);
    u64 total = 0;
    bool sawWarm = false;
    for (u64 call = 0; total < stepBudget; ++call) {
        SCOPED_TRACE("call " + std::to_string(call) + " after " +
                     std::to_string(total) + " steps");
        // Mostly short runs, so that calls end at every kind of
        // instruction; some long ones, so that batches grow.
        u64 k = rng() % 3 ? 1 + rng() % 40 : 1 + rng() % 4000;
        InterpResult rf = interp.run(k);
        InterpResult rr = stepper.run(k);
        expectSameResult(rf, rr);
        EXPECT_EQ(interp.retired(), stepper.retired());
        expectSameRegs(fast.proc->regs(), ref.proc->regs());
        expectSameCost(fast.proc->cost(), ref.proc->cost());
        EXPECT_EQ(fast.mx.toJson(), ref.mx.toJson());
        std::string errF, errR;
        std::vector<u8> imgF = snap::save(fast.kern, &errF);
        std::vector<u8> imgR = snap::save(ref.kern, &errR);
        ASSERT_FALSE(imgF.empty()) << errF;
        EXPECT_TRUE(imgF == imgR) << "checkpoint images differ";
        if (::testing::Test::HasFailure())
            return;
        total = interp.retired();
        sawWarm |= fast.proc->cost().instructionCacheWarm();
        if (rf.status != InterpResult::Status::StepLimit)
            break;
        if (pressure && rng() % 3 == 0) {
            fast.swapOutCode();
            ref.swapOutCode();
        }
        if (sawWarm && rng() % 8 == 0) {
            // Cold again: fetch streams through the L1I and the L2,
            // interleaved with the data side.
            fast.proc->cost().reset();
            ref.proc->cost().reset();
        }
    }
    EXPECT_TRUE(sawWarm) << "the L1I never warmed";
}

std::vector<Case>
cases()
{
    std::vector<Case> out;
    for (unsigned seed = 1; seed <= 20; ++seed) {
        out.push_back({seed, Abi::CheriAbi});
        out.push_back({seed, Abi::Mips64});
    }
    return out;
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, InterpLockstep, ::testing::ValuesIn(cases()),
    [](const ::testing::TestParamInfo<Case> &info) {
        return std::string(info.param.abi == Abi::CheriAbi ? "cheriabi"
                                                           : "mips64") +
               "_seed" + std::to_string(info.param.seed);
    });

} // namespace
} // namespace cheri::isa
