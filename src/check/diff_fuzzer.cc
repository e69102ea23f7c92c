#include "check/diff_fuzzer.h"

#include <cinttypes>
#include <cstdio>
#include <random>

#include "check/replay.h"
#include "check/strfmt.h"
#include "isa/assembler.h"
#include "isa/interp.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "os/sched/sched.h"
#include "os/snapshot/snapshot.h"
#include "os/sys_invoke.h"

namespace cheri::check
{

namespace
{

/**
 * One abstract instruction of a generated guest program.  Memory ops
 * name a *slot* in the compute data page; lowering picks the
 * ABI-appropriate addressing mode (legacy via DDC for mips64,
 * capability-relative via c8 for CheriABI) — the differential point:
 * the same abstract program must compute the same values either way.
 */
struct AbsInsn
{
    enum class K
    {
        Li,
        Add,
        Sub,
        Mul,
        Xor,
        Store,
        Load,
        Loop,
        Getpid,
        /** sleep(ticks): parks the context on the virtual clock —
         *  multi-process programs only. */
        SleepSys,
        /** thr_new(): spawns a sibling thread the scheduler admits —
         *  multi-process programs only. */
        ThrNewSys,
        /** thr_switch(x3): directed yield to the tid the previous
         *  syscall returned — multi-process programs only. */
        ThrSwitchSys,
        /** write(pipe_wfd, data_base, imm): producer side of the
         *  shared cross-guest pipe — multi-process programs only. */
        PipeWriteSys,
        /** read(pipe_rfd, data_base, imm): consumer side; blocks the
         *  context when the pipe is empty — multi-process only. */
        PipeReadSys,
    };
    K k = K::Li;
    u8 rd = 4, rs = 4, rt = 4;
    s64 imm = 0;
};

/** One generated operation; all randomness is consumed at generation
 *  time so both ABI runs execute the identical sequence. */
struct GenOp
{
    enum class Kind
    {
        Mmap,
        Unmap,
        Protect,
        Sbrk,
        Fork,
        Signal,
        Write,
        Read,
        Shm,
        Touch,
        Evict,
        Compute,
        Revoke,
        ThrNew,
        ThrSwitch,
        Wait4,
    };
    Kind kind = Kind::Touch;
    u64 a = 0, b = 0, c = 0;
    std::vector<u8> payload;
    std::vector<AbsInsn> prog;
};

/** Work registers x4..x10; x8 is reserved as the data base. */
u8
workReg(FuzzRng &rng)
{
    static constexpr u8 regs[] = {4, 5, 6, 7, 9, 10};
    return regs[rng() % 6];
}

std::vector<AbsInsn>
genProgram(FuzzRng &rng)
{
    std::vector<AbsInsn> p;
    u64 n = 3 + rng() % 6;
    for (u64 i = 0; i < n; ++i) {
        AbsInsn in;
        switch (rng() % 5) {
          case 0:
            in.k = AbsInsn::K::Li;
            in.rd = workReg(rng);
            in.imm = static_cast<s64>(rng() % 100000);
            break;
          case 1: in.k = AbsInsn::K::Add; break;
          case 2: in.k = AbsInsn::K::Sub; break;
          case 3: in.k = AbsInsn::K::Mul; break;
          default: in.k = AbsInsn::K::Xor; break;
        }
        if (in.k != AbsInsn::K::Li) {
            in.rd = workReg(rng);
            in.rs = workReg(rng);
            in.rt = workReg(rng);
        }
        p.push_back(in);
    }
    if (rng() % 2) {
        AbsInsn loop;
        loop.k = AbsInsn::K::Loop;
        loop.imm = 2 + static_cast<s64>(rng() % 5);
        p.push_back(loop);
    }
    u64 mem = rng() % 4;
    for (u64 i = 0; i < mem; ++i) {
        AbsInsn in;
        in.k = (rng() % 2) ? AbsInsn::K::Store : AbsInsn::K::Load;
        in.rd = workReg(rng);
        in.imm = static_cast<s64>((rng() % (pageSize / 8)) * 8);
        p.push_back(in);
    }
    if (rng() % 3 == 0)
        p.push_back({AbsInsn::K::Getpid});
    return p;
}

/** Program for a multi-process guest: the usual compute body plus the
 *  scheduler-exercising syscalls — sleep (virtual-clock blocking) and
 *  thr_new/thr_switch (interpreted thread admission + directed yield).
 *  Instruction counts are ABI-invariant, so slice boundaries — and with
 *  them the whole interleaving — line up exactly across the runs. */
std::vector<AbsInsn>
genMultiProgram(FuzzRng &rng)
{
    std::vector<AbsInsn> p = genProgram(rng);
    if (rng() % 3) {
        AbsInsn t;
        t.k = AbsInsn::K::ThrNewSys;
        p.push_back(t);
        if (rng() % 2)
            p.push_back({AbsInsn::K::ThrSwitchSys});
    }
    if (rng() % 2) {
        AbsInsn s;
        s.k = AbsInsn::K::SleepSys;
        s.imm = 1 + static_cast<s64>(rng() % 200);
        p.push_back(s);
    }
    // Producer/consumer traffic on the shared pipe: small lengths so
    // the channel never fills (64 KiB capacity), but consumers DO park
    // on an empty pipe until some other guest's write wakes them — the
    // blocking hand-off both ABI runs must interleave identically.
    u64 pipeOps = rng() % 4;
    for (u64 i = 0; i < pipeOps; ++i) {
        AbsInsn in;
        in.k = (rng() % 2) ? AbsInsn::K::PipeWriteSys
                           : AbsInsn::K::PipeReadSys;
        in.imm = 1 + static_cast<s64>(rng() % 32);
        p.push_back(in);
    }
    u64 tail = rng() % 3;
    for (u64 i = 0; i < tail; ++i) {
        AbsInsn in;
        in.k = AbsInsn::K::Add;
        in.rd = workReg(rng);
        in.rs = workReg(rng);
        in.rt = workReg(rng);
        p.push_back(in);
    }
    return p;
}

/** Lower the abstract program for @p abi.  Loads/stores address the
 *  data page through x8 (legacy, via DDC) or c8 (capability); pipe ops
 *  target the shared pipe's per-guest descriptors @p pipeRfd /
 *  @p pipeWfd (multi-process mode only). */
isa::Assembler
lower(const std::vector<AbsInsn> &prog, Abi abi, int pipeRfd = -1,
      int pipeWfd = -1)
{
    isa::Assembler a;
    int loops = 0;
    for (const AbsInsn &in : prog) {
        switch (in.k) {
          case AbsInsn::K::Li: a.li(in.rd, in.imm); break;
          case AbsInsn::K::Add: a.add(in.rd, in.rs, in.rt); break;
          case AbsInsn::K::Sub: a.sub(in.rd, in.rs, in.rt); break;
          case AbsInsn::K::Mul: a.mul(in.rd, in.rs, in.rt); break;
          case AbsInsn::K::Xor: a.xor_(in.rd, in.rs, in.rt); break;
          case AbsInsn::K::Store:
            if (abi == Abi::CheriAbi)
                a.csd(in.rd, 8, in.imm);
            else
                a.sd(in.rd, 8, in.imm);
            break;
          case AbsInsn::K::Load:
            if (abi == Abi::CheriAbi)
                a.cld(in.rd, 8, in.imm);
            else
                a.ld(in.rd, 8, in.imm);
            break;
          case AbsInsn::K::Loop: {
            std::string l = fmt("loop%d", loops++);
            a.li(7, in.imm).label(l).addi(6, 6, 1).addi(7, 7, -1).bne(
                7, 0, l);
            break;
          }
          case AbsInsn::K::Getpid:
            a.syscall(static_cast<s64>(SysNum::Getpid));
            break;
          case AbsInsn::K::SleepSys:
            a.li(regArg0, in.imm)
                .syscall(static_cast<s64>(SysNum::Sleep));
            break;
          case AbsInsn::K::ThrNewSys:
            a.li(regArg0, 0)
                .syscall(static_cast<s64>(SysNum::ThrNew));
            break;
          case AbsInsn::K::ThrSwitchSys:
            // x3 still holds the previous syscall's return value — the
            // new tid when this directly follows a thr_new.
            a.add(regArg0, regRetVal, 0)
                .syscall(static_cast<s64>(SysNum::ThrSwitch));
            break;
          case AbsInsn::K::PipeWriteSys:
          case AbsInsn::K::PipeReadSys: {
            bool wr = in.k == AbsInsn::K::PipeWriteSys;
            a.li(regArg0, wr ? pipeWfd : pipeRfd);
            // The buffer argument travels in c5 under CheriABI and x5
            // under mips64 — five instructions either way, so slice
            // boundaries stay aligned across the runs.
            if (abi == Abi::CheriAbi)
                a.cmove(regArg0 + 1, 8);
            else
                a.move(regArg0 + 1, 8);
            a.li(regArg0 + 2, in.imm);
            a.syscall(static_cast<s64>(wr ? SysNum::Write
                                          : SysNum::Read));
            // mips64's move left the data VA (ABI-dependent) in x5;
            // zero it so the final register dump compares equal.
            a.li(regArg0 + 1, 0);
            break;
          }
        }
    }
    a.halt();
    return a;
}

std::vector<GenOp>
generate(u64 case_seed, u64 n_ops, ReplaySession *replay)
{
    FuzzRng rng(case_seed, replay);
    std::vector<GenOp> ops;
    ops.reserve(n_ops);
    for (u64 i = 0; i < n_ops; ++i) {
        GenOp op;
        u64 pick = rng() % 100;
        using K = GenOp::Kind;
        if (pick < 13)
            op.kind = K::Mmap;
        else if (pick < 22)
            op.kind = K::Unmap;
        else if (pick < 29)
            op.kind = K::Protect;
        else if (pick < 33)
            op.kind = K::Sbrk;
        else if (pick < 38)
            op.kind = K::Fork;
        else if (pick < 44)
            op.kind = K::Signal;
        else if (pick < 53)
            op.kind = K::Write;
        else if (pick < 59)
            op.kind = K::Read;
        else if (pick < 64)
            op.kind = K::Shm;
        else if (pick < 72)
            op.kind = K::Touch;
        else if (pick < 78)
            op.kind = K::Evict;
        else if (pick < 84)
            op.kind = K::Compute;
        else if (pick < 89)
            op.kind = K::Revoke;
        else if (pick < 93)
            op.kind = K::ThrNew;
        else if (pick < 97)
            op.kind = K::ThrSwitch;
        else
            op.kind = K::Wait4;
        op.a = rng();
        op.b = rng();
        op.c = rng();
        if (op.kind == K::Write) {
            op.payload.resize(1 + rng() % 96);
            for (u8 &byte : op.payload)
                byte = static_cast<u8>(rng());
        }
        if (op.kind == K::Compute)
            op.prog = genProgram(rng);
        ops.push_back(std::move(op));
    }
    return ops;
}

/** The program image both ABI runs exec — a minimal SELF object. */
SelfObject
fuzzProgram()
{
    SelfObject prog;
    prog.name = "fuzzprog";
    prog.textSize = 0x2000;
    prog.data.resize(64, 0);
    prog.bssSize = 64;
    prog.symbols = {{"main", 0, 0x100, true}};
    prog.relocs = {{RelocKind::CapFunction, 0, 0, "main"}};
    return prog;
}

/** A pointer at @p va carried the way @p base was (capability or
 *  integer), so syscalls see ABI-correct pointer arguments. */
UserPtr
at(const UserPtr &base, u64 va)
{
    if (base.isCap)
        return UserPtr::fromCap(base.cap.setAddress(va));
    return UserPtr::fromAddr(va);
}

/** One tracked guest mapping (compared across ABIs by index, never by
 *  raw address — layouts may legitimately differ). */
struct Region
{
    u64 va = 0;
    u64 len = 0;
    bool shm = false;
    UserPtr base;
};

struct ExecResult
{
    std::vector<std::string> events;
    std::vector<u8> output;
    std::vector<Violation> violations;
    u64 oracleRuns = 0;
    u64 syscalls = 0;
    bool setupFailed = false;
    /** Kernel image captured at the first oracle violation (artifact
     *  auto-emit; empty unless FuzzOptions::artifactPrefix is set). */
    std::vector<u8> snapshot;
    /** Full metrics JSON (FuzzOptions::keepMetricsJson). */
    std::string metricsJson;
    /** Structured panic report + auto-captured image, when the run
     *  tripped a CHERI_KASSERT (the kernel reset and the run went on;
     *  the case is still reported as failed). */
    std::string panicJson;
    std::vector<u8> panicImage;
};

/** Scoped FaultTap installation: the record/replay session outlives
 *  the case kernel, but never the other way round. */
struct TapGuard
{
    FaultInjector &inj;
    TapGuard(FaultInjector &inj, FaultTap *tap) : inj(inj)
    {
        inj.setTap(tap);
    }
    ~TapGuard() { inj.setTap(nullptr); }
};

/** First-failure artifact: snapshot the kernel the moment a case first
 *  goes bad, while it still holds the offending state. */
void
captureSnapshot(ExecResult &er, Kernel &kern, const FuzzOptions &opts)
{
    if (opts.artifactPrefix.empty() || !er.snapshot.empty())
        return;
    std::string serr;
    er.snapshot = snap::save(kern, &serr);
    if (er.snapshot.empty())
        er.events.push_back("snapshot-failed: " + serr);
}

void
writeArtifact(const std::string &path, const std::vector<u8> &bytes)
{
    if (bytes.empty())
        return;
    if (std::FILE *f = std::fopen(path.c_str(), "wb")) {
        std::fwrite(bytes.data(), 1, bytes.size(), f);
        std::fclose(f);
    }
}

constexpr u64 maxViolationsPerRun = 32;
constexpr u64 maxRegions = 8;

/** Fold a structured kernel panic into the run's outcome: the panic is
 *  a first-class failure (its own violation kind) and its report and
 *  auto-captured image become case artifacts. */
void
capturePanic(ExecResult &er, Kernel &kern)
{
    if (!kern.panicked() || !er.panicJson.empty())
        return;
    er.panicJson = kern.panicReportJson();
    er.panicImage = kern.panicImage();
    if (er.violations.size() < maxViolationsPerRun)
        er.violations.push_back(
            {"kernel-panic", "kernel assertion failed (see .panic.json "
                             "artifact for the flight-recorder ring)"});
}

/** One oracle pass: snapshot the kernel on the run's first violation
 *  and keep up to maxViolationsPerRun of them. */
void
runOracle(ExecResult &er, Kernel &kern, const FuzzOptions &opts)
{
    Report rep = Invariants::check(kern);
    ++er.oracleRuns;
    if (!rep.violations.empty())
        captureSnapshot(er, kern, opts);
    for (Violation &v : rep.violations) {
        if (er.violations.size() < maxViolationsPerRun)
            er.violations.push_back(std::move(v));
    }
}

/** Arm the injection schedule shared by both modes: frame, swap-out and
 *  swap-in failures, plus sparse tag/data bit flips whose detection
 *  must degrade to machine checks, never forged capabilities (the
 *  oracle's machine-check-containment rule). */
void
armInjection(Kernel &kern, u64 case_seed)
{
    FaultInjector &inj = kern.faultInjector();
    inj.failRandomly(FaultPoint::FrameAlloc, 13, case_seed ^ 0x1111);
    inj.failRandomly(FaultPoint::SwapOut, 7, case_seed ^ 0x2222);
    inj.failRandomly(FaultPoint::SwapIn, 5, case_seed ^ 0x3333);
    inj.failRandomly(FaultPoint::TagBitFlip, 31, case_seed ^ 0x4444);
    inj.failRandomly(FaultPoint::DataBitFlip, 211, case_seed ^ 0x5555);
}

/** Point @p proc's work registers at a generated program: the data
 *  base in x8 (legacy) and c8 (capability), the other work registers
 *  x4..x10 zeroed, and entry at @p code_va; then queue the program on
 *  the kernel's scheduler with @p step_limit.  The scheduler context
 *  persists per process, so its decode cache stays warm across runs. */
sched::ExecContext &
startProgram(Kernel &kern, Process &proc, Abi abi, u64 code_va,
             u64 data_va, u64 step_limit)
{
    ThreadRegs &regs = proc.regs();
    regs.c[8] = proc.as()
                    .capForRange(data_va, pageSize, PROT_READ | PROT_WRITE,
                                 false)
                    .setAddress(data_va);
    regs.x[8] = data_va;
    for (unsigned i = 4; i <= 10; ++i) {
        if (i != 8)
            regs.x[i] = 0;
    }
    sched::Scheduler &s = sched::schedulerFor(kern);
    sched::ExecContext &cx = s.context(proc);
    if (abi == Abi::CheriAbi) {
        cx.interp->setEntry(
            proc.as()
                .capForRange(code_va, pageSize, PROT_READ | PROT_EXEC,
                             false)
                .setAddress(code_va));
    } else {
        cx.interp->setEntry(Capability::fromAddress(code_va));
    }
    cx.stepLimit = step_limit;
    s.ready(cx);
    return cx;
}

/** The work registers x4..x10 (bar the x8 data base) as " xN=V". */
std::string
workRegs(const ThreadRegs &regs)
{
    std::string out;
    for (unsigned i = 4; i <= 10; ++i) {
        if (i != 8)
            out += fmt(" x%u=%" PRIu64, i, regs.x[i]);
    }
    return out;
}

void
hashRegion(ExecResult &er, Process &proc, const char *name, u64 va,
           u64 len)
{
    u64 h = 1469598103934665603ULL;
    std::vector<u8> page(pageSize);
    for (u64 off = 0; off < len; off += pageSize) {
        CapCheck r = proc.as().readBytes(va + off, page.data(), pageSize);
        if (r.has_value()) {
            er.events.push_back(
                fmt("image %s fault %s", name,
                    std::string(capFaultName(*r)).c_str()));
            return;
        }
        for (u8 b : page) {
            h ^= b;
            h *= 1099511628211ULL;
        }
    }
    er.events.push_back(fmt("image %s %016" PRIx64, name, h));
}

ExecResult
execCase(Abi abi, const FuzzOptions &opts, u64 case_seed,
         const std::vector<GenOp> &ops)
{
    ExecResult er;
    obs::Metrics metrics; // must outlive the kernel
    KernelConfig cfg;
    cfg.frameCapacity = opts.frameCapacity;
    cfg.swapSlotBudget = opts.swapSlotBudget;
    Kernel kern(cfg);
    kern.setMetrics(&metrics);
    snap::installPanicSnapshotHook(kern);
    TapGuard tap(kern.faultInjector(), opts.replay);

    Process *proc = kern.spawn(abi, "fuzz");
    SelfObject prog = fuzzProgram();
    if (kern.execve(*proc, prog, {"fuzz"}, {}) != E_OK) {
        er.setupFailed = true;
        er.events.push_back("execve-failed");
        return er;
    }

    // Case input file: seed-derived bytes, identical for both runs.
    {
        VNodeRef in = kern.vfs().createFile("/fz_in");
        FuzzRng frng(case_seed ^ 0xf00dULL, opts.replay);
        in->data.resize(256);
        for (u8 &b : in->data)
            b = static_cast<u8>(frng());
    }

    // Dispatch hook: uniform event capture (sysInvoke-issued and
    // interpreter-issued syscalls alike) plus the oracle cadence.
    u64 dispatches = 0;
    kern.setCheckHook([&](Process &p, u64 code) {
        ++er.syscalls;
        ++dispatches;
        if (opts.replay)
            opts.replay->quiesce(kern, p, code);
        const SyscallInfo *si = syscallInfo(code);
        const ThreadRegs &r = p.regs();
        bool err = r.x[regSysErr] != 0;
        u64 val = r.x[regRetVal];
        std::string name(si ? si->name : "invalid");
        if (si && si->num == SysNum::Sbrk) {
            // Designed divergence: CheriABI excludes sbrk (E_NOSYS)
            // where mips64 serves it — mask the whole event.
            er.events.push_back("sbrk masked");
        } else if (si && si->num == SysNum::Revoke2) {
            // Designed divergence: revocation sweeps scan cap-dirty
            // pages and tagged granules, which exist only under
            // CheriABI — page counts, revoked counts, and even busy
            // errors (epochs stay open longer with real work queued)
            // legitimately differ, so mask the whole event.  The
            // invariant oracle (rule 7) is the sound check here.
            er.events.push_back("revoke2 masked");
        } else {
            bool mask_val = si && si->returnsPtr; // raw addresses
            er.events.push_back(fmt("%s e%d v%" PRIu64, name.c_str(),
                                    err ? 1 : 0, mask_val ? 0 : val));
        }
        if (opts.checkEvery && dispatches % opts.checkEvery == 0)
            runOracle(er, kern, opts);
    });

    // Scratch layout: page 0 paths + touch fallback, page 1 write
    // staging, page 2 read landing, page 3 compute data.
    auto mk = sysInvoke(kern, *proc, SysNum::Mmap,
                        {SysArg::p(UserPtr::null()),
                         SysArg::i(4 * pageSize),
                         SysArg::i(PROT_READ | PROT_WRITE),
                         SysArg::i(MAP_ANON | MAP_PRIVATE)});
    if (mk.res.failed()) {
        er.setupFailed = true;
        er.events.push_back("scratch-mmap-failed");
        return er;
    }
    UserPtr scratch = mk.out;
    u64 scratch_va = scratch.addr();

    const char out_path[] = "/fz_out";
    const char in_path[] = "/fz_in";
    proc->as().writeBytes(scratch_va, out_path, sizeof(out_path));
    proc->as().writeBytes(scratch_va + 16, in_path, sizeof(in_path));

    auto ro = sysInvoke(kern, *proc, SysNum::Open,
                        {SysArg::p(at(scratch, scratch_va + 16)),
                         SysArg::i(O_RDONLY)});
    int fd_in = ro.res.failed() ? -1 : static_cast<int>(ro.res.value);
    auto wo = sysInvoke(kern, *proc, SysNum::Open,
                        {SysArg::p(at(scratch, scratch_va)),
                         SysArg::i(O_CREAT | O_TRUNC | O_WRONLY)});
    int fd_out = wo.res.failed() ? -1 : static_cast<int>(wo.res.value);

    // A private RWX page for generated programs (the main text
    // mapping is read-only to the process).
    u64 code_va = proc->as().map(0, pageSize,
                                 PROT_READ | PROT_WRITE | PROT_EXEC,
                                 MappingKind::Text, false, false,
                                 "fuzzcode");

    u64 handler_runs = 0;
    u64 hid = proc->registerHandler(
        [&handler_runs](Process &, SigFrame &) { ++handler_runs; });
    kern.sysSigaction(*proc, SIG_USR1,
                      {SigAction::Kind::Handler, hid});

    if (opts.inject)
        armInjection(kern, case_seed);

    std::vector<Region> regions;
    std::vector<u64> childPids;
    std::vector<u64> tids;
    u64 op_index = 0;
    for (const GenOp &op : ops) {
        if (proc->exited()) {
            er.events.push_back("main-exited");
            break;
        }
        if (opts.plantSlotBug && op_index == ops.size() / 2) {
            // Acceptance self-test: one stray retain() makes a slot's
            // device refcount exceed its page-table references.
            if (kern.swapDevice().usedSlots() == 0) {
                u8 z = 1;
                proc->as().writeBytes(scratch_va, &z, 1);
                proc->as().swapOutPage(scratch_va);
            }
            u64 min_slot = ~u64{0};
            kern.swapDevice().forEachSlot([&](u64 s, u64) {
                min_slot = std::min(min_slot, s);
            });
            if (min_slot != ~u64{0}) {
                kern.swapDevice().retain(min_slot);
                er.events.push_back("plant-slot-bug");
            }
        }
        ++op_index;

        using K = GenOp::Kind;
        switch (op.kind) {
          case K::Mmap: {
            u64 len = (1 + op.a % 4) * pageSize;
            auto rr = sysInvoke(kern, *proc, SysNum::Mmap,
                                {SysArg::p(UserPtr::null()),
                                 SysArg::i(len),
                                 SysArg::i(PROT_READ | PROT_WRITE),
                                 SysArg::i(MAP_ANON | MAP_PRIVATE)});
            if (rr.res.failed())
                break;
            if (regions.size() < maxRegions) {
                regions.push_back(
                    {rr.out.addr(), len, false, rr.out});
            } else {
                sysInvoke(kern, *proc, SysNum::Munmap,
                          {SysArg::p(rr.out), SysArg::i(len)});
            }
            break;
          }
          case K::Unmap: {
            if (regions.empty())
                break;
            u64 idx = op.a % regions.size();
            Region r = regions[idx];
            if (r.shm) {
                sysInvoke(kern, *proc, SysNum::Shmdt,
                          {SysArg::p(at(r.base, r.va))});
            } else {
                sysInvoke(kern, *proc, SysNum::Munmap,
                          {SysArg::p(at(r.base, r.va)),
                           SysArg::i(r.len)});
            }
            regions.erase(regions.begin() +
                          static_cast<std::ptrdiff_t>(idx));
            break;
          }
          case K::Protect: {
            if (regions.empty())
                break;
            Region &r = regions[op.a % regions.size()];
            u32 prot = (op.b % 2) ? PROT_READ
                                  : (PROT_READ | PROT_WRITE);
            sysInvoke(kern, *proc, SysNum::Mprotect,
                      {SysArg::p(at(r.base, r.va)), SysArg::i(r.len),
                       SysArg::i(prot)});
            break;
          }
          case K::Sbrk:
            sysInvoke(kern, *proc, SysNum::Sbrk,
                      {SysArg::i(op.a % 3 ? pageSize : 0)});
            break;
          case K::Fork: {
            if (childPids.size() >= 2)
                break;
            auto rr = sysInvoke(kern, *proc, SysNum::Fork, {});
            if (!rr.res.failed())
                childPids.push_back(rr.res.value); // alive: COW pressure
            break;
          }
          case K::Signal: {
            sysInvoke(kern, *proc, SysNum::Kill,
                      {SysArg::i(proc->pid()), SysArg::i(SIG_USR1)});
            u64 ran = kern.deliverSignals(*proc);
            er.events.push_back(fmt("deliver %" PRIu64 " total %" PRIu64,
                                    ran, handler_runs));
            break;
          }
          case K::Write: {
            if (fd_out < 0 || op.payload.empty())
                break;
            proc->as().writeBytes(scratch_va + pageSize,
                                  op.payload.data(),
                                  op.payload.size());
            sysInvoke(kern, *proc, SysNum::Write,
                      {SysArg::i(static_cast<u64>(fd_out)),
                       SysArg::p(at(scratch, scratch_va + pageSize)),
                       SysArg::i(op.payload.size())});
            break;
          }
          case K::Read: {
            if (fd_in < 0)
                break;
            sysInvoke(kern, *proc, SysNum::Read,
                      {SysArg::i(static_cast<u64>(fd_in)),
                       SysArg::p(at(scratch, scratch_va + 2 * pageSize)),
                       SysArg::i(1 + op.a % 64)});
            break;
          }
          case K::Shm: {
            if (regions.size() >= maxRegions)
                break;
            u64 size = (1 + op.a % 2) * pageSize;
            auto rg = sysInvoke(kern, *proc, SysNum::Shmget,
                                {SysArg::i(op.b % 4), SysArg::i(size)});
            if (rg.res.failed())
                break;
            auto ra = sysInvoke(kern, *proc, SysNum::Shmat,
                                {SysArg::i(rg.res.value),
                                 SysArg::p(UserPtr::null())});
            if (!ra.res.failed())
                regions.push_back({ra.out.addr(), size, true, ra.out});
            break;
          }
          case K::Touch: {
            u64 ridx = regions.empty() ? ~u64{0}
                                       : op.a % regions.size();
            u64 va = ridx == ~u64{0}
                         ? scratch_va + op.b % (4 * pageSize)
                         : regions[ridx].va + op.b % regions[ridx].len;
            u8 byte = static_cast<u8>(op.c);
            CapCheck w = proc->as().writeBytes(va, &byte, 1);
            er.events.push_back(
                fmt("touch r%" PRId64 " %s",
                    static_cast<s64>(ridx == ~u64{0} ? -1
                                                     : (s64)ridx),
                    w.has_value()
                        ? std::string(capFaultName(*w)).c_str()
                        : "ok"));
            break;
          }
          case K::Evict: {
            u64 n = proc->as().swapOutResident(1 + op.a % 4);
            er.events.push_back(fmt("evict %" PRIu64, n));
            break;
          }
          case K::Compute: {
            isa::Assembler a = lower(op.prog, abi);
            bool loaded = true;
            try {
                a.writeTo(proc->as(), code_va);
            } catch (const std::exception &) {
                // Injected translation failure while loading the
                // image — deterministic, so log-and-skip keeps the
                // runs comparable.
                loaded = false;
            }
            if (!loaded) {
                er.events.push_back("compute load-failed");
                break;
            }
            // Persistent per-process execution context: the decode
            // cache stays warm across Compute ops, and execution runs
            // through the kernel's scheduler (preemptible at the
            // configured time slice) instead of a private loop.
            sched::ExecContext &cx =
                startProgram(kern, *proc, abi, code_va,
                             scratch_va + 3 * pageSize, 4096);
            kern.runUntilIdle();
            isa::InterpResult res = cx.last;
            // Steps across the whole ready-window, not just the final
            // slice — matches what a single run(4096) used to report.
            std::string ev = fmt(
                "compute st%d fault %s steps %" PRIu64,
                static_cast<int>(res.status),
                std::string(capFaultName(res.fault)).c_str(),
                cx.retired() - cx.readyBaseSteps);
            er.events.push_back(ev + workRegs(proc->regs()));
            break;
          }
          case K::Revoke: {
            // Quarantine-shaped ranges: mostly never-allocated high
            // addresses (exercising the skip-clean fast path), with an
            // occasional live region (exercising real tag clearing and
            // the oracle's closed-epoch absence rule).
            std::vector<std::pair<u64, u64>> ranges;
            u64 lo = 0x7000000000 + (op.a % 8) * 0x10000;
            ranges.emplace_back(lo, lo + (1 + op.b % 4) * pageSize);
            if (op.c % 2 && !regions.empty()) {
                const Region &r = regions[op.c % regions.size()];
                ranges.emplace_back(r.va, r.va + r.len);
            }
            u32 flags = (op.c % 3 == 0) ? REVOKE_INCREMENTAL
                                        : REVOKE_SYNC;
            if (op.b % 4 == 0)
                flags |= REVOKE_FORCE_FULL;
            u64 stage_va = scratch_va + 2 * pageSize + 512;
            proc->as().writeBytes(stage_va, ranges.data(),
                                  ranges.size() * 16);
            sysInvoke(kern, *proc, SysNum::Revoke2,
                      {SysArg::p(at(scratch, stage_va)),
                       SysArg::i(ranges.size()), SysArg::i(flags)});
            // Scrub the staging bytes: live-region ranges contain
            // ABI-specific mapping addresses, which must not leak into
            // the scratch image comparison.
            u8 zeros[16 * 8] = {};
            proc->as().writeBytes(stage_va, zeros, ranges.size() * 16);
            break;
          }
          case K::ThrNew: {
            if (tids.size() >= 3)
                break;
            // Explicit stack size: usually sane, occasionally absurd —
            // the kernel must reject the latter with E_INVAL rather
            // than minting a capability outside the user root.
            u64 sz = (op.c % 4 == 0) ? ~u64(0) : op.c % (8 * pageSize);
            auto rr =
                sysInvoke(kern, *proc, SysNum::ThrNew, {SysArg::i(sz)});
            if (!rr.res.failed())
                tids.push_back(rr.res.value);
            break;
          }
          case K::ThrSwitch: {
            // Host-driven, so no scheduler context is running and the
            // kernel performs the legacy immediate register-file swap;
            // targets include tid 0 so the main thread comes back.
            u64 target = (tids.empty() || op.b % 3 == 0)
                             ? 0
                             : tids[op.a % tids.size()];
            sysInvoke(kern, *proc, SysNum::ThrSwitch,
                      {SysArg::i(target)});
            break;
          }
          case K::Wait4: {
            if (childPids.empty()) {
                // No children: deterministic E_CHILD both runs.
                sysInvoke(kern, *proc, SysNum::Wait4, {SysArg::i(0)});
                break;
            }
            // Force a tracked child to exit (host-side, identically in
            // both runs), then reap it: exercises the zombie-reap path
            // without depending on scheduler-driven child execution.
            u64 idx = op.a % childPids.size();
            u64 pid = childPids[idx];
            if (Process *child = kern.findProcess(pid))
                kern.exitProcess(*child, static_cast<int>(op.b % 8));
            sysInvoke(kern, *proc, SysNum::Wait4, {SysArg::i(pid)});
            childPids.erase(childPids.begin() +
                            static_cast<std::ptrdiff_t>(idx));
            break;
          }
        }
    }

    // Final state capture: injector off so imaging itself cannot fail
    // for injected reasons.
    kern.faultInjector().disarmAll();
    capturePanic(er, kern);

    if (opts.checkEvery)
        runOracle(er, kern, opts);

    if (VNodeRef out = kern.vfs().lookup("/fz_out"))
        er.output = out->data;

    for (u64 i = 0; i < regions.size(); ++i) {
        hashRegion(er, *proc, fmt("r%" PRIu64, i).c_str(),
                   regions[i].va, regions[i].len);
    }
    hashRegion(er, *proc, "scratch", scratch_va, 4 * pageSize);

    kern.forEachProcess([&](const Process &p) {
        er.events.push_back(
            fmt("proc %" PRIu64 " exited%d status%d death %s", p.pid(),
                p.exited() ? 1 : 0, p.exitStatus(),
                p.death()
                    ? std::string(capFaultName(p.death()->fault))
                          .c_str()
                    : "-"));
    });
    er.events.push_back(fmt("handlers %" PRIu64, handler_runs));

    if (opts.keepMetricsJson)
        er.metricsJson = metrics.toJson();

    // The hook closure references stack locals; detach before unwind.
    kern.setCheckHook(nullptr);
    return er;
}

/**
 * Multi-process mode: 2-4 guests execute generated programs
 * concurrently under the kernel scheduler, preempted at the configured
 * time slice.  The invariant oracle runs at EVERY slice boundary — the
 * scheduler's core soundness claim is that slice boundaries are
 * quiescent points — and the interleaved syscall event stream plus the
 * per-guest final states are compared across ABIs.
 */
ExecResult
execCaseMulti(Abi abi, const FuzzOptions &opts, u64 case_seed)
{
    ExecResult er;
    obs::Metrics metrics; // must outlive the kernel
    KernelConfig cfg;
    cfg.frameCapacity = opts.frameCapacity;
    cfg.swapSlotBudget = opts.swapSlotBudget;
    cfg.timeSliceSteps = 32; // short slices: more boundaries to check
    Kernel kern(cfg);
    kern.setMetrics(&metrics);
    snap::installPanicSnapshotHook(kern);
    TapGuard tap(kern.faultInjector(), opts.replay);
    sched::Scheduler &s = sched::schedulerFor(kern);

    u64 n = opts.multiProc < 2 ? 2 : (opts.multiProc > 4 ? 4 : opts.multiProc);
    FuzzRng rng(case_seed ^ 0x5eedULL, opts.replay);
    SelfObject prog = fuzzProgram();

    kern.setCheckHook([&](Process &p, u64 code) {
        ++er.syscalls;
        if (opts.replay)
            opts.replay->quiesce(kern, p, code);
        const SyscallInfo *si = syscallInfo(code);
        const ThreadRegs &r = p.regs();
        er.events.push_back(fmt("p%" PRIu64 " %s e%d v%" PRIu64,
                                p.pid(),
                                std::string(si ? si->name : "invalid")
                                    .c_str(),
                                r.x[regSysErr] != 0 ? 1 : 0,
                                r.x[regRetVal]));
    });

    // One pipe shared by every guest: the same two open-file
    // descriptions land in each guest's fd table (same slots, both
    // ABIs), so generated producer/consumer ops move bytes across
    // scheduler-sliced processes.  O_NONBLOCK keeps the streams
    // ABI-comparable: a generated op mix has no liveness guarantee
    // (a reader with no willing writer would park forever and its
    // final dump would expose the ABI-specific buffer address still
    // sitting in x5 at the rewound syscall), so would-block ops must
    // return E_AGAIN and let the program reach the x5 normalization.
    // The park/wake path itself is covered by test_fd and pipe_bench.
    auto [pipe_rd, pipe_wr] = Vfs::makePipe();
    auto pipe_rof = std::make_shared<OpenFile>();
    pipe_rof->node = pipe_rd;
    pipe_rof->flags = O_RDONLY | O_NONBLOCK;
    auto pipe_wof = std::make_shared<OpenFile>();
    pipe_wof->node = pipe_wr;
    pipe_wof->flags = O_WRONLY | O_NONBLOCK;

    std::vector<Process *> guests;
    for (u64 i = 0; i < n; ++i) {
        Process *proc = kern.spawn(abi, "fuzz-mp");
        if (kern.execve(*proc, prog, {"fuzz-mp"}, {}) != E_OK) {
            er.setupFailed = true;
            er.events.push_back("execve-failed");
            return er;
        }
        int pipe_rfd = proc->allocFd(pipe_rof);
        int pipe_wfd = proc->allocFd(pipe_wof);
        u64 code_va = proc->as().map(0, pageSize,
                                     PROT_READ | PROT_WRITE | PROT_EXEC,
                                     MappingKind::Text, false, false,
                                     "fuzzcode");
        u64 data_va = proc->as().map(0, pageSize,
                                     PROT_READ | PROT_WRITE,
                                     MappingKind::Data, false, false,
                                     "fuzzdata");
        lower(genMultiProgram(rng), abi, pipe_rfd, pipe_wfd)
            .writeTo(proc->as(), code_va);
        startProgram(kern, *proc, abi, code_va, data_va, 16384);
        guests.push_back(proc);
    }

    // Fault injection in multi-process mode: armed only after guest
    // setup, so injected exhaustion lands in scheduled execution (the
    // comparison is skipped for injected runs, as in single-proc mode;
    // the oracle at every slice boundary is the sound check).
    if (opts.inject)
        armInjection(kern, case_seed);

    // The oracle at every slice boundary: register files have just
    // been switched at an instruction boundary, so every whole-system
    // invariant must hold.
    if (opts.checkEvery)
        s.setSliceHook([&](Process &) { runOracle(er, kern, opts); });
    kern.runUntilIdle();
    s.setSliceHook(nullptr);
    kern.faultInjector().disarmAll();
    capturePanic(er, kern);

    // Final states: per-guest halt status, work registers, threads.
    for (u64 i = 0; i < guests.size(); ++i) {
        Process *proc = guests[i];
        sched::ExecContext &cx = s.context(*proc, 0);
        std::string ev =
            fmt("guest %" PRIu64 " st%d fault %s threads %" PRIu64, i,
                static_cast<int>(cx.last.status),
                std::string(capFaultName(cx.last.fault)).c_str(),
                proc->threadCount());
        er.events.push_back(ev + workRegs(proc->regs()));
    }
    er.events.push_back(fmt("sched switches %" PRIu64 " preempt %" PRIu64
                            " slices %" PRIu64 " sleeps %" PRIu64
                            " fdblocks %" PRIu64 " wakes %" PRIu64,
                            s.stats().contextSwitches,
                            s.stats().preemptions, s.stats().slices,
                            s.stats().blocksSleep, s.stats().blocksFd,
                            s.stats().wakes));

    if (opts.keepMetricsJson)
        er.metricsJson = metrics.toJson();

    kern.setCheckHook(nullptr);
    return er;
}

} // namespace

CaseReport
DiffFuzzer::runCase(u64 index)
{
    CaseReport cr;
    cr.index = index;
    cr.caseSeed = opts.seed ^ (0x9e3779b97f4a7c15ULL * (index + 1));

    ExecResult legacy, cheri;
    if (opts.multiProc) {
        legacy = execCaseMulti(Abi::Mips64, opts, cr.caseSeed);
        cheri = execCaseMulti(Abi::CheriAbi, opts, cr.caseSeed);
    } else {
        std::vector<GenOp> ops =
            generate(cr.caseSeed, opts.opsPerCase, opts.replay);
        legacy = execCase(Abi::Mips64, opts, cr.caseSeed, ops);
        cheri = execCase(Abi::CheriAbi, opts, cr.caseSeed, ops);
    }
    if (opts.keepMetricsJson)
        cr.metricsJson = legacy.metricsJson + cheri.metricsJson;
    cr.panicJson = legacy.panicJson.empty() ? cheri.panicJson
                                            : legacy.panicJson;

    cr.syscalls = legacy.syscalls + cheri.syscalls;
    cr.oracleRuns = legacy.oracleRuns + cheri.oracleRuns;
    for (Violation &v : legacy.violations) {
        v.detail = "mips64: " + v.detail;
        cr.violations.push_back(std::move(v));
    }
    for (Violation &v : cheri.violations) {
        v.detail = "cheriabi: " + v.detail;
        cr.violations.push_back(std::move(v));
    }

    // Under fault injection the two ABI runs make different numbers of
    // frame allocations and swap operations before reaching the same
    // op, so a period-N schedule fires at different points in each
    // timeline and event streams diverge benignly.  The invariant
    // oracle is the sound check there; the differential comparison is
    // only meaningful on uninjected runs.
    if (!opts.inject) {
        constexpr u64 maxDivergences = 8;
        u64 n = std::max(legacy.events.size(), cheri.events.size());
        for (u64 i = 0;
             i < n && cr.divergences.size() < maxDivergences; ++i) {
            const std::string &a =
                i < legacy.events.size() ? legacy.events[i]
                                         : "<missing>";
            const std::string &b =
                i < cheri.events.size() ? cheri.events[i] : "<missing>";
            if (a != b) {
                cr.divergences.push_back(fmt(
                    "event %" PRIu64 ": mips64 '%s' vs cheriabi '%s'",
                    i, a.c_str(), b.c_str()));
            }
        }
        if (legacy.output != cheri.output &&
            cr.divergences.size() < maxDivergences) {
            cr.divergences.push_back(
                fmt("output bytes differ: mips64 %zu bytes, cheriabi "
                    "%zu bytes",
                    legacy.output.size(), cheri.output.size()));
        }
    }

    if (opts.replay)
        opts.replay->caseEnd(index);
    if (cr.failed() && !opts.artifactPrefix.empty()) {
        std::string stem =
            opts.artifactPrefix + "-case" + std::to_string(index);
        // Prefer the oracle-violation image; a panic's auto-captured
        // image is the fallback (a panicking case usually reset the
        // kernel before the end-of-run oracle pass could snapshot it).
        std::vector<u8> *img = &legacy.snapshot;
        if (img->empty())
            img = &cheri.snapshot;
        if (img->empty())
            img = &legacy.panicImage;
        if (img->empty())
            img = &cheri.panicImage;
        writeArtifact(stem + ".img", *img);
        if (!cr.panicJson.empty()) {
            writeArtifact(stem + ".panic.json",
                          std::vector<u8>(cr.panicJson.begin(),
                                          cr.panicJson.end()));
        }
        if (opts.replay && opts.replay->recording()) {
            // A replayable log up to and including this case.
            FuzzOptions o = opts;
            o.cases = index + 1;
            writeArtifact(stem + ".log", opts.replay->serialize(o));
        }
    }
    return cr;
}

FuzzReport
DiffFuzzer::run()
{
    FuzzReport rep;
    rep.seed = opts.seed;
    rep.opsPerCase = opts.opsPerCase;
    for (u64 i = 0; i < opts.cases; ++i) {
        CaseReport cr = runCase(i);
        ++rep.casesRun;
        rep.syscalls += cr.syscalls;
        rep.oracleRuns += cr.oracleRuns;
        if (cr.diverged())
            ++rep.divergentCases;
        rep.violationCount += cr.violations.size();
        if (cr.failed() && rep.failures.size() < FuzzReport::maxFailures)
            rep.failures.push_back(std::move(cr));
        if (mx)
            mx->recordFuzzCase(cr.diverged());
    }
    if (opts.replay) {
        opts.replay->finish();
        if (mx)
            mx->recordReplaySession(!opts.replay->recording(),
                                    opts.replay->entryCount(),
                                    opts.replay->divergenceCount());
    }
    return rep;
}

std::string
FuzzReport::summary() const
{
    std::string out =
        fmt("abi_fuzz: seed %" PRIu64 ", %" PRIu64 " cases, %" PRIu64
            " syscalls, %" PRIu64 " oracle runs: %" PRIu64
            " divergent cases, %" PRIu64 " oracle violations\n",
            seed, casesRun, syscalls, oracleRuns, divergentCases,
            violationCount);
    for (const CaseReport &c : failures) {
        out += fmt("case %" PRIu64 " (case seed 0x%" PRIx64 "):\n",
                   c.index, c.caseSeed);
        for (const std::string &d : c.divergences)
            out += "  divergence: " + d + "\n";
        for (const Violation &v : c.violations)
            out += "  violation [" + v.rule + "]: " + v.detail + "\n";
        out += fmt("  reproduce: abi_fuzz --seed %" PRIu64
                   " --cases %" PRIu64 " --ops-per-case %" PRIu64 "\n",
                   seed, c.index + 1, opsPerCase);
    }
    return out;
}

std::string
FuzzReport::toJson() const
{
    obs::JsonWriter w;
    w.beginObject();
    w.key("schema").value(std::string_view("cheri.abi_fuzz.v1"));
    w.key("seed").value(seed);
    w.key("ops_per_case").value(opsPerCase);
    w.key("cases_run").value(casesRun);
    w.key("syscalls").value(syscalls);
    w.key("oracle_runs").value(oracleRuns);
    w.key("divergent_cases").value(divergentCases);
    w.key("oracle_violations").value(violationCount);
    w.key("ok").value(ok());
    w.key("failures").beginArray();
    for (const CaseReport &c : failures) {
        w.beginObject();
        w.key("case").value(c.index);
        w.key("case_seed").value(c.caseSeed);
        w.key("divergences").beginArray();
        for (const std::string &d : c.divergences)
            w.value(std::string_view(d));
        w.endArray();
        w.key("violations").beginArray();
        for (const Violation &v : c.violations) {
            w.beginObject();
            w.key("rule").value(std::string_view(v.rule));
            w.key("detail").value(std::string_view(v.detail));
            w.endObject();
        }
        w.endArray();
        w.endObject();
    }
    w.endArray();
    w.endObject();
    return w.str();
}

} // namespace cheri::check
