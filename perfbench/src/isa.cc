/**
 * @file
 * Workload `isa`: interpreted MiniCHERI guests under the scheduler.
 *
 * Each item is a fresh kernel running up to four guests, time-sliced by
 * sched::Scheduler.  The guest programs are assembled once, at set-up,
 * from the seed; items only load them and their seed-drawn data:
 *
 *  - legacy copy:  mips64 ld/sd copy + checksum (via DDC);
 *  - cap copy:     CheriABI cld/csd copy + checksum (via c1/c2);
 *  - clc chase:    CheriABI pointer chase through capabilities;
 *  - int chase:    mips64 pointer chase through integer addresses;
 *  - pipe pair:    blocking producer/consumer over one pipe;
 *  - alu loop:     a loop body larger than the 256-entry decode cache.
 *
 * Copies and chases come in a small and a large size: working sets
 * below and above both the 64-entry host TLB reach (256 KiB) and the
 * 256 KiB modelled L2.  Which guests share a kernel is fixed
 * (roundSingles); the seed draws their data, chase orders, ALU loop
 * bodies and register values.  One item per round, in a seed-drawn
 * rotation, is stopped after a seed-drawn number of steps,
 * checkpointed with snap::save, restored into a new Kernel with
 * snap::restore, and finished there; it must produce the same
 * outputs.
 */

#include <algorithm>
#include <random>
#include <stdexcept>

#include "harness.h"
#include "isa/assembler.h"
#include "obs/metrics.h"
#include "os/sched/sched.h"
#include "os/snapshot/snapshot.h"

namespace perfbench
{

namespace
{

using namespace cheri;
using isa::InterpResult;

enum class Prog
{
    LegacyCopy,
    CapCopy,
    ClcChase,
    IntChase,
    Producer,
    Consumer,
    Alu,
};

constexpr u64 copySmallWords = 4 * 1024;   // 32 KiB per buffer
constexpr u64 copyLargeWords = 48 * 1024;  // 384 KiB per buffer
constexpr u64 chaseSmallNodes = 1024;
constexpr u64 chaseLargeNodes = 16 * 1024; // 512 KiB clc, 256 KiB int
constexpr u64 clcNodeBytes = 32;           // next cap + value + pad
constexpr u64 intNodeBytes = 16;           // next address + value
constexpr u64 pipeBytes = 256 * 1024;      // 4x the pipe capacity
constexpr u64 pipeChunk = 4096;
constexpr u64 aluBodyOps = 320;            // > 256-entry decode cache
constexpr u64 aluIters = 160;
constexpr u64 aluVariants = 4;
constexpr unsigned aluRegs = 6;            // x10..x15
constexpr u64 itemsPerRound = 4;

/** One seed-chosen ALU loop body: (op, rd, rs, rt/imm) per slot. */
struct AluOp
{
    u8 op; // 0 add, 1 sub, 2 xor, 3 mul, 4 addi
    u8 rd, rs, rt;
    s64 imm;
};

struct GuestSpec
{
    Prog prog = Prog::Alu;
    /** Words (copy), nodes (chase), or bytes (pipe). */
    u64 n = 0;
    unsigned variant = 0;
    /** Copy source, chase values, or pipe stream (as words). */
    std::vector<u64> data;
    /** Chase visiting order. */
    std::vector<u32> order;
    /** Checksum (copy/chase) or final x10..x15 (alu). */
    std::vector<u64> expect;
    std::vector<u64> aluInit;

    /** Filled in by run(). */
    u64 pid = 0;
    u64 src = 0;
    u64 dst = 0;
};

struct IsaState : ItemState
{
    std::vector<GuestSpec> guests;
    bool checkpoint = false;
    u64 stepLimit = 0;

    /** Declared before the kernels: they must outlive them. */
    obs::Metrics mx, mx2;
    std::unique_ptr<Kernel> kern, kern2;
    u64 imageBytes = 0;
    /** Kernel-side counters of the first kernel at its end and the
     *  restored kernel at its start (checkpointed items). */
    Counts firstEnd, restoredStart;
    std::string failure;
};

Abi
abiOf(Prog p)
{
    switch (p) {
      case Prog::CapCopy:
      case Prog::ClcChase:
        return Abi::CheriAbi;
      default:
        return Abi::Mips64;
    }
}

const char *
nameOf(Prog p)
{
    switch (p) {
      case Prog::LegacyCopy: return "legacy-copy";
      case Prog::CapCopy: return "cap-copy";
      case Prog::ClcChase: return "clc-chase";
      case Prog::IntChase: return "int-chase";
      case Prog::Producer: return "pipe-producer";
      case Prog::Consumer: return "pipe-consumer";
      case Prog::Alu: return "alu-loop";
    }
    return "?";
}

/** Pipe transfer loop: x8 buffer, x9 bytes left, x12 fd; x11 = 1 on a
 *  syscall error or early EOF. */
isa::Assembler
pipeLoop(SysNum op)
{
    isa::Assembler a;
    a.label("loop")
        .move(4, 12)
        .move(5, 8)
        .li(6, static_cast<s64>(pipeChunk))
        .slt(10, 9, 6)
        .beq(10, 0, "go")
        .move(6, 9)
        .label("go")
        .syscall(static_cast<s64>(op))
        .bne(2, 0, "fail")
        .beq(3, 0, "fail")
        .add(8, 8, 3)
        .sub(9, 9, 3)
        .bne(9, 0, "loop")
        .halt()
        .label("fail")
        .li(11, 1)
        .halt();
    return a;
}

isa::Assembler
aluLoop(const std::vector<AluOp> &body)
{
    isa::Assembler a;
    a.label("top");
    for (const AluOp &o : body) {
        switch (o.op) {
          case 0: a.add(o.rd, o.rs, o.rt); break;
          case 1: a.sub(o.rd, o.rs, o.rt); break;
          case 2: a.xor_(o.rd, o.rs, o.rt); break;
          case 3: a.mul(o.rd, o.rs, o.rt); break;
          default: a.addi(o.rd, o.rs, o.imm); break;
        }
    }
    a.addi(3, 3, -1).bne(3, 0, "top").halt();
    return a;
}

/** Host reference for the ALU loop. */
std::vector<u64>
aluReference(const std::vector<AluOp> &body, std::vector<u64> x)
{
    auto r = [&](u8 reg) -> u64 & { return x[reg - 10]; };
    for (u64 it = 0; it < aluIters; ++it) {
        for (const AluOp &o : body) {
            switch (o.op) {
              case 0: r(o.rd) = r(o.rs) + r(o.rt); break;
              case 1: r(o.rd) = r(o.rs) - r(o.rt); break;
              case 2: r(o.rd) = r(o.rs) ^ r(o.rt); break;
              case 3: r(o.rd) = r(o.rs) * r(o.rt); break;
              default: r(o.rd) = r(o.rs) + static_cast<u64>(o.imm); break;
            }
        }
    }
    return x;
}

/** Kernel-side counters that a checkpointed item sums across its two
 *  kernels. */
Counts
kernelCounters(Kernel &kern, const obs::Metrics &mx)
{
    Counts c;
    const SchedStats &ss = sched::schedulerFor(kern).stats();
    c["steps"] = ss.stepsExecuted;
    c["context_switches"] = ss.contextSwitches;
    c["blocks_fd"] = ss.blocksFd;
    c["wakes"] = ss.wakes;
    u64 calls = 0;
    for (unsigned num = 1; num < numSysNums; ++num) {
        for (Abi abi : {Abi::Mips64, Abi::CheriAbi})
            calls += mx.syscall(num, abi).calls;
    }
    c["syscalls"] = calls;
    for (Abi abi : {Abi::Mips64, Abi::CheriAbi}) {
        c["tlb_fetch_hits"] += mx.tlbCounter(abi, TlbFetchHit);
        c["tlb_fetch_misses"] += mx.tlbCounter(abi, TlbFetchMiss);
        c["tlb_data_hits"] += mx.tlbCounter(abi, TlbDataHit);
        c["tlb_data_misses"] += mx.tlbCounter(abi, TlbDataMiss);
    }
    return c;
}

class Isa final : public Workload
{
  public:
    void
    plan(u64 s, Plant p) override
    {
        seed = s;
        plant = p;
        u64 t0 = nowNs();
        std::mt19937_64 rng(mix(seed, 0x15a));
        images.clear();
        auto add = [&](Prog prog, unsigned variant,
                       const isa::Assembler &a) {
            images[{prog, variant}] = a.assemble();
        };
        add(Prog::LegacyCopy, 0,
            isa::Assembler()
                .label("loop")
                .ld(4, 1, 0)
                .add(5, 5, 4)
                .sd(4, 2, 0)
                .addi(1, 1, 8)
                .addi(2, 2, 8)
                .addi(3, 3, -1)
                .bne(3, 0, "loop")
                .halt());
        add(Prog::CapCopy, 0,
            isa::Assembler()
                .label("loop")
                .cld(4, 1, 0)
                .add(5, 5, 4)
                .csd(4, 2, 0)
                .cincoffsetimm(1, 1, 8)
                .cincoffsetimm(2, 2, 8)
                .addi(3, 3, -1)
                .bne(3, 0, "loop")
                .halt());
        add(Prog::ClcChase, 0,
            isa::Assembler()
                .label("loop")
                .cld(6, 1, 16)
                .add(5, 5, 6)
                .clc(1, 1, 0)
                .addi(3, 3, -1)
                .bne(3, 0, "loop")
                .halt());
        add(Prog::IntChase, 0,
            isa::Assembler()
                .label("loop")
                .ld(6, 1, 8)
                .add(5, 5, 6)
                .ld(1, 1, 0)
                .addi(3, 3, -1)
                .bne(3, 0, "loop")
                .halt());
        add(Prog::Producer, 0, pipeLoop(SysNum::Write));
        add(Prog::Consumer, 0, pipeLoop(SysNum::Read));
        aluBodies.assign(aluVariants, {});
        for (unsigned v = 0; v < aluVariants; ++v) {
            for (u64 i = 0; i < aluBodyOps; ++i) {
                AluOp o;
                o.op = static_cast<u8>(rng() % 5);
                o.rd = static_cast<u8>(10 + rng() % aluRegs);
                o.rs = static_cast<u8>(10 + rng() % aluRegs);
                o.rt = static_cast<u8>(10 + rng() % aluRegs);
                o.imm = static_cast<s64>(rng() % 100000) | 1;
                aluBodies[v].push_back(o);
            }
            add(Prog::Alu, v, aluLoop(aluBodies[v]));
        }
        assembleMs = static_cast<double>(nowNs() - t0) / 1e6;
    }

    u64 roundSize() const override { return itemsPerRound; }

    Values
    setupValues() const override
    {
        return {{"isa.assemble_ms", assembleMs}};
    }

    std::unique_ptr<ItemState> prepare(u64 k) override;
    void run(ItemState &base) override;
    Outcome check(ItemState &base) override;

    void
    derive(const std::vector<Outcome> &ref,
           const std::map<std::string, Tracer::Total> &spans,
           Values &out) const override
    {
        double fh = sumCount(ref, "tlb_fetch_hits");
        double fm = sumCount(ref, "tlb_fetch_misses");
        double dh = sumCount(ref, "tlb_data_hits");
        double dm = sumCount(ref, "tlb_data_misses");
        double ia = sumCount(ref, "itlb_accesses");
        double im = sumCount(ref, "itlb_misses");
        out["isa.decode_hit_rate"] = ratio(fh, fh + fm);
        out["mem.itlb_hit_rate"] = ratio(ia - im, ia);
        out["mem.dtlb_hit_rate"] = ratio(dh, dh + dm);
        out["sched.context_switches"] = sumCount(ref, "context_switches");
        out["sched.blocks_fd"] = sumCount(ref, "blocks_fd");
        out["sched.wakes"] = sumCount(ref, "wakes");
        double images = sumCount(ref, "checkpointed");
        out["snapshot.image_mb"] =
            ratio(sumCount(ref, "image_bytes") / (1024.0 * 1024.0), images);
        out["machine.sim_insn"] = sumCount(ref, "sim_insn");
        out["machine.sim_cycles"] = sumCount(ref, "sim_cycles");

        out["sched.run_ms"] = meanMs(spans, "sched.run");
        out["sched.ns_per_step"] =
            ratio(totalNs(spans, "sched.run"), sumCount(ref, "steps"));
        out["snapshot.save_ms"] = meanMs(spans, "snapshot.save");
        out["snapshot.restore_ms"] = meanMs(spans, "snapshot.restore");
        out["os.boot_ms"] = meanMs(spans, "os.boot");
    }

  private:
    GuestSpec makeGuest(Prog prog, u64 n, unsigned variant, u64 gseed);
    void load(IsaState &st, sched::Scheduler &s, GuestSpec &g,
              const std::pair<VNodeRef, VNodeRef> &pipe);
    std::string verify(IsaState &st, Kernel &kern, GuestSpec &g);

    u64 seed = 0;
    Plant plant = Plant::None;
    std::map<std::pair<Prog, unsigned>, std::vector<u64>> images;
    std::vector<std::vector<AluOp>> aluBodies;
    double assembleMs = 0;
};

GuestSpec
Isa::makeGuest(Prog prog, u64 n, unsigned variant, u64 gseed)
{
    std::mt19937_64 rng(gseed);
    GuestSpec g;
    g.prog = prog;
    g.n = n;
    g.variant = variant;
    switch (prog) {
      case Prog::LegacyCopy:
      case Prog::CapCopy: {
        g.data.resize(n);
        u64 sum = 0;
        for (u64 &w : g.data) {
            w = rng();
            sum += w;
        }
        g.expect = {sum};
        break;
      }
      case Prog::ClcChase:
      case Prog::IntChase: {
        g.data.resize(n);
        g.order.resize(n);
        for (u32 i = 0; i < n; ++i)
            g.order[i] = i;
        std::shuffle(g.order.begin(), g.order.end(), rng);
        u64 sum = 0;
        for (u64 &w : g.data) {
            w = rng() >> 8;
            sum += w;
        }
        g.expect = {sum};
        break;
      }
      case Prog::Producer:
        g.data.resize(n / 8);
        for (u64 &w : g.data)
            w = rng();
        break;
      case Prog::Consumer:
        break;
      case Prog::Alu:
        for (unsigned r = 0; r < aluRegs; ++r)
            g.aluInit.push_back(rng());
        g.expect = aluReference(aluBodies[variant], g.aluInit);
        break;
    }
    return g;
}

/**
 * The guests of each kernel of a round, after the pipe pair that the
 * first two also run.  Each kernel holds one guest whose working set
 * exceeds both the host-TLB reach and the modelled L2.  The table is
 * fixed, not drawn from the seed: with a seed-drawn mix, which heavy
 * guests met in one kernel decided the upper tail of the item times,
 * and item_ms_p90 differed by a quarter between seeds.
 */
const std::vector<std::pair<Prog, u64>> roundSingles[itemsPerRound] = {
    {{Prog::LegacyCopy, copyLargeWords}, {Prog::ClcChase, chaseSmallNodes}},
    {{Prog::CapCopy, copyLargeWords}, {Prog::IntChase, chaseSmallNodes}},
    {{Prog::LegacyCopy, copySmallWords},
     {Prog::ClcChase, chaseLargeNodes},
     {Prog::Alu, 0}},
    {{Prog::CapCopy, copySmallWords},
     {Prog::IntChase, chaseLargeNodes},
     {Prog::Alu, 0}},
};

std::unique_ptr<ItemState>
Isa::prepare(u64 k)
{
    auto st = std::make_unique<IsaState>();
    u64 round = k / itemsPerRound;
    u64 idx = k % itemsPerRound;
    u64 rseed = mix(seed, round);
    std::mt19937_64 rng(rseed);
    // One kernel per round is checkpointed, in a seed-drawn rotation, so
    // every kernel of the table is checkpointed equally often.
    u64 checkpointIdx = (round + mix(seed, 0xc4)) % itemsPerRound;
    u64 limit = 2000 + rng() % 30000;

    u64 gseed = mix(rseed, idx);
    if (idx < 2) {
        st->guests.push_back(
            makeGuest(Prog::Producer, pipeBytes, 0, mix(gseed, 100)));
        st->guests.push_back(
            makeGuest(Prog::Consumer, pipeBytes, 0, mix(gseed, 101)));
    }
    const auto &singles = roundSingles[idx];
    for (u64 i = 0; i < singles.size(); ++i) {
        auto [prog, n] = singles[i];
        unsigned variant = 0;
        if (prog == Prog::Alu)
            variant = static_cast<unsigned>(mix(gseed, 7) % aluVariants);
        st->guests.push_back(makeGuest(prog, n, variant, mix(gseed, i)));
    }
    st->checkpoint = idx == checkpointIdx;
    st->stepLimit = st->checkpoint ? limit : 0;
    return st;
}

void
Isa::load(IsaState &st, sched::Scheduler &s, GuestSpec &g,
          const std::pair<VNodeRef, VNodeRef> &pipe)
{
    Kernel &kern = *st.kern;
    Abi abi = abiOf(g.prog);
    SelfObject obj;
    obj.name = nameOf(g.prog);
    Process *proc = kern.spawn(abi, obj.name);
    if (kern.execve(*proc, obj, {obj.name}, {}) != E_OK)
        throw std::runtime_error("execve failed");
    g.pid = proc->pid();
    AddressSpace &as = proc->as();
    const std::vector<u64> &code = images.at({g.prog, g.variant});
    u64 codeLen = pageRound(code.size() * 8);
    u64 code_va = as.map(0, codeLen, PROT_READ | PROT_WRITE | PROT_EXEC,
                         MappingKind::Text);
    if (as.writeBytes(code_va, code.data(), code.size() * 8))
        throw std::runtime_error("code load failed");

    ThreadRegs &r = proc->regs();
    auto region = [&](u64 bytes) {
        return as.map(0, pageRound(bytes), PROT_READ | PROT_WRITE,
                      MappingKind::Data);
    };
    auto cap = [&](u64 va, u64 bytes) {
        return as.capForRange(va, bytes, PROT_READ | PROT_WRITE, false)
            .setAddress(va);
    };
    switch (g.prog) {
      case Prog::LegacyCopy:
      case Prog::CapCopy: {
        u64 bytes = g.n * 8;
        g.src = region(bytes);
        g.dst = region(bytes);
        if (as.writeBytes(g.src, g.data.data(), bytes))
            throw std::runtime_error("data load failed");
        r.x[3] = g.n;
        if (g.prog == Prog::CapCopy) {
            r.c[1] = cap(g.src, bytes);
            r.c[2] = cap(g.dst, bytes);
        } else {
            r.x[1] = g.src;
            r.x[2] = g.dst;
        }
        break;
      }
      case Prog::ClcChase:
      case Prog::IntChase: {
        bool clc = g.prog == Prog::ClcChase;
        u64 node = clc ? clcNodeBytes : intNodeBytes;
        u64 bytes = g.n * node;
        g.src = region(bytes);
        Capability all = clc ? cap(g.src, bytes) : Capability();
        for (u64 i = 0; i < g.n; ++i) {
            u64 va = g.src + g.order[i] * node;
            u64 next = g.src + g.order[(i + 1) % g.n] * node;
            bool bad = clc ? as.writeCap(va, all.setAddress(next)) !=
                                 std::nullopt
                           : as.writeBytes(va, &next, 8) != std::nullopt;
            bad = bad || as.writeBytes(va + (clc ? 16 : 8), &g.data[i], 8);
            if (bad)
                throw std::runtime_error("chase load failed");
        }
        u64 first = g.src + g.order[0] * node;
        r.x[3] = g.n;
        if (clc)
            r.c[1] = all.setAddress(first);
        else
            r.x[1] = first;
        break;
      }
      case Prog::Producer:
      case Prog::Consumer: {
        bool prod = g.prog == Prog::Producer;
        g.src = region(g.n);
        if (prod && as.writeBytes(g.src, g.data.data(), g.n))
            throw std::runtime_error("data load failed");
        auto of = std::make_shared<OpenFile>();
        of->node = prod ? pipe.second : pipe.first;
        of->flags = prod ? O_WRONLY : O_RDONLY;
        r.x[12] = static_cast<u64>(proc->allocFd(of));
        r.x[8] = g.src;
        r.x[9] = g.n;
        break;
      }
      case Prog::Alu:
        for (unsigned i = 0; i < aluRegs; ++i)
            r.x[10 + i] = g.aluInit[i];
        r.x[3] = aluIters;
        break;
    }

    sched::ExecContext &cx = s.context(*proc);
    if (abi == Abi::CheriAbi) {
        cx.interp->setEntry(
            as.capForRange(code_va, codeLen, PROT_READ | PROT_EXEC, false)
                .setAddress(code_va));
    } else {
        cx.interp->setEntry(Capability::fromAddress(code_va));
    }
    cx.stepLimit = st.stepLimit;
    s.ready(cx);
}

void
Isa::run(ItemState &base)
{
    auto &st = static_cast<IsaState &>(base);
    try {
        {
            Span span("os.boot");
            st.kern = std::make_unique<Kernel>();
            st.kern->setMetrics(&st.mx);
            sched::Scheduler &s = sched::schedulerFor(*st.kern);
            auto pipe = Vfs::makePipe();
            for (GuestSpec &g : st.guests)
                load(st, s, g, pipe);
        }
        {
            Span span("sched.run");
            st.kern->runUntilIdle();
        }
        if (!st.checkpoint)
            return;

        std::string err;
        std::vector<u8> image;
        {
            Span span("snapshot.save");
            image = snap::save(*st.kern, &err);
        }
        if (image.empty())
            throw std::runtime_error("snapshot failed: " + err);
        st.imageBytes = image.size();
        st.firstEnd = kernelCounters(*st.kern, st.mx);
        {
            Span span("snapshot.restore");
            st.kern2 = std::make_unique<Kernel>();
            st.kern2->setMetrics(&st.mx2);
            if (!snap::restore(*st.kern2, image, &err))
                throw std::runtime_error("restore failed: " + err);
        }
        st.restoredStart = kernelCounters(*st.kern2, st.mx2);
        sched::Scheduler &s2 = sched::schedulerFor(*st.kern2);
        for (GuestSpec &g : st.guests) {
            Process *p = st.kern2->findProcess(g.pid);
            if (!p)
                throw std::runtime_error("restored guest missing");
            sched::ExecContext &cx = s2.context(*p);
            if (cx.last.status == InterpResult::Status::StepLimit) {
                cx.stepLimit = 0;
                s2.ready(cx);
            }
        }
        Span span("sched.run");
        st.kern2->runUntilIdle();
    } catch (const std::exception &e) {
        st.failure = std::string("threw: ") + e.what();
    }
}

std::string
Isa::verify(IsaState &st, Kernel &kern, GuestSpec &g)
{
    Process *p = kern.findProcess(g.pid);
    if (!p)
        return std::string(nameOf(g.prog)) + ": process missing";
    sched::ExecContext &cx = sched::schedulerFor(kern).context(*p);
    if (cx.last.status != InterpResult::Status::Halted)
        return std::string(nameOf(g.prog)) + ": did not halt";
    const ThreadRegs &r = p->regs();
    std::string who = nameOf(g.prog);
    u64 planted = plant == Plant::Checksum ? 1 : 0;
    switch (g.prog) {
      case Prog::LegacyCopy:
      case Prog::CapCopy: {
        if (r.x[5] != g.expect[0] + planted)
            return who + ": checksum mismatch";
        std::vector<u64> dst(g.n);
        if (p->as().readBytes(g.dst, dst.data(), g.n * 8) ||
            dst != g.data)
            return who + ": dst differs from src";
        break;
      }
      case Prog::ClcChase:
      case Prog::IntChase:
        if (r.x[5] != g.expect[0] + planted)
            return who + ": checksum mismatch";
        break;
      case Prog::Producer:
        if (r.x[11] != 0 || r.x[9] != 0)
            return who + ": transfer failed";
        break;
      case Prog::Consumer: {
        if (r.x[11] != 0 || r.x[9] != 0)
            return who + ": transfer failed";
        const GuestSpec &prod = st.guests[0];
        std::vector<u64> got(g.n / 8);
        if (p->as().readBytes(g.src, got.data(), g.n) || got != prod.data)
            return who + ": byte stream differs";
        break;
      }
      case Prog::Alu:
        for (unsigned i = 0; i < aluRegs; ++i) {
            if (r.x[10 + i] != g.expect[i])
                return who + ": registers differ from host reference";
        }
        break;
    }
    return {};
}

Outcome
Isa::check(ItemState &base)
{
    auto &st = static_cast<IsaState &>(base);
    Outcome o;
    o.failure = st.failure;
    Kernel *fin = st.checkpoint ? st.kern2.get() : st.kern.get();
    if (!o.failure.empty() || !fin)
        return o;
    for (GuestSpec &g : st.guests) {
        std::string why = verify(st, *fin, g);
        if (!why.empty() && o.failure.empty())
            o.failure = why;
    }

    // Kernel-side counters: a checkpointed item adds what the restored
    // kernel did after its restore point to what the first one did.
    o.counts = kernelCounters(*fin, st.checkpoint ? st.mx2 : st.mx);
    if (st.checkpoint) {
        for (auto &[key, v] : o.counts)
            v = st.firstEnd[key] + (v - st.restoredStart[key]);
        o.counts["image_bytes"] = st.imageBytes;
        o.counts["checkpointed"] = 1;
    }
    // The cost models travel in the image, so the final kernel's are
    // whole-run totals either way.
    for (GuestSpec &g : st.guests) {
        if (Process *p = fin->findProcess(g.pid)) {
            const CostModel &c = p->cost();
            o.counts["sim_insn"] += c.instructions();
            o.counts["sim_cycles"] += c.cycles();
            o.counts["itlb_accesses"] += c.itlbAccesses();
            o.counts["itlb_misses"] += c.itlbMisses();
        }
    }
    return o;
}

} // namespace

std::unique_ptr<Workload>
makeIsa()
{
    return std::make_unique<Isa>();
}

} // namespace perfbench
