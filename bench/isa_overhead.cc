/**
 * @file
 * ISA-level comparison: the same copy/checksum kernel expressed with
 * legacy (DDC-relative) loads/stores versus capability-relative ones.
 *
 * The paper's compiler story is that pure-capability code is mostly a
 * 1:1 re-expression of legacy code — CLx/CSx replace Lx/Sx at the same
 * instruction count — with overhead coming from pointer *width*, GOT
 * access, and bounds-setting, not from per-access instruction bloat.
 * This bench verifies the 1:1 property at instruction level and
 * reports interpreter throughput on the host.
 *
 * Host throughput is the median and IQR over trials, each on a fresh
 * kernel, of the scheduler running the program to its halt.  Besides
 * the two copy kernels, a host-only ALU loop (no loads or stores) shows
 * the interpreter's dispatch cost apart from the memory path.
 *
 * --check exits nonzero unless, in every case, the modelled iTLB saw
 * exactly one access per retired instruction.
 */

#include <memory>

#include "apps/workloads.h"
#include "bench_util.h"
#include "isa/assembler.h"
#include "isa/interp.h"
#include "obs/metrics.h"
#include "os/kernel.h"
#include "os/sched/sched.h"

using namespace cheri;
using namespace cheri::isa;

namespace
{

constexpr int trials = 11;

enum class Program
{
    LegacyCopy,
    CapCopy,
    AluLoop,
};

/** One kernel running one program through the scheduler. */
struct Guest
{
    /** @p mx: the registry to attach; the guest's own when null. */
    Guest(Program program, u64 words, obs::Metrics *mx)
    {
        kern.setMetrics(mx ? mx : &ownMetrics); // wires TLB counters
        Abi abi = program == Program::LegacyCopy ? Abi::Mips64
                                                 : Abi::CheriAbi;
        SelfObject prog;
        prog.name = "isakernel";
        proc = kern.spawn(abi, "isakernel");
        if (kern.execve(*proc, prog, {"isakernel"}, {}) != E_OK)
            throw std::runtime_error("execve failed");
        u64 code = proc->as().map(0, pageSize,
                                  PROT_READ | PROT_WRITE | PROT_EXEC,
                                  MappingKind::Text);
        const u64 bytes = pageRound(words * 8);
        u64 src = proc->as().map(0, bytes, PROT_READ | PROT_WRITE,
                                 MappingKind::Data);
        // A page between the buffers: back to back they sit 64 pages
        // apart, one dTLB's reach, so each store would evict the dTLB
        // entry of the load before it and every copy access would miss.
        u64 dst = proc->as().map(src + bytes + pageSize, bytes,
                                 PROT_READ | PROT_WRITE, MappingKind::Data);

        Assembler a;
        switch (program) {
          case Program::CapCopy:
            // c1 = src cap, c2 = dst cap (installed below); x3 = counter.
            a.li(3, static_cast<s64>(words))
                .label("loop")
                .cld(4, 1, 0)
                .add(5, 5, 4) // checksum
                .csd(4, 2, 0)
                .cincoffsetimm(1, 1, 8)
                .cincoffsetimm(2, 2, 8)
                .addi(3, 3, -1)
                .bne(3, 0, "loop")
                .halt();
            break;
          case Program::LegacyCopy:
            a.li(1, static_cast<s64>(src))
                .li(2, static_cast<s64>(dst))
                .li(3, static_cast<s64>(words))
                .label("loop")
                .ld(4, 1, 0)
                .add(5, 5, 4)
                .sd(4, 2, 0)
                .addi(1, 1, 8)
                .addi(2, 2, 8)
                .addi(3, 3, -1)
                .bne(3, 0, "loop")
                .halt();
            break;
          case Program::AluLoop:
            // As many iterations as the copies have words, of a body
            // of register-only instructions.
            a.li(3, static_cast<s64>(words)).label("loop");
            for (u8 k = 0; k < 8; ++k) {
                u8 rd = 10 + k % 6;
                a.add(rd, rd, 3).xor_(rd, rd, 5).addi(5, rd, 7);
            }
            a.addi(3, 3, -1).bne(3, 0, "loop").halt();
            break;
        }
        a.writeTo(proc->as(), code);

        // Execute through the kernel scheduler: the persistent context's
        // interpreter (and warm decode cache) is the measured engine.
        cx = &sched::schedulerFor(kern).context(*proc);
        Interpreter &interp = *cx->interp;
        if (abi == Abi::CheriAbi) {
            interp.setEntry(proc->as()
                                .capForRange(code, pageSize,
                                             PROT_READ | PROT_EXEC, false)
                                .setAddress(code));
        } else {
            interp.setEntry(Capability::fromAddress(code));
        }
        if (program == Program::CapCopy) {
            interp.regs().c[1] =
                proc->as()
                    .capForRange(src, words * 8, PROT_READ | PROT_WRITE,
                                 false)
                    .setAddress(src);
            interp.regs().c[2] =
                proc->as()
                    .capForRange(dst, words * 8, PROT_READ | PROT_WRITE,
                                 false)
                    .setAddress(dst);
        }
        proc->cost().reset();
    }

    /** Run to the halt; the instructions retired. */
    u64
    run()
    {
        u64 base = cx->interp->retired();
        cx->stepLimit = 100'000'000;
        sched::schedulerFor(kern).ready(*cx);
        kern.runUntilIdle();
        if (cx->last.status != InterpResult::Status::Halted)
            throw std::runtime_error("kernel did not halt");
        return cx->interp->retired() - base;
    }

    /** Declared before the kernel: it must outlive it. */
    obs::Metrics ownMetrics;
    Kernel kern;
    Process *proc = nullptr;
    sched::ExecContext *cx = nullptr;
};

struct RunStats
{
    u64 retired = 0;
    u64 simInstr = 0;
    u64 simCycles = 0;
    u64 itlbAccesses = 0;
    /** Host ns per retired instruction: median and IQR over trials. */
    bench::Trials nsPerInsn;
};

/**
 * Run @p program once on a kernel attached to @p mx (its modelled
 * counts are the same on every run), then time it over `trials` fresh
 * kernels.
 */
RunStats
measure(Program program, u64 words, obs::Metrics &mx, const char *label)
{
    RunStats s;
    {
        Guest g(program, words, &mx);
        s.retired = g.run();
        s.simInstr = g.proc->cost().instructions();
        s.simCycles = g.proc->cost().cycles();
        s.itlbAccesses = g.proc->cost().itlbAccesses();
        mx.captureCost(label, g.proc->cost());
    }
    std::vector<std::unique_ptr<Guest>> fresh;
    for (int t = 0; t < trials; ++t)
        fresh.push_back(std::make_unique<Guest>(program, words, nullptr));
    std::size_t next = 0;
    bench::Trials ns = bench::timeNs(trials, 1, [&] {
        bench::keep(fresh[next++]->run());
    });
    s.nsPerInsn = {ns.median / static_cast<double>(s.retired),
                   ns.iqr / static_cast<double>(s.retired)};
    return s;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Report report(argc, argv);
    const u64 words = 32 * 1024;
    report.section("ISA-level kernel: legacy (DDC) vs capability "
                   "addressing");
    obs::Metrics metrics;
    RunStats legacy =
        measure(Program::LegacyCopy, words, metrics, "legacy-copy");
    RunStats capform =
        measure(Program::CapCopy, words, metrics, "cap-copy");
    RunStats alu = measure(Program::AluLoop, words, metrics, "alu-loop");
    for (auto [form, s] : {std::pair{"mips64 ld/sd via DDC", &legacy},
                           std::pair{"cheriabi cld/csd via cap", &capform}}) {
        report.add(form, "retired", s->retired);
        report.add(form, "sim-instr", s->simInstr);
        report.add(form, "sim-cycles", s->simCycles);
    }
    report.note("");
    report.add("cheriabi vs mips64", "retired-instruction delta",
               apps::overheadPct(legacy.retired, capform.retired),
               {.unit = "%", .places = 2, .sign = true});
    report.note("(capability addressing is ~1:1 with legacy; the loop "
                "differs only in\npointer-increment form)");

    report.section("Host interpreter throughput (median of " +
                   std::to_string(trials) +
                   " trials, each on a fresh kernel)");
    for (auto [form, s] : {std::pair{"mips64 ld/sd via DDC", &legacy},
                           std::pair{"cheriabi cld/csd via cap", &capform},
                           std::pair{"cheriabi alu loop", &alu}}) {
        report.add(form, "host",
                   s->nsPerInsn.median > 0 ? 1e3 / s->nsPerInsn.median : 0,
                   {.unit = "MIPS", .places = 1, .host = true});
        report.add(form, "ns/insn", s->nsPerInsn.median,
                   {.unit = "ns", .places = 2, .host = true,
                    .iqr = s->nsPerInsn.iqr, .iqrPlaces = 2});
        report.expect(s->itlbAccesses == s->retired,
                      std::string(form) + ": iTLB accesses " +
                          std::to_string(s->itlbAccesses) + " != retired " +
                          std::to_string(s->retired));
    }
    report.note("(the alu loop has no loads or stores: its cost is the "
                "dispatch loop's)");

    report.section("Instruction mix + cost counters (JSON, "
                   "cheri.metrics.v9)");
    report.note(metrics.toJson());
    return report.finish();
}
