/**
 * @file
 * abi_fuzz — the differential ABI fuzzer CLI.
 *
 * Runs seeded random workloads under both the legacy mips64 and the
 * pure-capability CheriABI process environments and fails on any
 * behavioral divergence or kernel invariant violation (see
 * src/check/).  Fully deterministic: the seed comes from --seed or
 * CHERI_FUZZ_SEED, never the clock.
 *
 * Usage:
 *   abi_fuzz [--seed N] [--cases N] [--ops-per-case N] [--inject]
 *            [--check-every N] [--plant-slot-bug] [--multi-proc N]
 *            [--check-full] [--json]
 *
 * --multi-proc N runs each case as N (2-4) guest processes executing
 * generated programs concurrently under the kernel scheduler, with the
 * invariant oracle consulted at every slice boundary.
 *
 * --check-full runs the full-walk oracle beside the memoized one at
 * every check and fails the case on any difference between their
 * reports (an "oracle-memo-mismatch" violation).
 *
 * Environment:
 *   CHERI_FUZZ_SEED          default seed when --seed is absent
 *   CHERI_TEST_FRAME_BUDGET  kernel frame capacity (constrained runs)
 *   CHERI_TEST_SLOT_BUDGET   swap slot budget (constrained runs)
 *
 * Exit status: 0 when every case agrees and the oracle is clean,
 * 1 on divergence/violation, 2 on usage error.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "check/diff_fuzzer.h"

namespace
{

cheri::u64
envOr(const char *name, cheri::u64 dflt)
{
    const char *v = std::getenv(name);
    return v && *v ? std::strtoull(v, nullptr, 0) : dflt;
}

int
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--seed N] [--cases N] [--ops-per-case N] "
        "[--inject] [--check-every N] [--plant-slot-bug] "
        "[--multi-proc N] [--check-full] [--json]\n",
        argv0);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    cheri::check::FuzzOptions opts;
    opts.seed = envOr("CHERI_FUZZ_SEED", 1);
    opts.cases = 100;
    opts.opsPerCase = 32;
    opts.checkEvery = 1;
    opts.frameCapacity = envOr("CHERI_TEST_FRAME_BUDGET", 0);
    opts.swapSlotBudget = envOr("CHERI_TEST_SLOT_BUDGET", 0);
    bool json = false;

    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        auto numArg = [&](cheri::u64 *out) {
            if (i + 1 >= argc)
                return false;
            *out = std::strtoull(argv[++i], nullptr, 0);
            return true;
        };
        if (!std::strcmp(arg, "--seed")) {
            if (!numArg(&opts.seed))
                return usage(argv[0]);
        } else if (!std::strcmp(arg, "--cases")) {
            if (!numArg(&opts.cases))
                return usage(argv[0]);
        } else if (!std::strcmp(arg, "--ops-per-case")) {
            if (!numArg(&opts.opsPerCase))
                return usage(argv[0]);
        } else if (!std::strcmp(arg, "--check-every")) {
            if (!numArg(&opts.checkEvery))
                return usage(argv[0]);
        } else if (!std::strcmp(arg, "--inject")) {
            opts.inject = true;
        } else if (!std::strcmp(arg, "--multi-proc")) {
            if (!numArg(&opts.multiProc))
                return usage(argv[0]);
        } else if (!std::strcmp(arg, "--plant-slot-bug")) {
            opts.plantSlotBug = true;
        } else if (!std::strcmp(arg, "--check-full")) {
            opts.checkFull = true;
        } else if (!std::strcmp(arg, "--json")) {
            json = true;
        } else {
            return usage(argv[0]);
        }
    }

    cheri::check::DiffFuzzer fuzzer(opts);
    cheri::check::FuzzReport rep = fuzzer.run();

    if (json)
        std::printf("%s\n", rep.toJson().c_str());
    else
        std::fputs(rep.summary().c_str(), stdout);
    return rep.ok() ? 0 : 1;
}
