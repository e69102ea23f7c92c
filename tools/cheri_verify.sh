#!/usr/bin/env bash
# Strict verification pass: configure a scratch build tree with -Werror
# and Address/UndefinedBehavior sanitizers, build everything, and run
# the full test suite.  Exits non-zero on any warning, sanitizer
# report, or test failure.
set -euo pipefail

src_dir="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${CHERI_VERIFY_BUILD_DIR:-$src_dir/build-verify}"

# Raw-assert lint: nothing under src/ may fail through a host abort.
# A failed check goes through a checked error instead (CHERI_KASSERT ->
# flight-recorder capture + snapshot + transactional reset in the
# kernel layers, an exception or a reported violation elsewhere).  The
# panic sink's own abort() fallback (src/os/panic.h) and compile-time
# static_asserts are the only legitimate exceptions.
if grep -rnE '(^|[^_[:alnum:]])(assert|abort)\(' "$src_dir/src" \
        --include='*.cc' --include='*.h' \
    | grep -v 'CHERI_KASSERT' | grep -v 'static_assert' \
    | grep -v 'src/os/panic\.h'; then
    echo "cheri_verify: raw assert()/abort() under src/" \
         "(use a checked error)" >&2
    exit 1
fi

# Only GTest is a build dependency: with google-benchmark disabled, a
# find_package(benchmark) that comes back fails the configure step.
cmake -S "$src_dir" -B "$build_dir" \
    -DCHERI_WERROR=ON -DCHERI_SANITIZE=ON \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_DISABLE_FIND_PACKAGE_benchmark=ON
cmake --build "$build_dir" -j "$(nproc)"
ctest --test-dir "$build_dir" --output-on-failure -j "$(nproc)"
# Constrained-memory pass: re-run the pressure and stress suites with
# deliberately small frame/slot budgets so reclaim and OOM paths are
# exercised under the sanitizers too.
CHERI_TEST_FRAME_BUDGET=48 CHERI_TEST_SLOT_BUDGET=128 \
    ctest --test-dir "$build_dir" --output-on-failure \
        -R 'Pressure|Stress' -j "$(nproc)"
# Hardening gates under constrained memory too: the deadlock watchdog
# and panic/machine-check paths must behave identically when reclaim
# and OOM pressure interleave with parked contexts.
CHERI_TEST_FRAME_BUDGET=48 CHERI_TEST_SLOT_BUDGET=128 \
    ctest --test-dir "$build_dir" --output-on-failure \
        -R 'Hardening' -j "$(nproc)"
# Bench gates: each bench's --check conditions are listed at the top of
# bench/<name>.cc (the modelled numbers themselves are gated by the
# bench_sim ctest case above).  vm_micro's pressure phase runs again
# under tighter, still feasible budgets (the 4x working set needs at
# least pages - frames slots), and pipe_bench under constrained memory:
# parked contexts must not pin pages the reclaimer needs.
for bench in vm_micro revocation_bench sched_bench pipe_bench \
    hardening_bench capmodel_micro; do
    "$build_dir/bench/$bench" --json --check
done
"$build_dir/bench/vm_micro" --json --check --frames 48 --slots 160
CHERI_TEST_FRAME_BUDGET=48 CHERI_TEST_SLOT_BUDGET=128 \
    "$build_dir/bench/pipe_bench" --json --check
# Differential ABI fuzzer + invariant oracle (src/check): a fixed-seed
# corpus must show zero mips64/CheriABI divergences and zero oracle
# violations, checked at every syscall boundary — first unconstrained,
# then under small frame/slot budgets so the reclaim and swap paths are
# exercised under the oracle too (abi_fuzz reads the budget env vars).
"$build_dir/tools/abi_fuzz" --seed 1 --cases 50 --check-every 1
CHERI_TEST_FRAME_BUDGET=48 CHERI_TEST_SLOT_BUDGET=128 \
    "$build_dir/tools/abi_fuzz" --seed 1 --cases 50 --check-every 1
# Injected frame and swap failures make signal frames fail to spill or
# restore, so this run puts those deaths (and their teardown) under the
# oracle at every syscall boundary.
"$build_dir/tools/abi_fuzz" --seed 1 --cases 50 --check-every 1 --inject
# Multi-process scheduler fuzzing: 2-4 preemptively time-sliced guests
# per case running generated programs (sleep/thr_new/thr_switch in the
# mix), the invariant oracle at every slice boundary, and the
# interleaved event streams compared across ABIs.
"$build_dir/tools/abi_fuzz" --seed 1 --cases 50 --multi-proc 3
# Replay-determinism gate: record a seeded fuzz run (fault injection +
# multi-process scheduling in the mix) and replay it from the log
# alone; cheri_replay exits non-zero on any quiescent-point
# divergence.  Run once unconstrained and once under the small
# frame/slot budgets so reclaim/OOM timelines replay exactly too.
replay_log="$build_dir/verify-replay.log"
"$build_dir/tools/cheri_replay" record --log "$replay_log" \
    --seed 1 --cases 20 --inject
"$build_dir/tools/cheri_replay" replay --log "$replay_log" --json
"$build_dir/tools/cheri_replay" record --log "$replay_log" \
    --seed 1 --cases 10 --multi-proc 3 --inject
"$build_dir/tools/cheri_replay" replay --log "$replay_log" --json
CHERI_TEST_FRAME_BUDGET=48 CHERI_TEST_SLOT_BUDGET=128 \
    "$build_dir/tools/cheri_replay" record --log "$replay_log" \
        --seed 1 --cases 20 --inject
CHERI_TEST_FRAME_BUDGET=48 CHERI_TEST_SLOT_BUDGET=128 \
    "$build_dir/tools/cheri_replay" replay --log "$replay_log" --json
rm -f "$replay_log"
echo "cheri_verify: all checks passed"
