#!/usr/bin/env bash
# Self-tests of tools/bench_all, the BENCH_sim.json gate:
#   mutated BENCH_sim.json BENCH_DIR: a copy with one value changed must
#       fail the gate, and the failure must name that record;
#   unstable: --write must refuse records two runs disagree on, and
#       write (and then pass --check) once they agree.
set -euo pipefail
bench_all() { bash "$(dirname "$0")/../tools/bench_all" "$@"; }
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
fail() { cat "$tmp/log"; echo "bench_all_selftest: $*" >&2; exit 1; }

if [ "$1" = mutated ]; then
    sed '/"spec2006-xalancbmk","metric":"cycles"/s/"value":[^,]*/"value":999.9/' \
        "$2" > "$tmp/mutated"
    ! bench_all --check "$tmp/mutated" "$3" > "$tmp/log" 2>&1 ||
        fail "a changed value passed the gate"
    grep -qx 'changed: fig4_workloads / spec2006-xalancbmk / cycles' \
        "$tmp/log" || fail "the gate did not name the changed record"
else
    # A stub bench whose "deterministic" record counts its own runs.
    printf '%s\n' '#!/bin/sh' 'n=$(cat "$0.n" 2>/dev/null || echo 0)' \
        'echo $((n + 1)) > "$0.n"' \
        'echo "{\"bench\":\"stub\",\"case\":\"run\",\"metric\":\"n\",\"value\":$n,\"deterministic\":true}"' \
        > "$tmp/stub"
    chmod +x "$tmp/stub"
    ! bench_all --write "$tmp/sim.json" "$tmp" stub > "$tmp/log" 2>&1 ||
        fail "wrote records two runs disagree on"
    [ ! -e "$tmp/sim.json" ] && grep -qx 'changed: stub / run / n' \
        "$tmp/log" || fail "did not refuse, naming the unstable record"
    sed -i 's/\$n,/1,/' "$tmp/stub"
    { bench_all --write "$tmp/sim.json" "$tmp" stub &&
        bench_all --check "$tmp/sim.json" "$tmp" stub; } > "$tmp/log" ||
        fail "refused, or failed --check on, records that agree"
fi
echo "bench_all_selftest: $1 ok"
