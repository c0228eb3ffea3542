#!/usr/bin/env bash
# Build the benchmark and run it.
#
#   bash benchmark/run.sh [--workload W] [--seed N] [--seconds S]
#                         [--trace 0|1] [--smoke] [--out F]
#
# Without --workload every workload runs, one process each, in turn.
# Other flags go to kelle_bench unchanged (see benchmark/README.md).
# --out F appends everything printed to F. With --trace 1 the spans go
# to .bench_build/trace-<workload>.json unless --trace-out is given.
# Exits non-zero when the build or any correctness check fails.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"

workloads=()
out=""
trace=0
trace_out_given=0
pass=()
while [ $# -gt 0 ]; do
    case "$1" in
    --workload) workloads=("$2"); shift 2 ;;
    --out) out="$2"; shift 2 ;;
    --trace) trace="$2"; pass+=("$1" "$2"); shift 2 ;;
    --trace-out) trace_out_given=1; pass+=("$1" "$2"); shift 2 ;;
    *) pass+=("$1"); shift ;;
    esac
done
if [ ${#workloads[@]} -eq 0 ]; then
    workloads=(knee_ladder fleet16_preempt sessions_paged)
fi

mkdir -p "$build"
generator=()
if command -v ninja >/dev/null 2>&1; then
    generator=(-G Ninja)
fi
if ! cmake -S "$here" -B "$build" ${generator[@]+"${generator[@]}"} \
    -DCMAKE_BUILD_TYPE=Release >"$build/build.log" 2>&1 ||
    ! cmake --build "$build" --target kelle_bench -j 2 \
        >>"$build/build.log" 2>&1; then
    tail -n 40 "$build/build.log" >&2
    echo "run.sh: build failed (log: $build/build.log)" >&2
    exit 1
fi

status=0
for w in "${workloads[@]}"; do
    extra=()
    if [ "$trace" = 1 ] && [ "$trace_out_given" = 0 ]; then
        extra=(--trace-out "$build/trace-$w.json")
    fi
    cmd=("$build/kelle_bench" --workload "$w" ${pass[@]+"${pass[@]}"}
        ${extra[@]+"${extra[@]}"})
    if [ -n "$out" ]; then
        "${cmd[@]}" | tee -a "$out" || status=1
    else
        "${cmd[@]}" || status=1
    fi
done
exit "$status"
