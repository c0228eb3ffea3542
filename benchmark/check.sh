#!/usr/bin/env bash
# Smoke test of the benchmark, runnable anywhere the repository builds:
# configures and builds kelle_bench, then runs every workload in
# --smoke mode (100-request cells, one rep) on seeds 42 and 7, with
# tracing off and on. Fails unless every run passes its correctness
# gate, prints every metric BENCHMARK.json names with that metric's
# unit (as a `workload metric value unit` line and in the final JSON
# line), and writes a span file that parses as Chrome trace JSON.
#
#   bash benchmark/check.sh
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
work="$root/.bench_build/check"
mkdir -p "$work"
workloads=$(python3 -c 'import json, sys
print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' \
    "$root/BENCHMARK.json")

for seed in 42 7; do
    for trace in 0 1; do
        for w in $workloads; do
            out="$work/$w-$seed-$trace.txt"
            bash "$here/run.sh" --workload "$w" --seed "$seed" --smoke \
                --trace "$trace" --trace-out "$work/trace-$w.json" >"$out"
            python3 - "$root/BENCHMARK.json" "$out" "$w" "$trace" \
                "$work/trace-$w.json" <<'EOF'
import json, sys

spec_path, out_path, workload, trace, trace_path = sys.argv[1:]
spec = json.load(open(spec_path))
want = spec["per_layer" if trace == "1" else "end_to_end"]
lines = open(out_path).read().strip().splitlines()
result = json.loads(lines[-1])
printed = {}
for line in lines[:-1]:
    parts = line.split()
    if len(parts) == 4 and parts[0] == workload:
        printed[parts[1]] = parts[3]
problems = []
if result["correct"] is not True or result["failed"] != 0:
    problems.append("correct/failed: %r/%r" % (result["correct"],
                                              result["failed"]))
if result["attempted"] < 1:
    problems.append("attempted < 1")
for m in want:
    got = result["metrics"].get(m["name"])
    if got is None or got["unit"] != m["unit"]:
        problems.append("metric %s: %r" % (m["name"], got))
    if printed.get(m["name"]) != m["unit"]:
        problems.append("line for %s: %r" % (m["name"],
                                             printed.get(m["name"])))
extra = set(result["metrics"]) - {m["name"] for m in want}
if extra:
    problems.append("unlisted metrics: %s" % sorted(extra))
if trace == "1":
    events = json.load(open(trace_path))["traceEvents"]
    names = {e["name"] for e in events if e["ph"] == "X"}
    for n in ("rep", "cell", "cluster.ctor", "cluster.run"):
        if n not in names:
            problems.append("trace lacks %s spans" % n)
if problems:
    sys.exit("%s: %s" % (out_path, "; ".join(problems)))
EOF
            echo "ok  $w seed $seed trace $trace"
        done
    done
done
