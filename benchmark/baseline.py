"""Record the benchmark's baseline at the current commit.

Runs `--sets` sets of `--runs` full invocations of every workload at one
seed with tracing off (end-to-end metrics), then one set with tracing on
(per-layer metrics), interleaving the workloads within each set. For
every metric it records each set's median, quartiles and spread
((q3 - q1) / median, quartiles as statistics.quantiles(n=4) gives them),
and the two sets' median drift. Writes JSON to stdout:

    python3 benchmark/baseline.py > benchmark/baseline.json
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, seconds, trace):
    cmd = ["bash", os.path.join(HERE, "run.sh"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                       check=True)
    result = json.loads(p.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit("%s seed %d: correctness gate failed" % (workload, seed))
    return result["metrics"]


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / q2 if q2 else 0.0}


def compiler():
    cache = os.path.join(ROOT, ".bench_build", "CMakeCache.txt")
    for line in open(cache):
        if line.startswith("CMAKE_CXX_COMPILER:"):
            cxx = line.split("=", 1)[1].strip()
            out = subprocess.run([cxx, "--version"], capture_output=True,
                                 text=True).stdout
            return out.splitlines()[0]
    return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--seed", type=int, default=42)
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args()
    workloads = [w["name"] for w in spec["workloads"]]

    def collect(trace, sets):
        samples = {w: [{} for _ in range(sets)] for w in workloads}
        for s in range(sets):
            for i in range(args.runs):
                for w in workloads:
                    print("set %d run %d %s trace %d" % (s + 1, i + 1, w,
                                                         trace),
                          file=sys.stderr, flush=True)
                    for name, m in run(w, args.seed, args.seconds,
                                       trace).items():
                        samples[w][s].setdefault(name, []).append(
                            m["value"])
        return samples

    e2e = collect(0, args.sets)
    layer = collect(1, 1)
    out = {
        "seed": args.seed,
        "run_seconds": args.seconds,
        "runs_per_set": args.runs,
        "nproc": os.cpu_count(),
        "compiler": compiler(),
        "end_to_end": {},
        "per_layer": {},
    }
    for w in workloads:
        out["end_to_end"][w] = {}
        for m in spec["end_to_end"]:
            sets = [dict(values=e2e[w][s][m["name"]],
                         **summarize(e2e[w][s][m["name"]]))
                    for s in range(args.sets)]
            first, last = sets[0]["median"], sets[-1]["median"]
            out["end_to_end"][w][m["name"]] = {
                "unit": m["unit"], "sets": sets,
                "median_drift": (last - first) / first if first else 0.0}
        out["per_layer"][w] = {
            m["name"]: dict(unit=m["unit"],
                            **summarize(layer[w][0][m["name"]]))
            for m in spec["per_layer"]}
    json.dump(out, sys.stdout, indent=1)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
