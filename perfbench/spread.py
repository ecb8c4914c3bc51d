#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py --runs 10 --seed0 100

Runs every workload of BENCHMARK.json --runs times, for run_seconds each,
with seeds seed0, seed0+1, ..., and for every end-to-end metric prints the
median, the quartiles and the spread: the distance between the first and
third quartile (statistics.quantiles, n=4) as a share of the median, next
to the metric's bound in BENCHMARK.json.  A spread above a third of its
bound is marked '!', above the bound 'FAIL'.  The benchmark contract bounds
setup_s only by the shift of its median between two sets of runs, not by
its spread, so its marks are printed with "(spread exempt)".  The workload
detail line's figures are summarised the same way, without bounds.  Raw
results are saved under .perfbench/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def one(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    t0 = time.time()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().split("\n")
    if done.returncode != 0:
        sys.exit(f"{workload} seed {seed} failed ({done.returncode}):\n"
                 + done.stderr[-2000:])
    detail = [json.loads(l)["metrics"] for l in lines if '"detail"' in l]
    return {"seed": seed, "wall_s": time.time() - t0,
            "result": json.loads(lines[-1]),
            "detail": detail[0] if detail else {}}


def summarise(name, values, bound=None):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med if med else float("inf")
    mark = ""
    if bound is not None:
        mark = "FAIL" if spread > bound else ("!" if spread > bound / 3 else "")
        if mark and name == "setup_s":
            mark += " (spread exempt)"
    b = f"{bound:5.2f}" if bound is not None else "    -"
    print(f"  {name:24s} median {med:12.4f}  q1 {q1:12.4f}  q3 {q3:12.4f}"
          f"  spread {spread:6.3f}  bound {b} {mark}")


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=100)
    a = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out = {}
    for w in (w["name"] for w in spec["workloads"]):
        runs = [one(w, a.seed0 + i, spec["run_seconds"]) for i in range(a.runs)]
        out[w] = runs
        walls = [r["wall_s"] for r in runs]
        print(f"{w}: {a.runs} runs, wall {min(walls):.1f}-{max(walls):.1f} s")
        for name, bound in bounds.items():
            summarise(name, [r["result"]["metrics"][name]["value"]
                             for r in runs], bound)
        for name in runs[0]["detail"]:
            summarise(name, [r["detail"][name]["value"] for r in runs])
        sys.stdout.flush()
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    path = os.path.join(ROOT, ".perfbench",
                        f"spread-{int(time.time())}.json")
    with open(path, "w") as f:
        json.dump(out, f, indent=1)
    print(f"raw results: {path}")


if __name__ == "__main__":
    main()
