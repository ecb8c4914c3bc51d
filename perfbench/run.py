#!/usr/bin/env python3
"""Run one benchmark workload against the repository's own code.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload core_dram --seed 1 --seconds 10 --trace 0

Builds the harness (perfbench/hbench.ml and friends, linking the
repository's libraries) in dune's release profile, runs the requested
workload and passes its output through.  The last stdout line is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end set of BENCHMARK.json, with --trace 1 the
per-layer set.

Exit status: 0 when every answer was right, 1 when the harness counted a
wrong answer (the result line is still printed), 2 when the harness could
not be built or did not finish, 3 when its output was malformed.

Extra options, used by perfbench/test_perfbench.py: --scale F shrinks every
input size, --corrupt-oracle corrupts one expected answer (the run must then
fail), --fingerprint prints hashes of the generated inputs and exits.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TARGET = "./perfbench/hbench.exe"
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "hbench.exe")
WORKLOADS = ("core_dram", "serve_zipf", "durable_ingest")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ROOT, "--profile", "release", TARGET]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return False
    if done.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
    return done.returncode == 0


def run(argv):
    # own process group, so a timeout also stops the serve workload's
    # server process
    proc = subprocess.Popen([EXE] + argv, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"perfbench: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 2, None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return proc.returncode, out


def well_formed(line):
    try:
        res = json.loads(line)
    except ValueError:
        return False
    return (isinstance(res, dict)
            and set(res) == {"correct", "attempted", "failed", "metrics"}
            and isinstance(res["attempted"], int) and res["attempted"] >= 1
            and isinstance(res["failed"], int)
            and all(isinstance(m.get("value"), (int, float))
                    for m in res["metrics"].values()))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0)
    ap.add_argument("--corrupt-oracle", action="store_true")
    ap.add_argument("--fingerprint", action="store_true")
    a = ap.parse_args()
    if not build():
        return 2
    argv = ["--workload", a.workload, "--seed", str(a.seed),
            "--seconds", str(a.seconds), "--trace", str(a.trace),
            "--scale", str(a.scale)]
    if a.corrupt_oracle:
        argv.append("--corrupt-oracle")
    if a.fingerprint:
        argv.append("--fingerprint")
    code, out = run(argv)
    if out is None:
        return 2
    lines = out.rstrip("\n").split("\n")
    if code not in (0, 1) or not (a.fingerprint or well_formed(lines[-1])):
        # a crash or a malformed last line: print nothing that reads as a result
        sys.stderr.write(out)
        print(f"perfbench: harness exited {code} without a result",
              file=sys.stderr)
        return 2 if code not in (0, 1) else 3
    sys.stdout.write(out)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
