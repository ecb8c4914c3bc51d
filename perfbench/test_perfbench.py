#!/usr/bin/env python3
"""The benchmark's own tests, at a tiny scale (about a minute in all).

Run from the root of a checkout:

    python3 perfbench/test_perfbench.py

- every workload, untraced and traced, emits exactly the metric set that
  BENCHMARK.json declares, each with its declared unit, and a clean verdict;
- a deliberately corrupted oracle answer is counted as failed, and the run
  exits non-zero;
- the workload seed changes the generated keys and the arrival schedule,
  and the same seed reproduces them.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
TINY = ["--scale", "0.01", "--seconds", "1"]


def bench(workload, *extra, seed=1, trace=0):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--trace", str(trace)] + TINY
    done = subprocess.run(cmd + list(extra), cwd=ROOT, capture_output=True,
                          text=True, timeout=300)
    lines = done.stdout.strip().split("\n")
    return done.returncode, json.loads(lines[-1]), lines, done.stderr


class Metrics(unittest.TestCase):
    def check_set(self, trace, declared):
        for w in WORKLOADS:
            with self.subTest(workload=w, trace=trace):
                code, res, _, err = bench(w, trace=trace)
                self.assertEqual(code, 0, err)
                self.assertEqual(set(res), {"correct", "attempted", "failed",
                                            "metrics"})
                self.assertTrue(res["correct"])
                self.assertEqual(res["failed"], 0)
                self.assertGreaterEqual(res["attempted"], 1)
                got = {k: v["unit"] for k, v in res["metrics"].items()}
                self.assertEqual(got, {m["name"]: m["unit"] for m in declared})
                for k, v in res["metrics"].items():
                    self.assertIsInstance(v["value"], (int, float), k)

    def test_end_to_end_metrics(self):
        self.check_set(0, SPEC["end_to_end"])

    def test_per_layer_metrics(self):
        self.check_set(1, SPEC["per_layer"])

    def test_workload_detail_line(self):
        # each workload's own headline figures precede the result line
        wanted = {
            "core_dram": {"scan_mkeys_s"},
            "serve_zipf": {"light_p50_us", "light_p99_us", "busy_p50_us",
                           "busy_p99_us", "max_qps_p99_5ms"},
            "durable_ingest": {"recovery_s", "write_amp"},
        }
        for w in WORKLOADS:
            with self.subTest(workload=w):
                _, _, lines, _ = bench(w)
                detail = [json.loads(l) for l in lines if '"detail"' in l]
                self.assertEqual(len(detail), 1)
                names = set(detail[0]["metrics"])
                self.assertTrue(wanted[w] | {"failed_frac"} <= names, names)


class Oracle(unittest.TestCase):
    def test_corrupted_answer_is_counted(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                code, res, _, _ = bench(w, "--corrupt-oracle")
                self.assertEqual(code, 1)
                self.assertFalse(res["correct"])
                self.assertGreaterEqual(res["failed"], 1)


class Seeds(unittest.TestCase):
    def fingerprint(self, w, seed):
        _, res, _, _ = bench(w, "--fingerprint", seed=seed)
        return res

    def test_seed_changes_keys_and_schedule(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                a, b = self.fingerprint(w, 1), self.fingerprint(w, 2)
                self.assertNotEqual(a["keys"], b["keys"])
                self.assertNotEqual(a["schedule"], b["schedule"])
                self.assertEqual(a, self.fingerprint(w, 1))


if __name__ == "__main__":
    unittest.main(verbosity=2)
