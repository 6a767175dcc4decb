#!/usr/bin/env python3
"""Self-tests of the benchmark harness, at tiny scale (seconds in all).

Usage (from the repository root):  python3 perfbench/test_bench.py

1. Every workload passes end to end and traced, with 0 failed operations
   and exactly the metrics, with the units, that BENCHMARK.json lists.
2. A deliberately wrong expected value (a BFS distance or a packet count
   skewed by one) is reported as failed operations with a non-zero exit.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True
import run  # noqa: E402  (the build step of the benchmark command)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)


def harness(workload, trace=0, perturb="none"):
    out = subprocess.run(
        [run.BINARY, "--workload", workload, "--seed", "7", "--seconds", "0.2",
         "--trace", str(trace), "--scale", "tiny", "--perturb", perturb],
        capture_output=True, text=True, timeout=120)
    return out.returncode, json.loads(out.stdout.strip().splitlines()[-1])


class TinyPass(unittest.TestCase):
    def test_every_workload_passes(self):
        for w in BENCH["workloads"]:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=w["name"], trace=trace):
                    code, result = harness(w["name"], trace)
                    self.assertEqual(code, 0)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreater(result["attempted"], 0)
                    self.assertEqual(
                        {n: m["unit"] for n, m in result["metrics"].items()},
                        {m["name"]: m["unit"] for m in BENCH[key]})


class WrongExpectation(unittest.TestCase):
    def check_fails(self, workload, perturb):
        code, result = harness(workload, 0, perturb)
        self.assertEqual(code, 1)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)

    def test_perturbed_bfs_distance_fails(self):
        self.check_fails("big131k_min", "bfs")

    def test_perturbed_packet_count_fails(self):
        self.check_fails("alltoall_faults", "packets")
        self.check_fails("sat16_faults", "packets")


if __name__ == "__main__":
    run.build()
    unittest.main()
