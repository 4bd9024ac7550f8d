#!/usr/bin/env python3
"""The end-to-end benchmark's own test.

Runs the tiny workload (all four phases) through run.py and checks that
every run passes every correctness check, emits every metric listed in
BENCHMARK.json with its unit, and reproduces every per-layer count exactly
for the same seed, on two seeds. Also runs the group_commit workload
briefly, and checks that run.py fails without a result when the engine
sources are missing. Run from the checkout root:

    python3 e2ebench/test_e2ebench.py
"""
import json
import os
import re
import shutil
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join("e2ebench", "run.py")
SECONDS = "2"
SEEDS = ("3", "97")  # 97 is held out: never used while tuning

# Per-layer metrics that are counts of work, not times: a run must
# reproduce them exactly for its seed.
EXACT = re.compile(
    r"^(query\.\w+\.(candidates|rows_examined|peak_rows|peak_bytes|items|useful_ratio)"
    r"|connect\.(trees_built|subgraphs)"
    r"|persist\.(syncs_per_commit|wal_bytes_per_commit|write_amp|snapshot_bytes|open_read_bytes)"
    r"|core\.epochs_per_mutation)$")


def bench(seed, trace, cwd=ROOT, workload="tiny"):
    done = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", seed, "--seconds", SECONDS,
         "--trace", trace],
        cwd=cwd, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    return done.returncode, lines


def result(seed, trace, workload="tiny"):
    code, lines = bench(seed, trace, workload=workload)
    if code != 0 or not lines:
        raise AssertionError(f"{workload} seed {seed} trace {trace}: exit {code}\n" +
                             "\n".join(lines[-20:]))
    return json.loads(lines[-1])


class E2EBenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        cls.end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        cls.per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}

    def check_run(self, res, expected_units):
        self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(res["correct"])
        self.assertEqual(res["failed"], 0)
        self.assertGreater(res["attempted"], 0)
        units = {name: m["unit"] for name, m in res["metrics"].items()}
        self.assertEqual(units, expected_units)

    def test_end_to_end_run(self):
        res = result(SEEDS[0], "0")
        self.check_run(res, self.end_to_end)
        for name, m in res["metrics"].items():
            self.assertGreater(m["value"], 0, name)

    def test_group_commit_run(self):
        # A short run at full size with the group-commit WAL policy, which
        # tiny does not use.
        res = result(SEEDS[0], "0", workload="group_commit")
        self.check_run(res, self.end_to_end)

    def test_traced_counts_repeat_exactly(self):
        for seed in SEEDS:
            first = result(seed, "1")
            second = result(seed, "1")
            self.check_run(first, self.per_layer)
            self.check_run(second, self.per_layer)
            exact = [n for n in self.per_layer if EXACT.match(n)]
            self.assertGreater(len(exact), 20)
            for name in exact:
                self.assertEqual(first["metrics"][name]["value"],
                                 second["metrics"][name]["value"], f"seed {seed}: {name}")

    def test_fails_without_engine_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(os.path.join(ROOT, "e2ebench"), os.path.join(bare, "e2ebench"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        try:
            code, lines = bench(SEEDS[0], "0", cwd=bare)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(code, 0)
        self.assertFalse(any(line.startswith("{") for line in lines))


if __name__ == "__main__":
    unittest.main(verbosity=2)
