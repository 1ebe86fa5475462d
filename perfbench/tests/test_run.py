"""Tests of the benchmark itself.

    python3 -m unittest discover -s perfbench/tests

The first test run builds the programs (see perfbench/run.py). Each
workload then runs once at a tiny length, and once traced; every metric
BENCHMARK.json names must come out with its unit, and every correctness
gate must have run and passed.
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spread  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=900)


def result(proc):
    lines = proc.stdout.strip().splitlines()
    assert proc.returncode == 0 and lines, proc.stderr[-3000:]
    return lines, json.loads(lines[-1])


class TinyRuns(unittest.TestCase):
    def check_metrics(self, res, declared):
        self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(res["correct"], res)
        self.assertEqual(res["failed"], 0)
        self.assertGreater(res["attempted"], 0)
        self.assertEqual(set(res["metrics"]), {m["name"] for m in declared})
        for m in declared:
            got = res["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])

    def run_workload(self, workload, gates):
        lines, res = result(bench("--workload", workload, "--seed", "3",
                                  "--seconds", "1", "--trace", "0"))
        self.check_metrics(res, SPEC["end_to_end"])
        for m in SPEC["end_to_end"]:
            self.assertGreater(res["metrics"][m["name"]]["value"], 0, m["name"])
        self.assertTrue(any(l.startswith("context: ") for l in lines))
        # The gates of this run are in the results history with the run.
        rec = json.loads((run.WORK / "results.jsonl").read_text().splitlines()[-1])
        self.assertEqual(rec["context"]["workload"], workload)
        self.assertGreaterEqual(res["attempted"], gates)

    def test_figures(self):
        # 75 checks at the default seed, the golden payload, one run.
        self.run_workload("figures", gates=77)

    def test_grid(self):
        # The reference table, and 48 cells in each of two runs.
        self.run_workload("grid", gates=1 + 2 * 48)

    def test_serve(self):
        # Idle drains before and after, the sessions of one round (a
        # nominal block and a burst), the daemon's drain and the table.
        sessions = (1 + run.SERVE_BURST_BLOCKS) * run.MIX_BLOCK
        self.run_workload("serve", gates=2 * run.SETUP_SAMPLES + sessions + 2)

    def test_trace(self):
        lines, res = result(bench("--workload", "grid", "--seed", "3",
                                  "--seconds", "1", "--trace", "1"))
        self.check_metrics(res, SPEC["per_layer"])
        tagged = [l for l in lines if l.startswith("layer ")]
        self.assertEqual(len(tagged), len(SPEC["per_layer"]))
        self.assertTrue(all(" moves " in l for l in tagged))

    def test_refuses_without_the_program(self):
        bare = run.WORK / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("work"))
        proc = bench("--workload", "grid", "--seed", "1", "--seconds", "1", "--trace", "0",
                     cwd=bare)
        shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


class Helpers(unittest.TestCase):
    def test_strip_timing(self):
        text = ('[{"id":"a","rows":[],"wallclock":[["x_s",0.1],["y_s",2e-3]],'
                '"elapsed_s":1.5},{"id":"b","elapsed_s":3e-05}]')
        self.assertEqual(run.strip_timing(text), '[{"id":"a","rows":[]},{"id":"b"}]')

    def test_strip_provenance(self):
        row = '{"cell":0,"key":"k","run":"00ff","shard":"0/1:ab","tool":"t","tier":"slotted","n":5}'
        self.assertEqual(run.strip_provenance(row), '{"cell":0,"key":"k","tool":"t","n":5}')

    def test_quantile_is_nearest_rank(self):
        v = list(range(1, 101))
        self.assertEqual(run.quantile(v, 0.5), 51)
        self.assertEqual(run.quantile(v, 0.99), 99)
        self.assertEqual(run.quantile([7], 0.99), 7)

    def test_tally(self):
        t = run.Tally()
        t.gate(True, "ok", count=5)
        t.gate(False, "bad")
        t.gate(True, "partial", count=10, failures=2)
        self.assertEqual((t.attempted, t.failed), (16, 3))
        self.assertEqual(t.reasons, ["bad", "partial"])

    def test_sets_compare_only_within_one_context(self):
        a = {"host": "h", "nproc": 2, "seed": 1, "held_out": False, "source": "x"}
        self.assertEqual(spread.shared_context(a),
                         spread.shared_context(dict(a, seed=7, source="y")))
        self.assertNotEqual(spread.shared_context(a),
                            spread.shared_context(dict(a, nproc=4)))


if __name__ == "__main__":
    unittest.main()
