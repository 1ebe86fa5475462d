#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py --workload grid --seeds 1-10 [--against FILE]

Runs `perfbench/run.py` once per seed (untraced, `run_seconds` from
BENCHMARK.json), then prints for every end-to-end metric the median of
the runs and the distance between their first and third quartiles as a
share of the median, next to the metric's bound. A spread above a third
of its bound marks the benchmark as not steady yet.

The runs are saved to `perfbench/work/spread-<workload>-<first seed>.json`.
`--against` compares the medians with an earlier saved set; the two sets
must share their context (host, nproc, workers, scale, run length) or
the comparison is refused.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        sys.exit(f"seed {seed}: run failed ({r.returncode}):\n{r.stderr[-2000:]}")
    ctx = next(json.loads(l[len("context: "):]) for l in lines if l.startswith("context: "))
    return ctx, json.loads(lines[-1])


def shared_context(ctx):
    """The context two sets must share to be compared: everything but
    the seed and the source hash (the code being compared)."""
    return {k: v for k, v in ctx.items() if k not in ("seed", "held_out", "source")}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, type=seed_range)
    ap.add_argument("--against")
    a = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs = []
    for seed in a.seeds:
        ctx, res = run_once(a.workload, seed, spec["run_seconds"])
        if not res["correct"] or res["failed"]:
            sys.exit(f"seed {seed}: incorrect result {res}")
        if runs and shared_context(ctx) != shared_context(runs[0]["context"]):
            sys.exit(f"seed {seed}: context changed mid-set: {ctx}")
        runs.append({"context": ctx, "metrics": {k: m["value"] for k, m in res["metrics"].items()}})
        print(f"seed {seed}: " + " ".join(f"{k}={v:.5g}" for k, v in runs[-1]["metrics"].items()),
              flush=True)
    out = BENCH / "work" / f"spread-{a.workload}-{a.seeds[0]}.json"
    out.write_text(json.dumps(runs, indent=1))

    old = None
    if a.against:
        old = json.loads(Path(a.against).read_text())
        if shared_context(old[0]["context"]) != shared_context(runs[0]["context"]):
            sys.exit("refusing to compare results from different contexts")

    steady = True
    print(f"{'metric':16s} {'median':>12s} {'spread':>8s} {'bound':>6s}" + ("  vs earlier" if old else ""))
    for name, bound in bounds.items():
        vals = [r["metrics"][name] for r in runs]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        ok = spread < bound / 3
        steady &= ok
        line = f"{name:16s} {med:12.6g} {spread:8.3f} {bound:6.2f} {'' if ok else 'WIDE'}"
        if old:
            prev = statistics.median(r["metrics"][name] for r in old)
            line += f"  {(med - prev) / prev:+.3f}"
        print(line)
    print("steady" if steady else "not steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
