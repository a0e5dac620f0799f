"""Run one workload several times, each with another seed, and report how
steady each metric is against its bound in BENCHMARK.json.

    python3 perfbench/steady.py --workload mid --runs 10 [--first-seed 1]
        [--trace 0] [--save set1.json] [--against set0.json]

For every metric it prints the median, the first and third quartile
(statistics.quantiles(values, n=4)), the spread (q3 - q1) / median and that
spread as a share of the metric's bound. --save writes the raw values;
--against compares this set's medians with a saved set, as the share by
which each metric got worse.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def worse_by(metric: dict, old: float, new: float) -> float:
    """Share by which `new` is worse than `old` (negative when better)."""
    change = (new - old) / old
    return change if metric["better"] == "lower" else -change


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--save", type=Path)
    ap.add_argument("--against", type=Path)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m for m in spec["end_to_end" if not args.trace else "per_layer"]}
    values: dict[str, list[float]] = {name: [] for name in declared}
    shares = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        result = run_once(args.workload, seed, spec["run_seconds"], args.trace)
        shares.append(result["failed"] / result["attempted"])
        for name, m in result["metrics"].items():
            values[name].append(m["value"])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)

    old = json.loads(args.against.read_text()) if args.against else None
    print(f"{'metric':42s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>7s} "
          f"{'bound':>6s} {'/bound':>7s}" + (f" {'worse':>7s}" if old else ""))
    for name, vals in values.items():
        q1, _, q3 = statistics.quantiles(vals, n=4)
        med = statistics.median(vals)
        spread = (q3 - q1) / med if med else float("nan")
        bound = declared[name].get("bound")
        line = (f"{name:42s} {med:12.4f} {q1:12.4f} {q3:12.4f} {spread:7.3f} "
                + (f"{bound:6.2f} {spread / bound:7.2f}" if bound else f"{'-':>6s} {'-':>7s}"))
        if old:
            line += f" {worse_by(declared[name], statistics.median(old['values'][name]), med):7.3f}"
        print(line)
    print(f"failed share per run: {sorted(set(shares))}")
    if args.save:
        args.save.write_text(json.dumps({"workload": args.workload, "values": values,
                                         "failed_share": shares}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
