"""Compare two sets of benchmark runs, workload by workload.

Each input is a JSONL file of records written by `run.py --out`; only
untraced records are used. For every end-to-end metric of BENCHMARK.json the
table gives each side's median and quartiles, the ratio of medians
(change / base) and a verdict:

- improved: the change wins at least 9 in 10 runs paired by seed, and the
  medians differ by more than the base's quartile spread;
- unresolved: either side's quartile spread, as a share of its median,
  exceeds the metric's bound, and not every change run beats every base run;
- regressed: the change's median is worse than the base's by more than the bound;
- unchanged: otherwise.
"""
from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_runs(path: str) -> dict[str, list[dict]]:
    runs: dict[str, list[dict]] = {}
    for line in Path(path).read_text().splitlines():
        if line.strip():
            rec = json.loads(line)
            if not rec["trace"]:
                runs.setdefault(rec["workload"], []).append(rec)
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base: list[dict], change: list[dict], name: str, better: str, bound: float) -> tuple[str, str]:
    """(formatted row, status) for one metric on one workload."""
    sign = 1.0 if better == "higher" else -1.0  # sign * (x - y) > 0 means x is better

    def value(rec):
        return rec["metrics"][name]["value"]

    a = [value(r) for r in base]
    b = [value(r) for r in change]
    qa, qb = quartiles(a), quartiles(b)
    spread = max((q[2] - q[0]) / q[1] if q[1] else 0.0 for q in (qa, qb))
    by_seed = {r["seed"]: value(r) for r in base}
    pairs = [(by_seed[r["seed"]], value(r)) for r in change if r["seed"] in by_seed]
    wins = sum(sign * (y - x) > 0 for x, y in pairs)
    all_better = all(sign * (y - x) > 0 for x in a for y in b)
    worse = sign * (qa[1] - qb[1]) / abs(qa[1]) if qa[1] else 0.0
    if pairs and wins >= 0.9 * len(pairs) and abs(qb[1] - qa[1]) > qa[2] - qa[0]:
        status = "improved"
    elif spread > bound and not all_better:
        status = "unresolved"
    elif worse > bound:
        status = "regressed"
    else:
        status = "unchanged"
    ratio = f"{qb[1] / qa[1]:.4f}" if qa[1] else "n/a"
    row = (f"  {name:<14} base {qa[1]:.6g} [{qa[0]:.6g}, {qa[2]:.6g}] n={len(a)}"
           f"  change {qb[1]:.6g} [{qb[0]:.6g}, {qb[2]:.6g}] n={len(b)}"
           f"  ratio {ratio}  wins {wins}/{len(pairs)}  {status}")
    return row, status


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: run.py compare BASE.jsonl CHANGE.jsonl", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base, change = load_runs(argv[0]), load_runs(argv[1])
    for workload in sorted(set(base) & set(change)):
        print(f"{workload}:")
        for m in spec["end_to_end"]:
            row, _ = verdict(base[workload], change[workload], m["name"], m["better"], m["bound"])
            print(row)
    for workload in sorted(set(base) ^ set(change)):
        print(f"{workload}: runs on one side only")
    return 0
