"""Compare end-to-end benchmark records of a parent commit and a change.

Usage: python3 bench/compare.py BASE CHANGE

BASE and CHANGE are directories of records that `bench/run.py --trace 0`
wrote (its .perfbench/results/ directory, one per checkout), or single record
files. Both sides should hold at least ten runs per workload, made with the
same benchmark code and settings, alternating which side runs first.

For each workload and each end-to-end metric of BENCHMARK.json this prints
both sides' median and quartiles and one verdict:

  improved    every change run beats every parent run, or the change wins at
              least 9 in 10 of the runs paired by seed and the medians differ
              by more than the parent's interquartile range
  unresolved  either side's spread (IQR / median) is wider than the bound
  regressed   the change's median is worse than the parent's by more than the bound
  unchanged   otherwise

Records whose environments or run lengths differ in anything but git SHA
and seed are flagged, and so is every verdict that rests on them.
"""
from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
IGNORED_ENV = {"git_sha", "seed"}


def load(arg: str) -> list[dict]:
    path = Path(arg)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    records = [json.loads(f.read_text(encoding="utf-8")) for f in files]
    return [r for r in records if not r.get("trace")]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def settings(record: dict) -> dict:
    return {**record["env"], "seconds": record["seconds"]}


def env_differences(base: list[dict], change: list[dict]) -> list[str]:
    def values(records, key):
        return sorted({json.dumps(settings(r).get(key)) for r in records})
    keys = sorted({k for r in base + change for k in settings(r)} - IGNORED_ENV)
    return [f"{k}: parent {', '.join(values(base, k))} vs change {', '.join(values(change, k))}"
            for k in keys if values(base, k) != values(change, k)]


def verdict(base: list[tuple[int, float]], change: list[tuple[int, float]], better: str,
            bound: float) -> str:
    sign = 1 if better == "lower" else -1
    b = [v for _, v in base]
    c = [v for _, v in change]
    bq, cq = quartiles(b), quartiles(c)
    if all(sign * x < sign * y for x in c for y in b):
        return "improved"
    spread = max((q[2] - q[0]) / abs(q[1]) if q[1] else 0.0 for q in (bq, cq))
    if spread > bound:
        return "unresolved"
    if sign * (cq[1] - bq[1]) > bound * abs(bq[1]):
        return "regressed"
    by_seed = dict(base)
    pairs = [(by_seed[s], v) for s, v in change if s in by_seed]
    wins = sum(sign * y < sign * x for x, y in pairs)
    if pairs and wins >= 0.9 * len(pairs) and sign * (bq[1] - cq[1]) > bq[2] - bq[0]:
        return "improved"
    return "unchanged"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    base, change = load(argv[0]), load(argv[1])
    if not base or not change:
        print("error: each side needs at least one --trace 0 record", file=sys.stderr)
        return 2
    workloads = sorted({r["workload"] for r in base} & {r["workload"] for r in change})
    any_flag = False
    for workload in workloads:
        b = [r for r in base if r["workload"] == workload]
        c = [r for r in change if r["workload"] == workload]
        differs = env_differences(b, c)
        flag = " (environments differ)" if differs else ""
        any_flag |= bool(differs)
        print(f"{workload}: {len(b)} parent runs, {len(c)} change runs")
        for line in differs:
            print(f"  ENVIRONMENT DIFFERS  {line}")
        for m in spec["end_to_end"]:
            name = m["name"]
            bv = [(r["env"]["seed"], r["metrics"][name]) for r in b]
            cv = [(r["env"]["seed"], r["metrics"][name]) for r in c]
            bq, cq = quartiles([v for _, v in bv]), quartiles([v for _, v in cv])
            print(f"  {name:<16} parent {bq[1]:11.5g} [{bq[0]:.5g}, {bq[2]:.5g}]  "
                  f"change {cq[1]:11.5g} [{cq[0]:.5g}, {cq[2]:.5g}] {m['unit']:<6} "
                  f"bound {m['bound']:.0%}  {verdict(bv, cv, m['better'], m['bound'])}{flag}")
    missing = sorted({r["workload"] for r in base} ^ {r["workload"] for r in change})
    if missing:
        print(f"workloads on one side only: {', '.join(missing)}")
    return 1 if any_flag else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
