"""Compare two result sets of the benchmark: parent and change.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the records that `run.py --out FILE` appends (untraced runs
are compared; traced ones are skipped).  Runs of the two sets are paired by
seed, or in file order where the seeds differ.  One row is printed per
workload and end-to-end metric of BENCHMARK.json, with one verdict:

- improved: the change wins at least 9/10 of at least ten pairs (ties count
  for neither side) and the gap between the medians exceeds the parent's
  interquartile spread;
- worse: the same rule in the parent's favour with a gap larger than the
  metric's bound, or, with both spreads within the bound, a median worse by
  more than the bound;
- unresolved: either side's interquartile spread, as a share of its median,
  is wider than the bound, unless every change run beats every parent run;
- unchanged: otherwise.

The exit code is 1 when any row is worse.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: str) -> dict[str, list[dict]]:
    runs: dict[str, list[dict]] = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.strip():
            record = json.loads(line)
            if not record["trace"] and record["result"]["correct"]:
                runs.setdefault(record["workload"], []).append(record)
    return runs


def pairs(parent: list[dict], change: list[dict], metric: str) -> list[tuple[float, float]]:
    value = lambda r: r["result"]["metrics"][metric]["value"]  # noqa: E731
    by_seed = {r["seed"]: r for r in change}
    if len(by_seed) == len(change) and {r["seed"] for r in parent} == set(by_seed):
        return [(value(p), value(by_seed[p["seed"]])) for p in parent]
    return [(value(p), value(c)) for p, c in zip(parent, change)]


def spread(values: list[float]) -> tuple[float, float, float]:
    """(median, q1, q3) as statistics.quantiles(n=4) gives the quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def verdict(pp: list[tuple[float, float]], better: str, bound: float) -> tuple[str, dict]:
    sign = 1.0 if better == "higher" else -1.0
    p_vals = [p for p, _ in pp]
    c_vals = [c for _, c in pp]
    p_med, p_q1, p_q3 = spread(p_vals)
    c_med, c_q1, c_q3 = spread(c_vals)
    wins = sum(sign * (c - p) > 0 for p, c in pp)
    losses = sum(sign * (c - p) < 0 for p, c in pp)
    gain = sign * (c_med - p_med)  # > 0 when the change is better
    worse_share = -gain / abs(p_med) if p_med else 0.0
    enough = len(pp) >= 10
    row = {
        "parent": (p_med, p_q1, p_q3, len(p_vals)),
        "change": (c_med, c_q1, c_q3, len(c_vals)),
        "wins": wins,
        "losses": losses,
        "pairs": len(pp),
    }
    if enough and wins >= 0.9 * len(pp) and gain > p_q3 - p_q1:
        return "improved", row
    if enough and losses >= 0.9 * len(pp) and -gain > p_q3 - p_q1 and worse_share > bound:
        return "worse", row
    wide = max((p_q3 - p_q1) / abs(p_med), (c_q3 - c_q1) / abs(c_med)) > bound
    all_better = min(sign * c for c in c_vals) > max(sign * p for p in p_vals)
    if wide and not all_better:
        return "unresolved", row
    if worse_share > bound:
        return "worse", row
    return "unchanged", row


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parent, change = load(argv[0]), load(argv[1])
    any_worse = False
    header = f"{'workload':14} {'metric':12} {'parent median [q1, q3] n':38} {'change median [q1, q3] n':38} {'won':>7}  verdict"
    print(header)
    for workload in sorted(set(parent) & set(change)):
        for m in spec["end_to_end"]:
            pp = pairs(parent[workload], change[workload], m["name"])
            if not pp:
                continue
            v, row = verdict(pp, m["better"], m["bound"])
            any_worse |= v == "worse"
            fmt = lambda s: f"{s[0]:.5g} [{s[1]:.5g}, {s[2]:.5g}] {s[3]}"  # noqa: E731
            print(
                f"{workload:14} {m['name']:12} {fmt(row['parent']):38} {fmt(row['change']):38} "
                f"{row['wins']:>3}/{row['pairs']:<3}  {v}"
            )
    for workload in sorted(set(parent) ^ set(change)):
        print(f"{workload:14} (only in one result set; not compared)")
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
