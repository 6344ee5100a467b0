#!/usr/bin/env python3
"""Alternating parent/change runs of the benchmark, and the rule for a claimed gain.

    python3 scripts/bench_pairs.py PARENT CHANGE --workload pair --seeds 9301-9310

PARENT and CHANGE are two checkouts, each with its own ``perfbench/``. For
every seed the script runs ``perfbench/run.py --workload W --seed S
--seconds T`` once in each, the first side alternating from seed to seed,
and reads the result line each run prints. It then prints, for every
end-to-end metric of ``BENCHMARK.json``, each side's median and quartiles,
the per-pair ratios (change over parent) and the change's win count, and
whether a gain may be claimed: the change wins at least nine tenths of the
pairs, ties counting for neither, and the medians differ, in the change's
favour, by more than the parent's interquartile range. It also prints
whether the change's median stays within the metric's regression bound.

The checkouts' benchmark files are only read and run; their records go to
each checkout's ``.bench_build/``, as ``perfbench/run.py`` writes them.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def quartiles(values: list) -> tuple:
    """(first quartile, median, third quartile), inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def gain_holds(parent: list, change: list, higher_is_better: bool) -> dict:
    """The rule for claiming a gain, on paired runs ``parent[i]``, ``change[i]``.

    A pair is a win when the change is strictly better; a tie counts for
    neither side. The gain holds when wins are at least 9/10 of the pairs and
    the change's median is better than the parent's by more than the
    parent's interquartile range.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same positive number of parent and change runs")
    sign = 1.0 if higher_is_better else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    q1, parent_median, q3 = quartiles(parent)
    gap = sign * (statistics.median(change) - parent_median)
    return {
        "pairs": len(parent),
        "wins": wins,
        "gap": gap,
        "parent_iqr": q3 - q1,
        "holds": wins >= 0.9 * len(parent) and gap > q3 - q1,
    }


def within_bound(parent: list, change: list, higher_is_better: bool, bound: float) -> bool:
    """Whether the change's median is worse than the parent's by at most ``bound`` of it."""
    p, c = statistics.median(parent), statistics.median(change)
    worse = (p - c) if higher_is_better else (c - p)
    return worse <= bound * abs(p)


def _seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds += list(range(int(first), int(last or first) + 1))
    return seeds


def _run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=checkout,
        capture_output=True,
        text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: benchmark exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="seeds, such as 9301-9310 or 7,8,9")
    parser.add_argument("--seconds", type=float, default=35.0)
    args = parser.parse_args(argv)

    spec = json.loads((args.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    runs = {"parent": [], "change": []}
    for i, seed in enumerate(_seeds(args.seeds)):
        sides = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in sides:
            runs[side].append(_run(getattr(args, side), args.workload, seed, args.seconds))
        line = "  ".join(
            f"{side} {runs[side][-1]['metrics']['calibrated_steps_per_s']['value']:.6g}"
            f" (failed {runs[side][-1]['failed']})"
            for side in sides
        )
        print(f"seed {seed}, {sides[0]} first: {line}", flush=True)

    for metric in spec["end_to_end"]:
        name, higher = metric["name"], metric["better"] == "higher"
        parent = [r["metrics"][name]["value"] for r in runs["parent"]]
        change = [r["metrics"][name]["value"] for r in runs["change"]]
        print(f"\n{name} ({metric['unit']}, {metric['better']} is better)")
        for side, values in (("parent", parent), ("change", change)):
            q1, q2, q3 = quartiles(values)
            print(f"  {side:6s} median {q2:.6g}  quartiles {q1:.6g} .. {q3:.6g}")
        ratios = [c / p for p, c in zip(parent, change)]
        print("  ratios change/parent: " + " ".join(f"{r:.3f}" for r in ratios))
        rule = gain_holds(parent, change, higher)
        print(
            f"  change better in {rule['wins']} of {rule['pairs']} pairs; median gap {rule['gap']:.6g}"
            f" against parent IQR {rule['parent_iqr']:.6g}; gain rule holds: {rule['holds']}"
        )
        ok = within_bound(parent, change, higher, metric["bound"])
        print(f"  median within the regression bound {metric['bound']}: {ok}")
    failed = {side: sum(r["failed"] for r in rs) for side, rs in runs.items()}
    print(f"\nfailed operations: parent {failed['parent']}, change {failed['change']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
