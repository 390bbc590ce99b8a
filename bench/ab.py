"""Compare two checkouts' end-to-end metrics in alternating benchmark pairs.

    python3 bench/ab.py BASE_DIR CHANGE_DIR [--pairs 10] [--seconds 50]
                        [--seed 1 ...] [--workload NAME ...]

For each workload (default: every one that either checkout's
``BENCHMARK.json`` declares) it runs ``--pairs`` pairs of
``perfbench/run.py --trace 0`` processes for ``--seconds`` each, one in each
checkout, one after the other; the base runs first in even pairs and the
change in odd ones.  ``--seed`` may repeat: pair k runs the k-th seed modulo
their count on both sides, so a slow spell of the host cannot fall on one
seed's runs alone.  Run nothing else on the host meanwhile.

Per end-to-end metric of the base's ``BENCHMARK.json`` it prints each side's
median, the base's interquartile range (``statistics.quantiles``, exclusive
method), the relative move of the medians, and how many pairs the change won
in the metric's ``better`` direction (ties count for neither side).  The
verdict is ``gain`` when the change won at least nine tenths of the pairs and
its median is better by more than the base's interquartile range, ``worse``
when its median is worse by more than the metric's bound (a share of the
base's median), and ``-`` otherwise.  Progress goes to stderr, one line per
run.  Exits 1 when a run reports a failed operation or an incorrect result,
else 0.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from identity import declared_workloads
from snapshot import git, run


def side(checkout: Path) -> str:
    """The checkout's SHA, flagged when tracked files differ from it."""
    dirty = git(checkout, "status", "--porcelain", "--untracked-files=no")
    return f"{git(checkout, 'rev-parse', '--short', 'HEAD')}{' + tracked changes' if dirty else ''}"


def summary(metric: dict, base: list, change: list) -> str:
    """One table row: medians, base IQR, move, wins and verdict."""
    sign = 1.0 if metric["better"] == "lower" else -1.0
    wins = sum(sign * (b - c) > 0 for b, c in zip(base, change))
    med_b, med_c = statistics.median(base), statistics.median(change)
    q1, _, q3 = statistics.quantiles(base, n=4) if len(base) > 1 else (base[0],) * 3
    gain = sign * (med_b - med_c)  # > 0: the change is better
    move = (med_c - med_b) / med_b if med_b else 0.0
    if wins >= 0.9 * len(base) and gain > q3 - q1:
        verdict = "gain"
    elif -gain > metric["bound"] * abs(med_b):
        verdict = "worse"
    else:
        verdict = "-"
    return (f"{metric['name']:<12} {med_b:>11.4g} {med_c:>11.4g} {q3 - q1:>10.3g} "
            f"{move:>+8.1%} {wins:>3}/{len(base):<3} {verdict} ({metric['unit']})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path, help="root of the reference checkout")
    parser.add_argument("change", type=Path, help="root of the checkout to compare")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--seed", type=int, action="append",
                        help="workload seed, repeatable: pair k runs seed k mod count (default 1)")
    parser.add_argument("--workload", action="append",
                        help="workload to run, repeatable (default: every declared one)")
    args = parser.parse_args(argv)
    if args.pairs < 1 or not args.seconds > 0:
        parser.error("--pairs must be at least 1 and --seconds positive")
    seeds = args.seed or [1]
    checkouts = {"base": args.base.resolve(), "change": args.change.resolve()}
    spec = json.loads((checkouts["base"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = args.workload or sorted(set().union(*map(declared_workloads, checkouts.values())))
    print(f"base {side(checkouts['base'])}, change {side(checkouts['change'])}; "
          f"{args.pairs} pairs of {args.seconds:g} s, seeds {', '.join(map(str, seeds))}")
    bad = False
    for workload in workloads:
        values = {"base": [], "change": []}
        for k in range(args.pairs):
            for name in ("base", "change") if k % 2 == 0 else ("change", "base"):
                result = run(checkouts[name], workload, 0, seeds[k % len(seeds)],
                             args.seconds)["result"]
                bad |= not result["correct"] or result["failed"] > 0
                values[name].append({m: v["value"] for m, v in result["metrics"].items()})
                print(f"{workload} pair {k + 1}/{args.pairs} seed {seeds[k % len(seeds)]} {name}: "
                      + ", ".join(f"{m} {v:.4g}" for m, v in values[name][-1].items())
                      + ("" if result["correct"] else " INCORRECT"), file=sys.stderr, flush=True)
        print(f"\n{workload}\n{'metric':<12} {'base':>11} {'change':>11} {'base IQR':>10} "
              f"{'move':>8} {'wins':<7} verdict")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            print(summary(metric, [v[name] for v in values["base"]],
                          [v[name] for v in values["change"]]))
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
