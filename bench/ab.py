"""Compare two checkouts in alternating benchmark pairs.

    python3 bench/ab.py BASE_DIR CHANGE_DIR [--pairs 10] [--seconds 50]
                        [--seed 1 ...] [--workload NAME ...]
    python3 bench/ab.py BASE_DIR CHANGE_DIR --kernels [--pairs 10] [--seed 1 ...]

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
verdict is ``gain`` when at least ``MIN_PAIRS`` pairs ran, the change won at
least nine tenths of them and its median is better by more than the base's
interquartile range, ``worse`` when its median is worse by more than the
metric's bound (a share of the base's median), and ``-`` otherwise.
Progress goes to stderr, one line per run.  The last line of standard output
is one JSON object, the run's record: each side's SHA and whether its tracked
files differ from it, the pair count, the seeds, the run length (``null``
under ``--kernels``) and, per table and metric, the row: every pair's values
on each side, both medians, the base IQR, the move, the wins and the verdict.
Exits 1 when a run reports a failed operation or an incorrect result, else 0.

``--kernels`` times kernels instead: ``--pairs`` pairs of fresh processes,
one on each checkout's ``src`` and ``perfbench``, BLAS on one thread, in the
same alternating order.  Each process takes, per kernel, the best of
``ROUNDS`` rounds of ``CALLS`` calls: ``rigid.step`` on the midpoint rule for
the free so(3), torqued so(3) and so(1,3) tops that the ``bodies`` workload
builds for the seed, ``algebra.expm`` on the so(1,3) top's step matrix,
``forms.coboundary_matrix(alg, 2)`` on the galilei, heisenberg_rot, gl3 and
so13 fixtures and ``forms.cohomology_dim(alg, 2)`` on so13, gl3 and
heisenberg_rot (the rows that ``perfbench/kernels.py`` names),
``wigner.wigner_transform`` at N = 256 and 512 and ``star_product(1, W)``
at N = 128 (rows ``transform_N256``, ``transform_N512``, ``star_N128``) on
the first state of each size in the ``phase_grid`` workload of the seed,
``affine.lattice_dynamics`` for 100 steps on the n = 2 and
n = 3 hyperbolic lattices of the ``bodies`` workload, and ``cli.run`` of
``scenarios/ho_ground_wigner.json`` into a temporary directory (microseconds
per call).  ``star_product(1, W)`` at N = 256 and 512 (rows ``star_N256``
and ``star_N512``, on the same states) takes the best of ``ROUNDS`` single
calls, each N in a fresh process of its own, as a product at N = 512 can
peak at a few hundred MiB.  Then the same side times one fresh process of
each entry of ``identity.CLI_COMMANDS`` (wall seconds, row ``cli.<name>``).
A kernel or command has no bound, so its verdict is ``gain`` or ``-``.
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from identity import CLI_COMMANDS, ONE_THREAD, TIMEOUT_S, cli, declared_workloads

ROUNDS, CALLS = 5, 20
FRESH = ("star_N256", "star_N512")  # timed apart by single calls, see kernel_times
# below ten pairs the base IQR can be 0, and any win would read as a gain
MIN_PAIRS = 10
# one process of --kernels, run in a checkout with its src and perfbench on the path, that
# times only the kernels named after "only", or every one but those named after "skip";
# its last line is a JSON object of microseconds per call, by kernel
KERNELS = """
import json, sys, tempfile
from time import perf_counter
import numpy as np
from phasecraft import affine, algebra, cli, forms, rigid, wigner
from phasecraft.algebra import BilinearForm, GroupElement
from phasecraft.fixtures import fixture
import workloads
seed, rounds, calls = map(int, sys.argv[1:4])
mode, names = sys.argv[4], set(sys.argv[5:])
tops, so13 = workloads.rigid_tops(seed), workloads.general_bodies(seed)[2].params["scenario"]
free = tops[0].params["scenario"]
bodies = {
    "step_free_so3": (rigid.so3_model(free["principal_moments"]), rigid.BodyState(
        GroupElement(np.eye(3), tag="special-orthogonal"), np.asarray(free["initial"]["sigma"]))),
    "step_torque_so3": workloads.torque_top_model(tops[2].params),
    "step_so13": (rigid.InvariantModel(fixture("so13"), BilinearForm(np.asarray(so13["metric"]))),
                  rigid.BodyState(GroupElement(np.eye(4)), np.asarray(so13["initial"]["sigma"]))),
}
kernels = {name: (lambda m=model, s=state: rigid.step(m, s, workloads.DT, method="lie_midpoint"))
           for name, (model, state) in bodies.items()}
model, state = bodies["step_so13"]
x = workloads.DT * model.algebra.matrix_of(rigid.legendre_inv(model, state.sigma))
kernels["expm_so13"] = lambda: algebra.expm(x)
for name in ("galilei", "heisenberg_rot", "gl3", "so13"):
    kernels[f"coboundary_{name}_k2"] = lambda alg=fixture(name): forms.coboundary_matrix(alg, 2)
for name in ("so13", "gl3", "heisenberg_rot"):
    kernels[f"cohomology_{name}_k2"] = lambda alg=fixture(name): forms.cohomology_dim(alg, 2)
states = {}  # the first state of each grid size in the phase_grid workload
for spec in workloads.phase_grid(seed):
    params = spec.params.get("scenario", spec.params)
    states.setdefault(params.get("grid", {}).get("N"), params)
for n in (256, 512):
    psi = workloads.psi_of(states[n]["state"], states[n]["grid"])
    kernels[f"transform_N{n}"] = lambda psi=psi: wigner.wigner_transform(psi)
for n in (128, 256, 512):
    w = wigner.wigner_transform(workloads.psi_of(states[n]["state"], states[n]["grid"]))
    kernels[f"star_N{n}"] = lambda w=w, one=wigner.phase_grid_constant(1.0, w): (
        wigner.star_product(one, w))
for tag, spec in (("n2", workloads.lattice_pairs(seed)[0]),
                  ("n3", workloads.general_bodies(seed)[0])):
    init = spec.params["scenario"]["initial"]
    lat = affine.TwoPolarState(L=np.eye(len(init["q"])), R=np.eye(len(init["q"])),
                               **{key: np.asarray(init[key]) for key in ("q", "p", "M", "N")})
    kernels[f"lattice_100_steps_{tag}"] = lambda lat=lat: affine.lattice_dynamics(
        "hyperbolic", {"a": 1.0}, lat, workloads.DT, 100, sample_every=100)
out = tempfile.TemporaryDirectory()  # removed when the process exits
kernels["cli_wigner_ho_ground"] = lambda: cli.run("wigner", "scenarios/ho_ground_wigner.json",
                                                  out.name, None)
best = {}
for name, fn in kernels.items():
    if (name in names) != (mode == "only"):
        continue
    fn()
    times = []
    for _ in range(rounds):
        start = perf_counter()
        for _ in range(calls):
            fn()
        times.append((perf_counter() - start) / calls)
    best[name] = 1e6 * min(times)
print(json.dumps(best))
"""



def git(checkout: Path, *args: str) -> str | None:
    proc = subprocess.run(["git", "-C", str(checkout), *args], capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def side(checkout: Path) -> dict:
    """The checkout's SHA and whether tracked files differ from it."""
    return {"sha": git(checkout, "rev-parse", "HEAD"),
            "tracked_changes": bool(git(checkout, "status", "--porcelain", "--untracked-files=no"))}


def run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result line of one ``perfbench/run.py --trace 0`` process."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd[1:])} in {checkout} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def summary(metric: dict, base: list, change: list) -> dict:
    """One row: every pair's values, both medians, base IQR, move, wins and verdict."""
    sign = 1.0 if metric["better"] == "lower" else -1.0
    wins = sum(sign * (b - c) > 0 for b, c in zip(base, change))
    med_b, med_c = statistics.median(base), statistics.median(change)
    q1, _, q3 = statistics.quantiles(base, n=4) if len(base) > 1 else (base[0],) * 3
    gain = sign * (med_b - med_c)  # > 0: the change is better
    if len(base) >= MIN_PAIRS and wins >= 0.9 * len(base) and gain > q3 - q1:
        verdict = "gain"
    elif "bound" in metric and -gain > metric["bound"] * abs(med_b):
        verdict = "worse"
    else:
        verdict = "-"
    return {"unit": metric["unit"], "base": base, "change": change, "median_base": med_b,
            "median_change": med_c, "base_iqr": q3 - q1,
            "move": (med_c - med_b) / med_b if med_b else 0.0, "wins": wins, "verdict": verdict}


def kernel_process(checkout: Path, seed: int, calls: int, mode: str, names) -> dict:
    """Microseconds per call, by kernel, from one fresh ``KERNELS`` process."""
    path = os.pathsep.join(str(checkout / d) for d in ("src", "perfbench"))
    proc = subprocess.run([sys.executable, "-c", KERNELS, str(seed), str(ROUNDS), str(calls),
                           mode, *names],
                          cwd=checkout, env={**os.environ, **ONE_THREAD, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"kernel timing in {checkout} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def kernel_times(checkout: Path, seed: int) -> dict:
    """Microseconds per call of each kernel, from one fresh process and one
    more per ``FRESH`` kernel, and the wall seconds of one fresh process of
    each command, as ``cli.<name>``."""
    times = kernel_process(checkout, seed, CALLS, "skip", FRESH)
    for name in FRESH:
        times.update(kernel_process(checkout, seed, 1, "only", [name]))
    for name, args in CLI_COMMANDS.items():
        with tempfile.TemporaryDirectory() as out:
            start = time.perf_counter()
            proc = cli(checkout, args, Path(out))
            times[f"cli.{name}"] = time.perf_counter() - start
        if proc.returncode != 0:
            raise SystemExit(f"{name} in {checkout} exited {proc.returncode}:\n"
                             f"{proc.stderr.decode()}")
    return times


def paired(checkouts: dict, pairs: int, seeds: list, label: str, measure) -> dict:
    """``measure(checkout, seed)``, a dict of values, per side and pair: the
    base first in even pairs and the change first in odd ones."""
    values = {"base": [], "change": []}
    for k in range(pairs):
        seed = seeds[k % len(seeds)]
        for name in ("base", "change") if k % 2 == 0 else ("change", "base"):
            values[name].append(measure(checkouts[name], seed))
            print(f"{label} pair {k + 1}/{pairs} seed {seed} {name}: "
                  + ", ".join(f"{m} {v:.4g}" for m, v in values[name][-1].items()),
                  file=sys.stderr, flush=True)
    return values


def table(label: str, metrics: list, values: dict) -> dict:
    """Print a heading and one ``summary`` row per metric; return the rows by name."""
    rows = {m["name"]: summary(m, [v[m["name"]] for v in values["base"]],
                               [v[m["name"]] for v in values["change"]]) for m in metrics}
    width = max(map(len, ["metric", *rows]))
    print(f"\n{label}\n{'metric':<{width}} {'base':>11} {'change':>11} {'base IQR':>10} "
          f"{'move':>8} {'wins':<7} verdict")
    for name, row in rows.items():
        print(f"{name:<{width}} {row['median_base']:>11.4g} {row['median_change']:>11.4g} "
              f"{row['base_iqr']:>10.3g} {row['move']:>+8.1%} {row['wins']:>3}/"
              f"{len(row['base']):<3} {row['verdict']} ({row['unit']})")
    return rows


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
    parser.add_argument("--kernels", action="store_true",
                        help="time the kernels instead of the workloads")
    args = parser.parse_args(argv)
    if args.pairs < 1 or not args.seconds > 0:
        parser.error("--pairs must be at least 1 and --seconds positive")
    seeds = args.seed or [1]
    checkouts = {"base": args.base.resolve(), "change": args.change.resolve()}
    record = {"base": side(checkouts["base"]), "change": side(checkouts["change"]),
              "pairs": args.pairs, "seeds": seeds,
              "seconds": None if args.kernels else args.seconds, "tables": {}}
    what = (f"kernel and command processes, best of {ROUNDS} x {CALLS} kernel calls"
            if args.kernels else f"{args.seconds:g} s")
    print(f"base {record['base']}, change {record['change']}; {args.pairs} pairs of {what}, "
          f"seeds {', '.join(map(str, seeds))}")
    bad = False
    if args.kernels:
        values = paired(checkouts, args.pairs, seeds, "kernels", kernel_times)
        record["tables"]["kernels"] = table("kernels", [
            {"name": name, "unit": "s" if name.startswith("cli.") else "us", "better": "lower"}
            for name in values["base"][0]], values)
    else:
        spec = json.loads((checkouts["base"] / "BENCHMARK.json").read_text(encoding="utf-8"))
        declared = set().union(*map(declared_workloads, checkouts.values()))
        workloads = args.workload or sorted(declared)
        for workload in workloads:
            def measure(checkout: Path, seed: int) -> dict:
                nonlocal bad
                result = run(checkout, workload, seed, args.seconds)
                if not result["correct"] or result["failed"] > 0:
                    bad = True
                    print(f"{workload} seed {seed} in {checkout}: {result['failed']} failed"
                          + ("" if result["correct"] else ", INCORRECT"),
                          file=sys.stderr, flush=True)
                return {m: v["value"] for m, v in result["metrics"].items()}

            values = paired(checkouts, args.pairs, seeds, workload, measure)
            record["tables"][workload] = table(workload, spec["end_to_end"], values)
    print(json.dumps(record))
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
