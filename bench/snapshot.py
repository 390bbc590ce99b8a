"""Write ``BENCH_<K>.json``: the benchmark's result lines for one checkout.

    python3 bench/snapshot.py K [--checkout DIR]

Runs ``perfbench/run.py`` of the checkout (default: this repository) as a
subprocess for every workload that its ``BENCHMARK.json`` declares, at
``--trace 0`` (the end-to-end metrics) and at ``--trace 1`` (the per-layer
and kernel metrics) once per seed in ``SEEDS``, each for ``SECONDS``
seconds.  It writes ``BENCH_<K>.json`` at the root of this repository with
each run's result line, the environment line that run.py prints, per
workload the median over ``SEEDS`` of each end-to-end metric (``medians``)
and of each per-layer metric (``layer_medians``), the checkout's git SHA
and whether tracked files differed from it.  Its ``cli`` section holds the
wall seconds of ``CLI_RUNS`` fresh processes of each command in
``CLI_COMMANDS`` (every shipped scenario, ``selftest --seed 0`` and the
bare import), BLAS on one thread, and their median.
Standard library only; the file is meant to be committed, one per change
that touches a hot path, so that the rows a change moves can be named.
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

ROOT = Path(__file__).resolve().parent.parent
# one run per seed at each trace level: a single run moves untouched rows by up to
# 38% (end-to-end metrics) and 55% (kernel metrics)
SEEDS = (1, 2, 3)
SECONDS = 10
TIMEOUT_S = 900
CLI_RUNS = 3
# name -> arguments of ``python -m phasecraft.cli``, to which each run adds ``--out`` and
# a fresh temporary directory; ``import`` is ``python -c "import phasecraft.cli"``
CLI_COMMANDS = {
    "euler.free_top": ["euler", "scenarios/free_top.json"],
    "affine.sutherland_bound_pair": ["affine", "scenarios/sutherland_bound_pair.json"],
    "ensemble.harmonic_shell": ["ensemble", "scenarios/harmonic_shell.json"],
    "wigner.ho_ground_wigner": ["wigner", "scenarios/ho_ground_wigner.json"],
    "cohomology.galilei_cohomology": ["cohomology", "scenarios/galilei_cohomology.json"],
    "cohomology.so3_cocycle_radical": ["cohomology", "scenarios/so3_cocycle_radical.json"],
    "selftest": ["selftest", "--seed", "0"],
    "import": None,
}
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def git(checkout: Path, *args: str) -> str | None:
    proc = subprocess.run(["git", "-C", str(checkout), *args], capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def run(checkout: Path, workload: str, trace: int, seed: int, seconds: float = SECONDS) -> dict:
    """One run.py process: its environment line and its result line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd[1:])} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    env = next(line for line in lines if line.startswith("environment: "))
    return {"workload": workload, "trace": trace, "seed": seed, "seconds": seconds,
            "environment": json.loads(env[len("environment: "):]),
            "result": json.loads(lines[-1])}


def time_cli(checkout: Path, name: str) -> dict:
    """Wall seconds of ``CLI_RUNS`` fresh processes of one command, and their median."""
    env = {**os.environ, **ONE_THREAD, "PYTHONPATH": str(checkout / "src")}
    args = CLI_COMMANDS[name]
    samples = []
    for _ in range(CLI_RUNS):
        with tempfile.TemporaryDirectory() as out:
            cmd = ([sys.executable, "-c", "import phasecraft.cli"] if args is None
                   else [sys.executable, "-m", "phasecraft.cli", *args, "--out", out])
            start = time.perf_counter()
            proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True,
                                  timeout=TIMEOUT_S)
            samples.append(time.perf_counter() - start)
            if proc.returncode != 0:
                raise SystemExit(f"{name} exited {proc.returncode}:\n{proc.stderr}")
    return {"median_s": statistics.median(samples), "samples_s": samples}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("k", type=int, help="the number in BENCH_<K>.json")
    parser.add_argument("--checkout", type=Path, default=ROOT,
                        help="root of the checkout to measure (default: this repository)")
    args = parser.parse_args(argv)
    checkout = args.checkout.resolve()
    spec = json.loads((checkout / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    runs = []
    for trace in (0, 1):
        for workload in workloads:
            for seed in SEEDS:
                print(f"{workload} --trace {trace} --seed {seed}", file=sys.stderr, flush=True)
                runs.append(run(checkout, workload, trace, seed))
    cli = {}
    for name in CLI_COMMANDS:
        print(f"cli {name}", file=sys.stderr, flush=True)
        cli[name] = time_cli(checkout, name)

    def medians(trace: int, metrics: list) -> dict:
        return {workload: {metric["name"]: statistics.median(
            r["result"]["metrics"][metric["name"]]["value"]
            for r in runs if r["workload"] == workload and r["trace"] == trace)
            for metric in metrics} for workload in workloads}

    out = ROOT / f"BENCH_{args.k}.json"
    # a SHA names the measured code only when no tracked file differs from it
    doc = {"git_sha": git(checkout, "rev-parse", "HEAD"),
           "tracked_changes": bool(git(checkout, "status", "--porcelain", "--untracked-files=no")),
           "medians": medians(0, spec["end_to_end"]),
           "layer_medians": medians(1, spec["per_layer"]), "cli": cli, "runs": runs}
    out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
