"""Check that two checkouts write byte-identical outputs.

    python3 bench/identity.py BASE_DIR CHANGE_DIR

Runs every command of ``CLI_COMMANDS`` but the bare import (each shipped
``scenarios/*.json`` with its subcommand, and ``selftest --seed 0``) as
``python -m phasecraft.cli ... --out DIR`` in both checkouts, each on its own
``src``, with BLAS on one thread, and compares the sha256 of every file the
two runs wrote.  Then, for every workload that either checkout's
``BENCHMARK.json`` declares and each seed in ``SEEDS``, a fresh process on
each checkout's ``src`` and ``perfbench`` runs one pass of
``perfbench/workloads.py`` and prints every operation's digest (the
manifest's file hashes, or the sha256 of a library result) and whether its
checks failed; the two lists are compared operation by operation.  Prints
one line per command and per workload pass, and one per differing file or
operation.  Exits 0 when every command exits alike and writes the same
bytes and every operation has the same digest and verdict, 1 on any
difference, 2 when a checkout ships a scenario that the table does not run.
Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

TIMEOUT_S = 900
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
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
COMMANDS = {name: args for name, args in CLI_COMMANDS.items() if args is not None}
SEEDS = (1, 2)
# one pass of a workload, run in the checkout with its src and perfbench on the path;
# its last line is a JSON list of [operation id, sha256 of its digest, failed]
ONE_PASS = """
import hashlib, json, sys, tempfile
from pathlib import Path
import workloads
rows = []
with tempfile.TemporaryDirectory() as tmp:
    ops = workloads.build(workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2])), Path(tmp, "scenarios"))
    for op in ops:
        try:
            digest, problems, _ = op.check(Path(tmp, op.id), op.run(Path(tmp, op.id)))
        except Exception as exc:
            digest, problems = None, [repr(exc)]
        rows.append([op.id, hashlib.sha256(json.dumps(digest).encode()).hexdigest(), bool(problems)])
print(json.dumps(rows))
"""


def cli(checkout: Path, args: list | None, out: Path) -> subprocess.CompletedProcess:
    """One fresh process of a ``CLI_COMMANDS`` entry on the checkout's ``src``,
    BLAS on one thread, writing to ``out``."""
    env = {**os.environ, **ONE_THREAD, "PYTHONPATH": str(checkout / "src")}
    cmd = ([sys.executable, "-c", "import phasecraft.cli"] if args is None
           else [sys.executable, "-m", "phasecraft.cli", *args, "--out", str(out)])
    return subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, timeout=TIMEOUT_S)


def outputs(checkout: Path, args: list, out: Path) -> tuple[int, dict]:
    """Exit code of one command and the sha256 of each file it wrote, by relative path."""
    proc = cli(checkout, args, out)
    hashes = {str(path.relative_to(out)): hashlib.sha256(path.read_bytes()).hexdigest()
              for path in sorted(out.rglob("*")) if path.is_file()}
    return proc.returncode, hashes


def digests(checkout: Path, workload: str, seed: int) -> tuple[int, dict]:
    """Exit code of one workload pass and each operation's (digest, failed), by id."""
    path = os.pathsep.join(str(checkout / d) for d in ("src", "perfbench"))
    env = {**os.environ, **ONE_THREAD, "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, "-c", ONE_PASS, workload, str(seed)], cwd=checkout,
                          env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
    rows = json.loads(proc.stdout.splitlines()[-1]) if proc.returncode == 0 else []
    return proc.returncode, {op: (digest, failed) for op, digest, failed in rows}


def report(label: str, runs: list, noun: str, show) -> bool:
    """Print whether two (exit code, {key: value}) results agree, and every key
    whose value differs; True when they agree."""
    (rc_a, a), (rc_b, b) = runs
    bad = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
    same = rc_a == rc_b and not bad
    print(f"{'same' if same else 'DIFF'}  {label}: exit {rc_a}/{rc_b}, {len(a)}/{len(b)} {noun}")
    for k in bad:
        print(f"      {k}: {show(a.get(k))} / {show(b.get(k))}")
    return same


def describe(entry) -> str:
    if entry is None:
        return "missing"
    digest, failed = entry
    return digest[:16] + (" failed" if failed else "")


def declared_workloads(checkout: Path) -> set:
    spec = checkout / "BENCHMARK.json"
    return {w["name"] for w in json.loads(spec.read_text())["workloads"]} if spec.is_file() else set()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path, help="root of the reference checkout")
    parser.add_argument("change", type=Path, help="root of the checkout to compare")
    args = parser.parse_args(argv)
    checkouts = (args.base.resolve(), args.change.resolve())
    covered = {arg for cmd in COMMANDS.values() for arg in cmd if arg.startswith("scenarios/")}
    for checkout in checkouts:
        shipped = {f"scenarios/{p.name}" for p in (checkout / "scenarios").glob("*.json")}
        if shipped - covered:
            print(f"{checkout}: no command runs {sorted(shipped - covered)}", file=sys.stderr)
            return 2
    differ = False
    with tempfile.TemporaryDirectory() as tmp:
        for name, cmd in COMMANDS.items():
            runs = [outputs(c, cmd, Path(tmp, side, name)) for side, c in zip(("base", "change"), checkouts)]
            differ |= not report(name, runs, "files", lambda h: (h or "missing")[:16])
    for workload in sorted(declared_workloads(checkouts[0]) | declared_workloads(checkouts[1])):
        for seed in SEEDS:
            runs = [digests(c, workload, seed) for c in checkouts]
            failed = "/".join(str(sum(f for _, f in ops.values())) for _, ops in runs)
            differ |= not report(f"{workload} seed {seed}", runs, f"operations, {failed} failed", describe)
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
