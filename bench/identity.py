"""Check that two checkouts write byte-identical outputs.

    python3 bench/identity.py BASE_DIR CHANGE_DIR

Runs every command of ``snapshot.CLI_COMMANDS`` (each shipped
``scenarios/*.json`` with its subcommand, and ``selftest --seed 0``) as
``python -m phasecraft.cli ... --out DIR`` in both checkouts, each on its own
``src``, with BLAS on one thread, and compares the sha256 of every file the
two runs wrote.  Prints one line per command and per differing file.  Exits
0 when every command exits alike and writes the same bytes, 1 on any
difference, 2 when a checkout ships a scenario that the table does not run.
Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from snapshot import CLI_COMMANDS, ONE_THREAD, TIMEOUT_S

COMMANDS = {name: args for name, args in CLI_COMMANDS.items() if args is not None}


def outputs(checkout: Path, args: list, out: Path) -> tuple[int, dict]:
    """Exit code of one command and the sha256 of each file it wrote, by relative path."""
    env = {**os.environ, **ONE_THREAD, "PYTHONPATH": str(checkout / "src")}
    proc = subprocess.run([sys.executable, "-m", "phasecraft.cli", *args, "--out", str(out)],
                          cwd=checkout, env=env, capture_output=True, timeout=TIMEOUT_S)
    hashes = {str(path.relative_to(out)): hashlib.sha256(path.read_bytes()).hexdigest()
              for path in sorted(out.rglob("*")) if path.is_file()}
    return proc.returncode, hashes


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
            (rc_a, a), (rc_b, b) = (outputs(c, cmd, Path(tmp, side, name))
                                    for side, c in zip(("base", "change"), checkouts))
            bad = sorted(f for f in a.keys() | b.keys() if a.get(f) != b.get(f))
            same = rc_a == rc_b and not bad
            print(f"{'same' if same else 'DIFF'}  {name}: exit {rc_a}/{rc_b}, {len(a)}/{len(b)} files")
            for f in bad:
                print(f"      {f}: {a.get(f, 'missing')[:16]} / {b.get(f, 'missing')[:16]}")
            differ |= not same
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
