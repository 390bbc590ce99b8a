"""Process set-up shared by the benchmark's entry points.

``bootstrap`` must run before numpy is imported: it pins the BLAS thread
count and puts the checkout's own ``src`` first on ``sys.path``.  It refuses
to run when the checkout carries no phasecraft sources, so an installed copy
elsewhere is never measured by mistake.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

BLAS_THREADS = 1
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class MissingSources(RuntimeError):
    pass


def bootstrap() -> Path:
    """Pin BLAS threads, expose ``src`` and return the checkout root."""
    if not (SRC / "phasecraft" / "cli.py").is_file():
        raise MissingSources(f"no phasecraft sources under {SRC}")
    for var in _THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p
    )
    import phasecraft

    if Path(phasecraft.__file__).resolve().parent != SRC / "phasecraft":
        raise MissingSources(f"phasecraft imported from {phasecraft.__file__}, not {SRC}")
    return ROOT


def facts() -> dict:
    """The environment a result carries: versions, BLAS, threads, cores, SHA."""
    import platform

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "git_sha": _git_sha(),
    }


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    return target.read_text().strip() if target.is_file() else "unknown"
