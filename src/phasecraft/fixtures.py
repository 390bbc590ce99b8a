"""Bundled algebra fixtures.

Each fixture is defined by one JSON document, ``fixtures/<name>.json`` in
this package, read and checked by :func:`phasecraft.algebra.algebra_from_json`
like every user algebra document.

Matrix bases are supplied where a faithful low-dimensional realization is
standard (rotation, Lorentz, linear and Heisenberg algebras); the Galilei
and extended-Heisenberg algebras are given by structure constants alone.

Conventions:

* so3 -- generators ``eps_a`` with ``[eps_a, eps_b] = eps_abc eps_c``.
* sl2 -- basis (h, e, f) with ``[h, e] = 2e``, ``[h, f] = -2f``, ``[e, f] = h``.
* so13 -- basis (M1, M2, M3, N1, N2, N3) in signature (+---), satisfying
  ``[M_i, M_j] = -eps_ij^k M_k``, ``[M_i, N_j] = -eps_ij^k N_k``,
  ``[N_i, N_j] = +eps_ij^k M_k``; the generators ``eps^{ab}`` of
  :func:`phasecraft.algebra.so_basis`, reordered and signed.
* gl2, gl3 -- the units ``E_a^b`` of :func:`phasecraft.algebra.gl_basis`,
  index ``a n + b``.
* heisenberg -- basis (Z, Q1..Q3, P1..P3) with ``[Q_j, P_k] = delta_jk Z``.
* heisenberg_rot -- basis (Z, Q1..3, P1..3, J1..3); rotations act on Q and
  P: ``[J_i, Q_j] = eps_ijk Q_k``, ``[J_i, P_j] = eps_ijk P_k``.
* galilei -- basis (H, P1..3, K1..3, J1..3) with ``[K_i, H] = P_i`` and
  ``[K_i, P_j] = 0``; the classical algebra, whose one-dimensional second
  cohomology is the mass extension.
* euclidean3 -- basis (P1..3, J1..3) of isometries of flat 3-space, with
  ``[J_i, P_j] = eps_ijk P_k``.
* abelian1, abelian2 -- zero brackets.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .algebra import LieAlgebraSpec, algebra_from_json

__all__ = ["fixture", "fixture_names", "eps3"]

_DIR = Path(__file__).with_name("fixtures")
_NAMES = tuple(sorted(path.stem for path in _DIR.glob("*.json")))
_CACHE: dict[str, LieAlgebraSpec] = {}


def fixture_names() -> list[str]:
    return list(_NAMES)


def fixture(name: str) -> LieAlgebraSpec:
    """Return a bundled algebra by name (cached, immutable)."""
    if name not in _NAMES:
        raise KeyError(f"unknown algebra fixture {name!r}; have {fixture_names()}")
    if name not in _CACHE:
        _CACHE[name] = algebra_from_json((_DIR / f"{name}.json").read_text(encoding="utf-8"))
    return _CACHE[name]


def eps3() -> list[np.ndarray]:
    """Standard rotation generators eps_1, eps_2, eps_3 (copies of so3's basis)."""
    return [m.copy() for m in fixture("so3").basis]
