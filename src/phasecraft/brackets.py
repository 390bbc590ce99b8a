"""Poisson brackets: canonical, linear (coalgebra) and general bivector form.

The canonical ordering convention is ``z = (q^1..q^n, p_1..p_n)``, so the
bivector of the canonical structure is ``[[0, I], [-I, 0]]`` and
``{f, g} = df/dq dg/dp - df/dp dg/dq``.  The linear structure on the dual
of an algebra is ``Gamma^ab(z) = z_c C^c_ab``, which reproduces
``{z_a, z_b} = z_c C^c_ab``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .algebra import LieAlgebraSpec
from .errors import ChartSingular, DimensionMismatch, OriginOrbit

__all__ = [
    "ScalarField",
    "PoissonStructure",
    "bracket",
    "jacobi_residual",
    "hamiltonian_vf",
    "casimir_so3",
    "darboux_so3",
]

_FD_BASE_STEP = 1.0e-6
_JACOBI_OUTER_STEP = 1.0e-4


@dataclass(frozen=True)
class ScalarField:
    """Real function of an n-vector, with an optional analytic gradient."""

    arity: int
    evaluator: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray] | None = None

    def __call__(self, z) -> float:
        return float(self.evaluator(np.asarray(z, dtype=float)))

    def grad(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        if self.gradient is not None:
            return np.asarray(self.gradient(z), dtype=float)
        return _central_gradient(self.evaluator, z)

    def gradient_residual(self, points) -> float:
        """Max relative disagreement between the analytic gradient and
        central differences; used to validate user-supplied gradients."""
        if self.gradient is None:
            return 0.0
        worst = 0.0
        for z in points:
            z = np.asarray(z, dtype=float)
            ana = np.asarray(self.gradient(z), dtype=float)
            num = _central_gradient(self.evaluator, z)
            scale = 1.0 + float(np.max(np.abs(ana)))
            worst = max(worst, float(np.max(np.abs(ana - num))) / scale)
        return worst

    def __mul__(self, other: "ScalarField") -> "ScalarField":
        if self.arity != other.arity:
            raise DimensionMismatch("cannot multiply fields of different arity")
        f, g = self, other
        grad = None
        if f.gradient is not None and g.gradient is not None:
            grad = lambda z: f.grad(z) * g(z) + f(z) * g.grad(z)
        return ScalarField(self.arity, lambda z: f(z) * g(z), grad)


def _central_gradient(fun, z: np.ndarray, step: float = _FD_BASE_STEP) -> np.ndarray:
    h = step * (1.0 + np.linalg.norm(z))
    out = np.empty_like(z)
    for i in range(len(z)):
        zp, zm = z.copy(), z.copy()
        zp[i] += h
        zm[i] -= h
        out[i] = (fun(zp) - fun(zm)) / (2.0 * h)
    return out


@dataclass(frozen=True)
class PoissonStructure:
    """Bivector field z -> Gamma^ab(z), antisymmetric by construction."""

    dim: int
    matrix_at: Callable[[np.ndarray], np.ndarray]

    @staticmethod
    def canonical(n_dof: int) -> "PoissonStructure":
        n = n_dof
        gamma = np.block(
            [[np.zeros((n, n)), np.eye(n)], [-np.eye(n), np.zeros((n, n))]]
        )
        return PoissonStructure(2 * n, lambda z: gamma)

    @staticmethod
    def lie_poisson(alg: LieAlgebraSpec, sign: float = 1.0) -> "PoissonStructure":
        """Linear structure on the dual: Gamma^ab = sign * z_c C^c_ab.

        ``sign=+1`` is the spatial (left-generator) convention; ``sign=-1``
        gives the co-moving brackets which appear with reversed sign.
        """
        c = alg.structure

        def mat(z):
            return sign * np.einsum("c,cab->ab", z, c)

        return PoissonStructure(alg.dim, mat)

    def matrix(self, z) -> np.ndarray:
        m = np.asarray(self.matrix_at(np.asarray(z, dtype=float)), dtype=float)
        return 0.5 * (m - m.T)  # exact antisymmetry


def bracket(structure: PoissonStructure, f: ScalarField, g: ScalarField, z) -> float:
    """{f, g}(z) = Gamma^ab d_a f d_b g."""
    z = np.asarray(z, dtype=float)
    if len(z) != structure.dim or f.arity != structure.dim or g.arity != structure.dim:
        raise DimensionMismatch(
            f"structure dim {structure.dim}, point dim {len(z)}, "
            f"field arities {f.arity}/{g.arity}"
        )
    return float(f.grad(z) @ structure.matrix(z) @ g.grad(z))


def hamiltonian_vf(structure: PoissonStructure, ham: ScalarField, z) -> np.ndarray:
    """Hamiltonian vector field X^a = Gamma^ab d_b H at the point z."""
    z = np.asarray(z, dtype=float)
    if len(z) != structure.dim or ham.arity != structure.dim:
        raise DimensionMismatch("dimension mismatch in hamiltonian_vf")
    return structure.matrix(z) @ ham.grad(z)


def jacobi_residual(structure: PoissonStructure, f, g, h, points) -> float:
    """Max over points of |{{f,g},h} + {{g,h},f} + {{h,f},g}|.

    Nested brackets are evaluated by central differences of bracket values
    with an outer step 1e-4 * (1 + |z|).
    """
    points = [np.asarray(p, dtype=float) for p in points]
    if not points:
        raise ValueError("jacobi_residual needs at least one point")

    def nested(a, b, c, z):
        # {{a, b}, c}(z) with the outer gradient by finite differences
        grad_ab = _central_gradient(lambda w: bracket(structure, a, b, w), z, _JACOBI_OUTER_STEP)
        return float(grad_ab @ structure.matrix(z) @ c.grad(z))

    worst = 0.0
    for z in points:
        total = nested(f, g, h, z) + nested(g, h, f, z) + nested(h, f, g, z)
        worst = max(worst, abs(total))
    return worst


def casimir_so3(z) -> float:
    """Quadratic invariant |z|^2, constant on every orbit of the rotation
    coalgebra and in involution with all functions."""
    z = np.asarray(z, dtype=float)
    if z.shape != (3,):
        raise DimensionMismatch("casimir_so3 expects a 3-vector")
    return float(z @ z)


def darboux_so3(z) -> tuple[float, float, float]:
    """Darboux chart (q, p, zc) on the rotation coalgebra off the poles.

    q = atan2(z_2, z_1) in (-pi, pi], p = z_3, zc = |z|; the brackets are
    {q, p} = 1 and {q, zc} = {p, zc} = 0.  Raises OriginOrbit at z = 0 and
    ChartSingular on the z_3-axis, where the angle is undefined.
    """
    z = np.asarray(z, dtype=float)
    if z.shape != (3,):
        raise DimensionMismatch("darboux_so3 expects a 3-vector")
    norm2 = float(z @ z)
    if norm2 == 0.0:
        raise OriginOrbit("the origin is a single-point orbit; no chart exists")
    if z[0] * z[0] + z[1] * z[1] < 1.0e-30 * (1.0 + norm2):
        raise ChartSingular("chart angle undefined on the z_3-axis")
    return float(np.arctan2(z[1], z[0])), float(z[2]), float(np.sqrt(norm2))
