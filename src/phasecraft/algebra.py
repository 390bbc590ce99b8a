"""Lie algebras from structure constants and matrix bases.

A ``LieAlgebraSpec`` is the single home of the structure constants
``C[k][i][j]`` with ``[E_i, E_j] = C[k][i][j] E_k``; everything downstream
(brackets, Euler equations, coboundary calculus) contracts against this
tensor.  Matrix realizations are optional but unlock the group-level
operations (exponential, adjoint action, reconstruction of motion).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import Degenerate, NotClosed, Overflow, Singular, SingularMetric

__all__ = [
    "LieAlgebraSpec",
    "BilinearForm",
    "GroupElement",
    "structure_from_basis",
    "gl_basis",
    "so_basis",
    "killing_tensor",
    "group_exp",
    "adjoint",
    "adjoint_matrix",
    "coadjoint",
    "jacobi_residual_tensor",
    "algebra_to_json",
    "algebra_from_json",
]

_EXP_NORM_BOUND = 1.0e4


def jacobi_residual_tensor(c: np.ndarray) -> float:
    """Max-norm violation of the Jacobi identity for a rank-3 tensor."""
    term = np.einsum("mil,ljk->mijk", c, c)
    cyc = term + np.einsum("mjl,lki->mijk", c, c) + np.einsum("mkl,lij->mijk", c, c)
    return float(np.max(np.abs(cyc)))


@dataclass(frozen=True)
class LieAlgebraSpec:
    """Finite-dimensional real Lie algebra given by structure constants.

    Parameters
    ----------
    dim:
        Number of basis elements ``n``.
    structure:
        Rank-3 tensor ``C[k][i][j]`` with ``[E_i, E_j] = C[k][i][j] E_k``.
        Antisymmetry in ``(i, j)`` is enforced exactly at construction by
        mirroring the ``i < j`` entries.
    basis:
        Optional list of ``n`` matrices realizing the brackets.
    label:
        Free-form tag used by fixtures and the CLI.
    """

    dim: int
    structure: np.ndarray
    basis: tuple[np.ndarray, ...] | None = None
    label: str = ""

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be a positive integer")
        c = np.asarray(self.structure, dtype=float)
        if c.shape != (self.dim, self.dim, self.dim):
            raise ValueError(f"structure tensor must have shape {(self.dim,) * 3}")
        anti_defect = float(np.max(np.abs(c + np.swapaxes(c, 1, 2))))
        if anti_defect > 1.0e-12 * (1.0 + float(np.max(np.abs(c)))):
            raise ValueError(
                f"structure tensor not antisymmetric in (i, j); defect {anti_defect:.3e}"
            )
        # Bit-exact antisymmetry: the i < j entries are authoritative.
        upper = np.triu(np.ones((self.dim, self.dim)), k=1)[None, :, :]
        c = c * upper - np.swapaxes(c * upper, 1, 2)
        c.setflags(write=False)
        object.__setattr__(self, "structure", c)

        scale = max(1.0, float(np.max(np.abs(c))) ** 3)
        resid = jacobi_residual_tensor(c)
        if resid > 1.0e-12 * (1.0 + scale):
            raise ValueError(f"Jacobi identity violated, residual {resid:.3e}")

        if self.basis is not None:
            mats = tuple(np.asarray(m) for m in self.basis)
            if len(mats) != self.dim:
                raise ValueError("basis must contain dim matrices")
            object.__setattr__(self, "basis", mats)
            mscale = max(1.0, max(float(np.max(np.abs(m))) for m in mats) ** 2)
            for i in range(self.dim):
                for j in range(i + 1, self.dim):
                    comm = mats[i] @ mats[j] - mats[j] @ mats[i]
                    recon = sum(c[k, i, j] * mats[k] for k in range(self.dim))
                    if np.max(np.abs(comm - recon)) > 1.0e-12 * mscale * self.dim:
                        raise ValueError(
                            f"basis commutator [{i},{j}] disagrees with structure tensor"
                        )

    def bracket_coords(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Coordinates of ``[x, y]`` for coordinate vectors ``x``, ``y``."""
        return np.einsum("kij,i,j->k", self.structure, x, y)

    def ad(self, x: np.ndarray) -> np.ndarray:
        """Matrix of ``ad_x = [x, .]`` acting on coordinates."""
        return np.einsum("kij,i->kj", self.structure, x)

    def matrix_of(self, x: np.ndarray) -> np.ndarray:
        """Matrix realization of the coordinate vector ``x``."""
        if self.basis is None:
            raise ValueError(f"algebra {self.label!r} carries no matrix basis")
        return sum(xi * e for xi, e in zip(x, self.basis))

    def coords_of(self, m: np.ndarray) -> np.ndarray:
        """Least-squares expansion of the matrix ``m`` in the basis."""
        if self.basis is None:
            raise ValueError(f"algebra {self.label!r} carries no matrix basis")
        solver = getattr(self, "_coords_solver", None)
        if solver is None:
            cols = np.stack([np.asarray(e).ravel() for e in self.basis], axis=1)
            gram_inv = np.linalg.inv(cols.conj().T @ cols)
            solver = (cols, gram_inv)
            object.__setattr__(self, "_coords_solver", solver)
        cols, gram_inv = solver
        coords = gram_inv @ (cols.conj().T @ np.asarray(m).ravel())
        if np.iscomplexobj(coords) and np.max(np.abs(coords.imag)) < 1.0e-10 * (
            1.0 + np.max(np.abs(coords.real))
        ):
            coords = coords.real
        return coords


@dataclass(frozen=True)
class BilinearForm:
    """Symmetric bilinear form ``gamma_ab`` on an algebra, with cached inverse."""

    coeffs: np.ndarray
    inverse: np.ndarray | None = field(default=None, compare=False)

    def __post_init__(self):
        g = np.asarray(self.coeffs, dtype=float)
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise ValueError("coeffs must be a square matrix")
        if np.max(np.abs(g - g.T)) > 1.0e-12 * (1.0 + np.max(np.abs(g))):
            raise ValueError("coeffs must be symmetric")
        g = 0.5 * (g + g.T)
        g.setflags(write=False)
        object.__setattr__(self, "coeffs", g)
        inv = None
        if abs(np.linalg.det(g)) > np.finfo(float).tiny:
            try:
                inv = np.linalg.inv(g)
            except np.linalg.LinAlgError:
                inv = None
        if inv is not None:
            if np.max(np.abs(g @ inv - np.eye(len(g)))) > 1.0e-10:
                inv = None
            else:
                inv.setflags(write=False)
        object.__setattr__(self, "inverse", inv)

    @property
    def dim(self) -> int:
        return self.coeffs.shape[0]

    def require_inverse(self) -> np.ndarray:
        if self.inverse is None:
            raise SingularMetric("bilinear form is singular")
        return self.inverse

    def is_positive_definite(self) -> bool:
        try:
            np.linalg.cholesky(self.coeffs)
            return True
        except np.linalg.LinAlgError:
            return False


_GROUP_TAGS = ("general-linear", "special-orthogonal", "unitary")


@dataclass(frozen=True)
class GroupElement:
    """Matrix group element with a membership tag.

    ``metric`` carries the (p, q) signature matrix for the orthogonal tag;
    it defaults to the identity (compact case).
    """

    matrix: np.ndarray
    tag: str = "general-linear"
    metric: np.ndarray | None = None

    def __post_init__(self):
        m = np.asarray(self.matrix)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("group element must be a square matrix")
        if not np.isfinite(m).all():
            raise ValueError("group element has non-finite entries")
        if self.tag not in _GROUP_TAGS:
            raise ValueError(f"unknown group tag {self.tag!r}")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        if self.metric is not None:
            eta = np.asarray(self.metric, dtype=float)
            eta.setflags(write=False)
            object.__setattr__(self, "metric", eta)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def membership_residual(self) -> float:
        """Max-norm defect of the defining relation of the tagged group."""
        g = self.matrix
        if self.tag == "special-orthogonal":
            eta = self.metric if self.metric is not None else np.eye(self.dim)
            resid = float(np.max(np.abs(g.T @ eta @ g - eta)))
            if np.linalg.det(g).real < 0:
                resid = max(resid, 1.0)
            return resid
        if self.tag == "unitary":
            return float(np.max(np.abs(g.conj().T @ g - np.eye(self.dim))))
        if abs(np.linalg.det(g)) < 1.0e-12:
            raise Singular("general-linear element is numerically singular")
        return 0.0

    def inv(self) -> np.ndarray:
        if self.tag == "unitary":
            return self.matrix.conj().T
        if self.tag == "special-orthogonal" and self.metric is None:
            return self.matrix.T
        try:
            return np.linalg.inv(self.matrix)
        except np.linalg.LinAlgError as exc:
            raise Singular("group element is not invertible") from exc


# --------------------------------------------------------------------------
# constructors


def structure_from_basis(basis, label: str = "") -> LieAlgebraSpec:
    """Extract structure constants from a list of matrices.

    The commutators must lie in the span of the input; the span-fit is done
    by least squares and rejected beyond a 1e-10 residual.
    """
    mats = [np.asarray(m, dtype=complex) for m in basis]
    n = len(mats)
    if n == 0:
        raise Degenerate("empty basis")
    cols = np.stack([m.ravel() for m in mats], axis=1)
    if np.linalg.matrix_rank(cols, tol=1.0e-10) < n:
        raise Degenerate("basis matrices are linearly dependent")

    scale = max(1.0, max(float(np.max(np.abs(m))) for m in mats))
    c = np.zeros((n, n, n))
    for i in range(n):
        for j in range(i + 1, n):
            comm = (mats[i] @ mats[j] - mats[j] @ mats[i]).ravel()
            coeff, *_ = np.linalg.lstsq(cols, comm, rcond=None)
            resid = float(np.max(np.abs(cols @ coeff - comm)))
            if resid > 1.0e-10 * scale * scale:
                raise NotClosed(
                    f"[E_{i}, E_{j}] leaves the span (residual {resid:.3e})"
                )
            if np.max(np.abs(coeff.imag)) > 1.0e-10:
                raise NotClosed("commutator expansion has imaginary coefficients")
            c[:, i, j] = coeff.real
            c[:, j, i] = -coeff.real

    real_basis = [np.asarray(m) for m in basis]
    return LieAlgebraSpec(dim=n, structure=c, basis=tuple(real_basis), label=label)


def gl_basis(n: int) -> list[np.ndarray]:
    """Elementary matrices ``E_a^b`` with ``(E_a^b)^i_j = delta_a^i delta^b_j``.

    Ordered row-major in (a, b); ``gl_basis(2)`` returns E_1^1, E_1^2,
    E_2^1, E_2^2.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    out = []
    for a in range(n):
        for b in range(n):
            e = np.zeros((n, n))
            e[a, b] = 1.0
            out.append(e)
    return out


def so_basis(metric) -> list[np.ndarray]:
    """Independent generators ``eps^{ab} = E^{ab} - E^{ba}`` (a < b) of so(p, q).

    ``metric`` is the diagonal signature matrix g; each returned map is
    g-skew: g(Mx, y) = -g(x, My).  Entries: (eps^{ab})^i_j = g^{ai} d^b_j -
    g^{bi} d^a_j.
    """
    g = np.asarray(metric, dtype=float)
    if g.ndim == 1:
        g = np.diag(g)
    n = g.shape[0]
    if np.max(np.abs(g - np.diag(np.diag(g)))) > 0 or not np.all(np.abs(np.diag(g)) == 1):
        raise ValueError("metric must be diagonal with +/-1 entries")
    ginv = np.diag(1.0 / np.diag(g))
    out = []
    for a in range(n):
        for b in range(a + 1, n):
            e = np.zeros((n, n))
            e[:, b] += ginv[:, a]
            e[:, a] -= ginv[:, b]
            out.append(e)
    return out


def killing_tensor(alg: LieAlgebraSpec, lam: float = 1.0, mu: float = 0.0) -> BilinearForm:
    """Deformed Killing form ``lam * C^d_ea C^e_db + mu * C^d_da C^e_eb``."""
    c = alg.structure
    gamma = lam * np.einsum("dea,edb->ab", c, c)
    if mu != 0.0:
        trace_part = np.einsum("dda->a", c)
        gamma = gamma + mu * np.outer(trace_part, trace_part)
    return BilinearForm(0.5 * (gamma + gamma.T))


def group_exp(x: np.ndarray, tag: str = "general-linear", metric=None) -> GroupElement:
    """Matrix exponential (scaling-and-squaring) wrapped as a group element."""
    x = np.asarray(x)
    if not np.all(np.isfinite(x)):
        raise Overflow("non-finite entries in the exponent")
    if np.linalg.norm(x, 1) > _EXP_NORM_BOUND:
        raise Overflow(f"1-norm of the exponent exceeds {_EXP_NORM_BOUND:g}")
    return GroupElement(scipy.linalg.expm(x), tag=tag, metric=metric)


def adjoint(g: GroupElement, x: np.ndarray) -> np.ndarray:
    """Adjoint action ``Ad_g x = g x g^{-1}`` on a matrix ``x``."""
    return g.matrix @ np.asarray(x) @ g.inv()


def adjoint_matrix(g: GroupElement, alg: LieAlgebraSpec) -> np.ndarray:
    """Coordinate matrix (Ad_g)^b_a with Ad_g E_a = (Ad_g)^b_a E_b."""
    if alg.basis is None:
        raise ValueError("adjoint matrix needs a matrix basis")
    cols = [alg.coords_of(adjoint(g, e)) for e in alg.basis]
    return np.stack(cols, axis=1)


def coadjoint(g: GroupElement, z: np.ndarray, alg: LieAlgebraSpec) -> np.ndarray:
    """Coadjoint action on a covector: ``(coAd_g z)_a = z_b (Ad_{g^{-1}})^b_a``."""
    ginv = GroupElement(g.inv(), tag=g.tag, metric=g.metric)
    ad_inv = adjoint_matrix(ginv, alg)
    return np.asarray(z) @ ad_inv


# --------------------------------------------------------------------------
# JSON round-trip (sparse structure entries, exact float text)


def algebra_to_json(alg: LieAlgebraSpec) -> str:
    entries = []
    n = alg.dim
    for k in range(n):
        for i in range(n):
            for j in range(i + 1, n):
                v = alg.structure[k, i, j]
                if v != 0.0:
                    entries.append([k, i, j, v])
    doc: dict = {"dim": alg.dim, "structure": entries, "label": alg.label}
    if alg.basis is not None:
        doc["basis"] = [np.asarray(m).tolist() for m in alg.basis]
    return json.dumps(doc, indent=2, sort_keys=True)


def algebra_from_json(text: str) -> LieAlgebraSpec:
    doc = json.loads(text)
    n = int(doc["dim"])
    c = np.zeros((n, n, n))
    for k, i, j, v in doc["structure"]:
        c[int(k), int(i), int(j)] = v
        c[int(k), int(j), int(i)] = -v
    basis = None
    if doc.get("basis") is not None:
        basis = tuple(np.asarray(m) for m in doc["basis"])
    return LieAlgebraSpec(dim=n, structure=c, basis=basis, label=doc.get("label", ""))
