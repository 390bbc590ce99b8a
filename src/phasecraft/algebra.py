"""Lie algebras from structure constants and matrix bases.

A ``LieAlgebraSpec`` is the single home of the structure constants
``C[k][i][j]`` with ``[E_i, E_j] = C[k][i][j] E_k``; everything downstream
(brackets, Euler equations, coboundary calculus) contracts against this
tensor.  Matrix realizations are optional but unlock the group-level
operations (exponential, adjoint action, reconstruction of motion).
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import Degenerate, NotClosed, Overflow, Singular, SingularMetric
from .schema import array, at_most, integer, number, read, rows, string

__all__ = [
    "LieAlgebraSpec",
    "BilinearForm",
    "GroupElement",
    "structure_from_basis",
    "gl_basis",
    "so_basis",
    "killing_tensor",
    "expm",
    "rk4",
    "check_step",
    "group_exp",
    "adjoint",
    "adjoint_matrix",
    "coadjoint",
    "jacobi_residual_tensor",
    "algebra_to_json",
    "algebra_from_json",
]

_EXP_NORM_BOUND = 1.0e4
_NON_FINITE_EXPONENT = "non-finite entries in the exponent"
_LARGE_EXPONENT = f"1-norm of the exponent exceeds {_EXP_NORM_BOUND:g}"
# Below this angle Rodrigues' coefficients are their Taylor polynomials; the
# dropped terms (theta^4 / 120 and theta^4 / 720) are under 1e-18.
_TAYLOR_THETA = 1.0e-4
# Scaling and squaring (Higham, SIAM J. Matrix Anal. Appl. 26, 2005): the
# diagonal Pade approximant of degree m is accurate to double precision for a
# 1-norm up to theta_m; above theta_13 the exponent is scaled by 2^-s first.
# _PADE[m][j] = (2m - j)! / (j! (m - j)!): the numerator's coefficient of x^j,
# scaled so that that of x^m is 1.
_PADE_THETA = ((3, 1.495585217958292e-2), (5, 2.539398330063230e-1),
               (7, 9.504178996162932e-1), (9, 2.097847961257068e0))
_THETA_13 = 5.371920351148152
_PADE = {m: [float(math.factorial(2 * m - j) // (math.factorial(j) * math.factorial(m - j)))
             for j in range(m + 1)] for m in (3, 5, 7, 9, 13)}


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
        A name for messages and reports; no computation reads it.
    """

    dim: int
    structure: np.ndarray
    basis: tuple[np.ndarray, ...] | None = None
    label: str = ""

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be a positive integer")
        # checked first: NaN would pass every tolerance test below
        c = _frozen(np.array(self.structure, dtype=float), "structure")
        if c.shape != (self.dim, self.dim, self.dim):
            raise ValueError(f"structure tensor must have shape {(self.dim,) * 3}")
        anti_defect = float(np.max(np.abs(c + np.swapaxes(c, 1, 2))))
        if anti_defect > 1.0e-12 * (1.0 + float(np.max(np.abs(c)))):
            raise ValueError(
                f"structure tensor not antisymmetric in (i, j); defect {anti_defect:.3e}"
            )
        # Bit-exact antisymmetry: the i < j entries are authoritative.
        upper = np.triu(np.ones((self.dim, self.dim)), k=1)[None, :, :]
        c = _frozen(c * upper - np.swapaxes(c * upper, 1, 2), "structure")
        object.__setattr__(self, "structure", c)

        scale = max(1.0, float(np.max(np.abs(c))) ** 3)
        resid = jacobi_residual_tensor(c)
        if resid > 1.0e-12 * (1.0 + scale):
            raise ValueError(f"Jacobi identity violated, residual {resid:.3e}")

        if self.basis is not None:
            mats = tuple(_frozen(np.array(m), "basis") for m in self.basis)
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
    inverse: np.ndarray | None = field(init=False, compare=False)

    def __post_init__(self):
        g = _frozen(np.array(self.coeffs, dtype=float), "coeffs")
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise ValueError("coeffs must be a square matrix")
        if np.max(np.abs(g - g.T)) > 1.0e-12 * (1.0 + np.max(np.abs(g))):
            raise ValueError("coeffs must be symmetric")
        g = _frozen(0.5 * (g + g.T), "coeffs")
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


_GROUP_TAGS = ("general-linear", "special-orthogonal")


@dataclass(frozen=True)
class GroupElement:
    """Matrix group element with a membership tag: ``general-linear``
    (invertible) or ``special-orthogonal`` (g^T g = I, det g = +1)."""

    matrix: np.ndarray
    tag: str = "general-linear"

    def __post_init__(self):
        m = _frozen(np.array(self.matrix), "matrix")
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("group element must be a square matrix")
        if self.tag not in _GROUP_TAGS:
            raise ValueError(f"unknown group tag {self.tag!r}")
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def membership_residual(self) -> float:
        """Max-norm defect of the defining relation of the tagged group."""
        g = self.matrix
        if self.tag == "special-orthogonal":
            resid = float(np.max(np.abs(g.T @ g - np.eye(self.dim))))
            if np.linalg.det(g).real < 0:
                resid = max(resid, 1.0)
            return resid
        if abs(np.linalg.det(g)) < 1.0e-12:
            raise Singular("general-linear element is numerically singular")
        return 0.0

    def inv(self) -> np.ndarray:
        if self.tag == "special-orthogonal":
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


def expm(x: np.ndarray) -> np.ndarray:
    """Matrix exponential after the finite and 1-norm guard: scaling and
    squaring on the 1-norm that the guard computes."""
    x = np.asarray(x)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise ValueError(f"the exponent must be a square matrix, got shape {x.shape}")
    # on Python numbers: for the small matrices of a step, cheaper than numpy's reductions
    sums = [sum(map(abs, col)) for col in zip(*x.tolist())]
    norm = max(sums, default=0.0)
    # written so that a NaN fails the test as well: max() may pass over one, sum() cannot
    if not (norm <= _EXP_NORM_BOUND and sum(sums) <= math.inf):
        if not np.isfinite(x).all():
            raise Overflow(_NON_FINITE_EXPONENT)
        raise Overflow(_LARGE_EXPONENT)
    return _scaling_squaring(x.astype(complex if x.dtype.kind == "c" else float, copy=False),
                             norm)


def _scaling_squaring(a: np.ndarray, norm: float) -> np.ndarray:
    """e^a for a float or complex square matrix a of 1-norm ``norm``: the
    Pade approximant of the lowest degree whose theta_m bounds the norm, or
    of degree 13 on a / 2^s, squared s times."""
    for m, theta in _PADE_THETA:
        if norm <= theta:
            return _pade(a, m)
    s = max(0, math.ceil(math.log2(norm / _THETA_13)))
    r = _pade(a * 2.0 ** -s, 13)
    for _ in range(s):
        r = r @ r
    return r


def _pade(a: np.ndarray, m: int) -> np.ndarray:
    """The diagonal Pade approximant (V - U)^-1 (V + U) of degree m to e^a,
    with U its odd and V its even terms, evaluated as I + 2 (V - U)^-1 U."""
    b = _PADE[m]
    ident = _identity(len(a), a.dtype)
    a2 = a @ a
    if m == 13:
        a4 = a2 @ a2
        a6 = a4 @ a2
        u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
                 + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
        v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
             + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident)
    else:
        odd, v = b[1] * ident + b[3] * a2, b[0] * ident + b[2] * a2
        power = a2
        for j in range(4, m, 2):  # the terms in a^4, ..., a^(m-1)
            power = power @ a2
            odd += b[j + 1] * power
            v += b[j] * power
        u = a @ odd
    return ident + 2.0 * np.linalg.solve(v - u, u)


@functools.lru_cache(maxsize=None)
def _identity(n: int, dtype: np.dtype) -> np.ndarray:
    """The read-only n x n identity of ``dtype``, built once per size."""
    ident = np.eye(n, dtype=dtype)
    ident.setflags(write=False)
    return ident


def _rodrigues(x: np.ndarray) -> np.ndarray:
    """exp(K) = I + a K + b K^2 for K antisymmetric 3x3, K v = w x v, with
    theta = |w|, a = sin(theta) / theta and b = (1 - cos(theta)) / theta^2.
    The caller knows that x is such a matrix.  ``expm``'s guard runs on the
    three entries of w: the column sums of |K|, whose largest is its 1-norm,
    are |w_i| + |w_j|."""
    (_, _, w2), (w3, _, _), (_, w1, _) = x.tolist()
    a1, a2, a3 = abs(w1), abs(w2), abs(w3)
    # written so that a NaN fails the test as well
    if not (a2 + a3 <= _EXP_NORM_BOUND and a1 + a3 <= _EXP_NORM_BOUND
            and a1 + a2 <= _EXP_NORM_BOUND):
        if not (math.isfinite(w1) and math.isfinite(w2) and math.isfinite(w3)):
            raise Overflow(_NON_FINITE_EXPONENT)
        raise Overflow(_LARGE_EXPONENT)
    t2 = w1 * w1 + w2 * w2 + w3 * w3
    if t2 < _TAYLOR_THETA * _TAYLOR_THETA:
        a, b = 1.0 - t2 / 6.0, 0.5 - t2 / 24.0
    else:
        theta = math.sqrt(t2)
        a = math.sin(theta) / theta
        half = math.sin(0.5 * theta) / theta
        b = 2.0 * half * half  # 1 - cos(theta) = 2 sin^2(theta / 2), no cancellation
    # K^2 = w w^T - theta^2 I
    return np.array([
        [1.0 - b * (w2 * w2 + w3 * w3), b * w1 * w2 - a * w3, b * w1 * w3 + a * w2],
        [b * w1 * w2 + a * w3, 1.0 - b * (w1 * w1 + w3 * w3), b * w2 * w3 - a * w1],
        [b * w1 * w3 - a * w2, b * w2 * w3 + a * w1, 1.0 - b * (w1 * w1 + w2 * w2)],
    ])


def _frozen(arr: np.ndarray, name: str) -> np.ndarray:
    """``arr``, set read-only, after a ``ValueError`` ("<name> has non-finite
    entries") unless every entry is finite.  ``arr`` belongs to the caller:
    a constructor's own copy, or an array that library code has just built."""
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} has non-finite entries")
    arr.setflags(write=False)
    return arr


def _check_scalars(obj, positive=(), finite=(), integral=()) -> None:
    """``ValueError`` ("<name> must be ...") unless each field of ``obj`` named
    in ``positive`` lies in (0, inf), each named in ``finite`` is finite and
    each named in ``integral`` is a Python or numpy integer other than a bool."""
    for name in positive:
        value = getattr(obj, name)
        if not 0 < value < math.inf:  # written so that a NaN fails the test as well
            raise ValueError(f"{name} must be finite and positive, got {value!r}")
    for name in finite:
        if not math.isfinite(getattr(obj, name)):
            raise ValueError(f"{name} must be finite, got {getattr(obj, name)!r}")
    for name in integral:
        value = getattr(obj, name)
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, got {value!r}")


def _from_checked(cls, *values):
    """``cls(*values)`` for a frozen dataclass ``cls``, one value per field,
    without ``__post_init__``: for values built from parts already checked,
    in the form that its checks would store.

    The ownership rule of the frozen value types: a public constructor
    stores each array field as ``_frozen(np.array(value, dtype), name)``, a
    copy that is checked finite and read-only, so no caller can change a
    value after its check.  Library code that has just built an array, and
    holds the only reference to it, freezes it in place (``_frozen``, or
    ``setflags(write=False)`` where no product can overflow) and hands it
    over here, without a copy."""
    obj = object.__new__(cls)
    # one field at a time: filling obj.__dict__ would give each instance its own dict
    for name, value in zip(cls.__match_args__, values):
        object.__setattr__(obj, name, value)
    return obj


def rk4(rate, y: list, dt: float, steps: int = 1) -> list:
    """``steps`` classical Runge-Kutta steps of size dt of dy/dt = rate(y), on a
    list y of components (floats or arrays) that ``rate`` maps to theirs."""
    half, sixth = 0.5 * dt, dt / 6.0
    for _ in range(steps):
        k1 = rate(y)
        k2 = rate([u + half * v for u, v in zip(y, k1)])
        k3 = rate([u + half * v for u, v in zip(y, k2)])
        k4 = rate([u + dt * v for u, v in zip(y, k3)])
        y = [u + sixth * (a + 2 * b + 2 * c + d) for u, a, b, c, d in zip(y, k1, k2, k3, k4)]
    return y


def check_step(dt: float, sample_every: int = 1, steps: int = 0) -> None:
    """ValueError unless dt is finite and positive, sample_every a positive
    integer and steps a non-negative integer."""
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be finite and positive, got {dt!r}")
    if not (isinstance(steps, (int, np.integer)) and steps >= 0):
        raise ValueError(f"the step count must be a non-negative integer, got {steps!r}")
    if not (isinstance(sample_every, (int, np.integer)) and sample_every >= 1):
        raise ValueError(f"sample_every must be a positive integer, got {sample_every!r}")


def group_exp(x: np.ndarray, tag: str = "general-linear") -> GroupElement:
    """Matrix exponential (``expm``) wrapped as a group element."""
    return GroupElement(expm(x), tag=tag)


def adjoint(g: GroupElement, x: np.ndarray) -> np.ndarray:
    """Adjoint action ``Ad_g x = g x g^{-1}`` on a matrix ``x``."""
    return g.matrix @ np.asarray(x) @ g.inv()


def adjoint_matrix(g: GroupElement, alg: LieAlgebraSpec) -> np.ndarray:
    """Coordinate matrix (Ad_g)^b_a with Ad_g E_a = (Ad_g)^b_a E_b."""
    if alg.basis is None:
        raise ValueError("adjoint matrix needs a matrix basis")
    ginv = g.inv()
    cols = [alg.coords_of(g.matrix @ np.asarray(e) @ ginv) for e in alg.basis]
    return np.stack(cols, axis=1)


def coadjoint(g: GroupElement, z: np.ndarray, alg: LieAlgebraSpec) -> np.ndarray:
    """Coadjoint action on a covector: ``(coAd_g z)_a = z_b (Ad_{g^{-1}})^b_a``."""
    ginv = GroupElement(g.inv(), tag=g.tag)
    ad_inv = adjoint_matrix(ginv, alg)
    return np.asarray(z) @ ad_inv


# --------------------------------------------------------------------------
# JSON round-trip (sparse structure entries, exact float text)


_MAX_DIM = 24  # algebra dim: 2.4 x the largest fixture's 10; cohomology peaks near 140 MB at 24
_DOCUMENT = {  # the loader checks the indices against dim
    "dim": (at_most(integer(1), _MAX_DIM),),
    "structure": (rows(integer(0), integer(0), integer(0), number),),
    "basis": (array(None, None, None), None),
    "label": (string, ""),
}


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
    doc = read(_DOCUMENT, json.loads(text), "algebra")
    n = doc["dim"]
    c = np.zeros((n, n, n))
    for k, i, j, v in doc["structure"]:
        if max(k, i, j) >= n:
            raise ValueError(f"structure entry {[k, i, j, v]} has an index outside [0, {n})")
        c[k, i, j], c[k, j, i] = v, -v
    return LieAlgebraSpec(dim=n, structure=c, basis=doc["basis"], label=doc["label"])
