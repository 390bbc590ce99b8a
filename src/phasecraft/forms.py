"""Coboundary calculus on a Lie algebra: Z^k, B^k, H^k and two-form radicals.

A k-form on an n-dimensional algebra is the vector of its C(n, k)
components ``w_{a_1..a_k}`` on the basis forms dX^{a_1} ^ .. ^ dX^{a_k},
a_1 < .. < a_k, in ``itertools.combinations`` order.  The coboundary is the
antiderivation fixed by ``delta(dX^k) = -1/2 C^k_ij dX^i ^ dX^j``; on the
increasing b_0 < .. < b_k it reads

    (delta w)_{b_0..b_k} = sum_{i<j} (-1)^{i+j} C^c_{b_i b_j}
                           w_{c, b_0 .. ^b_i .. ^b_j .. b_k},

where w_{c, rest} is the component of the sorted indices times the sign of
that sort, and 0 when c repeats an index.

The null space of a closed two-form, checked to be a subalgebra, is the
isotropy algebra whose quotient carries the symplectic structure.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .algebra import LieAlgebraSpec, _frozen
from .errors import DegreeOverflow, DimensionMismatch, NotSubalgebra

__all__ = [
    "KForm",
    "basis_one_form",
    "wedge",
    "coboundary",
    "coboundary_matrix",
    "cocycle_space",
    "coboundary_space",
    "cohomology_dim",
    "radical",
]

_RANK_CUTOFF = 1.0e-10


@dataclass(frozen=True)
class KForm:
    """A k-form on ``dim`` dimensions: its C(dim, degree) components on the
    basis forms dX^{a_1} ^ .. ^ dX^{a_k}, a_1 < .. < a_k, in
    ``itertools.combinations`` order."""

    dim: int
    degree: int
    coeffs: np.ndarray

    def __post_init__(self):
        if not 0 <= self.degree <= self.dim:
            raise ValueError(f"degree must lie in [0, dim = {self.dim}], got {self.degree}")
        w = _frozen(np.array(self.coeffs, dtype=float), "coeffs")
        size = math.comb(self.dim, self.degree)
        if w.shape != (size,):
            raise ValueError(f"a {self.degree}-form on {self.dim} dimensions has {size} "
                             f"components, got an array of shape {w.shape}")
        object.__setattr__(self, "coeffs", w)

    def __add__(self, other: "KForm") -> "KForm":
        _check_fits(self.dim, other)
        if self.degree != other.degree:
            raise ValueError("cannot add forms of different degree")
        return KForm(self.dim, self.degree, self.coeffs + other.coeffs)

    def __rmul__(self, scalar: float) -> "KForm":
        return KForm(self.dim, self.degree, scalar * self.coeffs)

    def __call__(self, *vectors) -> float:
        """Evaluate on k coordinate vectors v_1 .. v_k: sum_I w_I det(v[:, I])
        with v_s the rows of v."""
        if len(vectors) != self.degree:
            raise ValueError("wrong number of arguments")
        if any(np.shape(v) != (self.dim,) for v in vectors):
            raise ValueError(f"each vector needs dim = {self.dim} components")
        v = np.array(vectors, dtype=float).reshape(self.degree, self.dim)
        sets = np.array(list(itertools.combinations(range(self.dim), self.degree)),
                        dtype=np.intp).reshape(self.coeffs.size, self.degree)
        return float(self.coeffs @ np.linalg.det(np.moveaxis(v[:, sets], 1, 0)))


def _check_fits(n: int, f: KForm) -> None:
    if f.dim != n:
        raise DimensionMismatch(f"a {f.degree}-form on {f.dim} dimensions does not fit "
                                f"a {n}-dimensional algebra")


def basis_one_form(dim: int, index: int) -> KForm:
    """The dual basis covector dX^index."""
    if not 0 <= index < dim:
        raise ValueError(f"index must lie in [0, dim = {dim}), got {index}")
    return KForm(dim, 1, np.eye(dim)[index])


def _positions(n: int, k: int) -> dict:
    """Increasing multi-index of (n, k) -> its component's position."""
    return {idx: pos for pos, idx in enumerate(itertools.combinations(range(n), k))}


def _sorted_sign(seq: tuple) -> tuple[tuple, int]:
    """``seq`` sorted, and the sign of the permutation that sorts it: 0 when an
    index repeats."""
    if len(set(seq)) < len(seq):
        return (), 0
    inversions = sum(x > y for x, y in itertools.combinations(seq, 2))
    return tuple(sorted(seq)), -1 if inversions % 2 else 1


def wedge(a: KForm, b: KForm) -> KForm:
    """Wedge product as the shuffle sum over index sets: a_I b_J goes to the
    sorted union of disjoint I and J, times the sign of that sort."""
    _check_fits(a.dim, b)
    n, p, q = a.dim, a.degree, b.degree
    rows = _positions(n, p + q)
    out = np.zeros(len(rows))
    for (I, a_I), (J, b_J) in itertools.product(zip(itertools.combinations(range(n), p), a.coeffs),
                                                zip(itertools.combinations(range(n), q), b.coeffs)):
        idx, sign = _sorted_sign(I + J)
        if sign:
            out[rows[idx]] += sign * a_I * b_J
    return KForm(n, p + q, out)


def coboundary(alg: LieAlgebraSpec, f: KForm) -> KForm:
    """Coboundary of a k-form; raises DimensionMismatch for a form on another
    dimension than ``alg``, DegreeOverflow at top degree."""
    n, k = alg.dim, f.degree
    _check_fits(n, f)
    if k >= n:
        raise DegreeOverflow(f"cannot raise degree {k} on a {n}-dimensional algebra")
    return KForm(n, k + 1, coboundary_matrix(alg, k) @ f.coeffs)


def coboundary_matrix(alg: LieAlgebraSpec, k: int) -> np.ndarray:
    """Matrix of delta_k in the strictly increasing multi-index bases.

    By the Leibniz rule, slot m of the basis form dX^{a_0} ^ .. ^ dX^{a_{k-1}}
    contributes -(-1)^m C^{a_m}_ij dX^i ^ dX^j (i < j) in place of dX^{a_m},
    reordered with its permutation sign.  From degree n on it has no rows.
    """
    n = alg.dim
    rows = _positions(n, k + 1)
    cols = list(itertools.combinations(range(n), k))
    terms = [[(i, j, c_ij[i, j]) for i, j in np.argwhere(np.triu(c_ij, 1)).tolist()]
             for c_ij in alg.structure]
    mat = np.zeros((len(rows), len(cols)))
    for col, idx in enumerate(cols):
        for m, c in enumerate(idx):
            rest = idx[:m] + idx[m + 1:]
            for i, j, value in terms[c]:
                if i in rest or j in rest:
                    continue
                row, sign = _sorted_sign(rest[:m] + (i, j) + rest[m:])
                mat[rows[row], col] -= (-1) ** m * sign * value
    return mat


def cocycle_space(alg: LieAlgebraSpec, k: int) -> list[KForm]:
    """Orthonormal basis of Z^k = Ker delta_k (SVD rank cutoff 1e-10)."""
    if k < 0:
        return []
    return [KForm(alg.dim, k, col) for col in _spaces(coboundary_matrix(alg, k))[1].T]


def coboundary_space(alg: LieAlgebraSpec, k: int) -> list[KForm]:
    """Orthonormal basis of B^k = Im delta_{k-1}."""
    if k < 1:
        return []
    return [KForm(alg.dim, k, col) for col in _spaces(coboundary_matrix(alg, k - 1))[0].T]


def cohomology_dim(alg: LieAlgebraSpec, k: int) -> int:
    """dim H^k = dim Z^k - dim B^k with SVD rank decisions, read off the
    matrices of delta_k and delta_{k-1}: no form is built."""
    if k < 0:
        return 0
    cocycles = _spaces(coboundary_matrix(alg, k))[1].shape[1]
    return cocycles - (_spaces(coboundary_matrix(alg, k - 1))[0].shape[1] if k else 0)


def radical(alg: LieAlgebraSpec, omega: KForm):
    """Null directions of a two-form, verified closed under the bracket.

    Returns ``(basis_vectors, codim)`` where the basis columns span
    ``{X : omega(X, .) = 0}`` and ``codim = rank(omega)`` (always even).
    Raises NotSubalgebra when bracket-closure fails, which signals a form
    outside Z^2, and DimensionMismatch for a form on another dimension.
    """
    if omega.degree != 2:
        raise ValueError("radical is defined for two-forms")
    _check_fits(alg.dim, omega)
    _, null = _spaces(_two_form_matrix(omega))
    codim = alg.dim - null.shape[1]

    # closure: [u, v] must fall back into the span for all basis pairs
    span = null
    for i in range(span.shape[1]):
        for j in range(i + 1, span.shape[1]):
            br = alg.bracket_coords(span[:, i], span[:, j])
            resid = br - span @ (span.T @ br)
            if np.linalg.norm(resid) > 1.0e-10 * (1.0 + np.linalg.norm(br)):
                raise NotSubalgebra(
                    "null space is not a subalgebra; the form is not closed"
                )
    return [span[:, i] for i in range(span.shape[1])], codim


def _two_form_matrix(omega: KForm) -> np.ndarray:
    """The antisymmetric n x n matrix omega(e_i, e_j) of a two-form."""
    mat = np.zeros((omega.dim, omega.dim))
    mat[np.triu_indices(omega.dim, 1)] = omega.coeffs
    return mat - mat.T


def _two_form_from_pairs(dim: int, pairs) -> KForm:
    """The two-form with omega(e_i, e_j) = value per ``(i, j, value)``; a
    later pair on the same two indices wins.  The inverse of _two_form_matrix."""
    positions = _positions(dim, 2)
    w = np.zeros(len(positions))
    for i, j, value in pairs:
        if i == j or not (0 <= i < dim and 0 <= j < dim):
            raise ValueError(f"omega pair {[i, j, value]} needs two distinct indices in [0, {dim})")
        w[positions[min(i, j), max(i, j)]] = value if i < j else -value
    return KForm(dim, 2, w)


def _spaces(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal columns spanning the image and the kernel of ``mat``, from
    one SVD with singular values above ``_RANK_CUTOFF`` counted as rank."""
    if mat.size == 0:
        return np.zeros((mat.shape[0], 0)), np.eye(mat.shape[1])
    u, s, vt = np.linalg.svd(mat)
    rank = int(np.sum(s > _RANK_CUTOFF))
    return u[:, :rank], vt[rank:].T
