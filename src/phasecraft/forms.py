"""Coboundary calculus on a Lie algebra: Z^k, B^k, H^k and two-form radicals.

Forms are stored as fully antisymmetric coefficient tensors over the dual
basis {dX^i}.  The coboundary is the antiderivation fixed by
``delta(dX^k) = -1/2 C^k_ij dX^i ^ dX^j``; on a k-form with components
``w_{a_1..a_k}`` it reads

    (delta w)_{b_0..b_k} = sum_{i<j} (-1)^{i+j} C^c_{b_i b_j}
                           w_{c, b_0 .. ^b_i .. ^b_j .. b_k}.

The null space of a closed two-form, checked to be a subalgebra, is the
isotropy algebra whose quotient carries the symplectic structure.
"""

from __future__ import annotations

import functools
import itertools
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
    "form_to_vector",
    "form_from_vector",
]

_RANK_CUTOFF = 1.0e-10


@dataclass(frozen=True)
class KForm:
    """Antisymmetric rank-k coefficient tensor over the dual basis."""

    degree: int
    coeffs: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.coeffs, dtype=float)
        w = _frozen(np.array(float(w) if self.degree == 0 else w), "coeffs")
        if self.degree != 0 and w.shape != (w.shape[0],) * self.degree:
            raise ValueError("coefficient tensor shape disagrees with degree")
        if self.degree >= 1 and self.degree > w.shape[0]:
            raise ValueError("degree exceeds algebra dimension")
        for axes in itertools.combinations(range(self.degree), 2):
            swapped = np.swapaxes(w, *axes)
            if not np.array_equal(swapped, -w):
                raise ValueError("coefficients are not antisymmetric")
        object.__setattr__(self, "coeffs", w)

    @property
    def dim(self) -> int:
        return 1 if self.degree == 0 else self.coeffs.shape[0]

    def __add__(self, other: "KForm") -> "KForm":
        if self.degree != other.degree:
            raise ValueError("cannot add forms of different degree")
        return KForm(self.degree, self.coeffs + other.coeffs)

    def __rmul__(self, scalar: float) -> "KForm":
        return KForm(self.degree, scalar * self.coeffs)

    def __call__(self, *vectors) -> float:
        """Evaluate on k coordinate vectors."""
        if len(vectors) != self.degree:
            raise ValueError("wrong number of arguments")
        w = self.coeffs
        for v in reversed(vectors):
            w = w @ np.asarray(v)
        return float(w)


def basis_one_form(dim: int, index: int) -> KForm:
    """The dual basis covector dX^index."""
    w = np.zeros(dim)
    w[index] = 1.0
    return KForm(1, w)


def wedge(a: KForm, b: KForm) -> KForm:
    """Wedge product by shuffle-sign expansion of the antisymmetrizer."""
    p, q = a.degree, b.degree
    if p == 0:
        return float(a.coeffs) * b
    if q == 0:
        return float(b.coeffs) * a
    n = a.dim
    out = np.zeros((n,) * (p + q))
    raw = np.multiply.outer(a.coeffs, b.coeffs)
    for shuffle in itertools.combinations(range(p + q), p):
        rest = [i for i in range(p + q) if i not in shuffle]
        perm = list(shuffle) + rest
        sign = _perm_sign(perm)
        out += sign * np.transpose(raw, axes=np.argsort(perm))
    return KForm(p + q, out)


def _perm_sign(perm) -> int:
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j, length = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def coboundary(alg: LieAlgebraSpec, f: KForm) -> KForm:
    """Coboundary of a k-form; raises DimensionMismatch for a form of
    degree >= 1 on another dimension than ``alg``, DegreeOverflow at top degree."""
    n, k = alg.dim, f.degree
    if k >= 1 and f.dim != n:
        raise DimensionMismatch(f"a {k}-form on {f.dim} dimensions does not fit "
                                f"a {n}-dimensional algebra")
    if k >= n:
        raise DegreeOverflow(f"cannot raise degree {k} on a {n}-dimensional algebra")
    return form_from_vector(coboundary_matrix(alg, k) @ form_to_vector(f), n, k + 1)


@functools.lru_cache(maxsize=None)
def _mirror_table(n: int, k: int):
    """For each permutation of the k slots, identity first: its sign and the
    flat positions of the strictly increasing multi-indices of (n, k) in
    that slot order."""
    sets = list(itertools.combinations(range(n), k))
    strict = np.array(sets, dtype=np.intp).reshape(len(sets), k)
    strides = n ** np.arange(k - 1, -1, -1)
    return [
        (float(_perm_sign(list(perm))), strict[:, perm] @ strides)
        for perm in itertools.permutations(range(k))
    ]


def _antisymmetric(strict_values: np.ndarray, n: int, k: int) -> np.ndarray:
    """Tensor whose strictly increasing entries are ``strict_values``,
    mirrored with exact permutation signs so antisymmetry holds bit-for-bit."""
    out = np.zeros(n**k)
    for sign, flat in _mirror_table(n, k):
        out[flat] = sign * strict_values
    return out.reshape((n,) * k)


def form_to_vector(f: KForm) -> np.ndarray:
    """Components on the strictly increasing multi-index basis."""
    _, strict = _mirror_table(f.dim, f.degree)[0]
    return f.coeffs.reshape(-1)[strict]


def form_from_vector(v: np.ndarray, n: int, k: int) -> KForm:
    """Inverse of :func:`form_to_vector`."""
    return KForm(k, _antisymmetric(np.asarray(v, dtype=float), n, k))


def coboundary_matrix(alg: LieAlgebraSpec, k: int) -> np.ndarray:
    """Matrix of delta_k in the strictly increasing multi-index bases.

    By the Leibniz rule, slot m of the basis form dX^{a_0} ^ .. ^ dX^{a_{k-1}}
    contributes -(-1)^m C^{a_m}_ij dX^i ^ dX^j (i < j) in place of dX^{a_m},
    reordered with its permutation sign.  From degree n on it has no rows.
    """
    n = alg.dim
    rows = {idx: row for row, idx in enumerate(itertools.combinations(range(n), k + 1))}
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
                seq = rest[:m] + (i, j) + rest[m:]
                order = sorted(range(k + 1), key=seq.__getitem__)
                sign = (-1) ** m * _perm_sign(order)
                mat[rows[tuple(seq[p] for p in order)], col] -= sign * value
    return mat


def cocycle_space(alg: LieAlgebraSpec, k: int) -> list[KForm]:
    """Orthonormal basis of Z^k = Ker delta_k (SVD rank cutoff 1e-10)."""
    if k < 0:
        return []
    _, null = _spaces(coboundary_matrix(alg, k))
    return [form_from_vector(null[:, i], alg.dim, k) for i in range(null.shape[1])]


def coboundary_space(alg: LieAlgebraSpec, k: int) -> list[KForm]:
    """Orthonormal basis of B^k = Im delta_{k-1}."""
    if k < 1:
        return []
    img, _ = _spaces(coboundary_matrix(alg, k - 1))
    return [form_from_vector(img[:, i], alg.dim, k) for i in range(img.shape[1])]


def cohomology_dim(alg: LieAlgebraSpec, k: int) -> int:
    """dim H^k = dim Z^k - dim B^k with SVD rank decisions, read off the
    matrices of delta_k and delta_{k-1}: no form is built (a k-form holds
    n^k coefficients)."""
    if k < 0:
        return 0
    cocycles = _spaces(coboundary_matrix(alg, k))[1].shape[1]
    return cocycles - (_spaces(coboundary_matrix(alg, k - 1))[0].shape[1] if k else 0)


def radical(alg: LieAlgebraSpec, omega: KForm):
    """Null directions of a two-form, verified closed under the bracket.

    Returns ``(basis_vectors, codim)`` where the basis columns span
    ``{X : omega(X, .) = 0}`` and ``codim = rank(omega)`` (always even).
    Raises NotSubalgebra when bracket-closure fails, which signals a form
    outside Z^2.
    """
    if omega.degree != 2:
        raise ValueError("radical is defined for two-forms")
    _, null = _spaces(omega.coeffs)
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


def _spaces(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal columns spanning the image and the kernel of ``mat``, from
    one SVD with singular values above ``_RANK_CUTOFF`` counted as rank."""
    if mat.size == 0:
        return np.zeros((mat.shape[0], 0)), np.eye(mat.shape[1])
    u, s, vt = np.linalg.svd(mat)
    rank = int(np.sum(s > _RANK_CUTOFF))
    return u[:, :rank], vt[rank:].T
