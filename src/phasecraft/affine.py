"""Deformable (affinely rigid) body mechanics and its lattice reduction.

A configuration is a pair (x, phi) with invertible phi mapping material to
spatial axes.  The two-polar factorization phi = L D R^T with L, R special
orthogonal and D = diag(exp q) splits the motion into two rotors and the
log deformation invariants q.  On the momentum side, with the co-moving
momentum Shat and sigma := R^T Shat R,

    p_a      = sigma_aa
    rho_ab   = sigma_ba exp(q_b - q_a) - sigma_ab exp(q_a - q_b)
    tau_ab   = sigma_ab - sigma_ba
    M = -rho - tau,  N = rho - tau,

which turns the doubly invariant kinetic energy Tr(Shat^2)/2a into a
one-dimensional lattice of the deformation invariants with 1/sinh^2
repulsion (strength M^2) and 1/cosh^2 attraction (strength N^2); the
isotropic d'Alembert model likewise becomes an inverse-square lattice in
Q = exp(q).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .algebra import _from_checked, _frozen, check_step, expm, rk4
from .errors import (ModelMismatch, OrientationReversed, Overflow, Singular,
                     SingularConfiguration)

__all__ = [
    "AffineState",
    "InertiaModel",
    "TwoPolarState",
    "two_polar",
    "assemble_two_polar",
    "to_two_polar",
    "hamiltonian_standard",
    "standard_internal_energy",
    "hamiltonian_affine",
    "lattice_hamiltonian",
    "lattice_rhs",
    "lattice_dynamics",
    "geodesic_exponential",
    "spin_vorticity",
    "mn_from_rho_tau",
    "rho_tau_from_mn",
    "extended_kinetic_energy",
    "quadratic_internal_energy",
]

_DEGENERACY_TOL = 1.0e-10
_DENOM_FLOOR = 1.0e-14


# ---------------------------------------------------------------------------
# states and models


@dataclass(frozen=True)
class AffineState:
    """Internal configuration phi, its co-moving momentum ``sigma_hat``
    (material indices) and an optional center-of-mass momentum ``p``, which
    ``hamiltonian_standard`` reads; the spatial view of the internal
    momentum is ``phi sigma_hat phi^{-1}``."""

    phi: np.ndarray
    sigma_hat: np.ndarray
    p: np.ndarray | None = None

    def __post_init__(self):
        phi = _frozen(np.array(self.phi, dtype=float), "phi")
        n = phi.shape[0]
        if phi.shape != (n, n):
            raise ValueError("phi must be square")
        if abs(np.linalg.det(phi)) < 1.0e-12:
            raise Singular("phi is numerically singular")
        sh = _frozen(np.array(self.sigma_hat, dtype=float), "sigma_hat")
        if sh.shape != (n, n):
            raise ValueError("sigma_hat must match phi in shape")
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "sigma_hat", sh)
        if self.p is not None:
            object.__setattr__(self, "p", _frozen(np.array(self.p, dtype=float), "p"))

    @property
    def n(self) -> int:
        return self.phi.shape[0]

    def spatial_momentum(self) -> np.ndarray:
        return self.phi @ self.sigma_hat @ np.linalg.inv(self.phi)


@dataclass(frozen=True)
class InertiaModel:
    """Inertia data for one of the three kinetic models.

    * ``standard``: mass m and SPD material inertia J (d'Alembert model).
    * ``affine_left`` / ``affine_right``: trace-form coefficients, stored as
      the inverse weights (inv_a, inv_b, inv_c) of
      Tr(S^2)/2a + (Tr S)^2/2b - Tr(V^2)/4c; inv_b and inv_c may vanish.
      They derive from the velocity-side constants via a = I + A,
      b = -(I+A)(I+A+nB)/B, c = (I^2-A^2)/I.
    """

    kind: str
    m: float = 1.0
    J: np.ndarray | None = None
    inv_a: float = 0.0
    inv_b: float = 0.0
    inv_c: float = 0.0

    def __post_init__(self):
        if self.kind not in ("standard", "affine_left", "affine_right"):
            raise ValueError(f"unknown inertia kind {self.kind!r}")
        if self.kind == "standard":
            if not (math.isfinite(self.m) and self.m > 0):
                raise ValueError(f"mass m must be finite and positive, got {self.m!r}")
            j = _frozen(np.array(self.J, dtype=float), "J")
            try:
                np.linalg.cholesky(j)
                # cholesky reads the lower triangle only; the symmetry test is BilinearForm's
                if j.ndim != 2 or np.max(np.abs(j - j.T)) > 1.0e-12 * (1.0 + np.max(np.abs(j))):
                    raise np.linalg.LinAlgError
            except np.linalg.LinAlgError as exc:
                raise ValueError("J must be symmetric positive-definite") from exc
            object.__setattr__(self, "J", j)
        else:
            for name in ("inv_a", "inv_b", "inv_c"):
                if not math.isfinite(getattr(self, name)):
                    raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
            if self.inv_a == 0.0:
                raise ValueError("affine models need a nonzero 1/a")

    @staticmethod
    def standard(m: float, J) -> "InertiaModel":
        return InertiaModel(kind="standard", m=m, J=J)

    @staticmethod
    def affine(
        kind: str,
        a: float | None = None,
        inv_b: float = 0.0,
        inv_c: float = 0.0,
        velocity_constants: tuple[float, float, float] | None = None,
        dim: int | None = None,
    ) -> "InertiaModel":
        """Build from the momentum-side a (plus optional 1/b, 1/c) or from
        the velocity-side triple (I, A, B) with the stated conversion."""
        if a is not None and not math.isfinite(a):
            raise ValueError(f"a must be finite, got {a!r}")
        if velocity_constants is not None:
            big_i, big_a, big_b = velocity_constants
            if dim is None:
                raise ValueError("dim is required with velocity_constants")
            a_eff = big_i + big_a
            if a_eff == 0.0:
                raise ValueError("I + A must be nonzero")
            inv_b_eff = (
                0.0
                if big_b == 0.0
                else -big_b / ((big_i + big_a) * (big_i + big_a + dim * big_b))
            )
            inv_c_eff = 0.0 if big_i == 0.0 else big_i / (big_i**2 - big_a**2)
            if a is not None and abs(a - a_eff) > 1.0e-10 * (1.0 + abs(a)):
                raise ValueError("explicit a disagrees with I + A")
            return InertiaModel(
                kind=kind, inv_a=1.0 / a_eff, inv_b=inv_b_eff, inv_c=inv_c_eff
            )
        if a is None or a == 0.0:
            raise ValueError("a must be nonzero")
        return InertiaModel(kind=kind, inv_a=1.0 / a, inv_b=inv_b, inv_c=inv_c)


@dataclass(frozen=True)
class TwoPolarState:
    """Two rotors L, R, log deformation invariants q (descending) and the
    conjugate momenta: p dual to q, antisymmetric M (repulsive) and N
    (attractive) couplings.  ValueError, naming the field, unless q is a
    vector of n entries, L, R, M and N are n x n and p has n entries, every
    array is finite, L and R are special orthogonal, q descends and M and N
    are antisymmetric.  The state holds read-only float copies of the arrays
    it is given."""

    L: np.ndarray
    R: np.ndarray
    q: np.ndarray
    p: np.ndarray | None = None
    M: np.ndarray | None = None
    N: np.ndarray | None = None
    degenerate: bool = False

    def __post_init__(self):
        q = np.asarray(self.q, dtype=float)
        if q.ndim != 1:
            raise ValueError(f"q must be a vector, got shape {q.shape}")
        n = len(q)
        for name, shape in (("L", (n, n)), ("R", (n, n)), ("q", (n,)), ("p", (n,)),
                            ("M", (n, n)), ("N", (n, n))):
            val = getattr(self, name)
            if val is None and name in ("p", "M", "N"):
                continue
            val = _frozen(np.array(val, dtype=float), name)
            if val.shape != shape:
                raise ValueError(f"{name} must have shape {shape} for {n} invariants, "
                                 f"got {val.shape}")
            object.__setattr__(self, name, val)
        for name in ("L", "R"):
            mat = getattr(self, name)
            if np.max(np.abs(mat.T @ mat - np.eye(n))) > 1.0e-10:
                raise ValueError(f"{name} is not orthogonal")
            if np.linalg.det(mat) < 0:
                raise ValueError(f"{name} must have determinant +1")
        if np.any(np.diff(self.q) > 0):
            raise ValueError("q must be sorted in descending order")
        for name in ("M", "N"):
            val = getattr(self, name)
            if val is not None and np.max(np.abs(val + val.T)) > 1.0e-12 * (
                1.0 + np.max(np.abs(val))
            ):
                raise ValueError(f"{name} must be antisymmetric")

    @property
    def n(self) -> int:
        return len(self.q)


# ---------------------------------------------------------------------------
# kinematics: the two-polar factorization


def two_polar(phi) -> TwoPolarState:
    """Canonical two-polar factorization phi = L diag(exp q) R^T.

    Deformation invariants are sorted descending; det L = det R = +1 and the
    leading entries of the first n-1 columns of L are nonnegative (the last
    column's sign is then fixed by the determinant).  States with invariants
    closer than 1e-10 are returned with the ``degenerate`` flag set.
    """
    phi = np.asarray(phi, dtype=float)
    det = np.linalg.det(phi)
    if abs(det) < 1.0e-12:
        raise Singular("phi is numerically singular")
    if det < 0:
        raise OrientationReversed("two_polar expects det phi > 0")

    u, s, vt = np.linalg.svd(phi)
    v = vt.T
    n = phi.shape[0]
    for col in range(n - 1):
        lead = u[:, col][np.nonzero(np.abs(u[:, col]) > 1.0e-12)[0]]
        if lead.size and lead[0] < 0:
            u[:, col] *= -1.0
            v[:, col] *= -1.0
    if np.linalg.det(u) < 0:  # det u = det v here since det phi > 0
        u[:, -1] *= -1.0
        v[:, -1] *= -1.0

    q = np.log(s)
    degenerate = bool(np.any(np.diff(q) > -_DEGENERACY_TOL)) if n > 1 else False
    return TwoPolarState(L=u, R=v, q=q, degenerate=degenerate)


def assemble_two_polar(L, q, R) -> np.ndarray:
    """Inverse of the kinematic factorization: phi = L diag(exp q) R^T."""
    return np.asarray(L) @ np.diag(np.exp(np.asarray(q, dtype=float))) @ np.asarray(R).T


def to_two_polar(state: AffineState) -> TwoPolarState:
    """Full point transformation (phi, sigma_hat) -> (L, q, R; p, M, N)."""
    kin = two_polar(state.phi)
    sigma = kin.R.T @ state.sigma_hat @ kin.R
    # rho_ab = sigma_ba e^(q_b - q_a) - sigma_ab e^(q_a - q_b), tau_ab = sigma_ab - sigma_ba
    weighted = sigma * np.exp(np.subtract.outer(kin.q, kin.q))
    m_mat, n_mat = mn_from_rho_tau(weighted.T - weighted, sigma - sigma.T)
    return replace(kin, p=np.diag(sigma).copy(), M=m_mat, N=n_mat)


def mn_from_rho_tau(rho_hat, tau_hat) -> tuple[np.ndarray, np.ndarray]:
    """(rho, tau) -> (M, N) = (-rho - tau, rho - tau)."""
    rho = np.asarray(rho_hat, dtype=float)
    tau = np.asarray(tau_hat, dtype=float)
    return -rho - tau, rho - tau


def rho_tau_from_mn(m_mat, n_mat) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of :func:`mn_from_rho_tau`."""
    m = np.asarray(m_mat, dtype=float)
    n = np.asarray(n_mat, dtype=float)
    return 0.5 * (n - m), -0.5 * (m + n)


def spin_vorticity(state: AffineState, g=None, eta=None) -> tuple[np.ndarray, np.ndarray]:
    """Metric-skew parts of the momenta: spin S (spatial) and vorticity V
    (material): S = Sigma - g-transpose(Sigma), V = Shat - eta-transpose(Shat)."""
    n = state.n
    g = np.eye(n) if g is None else np.asarray(g, dtype=float)
    eta = np.eye(n) if eta is None else np.asarray(eta, dtype=float)
    sigma = state.spatial_momentum()
    ginv = np.linalg.inv(g)
    etainv = np.linalg.inv(eta)
    spin = sigma - ginv @ sigma.T @ g
    vort = state.sigma_hat - etainv @ state.sigma_hat.T @ eta
    return spin, vort


# ---------------------------------------------------------------------------
# energies


def standard_internal_energy(inertia: InertiaModel, state: AffineState, g=None) -> float:
    """Internal part of the d'Alembert kinetic energy,
    (1/2) J^-1_AB P^A_i P^B_j g^ij with P = sigma_hat phi^-1."""
    if inertia.kind != "standard":
        raise ModelMismatch("standard energy called on a non-standard model")
    n = state.n
    ginv = np.eye(n) if g is None else np.linalg.inv(np.asarray(g, dtype=float))
    p_mat = state.sigma_hat @ np.linalg.inv(state.phi)
    jinv = np.linalg.inv(inertia.J)
    return 0.5 * float(np.einsum("AB,Ai,Bj,ij->", jinv, p_mat, p_mat, ginv))


def hamiltonian_standard(inertia: InertiaModel, state: AffineState, g=None) -> float:
    """Full d'Alembert Hamiltonian: translational (1/2m) g^ij p_i p_j plus
    the internal term; nonnegative for SPD data."""
    total = standard_internal_energy(inertia, state, g=g)
    if state.p is not None:
        n = state.n
        ginv = np.eye(n) if g is None else np.linalg.inv(np.asarray(g, dtype=float))
        total += 0.5 / inertia.m * float(state.p @ ginv @ state.p)
    return total


def hamiltonian_affine(inertia: InertiaModel, sigma, eta=None) -> float:
    """Affinely invariant internal energy
    Tr(S^2)/2a + (Tr S)^2/2b - Tr(V^2)/4c.

    For ``affine_left`` pass the co-moving momentum; for ``affine_right``
    the spatial one.  The metric (eta or g) only enters the 1/c term.
    """
    if inertia.kind not in ("affine_left", "affine_right"):
        raise ModelMismatch("affine energy called on a non-affine model")
    s = np.asarray(sigma, dtype=float)
    n = s.shape[0]
    metric = np.eye(n) if eta is None else np.asarray(eta, dtype=float)
    val = 0.5 * inertia.inv_a * float(np.trace(s @ s))
    val += 0.5 * inertia.inv_b * float(np.trace(s)) ** 2
    if inertia.inv_c != 0.0:
        skew = s - np.linalg.inv(metric) @ s.T @ metric
        val -= 0.25 * inertia.inv_c * float(np.trace(skew @ skew))
    return val


def lattice_hamiltonian(
    variant: str,
    params: dict,
    lat: TwoPolarState,
    dilatation_k: float = 0.0,
    dilatation_center: float = 0.0,
) -> float:
    """Lattice form of the invariant kinetic energies on (q, p, M, N).

    * ``hyperbolic``: p^2/2a + M^2/(32a sinh^2 dq/2) - N^2/(32a cosh^2 dq/2)
    * ``trigonometric``: same with sin/cos and both couplings repulsive-signed
    * ``calogero``: P^2/2I + M^2/(8I (Qa-Qb)^2) + N^2/(8I (Qa+Qb)^2),
      with Q = exp(q) and P_a = exp(-q_a) p_a.

    ``dilatation_k`` adds the optional harmonic well k/2 (mean(q) - c)^2 that
    stabilizes the free dilatational mode.  Double sums run over all (a, b),
    a != b, matching the printed normalization.
    """
    n = lat.n
    q = lat.q.tolist()
    p = lat.p.tolist() if lat.p is not None else [0.0] * n
    zeros = [0.0] * (n * (n - 1) // 2)
    m_up = _upper(lat.M) if lat.M is not None else zeros
    n_up = _upper(lat.N) if lat.N is not None else zeros
    well, _, dt_dp, terms = _lattice_model(variant, params, dilatation_k, dilatation_center)(q, p)
    # T is quadratic in p, so T = p . dT/dp / 2
    energy = 0.5 * float(np.dot(p, dt_dp)) + well
    pairs = 0.0
    for (c_m, c_n, *_), m, nv in zip(terms, m_up, n_up):
        pairs += c_m * (m * m) + c_n * (nv * nv)
    return energy + pairs


def _lattice_model(variant, params, dil_k, dil_c):
    """Bind a lattice variant, its constant (``a``, or ``I`` for calogero) and
    the dilatation well once; ValueError for an unknown variant, a missing,
    zero or non-finite constant or a non-finite well setting.  The returned
    ``kernel(q, p)``, on lists of floats, gives (well energy, dH/dq, dH/dp,
    terms): the one-body gradients include the well, and ``terms`` holds per
    pair a < b in row-major order (c_M, c_N, dc_M/dq_a, dc_M/dq_b, dc_N/dq_a,
    dc_N/dq_b) of the pair part sum_{a<b} c_M M_ab^2 + c_N N_ab^2 of H, both
    orderings of the printed double sum counted.  Pair terms come first, so a
    colliding or NaN q raises SingularConfiguration."""
    if variant not in ("hyperbolic", "trigonometric", "calogero"):
        raise ValueError(f"unknown lattice variant {variant!r}")
    hyper, calogero = variant == "hyperbolic", variant == "calogero"
    key = "I" if calogero else "a"
    strength = float(params[key]) if key in params else math.nan
    if not (math.isfinite(strength) and strength != 0.0):
        raise ValueError(f"the {variant} lattice needs a finite nonzero {key!r}, "
                         f"got {params.get(key)!r}")
    for name, value in (("dilatation_k", dil_k), ("dilatation_center", dil_c)):
        if not math.isfinite(value):
            raise ValueError(f"the dilatation well needs a finite {name}, got {value!r}")
    if calogero:
        scale, sign = 0.25 / strength, 1.0
    else:
        scale, sign = 1.0 / (16.0 * strength), -1.0 if hyper else 1.0
        rep_f, att_f = (math.sinh, math.cosh) if hyper else (math.sin, math.cos)

    def kernel(q, p):
        n = len(q)
        terms = []
        try:
            qs = [math.exp(x) for x in q] if calogero else q
            for a in range(n):
                for b in range(a + 1, n):
                    # repulsive and attractive denominators, c_M = scale / rep^2 and
                    # c_N = sign * scale / att^2, and their q_a and q_b derivatives
                    if calogero:
                        rep, att = qs[a] - qs[b], qs[a] + qs[b]
                        rep_a, rep_b = qs[a], -qs[b]
                        att_a, att_b = qs[a], qs[b]
                    else:
                        half = 0.5 * (qs[a] - qs[b])
                        rep, att = rep_f(half), att_f(half)
                        rep_a, att_a = 0.5 * att, -0.5 * sign * rep
                        rep_b, att_b = -rep_a, -att_a
                    if not (abs(rep) >= _DENOM_FLOOR and abs(att) >= _DENOM_FLOOR):
                        raise SingularConfiguration("lattice denominator underflow")
                    cm, cn = scale / rep**2, sign * scale / att**2
                    terms.append((cm, cn, -2.0 * cm * rep_a / rep, -2.0 * cm * rep_b / rep,
                                  -2.0 * cn * att_a / att, -2.0 * cn * att_b / att))
        except (OverflowError, ValueError) as exc:  # sinh/exp overflow; sin/cos of inf
            raise Overflow("deformation invariants too far apart for the lattice terms") from exc
        if calogero:
            # T = sum_a exp(-2 q_a) p_a^2 / 2I
            try:
                dt_dp = [math.exp(-2.0 * x) / strength * y for x, y in zip(q, p)]
            except OverflowError as exc:
                raise Overflow("kinetic weight exp(-2 q) leaves the float64 range") from exc
            dt_dq = [-d * y for d, y in zip(dt_dp, p)]
        else:
            dt_dp = [y / strength for y in p]
            dt_dq = [0.0] * n
        if dil_k == 0.0:
            return 0.0, dt_dq, dt_dp, terms
        shift = sum(q) / n - dil_c
        pull = dil_k * shift / n
        return 0.5 * dil_k * shift**2, [d + pull for d in dt_dq], dt_dp, terms

    return kernel


# ---------------------------------------------------------------------------
# lattice dynamics


@functools.lru_cache(maxsize=None)
def _skew_tables(n):
    """The pairs a < b in row-major order, their (rows, cols) index arrays,
    and per pair the legs of

        [A, B]_ab = sum_{k not in {a, b}} (A_ak B_kb - B_ak A_kb)

    on skew storage (A_ab kept for a < b only): one (sign, i, j) per k, with
    A_ak B_kb - B_ak A_kb = sign (A[i] B[j] - B[i] A[j]).  The diagonal of a
    skew matrix is zero, so k = a and k = b drop out; at n = 2 no leg is left.
    """
    pairs = tuple((a, b) for a in range(n) for b in range(a + 1, n))
    index = {pair: i for i, pair in enumerate(pairs)}

    def entry(a, b):  # (sign, storage index) of X_ab
        return (1.0, index[a, b]) if a < b else (-1.0, index[b, a])

    legs = []
    for a, b in pairs:
        row = []
        for k in range(n):
            if k not in (a, b):
                (s_ak, i), (s_kb, j) = entry(a, k), entry(k, b)
                row.append((s_ak * s_kb, i, j))
        legs.append(tuple(row))
    upper = np.triu_indices(n, 1)  # the same pairs, as index arrays
    for axis in upper:
        axis.flags.writeable = False  # cached: shared by every caller
    return pairs, upper, tuple(legs)


def _upper(mat) -> list:
    """Entries X_ab, a < b, of a square array as a list of floats."""
    return mat[_skew_tables(len(mat))[1]].tolist()


def _unflatten(n, y) -> tuple:
    """(q, p, M, N) as arrays, M and N antisymmetric, from a flat state or its derivative."""
    n_start = (len(y) + 2 * n) // 2
    m_mat, n_mat, upper = *np.zeros((2, n, n)), _skew_tables(n)[1]
    m_mat[upper], n_mat[upper] = y[2 * n : n_start], y[n_start:]
    return np.array(y[:n]), np.array(y[n : 2 * n]), m_mat - m_mat.T, n_mat - n_mat.T


def _flat_state(lat: TwoPolarState) -> list:
    """(q, p, M_ab, N_ab for a < b) as one list of floats."""
    if lat.p is None or lat.M is None or lat.N is None:
        raise ValueError("the lattice flow needs p, M and N")
    return [*lat.q.tolist(), *lat.p.tolist(), *_upper(lat.M), *_upper(lat.N)]


def _lattice_flow(variant, params, n, dil_k, dil_c):
    """The lattice vector field on flat states (see ``_flat_state``).

    (q, p) are canonical.  dH/dM = 2 c_M M and dH/dN = 2 c_N N are skew;
    the rotor brackets drho/dt = [rho, dH/drho] and dtau/dt = [tau, dH/dtau]
    of rho = (N - M)/2 and tau = -(M + N)/2 become, in (M, N),
        dM/dt = [dH/dM, M] + [dH/dN, N],  dN/dt = [dH/dN, M] + [dH/dM, N].
    """
    kernel = _lattice_model(variant, params, dil_k, dil_c)
    pairs, _, legs = _skew_tables(n)
    n_start = 2 * n + len(pairs)

    def flow(y):
        q, p, m, nn = y[:n], y[n : 2 * n], y[2 * n : n_start], y[n_start:]
        try:
            _, dh_dq, dh_dp, terms = kernel(q, p)
        except SingularConfiguration:
            if all(map(math.isfinite, q)):
                raise
            # an RK4 stage built from an overflowing derivative, not a collision
            raise Overflow("the lattice state left the float64 range") from None
        dp, g_m, g_n = [-d for d in dh_dq], [], []
        for (a, b), (c_m, c_n, dm_a, dm_b, dn_a, dn_b), mv, nv in zip(pairs, terms, m, nn):
            m2, n2 = mv * mv, nv * nv
            dp[a] -= dm_a * m2 + dn_a * n2
            dp[b] -= dm_b * m2 + dn_b * n2
            g_m.append(2.0 * c_m * mv)
            g_n.append(2.0 * c_n * nv)
        d_m, d_n = [], []
        for row in legs:
            sum_m = sum_n = 0.0
            for s, i, j in row:
                sum_m += s * (g_m[i] * m[j] - m[i] * g_m[j] + g_n[i] * nn[j] - nn[i] * g_n[j])
                sum_n += s * (g_n[i] * m[j] - m[i] * g_n[j] + g_m[i] * nn[j] - nn[i] * g_m[j])
            d_m.append(sum_m)
            d_n.append(sum_n)
        return dh_dp + dp + d_m + d_n

    return flow


def lattice_rhs(variant: str, params: dict, lat: TwoPolarState,
                dilatation_k: float = 0.0, dilatation_center: float = 0.0):
    """Time derivatives (dq, dp, dM, dN) of the lattice chart.

    (q, p) are canonical; rho and tau obey rotor coalgebra brackets, so with
    skew gradients G_rho = dH/drho, G_tau = dH/dtau the momenta evolve by
    commutators drho/dt = [rho, G_rho], dtau/dt = [tau, G_tau] (orientation
    fixed against the exponential-solution flow of the doubly invariant
    model), pushed through the linear change to (M, N).  dM and dN are
    returned as full antisymmetric matrices.
    """
    flow = _lattice_flow(variant, params, lat.n, dilatation_k, dilatation_center)
    return _unflatten(lat.n, flow(_flat_state(lat)))


def lattice_dynamics(
    variant: str,
    params: dict,
    lat: TwoPolarState,
    dt: float,
    steps: int,
    sample_every: int = 1,
    dilatation_k: float = 0.0,
    dilatation_center: float = 0.0,
) -> list[TwoPolarState]:
    """RK4 flow of the lattice Hamiltonian in the (q, p, M, N) chart.

    The rotor configurations L, R are carried along unchanged (the chart
    closes on the momenta alone).  Raises SingularConfiguration when two
    invariants collide or cross, Overflow when the state leaves the float64
    range, and ValueError for a ``dt`` that is not finite and positive, a
    ``sample_every`` below 1, a ``steps`` that is not a non-negative
    integer, a state without p, M or N, an unknown variant, a missing, zero
    or non-finite constant or a non-finite well setting.  Each sample after
    the first shares L, R and ``degenerate`` with ``lat`` and is built without
    the constructor's checks: the loop checks finiteness and ordering at
    every step, and ``_unflatten`` makes M and N exactly antisymmetric.
    """
    check_step(dt, sample_every, steps)
    y = _flat_state(lat)
    n = lat.n
    flow = _lattice_flow(variant, params, n, dilatation_k, dilatation_center)
    out = [lat]
    for k in range(steps):
        y = rk4(flow, y, dt)
        if not all(map(math.isfinite, y)):
            raise Overflow("the lattice state left the float64 range")
        if any(y[a + 1] > y[a] for a in range(n - 1)):
            raise SingularConfiguration("deformation invariants crossed")
        if (k + 1) % sample_every == 0 or k == steps - 1:
            fresh = _unflatten(n, y)
            for arr in fresh:
                arr.setflags(write=False)
            out.append(_from_checked(TwoPolarState, lat.L, lat.R, *fresh, lat.degenerate))
    return out


# ---------------------------------------------------------------------------
# exponential solutions and auxiliary energies


def geodesic_exponential(phi0, generator, t: float, comoving: bool = True) -> np.ndarray:
    """phi(t) = phi0 exp(Ehat t) (co-moving generator) or exp(E t) phi0.

    Both forms describe the same curve when E = phi0 Ehat phi0^{-1}; a t E
    that ``group_exp`` refuses raises Overflow here too.
    """
    phi0 = np.asarray(phi0, dtype=float)
    if abs(np.linalg.det(phi0)) < 1.0e-12:
        raise Singular("phi0 is numerically singular")
    gen = np.asarray(generator, dtype=float)
    if comoving:
        return phi0 @ expm(t * gen)
    return expm(t * gen) @ phi0


def quadratic_internal_energy(inertia4, omega_hat) -> float:
    """T_int = (1/2) L^B_A^D_C Ohat^A_B Ohat^C_D for a raw rank-4 inertia."""
    lten = np.asarray(inertia4, dtype=float)
    om = np.asarray(omega_hat, dtype=float)
    return 0.5 * float(np.einsum("BADC,AB,CD->", lten, om, om))


def extended_kinetic_energy(phi, vhat, omega_hat, constants, eta=None, g=None) -> float:
    """Most general orthogonally invariant kinetic energy plus the two-sided
    trace terms, evaluated on co-moving velocities.

    ``constants`` maps m1, m2, I1..I4, A, B; missing keys default to zero.
    """
    phi = np.asarray(phi, dtype=float)
    n = phi.shape[0]
    eta = np.eye(n) if eta is None else np.asarray(eta, dtype=float)
    g = np.eye(n) if g is None else np.asarray(g, dtype=float)
    green = phi.T @ g @ phi
    green_inv = np.linalg.inv(green)
    eta_inv = np.linalg.inv(eta)
    v = np.asarray(vhat, dtype=float)
    om = np.asarray(omega_hat, dtype=float)
    c = {k: float(constants.get(k, 0.0)) for k in
         ("m1", "m2", "I1", "I2", "I3", "I4", "A", "B")}

    val = 0.5 * float(v @ (c["m1"] * green + c["m2"] * eta) @ v)
    val += 0.5 * c["I1"] * float(np.einsum("KL,MN,KM,LN->", green, green_inv, om, om))
    val += 0.5 * c["I2"] * float(np.einsum("KL,MN,KM,LN->", eta, eta_inv, om, om))
    val += 0.5 * c["I3"] * float(np.einsum("KL,MN,KM,LN->", green, eta_inv, om, om))
    val += 0.5 * c["I4"] * float(np.einsum("KL,MN,KM,LN->", eta, green_inv, om, om))
    val += 0.5 * c["A"] * float(np.trace(om @ om))
    val += 0.5 * c["B"] * float(np.trace(om)) ** 2
    return val
