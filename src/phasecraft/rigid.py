"""Generalized Euler dynamics for invariant kinetic energies on a Lie group.

The momentum equation lives on the coalgebra.  With metric ``gamma_ab`` and
structure constants ``C^d_ab``:

* left-invariant  (co-moving momentum):  dS_a/dt = -gamma^bc S_c S_d C^d_ab + torque_a
* right-invariant (spatial momentum):    dS_a/dt = +gamma^bc S_c S_d C^d_ab + torque_a

Reconstruction of the configuration uses dg/dt = g Ohat (left) or
dg/dt = Om g (right).  Two integrators are shipped: a baseline RK4 in the
ambient matrix space followed by orthogonal re-projection, and an implicit
midpoint rule on the coalgebra with exponential reconstruction; the latter
conserves quadratic invariants of the momentum equation exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.linalg

from .algebra import (
    BilinearForm,
    GroupElement,
    LieAlgebraSpec,
    adjoint_matrix,
)
from .errors import NoConvergence, NoPotential, Overflow, SingularMetric
from .fixtures import fixture

__all__ = [
    "InvariantModel",
    "BodyState",
    "Trajectory",
    "so3_model",
    "legendre",
    "legendre_inv",
    "euler_rhs",
    "torque_from_potential",
    "step",
    "integrate",
    "relative_equilibria_residual",
    "stationary_spins_so3",
    "SpinCriticalSet",
    "conservation_report",
    "energy",
    "conserved_momentum",
]

_TORQUE_STEP = 1.0e-6
_MIDPOINT_TOL = 1.0e-12
_MIDPOINT_MAX_ITER = 50


@dataclass(frozen=True)
class InvariantModel:
    """Kinetic model ``T = (1/2) gamma^ab S_a S_b (+ potential)``."""

    algebra: LieAlgebraSpec
    metric: BilinearForm
    chirality: str = "left"
    potential: Callable[[GroupElement], float] | None = None
    principal_moments: tuple[float, float, float] | None = None

    def __post_init__(self):
        if self.chirality not in ("left", "right"):
            raise ValueError("chirality must be 'left' or 'right'")
        if self.metric.dim != self.algebra.dim:
            raise ValueError("metric dimension disagrees with the algebra")
        if not self.metric.is_positive_definite():
            raise SingularMetric("kinetic metric must be positive-definite")
        if self.principal_moments is not None:
            moments = tuple(float(i) for i in self.principal_moments)
            if len(moments) != 3 or any(i <= 0 for i in moments):
                raise ValueError("principal moments must be three positive reals")
            object.__setattr__(self, "principal_moments", moments)


def so3_model(
    principal_moments,
    chirality: str = "left",
    potential: Callable[[GroupElement], float] | None = None,
) -> InvariantModel:
    """Rigid body about a fixed point: gamma = diag(I1, I2, I3) on so(3)."""
    moments = tuple(float(i) for i in principal_moments)
    return InvariantModel(
        algebra=fixture("so3"),
        metric=BilinearForm(np.diag(moments)),
        chirality=chirality,
        potential=potential,
        principal_moments=moments,
    )


@dataclass(frozen=True)
class BodyState:
    """Configuration plus momentum; ``sigma`` is co-moving for left-invariant
    models and spatial for right-invariant ones."""

    g: GroupElement
    sigma: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        sigma = np.asarray(self.sigma, dtype=float)
        if not np.all(np.isfinite(sigma)):
            raise ValueError("momentum has non-finite entries")
        sigma = sigma.copy()
        sigma.setflags(write=False)
        object.__setattr__(self, "sigma", sigma)


@dataclass
class Trajectory:
    times: np.ndarray
    states: list[BodyState]
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        if len(t) > 1 and not np.all(np.diff(t) > 0):
            raise ValueError("sample times must be strictly increasing")
        self.times = t


# ---------------------------------------------------------------------------
# Legendre map and the momentum equation


def legendre(model: InvariantModel, omega) -> np.ndarray:
    """Velocity to momentum, S_a = gamma_ab O^b."""
    return model.metric.coeffs @ np.asarray(omega, dtype=float)


def legendre_inv(model: InvariantModel, sigma) -> np.ndarray:
    """Momentum to velocity, O^a = gamma^ab S_b."""
    return model.metric.require_inverse() @ np.asarray(sigma, dtype=float)


def _bracket_term(model: InvariantModel, sigma: np.ndarray) -> np.ndarray:
    omega = legendre_inv(model, sigma)
    term = np.einsum("b,d,dab->a", omega, sigma, model.algebra.structure)
    return -term if model.chirality == "left" else term


def euler_rhs(model: InvariantModel, state: BodyState) -> np.ndarray:
    """dS/dt at the given state, torque included when a potential is set."""
    rhs = _bracket_term(model, state.sigma)
    if model.potential is not None:
        spatial, comoving = torque_from_potential(model, state.g)
        rhs = rhs + (comoving if model.chirality == "left" else spatial)
    return rhs


def torque_from_potential(model: InvariantModel, g: GroupElement):
    """Generalized torques (spatial N_a, co-moving Nhat_a) from the potential.

    N_a = -d/de V(exp(e E_a) g) and Nhat_a = -d/de V(g exp(e E_a)), both by
    central differences with step 1e-6; they satisfy
    Nhat_a = N_b (Ad_g)^b_a.
    """
    if model.potential is None:
        raise NoPotential("model has no potential energy")
    alg = model.algebra
    if alg.basis is None:
        raise ValueError("torques need a matrix basis for the algebra")
    pot = model.potential
    n = alg.dim
    spatial = np.empty(n)
    comoving = np.empty(n)
    for a in range(n):
        step_mat = _TORQUE_STEP * alg.basis[a]
        exp_p = scipy.linalg.expm(step_mat)
        exp_m = scipy.linalg.expm(-step_mat)
        left_p = GroupElement(exp_p @ g.matrix, tag=g.tag, metric=g.metric)
        left_m = GroupElement(exp_m @ g.matrix, tag=g.tag, metric=g.metric)
        spatial[a] = -(pot(left_p) - pot(left_m)) / (2.0 * _TORQUE_STEP)
        right_p = GroupElement(g.matrix @ exp_p, tag=g.tag, metric=g.metric)
        right_m = GroupElement(g.matrix @ exp_m, tag=g.tag, metric=g.metric)
        comoving[a] = -(pot(right_p) - pot(right_m)) / (2.0 * _TORQUE_STEP)
    return spatial, comoving


# ---------------------------------------------------------------------------
# integrators


_FLOW_NORM_BOUND = 1.0e4


def _velocity_matrix(model: InvariantModel, sigma: np.ndarray) -> np.ndarray:
    return model.algebra.matrix_of(legendre_inv(model, sigma))


def _guarded_expm(x: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(x)) or np.linalg.norm(x, 1) > _FLOW_NORM_BOUND:
        raise Overflow("flow generator too large for a trustworthy exponential")
    return scipy.linalg.expm(x)


def _configuration_rate(model: InvariantModel, g_mat, sigma) -> np.ndarray:
    om = _velocity_matrix(model, sigma)
    return g_mat @ om if model.chirality == "left" else om @ g_mat


def _project_group(g_mat: np.ndarray, tag: str) -> np.ndarray:
    if tag == "general-linear":
        return g_mat
    u, _, vt = np.linalg.svd(g_mat)
    return u @ vt


def step(model: InvariantModel, state: BodyState, dt: float, method: str = "rk4") -> BodyState:
    """Advance one time step; ``method`` is ``rk4`` or ``lie_midpoint``."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    if method == "rk4":
        return _step_rk4(model, state, dt)
    if method == "lie_midpoint":
        return _step_midpoint(model, state, dt)
    raise ValueError(f"unknown method {method!r}")


def _step_rk4(model: InvariantModel, state: BodyState, dt: float) -> BodyState:
    g0, s0 = state.g.matrix, state.sigma

    def rate(g_mat, sigma):
        st = BodyState(
            GroupElement(g_mat, tag=state.g.tag, metric=state.g.metric), sigma
        )
        return _configuration_rate(model, g_mat, sigma), euler_rhs(model, st)

    k1g, k1s = rate(g0, s0)
    k2g, k2s = rate(g0 + 0.5 * dt * k1g, s0 + 0.5 * dt * k1s)
    k3g, k3s = rate(g0 + 0.5 * dt * k2g, s0 + 0.5 * dt * k2s)
    k4g, k4s = rate(g0 + dt * k3g, s0 + dt * k3s)
    g1 = g0 + (dt / 6.0) * (k1g + 2 * k2g + 2 * k3g + k4g)
    s1 = s0 + (dt / 6.0) * (k1s + 2 * k2s + 2 * k3s + k4s)
    g1 = _project_group(g1, state.g.tag)
    return BodyState(
        GroupElement(g1, tag=state.g.tag, metric=state.g.metric), s1, state.time + dt
    )


def _step_midpoint(model: InvariantModel, state: BodyState, dt: float) -> BodyState:
    g0, s0 = state.g, state.sigma
    tol = _MIDPOINT_TOL * (1.0 + float(np.max(np.abs(s0))))
    s_mid = s0.copy()
    for _ in range(_MIDPOINT_MAX_ITER):
        rhs = _bracket_term(model, s_mid)
        if model.potential is not None:
            om_mid = _velocity_matrix(model, s_mid)
            half = _guarded_expm(0.5 * dt * om_mid)
            g_mid_mat = g0.matrix @ half if model.chirality == "left" else half @ g0.matrix
            g_mid = GroupElement(g_mid_mat, tag=g0.tag, metric=g0.metric)
            spatial, comoving = torque_from_potential(model, g_mid)
            rhs = rhs + (comoving if model.chirality == "left" else spatial)
        s_next = s0 + 0.5 * dt * rhs
        if float(np.max(np.abs(s_next - s_mid))) < tol:
            s_mid = s_next
            break
        s_mid = s_next
    else:
        raise NoConvergence("implicit midpoint iteration did not converge")

    s1 = 2.0 * s_mid - s0
    om_mid = _velocity_matrix(model, s_mid)
    flow = _guarded_expm(dt * om_mid)
    g1_mat = g0.matrix @ flow if model.chirality == "left" else flow @ g0.matrix
    return BodyState(
        GroupElement(g1_mat, tag=g0.tag, metric=g0.metric), s1, state.time + dt
    )


def integrate(
    model: InvariantModel,
    state: BodyState,
    dt: float,
    n_steps: int,
    method: str = "lie_midpoint",
    sample_every: int = 1,
) -> Trajectory:
    """Run ``n_steps`` steps, sampling every ``sample_every``-th state."""
    if not (isinstance(sample_every, (int, np.integer)) and sample_every >= 1):
        raise ValueError(f"sample_every must be a positive integer, got {sample_every!r}")
    states = [state]
    current = state
    for k in range(n_steps):
        current = step(model, current, dt, method=method)
        if (k + 1) % sample_every == 0 or k == n_steps - 1:
            states.append(current)
    times = np.array([s.time for s in states])
    traj = Trajectory(times=times, states=states)
    traj.diagnostics = _diagnostics(model, states)
    return traj


# ---------------------------------------------------------------------------
# invariants, equilibria, reporting


def energy(model: InvariantModel, state: BodyState) -> float:
    """H = (1/2) gamma^ab S_a S_b (+ potential)."""
    ginv = model.metric.require_inverse()
    val = 0.5 * float(state.sigma @ ginv @ state.sigma)
    if model.potential is not None:
        val += float(model.potential(state.g))
    return val


def conserved_momentum(model: InvariantModel, state: BodyState) -> np.ndarray:
    """The momentum map fixed by the model's symmetry side.

    Left-invariant models conserve the spatial momentum
    S_a = Shat_b (Ad_{g^-1})^b_a; right-invariant ones conserve the
    co-moving momentum Shat_a = S_b (Ad_g)^b_a.  (Exact for geodetic flow.)
    """
    g = state.g
    if model.chirality == "left":
        ginv = GroupElement(g.inv(), tag=g.tag, metric=g.metric)
        return state.sigma @ adjoint_matrix(ginv, model.algebra)
    return state.sigma @ adjoint_matrix(g, model.algebra)


def equilibria_residual(algebra: LieAlgebraSpec, gamma, f_coords) -> np.ndarray:
    """Obstruction r_a = F^c gamma_cd C^d_ab F^b to exponential solutions.

    Zero exactly when g(t) = g0 exp(F t) solves the geodetic equations.
    ``gamma`` is any symmetric form, positive-definite or not.
    """
    f = np.asarray(f_coords, dtype=float)
    return np.einsum("c,cd,dab,b->a", f, np.asarray(gamma, dtype=float),
                     algebra.structure, f)


def relative_equilibria_residual(model: InvariantModel, f_coords) -> np.ndarray:
    return equilibria_residual(model.algebra, model.metric.coeffs, f_coords)


@dataclass(frozen=True)
class SpinCriticalSet:
    """Critical points of the kinetic energy restricted to a momentum sphere.

    ``points`` are isolated solutions; ``circles`` hold one-parameter
    families as (plane_axes, radius, fixed_axis); ``sphere`` marks the fully
    degenerate case where every point of the sphere is critical.
    """

    points: tuple
    circles: tuple = ()
    sphere: bool = False
    radius: float = 0.0


def stationary_spins_so3(moments, s: float) -> SpinCriticalSet:
    """All critical points of sum S_a^2 / 2 I_a on the sphere |S| = s."""
    i1, i2, i3 = (float(v) for v in moments)
    if min(i1, i2, i3) <= 0:
        raise ValueError("principal moments must be positive")
    if s < 0:
        raise ValueError("spin magnitude must be nonnegative")
    if s == 0.0:
        return SpinCriticalSet(points=(np.zeros(3),), radius=0.0)

    axes = [np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]), np.array([0.0, 0.0, 1.0])]
    if i1 == i2 == i3:
        return SpinCriticalSet(points=(), sphere=True, radius=s)

    pairs = [(0, 1, 2), (1, 2, 0), (2, 0, 1)]
    for a, b, c in pairs:
        vals = [i1, i2, i3]
        if vals[a] == vals[b] and vals[a] != vals[c]:
            points = (s * axes[c], -s * axes[c])
            circles = (((a, b), s, c),)
            return SpinCriticalSet(points=points, circles=circles, radius=s)

    points = tuple(sign * s * axes[a] for a in range(3) for sign in (1.0, -1.0))
    return SpinCriticalSet(points=points, radius=s)


def _diagnostics(model: InvariantModel, states) -> dict:
    out = {
        "energy": np.array([energy(model, s) for s in states]),
        "momentum_map": np.array([conserved_momentum(model, s) for s in states]),
    }
    if model.algebra.label == "so3":
        out["casimir"] = np.array([float(s.sigma @ s.sigma) for s in states])
    return out


def conservation_report(model: InvariantModel, traj: Trajectory) -> dict:
    """Max relative drift of energy, Casimirs and the conserved momentum map."""
    if len(traj.states) == 0:
        return {}
    diag = traj.diagnostics or _diagnostics(model, traj.states)
    report = {}
    for name, series in diag.items():
        ref = np.atleast_1d(series[0]).astype(float)
        scale = 1.0 + float(np.max(np.abs(ref)))
        drift = max(
            float(np.max(np.abs(np.atleast_1d(v) - ref))) / scale for v in series
        )
        report[f"{name}_drift"] = drift
    report["samples"] = len(traj.states)
    return report
