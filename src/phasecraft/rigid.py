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

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .algebra import (BilinearForm, GroupElement, LieAlgebraSpec, _check_scalars, _from_checked,
                      _frozen, _rodrigues, adjoint_matrix, check_step, coadjoint, expm, rk4)
from .errors import NoConvergence, NoPotential, SingularMetric
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
    # Tables built once from the fields above, so that a step is a few matmuls.
    # _bracket[a, d, c] = -/+ C^d_ab gamma^bc: the bracket term is (A @ S) @ S.
    # _velocity[c] = gamma^ca E_a, flattened: the velocity matrix is S @ B.
    # _skew3: every E_a is a real antisymmetric 3x3 matrix (Rodrigues applies).
    # _torque_exps[a] = (exp(+h E_a), exp(-h E_a)) with h = _TORQUE_STEP.
    _bracket: np.ndarray | None = field(init=False, repr=False, compare=False, default=None)
    _velocity: np.ndarray | None = field(init=False, repr=False, compare=False, default=None)
    _skew3: bool = field(init=False, repr=False, compare=False, default=False)
    _torque_exps: tuple = field(init=False, repr=False, compare=False, default=())

    def __post_init__(self):
        if self.chirality not in ("left", "right"):
            raise ValueError("chirality must be 'left' or 'right'")
        if self.metric.dim != self.algebra.dim:
            raise ValueError("metric dimension disagrees with the algebra")
        if not self.metric.is_positive_definite():
            raise SingularMetric("kinetic metric must be positive-definite")

        ginv = self.metric.inverse  # None: legendre_inv raises SingularMetric on use
        basis = self.algebra.basis
        if ginv is not None:
            sign = -1.0 if self.chirality == "left" else 1.0
            bracket = sign * np.einsum("dab,bc->adc", self.algebra.structure, ginv)
            object.__setattr__(self, "_bracket", bracket)
        if basis is None:
            return
        stacked = np.stack(basis)
        if ginv is not None:
            velocity = np.tensordot(ginv, stacked, axes=(0, 0))
            object.__setattr__(self, "_velocity", velocity.reshape(len(basis), -1))
        object.__setattr__(self, "_skew3", stacked.shape[1:] == (3, 3)
                           and np.isrealobj(stacked)
                           and np.array_equal(stacked, -stacked.transpose(0, 2, 1)))
        if self.potential is not None:
            object.__setattr__(self, "_torque_exps", tuple(
                (expm(_TORQUE_STEP * e), expm(-(_TORQUE_STEP * e)))
                for e in basis
            ))


def so3_model(
    principal_moments,
    chirality: str = "left",
    potential: Callable[[GroupElement], float] | None = None,
) -> InvariantModel:
    """Rigid body about a fixed point: gamma = diag(I1, I2, I3) on so(3)."""
    moments = tuple(float(i) for i in principal_moments)
    if len(moments) != 3 or not all(0 < i < math.inf for i in moments):
        raise ValueError("principal moments must be three finite positive reals")
    return InvariantModel(
        algebra=fixture("so3"),
        metric=BilinearForm(np.diag(moments)),
        chirality=chirality,
        potential=potential,
    )


@dataclass(frozen=True)
class BodyState:
    """Configuration plus momentum; ``sigma`` is co-moving for left-invariant
    models and spatial for right-invariant ones."""

    g: GroupElement
    sigma: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        _check_scalars(self, finite=("time",))
        object.__setattr__(self, "sigma", _frozen(np.array(self.sigma, dtype=float), "sigma"))


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
    """-/+ gamma^bc S_c S_d C^d_ab, the torque-free part of dS_a/dt."""
    if model._bracket is None:
        model.metric.require_inverse()
    return (model._bracket @ sigma) @ sigma


def euler_rhs(model: InvariantModel, state: BodyState) -> np.ndarray:
    """dS/dt at the given state, torque included when a potential is set."""
    rhs = _bracket_term(model, state.sigma)
    if model.potential is not None:
        rhs = rhs + _torque(model, state.g)
    return rhs


def _torque(model: InvariantModel, g: GroupElement, comoving: bool | None = None) -> np.ndarray:
    """The torque N_a = -d/de V(exp(e E_a) g) (spatial) or
    Nhat_a = -d/de V(g exp(e E_a)) (co-moving), by central differences with
    step 1e-6; by default in the model's momentum frame (co-moving for left)."""
    if not model._torque_exps:
        raise ValueError("torques need a matrix basis for the algebra")
    if comoving is None:
        comoving = model.chirality == "left"
    pot = model.potential
    g_mat, tag = g.matrix, g.tag
    out = np.empty(model.algebra.dim)
    for a, (exp_p, exp_m) in enumerate(model._torque_exps):
        plus, minus = (g_mat @ exp_p, g_mat @ exp_m) if comoving else (exp_p @ g_mat, exp_m @ g_mat)
        out[a] = -(pot(_element(plus, tag)) - pot(_element(minus, tag))) / (2.0 * _TORQUE_STEP)
    return out


def torque_from_potential(model: InvariantModel, g: GroupElement):
    """Generalized torques (spatial N_a, co-moving Nhat_a) from the potential;
    they satisfy Nhat_a = N_b (Ad_g)^b_a."""
    if model.potential is None:
        raise NoPotential("model has no potential energy")
    return _torque(model, g, comoving=False), _torque(model, g, comoving=True)


# ---------------------------------------------------------------------------
# integrators


def _velocity_matrix(model: InvariantModel, sigma: np.ndarray) -> np.ndarray:
    """The matrix of O^a = gamma^ab S_b, that is O^a E_a."""
    if model._velocity is None:  # no basis or no inverse: this raises their error
        return model.algebra.matrix_of(legendre_inv(model, sigma))
    m = model.algebra.basis[0].shape[0]
    return (sigma @ model._velocity).reshape(m, m)


def _configuration_rate(model: InvariantModel, g_mat, sigma) -> np.ndarray:
    om = _velocity_matrix(model, sigma)
    return g_mat @ om if model.chirality == "left" else om @ g_mat


def _project_group(g_mat: np.ndarray, tag: str) -> np.ndarray:
    if tag == "general-linear":
        return g_mat
    u, _, vt = np.linalg.svd(g_mat)
    return u @ vt


# A step builds its elements and its new state from parts that are already
# checked (fresh arrays of the input's shape and tag), so it skips the
# constructors' copies and shape and tag checks.  It keeps their finiteness
# checks where a product can overflow ("group element" and "momentum" have
# non-finite entries), and leaves each array read-only as the constructors'
# copies are.


def _element(g_mat: np.ndarray, tag: str, may_overflow: bool = False) -> GroupElement:
    """``g_mat``, computed from a checked element of group ``tag``, as a
    GroupElement; after the finiteness check if it ``may_overflow``."""
    if may_overflow:
        _frozen(g_mat, "group element")
    g_mat.setflags(write=False)
    return _from_checked(GroupElement, g_mat, tag)


def step(model: InvariantModel, state: BodyState, dt: float, method: str = "rk4") -> BodyState:
    """Advance one time step; ``method`` is ``rk4`` or ``lie_midpoint``;
    ValueError for a ``dt`` that is not finite and positive or a state that
    does not fit the model's algebra (see ``_check_state``)."""
    check_step(dt)
    _check_state(model, state)
    return _stepper(method)(model, state, dt)


def _check_state(model: InvariantModel, state: BodyState) -> None:
    """ValueError, naming the field, unless ``sigma`` has the algebra's
    components and ``g`` the shape of its basis matrices."""
    dim, basis = model.algebra.dim, model.algebra.basis
    if state.sigma.shape != (dim,):
        raise ValueError(f"sigma must have the algebra's {dim} components, "
                         f"got shape {state.sigma.shape}")
    if basis is not None and state.g.matrix.shape != basis[0].shape:
        raise ValueError(f"g must have the shape {basis[0].shape} of the algebra's basis, "
                         f"got {state.g.matrix.shape}")


def _stepper(method: str):
    if method == "rk4":
        return _step_rk4
    if method == "lie_midpoint":
        return _step_midpoint
    raise ValueError(f"unknown method {method!r}")


def _step_rk4(model: InvariantModel, state: BodyState, dt: float) -> BodyState:
    tag = state.g.tag

    def rate(y):
        g_mat, sigma = y
        rhs = _bracket_term(model, sigma)
        if model.potential is not None:  # a stage of an overflowing step may not be finite
            rhs = rhs + _torque(model, _element(g_mat, tag, may_overflow=True))
        return _configuration_rate(model, g_mat, sigma), rhs

    g1, s1 = rk4(rate, [state.g.matrix, state.sigma], dt)
    g1 = _element(_project_group(_frozen(g1, "group element"), tag), tag)
    return _from_checked(BodyState, g1, _frozen(s1, "momentum"), state.time + dt)


def _step_midpoint(model: InvariantModel, state: BodyState, dt: float) -> BodyState:
    g0, s0 = state.g, state.sigma
    tol = _MIDPOINT_TOL * (1.0 + float(np.abs(s0).max()))
    half_dt = 0.5 * dt
    exp = _rodrigues if model._skew3 else expm
    s_mid = s0
    # An iterate that overflows (a diverging iteration, or a potential that
    # does) turns to inf and NaN, never passes the tolerance test and ends in
    # NoConvergence, so the overflow warnings would add nothing.
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(_MIDPOINT_MAX_ITER):
            rhs = _bracket_term(model, s_mid)
            if model.potential is not None:
                half = exp(half_dt * _velocity_matrix(model, s_mid))
                g_mid = g0.matrix @ half if model.chirality == "left" else half @ g0.matrix
                rhs = rhs + _torque(model, _element(g_mid, g0.tag, may_overflow=True))
            s_next = s0 + half_dt * rhs
            converged = all(abs(a - b) < tol for a, b in zip(s_next.tolist(), s_mid.tolist()))
            s_mid = s_next
            if converged:
                break
        else:
            raise NoConvergence("implicit midpoint iteration did not converge")

    s1 = 2.0 * s_mid - s0
    flow = exp(dt * _velocity_matrix(model, s_mid))
    g1_mat = g0.matrix @ flow if model.chirality == "left" else flow @ g0.matrix
    return _from_checked(BodyState, _element(g1_mat, g0.tag, may_overflow=True),
                         _frozen(s1, "momentum"), state.time + dt)


def integrate(
    model: InvariantModel,
    state: BodyState,
    dt: float,
    n_steps: int,
    method: str = "lie_midpoint",
    sample_every: int = 1,
) -> Trajectory:
    """Run ``n_steps`` steps, sampling every ``sample_every``-th state;
    ValueError for a ``dt`` that is not finite and positive, a
    ``sample_every`` below 1, an ``n_steps`` that is not a non-negative
    integer, an unknown ``method``, or a state whose ``sigma`` or ``g`` does
    not fit the model's algebra: all checked here, before any step."""
    check_step(dt, sample_every, n_steps)
    _stepper(method)
    _check_state(model, state)
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
    if model.chirality == "left":
        return coadjoint(state.g, state.sigma, model.algebra)
    return state.sigma @ adjoint_matrix(state.g, model.algebra)


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
    if not all(0 < i < math.inf for i in (i1, i2, i3)):
        raise ValueError("principal moments must be finite and positive")
    if not 0 <= s < math.inf:
        raise ValueError("spin magnitude must be finite and nonnegative")
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
    # C^c_ab = -C^a_cb (totally antisymmetric): then S.S Poisson-commutes with every S_b
    c = model.algebra.structure
    if np.array_equal(c, -c.transpose(1, 0, 2)):
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
