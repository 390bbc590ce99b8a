"""Phase-space statistical mechanics on axis-aligned boxes.

The dimensionless volume is (2 pi hbar)^-n dq dp.  Shell ensembles are
uniform on {|A - a| <= eps/2} and sampled by rejection from the box with a
counter-based generator, so every result is reproducible from (seed, batch)
alone.  Error bars come from 16 batch means; quoted tolerances are 3 sigma.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .algebra import _check_scalars, _frozen, rk4
from .errors import EmptyShell, NotNormalized, SingularMetric

__all__ = [
    "PhaseRegion",
    "ShellEnsemble",
    "liouville_volume",
    "shell_samples",
    "shell_probability",
    "invariance_check",
    "entropy_discrete",
    "entropy_continuous",
    "two_level_entropy",
    "phase_metric_volume",
]

_N_BATCHES = 16
# Philox keys (seed << 16) + stream stay distinct only for seeds below 2^48
_SEED_LIMIT = 2**48
# RK4 step of the flow in invariance_check, and its bins per phase-space axis
FLOW_STEP = 0.01
_INVARIANCE_BINS = 12
# the observable's gradient: a map of points (rows) to gradients, or the
# (2n, 2n) array A of a linear field, grad H(z) = z @ A
Gradient = Callable[[np.ndarray], np.ndarray] | np.ndarray


@dataclass(frozen=True)
class PhaseRegion:
    """Axis-aligned box in (q, p) with the action scale hbar."""

    bounds: np.ndarray  # shape (2n, 2): [low, high] per coordinate
    hbar: float = 1.0

    def __post_init__(self):
        b = _frozen(np.array(self.bounds, dtype=float), "bounds")
        if b.ndim != 2 or b.shape[1] != 2 or b.shape[0] % 2 != 0:
            raise ValueError("bounds must be a (2n, 2) array")
        if np.any(b[:, 1] <= b[:, 0]):
            raise ValueError("box must be nonempty")
        _check_scalars(self, positive=("hbar",))
        object.__setattr__(self, "bounds", b)

    @property
    def n_dof(self) -> int:
        return self.bounds.shape[0] // 2

    @property
    def box_volume(self) -> float:
        return float(np.prod(self.bounds[:, 1] - self.bounds[:, 0]))


def liouville_volume(region: PhaseRegion) -> float:
    """Box volume in units of (2 pi hbar)^n."""
    return region.box_volume / (2.0 * np.pi * region.hbar) ** region.n_dof


@dataclass(frozen=True)
class ShellEnsemble:
    """Uniform ensemble on {a - eps/2 <= A <= a + eps/2}."""

    observable: Callable[[np.ndarray], np.ndarray]
    center: float
    epsilon: float
    samples: int = 100_000
    seed: int = 0

    def __post_init__(self):
        # np.uint64(1.5) would put seed 1.5 on seed 1's streams
        _check_scalars(self, positive=("epsilon",), finite=("center",),
                       integral=("samples", "seed"))
        if self.samples < _N_BATCHES:
            raise ValueError(f"need at least {_N_BATCHES} samples")
        if not 0 <= self.seed < _SEED_LIMIT:
            raise ValueError(f"seed must lie in [0, 2^48), got {self.seed}")


def _stream(seed: int, stream: int) -> np.random.Generator:
    """Philox stream ``stream`` of ``seed``, keyed (seed << 16) + stream: streams
    0-15 draw the sample batches, 16 the split-half reference."""
    return np.random.Generator(np.random.Philox(key=(np.uint64(seed) << np.uint64(16)) + np.uint64(stream)))


def _batch_points(region: PhaseRegion, seed: int, batch: int, count: int) -> np.ndarray:
    """Uniform box points from the Philox stream of (seed, batch)."""
    gen = _stream(seed, batch)
    lo, hi = region.bounds[:, 0], region.bounds[:, 1]
    return lo + (hi - lo) * gen.random((count, region.bounds.shape[0]))


def shell_samples(shell: ShellEnsemble, region: PhaseRegion):
    """Accepted points per batch (rejection from the uniform box)."""
    per_batch = shell.samples // _N_BATCHES
    batches = []
    lo, hi = shell.center - shell.epsilon / 2.0, shell.center + shell.epsilon / 2.0
    for b in range(_N_BATCHES):
        pts = _batch_points(region, shell.seed, b, per_batch)
        vals = np.asarray(shell.observable(pts))
        keep = (vals >= lo) & (vals <= hi)
        batches.append(pts[keep])
    if sum(len(b) for b in batches) == 0:
        raise EmptyShell("no sample hit the shell; widen it or enlarge samples")
    return batches


def shell_probability(shell: ShellEnsemble, region: PhaseRegion,
                      f: Callable[[np.ndarray], np.ndarray], *, batches=None):
    """Monte Carlo (<f>, Z) over the shell with batch-means standard errors.

    Z estimates the dimensionless shell volume, int chi d mu; <f> is the
    shell average int f chi d mu / Z.  ``batches`` are the accepted points
    per batch that ``shell_samples(shell, region)`` returns; None draws them.
    Raises EmptyShell when no batch holds a point and ValueError when f is
    NaN or infinite at an accepted point.
    """
    if batches is None:
        batches = shell_samples(shell, region)
    per_batch = shell.samples // _N_BATCHES
    mu_total = liouville_volume(region)
    z_parts = np.array([len(b) / per_batch * mu_total for b in batches])
    values = [np.asarray(f(b)) for b in batches if len(b)]  # f once per accepted point
    if not values:
        raise EmptyShell("no sample hit the shell")
    every = np.concatenate(values)
    if not np.isfinite(every).all():
        raise ValueError("f returned a non-finite value on the shell")
    f_parts = np.array([np.mean(v) for v in values])
    mean_f = float(every.mean())
    z_val = float(z_parts.mean())
    stderr_f = float(np.std(f_parts, ddof=1) / np.sqrt(len(f_parts))) if len(f_parts) > 1 else float("inf")
    stderr_z = float(np.std(z_parts, ddof=1) / np.sqrt(len(z_parts)))
    return {"mean": mean_f, "Z": z_val, "stderr_mean": stderr_f, "stderr_Z": stderr_z}


def _flow_rk4(points: np.ndarray, grad: Gradient, tau: float) -> np.ndarray:
    """Hamiltonian flow of the observable, RK4 on all points in steps of at
    most FLOW_STEP.  ``grad`` maps points to their gradients, or is a finite
    (2n, 2n) array A of a linear field, grad H(z) = z @ A (ValueError naming
    ``grad`` otherwise).

    A callable runs all steps inside one ``rk4`` call on the point array: a
    call per step frees the four stage arrays at every return, and mapping
    their memory afresh made a flow of 20 000 points about twice as slow.
    For an array, one ``rk4`` step of the identity rows is the step matrix S
    (z -> z @ S), and the points take S^steps in one product; only the
    rounding order differs from stepping the points."""
    n_steps = max(1, int(np.ceil(abs(tau) / FLOW_STEP)))
    n_dof = points.shape[1] // 2
    if callable(grad):
        field = grad
    else:
        mat = _linear_field(grad, 2 * n_dof)
        field = lambda z: z @ mat

    def vf(y):
        g = field(y[0])
        return [np.concatenate([g[:, n_dof:], -g[:, :n_dof]], axis=1)]

    if callable(grad):
        return rk4(vf, [points], tau / n_steps, steps=n_steps)[0]
    step = rk4(vf, [np.eye(2 * n_dof)], tau / n_steps)[0]
    return points @ np.linalg.matrix_power(step, n_steps)


def _linear_field(a, dim: int) -> np.ndarray:
    """``a`` as a finite (dim, dim) float array; ValueError naming grad otherwise."""
    try:
        mat = np.asarray(a, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"grad must be a callable or a ({dim}, {dim}) array: {exc}") from exc
    if mat.shape != (dim, dim):
        raise ValueError(f"grad must be a callable or a ({dim}, {dim}) array, got shape {mat.shape}")
    if not np.isfinite(mat).all():
        raise ValueError("grad must be finite")
    return mat


def invariance_check(shell: ShellEnsemble, region: PhaseRegion, grad: Gradient,
                     tau: float, *, batches=None) -> dict:
    """Stationarity statistic of the shell under its own generator's flow.

    Pushes the shell samples through the Hamiltonian flow of the observable
    for time tau and reports the total-variation distance between densities
    before and after, binned on 12 cells per axis of the region
    (``_INVARIANCE_BINS``), together with a same-size split-half noise
    reference.  A stationary ensemble satisfies
    tv_flow <= tv_null_mean + 3 tv_null_std.  ``grad`` maps points (rows) to
    the observable's gradients, or is the (2n, 2n) array A of a quadratic
    observable, grad H(z) = z @ A, whose flow then costs one small matrix
    product per point (see ``_flow_rk4``).  ``batches`` are the accepted
    points per batch that ``shell_samples(shell, region)`` returns; None
    draws them.
    """
    if batches is None:
        batches = shell_samples(shell, region)
    before = np.concatenate(batches)
    after = _flow_rk4(before, grad, tau)

    edges = [np.linspace(region.bounds[i, 0], region.bounds[i, 1], _INVARIANCE_BINS + 1)
             for i in range(region.bounds.shape[0])]
    shape = (_INVARIANCE_BINS + 2,) * len(edges)  # a padding cell for the outliers at each end
    core = (slice(1, -1),) * len(edges)

    def cells(points):
        """Flat cell index of each point by np.histogramdd's rule: a point on
        the last edge falls in the last bin, an outlier in a padding cell."""
        index = []
        for i, e in enumerate(edges):
            k = np.searchsorted(e, points[:, i], side="right")
            k[points[:, i] == e[-1]] -= 1
            index.append(k)
        return np.ravel_multi_index(index, shape)

    def density(index):
        h = np.bincount(index, minlength=np.prod(shape)).reshape(shape).astype(float)[core]
        return h / max(1, len(index))

    def tv(ia, ib):
        return 0.5 * float(np.sum(np.abs(density(ia) - density(ib))))

    # each point set is binned once; every histogram counts a subset of its cells
    cells_before = cells(before)
    tv_flow = tv(cells_before, cells(after))

    # split-half references at the same per-side sample size
    gen = _stream(shell.seed, _N_BATCHES)
    null = []
    for _ in range(12):
        perm = gen.permutation(len(before))
        half = len(before) // 2
        null.append(tv(cells_before[perm[:half]], cells_before[perm[half:2 * half]]))
    null = np.array(null)
    return {
        "tv_flow": tv_flow,
        "tv_null_mean": float(null.mean()),
        "tv_null_std": float(null.std(ddof=1)),
        "stationary": bool(tv_flow <= null.mean() + 3.0 * null.std(ddof=1) + 1e-12),
    }


def entropy_discrete(p) -> float:
    """Shannon entropy -sum p ln p with the 0 ln 0 = 0 convention."""
    p = np.asarray(p, dtype=float)
    if np.any(p < 0):
        raise NotNormalized("probabilities must be nonnegative")
    if abs(float(p.sum()) - 1.0) > 1.0e-12:
        raise NotNormalized(f"probabilities sum to {p.sum()!r}, not 1")
    mask = p > 0
    return float(-(p[mask] * np.log(p[mask])).sum())


def entropy_continuous(weights, mu_cells) -> float:
    """-int rho ln rho d mu for cellwise-constant densities.

    ``weights`` are cell probabilities, ``mu_cells`` the cells'
    dimensionless volumes; rho_i = w_i / mu_i.
    """
    w = np.asarray(weights, dtype=float)
    mu = np.asarray(mu_cells, dtype=float)
    if w.shape != mu.shape:
        raise ValueError("weights and cell volumes must align")
    if np.any(mu <= 0):
        raise ValueError("cell volumes must be positive")
    if np.any(w < 0) or abs(float(w.sum()) - 1.0) > 1.0e-12:
        raise NotNormalized("weights must be a probability vector")
    mask = w > 0
    return float(-(w[mask] * np.log(w[mask] / mu[mask])).sum())


def two_level_entropy(n: int, q: float) -> float:
    """Entropy of the distribution with one state at probability q and the
    remaining n-1 sharing 1-q equally; equals ln n at q = 1/n."""
    if not 0.0 <= q <= 1.0 or n < 2:
        raise ValueError("need n >= 2 and q in [0, 1]")
    rest = (1.0 - q) / (n - 1)
    val = 0.0
    if q > 0:
        val -= q * np.log(q)
    if rest > 0:
        val -= (1.0 - q) * np.log(rest)
    return float(val)


def phase_metric_volume(g, gamma_conn, q, p, alpha: float, beta: float) -> float:
    """Determinant of the configuration-metric-induced block metric on
    momentum phase space, assembled at one point.

    Blocks (per coordinate pair dq, dp):

        [[alpha g + beta W g^-1 W, -beta W g^-1],
         [-beta g^-1 W,             beta g^-1  ]],   W_ra = p_k Gamma^k_ra.

    The determinant equals alpha^n beta^n for every SPD g, symmetric
    connection and momentum: the configuration metric cancels against its
    inverse, leaving the canonical volume up to the constant weights.
    """
    g = np.asarray(g, dtype=float)
    n = g.shape[0]
    try:
        np.linalg.cholesky(g)
    except np.linalg.LinAlgError as exc:
        raise SingularMetric("configuration metric must be SPD") from exc
    conn = np.asarray(gamma_conn, dtype=float)
    if conn.shape != (n, n, n):
        raise ValueError("connection coefficients must be (n, n, n)")
    if np.max(np.abs(conn - np.swapaxes(conn, 1, 2))) > 1.0e-12 * (1.0 + np.max(np.abs(conn))):
        raise ValueError("connection must be symmetric in its lower indices")
    p = np.asarray(p, dtype=float)
    ginv = np.linalg.inv(g)
    w = np.einsum("k,kra->ra", p, conn)
    qq = alpha * g + beta * w @ ginv @ w
    qp = -beta * w @ ginv
    pp = beta * ginv
    big = np.block([[qq, qp], [qp.T, pp]])
    return float(np.linalg.det(big))
