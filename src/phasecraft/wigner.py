"""Grid quantum kit: quasi-probability transform, star product, propagators.

Conventions (one degree of freedom):

* Unitary Fourier pair psihat(p) = (2 pi hbar)^{-1/2} int psi(q)
  exp(-i p q / hbar) dq on the centered dual lattice dp = 2 pi hbar/(N dq).
* Phase-space image of a pure state:
  W(q, p) = (2 pi hbar)^{-1} int conj(psi)(q - s/2) psi(q + s/2)
  exp(-i p s / hbar) ds, so that int W dp = |psi(q)|^2 and
  int W dq = |psihat(p)|^2 (total mass one).
* The star product acts on raw symbols: 1 * A = A and the pure-state
  projector identity reads (2 pi hbar) (W * W) = W.

All transforms assume power-of-two grids, treat signals as periodic and
refuse to run when more than 1e-8 of the mass sits in the outer 10% of the
spatial or spectral window (GridTooCoarse).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    GridMismatch,
    GridTooCoarse,
    NoCriticalPoint,
    TurningPoint,
    ZeroTime,
)

__all__ = [
    "GridWavefunction",
    "PhaseGrid",
    "ho_ground",
    "ho_excited",
    "gaussian_packet",
    "cat_state",
    "wigner_transform",
    "marginals",
    "star_product",
    "van_vleck",
    "wkb_wavefunction",
    "free_propagator",
    "propagate_free",
    "stat_values",
    "compose_characteristic",
]

_TAIL_FRACTION = 0.10
_TAIL_BOUND = 1.0e-8


@dataclass(frozen=True)
class GridWavefunction:
    """Complex amplitudes on a uniform q-grid (power-of-two length)."""

    psi: np.ndarray
    dx: float
    q0: float
    hbar: float = 1.0
    mass: float = 1.0

    def __post_init__(self):
        psi = np.asarray(self.psi, dtype=complex)
        n = len(psi)
        if n < 4 or n & (n - 1):
            raise ValueError("grid length must be a power of two (>= 4)")
        if self.dx <= 0 or self.hbar <= 0 or self.mass <= 0:
            raise ValueError("dx, hbar and mass must be positive")
        psi = psi.copy()
        psi.setflags(write=False)
        object.__setattr__(self, "psi", psi)

    @property
    def n_points(self) -> int:
        return len(self.psi)

    @property
    def q_grid(self) -> np.ndarray:
        return self.q0 + self.dx * np.arange(self.n_points)

    @property
    def dp(self) -> float:
        return 2.0 * np.pi * self.hbar / (self.n_points * self.dx)

    @property
    def p_grid(self) -> np.ndarray:
        n = self.n_points
        return self.dp * (np.arange(n) - n // 2)

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.psi) ** 2) * self.dx))

    def normalized(self) -> "GridWavefunction":
        return GridWavefunction(
            self.psi / self.norm(), self.dx, self.q0, self.hbar, self.mass
        )

    def fourier(self) -> np.ndarray:
        """Unitary transform sampled on ``p_grid``."""
        n = self.n_points
        signs = (-1.0) ** np.arange(n)
        raw = np.fft.fft(self.psi * signs) * self.dx
        phase = np.exp(-1j * self.p_grid * self.q0 / self.hbar)
        return raw * phase / np.sqrt(2.0 * np.pi * self.hbar)

    def tail_fractions(self) -> tuple[float, float]:
        """(spatial, spectral) mass fraction in the outer 10% windows."""
        dens = np.abs(self.psi) ** 2
        total = float(dens.sum())
        edge = max(1, int(_TAIL_FRACTION * len(dens) / 2))
        spatial = float(dens[:edge].sum() + dens[-edge:].sum()) / total
        spec = np.abs(self.fourier()) ** 2
        spectral = float(spec[:edge].sum() + spec[-edge:].sum()) / float(spec.sum())
        return spatial, spectral


def _require_resolved(psi: GridWavefunction, who: str) -> None:
    spatial, spectral = psi.tail_fractions()
    if spatial > _TAIL_BOUND or spectral > _TAIL_BOUND:
        raise GridTooCoarse(
            f"{who}: tail mass (spatial {spatial:.2e}, spectral {spectral:.2e}) "
            f"exceeds {_TAIL_BOUND:g}; enlarge or refine the grid"
        )


@dataclass(frozen=True)
class PhaseGrid:
    """Real-valued field W[i, m] on the product (q, p) lattice."""

    values: np.ndarray
    dq: float
    dp: float
    q0: float
    p0: float
    hbar: float = 1.0

    def __post_init__(self):
        vals = np.asarray(self.values)
        if np.iscomplexobj(vals):
            imag = float(np.max(np.abs(vals.imag)))
            scale = max(1.0, float(np.max(np.abs(vals.real))))
            if imag > 1.0e-10 * scale:
                raise ValueError(f"field has imaginary residue {imag:.3e}")
            vals = vals.real
        vals = vals.astype(float).copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def q_grid(self) -> np.ndarray:
        return self.q0 + self.dq * np.arange(self.values.shape[0])

    @property
    def p_grid(self) -> np.ndarray:
        return self.p0 + self.dp * np.arange(self.values.shape[1])

    def integral(self) -> float:
        return float(self.values.sum() * self.dq * self.dp)

    def same_grid(self, other: "PhaseGrid") -> bool:
        return (
            self.values.shape == other.values.shape
            and abs(self.dq - other.dq) < 1e-14
            and abs(self.dp - other.dp) < 1e-14
            and abs(self.q0 - other.q0) < 1e-12
            and abs(self.p0 - other.p0) < 1e-12
            and abs(self.hbar - other.hbar) < 1e-14
        )


# ---------------------------------------------------------------------------
# reference states


def _grid(n: int, qmin: float, qmax: float) -> tuple[np.ndarray, float]:
    dx = (qmax - qmin) / n
    return qmin + dx * np.arange(n), dx


def ho_ground(n: int, qmin: float, qmax: float, hbar: float = 1.0,
              mass: float = 1.0, omega: float = 1.0) -> GridWavefunction:
    q, dx = _grid(n, qmin, qmax)
    a = mass * omega / hbar
    psi = (a / np.pi) ** 0.25 * np.exp(-0.5 * a * q**2)
    return GridWavefunction(psi, dx, qmin, hbar, mass)


def ho_excited(k: int, n: int, qmin: float, qmax: float, hbar: float = 1.0,
               mass: float = 1.0, omega: float = 1.0) -> GridWavefunction:
    """k-th oscillator eigenstate via the Hermite recurrence."""
    q, dx = _grid(n, qmin, qmax)
    x = q * np.sqrt(mass * omega / hbar)
    h_prev = np.ones_like(x)
    h_curr = 2.0 * x
    if k == 0:
        herm = h_prev
    elif k == 1:
        herm = h_curr
    else:
        for j in range(1, k):
            h_prev, h_curr = h_curr, 2.0 * x * h_curr - 2.0 * j * h_prev
        herm = h_curr
    norm = (mass * omega / (np.pi * hbar)) ** 0.25 / np.sqrt(
        2.0**k * math.factorial(k)
    )
    psi = norm * herm * np.exp(-0.5 * x**2)
    return GridWavefunction(psi, dx, qmin, hbar, mass)


def gaussian_packet(sigma: float, n: int, qmin: float, qmax: float,
                    q_center: float = 0.0, p_center: float = 0.0,
                    hbar: float = 1.0, mass: float = 1.0) -> GridWavefunction:
    """Normalized packet whose position density has standard deviation sigma."""
    q, dx = _grid(n, qmin, qmax)
    rel = q - q_center
    psi = (2.0 * np.pi * sigma**2) ** (-0.25) * np.exp(
        -(rel**2) / (4.0 * sigma**2) + 1j * p_center * rel / hbar
    )
    return GridWavefunction(psi, dx, qmin, hbar, mass)


def cat_state(separation: float, n: int, qmin: float, qmax: float,
              sigma: float = 1.0, hbar: float = 1.0) -> GridWavefunction:
    left = gaussian_packet(sigma, n, qmin, qmax, q_center=-separation / 2, hbar=hbar)
    right = gaussian_packet(sigma, n, qmin, qmax, q_center=+separation / 2, hbar=hbar)
    psi = left.psi + right.psi
    norm = np.sqrt(np.sum(np.abs(psi) ** 2) * left.dx)
    return GridWavefunction(psi / norm, left.dx, qmin, hbar)


# ---------------------------------------------------------------------------
# phase-space transform


def _upsample2(psi: np.ndarray, axis: int = -1) -> np.ndarray:
    """Trigonometric x2 interpolation (split-Nyquist zero padding) along
    one axis."""
    psi = np.moveaxis(psi, axis, -1)
    n = psi.shape[-1]
    spec = np.fft.fft(psi)
    up = np.zeros(psi.shape[:-1] + (2 * n,), dtype=complex)
    up[..., : n // 2] = spec[..., : n // 2]
    up[..., -(n // 2) + 1 :] = spec[..., n // 2 + 1 :]
    up[..., n // 2] = 0.5 * spec[..., n // 2]
    up[..., -(n // 2)] = 0.5 * spec[..., n // 2]
    return np.moveaxis(2.0 * np.fft.ifft(up), -1, axis)


def wigner_transform(psi: GridWavefunction) -> PhaseGrid:
    """Phase-space image of a normalized state.

    Output: N x N real field, q on the input lattice, p on the centered
    dual lattice dp = 2 pi hbar / (N dq), normalized so the marginals are
    the position and momentum probability densities.
    """
    if abs(psi.norm() - 1.0) > 1.0e-8:
        raise ValueError("wigner_transform expects a normalized state")
    _require_resolved(psi, "wigner_transform")
    n = psi.n_points
    hbar = psi.hbar

    # Embed in a doubled box before the periodic correlation: the classic
    # cross term between a state and its periodic image then falls outside
    # the reported window.
    padded = np.zeros(2 * n, dtype=complex)
    padded[n // 2 : n // 2 + n] = psi.psi
    up = _upsample2(padded)  # 4n samples, spacing dx/2
    four_n = 4 * n

    # correlation c[i, r] = conj(psi)(q_i - s/2) psi(q_i + s/2) at s = r dx;
    # the half-shifts live on the upsampled (dx/2) lattice.
    idx = np.arange(four_n)
    corr = np.empty((n, four_n), dtype=complex)
    for i in range(n):
        u = 2 * (i + n // 2)
        plus = up[(u + idx) % four_n]
        minus = up[(u - idx) % four_n]
        corr[i] = np.conj(minus) * plus
    corr[:, 2 * n] = 0.0  # unpaired endpoint of the symmetric s-range

    # W[i, k] = dx / (2 pi hbar) sum_r corr[i, r] e^{-i p_k r dx / hbar} with
    # p_k = (k - 2n) dp / 4; the r-sum is an FFT of length 4n and the
    # state's own dual lattice (spacing dp) sits at k = 4c.
    signs = (-1.0) ** idx  # centers the p-lattice
    table = np.fft.fft(corr * signs, axis=1)
    w_full = table * psi.dx / (2.0 * np.pi * hbar)
    w = w_full[:, ::4]
    imag = float(np.max(np.abs(w.imag)))
    if imag > 1.0e-10 * max(1.0, float(np.max(np.abs(w.real)))):
        raise GridTooCoarse(f"hermiticity residue {imag:.3e}; grid under-resolves")
    dp = psi.dp
    return PhaseGrid(
        values=w.real, dq=psi.dx, dp=dp, q0=psi.q0, p0=-dp * (n // 2), hbar=hbar
    )


def marginals(w: PhaseGrid) -> tuple[np.ndarray, np.ndarray]:
    """(position density, momentum density) by direct quadrature."""
    pos = w.values.sum(axis=1) * w.dp
    mom = w.values.sum(axis=0) * w.dq
    return pos, mom


# ---------------------------------------------------------------------------
# star product via operator kernels


def _symbol_to_kernel(values, dq, dp, p0, hbar) -> np.ndarray:
    """Integral-operator kernel K[x_j, x_k] on the half-step lattice
    h = dq/2 (2 Nq points) from symbol samples (Nq x Np, dq dp = 2 pi
    hbar / Np), by the inverse midpoint map."""
    nq, np_ = values.shape
    two_nq = 2 * nq
    two_np = 2 * np_
    # symbol upsampled x4 along q: rows at spacing dq/4 index (j + k)
    a4 = _upsample2(_upsample2(values.astype(complex), axis=0), axis=0)
    # F[l, r] = sum_m a4[l, m] e^{i p_m r h / hbar}, p_m = p0 + m dp,
    # p_m r h / hbar = p0 r h / hbar + pi m r / Np  -> zero-padded inverse
    # FFT of length 2 Np (exactly periodic in r with period 2 Np)
    # Extend the p-window to the full reciprocal of the half-step lattice:
    # the upper half aliases to momenta below the band, so replicate the
    # matching band edges (zero for decaying symbols, exact for constants).
    pad = np.empty((4 * nq, two_np), dtype=complex)
    pad[:, :np_] = a4
    pad[:, np_ : 3 * np_ // 2] = a4[:, -1:]
    pad[:, 3 * np_ // 2 :] = a4[:, :1]
    table = np.fft.ifft(pad, axis=1) * two_np
    j = np.arange(two_nq)
    ll = np.add.outer(j, j)          # midpoint index on the dq/4 lattice
    rr = np.subtract.outer(j, j)     # separation in units of h
    phase = np.exp(1j * p0 * rr * (dq / 2.0) / hbar)
    kern = table[ll, rr % two_np] * phase * (dp / (2.0 * np.pi * hbar))
    # The discrete p-sum is periodic in the separation with period
    # two_np * h; beyond half that period the entries are aliases of the
    # (decayed) short-range content, so cut them off.
    kern[np.abs(rr) > two_np // 2] = 0.0
    return kern


def _kernel_to_symbol(kern: np.ndarray, np_: int, dq, dp, p0, hbar) -> np.ndarray:
    """Symbol samples (Nq x Np) from a kernel on the half-step lattice."""
    two_nq = kern.shape[0]
    j = np.arange(two_nq)
    # even separations: s = r dq, entries K[(i + r) % 2Nq, (i - r) % 2Nq]
    gather = kern[(j[:, None] + j[None, :]) % two_nq, (j[:, None] - j[None, :]) % two_nq]
    folded = gather.reshape(two_nq, -1, np_).sum(axis=1)
    # sum_r folded[i, r] e^{-i p_m r dq / hbar} with p_m = p0 + m dp
    r = np.arange(np_)
    base = np.exp(-1j * p0 * r * dq / hbar)
    table = np.fft.fft(folded * base, axis=1)  # e^{-2 pi i m r / Np}
    return table[::2, :] * dq  # down to the original q lattice


def star_product(a: PhaseGrid, b: PhaseGrid) -> PhaseGrid:
    """Noncommutative symbol product representing operator composition.

    Implemented by the kernel factorization: both symbols are mapped to
    integral kernels on a doubled lattice (zero-padded in q so periodic
    images stay out of the reported window), composed by quadrature, and
    mapped back.  Satisfies 1 * A = A * 1 = A, the conjugation rule
    conj(A * B) = conj(B) * conj(A) and trace identities to grid accuracy.
    """
    if not a.same_grid(b):
        raise GridMismatch("star product operands live on different grids")
    n = a.values.shape[0]
    if a.values.shape[1] != n:
        raise GridMismatch("star product expects square (N x N) symbols")
    if abs(a.dq * a.dp * n - 2.0 * np.pi * a.hbar) > 1.0e-9 * a.hbar:
        raise GridMismatch("grid must satisfy dq dp = 2 pi hbar / N")

    # Internal doubled canonical grid (2N x 2N, dp' = dp/2): padding in q
    # pushes periodic images out of the window, and the refined momentum
    # lattice pushes the kernel's alias diagonal to the padded box edge.
    # Edges are replicated, not zeroed, so constant symbols stay exact.
    def doubled(vals):
        up_p = _upsample2(vals.astype(complex))
        out = np.empty((2 * n, 2 * n), dtype=complex)
        out[: n // 2] = up_p[0]
        out[n // 2 : n // 2 + n] = up_p
        out[n // 2 + n :] = up_p[-1]
        return out

    dp_fine = a.dp / 2.0
    ka = _symbol_to_kernel(doubled(a.values), a.dq, dp_fine, a.p0, a.hbar)
    kb = _symbol_to_kernel(doubled(b.values), b.dq, dp_fine, b.p0, b.hbar)
    kern = ka @ kb * (a.dq / 2.0)
    sym = _kernel_to_symbol(kern, 2 * n, a.dq, dp_fine, a.p0, a.hbar)
    sym = sym[n // 2 : n // 2 + n, ::2]
    imag = float(np.max(np.abs(sym.imag)))
    # products of real symbols need not be real; keep the complex part only
    # when it is genuine
    if imag <= 1.0e-10 * max(1.0, float(np.max(np.abs(sym.real)))):
        return PhaseGrid(sym.real, a.dq, a.dp, a.q0, a.p0, a.hbar)
    return _ComplexPhaseGrid(sym, a.dq, a.dp, a.q0, a.p0, a.hbar)


class _ComplexPhaseGrid(PhaseGrid):
    """Star products of generic symbols are complex; bypass the reality
    check while keeping the PhaseGrid interface."""

    def __init__(self, values, dq, dp, q0, p0, hbar):
        vals = np.asarray(values, dtype=complex).copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "dq", dq)
        object.__setattr__(self, "dp", dp)
        object.__setattr__(self, "q0", q0)
        object.__setattr__(self, "p0", p0)
        object.__setattr__(self, "hbar", hbar)


def phase_grid_constant(value: float, like: PhaseGrid) -> PhaseGrid:
    """Constant symbol on the same lattice (e.g. the star-product unit)."""
    return PhaseGrid(
        np.full_like(like.values, float(value), dtype=float),
        like.dq, like.dp, like.q0, like.p0, like.hbar,
    )


# ---------------------------------------------------------------------------
# stationary-value calculus and propagators


def van_vleck(s_fun, q, a, fd_step: float = 1.0e-4) -> float:
    """Mixed-derivative determinant det[d^2 S / dq_i da_j] at (q, a).

    S is a two-point function S(q, a) of scalars or same-length vectors;
    derivatives use central differences with a relative step.  Raises
    TurningPoint when the determinant falls below 1e-12.
    """
    q = np.atleast_1d(np.asarray(q, dtype=float))
    a = np.atleast_1d(np.asarray(a, dtype=float))
    if q.shape != a.shape:
        raise ValueError("q and a must have the same dimension")
    n = len(q)
    mat = np.empty((n, n))
    for i in range(n):
        hi = fd_step * (1.0 + abs(q[i]))
        for j in range(n):
            hj = fd_step * (1.0 + abs(a[j]))
            qp, qm = q.copy(), q.copy()
            qp[i] += hi
            qm[i] -= hi
            ap, am = a.copy(), a.copy()
            ap[j] += hj
            am[j] -= hj
            mat[i, j] = (
                _eval2(s_fun, qp, ap) - _eval2(s_fun, qp, am)
                - _eval2(s_fun, qm, ap) + _eval2(s_fun, qm, am)
            ) / (4.0 * hi * hj)
    det = float(np.linalg.det(mat))
    if abs(det) < 1.0e-12:
        raise TurningPoint("mixed-derivative determinant vanishes")
    return det


def _eval2(fun, q, a) -> float:
    if len(q) == 1:
        return float(fun(float(q[0]), float(a[0])))
    return float(fun(q, a))


def wkb_wavefunction(s_vals, d_vals, dx: float, q0: float,
                     hbar: float = 1.0, mass: float = 1.0) -> GridWavefunction:
    """Short-wave state sqrt|D| exp(i S / hbar) from sampled phase and
    density arrays on a uniform grid."""
    s = np.asarray(s_vals, dtype=float)
    d = np.asarray(d_vals, dtype=float)
    psi = np.sqrt(np.abs(d)) * np.exp(1j * s / hbar)
    return GridWavefunction(psi, dx, q0, hbar, mass)


def free_propagator(xi, tau: float, mass: float = 1.0, hbar: float = 1.0,
                    n_dim: int = 1) -> complex:
    """Initial-condition propagator (m / 2 pi i hbar tau)^{n/2}
    exp(i m xi^2 / 2 hbar tau)."""
    if tau == 0.0:
        raise ZeroTime("the zero-time limit is the delta distribution")
    xi2 = float(np.sum(np.square(np.asarray(xi, dtype=float))))
    amp = (mass / (2.0 * np.pi * 1j * hbar * tau)) ** (n_dim / 2.0)
    return complex(amp * cmath.exp(1j * mass * xi2 / (2.0 * hbar * tau)))


def propagate_free(psi: GridWavefunction, t: float) -> GridWavefunction:
    """Free evolution by the exact spectral multiplier exp(-i p^2 t / 2 m hbar),
    computed on a zero-padded (doubled) grid to suppress wrap-around."""
    if not math.isfinite(t):
        raise ValueError(f"propagation time must be finite, got {t!r}")
    _require_resolved(psi, "propagate_free")
    n = psi.n_points
    pad = np.zeros(2 * n, dtype=complex)
    pad[n // 2 : n // 2 + n] = psi.psi
    k = 2.0 * np.pi * np.fft.fftfreq(2 * n, d=psi.dx)  # wavenumber, p = hbar k
    spec = np.fft.fft(pad)
    spec *= np.exp(-1j * psi.hbar * k**2 * t / (2.0 * psi.mass))
    out = np.fft.ifft(spec)[n // 2 : n // 2 + n]
    return GridWavefunction(out, psi.dx, psi.q0, psi.hbar, psi.mass)


def stat_values(x, fx, grad_tol: float = 1.0e-8) -> list[float]:
    """Stationary values of a densely sampled function of one variable.

    Interior sign changes of the discrete derivative are refined by a local
    quadratic fit; returns the fitted function values.  Raises
    NoCriticalPoint when the gradient never turns.
    """
    x = np.asarray(x, dtype=float)
    f = np.asarray(fx, dtype=float)
    if len(x) != len(f) or len(x) < 5:
        raise ValueError("need matching arrays with at least 5 samples")
    df = np.gradient(f, x)
    out = []
    for i in range(1, len(x) - 2):
        if df[i] == 0.0 and df[i + 1] == 0.0:
            continue
        if df[i] * df[i + 1] <= 0.0 and (df[i] != 0.0 or df[i + 1] != 0.0):
            lo = max(0, i - 2)
            hi = min(len(x), i + 4)
            coeff = np.polyfit(x[lo:hi], f[lo:hi], 2)
            if coeff[0] == 0.0:
                continue
            x_star = -coeff[1] / (2.0 * coeff[0])
            slope = 2.0 * coeff[0] * x_star + coeff[1]
            if abs(slope) <= grad_tol and x[lo] <= x_star <= x[hi - 1]:
                out.append(float(np.polyval(coeff, x_star)))
    if not out:
        raise NoCriticalPoint("no interior stationary point detected")
    # merge near-duplicates from adjacent brackets
    merged: list[float] = []
    for v in sorted(out):
        if not merged or abs(v - merged[-1]) > 1.0e-9 * (1.0 + abs(v)):
            merged.append(v)
    return merged


def compose_characteristic(sigma1, sigma2, z_grid):
    """Two-point function (x, y) -> stationary values over z of
    sigma1(x, z) + sigma2(z, y), evaluated on the given intermediate grid."""
    z = np.asarray(z_grid, dtype=float)

    def composed(x: float, y: float) -> list[float]:
        vals = np.array([sigma1(x, zz) + sigma2(zz, y) for zz in z])
        return stat_values(z, vals)

    return composed
