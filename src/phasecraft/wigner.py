"""Grid quantum kit: quasi-probability transform, star product, propagators.

Conventions (one degree of freedom):

* Unitary Fourier pair psihat(p) = (2 pi hbar)^{-1/2} int psi(q)
  exp(-i p q / hbar) dq on the centered dual lattice dp = 2 pi hbar/(N dq).
* Phase-space image of a pure state:
  W(q, p) = (2 pi hbar)^{-1} int conj(psi)(q - s/2) psi(q + s/2)
  exp(-i p s / hbar) ds, so that int W dp = |psi(q)|^2 and
  int W dq = |psihat(p)|^2 (total mass one).
* The star product acts on raw symbols, one of which must decay to the
  window's edges: 1 * A = A and the pure-state projector identity reads
  (2 pi hbar) (W * W) = W.

All transforms assume power-of-two grids, treat signals as periodic and
refuse to run when more than 1e-8 of the mass sits in the outer 10% of the
spatial or spectral window (GridTooCoarse).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .algebra import _check_scalars, _from_checked, _frozen
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
_FD_STEP = 1.0e-4
_GRAD_TOL = 1.0e-8
_ROW_BLOCK = 32  # rows of wigner_transform's half-correlation per pass: 0.5 MB at N = 512
_COL_BLOCK = 64  # FFT-table columns per pass of _symbol_to_kernel: 4 MB at N = 512
# star_product refuses operands whose edge ratios (the largest |W| on the outer
# rows and columns over the largest |W|) both exceed this
_EDGE_RATIO_BOUND = 1.0e-6


@dataclass(frozen=True)
class GridWavefunction:
    """Complex amplitudes on a uniform q-grid (power-of-two length)."""

    psi: np.ndarray
    dx: float
    q0: float
    hbar: float = 1.0
    mass: float = 1.0

    def __post_init__(self):
        psi = _frozen(np.array(self.psi, dtype=complex), "psi")
        n = len(psi)
        if n < 4 or n & (n - 1):
            raise ValueError("grid length must be a power of two (>= 4)")
        _check_scalars(self, positive=("dx", "hbar", "mass"), finite=("q0",))
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
        norm = self.norm()
        if not norm > 0:
            raise GridTooCoarse("the state has no mass on the grid; move or enlarge the window")
        return GridWavefunction(self.psi / norm, self.dx, self.q0, self.hbar, self.mass)

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
    """Field W[i, m] on the product (q, p) lattice: float64, or complex128
    when the imaginary part exceeds 1e-10 max(1, max|Re|) (star products of
    generic symbols)."""

    values: np.ndarray
    dq: float
    dp: float
    q0: float
    p0: float
    hbar: float = 1.0

    def __post_init__(self):
        _check_scalars(self, positive=("dq", "dp", "hbar"), finite=("q0", "p0"))
        vals = np.asarray(self.values)
        if np.iscomplexobj(vals):
            imag = float(np.max(np.abs(vals.imag)))
            if imag <= 1.0e-10 * max(1.0, float(np.max(np.abs(vals.real)))):
                vals = vals.real
        vals = np.array(vals, dtype=complex if np.iscomplexobj(vals) else float)
        object.__setattr__(self, "values", _frozen(vals, "values"))

    @property
    def q_grid(self) -> np.ndarray:
        return self.q0 + self.dq * np.arange(self.values.shape[0])

    @property
    def p_grid(self) -> np.ndarray:
        return self.p0 + self.dp * np.arange(self.values.shape[1])

    def integral(self) -> float | complex:
        return self.values.sum().item() * self.dq * self.dp

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
    """k-th oscillator eigenstate via the normalised Hermite-function
    recurrence psi_{j+1} = sqrt(2/(j+1)) x psi_j - sqrt(j/(j+1)) psi_{j-1}.

    Raises GridTooCoarse before any work when a classical turning point
    +-sqrt((2k+1) hbar/(m omega)) lies outside [qmin, qmax]: the state's mass
    then reaches the window's edge."""
    reach = min(-qmin, qmax) * math.sqrt(mass * omega / hbar)  # in units of x
    if not (reach >= 0 and reach * reach >= 2 * k + 1):  # exact for any integer k
        raise GridTooCoarse(f"ho_excited: the turning points of k = {k} leave "
                            f"[{qmin:g}, {qmax:g}]; enlarge the window")
    q, dx = _grid(n, qmin, qmax)
    x = q * np.sqrt(mass * omega / hbar)
    # psi_j = h_j exp(log_scale) with h_0 = 1; a factor 1e100 moves from h to
    # log_scale wherever h outgrows it, so no factor over- or underflows
    h_prev, h = np.zeros_like(x), np.ones_like(x)
    log_scale = 0.25 * np.log(mass * omega / (np.pi * hbar)) - 0.5 * x**2
    for j in range(k):
        h_prev, h = h, np.sqrt(2.0 / (j + 1)) * x * h - np.sqrt(j / (j + 1)) * h_prev
        big = np.abs(h) > 1e100
        h[big] *= 1e-100
        h_prev[big] *= 1e-100
        log_scale[big] += 100.0 * np.log(10.0)
    return GridWavefunction(h * np.exp(log_scale), dx, qmin, hbar, mass)


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
    return GridWavefunction(left.psi + right.psi, left.dx, qmin, hbar).normalized()


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

    Output: N x N float64 field, q on the input lattice, p on the centered
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

    # correlation c[i, r] = conj(psi)(q_i - s/2) psi(q_i + s/2) at s = r dx;
    # the half-shifts live on the upsampled (dx/2) lattice, where q_i sits at
    # u = 2 i + n.  Windows of the periodic signal read twice give
    # up[(u + r) % 4n] (forward) and up[(u - r) % 4n] (backward) as strided
    # views, one row per i.  The correlation is Hermitian in the separation,
    # c[i, 4n - r] = conj(c[i, r]), so only r = 0 ... 2n is formed.
    twice = np.concatenate([up, up])
    plus = sliding_window_view(twice, 2 * n + 1)[n : 3 * n : 2]
    minus = sliding_window_view(twice[::-1], 2 * n + 1)[3 * n - 1 : n : -2]

    # W[i, c] = dx / (2 pi hbar) sum_r c[i, r] e^{-i p_c r dx / hbar} over the 4n
    # separations, p_c = (c - n/2) dp, i.e. the phase (-1)^r e^{-2 pi i c r / n}.
    # It has period n in r, so the sum folds onto n bins, y[m] = sum_t c[i, m + t n],
    # and n is a power of two >= 4, hence even, so the centring sign is (-1)^m.
    # The folded row is Hermitian too, y[n - m] = conj(y[m]): with r > 2n read as
    # conj(c[4n - r]), its h = n/2 + 1 non-negative bins are
    # y[m] = c[m] + c[m + n] + conj(c[2n - m] + c[n - m]), and the real inverse FFT
    # of conj(y) (-1)^m gives the real length-n sum.  That FFT drops the imaginary
    # parts of bins 0 and n/2, which vanish exactly for finite samples; they are
    # kept as the hermiticity residue reported when the field is not finite.
    half = n // 2 + 1
    signs = (-1.0) ** np.arange(half)  # centers the p-lattice
    scale = psi.dx / (2.0 * np.pi * hbar)
    table = np.empty((n, n))
    edges = np.empty((n, 2), dtype=complex)  # bins 0 and n/2 of each row
    block = min(n, _ROW_BLOCK)
    corr = np.empty((block, 2 * n + 1), dtype=complex)
    folded = np.empty((block, half), dtype=complex)
    tmp = np.empty((block, half), dtype=complex)
    # a non-finite sample (inf * 0, inf - inf) reaches the guard below, not a warning
    with np.errstate(invalid="ignore"):
        for lo in range(0, n, block):  # the block buffers stay in cache across passes
            rows = slice(lo, lo + block)
            np.conjugate(minus[rows], out=corr)
            corr *= plus[rows]
            corr[:, 2 * n] = 0.0  # unpaired endpoint of the symmetric s-range
            np.add(corr[:, :half], corr[:, n : n + half], out=folded)
            np.conjugate(folded, out=folded)
            np.add(corr[:, 2 * n : 3 * n // 2 - 1 : -1], corr[:, n : n // 2 - 1 : -1], out=tmp)
            folded += tmp
            folded *= signs
            edges[rows] = folded[:, :: n // 2]
            np.multiply(np.fft.irfft(folded, n, axis=1, norm="forward"), scale, out=table[rows])
    if not np.isfinite(table).all():
        imag = float(np.max(np.abs(edges.imag)))
        raise GridTooCoarse(f"wigner_transform: the field has non-finite values "
                            f"(hermiticity residue {imag:.3e})")
    dp = psi.dp
    table.setflags(write=False)  # fresh and real: handed over, not copied
    return _from_checked(PhaseGrid, table, psi.dx, dp, psi.q0, -dp * (n // 2), hbar)


def marginals(w: PhaseGrid) -> tuple[np.ndarray, np.ndarray]:
    """(position density, momentum density) by direct quadrature."""
    pos = w.values.sum(axis=1) * w.dp
    mom = w.values.sum(axis=0) * w.dq
    return pos, mom


# ---------------------------------------------------------------------------
# star product via operator kernels


def _symbol_to_kernel(values, dq, dp, p0, hbar) -> np.ndarray:
    """Integral-operator kernel K[x_j, x_k] on the half-step lattice
    h = dq/2 (2 Nq points) from complex symbol samples (Nq x Np,
    dq dp = 2 pi hbar / Np), by the inverse midpoint map.  Diagonal d of K
    reads the rows of parity d of F, the sums along p interpolated x4 along q,
    so the sums come first and one FFT along q and one inverse FFT of length
    2 Nq per block of columns give only those rows."""
    nq, np_ = values.shape
    two_nq, two_np = 2 * nq, 2 * np_
    # sum_m values[i, m] e^{i p_m r h / hbar}, p_m = p0 + m dp, where p_m r h / hbar
    # = p0 r h / hbar + pi m r / Np  -> zero-padded unnormalised inverse FFT of
    # length 2 Np.  Extend the p-window to the full reciprocal of the half-step lattice:
    # the upper half aliases to momenta below the band, so replicate the
    # matching band edges (zero for decaying symbols, exact for constants).
    table = np.empty((nq, two_np), dtype=complex)
    table[:, :np_] = values
    table[:, np_ : 3 * np_ // 2] = values[:, -1:]
    table[:, 3 * np_ // 2 :] = values[:, :1]
    np.fft.ifft(table, axis=1, out=table, norm="forward")  # in place (numpy >= 2)
    # A column's x4 interpolation (Nyquist split at Nq/2, as by two _upsample2) at
    # rows 2 m + e is 2 ifft_{2 Nq}(Z)[m], Z its spectrum on 2 Nq bins times the
    # shift e^{2 pi i k e / 4 Nq} of each signed bin k; 2 / 2 Nq joins the constant.
    half = nq // 2
    shift = np.exp(1j * np.pi * np.fft.fftfreq(two_nq))
    block = min(two_np, _COL_BLOCK)  # block starts are even: odd columns are 1::2
    spec = np.zeros((block, two_nq), dtype=complex)
    phase = np.exp(1j * p0 * np.arange(-np_, np_ + 1) * (dq / 2.0) / hbar)
    # K[j, k] = F[j + k, (j - k) mod 2 Np] e^{i p0 (j - k) h / hbar} dp / (2 pi hbar),
    # filled one diagonal d = j - k at a time.  The discrete p-sum is periodic in d
    # with period 2 Np; beyond half that period the entries are aliases of the
    # (decayed) short-range content, so the diagonals |d| > Np stay zero.
    kern = np.zeros((two_nq, two_nq), dtype=complex)
    flat = kern.reshape(-1)
    for lo in range(0, two_np, block):
        cols = np.fft.fft(table[:, lo : lo + block].T, axis=1)
        spec[:, :half] = cols[:, :half]
        spec[:, -half + 1 :] = cols[:, half + 1 :]
        spec[:, half] = spec[:, -half] = 0.5 * cols[:, half]
        spec[1::2] *= shift
        rows = np.fft.ifft(spec, axis=1, norm="forward")
        for c in range(lo, lo + block):  # column c = d mod 2 Np holds d = c - 2 Np, +-c or c
            for d in (c - two_np,) if c > np_ else (c, -c) if c == np_ else (c,):
                start = d * two_nq if d >= 0 else -d  # flat index of K[d, 0] or K[0, -d]
                diag = flat[start :: two_nq + 1][: two_nq - abs(d)]
                np.multiply(rows[c - lo, abs(d) // 2 :][: len(diag)], phase[d + np_], out=diag)
    kern *= dp / (2.0 * np.pi * hbar * nq)
    return kern


def _kernel_to_symbol(quarters: np.ndarray, dq, p0, hbar) -> np.ndarray:
    """Symbol samples on the reported N x N window from the quarters
    C[s] = K[s::4, -s mod 4 :: 4] of the composed kernel K of a doubled
    star-product grid (2N x 2N) on its half-step lattice (4N points): the
    window's rows are the even rows N ... 3N - 2 of that lattice (rows
    N // 2 ... 3N // 2 - 1 of the doubled grid), its momenta every second one."""
    n = quarters.shape[1]
    two_nq, np_ = 4 * n, 2 * n
    i = np.arange(n, 3 * n, 2)[:, None]
    r = np.arange(two_nq)
    # even separations s = r dq: K[x, y] at x, y = (i +- r) % 2Nq, x + y = 2 i = 0 mod 4
    x, y = (i + r) % two_nq, (i - r) % two_nq
    folded = quarters[x % 4, x // 4, y // 4].reshape(n, -1, np_).sum(axis=1)
    # sum_r folded[i, r] e^{-i p_m r dq / hbar} with p_m = p0 + m dp
    r = np.arange(np_)
    base = np.exp(-1j * p0 * r * dq / hbar)
    table = np.fft.fft(folded * base, axis=1)  # e^{-2 pi i m r / Np}
    return table[:, ::2] * dq


def _edge_ratio(vals: np.ndarray) -> float:
    """The largest |W| on the outer rows and columns over the largest |W|
    (0 for a zero field)."""
    peak = float(np.max(np.abs(vals)))
    edge = max(float(np.max(np.abs(v))) for v in (vals[0], vals[-1], vals[:, 0], vals[:, -1]))
    return edge / peak if peak > 0 else 0.0


def star_product(a: PhaseGrid, b: PhaseGrid) -> PhaseGrid:
    """Noncommutative symbol product representing operator composition.

    Implemented by the kernel factorization: both symbols are mapped to
    integral kernels on a doubled lattice (zero-padded in q so periodic
    images stay out of the reported window), composed by quadrature, and
    mapped back; of the composed kernel only the quarter that the map-back
    reads (row + column = 0 mod 4) is computed.  The map-back folds the kernel's periodic image into the
    result, and that image vanishes only when the product decays inside the
    window, so at least one operand must decay to the window's edges in q
    and in p.  Then 1 * A = A * 1 = A, the conjugation rule
    conj(A * B) = conj(B) * conj(A) and trace identities hold to grid
    accuracy; without it they fail (1 * 1 comes back as 4, and
    e^{-q^2/2} * e^{-q^2/2} is off by 1).  So GridTooCoarse is raised when
    each operand's edge ratio (the largest |W| on its outer rows and columns
    over its largest |W|) exceeds 1e-6 (``_EDGE_RATIO_BOUND``).  The guard
    catches that gross failure only; a small ratio does not bound the grid
    error.
    """
    if not a.same_grid(b):
        raise GridMismatch("star product operands live on different grids")
    n = a.values.shape[0]
    if a.values.shape[1] != n:
        raise GridMismatch("star product expects square (N x N) symbols")
    if abs(a.dq * a.dp * n - 2.0 * np.pi * a.hbar) > 1.0e-9 * a.hbar:
        raise GridMismatch("grid must satisfy dq dp = 2 pi hbar / N")
    ratios = _edge_ratio(a.values), _edge_ratio(b.values)
    if min(ratios) > _EDGE_RATIO_BOUND:
        raise GridTooCoarse(f"star product: neither operand decays to the window's edges "
                            f"(edge ratios {ratios[0]:.3e} and {ratios[1]:.3e}, "
                            f"one must be at most {_EDGE_RATIO_BOUND:.0e})")

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
    quarters = np.empty((4, n, n), dtype=complex)
    for s in range(4):
        np.matmul(ka[s::4], kb[:, -s % 4 :: 4], out=quarters[s])
    del ka, kb
    quarters *= a.dq / 2.0
    sym = _kernel_to_symbol(quarters, a.dq, a.p0, a.hbar)
    # products of real symbols need not be real; PhaseGrid keeps the complex
    # part only when it is genuine
    return PhaseGrid(sym, a.dq, a.dp, a.q0, a.p0, a.hbar)


def phase_grid_constant(value: float, like: PhaseGrid) -> PhaseGrid:
    """Constant symbol on the same lattice (e.g. the star-product unit)."""
    return PhaseGrid(
        np.full_like(like.values, float(value), dtype=float),
        like.dq, like.dp, like.q0, like.p0, like.hbar,
    )


# ---------------------------------------------------------------------------
# stationary-value calculus and propagators


def van_vleck(s_fun, q, a) -> float:
    """Mixed-derivative determinant det[d^2 S / dq_i da_j] at (q, a).

    S is a two-point function S(q, a) of scalars or same-length vectors;
    derivatives use central differences with the relative step 1e-4
    (``_FD_STEP``: h = 1e-4 (1 + |x|) for each coordinate x).  Raises
    TurningPoint when the determinant falls below 1e-12.
    """
    q = np.atleast_1d(np.asarray(q, dtype=float))
    a = np.atleast_1d(np.asarray(a, dtype=float))
    if q.shape != a.shape:
        raise ValueError("q and a must have the same dimension")
    n = len(q)
    mat = np.empty((n, n))
    for i in range(n):
        hi = _FD_STEP * (1.0 + abs(q[i]))
        for j in range(n):
            hj = _FD_STEP * (1.0 + abs(a[j]))
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


def stat_values(x, fx) -> list[float]:
    """Stationary values of a densely sampled function of one variable.

    Interior sign changes of the discrete derivative are refined by a local
    quadratic fit, kept when the fit's slope at its extremum is at most 1e-8
    (``_GRAD_TOL``) and the extremum lies inside the fitted samples; returns
    the fitted function values.  Raises
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
            if abs(slope) <= _GRAD_TOL and x[lo] <= x_star <= x[hi - 1]:
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
