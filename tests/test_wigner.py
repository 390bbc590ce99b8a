import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from phasecraft import wigner as wg
from phasecraft.errors import (
    GridMismatch,
    GridTooCoarse,
    NoCriticalPoint,
    TurningPoint,
    ZeroTime,
)

HBAR = 1.0


@pytest.fixture(scope="module")
def ho_ground_512():
    return wg.ho_ground(512, -8.0, 8.0)


@pytest.fixture(scope="module")
def w_ground(ho_ground_512):
    return wg.wigner_transform(ho_ground_512)


@pytest.fixture(scope="module")
def gaussian_512():
    return wg.wigner_transform(
        wg.gaussian_packet(0.7, 512, -8.0, 8.0, q_center=0.5, p_center=0.3)
    )


@pytest.fixture(scope="module")
def ground_star_gaussian(w_ground, gaussian_512):
    return wg.star_product(w_ground, gaussian_512)


# --- states and grids -----------------------------------------------------------


def test_power_of_two_enforced():
    with pytest.raises(ValueError):
        wg.GridWavefunction(np.ones(100, dtype=complex), 0.1, 0.0)


def test_builtin_states_normalized():
    for psi in (
        wg.ho_ground(256, -8.0, 8.0),
        wg.ho_excited(3, 256, -8.0, 8.0),
        wg.gaussian_packet(0.8, 256, -8.0, 8.0, p_center=0.4),
        wg.cat_state(5.0, 256, -12.0, 12.0),
    ):
        assert abs(psi.norm() - 1.0) <= 1e-10


def test_parseval_under_grid_transform():
    psi = wg.gaussian_packet(0.9, 256, -9.0, 9.0, q_center=0.3, p_center=-1.1)
    hat = psi.fourier()
    lhs = np.sum(np.abs(psi.psi) ** 2) * psi.dx
    rhs = np.sum(np.abs(hat) ** 2) * psi.dp
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_fourier_of_gaussian_is_gaussian():
    sigma = 0.8
    psi = wg.gaussian_packet(sigma, 512, -12.0, 12.0)
    hat = psi.fourier()
    p = psi.p_grid
    sig_p = HBAR / (2.0 * sigma)
    want = (2.0 * np.pi * sig_p**2) ** (-0.25) * np.exp(-(p**2) / (4.0 * sig_p**2))
    assert np.max(np.abs(np.abs(hat) - want)) <= 1e-8


def test_grid_too_coarse_guard():
    wide = wg.gaussian_packet(3.0, 64, -4.0, 4.0)  # clipped in the box
    with pytest.raises(GridTooCoarse):
        wg.wigner_transform(wide.normalized())


# --- the transform ---------------------------------------------------------------


def test_ground_state_matches_gaussian_oracle(w_ground):
    qq, pp = np.meshgrid(w_ground.q_grid, w_ground.p_grid, indexing="ij")
    want = np.exp(-(qq**2) - pp**2) / np.pi
    assert np.max(np.abs(w_ground.values - want)) <= 1e-6
    assert w_ground.values.min() >= -1e-9
    assert w_ground.integral() == pytest.approx(1.0, abs=1e-10)


def test_first_excited_negative_at_origin():
    psi = wg.ho_excited(1, 512, -8.0, 8.0)
    w = wg.wigner_transform(psi)
    i0 = np.argmin(np.abs(w.q_grid))
    m0 = np.argmin(np.abs(w.p_grid))
    assert w.values[i0, m0] < 0
    assert w.values[i0, m0] == pytest.approx(-1.0 / np.pi, abs=1e-8)


def test_translation_covariance():
    base = wg.gaussian_packet(1.0, 256, -10.0, 10.0)
    w0 = wg.wigner_transform(base)
    shift_cells = 16
    shift = shift_cells * base.dx
    moved = wg.gaussian_packet(1.0, 256, -10.0, 10.0, q_center=shift)
    w1 = wg.wigner_transform(moved)
    npt.assert_allclose(np.roll(w0.values, shift_cells, axis=0), w1.values, atol=1e-9)


def test_marginals_match_densities(ho_ground_512, w_ground):
    pos, mom = wg.marginals(w_ground)
    npt.assert_allclose(pos, np.abs(ho_ground_512.psi) ** 2, atol=1e-8)
    npt.assert_allclose(mom, np.abs(ho_ground_512.fourier()) ** 2, atol=1e-8)
    assert pos.min() >= -1e-12 and mom.min() >= -1e-12


def test_gaussian_marginal_widths():
    sigma = 0.7
    psi = wg.gaussian_packet(sigma, 512, -10.0, 10.0)
    w = wg.wigner_transform(psi)
    pos, mom = wg.marginals(w)
    var_q = float(np.sum(w.q_grid**2 * pos) * w.dq)
    var_p = float(np.sum(w.p_grid**2 * mom) * w.dp)
    assert var_q == pytest.approx(sigma**2, rel=1e-6)
    assert var_p == pytest.approx((HBAR / (2.0 * sigma)) ** 2, rel=1e-6)


def test_cat_state_marginal_positive_despite_fringes():
    cat = wg.cat_state(6.0, 512, -14.0, 14.0)
    w = wg.wigner_transform(cat)
    assert w.values.min() < -0.05  # genuine interference fringes
    pos, mom = wg.marginals(w)
    assert pos.min() >= -1e-12 and mom.min() >= -1e-12
    # two separated bumps
    i_left = np.argmin(np.abs(w.q_grid + 3.0))
    i_mid = np.argmin(np.abs(w.q_grid))
    assert pos[i_left] > 10.0 * pos[i_mid]


def _row_loop_correlation(psi):
    """The transform's correlation built one row at a time, by an index
    gather per row (the reference for the strided views)."""
    n = psi.n_points
    padded = np.zeros(2 * n, dtype=complex)
    padded[n // 2 : n // 2 + n] = psi.psi
    up = wg._upsample2(padded)
    four_n = 4 * n
    idx = np.arange(four_n)
    corr = np.empty((n, four_n), dtype=complex)
    for i in range(n):
        u = 2 * (i + n // 2)
        plus = up[(u + idx) % four_n]
        minus = up[(u - idx) % four_n]
        corr[i] = np.conj(minus) * plus
    corr[:, 2 * n] = 0.0
    return corr


def _row_loop_transform(psi):
    """The field from the row-loop correlation, folded onto the n/2 + 1
    non-negative bins of the Hermitian row and transformed as the library does."""
    n = psi.n_points
    corr, half = _row_loop_correlation(psi), n // 2 + 1
    folded = np.conj(corr[:, :half] + corr[:, n : n + half])
    folded += corr[:, 2 * n : 3 * n // 2 - 1 : -1] + corr[:, n : n // 2 - 1 : -1]
    table = np.fft.irfft(folded * (-1.0) ** np.arange(half), n, axis=1, norm="forward")
    table *= psi.dx / (2.0 * np.pi * psi.hbar)
    return table.real


def _complex_fold_transform(psi):
    """The field from all four blocks of the row-loop correlation folded onto
    n complex bins, a complex length-n FFT and the real part."""
    n = psi.n_points
    folded = _row_loop_correlation(psi).reshape(n, 4, n).sum(axis=1)
    table = np.fft.fft(folded * (-1.0) ** np.arange(n), axis=1)
    table *= psi.dx / (2.0 * np.pi * psi.hbar)
    return table.real


_transform_sizes = pytest.mark.parametrize("n", [64, 256, 512])
_transform_states = pytest.mark.parametrize("make", [
    lambda n: wg.ho_ground(n, -8.0, 8.0),
    lambda n: wg.ho_excited(3, n, -8.0, 8.0),
    lambda n: wg.gaussian_packet(0.8, n, -8.0, 8.0, q_center=0.5, p_center=0.3),
    lambda n: wg.cat_state(4.0, n, -12.0, 12.0),
], ids=["ho_ground", "ho_excited_3", "displaced_gaussian", "cat"])


@_transform_sizes
@_transform_states
def test_wigner_transform_matches_row_loop(make, n):
    psi = make(n).normalized()
    w = wg.wigner_transform(psi)
    assert w.values.dtype == np.float64
    npt.assert_array_equal(w.values, _row_loop_transform(psi))


@_transform_sizes
@_transform_states
def test_wigner_fold_matches_full_length_transform(make, n):
    # bin 4c of the length-4n DFT is bin c of the length-n DFT of the folded rows
    psi = make(n).normalized()
    w = wg.wigner_transform(psi).values
    signs = (-1.0) ** np.arange(4 * n)
    full = np.fft.fft(_row_loop_correlation(psi) * signs, axis=1)[:, ::4]
    full *= psi.dx / (2.0 * np.pi * psi.hbar)
    scale = float(np.max(np.abs(w)))
    assert float(np.max(np.abs(w - full))) <= 4 * np.finfo(float).eps * scale


@_transform_sizes
@_transform_states
def test_wigner_half_fold_matches_complex_fold(make, n):
    # the real FFT of the n/2 + 1 Hermitian bins against the complex FFT of all n
    psi = make(n).normalized()
    w = wg.wigner_transform(psi).values
    scale = float(np.max(np.abs(w)))
    assert float(np.max(np.abs(w - _complex_fold_transform(psi)))) <= 4 * np.finfo(float).eps * scale


@_transform_states
def test_wigner_field_is_read_only_c_contiguous_float64(make):
    values = wg.wigner_transform(make(64).normalized()).values
    assert values.dtype == np.float64 and values.shape == (64, 64)
    assert values.flags.c_contiguous and not values.flags.writeable


def test_hermiticity_guard_raises(monkeypatch):
    # the correlation is Hermitian in the separation for any upsampled
    # signal, so only a non-finite sample leaves the field complex
    upsample = wg._upsample2
    rng = np.random.default_rng(5)

    def corrupted(psi, axis=-1):
        out = upsample(psi, axis) * np.exp(2j * np.pi * rng.random(4 * 64))
        out[7] = np.nan
        return out

    monkeypatch.setattr(wg, "_upsample2", corrupted)
    with pytest.raises(GridTooCoarse, match="hermiticity"):
        wg.wigner_transform(wg.ho_ground(64, -8.0, 8.0))


def test_hermiticity_guard_raises_on_an_infinite_sample(monkeypatch):
    upsample = wg._upsample2

    def corrupted(psi, axis=-1):
        out = upsample(psi, axis)
        out[7] = np.inf
        return out

    monkeypatch.setattr(wg, "_upsample2", corrupted)
    with pytest.raises(GridTooCoarse, match="hermiticity"):
        wg.wigner_transform(wg.ho_ground(64, -8.0, 8.0))


def test_state_without_mass_on_the_grid():
    with pytest.raises(GridTooCoarse, match="no mass"):
        wg.cat_state(1000.0, 64, -8.0, 8.0)
    with pytest.raises(GridTooCoarse, match="no mass"):
        wg.GridWavefunction(np.zeros(64, dtype=complex), 0.25, -8.0).normalized()


def test_ho_excited_refuses_turning_points_off_the_window_before_any_work():
    # the recurrence costs about 11 us per order at N = 64: k = 1e9 would run for hours
    start = time.perf_counter()
    with pytest.raises(GridTooCoarse, match="turning points"):
        wg.ho_excited(10**9, 64, -8.0, 8.0)
    assert time.perf_counter() - start < 0.1
    with pytest.raises(GridTooCoarse, match="turning points"):
        wg.ho_excited(32, 64, -8.0, 8.0)  # sqrt(65) > 8
    with pytest.raises(GridTooCoarse, match="turning points"):
        wg.ho_excited(0, 64, 0.5, 8.0)  # the window misses the origin
    psi = wg.ho_excited(12, 64, -8.0, 8.0)  # the largest k the tail guard accepts here
    assert wg.wigner_transform(psi.normalized()).values.shape == (64, 64)


@pytest.mark.parametrize("field", ["dx", "hbar", "mass"])
def test_grid_wavefunction_refuses_a_nan_scale(field):
    # a NaN used to pass the test x <= 0 and gave a NaN momentum grid
    psi = np.exp(-np.linspace(-4.0, 4.0, 64) ** 2).astype(complex)
    given = {"dx": 0.125, "hbar": 1.0, "mass": 1.0, field: float("nan")}
    with pytest.raises(ValueError, match=field):
        wg.GridWavefunction(psi, q0=-4.0, **given)


@pytest.mark.parametrize("field,bad", [
    ("dx", np.inf), ("hbar", np.inf), ("mass", np.inf),
    ("q0", np.nan), ("q0", np.inf), ("q0", -np.inf),
])
def test_grid_wavefunction_refuses_a_non_finite_scalar(field, bad):
    # each was stored, and wigner_transform handed it to PhaseGrid past its checks
    psi = np.exp(-np.linspace(-4.0, 4.0, 64) ** 2).astype(complex)
    given = dict(dx=0.125, q0=-4.0, hbar=1.0, mass=1.0)
    wg.GridWavefunction(psi, **given)
    with pytest.raises(ValueError, match=rf"^{field} must be finite"):
        wg.GridWavefunction(psi, **{**given, field: bad})


def test_wigner_transform_of_a_nan_q0_is_refused():
    # it returned a grid whose q0 was NaN
    with pytest.raises(ValueError, match="^q0 must be finite"):
        wg.wigner_transform(wg.GridWavefunction(wg.ho_ground(32, -8, 8).psi, 0.5, q0=np.nan))


def test_nonfinite_samples_are_rejected():
    psi = np.exp(-np.linspace(-4.0, 4.0, 64) ** 2).astype(complex)
    psi[7] = np.nan
    with pytest.raises(ValueError, match="finite"):
        wg.GridWavefunction(psi, 0.125, -4.0)


def test_ho_excited_high_k_is_finite_and_exact():
    # turning point sqrt(2k + 1) = 44.7: the Gaussian factor alone underflows
    # beyond |x| = 38.6 and the Hermite polynomial alone overflows
    psi = wg.ho_excited(1000, 4096, -60.0, 60.0)
    assert np.isfinite(psi.psi).all()
    assert psi.norm() == pytest.approx(1.0, abs=1e-10)
    p = psi.p_grid
    kinetic = float(np.sum(0.5 * p**2 * np.abs(psi.fourier()) ** 2) * psi.dp)
    potential = float(np.sum(0.5 * psi.q_grid**2 * np.abs(psi.psi) ** 2) * psi.dx)
    assert kinetic + potential == pytest.approx(1000.5, rel=1e-10)


# --- phase-space fields -------------------------------------------------------------


def test_phase_grid_keeps_only_a_genuine_imaginary_part():
    rng = np.random.default_rng(3)
    real = rng.normal(size=(8, 8))
    for given in (real, real + 1e-12j * rng.normal(size=(8, 8))):
        w = wg.PhaseGrid(given, 0.5, 0.5, 0.0, 0.0)
        assert w.values.dtype == np.float64 and not w.values.flags.writeable
        npt.assert_array_equal(w.values, given.real)
    complex_field = real + 1e-3j * rng.normal(size=(8, 8))
    w = wg.PhaseGrid(complex_field, 0.5, 0.5, 0.0, 0.0)
    assert w.values.dtype == np.complex128 and not w.values.flags.writeable
    npt.assert_array_equal(w.values, complex_field)
    assert w.integral() == complex_field.sum() * 0.25


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(np.nan, 1.0)],
                         ids=["nan", "inf", "complex_nan"])
def test_phase_grid_refuses_one_non_finite_value(bad):
    # one NaN entry used to be stored, and a star product with the grid came
    # back NaN in every entry
    w = wg.wigner_transform(wg.ho_ground(32, -8.0, 8.0))
    values = np.array(w.values, dtype=type(bad))
    values[16, 16] = bad
    with pytest.raises(ValueError, match="^values has non-finite entries"):
        wg.PhaseGrid(values, w.dq, w.dp, w.q0, w.p0, w.hbar)


@pytest.mark.parametrize("field,bad", [
    (field, bad) for field in ("dq", "dp", "hbar") for bad in (np.nan, np.inf, 0.0, -1.0)
] + [(field, bad) for field in ("q0", "p0") for bad in (np.nan, np.inf, -np.inf)])
def test_phase_grid_refuses_bad_scalars(field, bad):
    # each used to be stored: a NaN dq gave a NaN integral, dq = 0 an integral of 0
    given = dict(values=np.ones((4, 4)), dq=0.5, dp=0.5, q0=-1.0, p0=-1.0, hbar=1.0)
    wg.PhaseGrid(**given)
    with pytest.raises(ValueError, match=rf"^{field} must be finite"):
        wg.PhaseGrid(**{**given, field: bad})


def test_generic_star_product_is_complex_phase_grid():
    n = 64
    w0 = wg.wigner_transform(wg.ho_ground(n, -8.0, 8.0))
    other = wg.wigner_transform(
        wg.gaussian_packet(0.7, n, -8.0, 8.0, q_center=0.5, p_center=0.3)
    )
    prod = wg.star_product(w0, other)
    assert type(prod) is wg.PhaseGrid
    assert prod.values.dtype == np.complex128 and not prod.values.flags.writeable
    tr = prod.integral()
    assert isinstance(tr, complex)
    rhs = float((w0.values * other.values).sum()) * w0.dq * w0.dp
    assert abs(tr - rhs) / (2.0 * np.pi * HBAR) <= 1e-7


# --- star product -----------------------------------------------------------------


def test_star_unit_two_sided(w_ground):
    one = wg.phase_grid_constant(1.0, w_ground)
    left = wg.star_product(one, w_ground)
    right = wg.star_product(w_ground, one)
    assert np.max(np.abs(left.values - w_ground.values)) <= 1e-8
    assert np.max(np.abs(right.values - w_ground.values)) <= 1e-8


def test_star_pure_state_idempotent(w_ground):
    ww = wg.star_product(w_ground, w_ground)
    assert np.max(np.abs(2.0 * np.pi * HBAR * ww.values - w_ground.values)) <= 1e-7


def test_star_trace_rule(w_ground, gaussian_512, ground_star_gaussian):
    other = gaussian_512
    lhs = ground_star_gaussian.integral()
    rhs = float((w_ground.values * other.values).sum()) * w_ground.dq * w_ground.dp
    assert abs(lhs - rhs) / (2.0 * np.pi * HBAR) <= 1e-7


def test_star_trace_cyclicity(w_ground):
    other = wg.wigner_transform(
        wg.gaussian_packet(0.9, 512, -8.0, 8.0, q_center=-0.4, p_center=0.8)
    )
    ab = wg.star_product(w_ground, other)
    ba = wg.star_product(other, w_ground)
    lhs = complex(ab.values.sum())
    rhs = complex(ba.values.sum())
    assert abs(lhs - rhs) * w_ground.dq * w_ground.dp <= 1e-8
    # pointwise the product does not commute
    assert np.max(np.abs(ab.values - ba.values)) > 1e-4


def test_star_conjugation_rule(w_ground, gaussian_512, ground_star_gaussian):
    ab = ground_star_gaussian
    ba = wg.star_product(gaussian_512, w_ground)
    assert np.max(np.abs(np.conj(ab.values) - ba.values)) <= 1e-8


def test_star_associativity_on_gaussians():
    n = 256
    g1 = wg.wigner_transform(wg.gaussian_packet(1.0, n, -8.0, 8.0))
    g2 = wg.wigner_transform(wg.gaussian_packet(0.8, n, -8.0, 8.0, q_center=0.4))
    g3 = wg.wigner_transform(wg.gaussian_packet(1.2, n, -8.0, 8.0, p_center=0.6))
    left = wg.star_product(wg.star_product(g1, g2), g3)
    right = wg.star_product(g1, wg.star_product(g2, g3))
    assert np.max(np.abs(left.values - right.values)) <= 1e-6


def test_star_orthogonal_states_annihilate():
    n = 256
    w0 = wg.wigner_transform(wg.ho_ground(n, -8.0, 8.0))
    w1 = wg.wigner_transform(wg.ho_excited(1, n, -8.0, 8.0))
    prod = wg.star_product(w0, w1)
    # trace of rho0 rho1 is |<0|1>|^2 = 0
    tr = complex(prod.values.sum()) * prod.dq * prod.dp
    assert abs(tr) <= 1e-10


def _full_map_back(kern, n, dq, p0, hbar):
    # the oracle: every half-step row gathered, folded and transformed, then
    # the rows and columns of the reported window picked
    two_nq, np_ = kern.shape[0], 2 * n
    j = np.arange(two_nq)
    gather = kern[(j[:, None] + j[None, :]) % two_nq, (j[:, None] - j[None, :]) % two_nq]
    folded = gather.reshape(two_nq, -1, np_).sum(axis=1)
    base = np.exp(-1j * p0 * np.arange(np_) * dq / hbar)
    table = np.fft.fft(folded * base, axis=1)
    sym = table[::2, :] * dq
    return sym[n // 2 : n // 2 + n, ::2]


def test_star_maps_back_only_the_kept_rows_bit_for_bit(monkeypatch):
    # dq = 15/64: neither dq / 2 nor the map-back's constants is a power of two
    n = 64
    w0 = wg.wigner_transform(wg.ho_ground(n, -7.5, 7.5))
    other = wg.wigner_transform(
        wg.gaussian_packet(0.7, n, -7.5, 7.5, q_center=0.5, p_center=0.3)
    )
    a = wg.star_product(w0, other)
    b = wg.PhaseGrid(np.conj(a.values), a.dq, a.dp, a.q0, a.p0, a.hbar)
    kernels = []
    to_kernel = wg._symbol_to_kernel

    def recording(values, *args):
        kernels.append(to_kernel(values, *args))  # star_product only reads them
        return kernels[-1]

    monkeypatch.setattr(wg, "_symbol_to_kernel", recording)
    # A * A and its conjugate are generic complex symbols; A * conj(A) is real
    for x, y, dtype in ((a, a, np.complex128), (b, b, np.complex128), (a, b, np.float64)):
        got = wg.star_product(x, y)
        ka, kb = kernels[-2:]
        want = wg.PhaseGrid(_full_map_back(ka @ kb * (x.dq / 2.0), n, x.dq, x.p0, x.hbar),
                            x.dq, x.dp, x.q0, x.p0, x.hbar)
        assert got.values.dtype == want.values.dtype == dtype
        assert np.array_equal(got.values, want.values)


def _two_step_kernel(values, dq, dp, p0, hbar):
    # the reference: the symbol interpolated x4 along q by two _upsample2
    # passes, then the inverse midpoint map with its index, phase and cut
    # built in 2-D, the padded table transformed into a new array
    nq, np_ = values.shape
    two_nq, two_np = 2 * nq, 2 * np_
    a4 = wg._upsample2(wg._upsample2(values, axis=0), axis=0)
    pad = np.empty((4 * nq, two_np), dtype=complex)
    pad[:, :np_] = a4
    pad[:, np_ : 3 * np_ // 2] = a4[:, -1:]
    pad[:, 3 * np_ // 2 :] = a4[:, :1]
    table = np.fft.ifft(pad, axis=1) * two_np
    j = np.arange(two_nq)
    ll = np.add.outer(j, j)
    rr = np.subtract.outer(j, j)
    phase = np.exp(1j * p0 * rr * (dq / 2.0) / hbar)
    kern = table[ll, rr % two_np] * phase * (dp / (2.0 * np.pi * hbar))
    kern[np.abs(rr) > two_np // 2] = 0.0
    return kern


def _parent_kernel(values, dq, dp, p0, hbar):
    # the oracle: the inverse midpoint map with its index, phase and cut
    # built in 2-D for each operand; its spectral stage transforms along p,
    # then along q, and forms both row parities of every column of the x4
    # table (stored transposed, a column per row) from the spectrum on 2 Nq bins
    nq, np_ = values.shape
    two_nq, two_np = 2 * nq, 2 * np_
    pad = np.empty((nq, two_np), dtype=complex)
    pad[:, :np_] = values
    pad[:, np_ : 3 * np_ // 2] = values[:, -1:]
    pad[:, 3 * np_ // 2 :] = values[:, :1]
    cols = np.fft.fft(np.fft.ifft(pad, axis=1, norm="forward").T, axis=1)
    half = nq // 2
    spec = np.zeros((two_np, two_nq), dtype=complex)
    spec[:, :half] = cols[:, :half]
    spec[:, -half + 1 :] = cols[:, half + 1 :]
    spec[:, half] = spec[:, -half] = 0.5 * cols[:, half]
    table = np.empty((two_np, 4 * nq), dtype=complex)
    table[:, 0::2] = np.fft.ifft(spec, axis=1, norm="forward")
    table[:, 1::2] = np.fft.ifft(spec * np.exp(1j * np.pi * np.fft.fftfreq(two_nq)),
                                 axis=1, norm="forward")
    j = np.arange(two_nq)
    ll = np.add.outer(j, j)
    rr = np.subtract.outer(j, j)
    phase = np.exp(1j * p0 * rr * (dq / 2.0) / hbar)
    kern = table[rr % two_np, ll] * phase * (dp / (2.0 * np.pi * hbar * nq))
    kern[np.abs(rr) > two_np // 2] = 0.0
    return kern


def _recorded_kernels(monkeypatch, a, b):
    # star_product(a, b) and the (values, args, kernel) of each operand
    calls = []
    to_kernel = wg._symbol_to_kernel

    def recording(values, *args):
        kern = to_kernel(values, *args)
        calls.append((values.copy(), args, kern.copy()))
        return kern

    with monkeypatch.context() as patch:
        patch.setattr(wg, "_symbol_to_kernel", recording)
        prod = wg.star_product(a, b)
    assert len(calls) == 2
    return prod, calls


def test_star_kernels_match_the_two_dimensional_map_bit_for_bit(monkeypatch):
    # dq = 15/64 makes the constant dp / (2 pi hbar) no power of two, so the
    # order of the phase and constant multiplications shows in the bits
    n = 64
    w0 = wg.wigner_transform(wg.ho_ground(n, -7.5, 7.5))
    other = wg.wigner_transform(
        wg.gaussian_packet(0.7, n, -7.5, 7.5, q_center=0.5, p_center=0.3)
    )
    a = wg.star_product(w0, other)
    assert np.iscomplexobj(a.values)
    for values, args, kern in _recorded_kernels(monkeypatch, a, w0)[1]:
        assert values.shape == (2 * n, 2 * n)
        want = _parent_kernel(values, *args)
        assert kern.dtype == want.dtype == np.complex128
        assert np.array_equal(kern, want)


@pytest.mark.parametrize("n", [64, 128])
@pytest.mark.parametrize("half", [7.5, 8.0])
def test_star_kernel_matches_the_two_step_interpolation(monkeypatch, n, half):
    # The kernel's spectral stage runs in another order than the x4
    # interpolation by two _upsample2 passes, so it rounds differently: within
    # 8 eps of the largest entry, for the kernels and for the products
    eps = np.finfo(float).eps
    w0 = wg.wigner_transform(wg.ho_ground(n, -half, half))
    gauss = wg.wigner_transform(
        wg.gaussian_packet(0.7, n, -half, half, q_center=0.5, p_center=0.3)
    )
    prod = wg.star_product(w0, gauss)
    assert np.iscomplexobj(prod.values)
    one = wg.phase_grid_constant(1.0, w0)
    for a, b in ((prod, gauss), (one, prod), (gauss, one)):
        got, calls = _recorded_kernels(monkeypatch, a, b)
        for values, args, kern in calls:
            want = _two_step_kernel(values, *args)
            assert np.max(np.abs(kern - want)) <= 8 * eps * np.max(np.abs(want))
        with monkeypatch.context() as patch:
            patch.setattr(wg, "_symbol_to_kernel", _two_step_kernel)
            want = wg.star_product(a, b).values
        assert np.max(np.abs(got.values - want)) <= 8 * eps * np.max(np.abs(want))


def _star_peak_kib(n):
    # VmHWM is the peak of the child's own memory since exec, BLAS on one thread
    code = ("from phasecraft import wigner as wg; "
            f"w = wg.wigner_transform(wg.ho_ground({n}, -8.0, 8.0)); "
            "wg.star_product(w, w); "
            "print(open('/proc/self/status').read().split('VmHWM:')[1].split()[0])")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [
               str(Path(wg.__file__).parents[1]), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True)
    return int(proc.stdout.split()[-1])


def test_star_product_at_n_256_peaks_below_175_mib():
    # each kernel is filled diagonal by diagonal from the rows it reads, only
    # the mapped-back quarter of the product is computed and each temporary is
    # freed before the next one is built; with every temporary alive to the end
    # the product peaked at about 200 MiB
    assert _star_peak_kib(256) < 175 * 1024


def test_star_product_at_n_512_peaks_below_350_mib():
    # at the peak two 2048 x 2048 complex kernels (64 MiB each) and one
    # 1024 x 2048 table of sums along p (32 MiB) are alive; the 4096 x 2048
    # x4-interpolated table (128 MiB) that the kernels were once read from
    # brought the product to about 321 MiB
    assert _star_peak_kib(512) < 350 * 1024


def _on_window(w, values):
    return wg.PhaseGrid(values, w.dq, w.dp, w.q0, w.p0, w.hbar)


def test_star_refuses_operands_that_reach_the_window_edges():
    # each used to come back silently wrong: 1 * 1 as 4 everywhere, the others
    # off by 1.0
    w = wg.wigner_transform(wg.ho_ground(64, -8.0, 8.0))
    q, p = np.meshgrid(w.q_grid, w.p_grid, indexing="ij")
    one = wg.phase_grid_constant(1.0, w)
    gauss_q = _on_window(w, np.exp(-0.5 * q**2))
    gauss_p = _on_window(w, np.exp(-0.5 * p**2))
    for a, b in ((one, one), (gauss_q, gauss_q), (gauss_p, gauss_p), (one, gauss_q)):
        with pytest.raises(GridTooCoarse, match=r"edge ratios 1\.000e\+00 and 1\.000e\+00"):
            wg.star_product(a, b)
    # one decaying operand is enough, on either side
    for prod in (wg.star_product(one, w), wg.star_product(w, one)):
        assert np.max(np.abs(prod.values - w.values)) <= 1e-8


def test_transform_hands_over_a_read_only_grid_equal_to_its_public_rebuild():
    w = wg.wigner_transform(wg.cat_state(4.0, 128, -12.0, 12.0))
    assert not w.values.flags.writeable
    rebuilt = wg.PhaseGrid(w.values, w.dq, w.dp, w.q0, w.p0, w.hbar)
    assert np.array_equal(rebuilt.values, w.values)
    assert rebuilt.values.dtype == w.values.dtype == np.float64
    assert (rebuilt.dq, rebuilt.dp, rebuilt.q0, rebuilt.p0, rebuilt.hbar) == (
        w.dq, w.dp, w.q0, w.p0, w.hbar)


def test_star_grid_mismatch():
    a = wg.wigner_transform(wg.ho_ground(256, -8.0, 8.0))
    b = wg.wigner_transform(wg.ho_ground(256, -9.0, 9.0))
    with pytest.raises(GridMismatch):
        wg.star_product(a, b)


# --- mixed-derivative amplitudes ---------------------------------------------------


def test_van_vleck_free_particle():
    m, t = 1.3, 0.7
    s_free = lambda q, a: m * (q - a) ** 2 / (2.0 * t)
    got = wg.van_vleck(s_free, 0.4, -0.2)
    assert got == pytest.approx(-m / t, rel=1e-6)


def test_van_vleck_fourier_pair_and_plane_wave():
    s_pair = lambda q, a: q * a
    assert wg.van_vleck(s_pair, 0.3, 1.1) == pytest.approx(1.0, rel=1e-6)
    q = np.linspace(-10.0, 10.0, 256, endpoint=False)
    momentum = 1.7
    psi = wg.wkb_wavefunction(momentum * q, np.ones_like(q), q[1] - q[0], q[0])
    hat = psi.fourier()
    peak = np.argmax(np.abs(hat))
    assert abs(psi.p_grid[peak] - momentum) <= psi.dp


def test_van_vleck_turning_point():
    with pytest.raises(TurningPoint):
        wg.van_vleck(lambda q, a: q**2 + a**2, 0.0, 0.0)


def test_van_vleck_harmonic_two_point():
    # S(q, a; t) = ((q^2 + a^2) cos t - 2 q a) / (2 sin t): mixed partial
    # is -1/sin t
    t = 0.9
    s_ho = lambda q, a: ((q**2 + a**2) * np.cos(t) - 2.0 * q * a) / (2.0 * np.sin(t))
    assert wg.van_vleck(s_ho, 0.3, -0.8) == pytest.approx(-1.0 / np.sin(t), rel=1e-6)


def test_wkb_wavefunction_reconstructs_density():
    q = np.linspace(-6.0, 6.0, 512, endpoint=False)
    dens = np.exp(-(q**2)) / np.sqrt(np.pi)
    psi = wg.wkb_wavefunction(0.3 * q**2, dens, q[1] - q[0], q[0])
    npt.assert_allclose(np.abs(psi.psi) ** 2, dens, atol=1e-14)


# --- free propagation ---------------------------------------------------------------


def test_propagator_zero_time_error():
    with pytest.raises(ZeroTime):
        wg.free_propagator(0.3, 0.0)


def test_propagator_values():
    val = wg.free_propagator(1.2, 0.8, mass=2.0, hbar=1.0, n_dim=1)
    amp = (2.0 / (2.0 * np.pi * 1j * 0.8)) ** 0.5
    want = amp * np.exp(1j * 2.0 * 1.2**2 / (2.0 * 0.8))
    assert val == pytest.approx(want)
    # n-dimensional amplitude exponent
    v3 = wg.free_propagator(np.zeros(3), 0.5, n_dim=3)
    assert abs(v3) == pytest.approx(abs((1.0 / (2.0 * np.pi * 1j * 0.5)) ** 1.5))


def test_propagate_free_matches_spreading_gaussian():
    psi0 = wg.gaussian_packet(1.0, 512, -25.6, 25.6)
    out = wg.propagate_free(psi0, 1.0)
    assert abs(out.norm() - 1.0) <= 1e-8
    q = out.q_grid
    tau = 0.5  # hbar t / (2 m sigma^2)
    want = (
        (2.0 * np.pi) ** (-0.25)
        * (1.0 + 1j * tau) ** (-0.5)
        * np.exp(-(q**2) / (4.0 * (1.0 + 1j * tau)))
    )
    assert np.max(np.abs(out.psi - want)) <= 1e-6
    var = float(np.sum(q**2 * np.abs(out.psi) ** 2) * out.dx)
    assert var == pytest.approx(1.25, rel=1e-8)


@pytest.mark.parametrize("t", [float("nan"), float("inf"), -float("inf")])
def test_propagate_free_rejects_non_finite_time(t):
    with pytest.raises(ValueError):
        wg.propagate_free(wg.gaussian_packet(1.0, 64, -8.0, 8.0), t)


def test_propagate_free_short_time_continuity():
    psi0 = wg.gaussian_packet(1.0, 512, -25.6, 25.6)
    diff = []
    for t in (1e-2, 1e-3):
        out = wg.propagate_free(psi0, t)
        diff.append(np.sqrt(np.sum(np.abs(out.psi - psi0.psi) ** 2) * out.dx))
    assert diff[1] <= 0.15 * diff[0]  # first order in t
    assert diff[1] <= 1e-3


def test_plane_wave_phase_multiplier():
    # a momentum eigen-packet acquires exp(-i p^2 t / 2 m hbar) up to spreading
    n = 512
    psi0 = wg.gaussian_packet(4.0, n, -51.2, 51.2, p_center=2.0)
    t = 0.4
    out = wg.propagate_free(psi0, t)
    # compare the peak of the analytic moving packet
    m, s, p0 = 1.0, 4.0, 2.0
    tau = t / (2.0 * m * s**2)
    q = out.q_grid
    want = (
        (2.0 * np.pi * s**2) ** (-0.25)
        * (1.0 + 1j * tau) ** (-0.5)
        * np.exp(1j * (p0 * q - p0**2 * t / (2.0 * m)))
        * np.exp(-((q - p0 * t / m) ** 2) / (4.0 * s**2 * (1.0 + 1j * tau)))
    )
    assert np.max(np.abs(out.psi - want)) <= 1e-8


# --- stationary values ---------------------------------------------------------------


def test_stat_single_minimum():
    x = np.linspace(-3.0, 4.0, 1001)
    vals = wg.stat_values(x, (x - 1.0) ** 2)
    assert vals == pytest.approx([0.0], abs=1e-12)


def test_stat_no_critical_point():
    x = np.linspace(0.0, 1.0, 200)
    with pytest.raises(NoCriticalPoint):
        wg.stat_values(x, 2.0 * x + 1.0)


def test_stat_multiple_extrema():
    x = np.linspace(-2.5, 2.5, 4001)
    f = x**4 - 2.0 * x**2
    vals = wg.stat_values(x, f)
    assert len(vals) == 2
    # quadratic-fit refinement carries an O(dx^2) bias on quartic data
    assert min(vals) == pytest.approx(-1.0, abs=1e-7)
    assert max(vals) == pytest.approx(0.0, abs=1e-7)


def test_free_sigma_composition():
    m, t1, t2 = 1.0, 0.4, 0.9
    s1 = lambda x, z: m * (x - z) ** 2 / (2.0 * t1)
    s2 = lambda z, y: m * (z - y) ** 2 / (2.0 * t2)
    comp = wg.compose_characteristic(s1, s2, np.linspace(-8.0, 8.0, 2001))
    for (x, y) in [(0.3, -1.2), (2.0, 1.0), (0.0, 0.0)]:
        (got,) = comp(x, y)
        assert got == pytest.approx(m * (x - y) ** 2 / (2.0 * (t1 + t2)), abs=1e-10)


def test_quadratic_overlap_phase():
    s2 = lambda q: 0.5 * 1.3 * (q - 0.4) ** 2
    s1 = lambda q: 0.5 * 0.6 * (q + 0.9) ** 2
    x = np.linspace(-6.0, 6.0, 4001)
    (got,) = wg.stat_values(x, s2(x) - s1(x))
    q0 = (1.3 * 0.4 + 0.6 * 0.9) / (1.3 - 0.6)
    assert got == pytest.approx(s2(q0) - s1(q0), abs=1e-10)


# --- short-wave limits ----------------------------------------------------------------


def test_wkb_mass_concentrates_on_momentum_curve():
    # psi = sqrt(D) exp(i S / hbar) with S = q^2: mass near p = 2 q grows as
    # hbar shrinks
    n = 1024
    q = np.linspace(-8.0, 8.0, n, endpoint=False)
    dens = np.exp(-(q**2) / 2.0) / np.sqrt(2.0 * np.pi)
    fractions = []
    for hbar in (1.0, 0.5, 0.25, 0.125):
        psi = wg.GridWavefunction(
            np.sqrt(dens) * np.exp(1j * q**2 / hbar), q[1] - q[0], q[0], hbar=hbar
        ).normalized()
        w = wg.wigner_transform(psi)
        qq, pp = np.meshgrid(w.q_grid, w.p_grid, indexing="ij")
        tube = np.abs(pp - 2.0 * qq) <= 1.0
        fractions.append(float(np.sum(w.values[tube]) * w.dq * w.dp))
    assert all(b > a - 1e-9 for a, b in zip(fractions, fractions[1:]))
    assert fractions[-1] > 0.95


def test_free_wkb_transport_residuals_shrink_with_hbar():
    # extract D, S from the evolved packet; the Hamilton-Jacobi defect is
    # O(hbar^2) (the quantum correction) and the transport defect stays at
    # discretization level
    n = 1024
    m = 1.0
    t0, dt_fd = 0.5, 1e-4
    hj = {}
    cont = {}
    for hbar in (1.0, 0.5, 0.25):
        psi0 = wg.gaussian_packet(1.0, n, -25.6, 25.6, hbar=hbar)
        states = {
            t: wg.propagate_free(psi0, t) for t in (t0 - dt_fd, t0, t0 + dt_fd)
        }
        mid = len(psi0.psi) // 2
        window = slice(mid - 60, mid + 60)
        q = psi0.q_grid[window]

        def extract(st):
            dens = np.abs(st.psi[window]) ** 2
            phase = np.unwrap(np.angle(st.psi[window])) * hbar
            return dens, phase

        d0, s0 = extract(states[t0])
        dm, sm = extract(states[t0 - dt_fd])
        dp_, sp = extract(states[t0 + dt_fd])
        ds_dt = (sp - sm) / (2.0 * dt_fd)
        dd_dt = (dp_ - dm) / (2.0 * dt_fd)
        dq = psi0.dx
        s_q = np.gradient(s0, dq)
        hj_resid = ds_dt + s_q**2 / (2.0 * m)
        flux = np.gradient(d0 * s_q / m, dq)
        cont_resid = dd_dt + flux
        interior = slice(10, -10)
        hj[hbar] = float(np.max(np.abs(hj_resid[interior])))
        cont[hbar] = float(np.max(np.abs(cont_resid[interior])))
    assert hj[0.5] < 0.5 * hj[1.0]
    assert hj[0.25] < 0.5 * hj[0.5]
    # the transport member holds exactly in the continuum; its finite
    # difference defect stays at discretization level for every hbar
    for hbar in (1.0, 0.5, 0.25):
        assert cont[hbar] <= 2e-4


def test_axis_upsampling_equals_line_by_line():
    vals = np.random.default_rng(2).normal(size=(32, 48)).astype(complex)
    rows = np.stack([wg._upsample2(row) for row in vals])
    cols = np.stack([wg._upsample2(col) for col in vals.T], axis=1)
    npt.assert_array_equal(wg._upsample2(vals), rows)
    npt.assert_array_equal(wg._upsample2(vals, axis=0), cols)
