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


def test_star_trace_rule(w_ground):
    other = wg.wigner_transform(
        wg.gaussian_packet(0.7, 512, -8.0, 8.0, q_center=0.5, p_center=0.3)
    )
    prod = wg.star_product(w_ground, other)
    lhs = complex(prod.values.sum()) * prod.dq * prod.dp
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


def test_star_conjugation_rule(w_ground):
    other = wg.wigner_transform(
        wg.gaussian_packet(0.7, 512, -8.0, 8.0, q_center=0.5, p_center=0.3)
    )
    ab = wg.star_product(w_ground, other)
    ba = wg.star_product(other, w_ground)
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
