import math
import traceback

import numpy as np
import numpy.testing as npt
import pytest

from phasecraft import affine
from phasecraft.affine import (
    AffineState,
    InertiaModel,
    TwoPolarState,
    assemble_two_polar,
    extended_kinetic_energy,
    geodesic_exponential,
    hamiltonian_affine,
    hamiltonian_standard,
    lattice_dynamics,
    lattice_hamiltonian,
    mn_from_rho_tau,
    quadratic_internal_energy,
    rho_tau_from_mn,
    spin_vorticity,
    standard_internal_energy,
    to_two_polar,
    two_polar,
)
from phasecraft.affine import _DENOM_FLOOR, _skew_tables
from phasecraft.algebra import expm, rk4
from phasecraft.errors import (
    ModelMismatch,
    OrientationReversed,
    Overflow,
    Singular,
    SingularConfiguration,
)


def random_phi(rng, n, min_gap=0.05):
    """Orientation-preserving matrix with separated deformation invariants."""
    while True:
        phi = rng.normal(size=(n, n))
        if abs(np.linalg.det(phi)) < 1e-3:
            continue
        if np.linalg.det(phi) < 0:
            phi[:, 0] *= -1
        tp = two_polar(phi)
        if n == 1 or np.min(-np.diff(tp.q)) > min_gap:
            return phi


# --- kinematics ---------------------------------------------------------------


def test_two_polar_identity():
    tp = two_polar(np.eye(3))
    npt.assert_array_equal(tp.L, np.eye(3))
    npt.assert_array_equal(tp.R, np.eye(3))
    npt.assert_array_equal(tp.q, np.zeros(3))


def test_two_polar_diagonal():
    tp = two_polar(np.diag([2.0, 0.5]))
    npt.assert_allclose(tp.q, [np.log(2.0), -np.log(2.0)], atol=1e-14)
    npt.assert_array_equal(tp.L, np.eye(2))
    npt.assert_array_equal(tp.R, np.eye(2))


def test_two_polar_green_tensor_eigenvalues():
    rng = np.random.default_rng(0)
    for _ in range(20):
        phi = random_phi(rng, 3)
        tp = two_polar(phi)
        lam = np.sort(np.linalg.eigvalsh(phi.T @ phi))[::-1]
        npt.assert_allclose(np.exp(2.0 * tp.q), lam, rtol=1e-10)


def test_two_polar_reconstruction_and_canonical_form():
    rng = np.random.default_rng(1)
    for n in (2, 3, 4):
        for _ in range(15):
            phi = random_phi(rng, n)
            tp = two_polar(phi)
            rec = assemble_two_polar(tp.L, tp.q, tp.R)
            assert np.max(np.abs(rec - phi)) <= 1e-11 * max(1.0, np.max(np.abs(phi)))
            assert np.linalg.det(tp.L) == pytest.approx(1.0, abs=1e-10)
            assert np.linalg.det(tp.R) == pytest.approx(1.0, abs=1e-10)
            assert np.all(np.diff(tp.q) <= 0)
            # roundtrip idempotence on the canonical representative
            again = two_polar(rec)
            npt.assert_allclose(again.L, tp.L, atol=1e-9)
            npt.assert_allclose(again.R, tp.R, atol=1e-9)
            npt.assert_allclose(again.q, tp.q, atol=1e-12)


def test_two_polar_errors_and_degeneracy_flag():
    with pytest.raises(OrientationReversed):
        two_polar(np.diag([1.0, -1.0]))
    with pytest.raises(Singular):
        two_polar(np.zeros((2, 2)))
    assert two_polar(np.eye(2)).degenerate
    assert not two_polar(np.diag([2.0, 1.0])).degenerate


def test_spin_vorticity_symmetric_momentum():
    rng = np.random.default_rng(2)
    phi = random_phi(rng, 3)
    sym = rng.normal(size=(3, 3))
    sym = 0.5 * (sym + sym.T)
    # spatial momentum symmetric -> spin vanishes
    sigma_hat = np.linalg.inv(phi) @ sym @ phi
    st = AffineState(phi=phi, sigma_hat=sigma_hat)
    spin, _ = spin_vorticity(st)
    npt.assert_allclose(spin, np.zeros((3, 3)), atol=1e-12)


def test_spin_vorticity_metric_skewness():
    rng = np.random.default_rng(3)
    for _ in range(10):
        phi = random_phi(rng, 3)
        st = AffineState(phi=phi, sigma_hat=rng.normal(size=(3, 3)))
        a = rng.normal(size=(3, 3))
        g = a @ a.T + 3 * np.eye(3)
        b = rng.normal(size=(3, 3))
        eta = b @ b.T + 3 * np.eye(3)
        spin, vort = spin_vorticity(st, g=g, eta=eta)
        npt.assert_allclose(g @ spin + spin.T @ g, np.zeros((3, 3)), atol=1e-12)
        npt.assert_allclose(eta @ vort + vort.T @ eta, np.zeros((3, 3)), atol=1e-12)


def test_mn_involution():
    rng = np.random.default_rng(4)
    rho = rng.normal(size=(3, 3))
    rho = rho - rho.T
    tau = rng.normal(size=(3, 3))
    tau = tau - tau.T
    m, n = mn_from_rho_tau(rho, tau)
    r2, t2 = rho_tau_from_mn(m, n)
    npt.assert_allclose(r2, rho, atol=1e-14)
    npt.assert_allclose(t2, tau, atol=1e-14)
    # direct substitution example: rho = 0, tau = T
    m0, n0 = mn_from_rho_tau(np.zeros((2, 2)), np.array([[0.0, 1.0], [-1.0, 0.0]]))
    npt.assert_array_equal(m0, [[0.0, -1.0], [1.0, 0.0]])
    npt.assert_array_equal(n0, [[0.0, -1.0], [1.0, 0.0]])


def test_affine_momentum_brackets_via_linear_structure():
    # {Sigma^i_j, Sigma^k_l} = d^i_l Sigma^k_j - d^k_j Sigma^i_l on the
    # matrix coalgebra, realized by the linear bracket of gl(n)
    from phasecraft.brackets import PoissonStructure, ScalarField, bracket
    from phasecraft.fixtures import fixture

    # the printed matrix-momentum rule corresponds to the reversed-sign
    # linear structure under the row-major (i, j) coordinate layout
    gl3 = fixture("gl3")
    lp = PoissonStructure.lie_poisson(gl3, sign=-1.0)
    rng = np.random.default_rng(5)
    n = 3

    def entry(i, j):
        idx = i * n + j
        grad = np.zeros(9)
        grad[idx] = 1.0
        return ScalarField(9, lambda z, k=idx: z[k], lambda z, g=grad: g)

    for _ in range(5):
        z = rng.normal(size=9)
        sig = z.reshape(n, n)
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    for l in range(n):
                        got = bracket(lp, entry(i, j), entry(k, l), z)
                        want = (1.0 if i == l else 0.0) * sig[k, j] - (
                            1.0 if k == j else 0.0
                        ) * sig[i, l]
                        assert got == pytest.approx(want, abs=1e-12)


# --- energies -----------------------------------------------------------------


def test_standard_energy_zero_momenta():
    inert = InertiaModel.standard(2.0, np.diag([1.0, 2.0, 3.0]))
    st = AffineState(phi=np.eye(3), sigma_hat=np.zeros((3, 3)), p=np.zeros(3))
    assert hamiltonian_standard(inert, st) == 0.0


def test_standard_energy_unit_internal_momentum():
    n = 3
    inert = InertiaModel.standard(1.0, np.eye(n))
    # P = Id means sigma_hat = P phi = phi
    st = AffineState(phi=np.eye(n), sigma_hat=np.eye(n))
    assert standard_internal_energy(inert, st) == pytest.approx(n / 2.0)


def test_standard_energy_positive_and_velocity_consistent():
    rng = np.random.default_rng(6)
    for _ in range(10):
        phi = random_phi(rng, 3)
        a = rng.normal(size=(3, 3))
        jmat = a @ a.T + 3 * np.eye(3)
        inert = InertiaModel.standard(1.7, jmat)
        # build momenta from velocities and check the Legendre pairing
        vphi = rng.normal(size=(3, 3))
        p_mat = vphi @ jmat  # P^A_i = g_ij vphi^j_B J^BA with g = Id
        st = AffineState(phi=phi, sigma_hat=(p_mat.T @ phi))
        energy = standard_internal_energy(inert, st)
        assert energy >= 0
        velocity_form = 0.5 * float(np.einsum("iA,jB,AB,ij->", vphi, vphi, jmat, np.eye(3)))
        assert energy == pytest.approx(velocity_form, rel=1e-10)


def test_affine_energy_traceless_symmetric():
    inert = InertiaModel.affine("affine_left", a=1.3)
    s = np.diag([1.0, -1.0, 0.0])
    assert hamiltonian_affine(inert, s) == pytest.approx(np.trace(s @ s) / 2.6)


def test_affine_energy_pure_vorticity_positive():
    inert = InertiaModel(kind="affine_left", inv_a=1.0, inv_c=1.0 / 0.7)
    v = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    got = hamiltonian_affine(inert, v)
    vorticity_part = -np.trace((2.0 * v) @ (2.0 * v)) / (4.0 * 0.7)
    # Tr(V^2)/2a with V itself plus the positive 1/c correction
    assert got == pytest.approx(np.trace(v @ v) / 2.0 + vorticity_part)
    assert vorticity_part > 0


def test_velocity_constants_conversion():
    inert = InertiaModel.affine("affine_left", velocity_constants=(0.0, 1.4, 0.0), dim=3)
    assert inert.inv_a == pytest.approx(1.0 / 1.4)
    assert inert.inv_b == 0.0 and inert.inv_c == 0.0
    gen = InertiaModel.affine("affine_left", velocity_constants=(0.9, 0.4, 0.2), dim=3)
    a = 0.9 + 0.4
    assert gen.inv_a == pytest.approx(1.0 / a)
    assert gen.inv_b == pytest.approx(-0.2 / (a * (a + 3 * 0.2)))
    assert gen.inv_c == pytest.approx(0.9 / (0.9**2 - 0.4**2))


def test_affine_energy_orthogonal_invariance():
    rng = np.random.default_rng(7)
    inert = InertiaModel(kind="affine_left", inv_a=0.8, inv_b=0.3, inv_c=0.5)
    import scipy.linalg

    for _ in range(10):
        s = rng.normal(size=(3, 3))
        k = rng.normal(size=(3, 3))
        o = scipy.linalg.expm(k - k.T)
        before = hamiltonian_affine(inert, s)
        after = hamiltonian_affine(inert, o.T @ s @ o)
        assert after == pytest.approx(before, rel=1e-10)


def test_affine_energy_two_sided_invariance_of_trace_terms():
    # the a and b terms are invariant under any similarity, not only
    # orthogonal ones
    rng = np.random.default_rng(8)
    inert = InertiaModel(kind="affine_left", inv_a=1.1, inv_b=0.4)
    for _ in range(10):
        s = rng.normal(size=(3, 3))
        b = random_phi(rng, 3)
        before = hamiltonian_affine(inert, s)
        after = hamiltonian_affine(inert, np.linalg.inv(b) @ s @ b)
        assert after == pytest.approx(before, rel=1e-9)


@pytest.mark.parametrize("build,named", [
    (lambda: AffineState(phi=np.eye(2), sigma_hat=np.zeros((2, 2)),
                         p=[float("nan"), 0.0]), "p"),
    (lambda: InertiaModel.standard(float("nan"), np.eye(2)), "m"),
    (lambda: InertiaModel.standard(float("inf"), np.eye(2)), "m"),
    (lambda: InertiaModel.standard(1.0, [[1.0, 0.0], [0.0, float("nan")]]), "J"),
    (lambda: InertiaModel.affine("affine_left", a=float("nan")), "a"),
    (lambda: InertiaModel.affine("affine_left", a=float("nan"),
                                 velocity_constants=(0.9, 0.4, 0.2), dim=3), "a"),
    (lambda: InertiaModel.affine("affine_left", velocity_constants=(float("nan"), 0.4, 0.2),
                                 dim=3), "inv_a"),
    (lambda: InertiaModel(kind="affine_right", inv_a=1.0, inv_b=float("inf")), "inv_b"),
], ids=["p_nan", "m_nan", "m_inf", "J_nan", "a_nan", "a_nan_with_velocity_constants",
        "velocity_constant_nan", "inv_b_inf"])
def test_non_finite_momentum_and_inertia_are_refused(build, named):
    # each used to be stored, and a NaN m or p came out of hamiltonian_standard as NaN
    with pytest.raises(ValueError, match=rf"\b{named}\b"):
        build()


@pytest.mark.parametrize("j", [
    [[1.0, 5.0], [0.0, 1.0]], [[2.0, 1e-9], [0.0, 2.0]], np.stack([np.eye(2), np.eye(2)]),
], ids=["upper", "slightly", "stacked"])
def test_inertia_refuses_a_non_symmetric_j(j):
    # cholesky reads the lower triangle only: each of these used to be stored
    with pytest.raises(ValueError, match="J must be symmetric positive-definite"):
        InertiaModel.standard(1.0, j)
    near = np.array([[2.0, 1e-13], [0.0, 2.0]])  # within BilinearForm's tolerance
    npt.assert_array_equal(InertiaModel.standard(1.0, near).J, near)


def test_model_mismatch_errors():
    std = InertiaModel.standard(1.0, np.eye(2))
    aff = InertiaModel.affine("affine_left", a=1.0)
    st = AffineState(phi=np.eye(2), sigma_hat=np.zeros((2, 2)))
    with pytest.raises(ModelMismatch):
        hamiltonian_affine(std, np.zeros((2, 2)))
    with pytest.raises(ModelMismatch):
        hamiltonian_standard(aff, st)


# --- lattice form --------------------------------------------------------------


def test_lattice_free_limit():
    lat = TwoPolarState(
        L=np.eye(2), R=np.eye(2), q=np.array([1.0, -1.0]), p=np.array([0.4, -0.1]),
        M=np.zeros((2, 2)), N=np.zeros((2, 2)),
    )
    want = (0.4**2 + 0.1**2) / (2 * 1.3)
    assert lattice_hamiltonian("hyperbolic", {"a": 1.3}, lat) == pytest.approx(want)


def _pair_potential(m12, n12, r, a=1.0):
    lat = TwoPolarState(
        L=np.eye(2), R=np.eye(2), q=np.array([r / 2, -r / 2]), p=np.zeros(2),
        M=np.array([[0.0, m12], [-m12, 0.0]]), N=np.array([[0.0, n12], [-n12, 0.0]]),
    )
    return lattice_hamiltonian("hyperbolic", {"a": a}, lat)


def test_hyperbolic_effective_potential_signs():
    rs = np.linspace(0.4, 12.0, 200)
    repulsive = np.array([_pair_potential(1.0, 0.8, r) for r in rs])
    assert np.all(repulsive > 0)
    attractive = np.array([_pair_potential(1.0, 1.2, r) for r in rs])
    assert attractive.min() < 0


def test_lattice_homogeneity_in_coupling():
    lat = TwoPolarState(
        L=np.eye(2), R=np.eye(2), q=np.array([0.7, -0.7]), p=np.array([0.2, 0.1]),
        M=np.array([[0.0, 0.5], [-0.5, 0.0]]), N=np.array([[0.0, 0.3], [-0.3, 0.0]]),
    )
    plus = lattice_hamiltonian("hyperbolic", {"a": 2.0}, lat)
    minus = lattice_hamiltonian("hyperbolic", {"a": -2.0}, lat)
    assert minus == pytest.approx(-plus)


def test_lattice_singular_configuration():
    lat = TwoPolarState(
        L=np.eye(2), R=np.eye(2), q=np.array([0.0, 0.0]), p=np.zeros(2),
        M=np.array([[0.0, 1.0], [-1.0, 0.0]]), N=np.zeros((2, 2)),
    )
    with pytest.raises(SingularConfiguration):
        lattice_hamiltonian("hyperbolic", {"a": 1.0}, lat)
    with pytest.raises(SingularConfiguration):
        lattice_hamiltonian("calogero", {"I": 1.0}, lat)
    # a NaN invariant (an RK4 stage; TwoPolarState refuses one) fails the denominator floor
    for variant, params in (("trigonometric", {"a": 1.0}), ("calogero", {"I": 1.0})):
        with pytest.raises(SingularConfiguration):
            affine._lattice_model(variant, params, 2, 0.0, 0.0)[1]([0.5, np.nan], [0.0, 0.0],
                                                                  [0.0], [0.0])
    far = TwoPolarState(L=np.eye(2), R=np.eye(2), q=np.array([800.0, -800.0]))
    for variant, params in (("hyperbolic", {"a": 1.0}), ("calogero", {"I": 1.0})):
        with pytest.raises(Overflow):
            lattice_hamiltonian(variant, params, far)


def test_trigonometric_both_terms_repulsive_signed():
    lat = TwoPolarState(
        L=np.eye(2), R=np.eye(2), q=np.array([0.5, -0.5]), p=np.zeros(2),
        M=np.array([[0.0, 1.0], [-1.0, 0.0]]), N=np.array([[0.0, 1.0], [-1.0, 0.0]]),
    )
    val = lattice_hamiltonian("trigonometric", {"a": 1.0}, lat)
    want = 1.0 / (16.0 * np.sin(0.5) ** 2) + 1.0 / (16.0 * np.cos(0.5) ** 2)
    assert val == pytest.approx(want)


def _to_two_polar_by_entries(state):
    """``to_two_polar`` filling rho and tau one pair (a, b) at a time."""
    kin = two_polar(state.phi)
    sigma = kin.R.T @ state.sigma_hat @ kin.R
    q, n = kin.q, len(kin.q)
    rho, tau = np.zeros((n, n)), np.zeros((n, n))
    for a in range(n):
        for b in range(a + 1, n):
            rho[a, b] = sigma[b, a] * np.exp(q[b] - q[a]) - sigma[a, b] * np.exp(q[a] - q[b])
            tau[a, b] = sigma[a, b] - sigma[b, a]
            rho[b, a], tau[b, a] = -rho[a, b], -tau[a, b]
    return np.diag(sigma), *mn_from_rho_tau(rho, tau)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_to_two_polar_equals_the_entrywise_reference(n):
    rng = np.random.default_rng(70 + n)
    for scale in (1e-3, 1.0, 1e3):
        for _ in range(25):
            state = AffineState(phi=random_phi(rng, n, min_gap=0.0),
                                sigma_hat=scale * rng.normal(size=(n, n)))
            lat, (p, m_mat, n_mat) = to_two_polar(state), _to_two_polar_by_entries(state)
            assert np.array_equal(lat.p, p)
            assert np.array_equal(lat.M, m_mat) and np.array_equal(lat.N, n_mat)


# --- the central equivalences ---------------------------------------------------


@pytest.mark.parametrize("n", [2, 3])
def test_affine_equals_hyperbolic_lattice(n):
    rng = np.random.default_rng(40 + n)
    a_const = 1.3
    inert = InertiaModel.affine("affine_left", a=a_const)
    done = 0
    while done < 100:
        phi = random_phi(rng, n)
        sigma_hat = rng.normal(size=(n, n))
        h_aff = hamiltonian_affine(inert, sigma_hat)
        lat = to_two_polar(AffineState(phi=phi, sigma_hat=sigma_hat))
        h_lat = lattice_hamiltonian("hyperbolic", {"a": a_const}, lat)
        assert abs(h_aff - h_lat) <= 1e-8 * (1.0 + abs(h_aff))
        done += 1


@pytest.mark.parametrize("n", [2, 3])
def test_isotropic_standard_equals_calogero(n):
    rng = np.random.default_rng(50 + n)
    inertia_scalar = 0.6
    inert = InertiaModel.standard(1.0, inertia_scalar * np.eye(n))
    done = 0
    while done < 100:
        phi = random_phi(rng, n)
        p_mat = rng.normal(size=(n, n))
        st = AffineState(phi=phi, sigma_hat=p_mat @ phi)
        h_std = standard_internal_energy(inert, st)
        lat = to_two_polar(st)
        h_cal = lattice_hamiltonian("calogero", {"I": inertia_scalar}, lat)
        assert abs(h_std - h_cal) <= 1e-8 * (1.0 + abs(h_std))
        done += 1


# --- dynamics --------------------------------------------------------------------


def test_free_streaming():
    lat = TwoPolarState(
        L=np.eye(2), R=np.eye(2), q=np.array([1.0, -1.0]), p=np.array([0.3, -0.3]),
        M=np.zeros((2, 2)), N=np.zeros((2, 2)),
    )
    states = lattice_dynamics("hyperbolic", {"a": 2.0}, lat, 1e-2, 100, sample_every=100)
    npt.assert_allclose(states[-1].q, lat.q + lat.p / 2.0 * 1.0, atol=1e-12)
    npt.assert_allclose(states[-1].p, lat.p, atol=1e-14)


def _exponential_oracle(seed):
    rng = np.random.default_rng(seed)
    n, a_const = 3, 1.0
    phi0 = np.eye(n) + 0.3 * rng.normal(size=(n, n))
    if np.linalg.det(phi0) < 0:
        phi0[:, 0] *= -1
    gen = 0.5 * rng.normal(size=(n, n))
    sigma_hat = a_const * gen

    def oracle(t):
        phi_t = geodesic_exponential(phi0, gen, t)
        return to_two_polar(AffineState(phi=phi_t, sigma_hat=sigma_hat))

    return oracle, a_const


def test_lattice_flow_matches_exponential_solution():
    # the doubly invariant model has constant co-moving momentum and an
    # exponential configuration flow; its two-polar image is an exact oracle
    oracle, a_const = _exponential_oracle(3)
    lat0 = oracle(0.0)
    states = lattice_dynamics("hyperbolic", {"a": a_const}, lat0, 1e-3, 500, sample_every=500)
    ref = oracle(0.5)
    assert np.max(np.abs(states[-1].q - ref.q)) <= 1e-10
    assert np.max(np.abs(states[-1].p - ref.p)) <= 1e-10
    assert np.max(np.abs(states[-1].M - ref.M)) <= 1e-10
    assert np.max(np.abs(states[-1].N - ref.N)) <= 1e-10


@pytest.mark.parametrize("n", [2, 3])
def test_lattice_flow_equals_rk4_on_separate_parts(n):
    # reference: RK4 on q, p, M and N as four arrays, stepped with the public
    # lattice_rhs; the flat state of lattice_dynamics must reproduce it bit for bit
    rng = np.random.default_rng(n)
    skew = [a - a.T for a in rng.normal(size=(2, n, n))]
    lat0 = TwoPolarState(L=np.eye(n), R=np.eye(n), q=np.linspace(1.0, -1.0, n),
                         p=rng.normal(size=n), M=skew[0], N=skew[1])

    def rhs(y):
        q, p, m_mat, n_mat = y
        lat = TwoPolarState(L=np.eye(n), R=np.eye(n), q=q, p=p, M=m_mat, N=n_mat)
        return affine.lattice_rhs("hyperbolic", {"a": 1.0}, lat)

    dt, parts = 1e-3, [lat0.q, lat0.p, lat0.M, lat0.N]
    for _ in range(20):
        k1 = rhs(parts)
        k2 = rhs([y + 0.5 * dt * k for y, k in zip(parts, k1)])
        k3 = rhs([y + 0.5 * dt * k for y, k in zip(parts, k2)])
        k4 = rhs([y + dt * k for y, k in zip(parts, k3)])
        parts = [y + (dt / 6.0) * (a + 2 * b + 2 * c + d)
                 for y, a, b, c, d in zip(parts, k1, k2, k3, k4)]
    got = lattice_dynamics("hyperbolic", {"a": 1.0}, lat0, dt, 20, sample_every=20)[-1]
    npt.assert_array_equal(got.q, parts[0])
    npt.assert_array_equal(got.p, parts[1])
    npt.assert_array_equal(got.M, 0.5 * (parts[2] - parts[2].T))
    npt.assert_array_equal(got.N, 0.5 * (parts[3] - parts[3].T))


def _pair_coefficients(variant, params, q):
    """Symmetric n x n matrices c_M, c_N of H's pair part sum_{a<b} c_M M^2 + c_N N^2."""
    if variant == "calogero":
        big_q = np.exp(q)
        rep, att = np.subtract.outer(big_q, big_q), np.add.outer(big_q, big_q)
        scale, sign = 0.25 / params["I"], 1.0
    else:
        half = 0.5 * np.subtract.outer(q, q)
        hyper = variant == "hyperbolic"
        rep, att = (np.sinh(half), np.cosh(half)) if hyper else (np.sin(half), np.cos(half))
        scale, sign = 1.0 / (16.0 * params["a"]), -1.0 if hyper else 1.0
    off = ~np.eye(len(q), dtype=bool)
    rep, att = np.where(off, rep, np.inf), np.where(off, att, np.inf)  # no self-pairs
    return scale / rep**2, sign * scale / att**2


@pytest.mark.parametrize("dilatation_k", [0.0, 3.0])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("variant,params", [
    ("hyperbolic", {"a": 1.3}), ("trigonometric", {"a": 0.8}), ("calogero", {"I": 0.6}),
], ids=["hyperbolic", "trigonometric", "calogero"])
def test_lattice_rhs_matches_full_matrix_commutators(variant, params, n, dilatation_k):
    # the full-matrix form of the rotor flow: with G_M = dH/dM = 2 c_M M and
    # G_N = 2 c_N N, dM = [G_M, M] + [G_N, N] and dN = [G_N, M] + [G_M, N]
    rng = np.random.default_rng(11 * n)
    skew = [a - a.T for a in rng.normal(size=(2, n, n))]
    q = np.linspace(1.2, -1.2, n) + 0.02 * rng.normal(size=n)
    lat = TwoPolarState(L=np.eye(n), R=np.eye(n), q=q, p=rng.normal(size=n), M=skew[0], N=skew[1])
    c_m, c_n = _pair_coefficients(variant, params, q)
    g_m, g_n = 2.0 * c_m * lat.M, 2.0 * c_n * lat.N

    def comm(a, b):
        return a @ b - b @ a

    _, _, d_m, d_n = affine.lattice_rhs(variant, params, lat, dilatation_k=dilatation_k,
                                        dilatation_center=0.2)
    npt.assert_allclose(d_m, comm(g_m, lat.M) + comm(g_n, lat.N), rtol=1e-12, atol=1e-12)
    npt.assert_allclose(d_n, comm(g_n, lat.M) + comm(g_m, lat.N), rtol=1e-12, atol=1e-12)
    if n == 2:  # so(2) is abelian: the couplings of a pair are constants of motion
        assert not d_m.any() and not d_n.any()


@pytest.mark.parametrize("dilatation_k", [0.0, 3.0])
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("variant,params", [
    ("hyperbolic", {"a": 1.3}), ("trigonometric", {"a": 0.8}), ("calogero", {"I": 0.6}),
], ids=["hyperbolic", "trigonometric", "calogero"])
def test_lattice_flow_is_hamiltonian_flow_of_the_energy(variant, params, n, dilatation_k):
    # the RHS against central differences of lattice_hamiltonian: Hamilton's
    # equations on (q, p), and no change of H along the full flow
    rng = np.random.default_rng(7 * n)
    skew = [a - a.T for a in rng.normal(size=(2, n, n))]
    q, p = np.linspace(0.9, -0.9, n) + 0.05 * rng.normal(size=n), rng.normal(size=n)
    well = {"dilatation_k": dilatation_k, "dilatation_center": 0.2}

    def energy(q, p, m_mat, n_mat):
        lat = TwoPolarState(L=np.eye(n), R=np.eye(n), q=q, p=p, M=m_mat, N=n_mat)
        return lattice_hamiltonian(variant, params, lat, **well)

    lat = TwoPolarState(L=np.eye(n), R=np.eye(n), q=q, p=p, M=skew[0], N=skew[1])
    flow = affine.lattice_rhs(variant, params, lat, **well)
    h, unit = 1e-6, np.eye(n)
    dh_dq = [(energy(q + h * e, p, *skew) - energy(q - h * e, p, *skew)) / (2 * h) for e in unit]
    dh_dp = [(energy(q, p + h * e, *skew) - energy(q, p - h * e, *skew)) / (2 * h) for e in unit]
    npt.assert_allclose(flow[0], dh_dp, rtol=1e-7, atol=1e-7)
    npt.assert_allclose(flow[1], -np.asarray(dh_dq), rtol=1e-7, atol=1e-7)
    ahead = [x + h * dx for x, dx in zip((q, p, *skew), flow)]
    behind = [x - h * dx for x, dx in zip((q, p, *skew), flow)]
    rate = (energy(*ahead) - energy(*behind)) / (2 * h)
    scale = sum(float(np.sum(dx * dx)) for dx in flow)
    assert abs(rate) <= 1e-7 * (1.0 + scale)


@pytest.mark.parametrize("dt,steps,sample_every,q", [
    (1e-3, 10, 0, [1.0, -1.0]),
    (-1e-3, 10, 1, [1.0, -1.0]),
    (float("nan"), 10, 1, [1.0, -1.0]),
    (float("inf"), 10, 1, [1.0, -1.0]),
    (1e-3, 10, 1, [1.0, float("nan")]),
], ids=["sample_every_zero", "dt_negative", "dt_nan", "dt_inf", "q_nan"])
def test_lattice_dynamics_rejects_bad_steps_and_states(dt, steps, sample_every, q):
    with pytest.raises(ValueError):  # a NaN q is refused by the state itself
        lat = TwoPolarState(
            L=np.eye(2), R=np.eye(2), q=np.array(q), p=np.zeros(2),
            M=np.array([[0.0, 1.0], [-1.0, 0.0]]), N=np.zeros((2, 2)),
        )
        lattice_dynamics("hyperbolic", {"a": 1.0}, lat, dt, steps, sample_every=sample_every)


@pytest.mark.parametrize("steps", [-3, 2.5, np.float64(4.0)])
def test_lattice_dynamics_refuses_a_bad_step_count(steps):
    # a negative count used to return the initial state alone
    lat = TwoPolarState(
        L=np.eye(2), R=np.eye(2), q=np.array([1.0, -1.0]), p=np.zeros(2),
        M=np.array([[0.0, 1.0], [-1.0, 0.0]]), N=np.zeros((2, 2)),
    )
    with pytest.raises(ValueError, match="step count"):
        lattice_dynamics("hyperbolic", {"a": 1.0}, lat, 1e-3, steps)


def test_lattice_dynamics_with_no_steps_returns_the_initial_state():
    lat = TwoPolarState(
        L=np.eye(2), R=np.eye(2), q=np.array([1.0, -1.0]), p=np.zeros(2),
        M=np.array([[0.0, 1.0], [-1.0, 0.0]]), N=np.zeros((2, 2)),
    )
    assert lattice_dynamics("hyperbolic", {"a": 1.0}, lat, 1e-3, 0) == [lat]


@pytest.mark.parametrize("variant,params,named", [
    ("bogus", {"a": 1.0}, "bogus"),
    ("hyperbolic", {"I": 1.0}, "'a'"),
    ("calogero", {"a": 1.0}, "'I'"),
    ("trigonometric", {"a": 0.0}, "'a'"),
    ("hyperbolic", {"a": float("nan")}, "'a'"),
    ("calogero", {"I": float("inf")}, "'I'"),
], ids=["unknown_variant", "missing_a", "missing_I", "zero_a", "nan_a", "inf_I"])
def test_lattice_model_refuses_a_bad_variant_or_constant(variant, params, named):
    # refused where the model is bound, before any step is taken
    lat = TwoPolarState(
        L=np.eye(2), R=np.eye(2), q=np.array([1.0, -1.0]), p=np.zeros(2),
        M=np.array([[0.0, 1.0], [-1.0, 0.0]]), N=np.zeros((2, 2)),
    )
    with pytest.raises(ValueError, match=named):
        lattice_hamiltonian(variant, params, lat)
    with pytest.raises(ValueError, match=named):
        lattice_dynamics(variant, params, lat, 1e-3, 0)


@pytest.mark.parametrize("well,named", [
    ({"dilatation_k": float("nan")}, "dilatation_k"),
    ({"dilatation_k": float("-inf")}, "dilatation_k"),
    ({"dilatation_k": 1.0, "dilatation_center": float("inf")}, "dilatation_center"),
    ({"dilatation_center": float("nan")}, "dilatation_center"),
], ids=["nan_k", "minus_inf_k", "inf_center", "nan_center_without_well"])
def test_lattice_model_refuses_a_non_finite_well(well, named):
    # refused where the model is bound, not as a NaN energy or an Overflow of the state
    lat = TwoPolarState(
        L=np.eye(2), R=np.eye(2), q=np.array([1.0, -1.0]), p=np.zeros(2),
        M=np.array([[0.0, 1.0], [-1.0, 0.0]]), N=np.zeros((2, 2)),
    )
    with pytest.raises(ValueError, match=named):
        lattice_hamiltonian("hyperbolic", {"a": 1.0}, lat, **well)
    with pytest.raises(ValueError, match=named):
        affine.lattice_rhs("hyperbolic", {"a": 1.0}, lat, **well)
    with pytest.raises(ValueError, match=named):
        lattice_dynamics("hyperbolic", {"a": 1.0}, lat, 1e-3, 5, **well)


@pytest.mark.parametrize("phi,sigma_hat,named", [
    (np.diag([1.0, np.nan]), np.zeros((2, 2)), "phi"),
    (np.diag([np.inf, 1.0]), np.zeros((2, 2)), "phi"),
    (np.eye(2), np.array([[0.0, np.nan], [0.0, 0.0]]), "sigma_hat"),
    (np.eye(3), np.diag([0.0, -np.inf, 0.0]), "sigma_hat"),
], ids=["phi_nan", "phi_inf", "sigma_hat_nan", "sigma_hat_inf"])
def test_affine_state_refuses_non_finite_entries(phi, sigma_hat, named):
    with pytest.raises(ValueError, match=named):
        AffineState(phi=phi, sigma_hat=sigma_hat)


_SKEW = np.array([[0.0, 0.7, -0.2], [-0.7, 0.0, 0.4], [0.2, -0.4, 0.0]])


@pytest.mark.parametrize("fields,named", [
    ({"L": np.eye(3)}, "L"),
    ({"R": np.eye(3)}, "R"),
    ({"q": np.array([[1.0, -1.0]])}, "q"),
    ({"p": np.zeros(3)}, "p"),
    ({"M": np.zeros((3, 3))}, "M"),
    ({"N": _SKEW}, "N"),
    ({"q": np.array([0.5, np.nan])}, "q"),
    ({"p": np.array([np.nan, 0.0])}, "p"),
    ({"p": np.array([0.0, np.inf])}, "p"),
    ({"M": np.array([[0.0, np.nan], [np.nan, 0.0]])}, "M"),
    ({"N": np.array([[0.0, np.inf], [-np.inf, 0.0]])}, "N"),
    ({"L": np.array([[np.nan, 0.0], [0.0, 1.0]])}, "L"),
], ids=["L_3x3", "R_3x3", "q_matrix", "p_length_3", "M_3x3", "N_3x3", "q_nan", "p_nan",
        "p_inf", "M_nan", "N_inf", "L_nan"])
def test_two_polar_state_names_a_misshapen_or_non_finite_field(fields, named):
    # a 3 x 3 L used to fail in numpy broadcasting; a 3 x 3 M or N, a NaN q, p
    # or M, an infinite N and a NaN rotor were stored
    base = dict(L=np.eye(2), R=np.eye(2), q=np.array([1.0, -1.0]), p=np.zeros(2),
                M=np.zeros((2, 2)), N=np.zeros((2, 2)))
    with pytest.raises(ValueError, match=rf"^{named}\b"):
        TwoPolarState(**{**base, **fields})


def test_two_polar_state_keeps_read_only_copies_of_the_callers_arrays():
    # the state used to keep the caller's q: changing it afterwards gave a
    # state whose q ascends
    given = dict(L=np.eye(2), R=np.eye(2), q=np.array([1.0, -1.0]), p=np.zeros(2),
                 M=0.4 * _SKEW[:2, :2], N=np.zeros((2, 2)))
    lat = TwoPolarState(**given)
    kept = {name: getattr(lat, name).copy() for name in given}
    for arr in given.values():
        arr[0] = -5.0
    for name in given:
        npt.assert_array_equal(getattr(lat, name), kept[name])
        assert not getattr(lat, name).flags.writeable


def test_affine_state_and_standard_inertia_keep_read_only_copies_of_the_callers_arrays():
    # both used to keep the caller's arrays: a later edit made phi singular and J
    # not positive-definite under a checked state and model
    given = dict(phi=np.diag([2.0, 0.5]), sigma_hat=np.array([[0.0, 0.3], [-0.1, 0.0]]),
                 p=np.array([0.2, -0.4]))
    state = AffineState(**given)
    j = np.diag([1.0, 2.0])
    model = InertiaModel.standard(1.5, j)
    kept = {name: getattr(state, name).copy() for name in given}
    for arr in (*given.values(), j):
        arr[0] = 0.0
    for name in given:
        npt.assert_array_equal(getattr(state, name), kept[name])
        assert not getattr(state, name).flags.writeable
    npt.assert_array_equal(model.J, np.diag([1.0, 2.0]))
    assert not model.J.flags.writeable


@pytest.mark.parametrize("variant,params,q,sample_every", [
    ("hyperbolic", {"a": 1.0}, [1.5, -1.5], 1),
    ("trigonometric", {"a": 1.3}, [0.6, 0.0, -0.6], 7),
    ("calogero", {"I": 0.9}, [0.5, -0.5], 3),
], ids=["hyperbolic_n2", "trigonometric_n3", "calogero_n2"])
def test_lattice_samples_equal_their_public_rebuild(variant, params, q, sample_every):
    # samples skip the constructor's checks; the public constructor accepts each
    # one and stores the same arrays
    n = len(q)
    rotor = expm(_SKEW[:n, :n])
    lat = TwoPolarState(L=rotor, R=rotor.T, q=np.array(q), p=np.linspace(0.2, -0.1, n),
                        M=0.5 * _SKEW[:n, :n], N=-0.3 * _SKEW[:n, :n])
    states = lattice_dynamics(variant, params, lat, 1e-3, 40, sample_every=sample_every)
    assert len(states) == 1 + -(-40 // sample_every)
    for got in states:
        assert got.L is lat.L and got.R is lat.R and got.degenerate is lat.degenerate
        rebuilt = TwoPolarState(L=got.L, R=got.R, q=got.q, p=got.p, M=got.M, N=got.N,
                                degenerate=got.degenerate)
        for name in ("L", "R", "q", "p", "M", "N"):
            a, b = getattr(got, name), getattr(rebuilt, name)
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


@pytest.mark.parametrize("p,m12,n12", [
    ([0.0, 0.0], 1e160, 1.2), ([0.0, 0.0], 1e160, 1e160), ([1e300, -1e300], 1.0, 1.2),
], ids=["coupling_squared_overflows", "infinite_forces_cancel_to_nan", "sinh_overflows"])
def test_lattice_dynamics_names_an_overflowing_state(p, m12, n12):
    # a NaN stage of an overflowing step must not read as an invariant collision
    lat = TwoPolarState(
        L=np.eye(2), R=np.eye(2), q=np.array([1.5, -1.5]), p=np.array(p),
        M=np.array([[0.0, m12], [-m12, 0.0]]), N=np.array([[0.0, n12], [-n12, 0.0]]),
    )
    with pytest.raises(Overflow):
        lattice_dynamics("hyperbolic", {"a": 1.0}, lat, 1e-3, 10)


@pytest.mark.parametrize("seed", [9, 21, 33])
def test_lattice_flow_oracle_gauge_invariants(seed):
    # the canonical two-polar representative may flip rotor column signs
    # along a continuous motion, so compare the sign-insensitive data:
    # q, p, |M_ab|, |N_ab| and the cross products M_ab N_ab
    oracle, a_const = _exponential_oracle(seed)
    lat0 = oracle(0.0)
    states = lattice_dynamics("hyperbolic", {"a": a_const}, lat0, 1e-3, 500, sample_every=500)
    got, ref = states[-1], oracle(0.5)
    assert np.max(np.abs(got.q - ref.q)) <= 1e-9
    assert np.max(np.abs(got.p - ref.p)) <= 1e-9
    assert np.max(np.abs(np.abs(got.M) - np.abs(ref.M))) <= 1e-9
    assert np.max(np.abs(np.abs(got.N) - np.abs(ref.N))) <= 1e-9
    assert np.max(np.abs(got.M * got.N - ref.M * ref.N)) <= 1e-9


def test_two_particle_couplings_conserved():
    lat = TwoPolarState(
        L=np.eye(2), R=np.eye(2), q=np.array([1.5, -1.5]), p=np.zeros(2),
        M=np.array([[0.0, 1.0], [-1.0, 0.0]]), N=np.array([[0.0, 1.2], [-1.2, 0.0]]),
    )
    states = lattice_dynamics("hyperbolic", {"a": 1.0}, lat, 1e-3, 2000, sample_every=100)
    for s in states:
        assert abs(s.M[0, 1] - 1.0) <= 1e-10
        assert abs(s.N[0, 1] - 1.2) <= 1e-10
    e0 = lattice_hamiltonian("hyperbolic", {"a": 1.0}, lat)
    drift = max(
        abs(lattice_hamiltonian("hyperbolic", {"a": 1.0}, s) - e0) for s in states
    )
    assert drift <= 1e-7 * 2.0  # bound per unit time over t = 2


def test_bound_and_scattering_regimes():
    bound = TwoPolarState(
        L=np.eye(2), R=np.eye(2), q=np.array([1.5, -1.5]), p=np.zeros(2),
        M=np.array([[0.0, 1.0], [-1.0, 0.0]]), N=np.array([[0.0, 1.2], [-1.2, 0.0]]),
    )
    states = lattice_dynamics("hyperbolic", {"a": 1.0}, bound, 1e-3, 20000, sample_every=200)
    seps = np.array([s.q[0] - s.q[1] for s in states])
    assert seps.max() < 4.0  # stays near the well over t = 20

    scat = TwoPolarState(
        L=np.eye(2), R=np.eye(2), q=np.array([3.0, -3.0]), p=np.array([-0.5, 0.5]),
        M=np.array([[0.0, 1.0], [-1.0, 0.0]]), N=np.array([[0.0, 0.8], [-0.8, 0.0]]),
    )
    states = lattice_dynamics("hyperbolic", {"a": 1.0}, scat, 1e-3, 20000, sample_every=200)
    seps = np.array([s.q[0] - s.q[1] for s in states])
    imin = int(np.argmin(seps))
    assert np.all(np.diff(seps[imin:]) > -1e-12)


def test_dilatation_well_keeps_mean_bounded():
    lat = TwoPolarState(
        L=np.eye(2), R=np.eye(2), q=np.array([1.0, -0.5]), p=np.array([0.6, 0.6]),
        M=np.zeros((2, 2)), N=np.zeros((2, 2)),
    )
    free = lattice_dynamics("hyperbolic", {"a": 1.0}, lat, 1e-2, 2000, sample_every=100)
    assert abs(np.mean(free[-1].q)) > 5.0  # dilatational mode streams away
    held = lattice_dynamics(
        "hyperbolic", {"a": 1.0}, lat, 1e-2, 2000, sample_every=100,
        dilatation_k=4.0, dilatation_center=0.25,
    )
    assert all(abs(np.mean(s.q) - 0.25) < 1.0 for s in held)


# --- exponential solutions -------------------------------------------------------


def test_geodesic_exponential_forms_agree():
    rng = np.random.default_rng(10)
    phi0 = random_phi(rng, 3)
    gen_hat = rng.normal(size=(3, 3))
    gen_spatial = phi0 @ gen_hat @ np.linalg.inv(phi0)
    for t in (0.0, 0.3, 1.1):
        a = geodesic_exponential(phi0, gen_hat, t, comoving=True)
        b = geodesic_exponential(phi0, gen_spatial, t, comoving=False)
        assert np.max(np.abs(a - b)) <= 1e-10 * max(1.0, np.max(np.abs(a)))
    npt.assert_array_equal(geodesic_exponential(phi0, np.zeros((3, 3)), 5.0), phi0)


@pytest.mark.parametrize("comoving", [True, False])
def test_geodesic_exponential_keeps_the_group_exp_guard(comoving):
    phi0 = np.eye(2)
    for gen, t in ((np.eye(2), 2.0e4), (np.array([[np.nan, 0.0], [0.0, 0.0]]), 1.0)):
        with pytest.raises(Overflow):  # group_exp refuses the same exponent
            geodesic_exponential(phi0, gen, t, comoving=comoving)


def test_exponential_residual_detects_non_invariant_metric():
    # with the trace-form metric every generator is admissible; a generic
    # left-invariant-only metric restricts the admissible generators
    from phasecraft import rigid
    from phasecraft.fixtures import fixture

    gl2 = fixture("gl2")
    trace_metric = np.zeros((4, 4))
    for i in range(4):
        for j in range(4):
            trace_metric[i, j] = np.trace(gl2.basis[i] @ gl2.basis[j])
    traces = np.array([np.trace(b) for b in gl2.basis])
    trace_metric = 1.3 * trace_metric + 0.4 * np.outer(traces, traces)
    rng = np.random.default_rng(11)
    for _ in range(20):
        f = rng.normal(size=4)
        assert np.max(np.abs(rigid.equilibria_residual(gl2, trace_metric, f))) <= 1e-12

    generic = np.diag([1.0, 2.0, 3.0, 4.0])
    bad = 0
    for _ in range(20):
        f = rng.normal(size=4)
        if np.max(np.abs(rigid.equilibria_residual(gl2, generic, f))) > 1e-6:
            bad += 1
    assert bad > 10


def test_extended_energy_reduces_to_trace_model():
    rng = np.random.default_rng(12)
    phi = random_phi(rng, 3)
    om = rng.normal(size=(3, 3))
    v = rng.normal(size=3)
    got = extended_kinetic_energy(phi, v, om, {"m2": 2.0, "A": 1.1, "B": 0.3})
    want = 0.5 * 2.0 * v @ v + 0.55 * np.trace(om @ om) + 0.15 * np.trace(om) ** 2
    assert got == pytest.approx(want)
    # I2-term equals the isotropic quadratic form with the metric inertia
    got2 = extended_kinetic_energy(phi, np.zeros(3), om, {"I2": 0.9})
    assert got2 == pytest.approx(0.45 * np.sum(om * om))


def test_quadratic_internal_energy_raw_tensor():
    rng = np.random.default_rng(13)
    om = rng.normal(size=(2, 2))
    lten = rng.normal(size=(2, 2, 2, 2))
    got = quadratic_internal_energy(lten, om)
    want = 0.5 * sum(
        lten[b, a, d, c] * om[a, b] * om[c, d]
        for a in range(2) for b in range(2) for c in range(2) for d in range(2)
    )
    assert got == pytest.approx(want)


# ---------------------------------------------------------------------------
# the loop kernel that the generated lattice code replaced, kept verbatim as its oracle


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


def _loop_energy(variant, params, lat, dilatation_k=0.0, dilatation_center=0.0):
    """``lattice_hamiltonian`` as written on the loop kernel."""
    n = lat.n
    q = lat.q.tolist()
    p = lat.p.tolist() if lat.p is not None else [0.0] * n
    zeros = [0.0] * (n * (n - 1) // 2)
    m_up = affine._upper(lat.M) if lat.M is not None else zeros
    n_up = affine._upper(lat.N) if lat.N is not None else zeros
    well, _, dt_dp, terms = _lattice_model(variant, params, dilatation_k, dilatation_center)(q, p)
    # T is quadratic in p, so T = p . dT/dp / 2
    energy = 0.5 * float(np.dot(p, dt_dp)) + well
    pairs = 0.0
    for (c_m, c_n, *_), m, nv in zip(terms, m_up, n_up):
        pairs += c_m * (m * m) + c_n * (nv * nv)
    return energy + pairs


def _loop_energy_parts(kernel, q, p, m_up, n_up):
    """The loop kernel's well energy, dH/dp and pair part of H, in one list."""
    well, _, dt_dp, terms = kernel(q, p)
    pairs = 0.0
    for (c_m, c_n, *_), m, nv in zip(terms, m_up, n_up):
        pairs += c_m * (m * m) + c_n * (nv * nv)
    return [well, *dt_dp, pairs]


def _energy_parts(energy, q, p, m_up, n_up):
    """The same list from a compiled energy."""
    well, dt_dp, pairs = energy(q, p, m_up, n_up)
    return [well, *dt_dp, pairs]


def _bits(values):
    """Floats by their bits: signed zeros apart, NaN equal to NaN."""
    return [float(x).hex() for x in values]


def _outcome(fn, *args):
    """The bits of what ``fn`` returns, or the type and message of what it raises."""
    try:
        out = fn(*args)
    except Exception as exc:  # noqa: BLE001 - the error is the outcome compared
        return type(exc), str(exc)
    return _bits(out) if isinstance(out, list) else out


LATTICE_VARIANTS = [("hyperbolic", {"a": 1.3}), ("trigonometric", {"a": -0.8}),
                    ("calogero", {"I": 0.6})]


def _random_flat_states(n, seed):
    """Seeded flat states: spread invariants, and invariants 1e-6 from a collision
    (for the trigonometric lattice also 1e-6 from a zero of cos(dq/2))."""
    rng = np.random.default_rng(seed)
    pairs = n * (n - 1) // 2
    states = []
    for q in (np.sort(rng.uniform(-1.5, 1.5, n))[::-1],
              0.7 - 1e-6 * np.arange(n) * (1.0 + rng.uniform(size=n)),
              np.array([np.pi - 1e-6, 0.0, -0.5, -0.9, -1.2][:n])):
        rest = rng.normal(scale=2.0, size=n + 2 * pairs)
        states.append([*q.tolist(), *rest.tolist()])
    return states


@pytest.mark.parametrize("dilatation_k", [0.0, 3.0])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("variant,params", LATTICE_VARIANTS,
                         ids=[v for v, _ in LATTICE_VARIANTS])
def test_generated_lattice_code_is_the_loop_kernel_bit_for_bit(variant, params, n,
                                                               dilatation_k):
    flow, energy = affine._lattice_model(variant, params, n, dilatation_k, 0.4)
    kernel = _lattice_model(variant, params, dilatation_k, 0.4)
    reference = _lattice_flow(variant, params, n, dilatation_k, 0.4)
    for seed in range(3):
        for y in _random_flat_states(n, 10 * n + seed):
            assert _outcome(flow, y) == _outcome(reference, y)
            q, p, pair_part = y[:n], y[n:2 * n], y[2 * n:]
            args = (q, p, pair_part[:len(pair_part) // 2], pair_part[len(pair_part) // 2:])
            assert (_bits(_energy_parts(energy, *args))
                    == _bits(_loop_energy_parts(kernel, *args)))
            if all(a > b for a, b in zip(q, q[1:])):
                q_arr, p_arr, m_mat, n_mat = affine._unflatten(n, y)
                lat = TwoPolarState(L=np.eye(n), R=np.eye(n), q=q_arr, p=p_arr, M=m_mat, N=n_mat)
                well_args = (variant, params, lat, dilatation_k, 0.4)
                assert (_bits([lattice_hamiltonian(*well_args)])
                        == _bits([_loop_energy(*well_args)]))


@pytest.mark.parametrize("variant,params", LATTICE_VARIANTS,
                         ids=[v for v, _ in LATTICE_VARIANTS])
def test_lattice_dynamics_is_rk4_on_the_loop_flow_bit_for_bit(variant, params):
    q, p, m_mat, n_mat = affine._unflatten(3, [1.1, 0.2, -0.9, 0.1, -0.3, 0.2,
                                               0.5, -0.4, 0.3, 0.2, 0.1, -0.6])
    lat = TwoPolarState(L=np.eye(3), R=np.eye(3), q=q, p=p, M=m_mat, N=n_mat)
    got = lattice_dynamics(variant, params, lat, 1e-3, 50, sample_every=50, dilatation_k=3.0)[-1]
    want, reference = affine._flat_state(lat), _lattice_flow(variant, params, 3, 3.0, 0.0)
    for _ in range(50):
        want = rk4(reference, want, 1e-3)
    assert _bits(affine._flat_state(got)) == _bits(want)


@pytest.mark.parametrize("dilatation_k", [0.0, 3.0])
@pytest.mark.parametrize("variant,params", LATTICE_VARIANTS,
                         ids=[v for v, _ in LATTICE_VARIANTS])
def test_generated_lattice_code_raises_as_the_loop_kernel(variant, params, dilatation_k):
    # the same error type and message, or the same bits, on every state
    flow, energy = affine._lattice_model(variant, params, 3, dilatation_k, 0.0)
    kernel = _lattice_model(variant, params, dilatation_k, 0.0)
    reference = _lattice_flow(variant, params, 3, dilatation_k, 0.0)
    inf, nan = math.inf, math.nan
    outcomes = {}
    for q in ([0.3, 0.3, -1.0], [0.5, nan, -1.0], [800.0, 0.0, -800.0], [inf, inf, 0.0],
              [inf, 0.0, -1.0], [nan, nan, nan], [1e300, 0.0, -1e300], [0.0, -1.0, -400.0]):
        y = q + [0.2, -0.1, 0.3] + [0.5, -0.4, 0.3, 0.2, 0.1, -0.6]
        outcomes[tuple(q)] = _outcome(flow, y)
        assert outcomes[tuple(q)] == _outcome(reference, y)
        args = (q, y[3:6], y[6:9], y[9:])
        assert _outcome(_energy_parts, energy, *args) == _outcome(_loop_energy_parts, kernel, *args)
    # and the cases name what they stand for
    assert outcomes[0.3, 0.3, -1.0] == (SingularConfiguration, "lattice denominator underflow")
    assert outcomes[0.5, nan, -1.0] == (Overflow, "the lattice state left the float64 range")
    with pytest.raises(SingularConfiguration, match="underflow"):  # the energy keeps the floor
        energy([0.5, nan, -1.0], [0.0] * 3, [0.0] * 3, [0.0] * 3)
    if variant != "trigonometric":  # sinh(400) and exp(800) overflow; sin(400) does not
        assert outcomes[800.0, 0.0, -800.0] == (
            Overflow, "deformation invariants too far apart for the lattice terms")
    if variant == "hyperbolic":  # an RK4 stage whose q is not finite: inf - inf is NaN
        assert outcomes[inf, inf, 0.0] == (Overflow, "the lattice state left the float64 range")
    if variant == "calogero":  # exp(-2 q) of q = -400 overflows
        assert outcomes[0.0, -1.0, -400.0] == (
            Overflow, "kinetic weight exp(-2 q) leaves the float64 range")


def test_a_generated_lattice_line_shows_in_a_traceback():
    flow, _ = affine._lattice_model("hyperbolic", {"a": 1.0}, 2, 0.0, 0.0)
    with pytest.raises(SingularConfiguration) as err:
        flow([0.3, 0.3, 0.0, 0.0, 1.0, 0.0])
    text = "".join(traceback.format_exception(err.value))
    assert "<lattice kernel hyperbolic n=2>" in text
    assert 'raise SingularConfiguration("lattice denominator underflow")' in text


def test_lattice_code_is_compiled_once_per_variant_n_and_well():
    first = affine._lattice_model("trigonometric", {"a": 1.0}, 3, 0.0, 0.0)
    other = affine._lattice_model("trigonometric", {"a": -2.5}, 3, 0.0, 7.0)
    well = affine._lattice_model("trigonometric", {"a": 1.0}, 3, 2.0, 0.0)
    assert [f.__code__ for f in first] == [f.__code__ for f in other]
    assert [f.__code__ for f in first] != [f.__code__ for f in well]
    y = [0.9, 0.1, -0.8, 0.3, -0.2, 0.1, 0.5, -0.4, 0.3, 0.2, 0.1, -0.6]
    assert _bits(other[0](y)) == _bits(_lattice_flow("trigonometric", {"a": -2.5}, 3, 0.0, 7.0)(y))


_PAIR = TwoPolarState(L=np.eye(2), R=np.eye(2), q=np.array([1.0, -1.0]), p=np.array([0.3, 0.1]),
                      M=np.array([[0.0, 1.0], [-1.0, 0.0]]), N=np.array([[0.0, 0.5], [-0.5, 0.0]]))


@pytest.mark.parametrize("variant,params,well,named", [
    ("hyperbolic", {"a": "2"}, {}, "'a'"),
    ("hyperbolic", {"a": True}, {}, "'a'"),
    ("trigonometric", {"a": None}, {}, "'a'"),
    ("hyperbolic", {"a": [1.0]}, {}, "'a'"),
    ("calogero", {"I": "1.5"}, {}, "'I'"),
    ("hyperbolic", {"a": 1.0}, {"dilatation_k": "x"}, "dilatation_k"),
    ("hyperbolic", {"a": 1.0}, {"dilatation_k": 1.0, "dilatation_center": True},
     "dilatation_center"),
    ("trigonometric", {"a": 10**400}, {}, "'a'"),
    ("hyperbolic", {"a": 1.0}, {"dilatation_k": -10**400}, "dilatation_k"),
], ids=["a_string", "a_bool", "a_none", "a_list", "I_string", "k_string", "center_bool",
        "a_int_beyond_float", "k_int_beyond_float"])
def test_lattice_model_refuses_a_constant_that_is_not_a_real_number(variant, params, well,
                                                                    named):
    # float() used to read "2" as 2.0 and True as 1.0, None or [1.0] ended in a TypeError
    # and 10**400 in an OverflowError
    with pytest.raises(ValueError, match=named):
        lattice_hamiltonian(variant, params, _PAIR, **well)
    with pytest.raises(ValueError, match=named):
        affine.lattice_rhs(variant, params, _PAIR, **well)
    with pytest.raises(ValueError, match=named):
        lattice_dynamics(variant, params, _PAIR, 1e-3, 5, **well)


def test_lattice_model_takes_any_real_number_as_a_float():
    want = lattice_hamiltonian("hyperbolic", {"a": 2.0}, _PAIR, dilatation_k=3.0)
    for a, k in ((2, 3), (np.float64(2.0), np.int64(3)), (np.int32(2), np.float32(3.0))):
        assert lattice_hamiltonian("hyperbolic", {"a": a}, _PAIR, dilatation_k=k) == want


def test_lattice_larger_than_the_budget_is_refused_by_n():
    def lattice(n):
        skew = np.triu(np.ones((n, n)), 1)
        return TwoPolarState(L=np.eye(n), R=np.eye(n), q=np.linspace(2.0, -2.0, n),
                             p=np.zeros(n), M=skew - skew.T, N=np.zeros((n, n)))

    n = affine._MAX_LATTICE_N
    assert math.isfinite(lattice_hamiltonian("hyperbolic", {"a": 1.0}, lattice(n)))
    big = lattice(n + 1)
    with pytest.raises(ValueError, match=f"n = {n + 1}"):
        lattice_hamiltonian("hyperbolic", {"a": 1.0}, big)
    with pytest.raises(ValueError, match=f"n = {n + 1}"):
        affine.lattice_rhs("calogero", {"I": 1.0}, big)
    with pytest.raises(ValueError, match=f"n = {n + 1}"):
        lattice_dynamics("trigonometric", {"a": 1.0}, big, 1e-3, 1)
