import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg

from phasecraft import algebra, rigid
from phasecraft.algebra import BilinearForm, GroupElement, adjoint_matrix, group_exp
from phasecraft.errors import NoPotential, SingularMetric
from phasecraft.fixtures import fixture

SO3 = "special-orthogonal"


def identity_state(sigma):
    return rigid.BodyState(GroupElement(np.eye(3), tag=SO3), np.asarray(sigma, float))


def test_legendre_identity_metric():
    model = rigid.InvariantModel(fixture("so3"), BilinearForm(np.eye(3)), "left")
    om = np.array([0.3, -0.7, 1.1])
    npt.assert_array_equal(rigid.legendre(model, om), om)


def test_legendre_principal_moments():
    model = rigid.so3_model((1.0, 2.0, 3.0))
    npt.assert_allclose(rigid.legendre(model, [1.0, 1.0, 1.0]), [1.0, 2.0, 3.0])


def test_legendre_roundtrip_random_spd():
    rng = np.random.default_rng(0)
    for _ in range(10):
        a = rng.normal(size=(3, 3))
        metric = BilinearForm(a @ a.T + 3 * np.eye(3))
        model = rigid.InvariantModel(fixture("so3"), metric, "left")
        om = rng.normal(size=3)
        npt.assert_allclose(
            rigid.legendre_inv(model, rigid.legendre(model, om)), om, atol=1e-12
        )


def test_singular_metric_rejected():
    with pytest.raises(SingularMetric):
        rigid.InvariantModel(fixture("so3"), BilinearForm(np.diag([1.0, 1.0, 0.0])), "left")


@pytest.mark.parametrize("moment", [float("nan"), float("inf")])
def test_so3_model_refuses_a_non_finite_moment(moment):
    # a NaN moment used to build a model whose metric passed as positive-definite,
    # and an infinite one a model whose inverse metric had a zero on the diagonal
    with pytest.raises(ValueError, match="principal moments must be three finite positive reals"):
        rigid.so3_model((1.0, moment, 3.0))


def test_spherical_rhs_vanishes():
    model = rigid.so3_model((2.0, 2.0, 2.0))
    rng = np.random.default_rng(1)
    for _ in range(10):
        st = identity_state(rng.normal(size=3))
        npt.assert_allclose(rigid.euler_rhs(model, st), np.zeros(3), atol=1e-14)


def test_axis_spin_is_stationary():
    model = rigid.so3_model((1.0, 2.0, 3.0))
    st = identity_state([0.0, 0.0, 1.7])
    npt.assert_array_equal(rigid.euler_rhs(model, st), np.zeros(3))


def test_printed_euler_equations_entrywise():
    moments = (1.0, 2.0, 3.0)
    model = rigid.so3_model(moments)
    rng = np.random.default_rng(2)
    for _ in range(20):
        s = rng.normal(size=3)
        got = rigid.euler_rhs(model, identity_state(s))
        i1, i2, i3 = moments
        want = np.array(
            [
                (1 / i3 - 1 / i2) * s[1] * s[2],
                (1 / i1 - 1 / i3) * s[2] * s[0],
                (1 / i2 - 1 / i1) * s[0] * s[1],
            ]
        )
        npt.assert_allclose(got, want, atol=1e-13)
    st = identity_state([1.0, 1.0, 0.0])
    assert rigid.euler_rhs(model, st)[2] == pytest.approx(-0.5)


def test_right_invariant_sign_flip():
    left = rigid.so3_model((1.0, 2.0, 3.0), chirality="left")
    right = rigid.so3_model((1.0, 2.0, 3.0), chirality="right")
    s = np.array([0.3, 0.5, -0.4])
    npt.assert_allclose(
        rigid.euler_rhs(left, identity_state(s)),
        -rigid.euler_rhs(right, identity_state(s)),
        atol=1e-14,
    )


# --- torques ----------------------------------------------------------------


def trace_potential(g):
    return -float(np.trace(g.matrix))


def test_constant_potential_torque_zero():
    model = rigid.so3_model((1.0, 2.0, 3.0), potential=lambda g: 3.0)
    n_spatial, n_comoving = rigid.torque_from_potential(model, GroupElement(np.eye(3), tag=SO3))
    npt.assert_allclose(n_spatial, np.zeros(3), atol=1e-9)
    npt.assert_allclose(n_comoving, np.zeros(3), atol=1e-9)


def test_torque_matches_analytic_gradient():
    # V(R) = -tr(R): dV along exp(t E_a) R is -tr(E_a R), so
    # N_a = tr(eps_a R) and Nhat_a = tr(R eps_a).
    model = rigid.so3_model((1.0, 2.0, 3.0), potential=trace_potential)
    so3 = fixture("so3")
    rng = np.random.default_rng(3)
    for _ in range(10):
        g = group_exp(so3.matrix_of(rng.normal(size=3)), tag=SO3)
        n_spatial, n_comoving = rigid.torque_from_potential(model, g)
        want_spatial = [float(np.trace(e @ g.matrix)) for e in so3.basis]
        want_comoving = [float(np.trace(g.matrix @ e)) for e in so3.basis]
        npt.assert_allclose(n_spatial, want_spatial, atol=1e-8)
        npt.assert_allclose(n_comoving, want_comoving, atol=1e-8)


def test_torque_adjoint_relation():
    model = rigid.so3_model((1.0, 2.0, 3.0), potential=trace_potential)
    so3 = fixture("so3")
    rng = np.random.default_rng(4)
    for _ in range(50):
        g = group_exp(so3.matrix_of(rng.normal(size=3)), tag=SO3)
        n_spatial, n_comoving = rigid.torque_from_potential(model, g)
        npt.assert_allclose(n_comoving, n_spatial @ adjoint_matrix(g, so3), atol=1e-5)


def test_no_potential_error():
    model = rigid.so3_model((1.0, 2.0, 3.0))
    with pytest.raises(NoPotential):
        rigid.torque_from_potential(model, GroupElement(np.eye(3), tag=SO3))


# --- integration -------------------------------------------------------------


def test_zero_momentum_fixed_point():
    model = rigid.so3_model((1.0, 2.0, 3.0))
    st = identity_state(np.zeros(3))
    for method in ("rk4", "lie_midpoint"):
        out = rigid.step(model, st, 1e-2, method=method)
        npt.assert_allclose(out.g.matrix, np.eye(3), atol=1e-14)
        npt.assert_array_equal(out.sigma, np.zeros(3))


def test_spherical_top_exponential_solution():
    model = rigid.so3_model((2.0, 2.0, 2.0))
    so3 = fixture("so3")
    sigma0 = np.array([0.4, -0.3, 0.7])
    st = identity_state(sigma0)
    traj = rigid.integrate(model, st, 1e-3, 1000, method="lie_midpoint", sample_every=1000)
    g_exact = scipy.linalg.expm(so3.matrix_of(sigma0 / 2.0))
    assert np.max(np.abs(traj.states[-1].g.matrix - g_exact)) <= 1e-8
    npt.assert_allclose(traj.states[-1].sigma, sigma0, atol=1e-13)


def test_membership_residual_after_steps():
    model = rigid.so3_model((1.0, 2.0, 3.0))
    st = identity_state([1.0, 0.5, -0.2])
    for method in ("rk4", "lie_midpoint"):
        out = rigid.integrate(model, st, 1e-2, 100, method=method, sample_every=100)
        assert out.states[-1].g.membership_residual() <= 1e-9


def test_rk4_order_against_closed_form():
    model = rigid.so3_model((2.0, 2.0, 2.0))
    so3 = fixture("so3")
    sigma0 = np.array([0.4, -0.3, 0.7])
    g_exact = scipy.linalg.expm(so3.matrix_of(sigma0 / 2.0))
    errs = []
    for dt in (0.05, 0.025):
        traj = rigid.integrate(
            model, identity_state(sigma0), dt, int(round(1.0 / dt)),
            method="rk4", sample_every=10**6,
        )
        errs.append(np.max(np.abs(traj.states[-1].g.matrix - g_exact)))
    assert errs[0] / errs[1] == pytest.approx(16.0, rel=0.1)


def test_free_asymmetric_top_conservation():
    model = rigid.so3_model((1.0, 2.0, 3.0))
    traj = rigid.integrate(model, identity_state([1.0, 1.0, 1.0]), 1e-3, 5000, sample_every=100)
    rep = rigid.conservation_report(model, traj)
    assert rep["energy_drift"] <= 1e-8
    assert rep["casimir_drift"] <= 1e-10
    assert rep["momentum_map_drift"] <= 1e-6


def test_symmetric_top_third_component_frozen():
    model = rigid.so3_model((2.0, 2.0, 1.0))
    traj = rigid.integrate(model, identity_state([0.7, 0.2, 0.5]), 1e-3, 5000, sample_every=250)
    drift = max(abs(s.sigma[2] - 0.5) for s in traj.states)
    assert drift <= 1e-8


def test_midpoint_matches_rk4_short_horizon():
    model = rigid.so3_model((1.0, 2.0, 3.0))
    st = identity_state([0.2, -0.9, 0.4])
    a = rigid.integrate(model, st, 1e-3, 1000, method="rk4", sample_every=10**6)
    b = rigid.integrate(model, st, 1e-3, 1000, method="lie_midpoint", sample_every=10**6)
    npt.assert_allclose(a.states[-1].sigma, b.states[-1].sigma, atol=1e-5)


def test_equivalence_with_coalgebra_flow():
    # euler_rhs (right-invariant) integrated by rk4 equals the linear
    # bracket flow of the kinetic energy integrated identically
    from phasecraft.brackets import PoissonStructure, ScalarField, hamiltonian_vf

    moments = np.array([1.0, 2.0, 3.0])
    model = rigid.so3_model(tuple(moments), chirality="right")
    lp = PoissonStructure.lie_poisson(fixture("so3"))
    ham = ScalarField(3, lambda z: 0.5 * z @ (z / moments), lambda z: z / moments)
    rng = np.random.default_rng(5)
    for _ in range(10):
        z0 = rng.normal(size=3)
        traj = rigid.integrate(model, identity_state(z0), 1e-3, 1000,
                               method="rk4", sample_every=10**6)
        z = z0.copy()
        dt = 1e-3
        for _ in range(1000):
            k1 = hamiltonian_vf(lp, ham, z)
            k2 = hamiltonian_vf(lp, ham, z + 0.5 * dt * k1)
            k3 = hamiltonian_vf(lp, ham, z + 0.5 * dt * k2)
            k4 = hamiltonian_vf(lp, ham, z + dt * k3)
            z = z + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        assert np.max(np.abs(z - traj.states[-1].sigma)) <= 1e-8


# --- equilibria ---------------------------------------------------------------


def test_killing_metric_residual_identically_zero():
    model = rigid.InvariantModel(fixture("so3"), BilinearForm(2.0 * np.eye(3)), "left")
    rng = np.random.default_rng(6)
    for _ in range(1000):
        resid = rigid.relative_equilibria_residual(model, rng.normal(size=3))
        assert np.max(np.abs(resid)) <= 1e-14


def test_axis_and_skew_residuals():
    model = rigid.so3_model((1.0, 2.0, 3.0))
    npt.assert_array_equal(
        rigid.relative_equilibria_residual(model, [1.0, 0.0, 0.0]), np.zeros(3)
    )
    assert np.max(np.abs(rigid.relative_equilibria_residual(model, [1.0, 1.0, 0.0]))) > 0.1


def test_zero_residual_implies_stationary_flow():
    model = rigid.so3_model((1.0, 2.0, 3.0))
    f = np.array([0.0, 1.0, 0.0])
    assert np.max(np.abs(rigid.relative_equilibria_residual(model, f))) == 0.0
    sigma = rigid.legendre(model, f)
    traj = rigid.integrate(model, identity_state(sigma), 1e-3, 1000, sample_every=100)
    drift = max(np.max(np.abs(s.sigma - sigma)) for s in traj.states)
    assert drift <= 1e-9


def test_stationary_spins_distinct_moments():
    cs = rigid.stationary_spins_so3((1.0, 2.0, 3.0), 2.5)
    assert len(cs.points) == 6 and not cs.circles and not cs.sphere
    pts = sorted(tuple(p) for p in cs.points)
    want = set()
    for axis in range(3):
        for sign in (2.5, -2.5):
            v = [0.0, 0.0, 0.0]
            v[axis] = sign
            want.add(tuple(v))
    assert {tuple(np.round(p, 12)) for p in map(np.asarray, pts)} == want
    # integrating from each keeps the momentum fixed
    model = rigid.so3_model((1.0, 2.0, 3.0))
    for p in cs.points:
        traj = rigid.integrate(model, identity_state(p), 1e-3, 1000, sample_every=500)
        assert max(np.max(np.abs(s.sigma - p)) for s in traj.states) <= 1e-9


def test_stationary_spins_symmetric_and_spherical():
    cs = rigid.stationary_spins_so3((2.0, 2.0, 1.0), 1.5)
    assert len(cs.points) == 2
    npt.assert_allclose(np.abs(cs.points[0]), [0.0, 0.0, 1.5], atol=1e-15)
    ((plane, radius, fixed),) = cs.circles
    assert plane == (0, 1) and radius == 1.5 and fixed == 2
    sphere = rigid.stationary_spins_so3((1.0, 1.0, 1.0), 2.0)
    assert sphere.sphere and not sphere.points
    origin = rigid.stationary_spins_so3((1.0, 2.0, 3.0), 0.0)
    assert len(origin.points) == 1
    npt.assert_array_equal(origin.points[0], np.zeros(3))


@pytest.mark.parametrize("moments,s", [
    ((np.nan, 2.0, 3.0), 1.0), ((1.0, np.nan, 3.0), 1.0), ((1.0, 2.0, np.nan), 1.0),
    ((1.0, np.inf, 3.0), 1.0), ((1.0, 2.0, 3.0), np.nan), ((1.0, 2.0, 3.0), np.inf),
], ids=["nan_first", "nan_second", "nan_third", "inf", "spin_nan", "spin_inf"])
def test_stationary_spins_refuse_bad_moments_and_spins(moments, s):
    # each used to pass: min() <= 0 and s < 0 are False for NaN and inf
    with pytest.raises(ValueError, match="principal moments|spin magnitude"):
        rigid.stationary_spins_so3(moments, s)


def test_conservation_report_empty():
    model = rigid.so3_model((1.0, 2.0, 3.0))
    traj = rigid.Trajectory(times=np.array([]), states=[])
    assert rigid.conservation_report(model, traj) == {}


def test_potential_run_conserves_energy():
    model = rigid.so3_model((1.0, 2.0, 3.0), potential=trace_potential)
    traj = rigid.integrate(model, identity_state([0.5, 0.1, -0.3]), 1e-3, 2000,
                           method="lie_midpoint", sample_every=200)
    rep = rigid.conservation_report(model, traj)
    assert rep["energy_drift"] <= 1e-6


@pytest.mark.parametrize("sample_every", [0, -3, 2.5])
def test_integrate_rejects_bad_sample_every(sample_every):
    model = rigid.so3_model((1.0, 2.0, 3.0))
    with pytest.raises(ValueError):
        rigid.integrate(model, identity_state([0.5, 0.1, -0.3]), 1e-3, 10,
                        sample_every=sample_every)


@pytest.mark.parametrize("n_steps", [-5, 2.5, 3.0, "3"])
def test_integrate_refuses_a_bad_step_count(n_steps):
    # a negative count used to return the initial state alone, a fractional
    # one a bare TypeError from range
    model = rigid.so3_model((1.0, 2.0, 3.0))
    with pytest.raises(ValueError, match="step count"):
        rigid.integrate(model, identity_state([0.5, 0.1, -0.3]), 1e-3, n_steps)


@pytest.mark.parametrize("time", [float("nan"), float("inf"), -float("inf")])
def test_body_state_refuses_a_non_finite_time(time):
    # a NaN time was stored, and integrate then failed with "sample times
    # must be strictly increasing"
    with pytest.raises(ValueError, match="^time must be finite"):
        rigid.BodyState(GroupElement(np.eye(3), tag=SO3), np.array([0.5, 0.1, -0.3]), time)


def test_integrate_with_no_steps_returns_the_initial_state():
    model = rigid.so3_model((1.0, 2.0, 3.0))
    state = identity_state([0.5, 0.1, -0.3])
    traj = rigid.integrate(model, state, 1e-3, 0)
    assert traj.states == [state]
    npt.assert_array_equal(traj.times, [0.0])


def test_integrate_refuses_an_unknown_method_before_any_step():
    # with no steps to take it used to return the initial state
    model = rigid.so3_model((1.0, 2.0, 3.0))
    with pytest.raises(ValueError, match="'bogus'"):
        rigid.integrate(model, identity_state([0.5, 0.1, -0.3]), 1e-3, 0, method="bogus")


@pytest.mark.parametrize("method", ["rk4", "lie_midpoint"])
@pytest.mark.parametrize("state,named", [
    (rigid.BodyState(GroupElement(np.eye(3), tag=SO3), np.array([0.5, 0.1])), "sigma"),
    (rigid.BodyState(GroupElement(np.eye(4)), np.array([0.5, 0.1, -0.3])), "g"),
], ids=["sigma_length_2", "g_4x4"])
def test_integrate_names_a_state_that_does_not_fit_the_algebra(state, named, method):
    # both used to fail at the first step with numpy's matmul mismatch
    model = rigid.so3_model((1.0, 2.0, 3.0))
    with pytest.raises(ValueError, match=rf"^{named}\b"):
        rigid.integrate(model, state, 1e-3, 0, method=method)


@pytest.mark.parametrize("method", ["rk4", "lie_midpoint"])
@pytest.mark.parametrize("state,named", [
    (rigid.BodyState(GroupElement(np.eye(3), tag=SO3), np.array([0.5, 0.1])), "sigma"),
    (rigid.BodyState(GroupElement(np.eye(4)), np.array([0.5, 0.1, -0.3])), "g"),
], ids=["sigma_length_2", "g_4x4"])
def test_step_names_a_state_that_does_not_fit_the_algebra(state, named, method):
    # a single step used to end in numpy's matmul mismatch
    model = rigid.so3_model((1.0, 2.0, 3.0))
    with pytest.raises(ValueError, match=rf"^{named}\b"):
        rigid.step(model, state, 1e-3, method=method)


@pytest.mark.parametrize("method", ["rk4", "lie_midpoint"])
@pytest.mark.parametrize("potential", [None, trace_potential], ids=["free", "torque"])
def test_steps_give_read_only_states_and_potential_arguments(potential, method):
    seen = []

    def watched(g):
        seen.append((type(g), g.tag, g.matrix.flags.writeable))
        return potential(g)

    model = rigid.so3_model((1.0, 2.0, 3.0), potential=watched if potential else None)
    traj = rigid.integrate(model, identity_state([0.6, -0.5, 0.62]), 1e-3, 5, method=method)
    for st in traj.states:
        assert not st.sigma.flags.writeable and not st.g.matrix.flags.writeable
        assert st.g.tag == SO3
    if potential:
        rigid.torque_from_potential(model, traj.states[-1].g)
    assert bool(seen) == bool(potential)
    assert set(seen) <= {(GroupElement, SO3, False)}


_C, _S = np.cos(1.0), np.sin(1.0)
_TILTED = GroupElement(np.array([[_C, -_S, 0.0], [_S, _C, 0.0], [0.0, 0.0, 1.0]]), tag=SO3)
_QUARTER_TURN = np.array([np.pi / 4, 0.0, 0.0])  # with dt = 1 and unit moments


@pytest.mark.parametrize("moments,potential,state,method,message", [
    # a torque of ~8e307 overflows the RK4 sum of the momentum stages, while
    # moments of 1e305 keep the rotation slow
    ((1e305,) * 3, lambda g: -5e307 * np.trace(g.matrix), rigid.BodyState(_TILTED, np.zeros(3)),
     "rk4", "momentum"),
    ((1.0, 2.0, 3.0), None, rigid.BodyState(_TILTED, np.full(3, 1e100)), "rk4", "group element"),
    # g0 @ exp(dt Om) adds entries of 1.5e308 (a torque's g_mid at the half step already)
    ((1.0,) * 3, None, rigid.BodyState(GroupElement(np.full((3, 3), 1.5e308)), _QUARTER_TURN),
     "lie_midpoint", "group element"),
    ((1.0,) * 3, trace_potential,
     rigid.BodyState(GroupElement(np.full((3, 3), 1.5e308)), _QUARTER_TURN),
     "lie_midpoint", "group element"),
], ids=["rk4_momentum", "rk4_group", "midpoint_group", "midpoint_torque_group"])
def test_steps_name_an_overflowing_momentum_or_group_element(moments, potential, state, method,
                                                              message):
    with np.errstate(over="ignore", invalid="ignore"):
        model = rigid.so3_model(moments, potential=potential)
        with pytest.raises(ValueError, match=f"{message} has non-finite entries"):
            rigid.step(model, state, 1.0 if method == "lie_midpoint" else 1e-3, method=method)


@pytest.mark.parametrize("method", ["rk4", "lie_midpoint"])
@pytest.mark.parametrize("dt", [float("nan"), float("inf"), 0.0, -1e-3])
def test_step_and_integrate_refuse_a_bad_dt(dt, method):
    # a NaN or infinite dt used to fail later, as NoConvergence or a non-finite group element
    model = rigid.so3_model((1.0, 2.0, 3.0))
    state = identity_state([0.5, 0.1, -0.3])
    with pytest.raises(ValueError, match="dt"):
        rigid.step(model, state, dt, method=method)
    with pytest.raises(ValueError, match="dt"):
        rigid.integrate(model, state, dt, 10, method=method)


def test_midpoint_no_convergence_for_huge_step():
    model = rigid.so3_model((1.0, 2.0, 3.0))
    st = identity_state([50.0, -40.0, 30.0])
    from phasecraft.errors import NoConvergence

    with pytest.raises(NoConvergence):
        rigid.step(model, st, 10.0, method="lie_midpoint")


def test_step_overflow_guard():
    from phasecraft.errors import Overflow

    model = rigid.so3_model((1.0, 1.0, 1.0))
    st = identity_state([1.0e5, 0.0, 0.0])
    with pytest.raises(Overflow):
        rigid.step(model, st, 1.0, method="lie_midpoint")


# --- step kernel: closed-form exponential, per-model tables -------------------

EPS = np.finfo(float).eps


def _axis_rotation(axis, theta):
    i, j = [(1, 2), (2, 0), (0, 1)][axis]
    out = np.eye(3)
    out[i, i] = out[j, j] = np.cos(theta)
    out[i, j], out[j, i] = -np.sin(theta), np.sin(theta)
    return out


@pytest.mark.parametrize("theta", [
    1e-9, algebra._TAYLOR_THETA * (1 - 1e-12), algebra._TAYLOR_THETA,
    algebra._TAYLOR_THETA * (1 + 1e-12), 1.0, np.pi - 1e-6, np.pi, np.pi + 1e-6, 9.99e3,
], ids=["1e-9", "below_switch", "at_switch", "above_switch", "1", "below_pi", "pi",
        "above_pi", "near_guard"])
def test_rodrigues_matches_expm(theta):
    so3 = fixture("so3")
    for axis in range(3):  # exact: a plane rotation by theta
        w = np.zeros(3)
        w[axis] = theta
        npt.assert_allclose(algebra._rodrigues(so3.matrix_of(w)), _axis_rotation(axis, theta),
                            rtol=0, atol=4 * EPS)
    rng = np.random.default_rng(7)
    for _ in range(50):
        u = rng.normal(size=3)
        x = so3.matrix_of(theta * u / np.linalg.norm(u))
        x *= min(1.0, 9.99e3 / np.linalg.norm(x, 1))  # inside the 1e4 guard
        got = algebra._rodrigues(x)
        # expm's own error grows with the norm (scaling and squaring): its
        # orthogonality residual near the guard is ~1e-11, Rodrigues' a few eps
        bound = 4 * EPS * max(1.0, theta) if theta < 4 else 128 * EPS * theta
        assert np.max(np.abs(got - scipy.linalg.expm(x))) <= bound
        assert np.max(np.abs(got.T @ got - np.eye(3))) <= 8 * EPS


def test_closed_form_exponential_keeps_the_guard():
    # the closed form checks the three entries of w; the general path checks the
    # whole matrix: both must refuse the same exponents with the same message
    from phasecraft.errors import Overflow

    so3 = fixture("so3")
    for w in ([1.0e4 + 1.0, 0.0, 0.0], [np.nan, 0.0, 0.0]):
        with pytest.raises(Overflow):
            algebra._rodrigues(so3.matrix_of(w))
    rng = np.random.default_rng(11)
    edge = [[5.0e3, 5.0e3, 0.0], [5.0e3, -5.0e3 - 1e-9, 0.0], [0.0, -1.0e4, 0.0],
            [0.0, 0.0, np.nextafter(1.0e4, 2.0e4)], [np.inf, 0.0, 0.0], [0.0, -np.inf, 0.0],
            [0.0, 0.0, np.nan], [np.nan, np.inf, 1.0], [1e308, 1e308, 0.0]]
    near = [rng.choice([-1.0, 1.0], 3) * rng.dirichlet([1.0, 1.0, 1.0]) * 1.0e4 * f
            for f in (0.999999, 1.000001, 1.5, 2.0) for _ in range(10)]
    for w in edge + near:
        x = np.zeros((3, 3))  # so3.matrix_of would turn 0 * inf into NaN
        for (i, j), wk in zip(((2, 1), (0, 2), (1, 0)), w):
            x[i, j], x[j, i] = wk, -wk
        outcomes = []
        for skew3 in (True, False):
            try:
                with np.errstate(over="ignore"):  # the general 1-norm of 1e308 entries is inf
                    (algebra._rodrigues if skew3 else algebra.expm)(x)
                outcomes.append(None)
            except Overflow as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1], w
    assert so3.matrix_of([1.0, 0.0, 0.0])[2, 1] == 1.0  # the layout filled above


def test_closed_form_chosen_by_the_basis_not_the_label():
    from phasecraft.algebra import LieAlgebraSpec

    so3 = fixture("so3")
    assert rigid.so3_model((1.0, 2.0, 3.0))._skew3
    renamed = LieAlgebraSpec(3, so3.structure, basis=so3.basis, label="rotations")
    assert rigid.InvariantModel(renamed, BilinearForm(np.eye(3)))._skew3
    su2 = tuple(-0.5j * s for s in (np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]),
                                    np.array([[1, 0], [0, -1]])))
    spinors = LieAlgebraSpec(3, so3.structure, basis=su2, label="so3")
    assert not rigid.InvariantModel(spinors, BilinearForm(np.eye(3)))._skew3
    assert not rigid.InvariantModel(fixture("so13"), BilinearForm(np.eye(6)))._skew3


def test_torque_exponentials_come_from_the_table(monkeypatch):
    model = rigid.so3_model((1.0, 2.0, 3.0), potential=trace_potential)
    for (exp_p, exp_m), e in zip(model._torque_exps, model.algebra.basis):
        assert np.array_equal(exp_p, algebra.expm(rigid._TORQUE_STEP * e))
        assert np.array_equal(exp_m, algebra.expm(-rigid._TORQUE_STEP * e))
    calls = []
    general = algebra._scaling_squaring
    monkeypatch.setattr(algebra, "_scaling_squaring",
                        lambda a, norm: calls.append(1) or general(a, norm))
    rigid.integrate(model, identity_state([0.5, 0.1, -0.3]), 1e-3, 20)
    assert calls == []  # the flow of so(3) is Rodrigues', the torque's from the table


def _ref_bracket(model, sigma):
    term = np.einsum("b,d,dab->a", rigid.legendre_inv(model, sigma), sigma,
                     model.algebra.structure)
    return -term if model.chirality == "left" else term


def _ref_torque(model, g):
    h = rigid._TORQUE_STEP
    spatial, comoving = [], []
    for e in model.algebra.basis:
        exp_p, exp_m = scipy.linalg.expm(h * e), scipy.linalg.expm(-h * e)

        def pot(m):
            return model.potential(GroupElement(m, tag=g.tag))

        spatial.append(-(pot(exp_p @ g.matrix) - pot(exp_m @ g.matrix)) / (2.0 * h))
        comoving.append(-(pot(g.matrix @ exp_p) - pot(g.matrix @ exp_m)) / (2.0 * h))
    return np.array(comoving if model.chirality == "left" else spatial)


def _ref_rhs(model, state):
    rhs = _ref_bracket(model, state.sigma)
    return rhs if model.potential is None else rhs + _ref_torque(model, state.g)


def _ref_step(model, state, dt, method):
    """One step as first written: the einsum bracket term, the velocity by
    legendre_inv and matrix_of, a GroupElement and a BodyState in every RK4
    stage and torque exponentials by expm on every call.  The flow
    exponential is the module's (test_rodrigues_matches_expm checks it)."""
    g0, s0 = state.g, state.sigma

    def element(m):
        return GroupElement(m, tag=g0.tag)

    def side(g_mat, x):
        return g_mat @ x if model.chirality == "left" else x @ g_mat

    def velocity(sigma):
        return model.algebra.matrix_of(rigid.legendre_inv(model, sigma))

    if method == "rk4":
        def rate(g_mat, sigma):
            st = rigid.BodyState(element(g_mat), sigma)
            return side(g_mat, velocity(sigma)), _ref_rhs(model, st)

        k1g, k1s = rate(g0.matrix, s0)
        k2g, k2s = rate(g0.matrix + 0.5 * dt * k1g, s0 + 0.5 * dt * k1s)
        k3g, k3s = rate(g0.matrix + 0.5 * dt * k2g, s0 + 0.5 * dt * k2s)
        k4g, k4s = rate(g0.matrix + dt * k3g, s0 + dt * k3s)
        g1 = g0.matrix + (dt / 6.0) * (k1g + 2 * k2g + 2 * k3g + k4g)
        s1 = s0 + (dt / 6.0) * (k1s + 2 * k2s + 2 * k3s + k4s)
        return rigid.BodyState(element(rigid._project_group(g1, g0.tag)), s1, state.time + dt)

    tol = rigid._MIDPOINT_TOL * (1.0 + float(np.max(np.abs(s0))))
    s_mid = s0.copy()
    for _ in range(rigid._MIDPOINT_MAX_ITER):
        rhs = _ref_bracket(model, s_mid)
        if model.potential is not None:
            half = (algebra._rodrigues if model._skew3 else algebra.expm)(0.5 * dt * velocity(s_mid))
            rhs = rhs + _ref_torque(model, element(side(g0.matrix, half)))
        s_next = s0 + 0.5 * dt * rhs
        done = float(np.max(np.abs(s_next - s_mid))) < tol
        s_mid = s_next
        if done:
            break
    else:
        raise AssertionError("reference midpoint iteration did not converge")
    flow = (algebra._rodrigues if model._skew3 else algebra.expm)(dt * velocity(s_mid))
    return rigid.BodyState(element(side(g0.matrix, flow)), 2.0 * s_mid - s0, state.time + dt)


def _so13_top():
    rng = np.random.default_rng(8)
    a = rng.normal(size=(6, 6))
    model = rigid.InvariantModel(fixture("so13"), BilinearForm(np.eye(6) + 0.1 * (a @ a.T) / 6.0))
    sigma = rng.normal(size=6)
    return model, rigid.BodyState(GroupElement(np.eye(4)), 0.25 * sigma / np.linalg.norm(sigma))


@pytest.mark.parametrize("body,method", [
    ("free", "lie_midpoint"), ("free", "rk4"), ("torque", "lie_midpoint"), ("so13", "lie_midpoint"),
])
def test_step_kernel_matches_reference_trajectory(body, method):
    if body == "so13":
        model, state = _so13_top()
    else:
        potential = trace_potential if body == "torque" else None
        model = rigid.so3_model((1.3, 2.1, 2.9), potential=potential)
        sigma = np.array([0.6, -0.5, 0.62]) * (0.8 if body == "torque" else 1.0)
        state = identity_state(sigma)
    ref = state
    traj = rigid.integrate(model, state, 1e-3, 2000, method=method)
    for got in traj.states[1:]:
        ref = _ref_step(model, ref, 1e-3, method)
        assert np.max(np.abs(got.sigma - ref.sigma)) <= 1e-12 * np.max(np.abs(ref.sigma))
        assert np.max(np.abs(got.g.matrix - ref.g.matrix)) <= 1e-12 * np.max(np.abs(ref.g.matrix))
    assert got.time == ref.time
