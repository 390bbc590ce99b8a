import numpy as np
import numpy.testing as npt
import pytest

from phasecraft import algebra as alg
from phasecraft.affine import AffineState, InertiaModel, TwoPolarState
from phasecraft.algebra import (
    BilinearForm,
    GroupElement,
    adjoint,
    adjoint_matrix,
    algebra_from_json,
    algebra_to_json,
    coadjoint,
    gl_basis,
    group_exp,
    jacobi_residual_tensor,
    killing_tensor,
    so_basis,
    structure_from_basis,
)
from phasecraft.ensembles import PhaseRegion
from phasecraft.errors import Degenerate, NotClosed, Overflow
from phasecraft.fixtures import eps3, fixture, fixture_names
from phasecraft.forms import KForm
from phasecraft.rigid import BodyState
from phasecraft.wigner import GridWavefunction, PhaseGrid


def test_gl2_flatland_matrices():
    e11, e12, e21, e22 = gl_basis(2)
    npt.assert_array_equal(e11, [[1, 0], [0, 0]])
    npt.assert_array_equal(e12, [[0, 1], [0, 0]])
    npt.assert_array_equal(e21, [[0, 0], [1, 0]])
    npt.assert_array_equal(e22, [[0, 0], [0, 1]])


def test_gl_basis_small_and_traces():
    (one,) = gl_basis(1)
    npt.assert_array_equal(one, [[1.0]])
    basis = gl_basis(3)
    assert len(basis) == 9
    # diagonal units have unit trace
    for a in range(3):
        assert np.trace(basis[a * 3 + a]) == 1.0


def test_gl2_commutator_structure():
    spec = structure_from_basis(gl_basis(2), label="gl2")
    # [E_1^2, E_2^1] = E_1^1 - E_2^2 : basis order (11, 12, 21, 22)
    coeffs = spec.structure[:, 1, 2]
    npt.assert_allclose(coeffs, [1.0, 0.0, 0.0, -1.0], atol=1e-14)


def test_abelian_identity_basis():
    spec = structure_from_basis([np.eye(1)])
    npt.assert_array_equal(spec.structure, np.zeros((1, 1, 1)))


def test_so3_standard_structure():
    spec = fixture("so3")
    eps = np.zeros((3, 3, 3))
    eps[0, 1, 2] = eps[1, 2, 0] = eps[2, 0, 1] = 1.0
    eps[0, 2, 1] = eps[2, 1, 0] = eps[1, 0, 2] = -1.0
    # C[c][a][b] = eps_abc
    npt.assert_allclose(spec.structure, np.einsum("abc->cab", eps), atol=1e-14)


def test_structure_from_basis_not_closed():
    bad = [np.diag([1.0, 0.0]), np.array([[0.0, 1.0], [0.0, 0.0]]),
           np.array([[0.0, 0.0], [1.0, 0.0]])]
    # {E11, E12, E21} is not closed: [E12, E21] = E11 - E22 leaves the span
    with pytest.raises(NotClosed):
        structure_from_basis(bad)


def test_structure_from_basis_degenerate():
    with pytest.raises(Degenerate):
        structure_from_basis([np.eye(2), 2.0 * np.eye(2)])


def test_so_basis_euclidean_printed_matrices():
    mats = so_basis(np.eye(3))
    by_pair = {(0, 1): mats[0], (0, 2): mats[1], (1, 2): mats[2]}
    npt.assert_array_equal(by_pair[(1, 2)], [[0, 0, 0], [0, 0, 1], [0, -1, 0]])
    npt.assert_array_equal(by_pair[(0, 2)], [[0, 0, 1], [0, 0, 0], [-1, 0, 0]])
    npt.assert_array_equal(by_pair[(0, 1)], [[0, 1, 0], [-1, 0, 0], [0, 0, 0]])


def test_so_basis_lorentz_boost():
    (boost,) = so_basis(np.diag([1.0, -1.0]))
    npt.assert_array_equal(boost, [[0, 1], [1, 0]])


def test_so_basis_skewness_general_signature():
    g = np.diag([1.0, -1.0, -1.0, -1.0])
    for m in so_basis(g):
        npt.assert_allclose(g @ m + m.T @ g, np.zeros((4, 4)), atol=1e-14)


def test_so13_commutation_rules():
    # rotation-rotation and rotation-boost brackets carry -eps; the
    # boost-boost bracket closes back on rotations with +eps.
    spec = fixture("so13")
    eps = np.zeros((3, 3, 3))
    eps[0, 1, 2] = eps[1, 2, 0] = eps[2, 0, 1] = 1.0
    eps[0, 2, 1] = eps[2, 1, 0] = eps[1, 0, 2] = -1.0
    m = spec.basis[:3]
    n = spec.basis[3:]
    for i in range(3):
        for j in range(3):
            want_m = -sum(eps[i, j, k] * m[k] for k in range(3))
            npt.assert_allclose(m[i] @ m[j] - m[j] @ m[i], want_m, atol=1e-13)
            npt.assert_allclose(n[i] @ n[j] - n[j] @ n[i], -want_m, atol=1e-13)
            want_n = -sum(eps[i, j, k] * n[k] for k in range(3))
            npt.assert_allclose(m[i] @ n[j] - n[j] @ m[i], want_n, atol=1e-13)


@pytest.mark.parametrize("name", fixture_names())
def test_fixture_jacobi(name):
    spec = fixture(name)
    scale = 1.0 + max(1.0, float(np.max(np.abs(spec.structure)))) ** 3
    assert jacobi_residual_tensor(spec.structure) <= 1.0e-12 * scale


@pytest.mark.parametrize("name", fixture_names())
def test_fixture_roundtrip_json(name):
    spec = fixture(name)
    back = algebra_from_json(algebra_to_json(spec))
    npt.assert_array_equal(back.structure, spec.structure)
    assert back.dim == spec.dim and back.label == spec.label


def test_structure_from_known_basis_reproduces_tensor():
    for name in ("so3", "sl2", "gl2", "heisenberg"):
        spec = fixture(name)
        again = structure_from_basis(spec.basis)
        npt.assert_allclose(again.structure, spec.structure, atol=1e-12)


def test_killing_so3_is_minus_two_identity():
    gamma = killing_tensor(fixture("so3"))
    npt.assert_allclose(gamma.coeffs, -2.0 * np.eye(3), atol=1e-14)


def test_killing_brute_force_contraction():
    rng = np.random.default_rng(0)
    for name in ("so3", "sl2", "gl2"):
        spec = fixture(name)
        lam, mu = rng.normal(), rng.normal()
        got = killing_tensor(spec, lam, mu).coeffs
        n = spec.dim
        want = np.zeros((n, n))
        for a in range(n):
            for b in range(n):
                for d in range(n):
                    for e in range(n):
                        want[a, b] += lam * spec.structure[d, e, a] * spec.structure[e, d, b]
                want[a, b] += mu * sum(
                    spec.structure[d, d, a] for d in range(n)
                ) * sum(spec.structure[e, e, b] for e in range(n))
        npt.assert_allclose(got, 0.5 * (want + want.T), atol=1e-12)


def test_killing_abelian_zero():
    npt.assert_array_equal(killing_tensor(fixture("abelian2")).coeffs, np.zeros((2, 2)))


def test_killing_trace_term():
    # On gl(2) the trace functional C^d_da vanishes identically (brute-force
    # contraction: ad of the center is zero and traces vanish on the derived
    # algebra), so the mu-term contributes nothing there.
    gamma = killing_tensor(fixture("gl2"), 0.0, 1.0).coeffs
    npt.assert_allclose(gamma, np.zeros((4, 4)), atol=1e-14)
    # A non-unimodular algebra shows the rank-1 trace term: [a, b] = b.
    c = np.zeros((2, 2, 2))
    c[1, 0, 1] = 1.0
    c[1, 1, 0] = -1.0
    affine_line = alg.LieAlgebraSpec(dim=2, structure=c)
    gamma2 = killing_tensor(affine_line, 0.0, 1.0).coeffs
    assert np.linalg.matrix_rank(gamma2, tol=1e-10) == 1


def test_killing_invariance():
    rng = np.random.default_rng(1)
    for name in ("so3", "sl2"):
        spec = fixture(name)
        gamma = killing_tensor(spec).coeffs
        for _ in range(20):
            x, y, z = rng.normal(size=(3, spec.dim))
            lhs = spec.bracket_coords(z, x) @ gamma @ y
            rhs = x @ gamma @ spec.bracket_coords(z, y)
            assert abs(lhs + rhs) <= 1e-10 * (1 + abs(lhs))


@pytest.mark.parametrize("structure,basis", [
    ([[[0.0, np.nan], [-np.nan, 0.0]], [[0.0, 0.0], [0.0, 0.0]]], None),
    (np.zeros((2, 2, 2)), (np.array([[np.nan, 0.0], [0.0, 0.0]]), np.eye(2))),
    (np.zeros((2, 2, 2)), (np.array([[np.inf, 0.0], [0.0, 0.0]]), np.eye(2))),
], ids=["nan_structure", "nan_basis", "inf_basis"])
def test_non_finite_algebra_is_rejected(structure, basis):
    # NaN passes the antisymmetry, Jacobi and basis tolerance tests unseen
    with pytest.raises(ValueError, match="finite"):
        alg.LieAlgebraSpec(2, np.asarray(structure), basis=basis)


def test_group_exp_identity():
    g = group_exp(np.zeros((3, 3)), tag="special-orthogonal")
    npt.assert_allclose(g.matrix, np.eye(3), atol=1e-15)


def test_expm_takes_no_closed_form_switch():
    # the closed form is the rigid step's choice, made once per model from its basis
    with pytest.raises(TypeError):
        alg.expm(np.eye(3), True)
    npt.assert_allclose(alg.expm(np.eye(3)), np.e * np.eye(3), rtol=1e-15, atol=0)


def test_group_exp_rodrigues():
    theta = 0.73
    g = group_exp(theta * eps3()[2], tag="special-orthogonal")
    rot = np.array(
        [[np.cos(theta), -np.sin(theta), 0.0],
         [np.sin(theta), np.cos(theta), 0.0],
         [0.0, 0.0, 1.0]]
    )
    npt.assert_allclose(g.matrix, rot, atol=1e-13)
    assert g.membership_residual() <= 1e-12


def test_group_exp_nilpotent_polynomial():
    x = np.array([[0.0, 1.3, -0.4], [0.0, 0.0, 2.0], [0.0, 0.0, 0.0]])
    series = np.eye(3) + x + x @ x / 2.0
    npt.assert_allclose(group_exp(x).matrix, series, atol=1e-14)


def test_group_exp_overflow():
    with pytest.raises(Overflow):
        group_exp(2.0e4 * np.eye(2))


EPS = np.finfo(float).eps


def _exponent_families(rng):
    """One matrix of each kind that ``expm`` is tested on, as a function of
    the random generator: real and complex n = 2...5 and combinations of the
    so(1,3) and gl(3) bases."""
    so13, gl3 = fixture("so13").basis, gl_basis(3)
    for n in range(2, 6):
        yield rng.normal(size=(n, n))
        yield rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    for basis in (so13, gl3):
        yield sum(c * e for c, e in zip(rng.normal(size=len(basis)), basis))


@pytest.mark.parametrize("norm,degree,squarings", [
    (1e-8, 3, 0), (1e-3, 3, 0), (0.1, 5, 0), (0.5, 7, 0), (1.0, 9, 0), (3.0, 13, 0),
    (10.0, 13, 1), (50.0, 13, 4),
])
def test_expm_matches_a_50_digit_reference(monkeypatch, norm, degree, squarings):
    mpmath = pytest.importorskip("mpmath")
    import scipy.linalg

    pade = alg._pade
    seen = []
    monkeypatch.setattr(alg, "_pade", lambda a, m: seen.append((m, a)) or pade(a, m))
    rng = np.random.default_rng(23)
    with mpmath.workdps(50):
        for _ in range(3):  # 30 matrices per norm
            for x in _exponent_families(rng):
                x = x * (norm / np.linalg.norm(x, 1))
                seen.clear()
                got = alg.expm(x)
                (m, a), = seen
                assert m == degree
                npt.assert_allclose(np.linalg.norm(x, 1) / np.linalg.norm(a, 1), 2.0 ** squarings,
                                    rtol=1e-12)
                ref = np.array(mpmath.expm(mpmath.matrix(x.tolist())).tolist(), dtype=complex)
                scale = np.max(np.abs(ref))
                assert np.max(np.abs(got - ref)) <= 8 * EPS * max(1.0, norm) * scale
                if norm <= 1.0:
                    assert np.max(np.abs(got - scipy.linalg.expm(x))) <= 8 * EPS * scale
                assert got.dtype == (complex if np.iscomplexobj(x) else float)


def test_adjoint_identity_map():
    spec = fixture("so3")
    g = GroupElement(np.eye(3), tag="special-orthogonal")
    npt.assert_allclose(adjoint_matrix(g, spec), np.eye(3), atol=1e-14)


@pytest.mark.parametrize("name,tag", [("so3", "special-orthogonal"), ("so13", "general-linear")])
def test_adjoint_matrix_columns_are_the_adjoint_action(name, tag):
    # one inverse per call must give the bits of Ad_g applied to each basis element
    spec = fixture(name)
    rng = np.random.default_rng(5)
    g = group_exp(spec.matrix_of(rng.normal(size=spec.dim)), tag=tag)
    want = np.stack([spec.coords_of(adjoint(g, e)) for e in spec.basis], axis=1)
    npt.assert_array_equal(adjoint_matrix(g, spec), want)


def test_adjoint_rotation_mixes_generators():
    spec = fixture("so3")
    theta = 0.31
    g = group_exp(theta * eps3()[2], tag="special-orthogonal")
    got = adjoint(g, eps3()[0])
    want = np.cos(theta) * eps3()[0] + np.sin(theta) * eps3()[1]
    npt.assert_allclose(got, want, atol=1e-12)
    npt.assert_allclose(spec.coords_of(got), [np.cos(theta), np.sin(theta), 0.0], atol=1e-12)


def test_adjoint_preserves_brackets():
    rng = np.random.default_rng(2)
    for name in ("so3", "sl2", "gl2"):
        spec = fixture(name)
        for _ in range(100):
            xv, yv = rng.normal(size=(2, spec.dim))
            g = group_exp(spec.matrix_of(0.5 * rng.normal(size=spec.dim)))
            lhs = adjoint(g, spec.matrix_of(spec.bracket_coords(xv, yv)))
            ax = adjoint(g, spec.matrix_of(xv))
            ay = adjoint(g, spec.matrix_of(yv))
            npt.assert_allclose(lhs, ax @ ay - ay @ ax, atol=1e-10)


def test_coadjoint_orbit_radius_conserved():
    spec = fixture("so3")
    rng = np.random.default_rng(3)
    for _ in range(30):
        z = rng.normal(size=3)
        g = group_exp(spec.matrix_of(rng.normal(size=3)), tag="special-orthogonal")
        z2 = coadjoint(g, z, spec)
        assert abs(z2 @ z2 - z @ z) <= 1e-10 * (1 + z @ z)


def test_bilinear_form_inverse_cached():
    form = BilinearForm(np.diag([1.0, 2.0, 3.0]))
    npt.assert_allclose(form.coeffs @ form.inverse, np.eye(3), atol=1e-12)
    singular = BilinearForm(np.zeros((2, 2)))
    assert singular.inverse is None
    # the inverse is always derived from the coefficients, never given
    with pytest.raises(TypeError):
        BilinearForm(np.eye(2), inverse=np.eye(2))


@pytest.mark.parametrize("coeffs", [np.diag([1.0, np.nan, 1.0]), np.diag([1.0, np.inf, 1.0]),
                                    np.full((2, 2), np.nan)], ids=["nan", "inf", "all_nan"])
def test_bilinear_form_refuses_non_finite_coefficients(coeffs):
    # a NaN form used to pass as positive-definite, and diag(1, inf, 1) got the
    # inverse diag(1, 0, 1)
    with pytest.raises(ValueError, match="^coeffs has non-finite entries"):
        BilinearForm(coeffs)


def test_group_membership_orthogonal_tag():
    g = GroupElement(np.eye(3) * 1.001, tag="special-orthogonal")
    assert g.membership_residual() > 1e-9


def test_fixture_names_are_the_shipped_documents():
    # a document missing from a checkout would shrink every test over fixture_names()
    assert fixture_names() == [
        "abelian1", "abelian2", "euclidean3", "galilei", "gl2", "gl3",
        "heisenberg", "heisenberg_rot", "sl2", "so13", "so3",
    ]


def _rotation_rules(name, i0, j0, k0, symbol):
    """``[X_i, Y_j] = eps_ijk Z_k`` for the index offsets of X, Y and Z."""
    eps = {(0, 1, 2): 1.0, (1, 2, 0): 1.0, (2, 0, 1): 1.0,
           (0, 2, 1): -1.0, (2, 1, 0): -1.0, (1, 0, 2): -1.0}
    return [pytest.param(name, i0 + i, j0 + j, {k0 + k: eps.get((i, j, k), 0.0) for k in range(3)},
                         id=f"{name}:{symbol}{i + 1}{j + 1}")
            for i in range(3) for j in range(3)]


# (fixture, a, b, coordinates of [e_a, e_b]): the rules that the docstring of
# phasecraft.fixtures states and no other test checks
@pytest.mark.parametrize("name,a,b,coords", [
    pytest.param("sl2", 0, 1, {1: 2.0}, id="sl2:[h,e]=2e"),
    pytest.param("sl2", 0, 2, {2: -2.0}, id="sl2:[h,f]=-2f"),
    pytest.param("sl2", 1, 2, {0: 1.0}, id="sl2:[e,f]=h"),
    *[pytest.param("heisenberg", 1 + j, 4 + k, {0: float(j == k)},
                   id=f"heisenberg:[Q{j + 1},P{k + 1}]") for j in range(3) for k in range(3)],
    *_rotation_rules("heisenberg_rot", 7, 1, 1, "[J,Q]"),
    *_rotation_rules("heisenberg_rot", 7, 4, 4, "[J,P]"),
    *[pytest.param("galilei", 4 + i, 0, {1 + i: 1.0}, id=f"galilei:[K{i + 1},H]")
      for i in range(3)],
    *[pytest.param("galilei", 4 + i, 1 + j, {}, id=f"galilei:[K{i + 1},P{j + 1}]")
      for i in range(3) for j in range(3)],
    *_rotation_rules("euclidean3", 3, 0, 0, "[J,P]"),
])
def test_fixture_bracket_rules(name, a, b, coords):
    spec = fixture(name)
    unit = np.eye(spec.dim)
    want = np.zeros(spec.dim)
    for k, value in coords.items():
        want[k] = value
    npt.assert_array_equal(spec.bracket_coords(unit[a], unit[b]), want)


def test_fixture_bases_are_the_library_bases():
    for n in (2, 3):
        npt.assert_array_equal(fixture(f"gl{n}").basis, gl_basis(n))
    # so_basis on (+---) orders eps^{ab}, a < b, as (01),(02),(03),(12),(13),(23)
    n1, n2, n3, m3, m2, m1 = so_basis(np.diag([1.0, -1.0, -1.0, -1.0]))
    npt.assert_array_equal(fixture("so13").basis, [-m1, m2, -m3, n1, n2, n3])


def test_eps3_returns_copies_of_the_so3_basis():
    first = eps3()
    npt.assert_array_equal(first, fixture("so3").basis)
    first[0][0, 0] = 5.0
    assert fixture("so3").basis[0][0, 0] == 0.0


def test_cached_fixture_bases_are_read_only():
    with pytest.raises(ValueError, match="read-only"):
        fixture("so3").basis[0][0, 0] = 5.0
    assert fixture("so3").basis[0][0, 0] == 0.0
    assert all(not m.flags.writeable for m in fixture("so13").basis)
    assert eps3()[0].flags.writeable


def test_user_basis_is_copied_before_it_is_frozen():
    mats = eps3()
    spec = alg.LieAlgebraSpec(3, fixture("so3").structure, basis=tuple(mats))
    assert not spec.basis[0].flags.writeable and mats[0].flags.writeable


def _rk4_reference(rate, y, dt):
    """One classical RK4 step written out, component by component."""
    k1 = rate(y)
    k2 = rate([u + 0.5 * dt * v for u, v in zip(y, k1)])
    k3 = rate([u + 0.5 * dt * v for u, v in zip(y, k2)])
    k4 = rate([u + dt * v for u, v in zip(y, k3)])
    return [u + (dt / 6.0) * (a + 2 * b + 2 * c + d) for u, a, b, c, d in zip(y, k1, k2, k3, k4)]


def _pendulum(y):
    q, p = y
    return [p, -np.sin(q)]


def _rotating_cloud(y):
    z, s = y
    return [np.stack([s[0] * z[:, 1], -s[1] * z[:, 0]], axis=1), -0.1 * s * s]


@pytest.mark.parametrize("rate,y0", [
    (_pendulum, [0.7, -0.2]),
    (_rotating_cloud, [np.random.default_rng(3).normal(size=(5, 2)), np.array([1.3, 0.4])]),
], ids=["floats", "arrays"])
def test_rk4_is_the_classical_scheme(rate, y0):
    dt, n = 0.03, 7
    one = alg.rk4(rate, y0, dt)
    for got, want in zip(one, _rk4_reference(rate, y0, dt)):
        assert np.array_equal(got, want)
    stepped = y0
    for _ in range(n):
        stepped = alg.rk4(rate, stepped, dt)
    for got, want in zip(alg.rk4(rate, y0, dt, steps=n), stepped):
        assert np.array_equal(got, want)


# --- one array rule for every value type ---------------------------------------------


def _so3_parts():
    so3 = fixture("so3")
    return dict(dim=3, structure=np.array(so3.structure), basis=tuple(map(np.array, so3.basis)))


_VALUE_TYPES = [  # (type, fresh valid arguments, its array fields)
    (AffineState, lambda: dict(phi=np.diag([2.0, 0.5]), sigma_hat=np.ones((2, 2)),
                               p=np.ones(2)), ("phi", "sigma_hat", "p")),
    (InertiaModel, lambda: dict(kind="standard", J=np.diag([1.0, 2.0])), ("J",)),
    (TwoPolarState, lambda: dict(L=np.eye(2), R=np.eye(2), q=np.array([1.0, -1.0]),
                                 p=np.ones(2), M=np.zeros((2, 2)), N=np.zeros((2, 2))),
     ("L", "R", "q", "p", "M", "N")),
    (alg.LieAlgebraSpec, _so3_parts, ("structure", "basis")),
    (BilinearForm, lambda: dict(coeffs=np.diag([1.0, 2.0, 3.0])), ("coeffs",)),
    (GroupElement, lambda: dict(matrix=np.eye(3)), ("matrix",)),
    (KForm, lambda: dict(dim=2, degree=1, coeffs=np.array([1.0, 2.0])), ("coeffs",)),
    (BodyState, lambda: dict(g=GroupElement(np.eye(3)), sigma=np.ones(3)), ("sigma",)),
    (GridWavefunction, lambda: dict(psi=np.ones(8, dtype=complex), dx=0.5, q0=-2.0), ("psi",)),
    (PhaseGrid, lambda: dict(values=np.ones((4, 4)), dq=1.0, dp=1.0, q0=0.0, p0=0.0),
     ("values",)),
    (PhaseRegion, lambda: dict(bounds=np.array([[0.0, 1.0], [-1.0, 1.0]])), ("bounds",)),
]


def _first_array(value):
    """The array itself, or the first matrix of a basis."""
    return value[0] if isinstance(value, tuple) else value


@pytest.mark.parametrize("cls,arguments,field", [
    (cls, arguments, field) for cls, arguments, fields in _VALUE_TYPES for field in fields
], ids=[f"{cls.__name__}.{field}" for cls, _, fields in _VALUE_TYPES for field in fields])
def test_value_types_refuse_nan_and_keep_read_only_copies(cls, arguments, field):
    # AffineState and InertiaModel kept the caller's arrays; BilinearForm, KForm
    # of degree 1 and PhaseGrid accepted NaN; the other types' messages did not
    # begin with the field's name
    given = arguments()
    _first_array(given[field]).flat[0] = np.nan
    with pytest.raises(ValueError, match=rf"^{field} has non-finite entries"):
        cls(**given)
    given = arguments()
    stored = _first_array(getattr(cls(**given), field))
    kept = stored.copy()
    _first_array(given[field]).flat[0] = 7.0
    npt.assert_array_equal(stored, kept)
    assert not stored.flags.writeable
