import numpy as np
import numpy.testing as npt
import pytest

from phasecraft.algebra import group_exp
from phasecraft.brackets import (
    PoissonStructure,
    ScalarField,
    bracket,
    casimir_so3,
    darboux_so3,
    hamiltonian_vf,
    jacobi_residual,
)
from phasecraft.errors import ChartSingular, DimensionMismatch, OriginOrbit
from phasecraft.fixtures import fixture


def quadratic(rng, dim):
    amat = rng.normal(size=(dim, dim))
    amat = 0.5 * (amat + amat.T)
    bvec = rng.normal(size=dim)
    cval = rng.normal()
    return ScalarField(
        dim,
        lambda z, A=amat, b=bvec, c=cval: 0.5 * z @ A @ z + b @ z + c,
        lambda z, A=amat, b=bvec: A @ z + b,
    )


def coordinate(dim, i):
    grad = np.zeros(dim)
    grad[i] = 1.0
    return ScalarField(dim, lambda z, i=i: z[i], lambda z, g=grad: g)


def test_canonical_defining_bracket():
    canon = PoissonStructure.canonical(1)
    q, p = coordinate(2, 0), coordinate(2, 1)
    rng = np.random.default_rng(0)
    for _ in range(10):
        z = rng.normal(size=2)
        assert bracket(canon, q, p, z) == pytest.approx(1.0)
        assert bracket(canon, p, q, z) == pytest.approx(-1.0)


def test_lie_poisson_coordinate_brackets():
    lp = PoissonStructure.lie_poisson(fixture("so3"))
    z1, z2, z3 = (coordinate(3, i) for i in range(3))
    z = np.array([0.3, -1.2, 0.8])
    assert bracket(lp, z1, z2, z) == pytest.approx(z[2])
    assert bracket(lp, z2, z3, z) == pytest.approx(z[0])
    assert bracket(lp, z3, z1, z) == pytest.approx(z[1])


def test_comoving_sign_convention():
    # the co-moving momenta carry the reversed-sign linear bracket
    lp = PoissonStructure.lie_poisson(fixture("so3"), sign=-1.0)
    z1, z2 = coordinate(3, 0), coordinate(3, 1)
    z = np.array([0.5, 0.1, 2.0])
    assert bracket(lp, z1, z2, z) == pytest.approx(-z[2])


def test_antisymmetry_and_self_bracket():
    rng = np.random.default_rng(1)
    for structure in (
        PoissonStructure.canonical(2),
        PoissonStructure.lie_poisson(fixture("so3")),
    ):
        dim = structure.dim
        f, g = quadratic(rng, dim), quadratic(rng, dim)
        for _ in range(10):
            z = rng.normal(size=dim)
            assert bracket(structure, f, f, z) == pytest.approx(0.0, abs=1e-12)
            assert bracket(structure, f, g, z) == pytest.approx(
                -bracket(structure, g, f, z)
            )


def test_leibniz_rule():
    rng = np.random.default_rng(2)
    structures = [
        PoissonStructure.canonical(1),
        PoissonStructure.lie_poisson(fixture("so3")),
        PoissonStructure(
            2, lambda z: np.array([[0.0, 1.0 + z[0] ** 2], [-(1.0 + z[0] ** 2), 0.0]])
        ),
    ]
    for structure in structures:
        dim = structure.dim
        f, g, h = (quadratic(rng, dim) for _ in range(3))
        gh = g * h
        for _ in range(10):
            z = rng.normal(size=dim)
            lhs = bracket(structure, f, gh, z)
            rhs = bracket(structure, f, g, z) * h(z) + g(z) * bracket(structure, f, h, z)
            assert abs(lhs - rhs) <= 1e-6 * (1 + abs(lhs))


def test_dimension_mismatch():
    canon = PoissonStructure.canonical(1)
    f = quadratic(np.random.default_rng(0), 4)
    with pytest.raises(DimensionMismatch):
        bracket(canon, f, f, np.zeros(2))


def test_jacobi_canonical_quadratics():
    rng = np.random.default_rng(3)
    canon = PoissonStructure.canonical(2)
    f, g, h = (quadratic(rng, 4) for _ in range(3))
    pts = [rng.normal(size=4) for _ in range(10)]
    assert jacobi_residual(canon, f, g, h, pts) <= 1e-6


def test_jacobi_lie_poisson_linear():
    rng = np.random.default_rng(4)
    lp = PoissonStructure.lie_poisson(fixture("so3"))
    fields = []
    for _ in range(3):
        b = rng.normal(size=3)
        fields.append(ScalarField(3, lambda z, b=b: b @ z, lambda z, b=b: b))
    pts = [rng.normal(size=3) for _ in range(10)]
    assert jacobi_residual(lp, *fields, pts) <= 1e-8


def test_jacobi_constant_functions():
    lp = PoissonStructure.lie_poisson(fixture("so3"))
    const = ScalarField(3, lambda z: 4.2, lambda z: np.zeros(3))
    assert jacobi_residual(lp, const, const, const, [np.ones(3)]) == 0.0


def test_hamiltonian_vf_free_particle():
    canon = PoissonStructure.canonical(1)
    ham = ScalarField(2, lambda z: 0.5 * z[1] ** 2, lambda z: np.array([0.0, z[1]]))
    z = np.array([0.3, 1.7])
    npt.assert_allclose(hamiltonian_vf(canon, ham, z), [1.7, 0.0], atol=1e-12)


def test_hamiltonian_vf_matches_spatial_euler_equations():
    # the linear-bracket flow of the kinetic energy reproduces the momentum
    # equation of the right-invariant model
    from phasecraft import rigid
    from phasecraft.algebra import GroupElement

    lp = PoissonStructure.lie_poisson(fixture("so3"))
    moments = np.array([1.0, 2.0, 3.0])
    ham = ScalarField(3, lambda z: 0.5 * z @ (z / moments), lambda z: z / moments)
    model = rigid.so3_model(tuple(moments), chirality="right")
    rng = np.random.default_rng(5)
    for _ in range(10):
        z = rng.normal(size=3)
        st = rigid.BodyState(GroupElement(np.eye(3), tag="special-orthogonal"), z)
        npt.assert_allclose(
            hamiltonian_vf(lp, ham, z), rigid.euler_rhs(model, st), atol=1e-12
        )


def test_flow_conserves_hamiltonian():
    canon = PoissonStructure.canonical(1)
    ham = ScalarField(
        2,
        lambda z: 0.5 * (z[0] ** 2 + z[1] ** 2) + 0.25 * z[0] ** 4,
        lambda z: np.array([z[0] + z[0] ** 3, z[1]]),
    )
    z = np.array([0.7, -0.2])
    e0 = ham(z)
    dt = 1e-3
    for _ in range(1000):
        k1 = hamiltonian_vf(canon, ham, z)
        k2 = hamiltonian_vf(canon, ham, z + 0.5 * dt * k1)
        k3 = hamiltonian_vf(canon, ham, z + 0.5 * dt * k2)
        k4 = hamiltonian_vf(canon, ham, z + dt * k3)
        z = z + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    assert abs(ham(z) - e0) <= 1e-8


def test_gradient_validation():
    good = ScalarField(2, lambda z: z[0] ** 2 + z[1], lambda z: np.array([2 * z[0], 1.0]))
    bad = ScalarField(2, lambda z: z[0] ** 2 + z[1], lambda z: np.array([2 * z[0], 2.0]))
    rng = np.random.default_rng(6)
    pts = rng.normal(size=(50, 2))
    assert good.gradient_residual(pts) <= 1e-5
    assert bad.gradient_residual(pts) > 1e-3


def test_casimir_involution():
    lp = PoissonStructure.lie_poisson(fixture("so3"))
    cas = ScalarField(3, casimir_so3, lambda z: 2.0 * z)
    rng = np.random.default_rng(7)
    for _ in range(20):
        f = quadratic(rng, 3)
        z = rng.normal(size=3)
        assert abs(bracket(lp, cas, f, z)) <= 1e-8 * (1 + abs(f(z)))


def test_casimir_coadjoint_invariance():
    from phasecraft.algebra import coadjoint

    so3 = fixture("so3")
    rng = np.random.default_rng(8)
    for _ in range(20):
        z = rng.normal(size=3)
        g = group_exp(so3.matrix_of(rng.normal(size=3)), tag="special-orthogonal")
        assert casimir_so3(coadjoint(g, z, so3)) == pytest.approx(
            casimir_so3(z), abs=1e-10 * (1 + casimir_so3(z))
        )


def test_darboux_axis_point():
    q, p, zc = darboux_so3(np.array([1.0, 0.0, 0.0]))
    assert (q, p, zc) == (0.0, 0.0, 1.0)


def test_darboux_singularities():
    with pytest.raises(ChartSingular):
        darboux_so3(np.array([0.0, 0.0, 0.7]))
    with pytest.raises(OriginOrbit):
        darboux_so3(np.zeros(3))


def _numeric_chart_brackets(z):
    """{q, p}, {q, zc}, {p, zc} of the chart by finite differences of the
    chart functions against the linear bracket."""
    lp = PoissonStructure.lie_poisson(fixture("so3"))
    h = 1e-6 * (1 + np.linalg.norm(z))

    def grad(fun):
        out = np.zeros(3)
        for i in range(3):
            zp, zm = z.copy(), z.copy()
            zp[i] += h
            zm[i] -= h
            out[i] = (fun(zp) - fun(zm)) / (2 * h)
        return out

    gq = grad(lambda w: darboux_so3(w)[0])
    gp = grad(lambda w: darboux_so3(w)[1])
    gz = grad(lambda w: darboux_so3(w)[2])
    gamma = lp.matrix(z)
    return gq @ gamma @ gp, gq @ gamma @ gz, gp @ gamma @ gz


def test_darboux_chart_brackets():
    rng = np.random.default_rng(9)
    count = 0
    while count < 100:
        z = rng.normal(size=3)
        if z[0] ** 2 + z[1] ** 2 < 0.1 or np.linalg.norm(z) < 0.2:
            continue
        qp, qz, pz = _numeric_chart_brackets(z)
        assert abs(qp - 1.0) <= 1e-8
        assert abs(qz) <= 1e-8
        assert abs(pz) <= 1e-8
        count += 1
