"""Acceptance criteria 01-13: one registry behind the test suite and selftest.

Each criterion is a function ``criterion_NN_<topic>(seed, quick)`` that
returns check records ``{name, value, bound, pass}`` with ``pass`` meaning
``value <= bound``.  ``seed`` feeds every random draw of the criterion.
``quick`` shrinks only the criteria whose full size costs more than about
half a second (02, 03, 07, 11); every bound is the same in both modes.
``CRITERIA`` pairs each function with its number NN, which picks its seed.

``tests/test_acceptance.py`` runs the registry at full size with seed
``100 + NN``; ``phasecraft selftest`` runs it at quick size.
"""

from __future__ import annotations

import math

import numpy as np

from . import affine, ensembles, forms, rigid
from . import wigner as wg
from .algebra import BilinearForm, GroupElement
from .brackets import PoissonStructure, ScalarField, bracket, darboux_so3, jacobi_residual
from .fixtures import fixture

_SO3 = "special-orthogonal"


def check(name: str, value: float, bound: float) -> dict:
    """The record of one check; it passes when ``value <= bound``."""
    return {
        "name": name,
        "value": value,
        "bound": bound,
        "pass": bool(value <= bound),
    }


def _quadratic_field(rng, dim):
    # unit-scale observables: Frobenius-normalized hessians keep the
    # finite-difference truncation of nested brackets well below the bound
    amat = rng.normal(size=(dim, dim)) / np.sqrt(dim)
    amat = 0.5 * (amat + amat.T)
    bvec = rng.normal(size=dim) / np.sqrt(dim)
    return ScalarField(
        dim,
        lambda z, A=amat, b=bvec: 0.5 * z @ A @ z + b @ z,
        lambda z, A=amat, b=bvec: A @ z + b,
    )


def criterion_01_bracket_identities(seed, quick):
    rng = np.random.default_rng(seed)
    structures = [
        PoissonStructure.canonical(1),
        PoissonStructure.canonical(2),
        PoissonStructure.canonical(3),
        PoissonStructure.lie_poisson(fixture("so3")),
        PoissonStructure.lie_poisson(fixture("gl3")),
    ]
    worst = 0.0
    for structure in structures:
        dim = structure.dim
        for _ in range(20):
            f, g, h = (_quadratic_field(rng, dim) for _ in range(3))
            pts = [rng.normal(size=dim) / np.sqrt(dim) for _ in range(3)]
            worst = max(worst, jacobi_residual(structure, f, g, h, pts))
    return [check("jacobi residual, 100 quadratic triples", worst, 1.0e-6)]


def criterion_02_free_top_conservation(seed, quick):
    model = rigid.so3_model((1.0, 2.0, 3.0))
    state = rigid.BodyState(
        GroupElement(np.eye(3), tag=_SO3), np.array([1.0, 1.0, 1.0])
    )
    traj = rigid.integrate(model, state, 1.0e-3, 2_000 if quick else 10_000,
                           method="lie_midpoint", sample_every=100)
    energy = traj.diagnostics["energy"]
    casimir = np.sqrt(traj.diagnostics["casimir"])  # |sigma|
    spatial = traj.diagnostics["momentum_map"]
    e_drift = float(np.max(np.abs(energy - energy[0]))) / abs(energy[0])
    c_drift = float(np.max(np.abs(casimir - casimir[0]))) / abs(casimir[0])
    s_drift = float(np.max(np.abs(spatial - spatial[0]))) / float(
        np.max(np.abs(spatial[0]))
    )
    return [
        check("free top energy drift", e_drift, 1.0e-8),
        check("free top |sigma| drift", c_drift, 1.0e-10),
        check("free top spatial momentum drift", s_drift, 1.0e-6),
    ]


def criterion_03_symmetric_top(seed, quick):
    model = rigid.so3_model((2.0, 2.0, 1.0))
    state = rigid.BodyState(
        GroupElement(np.eye(3), tag=_SO3), np.array([0.8, 0.3, 0.6])
    )
    traj = rigid.integrate(model, state, 1.0e-3, 2_000 if quick else 10_000,
                           method="lie_midpoint", sample_every=200)
    drift = max(abs(s.sigma[2] - 0.6) for s in traj.states)
    return [check("symmetric top third component drift", drift, 1.0e-8)]


def criterion_04_stationary_spins(seed, quick):
    s = 1.0
    critical = rigid.stationary_spins_so3((1.0, 2.0, 3.0), s)
    records = [check("six isolated points, no circles",
                     abs(len(critical.points) - 6) + len(critical.circles), 0.0)]
    axis_defect = 0.0
    for p in critical.points:
        idx = int(np.argmax(np.abs(p)))
        want = np.zeros(3)
        want[idx] = np.sign(p[idx]) * s
        axis_defect = max(axis_defect, float(np.max(np.abs(p - want))))
    records.append(check("axis points match +/- s", axis_defect, 1.0e-12))

    model = rigid.so3_model((1.0, 2.0, 3.0))
    drift = 0.0
    for p in critical.points:
        st = rigid.BodyState(GroupElement(np.eye(3), tag=_SO3), p)
        traj = rigid.integrate(model, st, 1.0e-3, 1000, sample_every=250)
        drift = max(drift, max(np.max(np.abs(x.sigma - p)) for x in traj.states))
    records.append(check("integration from axis points stays put", drift, 1.0e-9))
    return records


def criterion_05_killing_degeneracy(seed, quick):
    model = rigid.InvariantModel(
        fixture("so3"), BilinearForm(2.0 * np.eye(3)), "left"
    )
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(1000):
        f = rng.normal(size=3)
        worst = max(worst, float(np.max(np.abs(
            rigid.relative_equilibria_residual(model, f)))))
    return [check("killing-metric equilibria residual", worst, 1.0e-14)]


def criterion_06_affine_lattice_equivalence(seed, quick):
    rng = np.random.default_rng(seed)
    worst_hyp = 0.0
    worst_cal = 0.0
    a_const, iso = 1.3, 0.6
    inert_aff = affine.InertiaModel.affine("affine_left", a=a_const)
    count = 0
    while count < 200:
        n = 2 + (count % 2)
        phi = rng.normal(size=(n, n))
        if abs(np.linalg.det(phi)) < 1e-3:
            continue
        if np.linalg.det(phi) < 0:
            phi[:, 0] *= -1
        kin = affine.two_polar(phi)
        if n > 1 and np.min(-np.diff(kin.q)) < 0.03:
            continue
        sigma_hat = rng.normal(size=(n, n))
        state = affine.AffineState(phi=phi, sigma_hat=sigma_hat)
        lat = affine.to_two_polar(state)
        h_aff = affine.hamiltonian_affine(inert_aff, sigma_hat)
        h_lat = affine.lattice_hamiltonian("hyperbolic", {"a": a_const}, lat)
        worst_hyp = max(worst_hyp, abs(h_aff - h_lat) / (1.0 + abs(h_aff)))

        inert_std = affine.InertiaModel.standard(1.0, iso * np.eye(n))
        p_mat = rng.normal(size=(n, n))
        st2 = affine.AffineState(phi=phi, sigma_hat=p_mat @ phi)
        h_std = affine.standard_internal_energy(inert_std, st2)
        h_cal = affine.lattice_hamiltonian(
            "calogero", {"I": iso}, affine.to_two_polar(st2)
        )
        worst_cal = max(worst_cal, abs(h_std - h_cal) / (1.0 + abs(h_std)))
        count += 1
    return [
        check("trace model vs hyperbolic lattice", worst_hyp, 1.0e-8),
        check("isotropic model vs inverse-square lattice", worst_cal, 1.0e-8),
    ]


def criterion_07_dissociation_threshold(seed, quick):
    dt = 1.0e-3
    steps, sample_every = (10_000, 100) if quick else (100_000, 500)

    def run(n12, q0, p0):
        lat = affine.TwoPolarState(
            L=np.eye(2), R=np.eye(2),
            q=np.array([q0, -q0]), p=np.array([p0, -p0]),
            M=np.array([[0.0, 1.0], [-1.0, 0.0]]),
            N=np.array([[0.0, n12], [-n12, 0.0]]),
        )
        states = affine.lattice_dynamics(
            "hyperbolic", {"a": 1.0}, lat, dt, steps, sample_every=sample_every
        )
        seps = np.array([s.q[0] - s.q[1] for s in states])
        m_drift = max(abs(s.M[0, 1] - 1.0) for s in states)
        n_drift = max(abs(s.N[0, 1] - n12) for s in states)
        return seps, max(m_drift, n_drift)

    seps_bound, drift_bound = run(1.2, q0=1.5, p0=0.0)
    seps_scat, drift_scat = run(0.8, q0=3.0, p0=-0.5)
    imin = int(np.argmin(seps_scat))
    backslide = float(-np.min(np.diff(seps_scat[imin:]), initial=0.0))
    return [
        check("bound orbit separation stays finite", seps_bound.max(), 6.0),
        check("scattering separation monotone after approach", backslide, 1.0e-12),
        check(f"coupling drift over t = {steps * dt:g}",
              max(drift_bound, drift_scat), 1.0e-10),
    ]


def criterion_08_cohomology_fixtures(seed, quick):
    dims_defect = 0
    for name in ("so3", "sl2", "so13"):
        alg = fixture(name)
        dims_defect += abs(forms.cohomology_dim(alg, 1))
        dims_defect += abs(forms.cohomology_dim(alg, 2))
    dims_defect += abs(forms.cohomology_dim(fixture("galilei"), 2) - 1)
    records = [check("semisimple H1, H2 vanish; galilei H2 = 1", dims_defect, 0.0)]

    so3 = fixture("so3")
    omega = forms.wedge(forms.basis_one_form(3, 0), forms.basis_one_form(3, 1))
    basis, codim = forms.radical(so3, omega)
    axis_defect = float(np.max(np.abs(np.abs(basis[0] / np.max(np.abs(basis[0])))
                                      - np.array([0.0, 0.0, 1.0]))))
    records.append(check("rotation cocycle radical is the z-axis",
                         axis_defect + abs(codim - 2), 1.0e-12))

    hr = fixture("heisenberg_rot")
    omega2 = forms.KForm(10, 2, np.zeros(45))
    for j in range(3):
        omega2 = omega2 + 1.0 * forms.wedge(
            forms.basis_one_form(10, 4 + j), forms.basis_one_form(10, 1 + j)
        )
    omega2 = omega2 + 0.5 * forms.wedge(
        forms.basis_one_form(10, 7), forms.basis_one_form(10, 8)
    )
    basis2, codim2 = forms.radical(hr, omega2)
    span = np.stack(basis2, axis=1)
    defect = abs(codim2 - 8) + abs(len(basis2) - 2)
    for direction in (np.eye(10)[0], np.eye(10)[9]):
        resid = direction - span @ (span.T @ direction)
        defect += float(np.linalg.norm(resid))
    records.append(check("central+rotation radical is {phase, J3}", defect, 1.0e-10))

    rng = np.random.default_rng(seed)
    worst = 0.0
    total = 0
    for name in ("so3", "sl2", "heisenberg", "galilei", "so13"):
        alg = fixture(name)
        for k in (1, 2):
            if k + 2 > alg.dim:  # delta^2 needs two degrees of headroom
                continue
            for _ in range(25):
                f = forms.KForm(alg.dim, k, rng.normal(size=math.comb(alg.dim, k)))
                dd = forms.coboundary(alg, forms.coboundary(alg, f))
                worst = max(worst, float(np.max(np.abs(dd.coeffs))))
                total += 1
    records.append(check("200 random forms drawn", abs(total - 200), 0.0))
    records.append(check("delta^2 on 200 random forms", worst, 1.0e-12))
    return records


def criterion_09_phase_metric_volume(seed, quick):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for n in (1, 2, 3):
        for _ in range(100):
            a = rng.normal(size=(n, n))
            g = a @ a.T + n * np.eye(n)
            conn = rng.normal(size=(n, n, n))
            conn = 0.5 * (conn + np.swapaxes(conn, 1, 2))
            p = rng.normal(size=n)
            alpha = 0.5 + rng.random()
            beta = 0.5 + rng.random()
            vol = ensembles.phase_metric_volume(g, conn, np.zeros(n), p, alpha, beta)
            worst = max(worst, abs(vol - alpha**n * beta**n))
    return [check("induced volume equals alpha^n beta^n", worst, 1.0e-10)]


def criterion_10_entropy(seed, quick):
    defect = abs(ensembles.entropy_discrete(np.full(11, 1.0 / 11)) - np.log(11.0))
    defect = max(defect, abs(ensembles.entropy_discrete([0.0, 1.0, 0.0])))
    defect = max(defect, abs(ensembles.two_level_entropy(2, 0.5) - np.log(2.0)))
    records = [check("closed-form entropies", defect, 1.0e-14)]

    # reweightings of an actual shell sample on its occupied cells
    region = ensembles.PhaseRegion(
        bounds=np.array([[-2.2, 2.2], [-2.2, 2.2]]), hbar=1.0
    )
    energy = lambda z: 0.5 * np.sum(z**2, axis=1)
    shell = ensembles.ShellEnsemble(
        observable=energy, center=1.0, epsilon=0.3, samples=60_000, seed=seed,
    )
    batches = ensembles.shell_samples(shell, region)
    pts = np.concatenate(batches)
    hist, _ = np.histogramdd(pts, bins=[16, 16])
    occupied = hist.ravel() > 0
    n_cells = int(occupied.sum())
    mu_cells = np.full(n_cells, ensembles.liouville_volume(region) / hist.size)
    uniform = ensembles.entropy_continuous(np.full(n_cells, 1.0 / n_cells), mu_cells)
    rng = np.random.default_rng(seed)
    margin = 0.0
    for _ in range(50):
        w = rng.random(n_cells)
        w /= w.sum()
        margin = max(margin, ensembles.entropy_continuous(w, mu_cells) - uniform)
    records.append(check("uniform shell weighting maximizes entropy", margin, 0.0))

    res = ensembles.shell_probability(shell, region, energy, batches=batches)
    records.append(check("shell_mean_offset", abs(res["mean"] - 1.0),
                         3.0 * res["stderr_mean"] + 1.0e-3))
    return records


def criterion_11_wigner_suite(seed, quick):
    n = 128 if quick else 512
    psi = wg.ho_ground(n, -8.0, 8.0)
    w = wg.wigner_transform(psi)
    qq, pp = np.meshgrid(w.q_grid, w.p_grid, indexing="ij")
    gauss_err = float(np.max(np.abs(w.values - np.exp(-qq**2 - pp**2) / np.pi)))
    records = [
        check("ground-state field matches gaussian", gauss_err, 1.0e-6),
        check("ground-state field nonnegative", -float(w.values.min()), 1.0e-9),
    ]

    w1 = wg.wigner_transform(wg.ho_excited(1, n, -8.0, 8.0))
    i0 = int(np.argmin(np.abs(w1.q_grid)))
    m0 = int(np.argmin(np.abs(w1.p_grid)))
    records.append(check("first excited negative at origin", w1.values[i0, m0], -1.0e-3))

    pos, mom = wg.marginals(w)
    marg_err = max(
        float(np.max(np.abs(pos - np.abs(psi.psi) ** 2))),
        float(np.max(np.abs(mom - np.abs(psi.fourier()) ** 2))),
    )
    records.append(check("marginals match densities", marg_err, 1.0e-8))

    one = wg.phase_grid_constant(1.0, w)
    unit_err = float(np.max(np.abs(wg.star_product(one, w).values - w.values)))
    records.append(check("unit element of the star product", unit_err, 1.0e-8))

    other = wg.wigner_transform(
        wg.gaussian_packet(0.7, n, -8.0, 8.0, q_center=0.5, p_center=0.3)
    )
    prod = wg.star_product(w, other)
    lhs = prod.integral()
    rhs = float((w.values * other.values).sum()) * w.dq * w.dp
    records.append(check("trace of the star product",
                         abs(lhs - rhs) / (2.0 * np.pi), 1.0e-7))
    return records


def criterion_12_free_propagation(seed, quick):
    psi0 = wg.gaussian_packet(1.0, 512, -25.6, 25.6)
    out = wg.propagate_free(psi0, 1.0)
    q = out.q_grid
    tau = 0.5
    want = (
        (2.0 * np.pi) ** (-0.25)
        * (1.0 + 1j * tau) ** (-0.5)
        * np.exp(-(q**2) / (4.0 * (1.0 + 1j * tau)))
    )
    var = float(np.sum(q**2 * np.abs(out.psi) ** 2) * out.dx)
    records = [
        check("spread gaussian with exact phase",
              float(np.max(np.abs(out.psi - want))), 1.0e-6),
        check("width^2 at unit time", abs(var - 1.25), 1.0e-6),
        check("norm preserved", abs(out.norm() - 1.0), 1.0e-8),
    ]

    t1, t2 = 0.4, 0.9
    s1 = lambda x, z: (x - z) ** 2 / (2.0 * t1)
    s2 = lambda z, y: (z - y) ** 2 / (2.0 * t2)
    comp = wg.compose_characteristic(s1, s2, np.linspace(-8.0, 8.0, 2001))
    worst = 0.0
    for x, y in [(0.0, 0.0), (0.7, -0.4), (1.5, 1.0)]:
        (got,) = comp(x, y)
        worst = max(worst, abs(got - (x - y) ** 2 / (2.0 * (t1 + t2))))
    records.append(check("composition over a time split", worst, 1.0e-10))
    return records


def criterion_13_darboux_chart(seed, quick):
    lp = PoissonStructure.lie_poisson(fixture("so3"))
    # the chart's coordinates, differentiated by central differences
    q, p, zc = (ScalarField(3, lambda w, i=i: darboux_so3(w)[i]) for i in range(3))
    rng = np.random.default_rng(seed)
    worst = 0.0
    accepted = 0
    while accepted < 100:
        z = rng.normal(size=3)
        if z[0] ** 2 + z[1] ** 2 < 0.1 or z @ z < 0.1:
            continue
        worst = max(worst, abs(bracket(lp, q, p, z) - 1.0), abs(bracket(lp, q, zc, z)),
                    abs(bracket(lp, p, zc, z)))
        accepted += 1
    return [check("darboux chart brackets", worst, 1.0e-8)]


CRITERIA = (
    (1, criterion_01_bracket_identities),
    (2, criterion_02_free_top_conservation),
    (3, criterion_03_symmetric_top),
    (4, criterion_04_stationary_spins),
    (5, criterion_05_killing_degeneracy),
    (6, criterion_06_affine_lattice_equivalence),
    (7, criterion_07_dissociation_threshold),
    (8, criterion_08_cohomology_fixtures),
    (9, criterion_09_phase_metric_volume),
    (10, criterion_10_entropy),
    (11, criterion_11_wigner_suite),
    (12, criterion_12_free_propagation),
    (13, criterion_13_darboux_chart),
)
