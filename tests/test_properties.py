"""Property tests on drawn inputs: two-polar round trips, the Jacobi
identity on direct sums of the bundled algebras, and associativity of the
star product on Gaussian states."""

import numpy as np
from hypothesis import assume, given
from hypothesis import strategies as st

from phasecraft import wigner as wg
from phasecraft.affine import assemble_two_polar, mn_from_rho_tau, rho_tau_from_mn, two_polar
from phasecraft.algebra import LieAlgebraSpec
from phasecraft.fixtures import fixture, fixture_names

entries = st.floats(-2.0, 2.0)


def square(n: int):
    return st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n).map(np.array)


@given(st.integers(2, 3).flatmap(square))
def test_two_polar_round_trip(phi):
    det = np.linalg.det(phi)
    assume(abs(det) > 0.1)
    if det < 0:
        phi[:, 0] *= -1.0
    tp = two_polar(phi)
    assume(np.min(-np.diff(tp.q)) > 0.05)  # separated invariants fix L and R
    rec = assemble_two_polar(tp.L, tp.q, tp.R)
    assert np.max(np.abs(rec - phi)) <= 1e-11 * max(1.0, np.max(np.abs(phi)))
    again = two_polar(rec)
    assert np.max(np.abs(again.q - tp.q)) <= 1e-12
    assert np.max(np.abs(again.L - tp.L)) <= 1e-9 and np.max(np.abs(again.R - tp.R)) <= 1e-9


@given(st.integers(2, 3).flatmap(lambda n: st.tuples(square(n), square(n))))
def test_coupling_round_trip(pair):
    rho, tau = (m - m.T for m in pair)
    back = rho_tau_from_mn(*mn_from_rho_tau(rho, tau))
    for got, want in zip(back, (rho, tau)):
        assert np.max(np.abs(got - want)) <= 1e-15 * (1.0 + np.max(np.abs(pair)))


@given(st.sampled_from(fixture_names()), st.sampled_from(fixture_names()), st.data())
def test_jacobi_identity_on_direct_sums(first, second, data):
    c1, c2 = fixture(first).structure, fixture(second).structure
    d1, dim = len(c1), len(c1) + len(c2)
    c = np.zeros((dim, dim, dim))
    c[:d1, :d1, :d1], c[d1:, d1:, d1:] = c1, c2
    alg = LieAlgebraSpec(dim, c)
    x, y, z = (np.array(data.draw(st.lists(entries, min_size=dim, max_size=dim)))
               for _ in range(3))
    br = alg.bracket_coords
    residual = br(x, br(y, z)) + br(y, br(z, x)) + br(z, br(x, y))
    scale = (1.0 + np.max(np.abs(c))) ** 2 * np.prod([1.0 + np.abs(v).sum() for v in (x, y, z)])
    assert np.max(np.abs(residual)) <= 1e-13 * scale


gaussians = st.builds(
    lambda sigma, q, p: wg.wigner_transform(
        wg.gaussian_packet(sigma, 64, -8.0, 8.0, q_center=q, p_center=p)),
    st.floats(0.6, 1.0), st.floats(-0.5, 0.5), st.floats(-1.0, 1.0),
)


@given(gaussians, gaussians, gaussians)
def test_star_product_is_associative_on_gaussians(a, b, c):
    left = wg.star_product(wg.star_product(a, b), c)
    right = wg.star_product(a, wg.star_product(b, c))
    assert np.max(np.abs(left.values - right.values)) <= 1e-6
