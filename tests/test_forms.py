import functools
import itertools
import math
import re

import numpy as np
import numpy.testing as npt
import pytest

from phasecraft.errors import DegreeOverflow, DimensionMismatch, NotSubalgebra
from phasecraft.fixtures import fixture, fixture_names
from phasecraft.forms import (
    KForm,
    basis_one_form,
    coboundary,
    coboundary_matrix,
    coboundary_space,
    cocycle_space,
    cohomology_dim,
    radical,
    wedge,
)
from phasecraft import forms

# index layout of the heisenberg fixture: Z = 0, Q_j = 1..3, P_j = 4..6
_HEIS = fixture("heisenberg")


def random_form(alg, k, rng):
    return KForm(alg.dim, k, rng.normal(size=math.comb(alg.dim, k)))


@functools.lru_cache(maxsize=None)
def _positions(n, k):
    return {idx: pos for pos, idx in enumerate(itertools.combinations(range(n), k))}


def _position(n, idx):
    """Where the increasing multi-index ``idx`` sits among the components."""
    return _positions(n, len(idx))[tuple(idx)]


def test_wedge_antisymmetry_and_components():
    a = basis_one_form(4, 0)
    b = basis_one_form(4, 2)
    ab = wedge(a, b)
    npt.assert_array_equal(ab.coeffs, np.eye(6)[_position(4, (0, 2))])
    ba = wedge(b, a)
    npt.assert_array_equal(ba.coeffs, -ab.coeffs)


def test_wedge_of_a_one_form_and_a_two_form():
    # (a ^ b)_{ijk} = a_i b_jk - a_j b_ik + a_k b_ij on increasing i < j < k
    rng = np.random.default_rng(3)
    a, b = random_form(fixture("gl2"), 1, rng), random_form(fixture("gl2"), 2, rng)
    got = wedge(a, b).coeffs
    for pos, (i, j, k) in enumerate(itertools.combinations(range(4), 3)):
        w = {pair: b.coeffs[_position(4, pair)] for pair in ((j, k), (i, k), (i, j))}
        want = a.coeffs[i] * w[j, k] - a.coeffs[j] * w[i, k] + a.coeffs[k] * w[i, j]
        assert got[pos] == pytest.approx(want, rel=1e-14, abs=1e-15)
    npt.assert_array_equal(wedge(KForm(4, 0, [2.0]), b).coeffs, 2.0 * b.coeffs)


def test_coboundary_one_form_equals_structure_contraction():
    so3 = fixture("so3")
    d0 = coboundary(so3, basis_one_form(3, 0))
    # delta(dX^k)_{ij} = -C^k_ij
    npt.assert_allclose(forms._two_form_matrix(d0), -so3.structure[0], atol=1e-15)


def test_heisenberg_center_coboundary_is_symplectic_sum():
    d_center = coboundary(_HEIS, basis_one_form(7, 0))
    want = KForm(7, 2, np.zeros(21))
    for j in range(3):
        want = want + wedge(basis_one_form(7, 4 + j), basis_one_form(7, 1 + j))
    npt.assert_allclose(d_center.coeffs, want.coeffs, atol=1e-15)
    for j in range(6):
        npt.assert_array_equal(coboundary(_HEIS, basis_one_form(7, 1 + j)).coeffs, np.zeros(21))


def test_abelian_coboundary_vanishes():
    ab = fixture("abelian2")
    npt.assert_array_equal(coboundary(ab, basis_one_form(2, 0)).coeffs, np.zeros(1))


@pytest.mark.parametrize("name", ["so3", "sl2", "heisenberg", "galilei", "so13", "gl2"])
def test_delta_squared_zero_random_forms(name):
    alg = fixture(name)
    rng = np.random.default_rng(hash(name) % 2**32)
    for k in (0, 1, 2):
        if k + 2 > alg.dim:
            continue
        for _ in range(20):
            f = random_form(alg, k, rng)
            dd = coboundary(alg, coboundary(alg, f))
            assert float(np.max(np.abs(dd.coeffs))) <= 1e-12


def test_degree_overflow():
    so3 = fixture("so3")
    top = KForm(3, 3, [1.0])
    with pytest.raises(DegreeOverflow):
        coboundary(so3, top)


@pytest.mark.parametrize("form", [basis_one_form(4, 0), KForm(2, 2, np.ones(1)),
                                  KForm(4, 3, np.ones(4))],
                         ids=["one_form_on_4", "two_form_on_2", "top_form_on_4"])
def test_coboundary_names_a_form_of_another_dimension(form):
    # a one-form on 4 dimensions ended in numpy's raw matmul ValueError
    with pytest.raises(DimensionMismatch, match=rf"on {form.dim} dimensions does not fit a 3-dim"):
        coboundary(fixture("so3"), form)


def test_cocycle_dimensions():
    assert len(cocycle_space(_HEIS, 2)) == 15
    assert len(cocycle_space(fixture("so3"), 2)) == 3
    assert len(cocycle_space(fixture("abelian2"), 1)) == 2


def test_kform_holds_its_components_as_given():
    rng = np.random.default_rng(5)
    for n, k in ((3, 0), (1, 1), (4, 1), (4, 2), (5, 3), (4, 4)):
        v = rng.normal(size=math.comb(n, k))
        npt.assert_array_equal(KForm(n, k, v).coeffs, v)


@pytest.mark.parametrize("n,k,coeffs", [
    (3, 2, np.ones(4)),          # C(3, 2) = 3 components
    (3, 2, np.ones((3, 3))),     # a matrix is not the component vector
    (3, 4, np.ones(0)),          # degree above dim
    (3, -1, np.ones(0)),         # negative degree
], ids=["length", "matrix", "degree_above_dim", "negative_degree"])
def test_kform_refuses_a_wrong_shape_or_degree(n, k, coeffs):
    with pytest.raises(ValueError):
        KForm(n, k, coeffs)


def test_forms_on_different_dimensions_do_not_combine():
    # wedge and + used to end in numpy's raw broadcast ValueError
    a, b = basis_one_form(3, 0), basis_one_form(4, 1)
    with pytest.raises(DimensionMismatch, match="on 4 dimensions does not fit a 3-dim"):
        wedge(a, b)
    with pytest.raises(DimensionMismatch, match="on 4 dimensions does not fit a 3-dim"):
        a + b


def test_evaluating_on_vectors_of_another_length_names_dim():
    # numpy's matmul error used to name no field
    f = wedge(basis_one_form(3, 0), basis_one_form(3, 1))
    with pytest.raises(ValueError, match=r"dim = 3"):
        f(np.ones(3), np.ones(4))


@pytest.mark.parametrize("index", [3, 5, -1])
def test_basis_one_form_refuses_an_index_outside_the_dimension(index):
    # 5 used to raise IndexError, and -1 silently gave dX^2
    with pytest.raises(ValueError, match=r"index must lie in \[0, dim = 3\)"):
        basis_one_form(3, index)


def test_cocycle_basis_orthonormal():
    for name in ("so3", "heisenberg", "galilei"):
        basis = cocycle_space(fixture(name), 2)
        vecs = np.stack([b.coeffs for b in basis])
        gram = vecs @ vecs.T
        npt.assert_allclose(gram, np.eye(len(basis)), atol=1e-10)


def test_heisenberg_cocycles_avoid_center():
    for z in cocycle_space(_HEIS, 2):
        assert np.max(np.abs(forms._two_form_matrix(z)[0, :])) <= 1e-12


def test_so3_cocycles_span_all_two_forms():
    basis = cocycle_space(fixture("so3"), 2)
    vecs = np.stack([b.coeffs for b in basis])
    assert np.linalg.matrix_rank(vecs, tol=1e-10) == 3


@pytest.mark.parametrize(
    "name,k,expect",
    [
        ("so3", 1, 0), ("so3", 2, 0),
        ("sl2", 1, 0), ("sl2", 2, 0),
        ("so13", 1, 0), ("so13", 2, 0),
        ("euclidean3", 1, 0), ("euclidean3", 2, 0),
        ("galilei", 1, 1), ("galilei", 2, 1),
        ("heisenberg", 1, 6), ("heisenberg", 2, 14),
        ("abelian2", 2, 1),
        ("abelian2", 1, 2),
        ("abelian1", 1, 1), ("abelian1", 2, 0),
        ("gl2", 1, 1), ("gl2", 2, 0),
        ("gl3", 1, 1), ("gl3", 2, 0),
        ("heisenberg_rot", 1, 0), ("heisenberg_rot", 2, 0),
    ],
)
def test_cohomology_dimensions(name, k, expect):
    alg = fixture(name)
    assert cohomology_dim(alg, k) == expect
    assert len(cocycle_space(alg, k)) - len(coboundary_space(alg, k)) == expect


def test_image_contained_in_kernel():
    for name in ("so3", "heisenberg", "galilei"):
        alg = fixture(name)
        bb = coboundary_space(alg, 2)
        for b in bb:
            image = coboundary(alg, b)
            assert float(np.max(np.abs(image.coeffs))) <= 1e-10


def test_cocycle_rank_even():
    rng = np.random.default_rng(11)
    for name in fixture_names():
        alg = fixture(name)
        if alg.dim < 2:
            continue
        for z in cocycle_space(alg, 2):
            rank = np.linalg.matrix_rank(forms._two_form_matrix(z), tol=1e-10)
            assert rank % 2 == 0
        # random combinations too
        basis = cocycle_space(alg, 2)
        if basis:
            weights = rng.normal(size=len(basis))
            combo = KForm(alg.dim, 2, np.sum([w * b.coeffs for w, b in zip(weights, basis)], axis=0))
            assert np.linalg.matrix_rank(forms._two_form_matrix(combo), tol=1e-10) % 2 == 0


def test_semisimple_cocycles_are_exact():
    rng = np.random.default_rng(4)
    for name in ("so3", "sl2", "so13"):
        alg = fixture(name)
        dmat = np.stack(
            [coboundary(alg, basis_one_form(alg.dim, i)).coeffs
             for i in range(alg.dim)],
            axis=1,
        )
        for z in cocycle_space(alg, 2):
            target = z.coeffs
            sol, *_ = np.linalg.lstsq(dmat, target, rcond=None)
            assert np.linalg.norm(dmat @ sol - target) <= 1e-9


def test_radical_so3_example():
    so3 = fixture("so3")
    omega = wedge(basis_one_form(3, 0), basis_one_form(3, 1))  # Lx* ^ Ly*
    basis, codim = radical(so3, omega)
    assert codim == 2 and len(basis) == 1
    direction = basis[0] / np.max(np.abs(basis[0]))
    npt.assert_allclose(np.abs(direction), [0.0, 0.0, 1.0], atol=1e-12)


def test_radical_heisenberg_with_rotations():
    # basis layout: Z = 0, Q = 1..3, P = 4..6, J = 7..9
    hr = fixture("heisenberg_rot")
    omega = KForm(10, 2, np.zeros(45))
    for j in range(3):
        omega = omega + 1.7 * wedge(basis_one_form(10, 4 + j), basis_one_form(10, 1 + j))
    omega = omega + 0.4 * wedge(basis_one_form(10, 7), basis_one_form(10, 8))
    # the combination is closed
    assert np.max(np.abs(coboundary(hr, omega).coeffs)) <= 1e-12
    basis, codim = radical(hr, omega)
    assert codim == 8 and len(basis) == 2
    span = np.stack(basis, axis=1)
    for direction in (np.eye(10)[0], np.eye(10)[9]):  # center and J_3
        resid = direction - span @ (span.T @ direction)
        assert np.linalg.norm(resid) <= 1e-10


def test_radical_of_zero_form_is_everything():
    so3 = fixture("so3")
    basis, codim = radical(so3, KForm(3, 2, np.zeros(3)))
    assert codim == 0 and len(basis) == 3


def test_radical_names_a_form_of_another_dimension():
    with pytest.raises(DimensionMismatch, match="on 4 dimensions does not fit a 3-dim"):
        radical(fixture("so3"), wedge(basis_one_form(4, 0), basis_one_form(4, 1)))


def test_radical_rejects_non_cocycle():
    # on gl2 the kernel of E11* ^ E22* is spanned by E12, E21, whose bracket
    # E11 - E22 leaves the span
    gl2 = fixture("gl2")
    omega = wedge(basis_one_form(4, 0), basis_one_form(4, 3))
    with pytest.raises(NotSubalgebra):
        radical(gl2, omega)


# --- an independent oracle for delta -------------------------------------------


def _bubble_sort(seq):
    """``seq`` sorted by adjacent swaps, and (-1)^(number of swaps)."""
    seq, sign = list(seq), 1
    for end in range(len(seq) - 1, 0, -1):
        for i in range(end):
            if seq[i] > seq[i + 1]:
                seq[i], seq[i + 1] = seq[i + 1], seq[i]
                sign = -sign
    return tuple(seq), sign


def _component(w, idx):
    """w_idx for any index sequence: the sorted component times the sign of
    the sort, 0 on a repeated index."""
    if len(set(idx)) < len(idx):
        return 0.0
    ordered, sign = _bubble_sort(idx)
    return sign * w.coeffs[_position(w.dim, ordered)]


def _delta_by_loops(alg, w):
    """The module docstring's components, (delta w)_{b_0..b_k} =
    sum_{i<j} (-1)^{i+j} C^c_{b_i b_j} w_{c, b_0 .. ^b_i .. ^b_j .. b_k},
    on the strictly increasing b, summed in plain loops."""
    n, k = alg.dim, w.degree
    out = []
    for b in itertools.combinations(range(n), k + 1):
        total = 0.0
        for i, j in itertools.combinations(range(k + 1), 2):
            rest = b[:i] + b[i + 1:j] + b[j + 1:]
            for c in np.flatnonzero(alg.structure[:, b[i], b[j]]).tolist():
                total += (-1) ** (i + j) * alg.structure[c, b[i], b[j]] * _component(w, (c,) + rest)
        out.append(total)
    return np.array(out)


@pytest.mark.parametrize("name", fixture_names())
def test_coboundary_matches_the_component_formula(name):
    alg = fixture(name)
    rng = np.random.default_rng(sum(map(ord, name)))
    for k in range(min(3, alg.dim - 1) + 1):
        for _ in range(5):
            f = random_form(alg, k, rng)
            want = _delta_by_loops(alg, f)
            got = coboundary(alg, f).coeffs
            npt.assert_allclose(got, want, rtol=0, atol=1e-15 * (1.0 + np.max(np.abs(want))))


@pytest.mark.parametrize("name", fixture_names())
def test_coboundary_matrix_columns_are_the_formula_on_basis_forms(name):
    alg = fixture(name)
    for k in range(min(2, alg.dim - 1) + 1):
        mat = coboundary_matrix(alg, k)
        cols = math.comb(alg.dim, k)
        assert mat.shape == (math.comb(alg.dim, k + 1), cols)
        for col, e in enumerate(np.eye(cols)):
            npt.assert_array_equal(mat[:, col], _delta_by_loops(alg, KForm(alg.dim, k, e)))


def test_top_degree_answers():
    # every top form is closed, and above the top degree there are no forms
    for name in ("abelian1", "abelian2"):
        alg = fixture(name)
        (z,) = cocycle_space(alg, alg.dim)
        npt.assert_array_equal(z.coeffs, [1.0])
    assert cocycle_space(fixture("abelian1"), 2) == []
    for name in fixture_names():
        alg = fixture(name)
        assert coboundary_space(alg, alg.dim + 1) == []


def test_coboundary_matrix_at_the_top_degree_has_no_rows():
    for name in fixture_names():
        alg = fixture(name)
        assert coboundary_matrix(alg, alg.dim).shape == (0, 1)
        assert coboundary_matrix(alg, alg.dim + 1).shape == (0, 0)


def test_kform_evaluates_on_vectors_in_slot_order():
    rng = np.random.default_rng(8)
    f = random_form(fixture("gl2"), 3, rng)
    vectors = rng.normal(size=(3, 4))
    # f(u, v, w) = sum over every index sequence of w_{abc} u^a v^b w^c
    want = sum(_component(f, idx) * np.prod([x[a] for x, a in zip(vectors, idx)])
               for idx in itertools.product(range(4), repeat=3))
    assert f(*vectors) == pytest.approx(want, rel=1e-14, abs=1e-14)
    assert f(*np.eye(4)[[0, 2, 3]]) == f.coeffs[_position(4, (0, 2, 3))]
    assert f(*np.eye(4)[[2, 0, 3]]) == -f.coeffs[_position(4, (0, 2, 3))]
    assert KForm(3, 0, [2.5])() == 2.5


def _poly(*factors):
    """Coefficients of the product of polynomials given by their coefficients."""
    out = [1]
    for factor in factors:
        out = np.convolve(out, factor).tolist()
    return out


# Betti numbers b_0 .. b_dim by fixture; None: unimodular with no closed form
# here, so Poincare duality and a vanishing Euler characteristic are checked
_BETTI = {
    "so3": _poly([1, 0, 0, 1]),
    "sl2": _poly([1, 0, 0, 1]),
    "so13": _poly([1, 0, 0, 1], [1, 0, 0, 1]),
    "euclidean3": _poly([1, 0, 0, 1], [1, 0, 0, 1]),
    "gl2": _poly([1, 1], [1, 0, 0, 1]),
    "gl3": _poly([1, 1], [1, 0, 0, 1], [1, 0, 0, 0, 0, 1]),
    "heisenberg": [1, 6, 14, 14, 14, 14, 6, 1],
    "abelian1": [math.comb(1, k) for k in range(2)],
    "abelian2": [math.comb(2, k) for k in range(3)],
    "galilei": None,
    "heisenberg_rot": None,
}


@pytest.mark.parametrize("name", fixture_names())
def test_cohomology_in_every_degree(name):
    alg = fixture(name)
    betti = [cohomology_dim(alg, k) for k in range(alg.dim + 1)]
    assert cohomology_dim(alg, -1) == cohomology_dim(alg, alg.dim + 1) == 0
    if _BETTI[name] is None:
        assert betti == betti[::-1]
        assert sum((-1) ** k * b for k, b in enumerate(betti)) == 0
    else:
        assert betti == _BETTI[name]


@pytest.mark.parametrize("name", fixture_names())
def test_cocycle_space_answers_every_degree(name):
    # the forms span what the ranks that cohomology_dim reads say; a k-form
    # holds C(n, k) components, so the top degree of gl3 is one float
    alg = fixture(name)
    assert cocycle_space(alg, -1) == []
    for k in range(alg.dim + 2):
        z, b = cocycle_space(alg, k), coboundary_space(alg, k)
        assert len(z) - len(b) == cohomology_dim(alg, k)
        assert all(f.coeffs.shape == (math.comb(alg.dim, k),) for f in z + b)


def test_a_cocycle_holds_its_components_only():
    # it used to be a dense (7, 7, 7, 7) tensor
    assert cocycle_space(_HEIS, 4)[0].coeffs.shape == (35,)


def test_two_form_from_pairs_inverts_the_matrix():
    # omega(e_i, e_j) = value for each pair, either order; a later pair wins
    omega = forms._two_form_from_pairs(4, [[0, 2, 1.5], [3, 1, 2.0], [2, 0, 9.0], [2, 0, 0.5]])
    want = np.zeros((4, 4))
    want[0, 2], want[2, 0], want[3, 1], want[1, 3] = -0.5, 0.5, 2.0, -2.0
    npt.assert_array_equal(forms._two_form_matrix(omega), want)
    rng = np.random.default_rng(3)
    w = rng.normal(size=10)
    pairs = [[i, j, v] for (i, j), v in zip(itertools.combinations(range(5), 2), w)]
    npt.assert_array_equal(forms._two_form_from_pairs(5, pairs).coeffs, w)
    for bad in ([1, 1, 0.0], [0, 4, 1.0], [-1, 0, 1.0]):
        with pytest.raises(ValueError, match=re.escape(f"omega pair {bad}")):
            forms._two_form_from_pairs(4, [bad])
