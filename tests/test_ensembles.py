import numpy as np
import numpy.testing as npt
import pytest

from phasecraft import ensembles as ens
from phasecraft.errors import EmptyShell, NotNormalized, SingularMetric


def harmonic(z):
    return 0.5 * np.sum(z**2, axis=1)


def box(half, hbar=1.0):
    return ens.PhaseRegion(bounds=np.array([[-half, half], [-half, half]]), hbar=hbar)


# --- volumes -------------------------------------------------------------------


def test_liouville_unit_box():
    region = ens.PhaseRegion(
        bounds=np.array([[0.0, 1.0], [0.0, 1.0]]), hbar=1.0 / (2.0 * np.pi)
    )
    assert ens.liouville_volume(region) == pytest.approx(1.0)


def test_liouville_angle_action_box():
    region = ens.PhaseRegion(bounds=np.array([[0.0, 2.0 * np.pi], [0.0, 1.0]]), hbar=1.0)
    assert ens.liouville_volume(region) == pytest.approx(1.0)


def test_phase_region_refuses_a_nan_hbar():
    # a NaN hbar used to pass the test hbar <= 0 and made every volume NaN
    with pytest.raises(ValueError, match="^hbar"):
        box(1.0, hbar=float("nan"))


def test_liouville_product_factorizes():
    r1 = ens.PhaseRegion(bounds=np.array([[0.0, 2.0], [0.0, 3.0]]), hbar=0.7)
    r2 = ens.PhaseRegion(
        bounds=np.array([[0.0, 2.0], [0.0, 0.5], [0.0, 3.0], [0.0, 1.5]]), hbar=0.7
    )
    split = ens.PhaseRegion(bounds=np.array([[0.0, 0.5], [0.0, 1.5]]), hbar=0.7)
    assert ens.liouville_volume(r2) == pytest.approx(
        ens.liouville_volume(r1) * ens.liouville_volume(split)
    )


# --- shells ----------------------------------------------------------------------


def test_shell_normalization_of_unit_observable():
    shell = ens.ShellEnsemble(observable=harmonic, center=1.0, epsilon=0.4,
                              samples=50_000, seed=3)
    res = ens.shell_probability(shell, box(2.2), lambda z: np.ones(len(z)))
    assert res["mean"] == 1.0


def test_shell_energy_concentrates():
    shell = ens.ShellEnsemble(observable=harmonic, center=1.0, epsilon=0.1,
                              samples=200_000, seed=4)
    res = ens.shell_probability(shell, box(2.2), harmonic)
    assert abs(res["mean"] - 1.0) <= 3.0 * res["stderr_mean"] + 1e-4


def test_harmonic_partition_function_area_law():
    # area between the H = a +/- eps/2 ellipses is 2 pi eps
    eps, hbar = 0.2, 1.0
    shell = ens.ShellEnsemble(observable=harmonic, center=1.0, epsilon=eps,
                              samples=400_000, seed=11)
    res = ens.shell_probability(shell, box(2.2, hbar), harmonic)
    want = 2.0 * np.pi * eps / (2.0 * np.pi * hbar)
    assert abs(res["Z"] - want) / want <= 0.05


def test_shell_observable_evaluated_once_per_accepted_point():
    shell = ens.ShellEnsemble(observable=harmonic, center=1.0, epsilon=0.3,
                              samples=3_200, seed=3)
    seen = []
    ens.shell_probability(shell, box(2.2), lambda z: seen.append(len(z)) or harmonic(z))
    assert sum(seen) == sum(len(b) for b in ens.shell_samples(shell, box(2.2)))


def test_shell_determinism_under_seed():
    shell = ens.ShellEnsemble(observable=harmonic, center=1.0, epsilon=0.3,
                              samples=30_000, seed=7)
    a = ens.shell_probability(shell, box(2.2), harmonic)
    b = ens.shell_probability(shell, box(2.2), harmonic)
    assert a == b


def test_shell_seed_outside_philox_key_range_rejected():
    # the Philox key (seed << 16) + batch wraps at 2^64
    for seed in (-1, 2**48):
        with pytest.raises(ValueError):
            ens.ShellEnsemble(observable=harmonic, center=1.0, epsilon=0.3, samples=32, seed=seed)
    largest = ens.ShellEnsemble(observable=harmonic, center=1.0, epsilon=0.3, samples=32,
                                seed=2**48 - 1)
    assert len(ens.shell_samples(largest, box(2.2))) == 16


@pytest.mark.parametrize("field,bad", [
    ("seed", 1.5), ("seed", 2.0), ("seed", True), ("seed", "3"),
    ("samples", 1600.5), ("samples", 3200.0), ("samples", np.True_),
])
def test_shell_refuses_a_seed_or_sample_count_that_is_no_integer(field, bad):
    # seed 1.5 drew seed 1's batches (np.uint64 truncates it), and samples
    # 1600.5 ended in a bare TypeError from the generator
    given = dict(observable=harmonic, center=1.0, epsilon=0.3, samples=3_200, seed=1)
    ens.ShellEnsemble(**{**given, field: np.int64(given[field])})
    with pytest.raises(ValueError, match=rf"^{field} must be an integer"):
        ens.ShellEnsemble(**{**given, field: bad})


@pytest.mark.parametrize("field,bad,rule", [
    ("center", np.nan, "finite"), ("center", np.inf, "finite"), ("center", -np.inf, "finite"),
    ("epsilon", np.inf, "finite and positive"), ("epsilon", np.nan, "finite and positive"),
])
def test_shell_refuses_a_center_or_width_that_is_not_finite(field, bad, rule):
    # center = nan ended in EmptyShell ("widen it or enlarge samples"), and
    # epsilon = inf averaged over the whole box and called it a shell
    given = dict(observable=harmonic, center=1.0, epsilon=0.3, samples=3_200, seed=1)
    with pytest.raises(ValueError, match=rf"^{field} must be {rule}, got"):
        ens.ShellEnsemble(**{**given, field: bad})


@pytest.mark.parametrize("bad", [np.inf, np.nan, 0.0, -1.0])
def test_region_refuses_an_hbar_outside_zero_to_infinity(bad):
    # hbar = inf was stored, and shell_probability then read Z = 0.0 with no error
    with pytest.raises(ValueError, match="^hbar must be finite and positive"):
        box(2.2, hbar=bad)


def test_empty_shell_raises():
    shell = ens.ShellEnsemble(observable=harmonic, center=50.0, epsilon=0.01,
                              samples=2_000, seed=0)
    with pytest.raises(EmptyShell):
        ens.shell_probability(shell, box(2.0), harmonic)


def test_given_empty_batches_raise_empty_shell():
    shell = ens.ShellEnsemble(observable=harmonic, center=1.0, epsilon=0.3,
                              samples=3_200, seed=1)
    with pytest.raises(EmptyShell):
        ens.shell_probability(shell, box(2.2), harmonic, batches=[np.empty((0, 2))] * 16)


@pytest.mark.parametrize("bad,every_batch", [(np.nan, False), (np.nan, True), (np.inf, False)],
                         ids=["nan-in-one-batch", "nan-in-every-batch", "inf"])
def test_shell_probability_refuses_a_non_finite_observable(bad, every_batch):
    shell = ens.ShellEnsemble(observable=harmonic, center=1.0, epsilon=0.3,
                              samples=3_200, seed=1)
    calls = []

    def f(z):
        vals = harmonic(z)
        if every_batch or not calls:
            vals[0] = bad
        calls.append(len(z))
        return vals

    with pytest.raises(ValueError, match="^f "):
        ens.shell_probability(shell, box(2.2), f)


def test_shell_to_membrane_richardson():
    # <H^2> on the shell is a^2 + eps^2 / 12: halving eps scales the excess
    # by 4; common random numbers keep the Monte Carlo error correlated
    region = box(2.2)
    means = []
    for eps in (0.8, 0.4, 0.2):
        shell = ens.ShellEnsemble(observable=harmonic, center=1.0, epsilon=eps,
                                  samples=400_000, seed=21)
        res = ens.shell_probability(shell, region, lambda z: harmonic(z) ** 2)
        means.append(res["mean"])
    ratio = (means[0] - means[1]) / (means[1] - means[2])
    assert ratio == pytest.approx(4.0, rel=0.3)


def test_invariance_harmonic_full_period():
    shell = ens.ShellEnsemble(observable=harmonic, center=1.0, epsilon=0.3,
                              samples=60_000, seed=5)
    out = ens.invariance_check(shell, box(2.2), lambda z: z.copy(), tau=2.0 * np.pi)
    assert out["stationary"]
    assert out["tv_flow"] <= 0.02  # exact recurrence up to integrator error


def test_invariance_harmonic_generic_time():
    shell = ens.ShellEnsemble(observable=harmonic, center=1.0, epsilon=0.3,
                              samples=60_000, seed=6)
    out = ens.invariance_check(shell, box(2.2), lambda z: z.copy(), tau=0.37)
    assert out["stationary"]


def test_every_stream_of_a_seed_lies_in_its_own_key_block(monkeypatch):
    # the split-half reference was keyed seed + 0xD1F: seed 62177's reference
    # permutations were drawn from seed 1's batch-0 point stream
    keys = []
    philox = np.random.Philox
    monkeypatch.setattr(np.random, "Philox", lambda key: keys.append(int(key)) or philox(key=key))
    seed = 62177
    shell = ens.ShellEnsemble(observable=harmonic, center=1.0, epsilon=0.3, samples=3200,
                              seed=seed)
    ens.invariance_check(shell, box(2.2), lambda z: z.copy(), tau=0.1)
    assert sorted(set(keys)) == [(seed << 16) + stream for stream in range(17)]


def test_given_batches_equal_the_default_draw():
    shell = ens.ShellEnsemble(observable=harmonic, center=1.0, epsilon=0.3,
                              samples=3_200, seed=9)
    region = box(2.2)
    batches = ens.shell_samples(shell, region)
    assert (ens.shell_probability(shell, region, harmonic, batches=batches)
            == ens.shell_probability(shell, region, harmonic))
    grad = lambda z: z.copy()
    assert (ens.invariance_check(shell, region, grad, 0.3, batches=batches)
            == ens.invariance_check(shell, region, grad, 0.3))


def test_invariance_bins_as_histogramdd():
    # points on the right edges and outside the box, before and after the
    # flow; np.histogramdd is the reference for every TV the check reports
    shell = ens.ShellEnsemble(observable=harmonic, center=1.0, epsilon=0.3,
                              samples=3_200, seed=4)
    region = box(2.2)
    batches = ens.shell_samples(shell, region)
    extra = np.array([[2.2, 0.0], [0.5, 2.2], [2.2, 2.2], [-2.2, 2.2], [3.0, 0.1],
                      [-1.0, -2.5], [np.nextafter(2.2, 3.0), 1.0], [-0.3, 2.2]])
    batches[0] = np.vstack([batches[0], extra])
    # q < 0 streams right by 3 tau, across the right edge for most; q >= 0 stays put
    grad = lambda z: np.where(z[:, :1] < 0.0, 1.0, 0.0) * np.array([0.0, 3.0])
    tau = 0.7
    out = ens.invariance_check(shell, region, grad, tau, batches=batches)

    before = np.concatenate(batches)
    after = ens._flow_rk4(before, grad, tau)
    assert np.any(after[:, 0] > 2.2) and np.any(after[:, 0] == 2.2)
    edges = [np.linspace(-2.2, 2.2, 13)] * 2

    def tv(a, b):
        ha = np.histogramdd(a, bins=edges)[0] / max(1, len(a))
        hb = np.histogramdd(b, bins=edges)[0] / max(1, len(b))
        return 0.5 * float(np.sum(np.abs(ha - hb)))

    gen = ens._stream(shell.seed, 16)
    half = len(before) // 2
    null = []
    for _ in range(12):
        perm = gen.permutation(len(before))
        null.append(tv(before[perm[:half]], before[perm[half:2 * half]]))
    assert out["tv_flow"] == tv(before, after) > 0.0
    assert out["tv_null_mean"] == float(np.mean(null))
    assert out["tv_null_std"] == float(np.std(null, ddof=1))


# a symmetric positive-definite Q per degree-of-freedom count, H = z Q z / 2
QUADRATICS = {
    1: np.array([[1.3, 0.4], [0.4, 0.9]]),
    2: np.array([[1.5, 0.3, 0.0, 0.2], [0.3, 1.0, 0.1, 0.0],
                 [0.0, 0.1, 0.8, 0.0], [0.2, 0.0, 0.0, 1.2]]),
}


def _quadratic_shell(n, q, seed):
    """A shell of H = z Q z / 2 at 1 +/- 0.15 in a box around it."""
    half = 1.05 * float(np.sqrt(2.0 * 1.15 / np.linalg.eigvalsh(q)[0]))
    region = ens.PhaseRegion(bounds=np.array([[-half, half]] * (2 * n)))
    shell = ens.ShellEnsemble(observable=lambda z: 0.5 * np.einsum("zi,ij,zj->z", z, q, z),
                              center=1.0, epsilon=0.3, samples=4_000 * 4**n, seed=seed)
    return shell, region


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("tau", [0.37, -0.52, 0.0])
@pytest.mark.parametrize("kind", ["harmonic", "quadratic"])
@pytest.mark.parametrize("n", [1, 2])
def test_step_matrix_flow_matches_the_callable_flow(n, kind, tau, seed):
    # 24 shells: the one-product flow of a linear field against stepping the points
    q = np.eye(2 * n) if kind == "harmonic" else QUADRATICS[n]
    shell, region = _quadratic_shell(n, q, seed)
    grad = (lambda z: z.copy()) if kind == "harmonic" else (lambda z: z @ q)
    batches = ens.shell_samples(shell, region)
    before = np.concatenate(batches)
    by_matrix = ens._flow_rk4(before, q, tau)
    by_steps = ens._flow_rk4(before, grad, tau)
    assert np.max(np.abs(by_matrix - by_steps)) <= 1e-12
    assert (ens.invariance_check(shell, region, q, tau, batches=batches)
            == ens.invariance_check(shell, region, grad, tau, batches=batches))


@pytest.mark.parametrize("bad", [
    np.eye(3), np.eye(4), np.ones(2), [[1.0, 0.0], [0.0, np.nan]],
    [[1.0, np.inf], [0.0, 1.0]], [["a", "b"], ["c", "d"]], [[1.0, 0.0], [0.0]],
], ids=["3x3", "4x4", "vector", "nan", "inf", "text", "ragged"])
def test_invariance_refuses_a_bad_field_matrix(bad):
    shell = ens.ShellEnsemble(observable=harmonic, center=1.0, epsilon=0.3,
                              samples=3_200, seed=3)
    with pytest.raises(ValueError, match="grad"):
        ens.invariance_check(shell, box(2.2), bad, 0.3)


def test_invariance_free_on_torus():
    # free streaming with periodic wrap in q preserves the uniform shell
    region = ens.PhaseRegion(bounds=np.array([[0.0, 1.0], [0.5, 1.5]]), hbar=1.0)
    shell = ens.ShellEnsemble(
        observable=lambda z: 0.5 * z[:, 1] ** 2, center=0.5, epsilon=0.2,
        samples=60_000, seed=8,
    )
    batches = ens.shell_samples(shell, region)
    before = np.concatenate(batches)
    after = before.copy()
    after[:, 0] = np.mod(after[:, 0] + after[:, 1] * 0.37, 1.0)
    edges = [np.linspace(region.bounds[i, 0], region.bounds[i, 1], 13) for i in range(2)]
    ha, _ = np.histogramdd(before, bins=edges)
    hb, _ = np.histogramdd(after, bins=edges)
    tv = 0.5 * np.abs(ha / len(before) - hb / len(after)).sum()
    ref = ens.invariance_check(shell, region, lambda z: z.copy(), tau=0.0)
    assert tv <= ref["tv_null_mean"] + 4.0 * ref["tv_null_std"]


# --- entropy ----------------------------------------------------------------------


def test_entropy_point_mass():
    assert ens.entropy_discrete([0.0, 1.0, 0.0]) == 0.0


def test_entropy_uniform():
    for n in (2, 5, 17):
        assert ens.entropy_discrete(np.full(n, 1.0 / n)) == pytest.approx(np.log(n))


def test_entropy_normalization_guard():
    with pytest.raises(NotNormalized):
        ens.entropy_discrete([0.5, 0.6])
    with pytest.raises(NotNormalized):
        ens.entropy_discrete([-0.1, 1.1])


def test_two_level_family():
    assert ens.two_level_entropy(2, 0.5) == pytest.approx(np.log(2.0), abs=1e-14)
    assert ens.two_level_entropy(7, 1.0 / 7.0) == pytest.approx(np.log(7.0), abs=1e-12)
    assert ens.two_level_entropy(5, 1.0) == 0.0
    # direct formula check
    n, q = 4, 0.7
    rest = (1 - q) / (n - 1)
    want = -(q * np.log(q) + (n - 1) * rest * np.log(rest))
    assert ens.two_level_entropy(n, q) == pytest.approx(want)


def test_two_level_monotone_from_uniform():
    n = 6
    qs = np.linspace(1.0 / n, 0.95, 30)
    vals = [ens.two_level_entropy(n, q) for q in qs]
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))
    qs_down = np.linspace(1.0 / n, 0.01, 30)
    vals_down = [ens.two_level_entropy(n, q) for q in qs_down]
    assert all(a >= b - 1e-12 for a, b in zip(vals_down, vals_down[1:]))


def test_uniform_weights_maximize_continuous_entropy():
    rng = np.random.default_rng(9)
    cells = np.full(64, 1.0 / 64)
    uniform = ens.entropy_continuous(np.full(64, 1.0 / 64), cells)
    for _ in range(50):
        w = rng.random(64)
        w /= w.sum()
        assert ens.entropy_continuous(w, cells) <= uniform + 1e-12


# --- induced metric volume ---------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3])
def test_phase_metric_volume_cancellation(n):
    rng = np.random.default_rng(30 + n)
    for _ in range(100):
        a = rng.normal(size=(n, n))
        g = a @ a.T + n * np.eye(n)
        conn = rng.normal(size=(n, n, n))
        conn = 0.5 * (conn + np.swapaxes(conn, 1, 2))
        p = rng.normal(size=n)
        alpha, beta = np.abs(rng.normal()) + 0.5, np.abs(rng.normal()) + 0.5
        got = ens.phase_metric_volume(g, conn, np.zeros(n), p, alpha, beta)
        assert abs(got - alpha**n * beta**n) <= 1e-10 * (1.0 + abs(got))


def test_phase_metric_volume_flat_case():
    assert ens.phase_metric_volume(
        np.eye(2), np.zeros((2, 2, 2)), np.zeros(2), np.zeros(2), 1.0, 1.0
    ) == pytest.approx(1.0)


def test_phase_metric_volume_rejects_bad_metric():
    with pytest.raises(SingularMetric):
        ens.phase_metric_volume(
            np.diag([1.0, -1.0]), np.zeros((2, 2, 2)), np.zeros(2), np.zeros(2), 1.0, 1.0
        )
