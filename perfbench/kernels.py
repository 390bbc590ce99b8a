"""Kernel rates: phasecraft's hot public functions timed one at a time.

Inputs come from the workloads' generators for the run's seed, so each rate
is measured on the data a workload feeds that kernel.  Every row of the
baseline table in ROADMAP.md has a metric here; ``run.py --trace 1`` reports
them all as per-layer metrics.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np
import scipy.linalg

from phasecraft import affine, ensembles, forms, rigid, wigner
from phasecraft.algebra import BilinearForm, GroupElement
from phasecraft.fixtures import fixture

import tracing
import workloads
from workloads import DT

CHUNK_S = 0.02     # calls are batched into chunks of at least this length
BUDGET_S = 0.2     # and chunks repeat for at least this long, three at minimum
TORQUE_STEPS = 20  # steps counted for the per-step call ratios


def per_call(fn, budget: float = BUDGET_S) -> float:
    """Median seconds per call over chunks, after one untimed warm-up call."""
    start = perf_counter()
    fn()
    once = perf_counter() - start
    reps = max(1, int(CHUNK_S / max(once, 1e-7)))
    samples = []
    deadline = perf_counter() + budget
    while len(samples) < 3 or perf_counter() < deadline:
        start = perf_counter()
        for _ in range(reps):
            fn()
        samples.append((perf_counter() - start) / reps)
    return statistics.median(samples)


def _lattice(spec) -> affine.TwoPolarState:
    init = spec.params["scenario"]["initial"]
    n = len(init["q"])
    return affine.TwoPolarState(L=np.eye(n), R=np.eye(n), q=np.asarray(init["q"]),
                                p=np.asarray(init["p"]), M=np.asarray(init["M"]),
                                N=np.asarray(init["N"]))


def _free_top(spec):
    scn = spec.params["scenario"]
    model = rigid.so3_model(scn["principal_moments"])
    state = rigid.BodyState(GroupElement(np.eye(3), tag="special-orthogonal"),
                            np.asarray(scn["initial"]["sigma"]))
    return model, state, scn.get("method", "lie_midpoint")


def _so13_top(spec):
    scn = spec.params["scenario"]
    model = rigid.InvariantModel(fixture("so13"), BilinearForm(np.asarray(scn["metric"])), "left")
    state = rigid.BodyState(GroupElement(np.eye(4), tag="general-linear"),
                            np.asarray(scn["initial"]["sigma"]))
    return model, state, "lie_midpoint"


def _stepper(model, state, method):
    current = [state]

    def advance():
        current[0] = rigid.step(model, current[0], DT, method=method)

    return advance


def _shell(scn, samples):
    region = ensembles.PhaseRegion(bounds=np.asarray(scn["box"]), hbar=1.0)
    shell = ensembles.ShellEnsemble(observable=lambda z: 0.5 * np.sum(z**2, axis=1),
                                    center=scn["a"], epsilon=scn["epsilon"],
                                    samples=samples, seed=scn["seed"])
    return shell, region


def measure(seed: int) -> dict:
    """Every kernel metric as ``{name: (value, unit)}``."""
    pairs = workloads.lattice_pairs(seed)
    tops = workloads.rigid_tops(seed)
    general = workloads.general_bodies(seed)
    grid_specs = workloads.phase_grid(seed)
    out = {}

    hyper = {"a": 1.0}
    for tag, spec in (("n2", pairs[0]), ("n3", general[0])):
        lat = _lattice(spec)
        out[f"affine.rhs_us.{tag}"] = (
            1e6 * per_call(lambda: affine.lattice_rhs("hyperbolic", hyper, lat)), "us")
        out[f"affine.rk4_step_us.{tag}"] = (
            1e6 / 100 * per_call(lambda: affine.lattice_dynamics(
                "hyperbolic", hyper, lat, DT, 100, sample_every=100)), "us")

    torque_model, torque_state = workloads.torque_top_model(tops[2].params)
    bodies = {
        "free_so3": _free_top(tops[0]),
        "rk4_so3": _free_top(tops[1]),
        "torque_so3": (torque_model, torque_state, "lie_midpoint"),
        "so13": _so13_top(general[2]),
    }
    for tag, (model, state, method) in bodies.items():
        out[f"rigid.step_us.{tag}"] = (1e6 * per_call(_stepper(model, state, method)), "us")
    out["rigid.torque_us"] = (
        1e6 * per_call(lambda: rigid.torque_from_potential(torque_model, torque_state.g)), "us")
    free_model, free_state, _ = bodies["free_so3"]
    om = free_model.algebra.matrix_of(rigid.legendre_inv(free_model, free_state.sigma))
    out["rigid.expm_us"] = (1e6 * per_call(lambda: scipy.linalg.expm(DT * om)), "us")
    counter = tracing.Tracer()
    with counter.installed():
        rigid.integrate(torque_model, torque_state, DT, TORQUE_STEPS)
    for key in ("torque_calls", "expm_calls"):
        out[f"rigid.{key}_per_step"] = (counter.counts[f"rigid.{key}"] / TORQUE_STEPS, "1")

    states = {}
    for spec in grid_specs:
        params = spec.params.get("scenario", spec.params)
        if "grid" in params:
            states.setdefault(params["grid"]["N"], workloads.psi_of(params["state"], params["grid"]))
    for n in (64, 128, 256, 512):
        out[f"wigner.transform_ms.N{n}"] = (1e3 * per_call(lambda: wigner.wigner_transform(states[n])), "ms")
    for n in (64, 128, 256):
        w = wigner.wigner_transform(states[n])
        one = wigner.phase_grid_constant(1.0, w)
        out[f"wigner.star_ms.N{n}"] = (1e3 * per_call(lambda: wigner.star_product(one, w)), "ms")

    for name in ("galilei", "heisenberg_rot", "gl3", "so13"):
        alg = fixture(name)
        out[f"forms.coboundary_ms.{name}.k2"] = (1e3 * per_call(lambda: forms.coboundary_matrix(alg, 2)), "ms")
    for name in ("so13", "gl3", "heisenberg_rot"):
        alg = fixture(name)
        out[f"forms.cohomology_ms.{name}.k2"] = (1e3 * per_call(lambda: forms.cohomology_dim(alg, 2)), "ms")

    shell_scn = next(s.params["scenario"] for s in grid_specs if s.layer == "ensembles")
    shell, region = _shell(shell_scn, 100_000)
    out["ensembles.shell_us_per_1e5"] = (1e6 * per_call(lambda: ensembles.shell_samples(shell, region)), "us")
    shell, region = _shell(shell_scn, shell_scn["samples"])
    out["ensembles.invariance_ms"] = (1e3 * per_call(lambda: ensembles.invariance_check(
        shell, region, lambda z: z.copy(), shell_scn["flow_time"])), "ms")
    return out

