"""Seeded workloads: the operations a pass runs and the oracle each must meet.

A workload is a list of specs generated from the seed alone; ``build`` turns
the specs into runnable operations.  Most operations go through
``phasecraft.cli.run`` on a scenario file; the torque-driven top and the
star products call the library directly.  Generated scenarios keep the
program's default ``dt`` and never carry a ``tolerances`` override, so every
CLI check runs at its shipped bound.

An operation's ``run`` does the program's work and its ``check`` judges the
result, returning ``(digest, problems, artifact_bytes)``: the digest is the
manifest's (name, sha256) list (or a hash of the library result) that must
repeat across passes; ``problems`` lists every failed check or oracle.  The
two are apart so that a traced pass can leave the checks out of its spans.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from phasecraft import cli, fixtures, rigid, wigner
from phasecraft.algebra import GroupElement

DT = 1.0e-3  # the shipped time step, for the operations that bypass the CLI

# Oracle bounds, fixed here and never tuned per seed.
COUPLING_DRIFT = 1.0e-10   # lattice pair couplings M_12, N_12 (criterion 07)
BOUND_SEPARATION = 6.0     # bound pair stays bound (criterion 07)
ROTOR_CASIMIR = 1.0e-9     # |M|^2 + |N|^2 on n = 3 lattices
ENERGY_DRIFT = 1.0e-8      # tops, recomputed from the CSV; torque top
MARGINAL = 1.0e-8          # Wigner marginals and mass, from the written array
STAR_UNIT = 1.0e-8         # 1 * W = W
RADICAL = 1.0e-9           # omega(v, .) on the reported radical
KNOWN_COHOMOLOGY = {"so3": (0, 0), "sl2": (0, 0), "so13": (0, 0), "galilei": (None, 1)}


@dataclass
class Spec:
    id: str
    layer: str     # the layer whose result the oracle checks
    kind: str      # "cli", "torque_top" or "star"
    params: dict


@dataclass
class Op:
    id: str
    layer: str
    run: Callable[[Path], object]          # the program's work, given an output directory
    check: Callable[[Path, object], tuple]  # (digest, problems, artifact_bytes)


# ---------------------------------------------------------------------------
# generators


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed % 2**64, stream])


def _skew(upper) -> list:
    n = int(round((1 + np.sqrt(1 + 8 * len(upper))) / 2))
    m = np.zeros((n, n))
    m[np.triu_indices(n, 1)] = upper
    return (m - m.T).tolist()


def lattice_pairs(seed: int) -> list[Spec]:
    """n = 2 hyperbolic pairs around criterion 07's bound and scattering cases."""
    rng = _rng(seed, 1)
    specs = []
    for i in range(4):
        j1, j2, j3 = rng.uniform(0.96, 1.04, size=3)
        if i % 2 == 0:
            regime, n12, q0, p0 = "bound", 1.2 * j1, 1.5 * j2, j3 - 1.0
        else:
            regime, n12, q0, p0 = "scattering", 0.8 * j1, 3.0 * j2, -0.5 * j3
        scn = {
            "model": "lattice_hyperbolic",
            "constants": {"a": 1.0},
            "initial": {"q": [q0, -q0], "p": [p0, -p0], "M": _skew([1.0]), "N": _skew([n12])},
            "t_end": 1.5,
        }
        specs.append(Spec(f"pair{i}-{regime}", "affine", "cli",
                          {"subcommand": "affine", "scenario": scn, "regime": regime}))
    return specs


def _moments(rng) -> list:
    return sorted(float(x) for x in rng.uniform(1.0, 3.0, size=3))


def _direction(rng, n: int, norm: float) -> list:
    v = rng.normal(size=n)
    return (norm * v / np.linalg.norm(v)).tolist()


def rigid_tops(seed: int) -> list[Spec]:
    """Free so(3) tops on both integrators, and a torque-driven top.

    Momentum norms are fixed so the midpoint rule's fixed-point iteration
    count (3 per step) does not depend on the seed's random directions.
    """
    rng = _rng(seed, 2)
    specs = []
    for method, t_end in (("lie_midpoint", 2.0), ("rk4", 1.5)):
        scn = {
            "principal_moments": _moments(rng),
            "initial": {"sigma": _direction(rng, 3, 1.0)},
            "t_end": t_end,
            "method": method,
        }
        specs.append(Spec(f"free-{method}", "rigid", "cli", {"subcommand": "euler", "scenario": scn}))
    specs.append(Spec("torque-lie_midpoint", "rigid", "torque_top",
                      {"moments": _moments(rng), "sigma": _direction(rng, 3, 0.8), "steps": 200}))
    return specs


def general_bodies(seed: int) -> list[Spec]:
    """n = 3 lattices with live commutator terms and an so(1,3) top."""
    rng = _rng(seed, 3)
    specs = []
    for variant in ("hyperbolic", "trigonometric"):
        q = [1.0 + 0.1 * rng.normal(), 0.0, -1.0 + 0.1 * rng.normal()]
        scn = {
            "model": f"lattice_{variant}",
            "constants": {"a": 1.0},
            "initial": {
                "q": q,
                "p": (0.1 * rng.normal(size=3)).tolist(),
                "M": _skew(rng.uniform(0.5, 1.0, size=3)),
                "N": _skew(rng.uniform(0.2, 0.5, size=3)),
            },
            "t_end": 1.5,
        }
        specs.append(Spec(f"n3-{variant}", "affine", "cli", {"subcommand": "affine", "scenario": scn}))
    a = rng.normal(size=(6, 6))
    metric = np.eye(6) + 0.1 * (a @ a.T) / 6.0
    scn = {
        "algebra": "so13",
        "metric": metric.tolist(),
        "initial": {"sigma": _direction(rng, 6, 0.25)},
        "t_end": 2.0,
    }
    specs.append(Spec("so13-top", "rigid", "cli", {"subcommand": "euler", "scenario": scn}))
    return specs


_KINDS = ("ho-ground", "ho-excited", "gaussian", "cat")


def _state(rng, kind: str) -> dict:
    if kind == "ho-excited":
        return {"kind": kind, "k": int(rng.integers(1, 5))}
    if kind == "gaussian":
        # 1 * W = W degrades with width on a fixed box: 4e-8 at sigma 0.9, N = 64
        return {"kind": kind, "sigma": float(rng.uniform(0.5, 0.75))}
    if kind == "cat":
        return {"kind": kind, "separation": float(rng.uniform(3.0, 5.0))}
    return {"kind": kind}


def _grid(kind: str, n: int) -> dict:
    half = 12.0 if kind == "cat" else 8.0  # a cat's unit-width lobes need the wider box
    return {"N": n, "qmin": -half, "qmax": half}


def phase_grid(seed: int) -> list[Spec]:
    """Many short analyses: transforms, star products, shells, cohomology."""
    rng = _rng(seed, 4)
    specs = []
    # Counts put the median inside the N = 256 transforms and shells and the
    # 90th percentile inside the N = 512 transforms, not between classes.
    for n, count in ((256, 44), (512, 14)):
        for i in range(count):
            kind = _KINDS[i % 4]
            scn = {"state": _state(rng, kind), "grid": _grid(kind, n)}
            specs.append(Spec(f"wigner-N{n}-{i}", "wigner", "cli", {"subcommand": "wigner", "scenario": scn}))
    for n, count in ((64, 4), (128, 2)):
        for i in range(count):
            kind = _KINDS[(i % 2) * 2]  # ho-ground and gaussian
            specs.append(Spec(f"star-N{n}-{i}", "wigner", "star",
                              {"state": _state(rng, kind), "grid": _grid(kind, n)}))
    for i in range(26):
        a, eps = float(rng.uniform(0.8, 1.2)), float(rng.uniform(0.2, 0.3))
        half = 1.1 * float(np.sqrt(2.0 * (a + eps)))
        scn = {
            "observable": "harmonic",
            "a": a,
            "epsilon": eps,
            "box": [[-half, half], [-half, half]],
            "samples": 40_000,
            "seed": int(rng.integers(0, 2**31)),
            "flow_time": float(rng.uniform(0.3, 0.5)),
        }
        specs.append(Spec(f"shell-{i}", "ensembles", "cli", {"subcommand": "ensemble", "scenario": scn}))
    for name in fixtures.fixture_names():
        structure = fixtures.fixture(name).structure
        scn = {"algebra": name}
        omega = None
        if len(structure) >= 2:  # no two-forms on a line (see NOTES.md)
            # omega = theta o [.,.] is exact, hence closed: its radical is a subalgebra
            omega = np.einsum("k,kij->ij", rng.normal(size=len(structure)), structure)
            scn["omega"] = {"pairs": [[int(r), int(c), float(omega[r, c])]
                                      for r, c in zip(*np.triu_indices(len(omega), 1))
                                      if omega[r, c] != 0.0]}
        specs.append(Spec(f"cohomology-{name}", "forms", "cli",
                          {"subcommand": "cohomology", "scenario": scn, "omega": omega}))
    return specs


def bodies(seed: int) -> list[Spec]:
    """Every integration: the n = 2 pairs and so(3) tops that special cases
    can speed up, and the n = 3 lattices and so(1,3) top that they bypass."""
    return lattice_pairs(seed) + rigid_tops(seed) + general_bodies(seed)


WORKLOADS = {"bodies": bodies, "phase_grid": phase_grid}


# ---------------------------------------------------------------------------
# operations and oracles


def _sha(arr) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


def _csv(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return {name: data[:, i] for i, name in enumerate(header)}


def _failed_checks(out: Path, manifest: dict) -> list[str]:
    bad = []
    for rec in manifest["files"]:
        if rec["name"].endswith(".json"):
            doc = json.loads((out / rec["name"]).read_text())
            bad += [f"{c['name']} {c['value']:.3e} > {c['bound']:.3e}"
                    for c in doc.get("checks", []) if not c["pass"]]
    return bad


def _over(label: str, value: float, bound: float) -> list[str]:
    return [] if value <= bound else [f"{label} {value:.3e} > {bound:.3e}"]


def psi_of(state: dict, grid: dict) -> wigner.GridWavefunction:
    """The normalized state a wigner scenario describes."""
    n, lo, hi = int(grid["N"]), float(grid["qmin"]), float(grid["qmax"])
    kind = state["kind"]
    if kind == "ho-ground":
        psi = wigner.ho_ground(n, lo, hi)
    elif kind == "ho-excited":
        psi = wigner.ho_excited(int(state["k"]), n, lo, hi)
    elif kind == "gaussian":
        psi = wigner.gaussian_packet(float(state["sigma"]), n, lo, hi)
    else:
        psi = wigner.cat_state(float(state["separation"]), n, lo, hi)
    return psi.normalized()


def _pair_oracle(spec: Spec, out: Path) -> list[str]:
    col = _csv(out / "affine.csv")
    init = spec.params["scenario"]["initial"]
    # |M|_F = sqrt(2) |M_12| for a 2 x 2 skew matrix
    m_drift = np.max(np.abs(col["m_norm"] / np.sqrt(2.0) - abs(init["M"][0][1])))
    n_drift = np.max(np.abs(col["n_norm"] / np.sqrt(2.0) - abs(init["N"][0][1])))
    problems = _over("coupling drift", float(max(m_drift, n_drift)), COUPLING_DRIFT)
    if spec.params["regime"] == "bound":
        problems += _over("bound separation", float(np.max(col["q_1"] - col["q_2"])), BOUND_SEPARATION)
    return problems


def _n3_oracle(spec: Spec, out: Path) -> list[str]:
    col = _csv(out / "affine.csv")
    casimir = col["m_norm"] ** 2 + col["n_norm"] ** 2
    drift = np.max(np.abs(casimir - casimir[0])) / (1.0 + casimir[0])
    return _over("rotor casimir drift", float(drift), ROTOR_CASIMIR)


def _euler_oracle(spec: Spec, out: Path) -> list[str]:
    scn = spec.params["scenario"]
    col = _csv(out / "euler.csv")
    if "principal_moments" in scn:
        ginv = np.diag(1.0 / np.asarray(scn["principal_moments"]))
    else:
        ginv = np.linalg.inv(np.asarray(scn["metric"]))
    sigma = np.stack([col[f"sigma_{i + 1}"] for i in range(len(ginv))], axis=1)
    energy = 0.5 * np.einsum("ti,ij,tj->t", sigma, ginv, sigma)
    scale = 1.0 + abs(energy[0])
    return (_over("energy vs csv", float(np.max(np.abs(energy - col["energy"]))) / scale, 1.0e-12)
            + _over("energy drift", float(np.max(np.abs(energy - energy[0]))) / scale, ENERGY_DRIFT))


def _wigner_oracle(spec: Spec, out: Path) -> list[str]:
    meta = json.loads((out / "wigner.json").read_text())
    w = np.fromfile(out / "wigner.f64", dtype="<f8").reshape(meta["shape"])
    psi = psi_of(spec.params["scenario"]["state"], spec.params["scenario"]["grid"])
    pos = w.sum(axis=1) * meta["dp"]
    mom = w.sum(axis=0) * meta["dq"]
    return (_over("position marginal", float(np.max(np.abs(pos - np.abs(psi.psi) ** 2))), MARGINAL)
            + _over("momentum marginal", float(np.max(np.abs(mom - np.abs(psi.fourier()) ** 2))), MARGINAL)
            + _over("mass", abs(float(w.sum()) * meta["dq"] * meta["dp"] - 1.0), MARGINAL))


def _cohomology_oracle(spec: Spec, out: Path) -> list[str]:
    rep = json.loads((out / "cohomology.json").read_text())
    problems = []
    for k in (1, 2):
        # below the top degree only: Z^n is reported as 0 while H^n counts it (NOTES.md)
        if k < rep["dim"] and rep[f"H{k}"] != rep[f"Z{k}"] - rep[f"B{k}"]:
            problems.append(f"H{k} != Z{k} - B{k}")
    for k, want in zip((1, 2), KNOWN_COHOMOLOGY.get(spec.params["scenario"]["algebra"], ())):
        if want is not None and rep[f"H{k}"] != want:
            problems.append(f"H{k} = {rep[f'H{k}']}, expected {want}")
    omega = spec.params["omega"]
    if omega is None:
        return problems
    basis = np.asarray(rep["radical"]["basis"], dtype=float).reshape(-1, rep["dim"])
    codim = rep["radical"]["codim"]
    if codim != np.linalg.matrix_rank(omega, tol=1.0e-10) or codim % 2 or len(basis) != rep["dim"] - codim:
        problems.append(f"radical codim {codim} disagrees with rank(omega)")
    if len(basis):
        problems += _over("omega on radical", float(np.max(np.abs(basis @ omega))), RADICAL)
    return problems


_ORACLES = {
    "affine": lambda spec, out: (_pair_oracle if "regime" in spec.params else _n3_oracle)(spec, out),
    "euler": _euler_oracle,
    "wigner": _wigner_oracle,
    "ensemble": lambda spec, out: [],  # the CLI's flow_drift check is the gate
    "cohomology": _cohomology_oracle,
}


def _cli_op(spec: Spec, scenario_dir: Path) -> Op:
    path = scenario_dir / f"{spec.id}.json"
    path.write_text(json.dumps(spec.params["scenario"], sort_keys=True))
    sub = spec.params["subcommand"]

    def run(out: Path):
        return cli.run(sub, str(path), str(out), None)

    def check(out: Path, rc):
        manifest = json.loads((out / "manifest.json").read_text())
        problems = [] if rc == 0 else [f"{sub} exit {rc}"] + _failed_checks(out, manifest)
        problems += _ORACLES[sub](spec, out)
        digest = [(f["name"], f["sha256"]) for f in manifest["files"]]
        return digest, problems, sum(f["bytes"] for f in manifest["files"])

    return Op(spec.id, spec.layer, run, check)


def torque_top_model(params: dict):
    """The top ``phasecraft euler`` would run with ``potential: trace_alignment``."""
    model = rigid.so3_model(params["moments"], potential=cli._builtin_potential("trace_alignment"))
    state = rigid.BodyState(GroupElement(np.eye(3), tag="special-orthogonal"),
                            np.asarray(params["sigma"]))
    return model, state


def _torque_op(spec: Spec) -> Op:
    steps = spec.params["steps"]

    def run(_out: Path):
        model, state = torque_top_model(spec.params)
        return model, rigid.integrate(model, state, DT, steps, method="lie_midpoint", sample_every=10)

    def check(_out: Path, result):
        model, traj = result
        drift = rigid.conservation_report(model, traj)["energy_drift"]
        sigmas = np.array([s.sigma for s in traj.states])
        return [("sigma", _sha(sigmas))], _over("energy drift", drift, ENERGY_DRIFT), 0

    return Op(spec.id, spec.layer, run, check)


def _star_op(spec: Spec) -> Op:
    def run(_out: Path):
        w = wigner.wigner_transform(psi_of(spec.params["state"], spec.params["grid"]))
        return w, wigner.star_product(wigner.phase_grid_constant(1.0, w), w)

    def check(_out: Path, result):
        w, prod = result
        err = float(np.max(np.abs(prod.values - w.values)))
        return [("star", _sha(prod.values))], _over("1 * W - W", err, STAR_UNIT), 0

    return Op(spec.id, spec.layer, run, check)


def build(specs: list[Spec], scenario_dir: Path) -> list[Op]:
    """Runnable operations; CLI scenarios are written to ``scenario_dir`` now."""
    scenario_dir.mkdir(parents=True, exist_ok=True)
    ops = []
    for spec in specs:
        if spec.kind == "cli":
            ops.append(_cli_op(spec, scenario_dir))
        elif spec.kind == "torque_top":
            ops.append(_torque_op(spec))
        else:
            ops.append(_star_op(spec))
    return ops
