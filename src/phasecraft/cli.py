"""Scenario runner: validates JSON scenarios, runs the requested module and
writes deterministic artifacts plus a content-hashed manifest.

    phasecraft <euler|affine|ensemble|wigner|cohomology|selftest|report>
               [scenario.json] [--out DIR] [--seed N]

Time series go to CSV, reports to JSON, 2-D fields to raw little-endian
float64 with a JSON sidecar.  Reruns with the same scenario and seed
produce byte-identical files.

Exit codes: 0 every check passed, 1 a check failed, 2 a bad scenario or a
library error (``PhasecraftError``), 3 an internal error.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import sys

import numpy as np

from . import affine, ensembles, forms, rigid, wigner
from .algebra import BilinearForm, GroupElement, algebra_from_json
from .checks import CRITERIA, check
from .errors import IoError, PhasecraftError, SchemaError, Singular
from .fixtures import fixture, fixture_names
from .schema import (MATRIX, VECTOR, array, at_most, integer, nonnegative, number, one_of,
                     positive, read, rows, variants)

_FLOAT_FMT = "%.17g"


# ---------------------------------------------------------------------------
# scenario tables (see schema): one table per variant, so each lists only the
# keys its variant reads; cross-key checks stay with the runners


def _algebra(value, key: str):
    """A fixture name, a path or an inline document, resolved to its algebra."""
    if isinstance(value, str) and value in fixture_names():
        return fixture(value)
    if isinstance(value, str) and os.path.exists(value):
        value = _load_json(value, "algebra")
    elif not isinstance(value, dict):
        raise SchemaError(f"{key} must be a fixture name, a path or an inline document, "
                          f"got {value!r}; fixtures: {fixture_names()}")
    try:
        return algebra_from_json(json.dumps(value))
    except ValueError as exc:  # the algebra's own checks: indices, Jacobi identity, basis
        raise SchemaError(f"bad algebra document: {exc}") from exc


def _observable(value, key: str):
    """'harmonic' or ``{"quadratic": matrix}``; the runner checks its size."""
    if value == "harmonic":
        return value
    return read({"quadratic": (MATRIX,)}, value, key)


# default check bounds per runner; a scenario's "tolerances" overrides them
_TOLERANCES = {
    "euler": {"energy_drift": 1.0e-8, "momentum_drift": 1.0e-6, "casimir_drift": 1.0e-10},
    "affine": {"energy_rate": 1.0e-7, "coupling_drift": 1.0e-10},
    "wigner": {"marginal": 1.0e-8, "mass": 1.0e-8},
}

# size budgets, each from the largest shipped or benchmarked run (README lists the reasons):
_MAX_STEPS = 10_000_000  # euler/affine steps: 100 x sutherland_bound_pair's 1e5
_MAX_SAMPLES = 1_000_000  # 2.5 x harmonic_shell's 4e5; 250 MB if every sample is accepted
_MAX_POINT_STEPS = 100_000_000  # samples x flow steps: 7 x harmonic_shell's 1.5e7
_MAX_DOF = 3  # ensemble histograms have 8^(2n) and 12^(2n) cells: 24 MB at n = 3, 3.4 GB at 4
_MAX_GRID = 1024  # wigner grid.N: 2 x the shipped and benchmarked 512; a run peaks near 55 MB

# affine model: (its lattice variant, the constant that sets the coupling)
_AFFINE_MODELS = {"standard": ("calogero", "J_iso"), "affine_left": ("hyperbolic", "a"),
                  "affine_right": ("hyperbolic", "a"), "lattice_hyperbolic": ("hyperbolic", "a"),
                  "lattice_trigonometric": ("trigonometric", "a"),
                  "lattice_calogero": ("calogero", "I")}
_SEED = (integer(0), None)
_TIME_GRID = {"t_end": (positive,), "dt": (positive, 1.0e-3), "sample_every": (integer(1), None)}


def _bounds(subcommand: str) -> tuple:
    return ({name: (nonnegative, bound) for name, bound in _TOLERANCES[subcommand].items()}, {})


def _euler(model: dict) -> dict:
    return {"initial": ({"sigma": (VECTOR,), "g": (MATRIX, None)},), **_TIME_GRID, **model,
            "chirality": (one_of("left", "right"), "left"),
            "potential": (one_of("none", "trace_alignment"), "none"),
            "method": (one_of("lie_midpoint", "rk4"), "lie_midpoint"),
            "tolerances": _bounds("euler"), "seed": _SEED}


# the configuration chart (phi, sigma_hat) or the lattice chart (q, p, M, N[, L, R])
_CHARTS = variants(lambda init: "configuration" if "phi" in init else "lattice", {
    "configuration": {"phi": (MATRIX,), "sigma_hat": (MATRIX,)},
    "lattice": {"q": (VECTOR,), "p": (VECTOR,), "M": (MATRIX,), "N": (MATRIX,),
                "L": (MATRIX, None), "R": (MATRIX, None)},
})


def _affine(model: str, strength: str) -> dict:
    return {"model": (one_of(model),), "initial": (_CHARTS,),
            "constants": ({strength: (positive, 1.0)}, {}), **_TIME_GRID,
            "tolerances": _bounds("affine"), "seed": _SEED}


_SCENARIOS = {
    "euler": variants(lambda doc: "moments" if "principal_moments" in doc else "metric", {
        "moments": _euler({"principal_moments": (array(3),)}),
        "metric": _euler({"algebra": (_algebra, "so3"), "metric": (MATRIX,)}),
    }),
    "affine": variants(lambda doc: doc.get("model"), {
        model: _affine(model, strength) for model, (_, strength) in _AFFINE_MODELS.items()}),
    "ensemble": {
        "observable": (_observable,), "a": (number,), "epsilon": (positive,),
        "box": (at_most(array(None, 2), 2 * _MAX_DOF, size=len),),
        "samples": (at_most(integer(16), _MAX_SAMPLES),), "seed": (integer(0),),
        "hbar": (positive, 1.0), "expectation": (_observable, None), "flow_time": (number, None),
    },
    "wigner": {
        "state": (variants(lambda state: state.get("kind"), {
            kind: {"kind": (one_of(kind),), **parameter} for kind, parameter in (
                ("ho-ground", {}), ("ho-excited", {"k": (integer(0), 1)}),
                ("gaussian", {"sigma": (positive, 1.0)}),
                ("cat", {"separation": (nonnegative, 4.0)}))}),),
        "grid": ({"N": (at_most(integer(4), _MAX_GRID),), "qmin": (number,),
                  "qmax": (number,)},),
        "hbar": (positive, 1.0),
        "tolerances": _bounds("wigner"),
        "seed": _SEED,
    },
    "cohomology": {
        "algebra": (_algebra,),
        # the runner checks the indices against the algebra
        "omega": ({"pairs": (rows(integer(0), integer(0), number),)}, None),
        "seed": _SEED,
    },
}


def _load_json(path: str, what: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise IoError(f"cannot read {what} {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON ({exc.msg})") from exc
    except (ValueError, RecursionError) as exc:  # not UTF-8, or nested too deeply
        raise SchemaError(f"{path}: invalid JSON ({exc})") from exc


def _parse(path: str, subcommand: str, seed: int | None = None) -> tuple[dict, dict]:
    """(the scenario as given, its values read through the subcommand's table);
    ``seed`` fills in a missing ``seed`` key and is checked by its rule."""
    doc = _load_json(path, "scenario")
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: scenario must be a JSON object")
    if subcommand == "cohomology" and "dim" in doc and "structure" in doc:
        doc = {"algebra": doc}  # bare algebra document
    if seed is not None:
        doc.setdefault("seed", seed)
    return doc, read(_SCENARIOS[subcommand], doc)


def _shape(arr, key: str, shape: tuple, default=None):
    """A table-checked array that must have ``shape``; ``default`` if absent."""
    if arr is None:
        return default
    if arr.shape != shape:
        raise SchemaError(f"{key} must have shape {shape}, got {arr.shape}")
    return arr


# ---------------------------------------------------------------------------
# artifact helpers


class _Artifacts:
    """A run's files, kept in memory by name until ``finish`` writes them, so a
    run that raises writes nothing and a refused scenario leaves no directory."""

    def __init__(self):
        self.files = {}

    def write_json(self, name: str, doc) -> None:
        self.files[name] = (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()

    def write_csv(self, name: str, columns: dict) -> None:
        """One column per header name, every value as ``%.17g``."""
        row_fmt = ",".join([_FLOAT_FMT] * len(columns))
        rows = np.column_stack(list(columns.values())).tolist()
        lines = [",".join(columns)] + [row_fmt % tuple(row) for row in rows]
        self.files[name] = ("\n".join(lines) + "\n").encode()

    def write_array(self, name: str, arr: np.ndarray) -> None:
        """Keep the array's own little-endian float64 buffer; a copy only when
        it has another dtype or layout."""
        self.files[name] = memoryview(np.ascontiguousarray(arr, dtype="<f8")).cast("B")

    def finish(self, out_dir: str, extra: dict) -> dict:
        """Write every file into ``out_dir``, then manifest.json: every file with
        its hash, plus ``extra``.  An old manifest is removed first, so a write
        stopped part-way leaves no manifest rather than a wrong one, and so are
        the files that it lists, this run does not write and that still hold
        the bytes it recorded."""
        files = sorted(self.files.items())
        records = [{"name": name, "sha256": hashlib.sha256(payload).hexdigest(),
                    "bytes": len(payload)} for name, payload in files]
        manifest = {"files": records, **extra}
        text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
        old_manifest = os.path.join(out_dir, "manifest.json")
        try:
            os.makedirs(out_dir, exist_ok=True)
            stale = [os.path.join(out_dir, name) for name, sha in _listed_files(old_manifest).items()
                     if name not in self.files and _sha256_of(os.path.join(out_dir, name)) == sha]
            with contextlib.suppress(FileNotFoundError):
                os.remove(old_manifest)
            for path in stale:
                os.remove(path)
            for name, payload in [*files, ("manifest.json", text.encode())]:
                with open(os.path.join(out_dir, name), "wb") as fh:
                    fh.write(payload)
        except OSError as exc:
            raise IoError(f"cannot write the run to {out_dir!r}: {exc}") from exc
        return manifest


def _listed_files(manifest_path: str) -> dict:
    """The plain file names (no directory part, not the manifest) that a
    manifest lists, each with its recorded sha256; none when it cannot be
    read or is malformed."""
    try:
        with open(manifest_path, encoding="utf-8") as fh:
            listed = {record["name"]: record["sha256"] for record in json.load(fh)["files"]}
        return {name: sha for name, sha in listed.items()
                if os.path.basename(name) == name and name != "manifest.json"}
    except (OSError, ValueError, TypeError, KeyError):
        return {}


def _sha256_of(path: str) -> str | None:
    """The hex SHA-256 of a plain file's bytes; None when it is no plain file."""
    if not os.path.isfile(path):
        return None
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# ---------------------------------------------------------------------------
# subcommand runners: each takes the values its table read


def _within_budget(steps: float, what: str, budget: int = _MAX_STEPS) -> None:
    if steps > budget:
        raise SchemaError(f"{what} = {steps:.3g} exceeds the budget of {budget:.0e}")


def _time_grid(scn: dict) -> tuple[float, float, int, int]:
    """(dt, t_end, steps, sample_every) of an euler or affine scenario."""
    dt, t_end = scn["dt"], scn["t_end"]
    _within_budget(t_end / dt, "t_end / dt")
    steps = max(1, int(round(t_end / dt)))
    return dt, t_end, steps, scn.get("sample_every") or max(1, steps // 200)


def _run_euler(scn: dict, art: _Artifacts) -> list[dict]:
    dt, t_end, steps, sample_every = _time_grid(scn)
    tol = scn["tolerances"]
    potential = _builtin_potential(scn["potential"])

    try:  # the model's own checks: positive moments, symmetric metric, dimension
        if "principal_moments" in scn:
            model = rigid.so3_model(scn["principal_moments"], scn["chirality"], potential)
        else:
            alg = scn["algebra"]
            if alg.basis is None:
                raise SchemaError(f"algebra {alg.label!r} has no matrix basis; reconstruction "
                                  "needs one (use a fixture with matrices or supply basis)")
            model = rigid.InvariantModel(alg, BilinearForm(scn["metric"]), scn["chirality"],
                                         potential=potential)
    except ValueError as exc:
        raise SchemaError(f"bad model: {exc}") from exc

    init = scn["initial"]
    m = model.algebra.basis[0].shape[0]
    # a basis of real antisymmetric 3x3 matrices generates SO(3), whatever its label
    g0 = GroupElement(_shape(init["g"], "initial.g", (m, m), default=np.eye(m)),
                      tag="special-orthogonal" if model._skew3 else "general-linear")
    try:  # 1e-10: the rotor tolerance of the affine lattice chart
        outside = g0.membership_residual() > 1.0e-10
    except Singular:
        outside = True
    if outside:
        raise SchemaError(f"initial.g must lie in the {g0.tag} group of the algebra's basis")
    sigma = _shape(init["sigma"], "initial.sigma", (model.algebra.dim,))
    state = rigid.BodyState(g0, sigma)
    traj = rigid.integrate(model, state, dt, steps, method=scn["method"], sample_every=sample_every)
    report = rigid.conservation_report(model, traj)

    sigmas = np.array([st.sigma for st in traj.states])
    energy, momenta = traj.diagnostics["energy"], traj.diagnostics["momentum_map"]
    columns = {"t": traj.times, **{f"sigma_{i+1}": sigmas[:, i] for i in range(model.algebra.dim)},
               "energy": energy}
    has_casimir = "casimir" in traj.diagnostics
    if has_casimir:
        columns["casimir_1"] = traj.diagnostics["casimir"]
    columns["energy_drift"] = np.abs(energy - energy[0]) / (1.0 + abs(energy[0]))
    columns["momentum_drift"] = (np.max(np.abs(momenta - momenta[0]), axis=1)
                                 / (1.0 + np.max(np.abs(momenta[0]))))
    art.write_csv("euler.csv", columns)

    checks = [check("energy_drift", report["energy_drift"], tol["energy_drift"])]
    # a torque breaks both symmetries: their drifts stay in the report only
    if model.potential is None:
        checks.append(check("momentum_drift", report["momentum_map_drift"], tol["momentum_drift"]))
        if has_casimir:
            checks.append(check("casimir_drift", report["casimir_drift"], tol["casimir_drift"]))
    art.write_json("conservation.json", {"report": report, "checks": checks})
    return checks


def _builtin_potential(name: str):
    if name == "trace_alignment":
        # uniform torque toward the identity attitude
        return lambda g: -float(np.trace(g.matrix))
    return None


def _run_affine(scn: dict, art: _Artifacts) -> list[dict]:
    model, constants, init = scn["model"], scn["constants"], scn["initial"]
    dt, t_end, steps, sample_every = _time_grid(scn)
    tol = scn["tolerances"]
    n = len(init["phi"] if "phi" in init else init["q"])
    if n > affine._MAX_LATTICE_N:  # checked before the lattice kernel is generated
        raise SchemaError(f"the lattice has n = {n} invariants, over the budget of "
                          f"{affine._MAX_LATTICE_N}")

    try:
        if "phi" in init:
            state = affine.AffineState(
                phi=_shape(init["phi"], "initial.phi", (n, n)),
                sigma_hat=_shape(init["sigma_hat"], "initial.sigma_hat", (n, n)),
            )
            lat = affine.to_two_polar(state)
        else:
            lat = affine.TwoPolarState(
                L=_shape(init["L"], "initial.L", (n, n), default=np.eye(n)),
                R=_shape(init["R"], "initial.R", (n, n), default=np.eye(n)),
                q=init["q"],
                p=_shape(init["p"], "initial.p", (n,)),
                M=_shape(init["M"], "initial.M", (n, n)),
                N=_shape(init["N"], "initial.N", (n, n)),
            )
    except ValueError as exc:  # the state's own checks: ordering, orthogonality, symmetry
        raise SchemaError(f"bad initial state: {exc}") from exc

    variant, strength = _AFFINE_MODELS[model]
    params = {"I" if variant == "calogero" else "a": constants[strength]}

    states = affine.lattice_dynamics(variant, params, lat, dt, steps, sample_every=sample_every)
    n, q = lat.n, np.array([s.q for s in states])
    energies = [affine.lattice_hamiltonian(variant, params, s) for s in states]
    # states are sampled at steps 0, sample_every, 2 sample_every, ... and steps
    art.write_csv("affine.csv", {
        "t": dt * np.append(sample_every * np.arange(len(states) - 1), steps),
        **{f"q_{i+1}": q[:, i] for i in range(n)}, "energy": energies,
        "m_norm": [np.linalg.norm(s.M) for s in states],
        "n_norm": [np.linalg.norm(s.N) for s in states]})

    e_drift = max(abs(e - energies[0]) for e in energies) / (1.0 + abs(energies[0]))
    checks = [check("energy_drift", e_drift / max(t_end, 1.0), tol["energy_rate"])]
    if n == 2:
        m_drift = max(abs(s.M[0, 1] - lat.M[0, 1]) for s in states)
        n_drift = max(abs(s.N[0, 1] - lat.N[0, 1]) for s in states)
        checks.append(check("m_drift", m_drift, tol["coupling_drift"]))
        checks.append(check("n_drift", n_drift, tol["coupling_drift"]))
    art.write_json(
        "conservation.json",
        {"energy_initial": energies[0], "energy_drift": e_drift, "checks": checks},
    )
    return checks


def _run_ensemble(scn: dict, art: _Artifacts) -> list[dict]:
    flow_time = scn["flow_time"]
    if flow_time is not None:
        _within_budget(scn["samples"] * abs(flow_time) / ensembles.FLOW_STEP,
                       "samples x |flow_time| / flow step", _MAX_POINT_STEPS)

    def build_observable(spec):
        """(H, A): H(z) = z Q z / 2 and its gradient z @ A, A = (Q + Q^T) / 2."""
        if spec == "harmonic":
            return (lambda z: 0.5 * np.sum(z**2, axis=1)), np.eye(2 * region.n_dof)
        qmat = _shape(spec["quadratic"], "quadratic", (2 * region.n_dof,) * 2)
        return lambda z: 0.5 * np.einsum("zi,ij,zj->z", z, qmat, z), 0.5 * (qmat + qmat.T)

    try:  # the constructors' own checks: box rows and order, width, samples, seed
        region = ensembles.PhaseRegion(bounds=scn["box"], hbar=scn["hbar"])
        observable, grad = build_observable(scn["observable"])
        shell = ensembles.ShellEnsemble(
            observable=observable,
            center=scn["a"],
            epsilon=scn["epsilon"],
            samples=scn["samples"],
            seed=scn["seed"],
        )
    except ValueError as exc:
        raise SchemaError(f"bad ensemble: {exc}") from exc
    cell_mu = ensembles.liouville_volume(region) / 8 ** (2 * region.n_dof)  # histogram cell
    if not 0 < cell_mu < np.inf:
        raise SchemaError(f"box and hbar give a histogram cell of {cell_mu!r} phase-space volumes")
    f_fun, _ = build_observable(scn["expectation"] or scn["observable"])
    batches = ensembles.shell_samples(shell, region)  # drawn once, read three times
    result = ensembles.shell_probability(shell, region, f_fun, batches=batches)
    pts = np.concatenate(batches)
    hist, _ = np.histogramdd(pts, bins=[8] * (2 * region.n_dof), range=region.bounds)
    weights = (hist / hist.sum()).ravel()
    entropy = ensembles.entropy_continuous(weights, np.full(weights.size, cell_mu))

    out = {
        "Z": result["Z"],
        "stderr_Z": result["stderr_Z"],
        "expectation": {"mean": result["mean"], "stderr": result["stderr_mean"]},
        "entropy": entropy,
        "accepted": int(sum(len(b) for b in batches)),
    }
    checks = []
    if flow_time is not None:
        inv = ensembles.invariance_check(shell, region, grad, flow_time, batches=batches)
        out["invariance"] = inv
        checks.append(check("flow_drift", inv["tv_flow"],
                            inv["tv_null_mean"] + 3.0 * inv["tv_null_std"]))
    out["checks"] = checks
    art.write_json("ensemble.json", out)
    return checks


def _run_wigner(scn: dict, art: _Artifacts) -> list[dict]:
    n, qmin, qmax = scn["grid"]["N"], scn["grid"]["qmin"], scn["grid"]["qmax"]
    if n & (n - 1):
        raise SchemaError(f"grid.N must be a power of two, got {n}")
    if not qmin < qmax:
        raise SchemaError(f"qmin must be below qmax, got {qmin!r} and {qmax!r}")
    hbar, state, tol = scn["hbar"], scn["state"], scn["tolerances"]
    make = {"ho-ground": lambda: wigner.ho_ground(n, qmin, qmax, hbar=hbar),
            "ho-excited": lambda: wigner.ho_excited(state["k"], n, qmin, qmax, hbar=hbar),
            "gaussian": lambda: wigner.gaussian_packet(state["sigma"], n, qmin, qmax, hbar=hbar),
            "cat": lambda: wigner.cat_state(state["separation"], n, qmin, qmax, hbar=hbar)}
    psi = make[state["kind"]]().normalized()
    w = wigner.wigner_transform(psi)
    pos, mom = wigner.marginals(w)

    art.write_array("wigner.f64", w.values)
    art.write_json("wigner.json", {
        "shape": list(w.values.shape), "dq": w.dq, "dp": w.dp, "q0": w.q0, "p0": w.p0,
        "hbar": w.hbar, "layout": "row-major float64 little-endian, q index first",
    })
    art.write_csv("marginals.csv", {"q": w.q_grid, "position_density": pos, "p": w.p_grid,
                                    "momentum_density": mom})
    pos_err = float(np.max(np.abs(pos - np.abs(psi.psi) ** 2)))
    mom_err = float(np.max(np.abs(mom - np.abs(psi.fourier()) ** 2)))
    checks = [
        check("position_marginal", pos_err, tol["marginal"]),
        check("momentum_marginal", mom_err, tol["marginal"]),
        check("mass_defect", abs(w.integral() - 1.0), tol["mass"]),
    ]
    art.write_json("wigner_checks.json", {"checks": checks})
    return checks


def _two_form(pairs: list, dim: int) -> forms.KForm:
    """The scenario's ``omega = {"pairs": [[i, j, value], ...]}``."""
    try:  # refuses a pair with i == j or an index outside [0, dim), and dim < 2
        return forms._two_form_from_pairs(dim, pairs)
    except ValueError as exc:
        raise SchemaError(f"bad omega {pairs!r}: {exc}") from exc


def _run_cohomology(scn: dict, art: _Artifacts) -> list[dict]:
    alg = scn["algebra"]
    report = {"label": alg.label, "dim": alg.dim}
    for k in (1, 2):
        z_dim = len(forms.cocycle_space(alg, k))
        b_dim = len(forms.coboundary_space(alg, k))
        report.update({f"Z{k}": z_dim, f"B{k}": b_dim, f"H{k}": z_dim - b_dim})
    if scn["omega"] is not None:
        basis, codim = forms.radical(alg, _two_form(scn["omega"]["pairs"], alg.dim))
        report["radical"] = {"basis": [list(v) for v in basis], "codim": codim}
    art.write_json("cohomology.json", report)
    return []


# ---------------------------------------------------------------------------
# selftest: the acceptance registry at quick size, one manifest


def _run_selftest(seed: int, art: _Artifacts) -> list[dict]:
    if seed < 0:
        raise SchemaError(f"selftest seed must be nonnegative, got {seed}")
    checks = []
    for num, criterion in CRITERIA:
        stream = np.random.SeedSequence([seed, num])
        checks += criterion(int(stream.generate_state(1)[0]), quick=True)
    art.write_json("selftest.json", {"seed": seed, "checks": checks})
    return checks


# ---------------------------------------------------------------------------
# reporting and entry point


def report_summary(manifest_path: str) -> int:
    """Print a pass/fail table for every check recorded next to a manifest."""
    manifest = _load_json(manifest_path, "manifest")
    base = os.path.dirname(os.path.abspath(manifest_path))
    rows = []
    try:  # a manifest or run file of the wrong shape is bad input
        for rec in manifest.get("files", []):
            if rec["name"].endswith(".json"):
                doc = _load_json(os.path.join(base, rec["name"]), "run file")
                rows += [(str(c["name"]), bool(c["pass"]),
                          f"value={c['value']:.3e} bound={c['bound']:.3e}  ({rec['name']})")
                         for c in doc.get("checks", [])]
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"malformed manifest {manifest_path!r}: {exc!r}") from exc
    if not rows:
        print("no runs")
        return 0
    width = max(len(name) for name, _, _ in rows) + 2
    failed = sum(not ok for _, ok, _ in rows)
    for name, ok, figures in rows:
        print(f"{'ok' if ok else 'FAIL':4s} {name:<{width}s} {figures}")
    print(f"{len(rows) - failed}/{len(rows)} checks passed")
    return 1 if failed else 0


_RUNNERS = {"euler": _run_euler, "affine": _run_affine, "ensemble": _run_ensemble,
            "wigner": _run_wigner, "cohomology": _run_cohomology}


def run(subcommand: str, scenario_path: str | None, out_dir: str, seed: int | None) -> int:
    art = _Artifacts()
    extra = {"subcommand": subcommand}
    if subcommand == "selftest":
        if seed is not None:
            extra["seed"] = seed
        checks = _run_selftest(seed if seed is not None else 0, art)
    else:
        try:  # values that pass their rules can still leave the float64 range
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                scn, values = _parse(scenario_path, subcommand, seed)
                if values["seed"] is not None:  # the seed the run used: the scenario's wins
                    extra["seed"] = values["seed"]
                scn_text = json.dumps(scn, sort_keys=True).encode()
                extra["scenario_sha256"] = hashlib.sha256(scn_text).hexdigest()
                checks = _RUNNERS[subcommand](values, art)
        except (FloatingPointError, OverflowError, ZeroDivisionError) as exc:
            raise SchemaError(f"the run leaves the float64 range ({exc}); "
                              "the scenario's values are too large or too small") from exc
    art.finish(out_dir, extra)
    bad = [c for c in checks if not c["pass"]]
    for c in bad:
        print(f"FAIL {c['name']}: value {c['value']:.3e} exceeds bound {c['bound']:.3e}",
              file=sys.stderr)
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="phasecraft", description="phase-space mechanics scenario runner"
    )
    parser.add_argument("subcommand", choices=[*_RUNNERS, "selftest", "report"])
    parser.add_argument("scenario", nargs="?", help="scenario JSON (or manifest for report)")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)

    try:
        if args.subcommand == "report":
            if not args.scenario:
                raise SchemaError("report needs a manifest path")
            return report_summary(args.scenario)
        if args.subcommand != "selftest" and not args.scenario:
            raise SchemaError(f"{args.subcommand} needs a scenario file")
        return run(args.subcommand, args.scenario, args.out, args.seed)
    except PhasecraftError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a fault of the program, not of its input
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
