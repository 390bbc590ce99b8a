"""Scenario runner: validates JSON scenarios, runs the requested module and
writes deterministic artifacts plus a content-hashed manifest.

    phasecraft <euler|affine|ensemble|wigner|cohomology|selftest|report>
               [scenario.json] [--out DIR] [--seed N]

Time series go to CSV, reports to JSON, 2-D fields to raw little-endian
float64 with a JSON sidecar.  Reruns with the same scenario and seed
produce byte-identical files.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

import numpy as np

from . import affine, ensembles, forms, rigid, wigner
from .algebra import BilinearForm, GroupElement, algebra_from_json
from .errors import IoError, PhasecraftError, SchemaError
from .fixtures import fixture, fixture_names

_FLOAT_FMT = "%.17g"


# ---------------------------------------------------------------------------
# scenario parsing


_SCHEMAS = {
    "euler": {
        "required": {"initial", "t_end"},
        "optional": {
            "algebra", "metric", "principal_moments", "chirality",
            "potential", "dt", "method", "sample_every", "tolerances", "seed",
        },
    },
    "affine": {
        "required": {"model", "initial", "t_end"},
        "optional": {"constants", "dt", "sample_every", "tolerances", "seed"},
    },
    "ensemble": {
        "required": {"observable", "a", "epsilon", "box", "samples", "seed"},
        "optional": {"hbar", "expectation", "flow_time"},
    },
    "wigner": {
        "required": {"state", "grid"},
        "optional": {"hbar", "tolerances", "seed"},
    },
    "cohomology": {
        "required": {"algebra"},
        "optional": {"omega", "seed"},
    },
}


def parse_scenario(path: str, subcommand: str) -> dict:
    """Load and validate a scenario; unknown keys are rejected by name."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise IoError(f"cannot read scenario {path!r}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(
            f"{path}:{exc.lineno}:{exc.colno}: invalid JSON ({exc.msg})"
        ) from exc
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: scenario must be a JSON object")

    if subcommand == "cohomology" and "dim" in doc and "structure" in doc:
        # bare algebra document
        return {"algebra": doc}

    schema = _SCHEMAS[subcommand]
    known = schema["required"] | schema["optional"]
    for key in doc:
        if key not in known:
            raise SchemaError(f"{path}: unknown key {key!r} for {subcommand}")
    missing = schema["required"] - doc.keys()
    if missing:
        raise SchemaError(f"{path}: missing required keys {sorted(missing)}")
    return doc


def _resolve_algebra(spec):
    if isinstance(spec, dict):
        return algebra_from_json(json.dumps(spec))
    if isinstance(spec, str):
        if spec in fixture_names():
            return fixture(spec)
        if os.path.exists(spec):
            with open(spec, "r", encoding="utf-8") as fh:
                return algebra_from_json(fh.read())
        raise SchemaError(
            f"unknown algebra {spec!r}; fixtures: {fixture_names()}"
        )
    raise SchemaError("algebra must be a fixture name, path or inline document")


# ---------------------------------------------------------------------------
# artifact helpers


class _Artifacts:
    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        os.makedirs(out_dir, exist_ok=True)
        self.records = []

    def _register(self, name: str, payload: bytes):
        path = os.path.join(self.out_dir, name)
        with open(path, "wb") as fh:
            fh.write(payload)
        self.records.append(
            {
                "name": name,
                "sha256": hashlib.sha256(payload).hexdigest(),
                "bytes": len(payload),
            }
        )

    def write_json(self, name: str, doc) -> None:
        payload = (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()
        self._register(name, payload)

    def write_csv(self, name: str, header: list[str], rows) -> None:
        lines = [",".join(header)]
        for row in rows:
            lines.append(",".join(_FLOAT_FMT % v for v in row))
        self._register(name, ("\n".join(lines) + "\n").encode())

    def write_array(self, name: str, arr: np.ndarray) -> None:
        self._register(name, np.ascontiguousarray(arr, dtype="<f8").tobytes())

    def finish(self, extra: dict | None = None) -> dict:
        manifest = {"files": sorted(self.records, key=lambda r: r["name"])}
        if extra:
            manifest.update(extra)
        payload = (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode()
        path = os.path.join(self.out_dir, "manifest.json")
        with open(path, "wb") as fh:
            fh.write(payload)
        return manifest


def _check(name: str, value: float, bound: float) -> dict:
    return {
        "name": name,
        "value": value,
        "bound": bound,
        "pass": bool(value <= bound),
    }


# ---------------------------------------------------------------------------
# subcommand runners


def _finite(doc: dict, key: str, default=None) -> float:
    value = doc.get(key, default)
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError):
        number = np.nan
    if not np.isfinite(number):
        raise SchemaError(f"{key} must be a finite number, got {value!r}")
    return number


def _positive(doc: dict, key: str, default=None, zero_ok: bool = False) -> float:
    number = _finite(doc, key, default)
    if not (number > 0 or zero_ok and number == 0):
        sign = "nonnegative" if zero_ok else "positive"
        raise SchemaError(f"{key} must be a finite {sign} number, got {number!r}")
    return number


def _array(doc: dict, key: str, shape: tuple, default=None) -> np.ndarray:
    """``doc[key]`` as a nonempty array of finite floats of the given shape;
    a None in ``shape`` accepts any length along that axis."""
    value = doc.get(key, default)
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        arr = np.empty(0)
    if not (arr.size and arr.ndim == len(shape) and np.isfinite(arr).all()
            and all(want in (None, got) for got, want in zip(arr.shape, shape))):
        dims = " x ".join("n" if d is None else str(d) for d in shape)
        raise SchemaError(f"{key} must be finite numbers of shape {dims}, got {value!r}")
    return arr


def _object(doc: dict, key: str, default=None) -> dict:
    value = doc.get(key, default)
    if not isinstance(value, dict):
        raise SchemaError(f"{key} must be an object, got {value!r}")
    return value


def _integer(scn: dict, key: str, low: int, default=None) -> int:
    value = scn.get(key, default)
    try:
        number = int(value)
    except (TypeError, ValueError, OverflowError):
        number = None
    if number is None or number != value or number < low:
        raise SchemaError(f"{key} must be an integer >= {low}, got {value!r}")
    return number


# default check bounds per runner; a scenario's "tolerances" overrides them
_TOLERANCES = {
    "euler": {"energy_drift": 1.0e-8, "momentum_drift": 1.0e-6, "casimir_drift": 1.0e-10},
    "affine": {"energy_rate": 1.0e-7, "coupling_drift": 1.0e-10},
    "wigner": {"marginal": 1.0e-8, "mass": 1.0e-8},
}


def _tolerances(scn: dict, subcommand: str) -> dict:
    """The runner's check bounds with the scenario's overrides applied."""
    bounds = dict(_TOLERANCES[subcommand])
    given = scn.get("tolerances", {})
    if not isinstance(given, dict):
        raise SchemaError(f"tolerances must be an object, got {given!r}")
    for name in given:
        if name not in bounds:
            raise SchemaError(f"unknown tolerance {name!r}; {subcommand} has {sorted(bounds)}")
        bounds[name] = _positive(given, name, zero_ok=True)
    return bounds


# step budget of an euler or affine run, 100 times the longest shipped
# scenario (sutherland_bound_pair: 1e5 steps)
_MAX_STEPS = 10_000_000


def _time_grid(scn: dict) -> tuple[float, float, int, int]:
    """(dt, t_end, steps, sample_every) of an euler or affine scenario."""
    dt = _positive(scn, "dt", 1.0e-3)
    t_end = _positive(scn, "t_end")
    if t_end / dt > _MAX_STEPS:
        raise SchemaError(f"t_end / dt = {t_end / dt:.3g} steps exceeds the budget of "
                          f"{_MAX_STEPS:.0e} steps")
    steps = max(1, int(round(t_end / dt)))
    sample_every = _integer(scn, "sample_every", 1, default=max(1, steps // 200))
    return dt, t_end, steps, sample_every


def _run_euler(scn: dict, art: _Artifacts) -> list[dict]:
    dt, t_end, steps, sample_every = _time_grid(scn)
    tol = _tolerances(scn, "euler")
    method = scn.get("method", "lie_midpoint")

    if scn.get("principal_moments") is not None:
        model = rigid.so3_model(
            scn["principal_moments"],
            chirality=scn.get("chirality", "left"),
            potential=_builtin_potential(scn.get("potential", "none")),
        )
        tag = "special-orthogonal"
    else:
        alg = _resolve_algebra(scn.get("algebra", "so3"))
        if alg.basis is None:
            raise SchemaError(
                f"algebra {alg.label!r} has no matrix basis; reconstruction "
                "needs one (use a fixture with matrices or supply basis)"
            )
        if scn.get("metric") is None:
            raise SchemaError("euler needs either principal_moments or a metric")
        metric = BilinearForm(np.asarray(scn["metric"], dtype=float))
        model = rigid.InvariantModel(
            alg, metric, scn.get("chirality", "left"),
            potential=_builtin_potential(scn.get("potential", "none")),
        )
        tag = "special-orthogonal" if alg.label == "so3" else "general-linear"

    init = _object(scn, "initial")
    m = model.algebra.basis[0].shape[0]
    g0 = _array(init, "g", (m, m), default=np.eye(m))
    sigma = _array(init, "sigma", (model.algebra.dim,))
    state = rigid.BodyState(GroupElement(g0, tag=tag), sigma)
    traj = rigid.integrate(model, state, dt, steps, method=method, sample_every=sample_every)
    report = rigid.conservation_report(model, traj)

    n = model.algebra.dim
    header = ["t"] + [f"sigma_{i+1}" for i in range(n)] + ["energy"]
    has_casimir = "casimir" in traj.diagnostics
    if has_casimir:
        header.append("casimir_1")
    header += ["energy_drift", "momentum_drift"]
    rows = []
    e_series = traj.diagnostics["energy"]
    m_series = traj.diagnostics["momentum_map"]
    e_scale = 1.0 + abs(e_series[0])
    m_scale = 1.0 + float(np.max(np.abs(m_series[0])))
    for k, st in enumerate(traj.states):
        row = [st.time, *st.sigma, e_series[k]]
        if has_casimir:
            row.append(traj.diagnostics["casimir"][k])
        row.append(abs(e_series[k] - e_series[0]) / e_scale)
        row.append(float(np.max(np.abs(m_series[k] - m_series[0]))) / m_scale)
        rows.append(row)
    art.write_csv("euler.csv", header, rows)

    checks = [_check("energy_drift", report["energy_drift"], tol["energy_drift"])]
    # a torque breaks both symmetries: their drifts stay in the report only
    if model.potential is None:
        checks.append(_check("momentum_drift", report["momentum_map_drift"], tol["momentum_drift"]))
        if has_casimir:
            checks.append(_check("casimir_drift", report["casimir_drift"], tol["casimir_drift"]))
    art.write_json("conservation.json", {"report": report, "checks": checks})
    return checks


def _builtin_potential(name: str):
    if name in (None, "none"):
        return None
    if name == "trace_alignment":
        # uniform torque toward the identity attitude
        return lambda g: -float(np.trace(g.matrix))
    raise SchemaError(f"unknown builtin potential {name!r}")


def _run_affine(scn: dict, art: _Artifacts) -> list[dict]:
    model = scn["model"]
    constants = _object(scn, "constants", {})
    dt, t_end, steps, sample_every = _time_grid(scn)
    tol = _tolerances(scn, "affine")
    init = _object(scn, "initial")

    try:
        if "phi" in init:
            phi = _array(init, "phi", (None, None))
            n = len(phi)
            state = affine.AffineState(
                phi=phi,
                sigma_hat=_array(init, "sigma_hat", (n, n)),
                x=_array(init, "x", (n,)) if "x" in init else None,
                p=_array(init, "p", (n,)) if "p" in init else None,
            )
            lat = affine.to_two_polar(state)
        else:
            q = _array(init, "q", (None,))
            n = len(q)
            lat = affine.TwoPolarState(
                L=_array(init, "L", (n, n), default=np.eye(n)),
                R=_array(init, "R", (n, n), default=np.eye(n)),
                q=q,
                p=_array(init, "p", (n,)),
                M=_array(init, "M", (n, n)),
                N=_array(init, "N", (n, n)),
            )
    except ValueError as exc:  # the state's own checks: ordering, orthogonality, symmetry
        raise SchemaError(f"bad initial state: {exc}") from exc

    if model == "standard":
        variant, params = "calogero", {"I": _positive(constants, "J_iso", 1.0)}
    elif model in ("affine_left", "affine_right"):
        if _finite(constants, "inv_b", 0.0) != 0.0 or _finite(constants, "inv_c", 0.0) != 0.0:
            raise SchemaError(
                "dynamics is implemented for the trace-form term only; "
                "set inv_b = inv_c = 0"
            )
        variant, params = "hyperbolic", {"a": _positive(constants, "a", 1.0)}
    elif model in ("lattice_hyperbolic", "lattice_trigonometric", "lattice_calogero"):
        variant = model.removeprefix("lattice_")
        key = "I" if variant == "calogero" else "a"
        params = {key: _positive(constants, key, 1.0)}
    else:
        raise SchemaError(f"unknown affine model {model!r}")

    states = affine.lattice_dynamics(variant, params, lat, dt, steps, sample_every=sample_every)
    n = lat.n
    header = (
        ["t"] + [f"q_{i+1}" for i in range(n)] + ["energy", "m_norm", "n_norm"]
    )
    energies = [affine.lattice_hamiltonian(variant, params, s) for s in states]
    # states are sampled at steps 0, sample_every, 2 sample_every, ... and steps
    step_of = [sample_every * k for k in range(len(states) - 1)] + [steps]
    times = [dt * k for k in step_of]
    rows = []
    for t, s, e in zip(times, states, energies):
        rows.append([t, *s.q, e, float(np.linalg.norm(s.M)), float(np.linalg.norm(s.N))])
    art.write_csv("affine.csv", header, rows)

    e_drift = max(abs(e - energies[0]) for e in energies) / (1.0 + abs(energies[0]))
    checks = [_check("energy_drift", e_drift / max(t_end, 1.0), tol["energy_rate"])]
    if n == 2:
        m_drift = max(abs(s.M[0, 1] - lat.M[0, 1]) for s in states)
        n_drift = max(abs(s.N[0, 1] - lat.N[0, 1]) for s in states)
        checks.append(_check("m_drift", m_drift, tol["coupling_drift"]))
        checks.append(_check("n_drift", n_drift, tol["coupling_drift"]))
    art.write_json(
        "conservation.json",
        {"energy_initial": energies[0], "energy_drift": e_drift, "checks": checks},
    )
    return checks


def _run_ensemble(scn: dict, art: _Artifacts) -> list[dict]:
    box = np.asarray(scn["box"], dtype=float)
    region = ensembles.PhaseRegion(bounds=box, hbar=float(scn.get("hbar", 1.0)))
    n_dof = region.n_dof

    def build_observable(spec):
        if spec == "harmonic":
            return (lambda z: 0.5 * np.sum(z**2, axis=1)), (lambda z: z.copy())
        if isinstance(spec, dict) and "quadratic" in spec:
            qmat = np.asarray(spec["quadratic"], dtype=float)
            return (
                lambda z: 0.5 * np.einsum("zi,ij,zj->z", z, qmat, z),
                lambda z: z @ qmat.T,
            )
        raise SchemaError("observable must be 'harmonic' or {'quadratic': matrix}")

    observable, grad = build_observable(scn["observable"])
    try:
        shell = ensembles.ShellEnsemble(
            observable=observable,
            center=float(scn["a"]),
            epsilon=float(scn["epsilon"]),
            samples=_integer(scn, "samples", 0),
            seed=_integer(scn, "seed", 0),
        )
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"bad ensemble: {exc}") from exc
    f_fun, _ = build_observable(scn.get("expectation", scn["observable"]))
    result = ensembles.shell_probability(shell, region, f_fun)

    batches = ensembles.shell_samples(shell, region)
    pts = np.concatenate(batches)
    hist, _ = np.histogramdd(pts, bins=[8] * (2 * n_dof))
    weights = (hist / hist.sum()).ravel()
    cell_mu = ensembles.liouville_volume(region) / weights.size
    entropy = ensembles.entropy_continuous(weights, np.full(weights.size, cell_mu))

    out = {
        "Z": result["Z"],
        "stderr_Z": result["stderr_Z"],
        "expectation": {"mean": result["mean"], "stderr": result["stderr_mean"]},
        "entropy": entropy,
        "accepted": int(sum(len(b) for b in batches)),
    }
    checks = []
    if scn.get("flow_time") is not None:
        inv = ensembles.invariance_check(shell, region, grad, float(scn["flow_time"]))
        out["invariance"] = inv
        checks.append(
            _check(
                "flow_drift",
                inv["tv_flow"],
                inv["tv_null_mean"] + 3.0 * inv["tv_null_std"],
            )
        )
    out["checks"] = checks
    art.write_json("ensemble.json", out)
    return checks


def _run_wigner(scn: dict, art: _Artifacts) -> list[dict]:
    grid = _object(scn, "grid")
    n = _integer(grid, "N", 4)
    if n & (n - 1):
        raise SchemaError(f"N must be a power of two, got {n}")
    qmin, qmax = _finite(grid, "qmin"), _finite(grid, "qmax")
    if not qmin < qmax:
        raise SchemaError(f"qmin must be below qmax, got {qmin!r} and {qmax!r}")
    hbar = _positive(scn, "hbar", 1.0)
    tol = _tolerances(scn, "wigner")
    state = scn["state"]
    state = state if isinstance(state, dict) else {"kind": state}
    kind = state.get("kind")
    if kind == "ho-ground":
        psi = wigner.ho_ground(n, qmin, qmax, hbar=hbar)
    elif kind == "ho-excited":
        psi = wigner.ho_excited(_integer(state, "k", 0, default=1), n, qmin, qmax, hbar=hbar)
    elif kind == "gaussian":
        psi = wigner.gaussian_packet(_positive(state, "sigma", 1.0), n, qmin, qmax, hbar=hbar)
    elif kind == "cat":
        psi = wigner.cat_state(_positive(state, "separation", 4.0, zero_ok=True),
                               n, qmin, qmax, hbar=hbar)
    else:
        raise SchemaError(f"unknown state kind {kind!r}")
    psi = psi.normalized()
    w = wigner.wigner_transform(psi)
    pos, mom = wigner.marginals(w)

    art.write_array("wigner.f64", w.values)
    art.write_json(
        "wigner.json",
        {
            "shape": list(w.values.shape),
            "dq": w.dq, "dp": w.dp, "q0": w.q0, "p0": w.p0, "hbar": w.hbar,
            "layout": "row-major float64 little-endian, q index first",
        },
    )
    art.write_csv(
        "marginals.csv",
        ["q", "position_density", "p", "momentum_density"],
        [[q, pd, p, md] for q, pd, p, md in zip(w.q_grid, pos, w.p_grid, mom)],
    )
    pos_err = float(np.max(np.abs(pos - np.abs(psi.psi) ** 2)))
    mom_err = float(np.max(np.abs(mom - np.abs(psi.fourier()) ** 2)))
    checks = [
        _check("position_marginal", pos_err, tol["marginal"]),
        _check("momentum_marginal", mom_err, tol["marginal"]),
        _check("mass_defect", abs(w.integral() - 1.0), tol["mass"]),
    ]
    art.write_json("wigner_checks.json", {"checks": checks})
    return checks


def _two_form(spec, dim: int) -> forms.KForm:
    """The scenario's ``omega = {"pairs": [[i, j, value], ...]}``."""
    coeffs = np.zeros((dim, dim))
    try:
        for i, j, val in spec["pairs"]:
            i, j, val = int(i), int(j), float(val)
            if not (0 <= i < dim and 0 <= j < dim and np.isfinite(val)):
                raise ValueError(f"pair {[i, j, val]} needs indices in [0, {dim}) and a finite value")
            coeffs[i, j], coeffs[j, i] = val, -val
        return forms.KForm(2, coeffs)  # rejects i == j and dim < 2
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"bad omega {spec!r}: {exc}") from exc


def _run_cohomology(scn: dict, art: _Artifacts) -> list[dict]:
    alg = _resolve_algebra(scn["algebra"])
    report = {"label": alg.label, "dim": alg.dim}
    for k in (1, 2):
        z_dim = len(forms.cocycle_space(alg, k))
        b_dim = len(forms.coboundary_space(alg, k))
        report.update({f"Z{k}": z_dim, f"B{k}": b_dim, f"H{k}": z_dim - b_dim})
    if scn.get("omega") is not None:
        basis, codim = forms.radical(alg, _two_form(scn["omega"], alg.dim))
        report["radical"] = {
            "basis": [list(v) for v in basis],
            "codim": codim,
        }
    art.write_json("cohomology.json", report)
    return []


# ---------------------------------------------------------------------------
# selftest: the acceptance registry at quick size, one manifest


def _run_selftest(seed: int, art: _Artifacts) -> list[dict]:
    from .checks import CRITERIA

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
    try:
        with open(manifest_path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except OSError as exc:
        raise IoError(f"cannot read manifest {manifest_path!r}: {exc}") from exc
    base = os.path.dirname(os.path.abspath(manifest_path))
    rows = []
    for rec in manifest.get("files", []):
        if not rec["name"].endswith(".json"):
            continue
        with open(os.path.join(base, rec["name"]), "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        for chk in doc.get("checks", []):
            rows.append((rec["name"], chk))
    if not rows:
        print("no runs")
        return 0
    width = max(len(c["name"]) for _, c in rows) + 2
    failed = 0
    for fname, chk in rows:
        status = "ok" if chk["pass"] else "FAIL"
        if not chk["pass"]:
            failed += 1
        print(
            f"{status:4s} {chk['name']:<{width}s} value={chk['value']:.3e} "
            f"bound={chk['bound']:.3e}  ({fname})"
        )
    print(f"{len(rows) - failed}/{len(rows)} checks passed")
    return 1 if failed else 0


_RUNNERS = {
    "euler": _run_euler,
    "affine": _run_affine,
    "ensemble": _run_ensemble,
    "wigner": _run_wigner,
    "cohomology": _run_cohomology,
}


def run(subcommand: str, scenario_path: str | None, out_dir: str, seed: int | None) -> int:
    art = _Artifacts(out_dir)
    extra = {"subcommand": subcommand}
    if seed is not None:
        extra["seed"] = seed
    if subcommand == "selftest":
        checks = _run_selftest(seed if seed is not None else 0, art)
    else:
        scn = parse_scenario(scenario_path, subcommand)
        if seed is not None:
            scn.setdefault("seed", seed)
        scn_text = json.dumps(scn, sort_keys=True).encode()
        extra["scenario_sha256"] = hashlib.sha256(scn_text).hexdigest()
        checks = _RUNNERS[subcommand](scn, art)
    art.finish(extra)
    bad = [c for c in checks if not c["pass"]]
    for c in bad:
        print(f"FAIL {c['name']}: value {c['value']:.3e} exceeds bound {c['bound']:.3e}",
              file=sys.stderr)
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="phasecraft", description="phase-space mechanics scenario runner"
    )
    parser.add_argument(
        "subcommand",
        choices=["euler", "affine", "ensemble", "wigner", "cohomology", "selftest", "report"],
    )
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


if __name__ == "__main__":
    raise SystemExit(main())
