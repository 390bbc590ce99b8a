import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from phasecraft import affine, cli
from phasecraft.errors import GridTooCoarse, SchemaError


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def read_json(out_dir, name):
    with open(os.path.join(out_dir, name)) as fh:
        return json.load(fh)


def test_parse_fills_nothing_and_rejects_unknown_keys(tmp_path):
    path = write(tmp_path, "e.json", {
        "principal_moments": [1, 2, 3],
        "initial": {"sigma": [1, 0, 0]},
        "t_end": 0.1,
        "integrater": "rk4",
    })
    with pytest.raises(SchemaError) as err:
        cli._parse(path, "euler")[0]
    assert "integrater" in str(err.value)


def test_parse_reports_line_and_column(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "model": lattice\n}')
    with pytest.raises(SchemaError) as err:
        cli._parse(str(path), "affine")[0]
    assert ":2:" in str(err.value)


def test_parse_missing_keys(tmp_path):
    path = write(tmp_path, "e.json", {"t_end": 1.0})
    with pytest.raises(SchemaError) as err:
        cli._parse(path, "euler")[0]
    assert "initial" in str(err.value)


def test_euler_run_artifacts(tmp_path):
    scen = write(tmp_path, "euler.json", {
        "principal_moments": [1.0, 2.0, 3.0],
        "initial": {"sigma": [1.0, 1.0, 1.0]},
        "t_end": 1.0,
    })
    out = str(tmp_path / "out")
    assert cli.run("euler", scen, out, seed=None) == 0
    manifest = read_json(out, "manifest.json")
    names = {f["name"] for f in manifest["files"]}
    assert names == {"euler.csv", "conservation.json"}
    csv_lines = Path(out, "euler.csv").read_text().splitlines()
    assert csv_lines[0].split(",")[:5] == ["t", "sigma_1", "sigma_2", "sigma_3", "energy"]
    report = read_json(out, "conservation.json")
    assert all(chk["pass"] for chk in report["checks"])


def test_euler_defaults_applied(tmp_path):
    scen = cli._parse(
        write(tmp_path, "e.json", {
            "principal_moments": [1.0, 2.0, 3.0],
            "initial": {"sigma": [0.5, 0.0, 0.0]},
            "t_end": 0.5,
        }),
        "euler",
    )[0]
    assert "dt" not in scen  # defaults are applied inside the runner
    out = str(tmp_path / "out2")
    assert cli.run("euler", write(tmp_path, "e2.json", {
        "principal_moments": [1.0, 2.0, 3.0],
        "initial": {"sigma": [0.5, 0.0, 0.0]},
        "t_end": 0.5,
    }), out, seed=None) == 0


def test_affine_lattice_run_and_collision_failure(tmp_path):
    ok = write(tmp_path, "a.json", {
        "model": "lattice_hyperbolic",
        "constants": {"a": 1.0},
        "initial": {"q": [1.5, -1.5], "p": [0.0, 0.0],
                    "M": [[0.0, 1.0], [-1.0, 0.0]], "N": [[0.0, 1.2], [-1.2, 0.0]]},
        "t_end": 1.0004,
    })
    out = str(tmp_path / "out")
    assert cli.run("affine", ok, out, seed=None) == 0
    rep = read_json(out, "conservation.json")
    assert all(chk["pass"] for chk in rep["checks"])
    # 1000 steps of 1e-3 sampled every 5th: each row's time is its step times dt
    rows = Path(out, "affine.csv").read_text().splitlines()[1:]
    assert [float(r.split(",")[0]) for r in rows] == [1e-3 * k for k in range(0, 1001, 5)]

    crash = write(tmp_path, "crash.json", {
        "model": "lattice_calogero",
        "constants": {"I": 1.0},
        # strong head-on momenta force an invariant collision
        "initial": {"q": [0.3, -0.3], "p": [-15.0, 15.0],
                    "M": [[0.0, 1e-8], [-1e-8, 0.0]], "N": [[0.0, 0.0], [0.0, 0.0]]},
        "t_end": 2.0,
    })
    assert cli.main(["affine", crash, "--out", str(tmp_path / "boom")]) == 2


def test_ensemble_run(tmp_path):
    scen = write(tmp_path, "s.json", {
        "observable": "harmonic", "a": 1.0, "epsilon": 0.3,
        "box": [[-2.2, 2.2], [-2.2, 2.2]], "samples": 30000, "seed": 3,
        "flow_time": 0.37,
    })
    out = str(tmp_path / "out")
    assert cli.run("ensemble", scen, out, seed=None) == 0
    doc = read_json(out, "ensemble.json")
    assert abs(doc["expectation"]["mean"] - 1.0) < 0.01
    assert doc["invariance"]["stationary"]


def test_ensemble_flows_by_the_symmetric_part_of_an_asymmetric_quadratic(tmp_path):
    # H = z Q z / 2 is the harmonic observable; the flow used to take z @ Q^T
    # as its gradient, which drifted the shell (flow_drift 0.999 > 0.100)
    scen = write(tmp_path, "s.json", {
        "observable": {"quadratic": [[1.0, 0.6], [-0.6, 1.0]]}, "a": 1.0, "epsilon": 0.3,
        "box": [[-2.2, 2.2], [-2.2, 2.2]], "samples": 40000, "seed": 3, "flow_time": 1.0,
    })
    out = str(tmp_path / "out")
    assert cli.run("ensemble", scen, out, seed=None) == 0
    assert read_json(out, "ensemble.json")["invariance"]["stationary"]


def test_ensemble_with_an_unstable_flow_leaves_the_float64_range(tmp_path, capsys):
    # RK4 at dt = 0.01 on H = 1e4 |z|^2 / 2 grows each step about 4e6-fold
    scen = write(tmp_path, "s.json", {
        **SHELL, "observable": {"quadratic": [[1e4, 0.0], [0.0, 1e4]]}, "a": 1e4,
        "epsilon": 3e3, "seed": 3, "flow_time": 1.0,
    })
    with pytest.raises(SchemaError, match="float64 range"):
        cli.run("ensemble", scen, str(tmp_path / "out"), seed=None)
    assert cli.main(["ensemble", scen, "--out", str(tmp_path / "o")]) == 2
    assert "leaves the float64 range" in capsys.readouterr().err


def test_ensemble_entropy_is_taken_on_box_cells(tmp_path):
    from phasecraft import ensembles

    scn = {"observable": "harmonic", "a": 1.0, "epsilon": 0.3,
           "box": [[-2.0, 2.6], [-2.2, 2.2]], "samples": 3200, "seed": 3}
    out = str(tmp_path / "out")
    assert cli.run("ensemble", write(tmp_path, "s.json", scn), out, seed=None) == 0
    region = ensembles.PhaseRegion(bounds=np.array(scn["box"]))
    shell = ensembles.ShellEnsemble(observable=lambda z: 0.5 * np.sum(z**2, axis=1),
                                    center=1.0, epsilon=0.3, samples=3200, seed=3)
    pts = np.concatenate(ensembles.shell_samples(shell, region))
    edges = [np.linspace(lo, hi, 9) for lo, hi in scn["box"]]  # the cells of cell_mu
    hist, _ = np.histogramdd(pts, bins=edges)
    cells = np.full(hist.size, ensembles.liouville_volume(region) / hist.size)
    want = ensembles.entropy_continuous((hist / hist.sum()).ravel(), cells)
    assert read_json(out, "ensemble.json")["entropy"] == pytest.approx(want, rel=1e-12)


def test_ensemble_run_draws_each_batch_once(tmp_path, monkeypatch):
    # the probability, the entropy histogram and the flow check share one draw
    from phasecraft import ensembles

    calls = []
    draw = ensembles._batch_points
    monkeypatch.setattr(ensembles, "_batch_points",
                        lambda *args: calls.append(args[2]) or draw(*args))
    scen = write(tmp_path, "s.json", {**SHELL, "seed": 3, "flow_time": 0.3})
    assert cli.run("ensemble", scen, str(tmp_path / "out"), seed=None) == 0
    assert sorted(calls) == list(range(16))


def test_wigner_run_binary_sidecar(tmp_path):
    scen = write(tmp_path, "w.json", {
        "state": {"kind": "ho-ground"},
        "grid": {"N": 128, "qmin": -8.0, "qmax": 8.0},
    })
    out = str(tmp_path / "out")
    assert cli.run("wigner", scen, out, seed=None) == 0
    side = read_json(out, "wigner.json")
    raw = np.fromfile(os.path.join(out, "wigner.f64"), dtype="<f8")
    w = raw.reshape(side["shape"])
    assert w.shape == (128, 128)
    assert abs(w.sum() * side["dq"] * side["dp"] - 1.0) <= 1e-9


def test_wigner_run_at_n_1024_peaks_below_100_mib(tmp_path):
    # the transform forms the Hermitian half of the correlation a block of rows
    # at a time; the full complex correlation took the run to about 132 MiB.
    # VmHWM is the peak of the process's own memory since exec; ru_maxrss would
    # also carry the peak of this test process, whose memory the child starts from
    scen = write(tmp_path, "w.json", {
        "state": {"kind": "ho-ground"},
        "grid": {"N": 1024, "qmin": -8.0, "qmax": 8.0},
    })
    code = ("from phasecraft import cli; "
            f"assert cli.main(['wigner', {scen!r}, '--out', {str(tmp_path / 'o')!r}]) == 0; "
            "print(open('/proc/self/status').read().split('VmHWM:')[1].split()[0])")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
        str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True)
    assert int(proc.stdout.split()[-1]) < 100 * 1024  # kB


def test_cohomology_fixture_and_radical(tmp_path):
    scen = write(tmp_path, "c.json", {
        "algebra": "so3",
        "omega": {"pairs": [[0, 1, 1.0]]},
    })
    out = str(tmp_path / "out")
    assert cli.run("cohomology", scen, out, seed=None) == 0
    doc = read_json(out, "cohomology.json")
    assert doc["H1"] == 0 and doc["H2"] == 0
    assert doc["radical"]["codim"] == 2
    (direction,) = doc["radical"]["basis"]
    v = np.abs(np.asarray(direction))
    assert v.argmax() == 2


def test_cohomology_accepts_bare_algebra_document(tmp_path):
    from phasecraft.algebra import algebra_to_json
    from phasecraft.fixtures import fixture

    # abelian2 reaches the top degree at k = 2: its area form is a cocycle
    for name, z2, b2 in (("galilei", 10, 9), ("abelian2", 1, 0)):
        path = tmp_path / f"{name}.json"
        path.write_text(algebra_to_json(fixture(name)))
        out = str(tmp_path / name)
        assert cli.run("cohomology", str(path), out, seed=None) == 0
        doc = read_json(out, "cohomology.json")
        assert (doc["Z2"], doc["B2"], doc["H2"]) == (z2, b2, z2 - b2)


@pytest.mark.parametrize("algebra,pairs", [
    ("abelian1", [[0, 0, 1.0]]),  # no two-forms on a line
    ("so3", [[0, 3, 1.0]]),       # index outside the algebra
    ("so3", [[1, 1, 1.0]]),       # a two-form has no diagonal component
    ("so3", [[1, 1, 0.0]]),       # not even a zero one
])
def test_cohomology_bad_omega_is_schema_error(tmp_path, algebra, pairs):
    scen = write(tmp_path, "c.json", {"algebra": algebra, "omega": {"pairs": pairs}})
    with pytest.raises(SchemaError, match=re.escape(f"omega pair {pairs[0]}")):
        cli.run("cohomology", scen, str(tmp_path / "out"), seed=None)
    assert cli.main(["cohomology", scen, "--out", str(tmp_path / "o")]) == 2


SO3_DOC = {"dim": 3, "structure": [[2, 0, 1, 1.0], [0, 1, 2, 1.0], [1, 2, 0, 1.0]]}


@pytest.mark.parametrize("where", ["inline", "file"])
@pytest.mark.parametrize("doc", [
    {**SO3_DOC, "dim": "x"}, {**SO3_DOC, "structure": [[2, 0, 1]]},
    {**SO3_DOC, "structure": [[2, 0, "b", 1.0]]}, {**SO3_DOC, "structure": [[3, 0, 1, 1.0]]},
    # [1, -1, 0] would wrap to [1, 2, 0]: the same so(3), silently
    {**SO3_DOC, "structure": [[2, 0, 1, 1.0], [0, 1, 2, 1.0], [1, -1, 0, 1.0]]},
    {"structure": SO3_DOC["structure"]}, {**SO3_DOC, "basis": [[[0.0]]]},
    # NaN passed every tolerance test of the algebra's own checks
    {**SO3_DOC, "structure": [[2, 0, 1, float("nan")]]},
    {"dim": 2, "structure": [], "basis": [[[float("nan"), 0.0], [0.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]]]},
    {**SO3_DOC, "structure": [[2, 0, 1, float("inf")]]},
    # int() would truncate 3.5 and run an so(3) of dim 3
    {**SO3_DOC, "dim": 3.5},
    # over the size budget: refused before the (dim, dim, dim) structure array is allocated
    {"dim": 1000000, "structure": []},
], ids=["dim_text", "entry_short", "entry_text", "index_too_large", "index_negative",
        "dim_missing", "basis_wrong_length", "entry_nan", "basis_nan", "entry_inf",
        "dim_fraction", "dim_over_budget"])
def test_cohomology_bad_algebra_document_is_schema_error(tmp_path, doc, where):
    algebra = doc if where == "inline" else write(tmp_path, "alg.json", doc)
    scen = write(tmp_path, "c.json", {"algebra": algebra})
    with pytest.raises(SchemaError):
        cli.run("cohomology", scen, str(tmp_path / "out"), seed=None)
    assert cli.main(["cohomology", scen, "--out", str(tmp_path / "o")]) == 2


def test_cli_import_and_free_top_leave_scipy_unloaded(tmp_path):
    # scipy.linalg is imported by the first non-Rodrigues exponential only
    scen = write(tmp_path, "top.json", {**FREE_TOP, "initial": {"sigma": [1.0, 1.0, 1.0]}})
    code = ("import sys; from phasecraft import cli; "
            "assert 'scipy.linalg' not in sys.modules; "
            f"assert cli.main(['euler', {scen!r}, '--out', {str(tmp_path / 'o')!r}]) == 0; "
            "assert 'scipy.linalg' not in sys.modules")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
        str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")]))}
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_euler_torqued_top_checks_energy_only(tmp_path):
    scen = write(tmp_path, "torque.json", {
        "principal_moments": [1.0, 2.0, 3.0],
        "initial": {"sigma": [1.0, 1.0, 1.0]},
        "potential": "trace_alignment",
        "t_end": 0.02,
    })
    out = str(tmp_path / "out")
    assert cli.main(["euler", scen, "--out", out]) == 0
    doc = read_json(out, "conservation.json")
    assert [chk["name"] for chk in doc["checks"]] == ["energy_drift"]
    assert {"momentum_map_drift", "casimir_drift"} <= doc["report"].keys()


@pytest.mark.parametrize("sub,scenario", [
    ("euler", {"principal_moments": [1.0, 2.0, 3.0], "initial": {"sigma": [1.0, 0.0, 0.0]}}),
    ("affine", {"model": "lattice_hyperbolic",
                "initial": {"q": [1.5, -1.5], "p": [0.0, 0.0],
                            "M": [[0.0, 1.0], [-1.0, 0.0]], "N": [[0.0, 1.2], [-1.2, 0.0]]}}),
], ids=["euler", "affine"])
@pytest.mark.parametrize("times", [
    {"t_end": 1.0, "dt": 0}, {"t_end": -1}, {"t_end": "nan"}, {"t_end": 1.0, "dt": "fast"},
    {"t_end": 0.01, "sample_every": 0}, {"t_end": 0.01, "sample_every": 2.5},
    {"t_end": 1e9, "dt": 1e-9}, {"t_end": 1e300, "dt": 1e-300},
], ids=["dt_zero", "t_end_negative", "t_end_nan", "dt_text",
        "sample_every_zero", "sample_every_fraction", "over_step_budget", "step_count_inf"])
def test_time_grid_rejects_nonpositive_or_nonfinite(tmp_path, sub, scenario, times):
    scen = write(tmp_path, "s.json", {**scenario, **times})
    with pytest.raises(SchemaError):
        cli.run(sub, scen, str(tmp_path / "out"), seed=None)


def test_step_budget_boundary():
    assert cli._time_grid({"t_end": cli._MAX_STEPS * 0.5, "dt": 0.5})[2] == cli._MAX_STEPS
    with pytest.raises(SchemaError):
        cli._time_grid({"t_end": (cli._MAX_STEPS + 1) * 0.5, "dt": 0.5})


FREE_TOP = {"principal_moments": [1.0, 2.0, 3.0], "t_end": 0.01}


@pytest.mark.parametrize("scenario", [
    {"algebra": "so13", "metric": np.eye(6).tolist(),
     "initial": {"sigma": [0.1, -0.2, 0.05, 0.2, 0.1, -0.1]}, "t_end": 0.01},
    {**FREE_TOP, "initial": {"sigma": [1.0, 1.0, 1.0]}, "potential": "trace_alignment"},
], ids=["so13", "so3_trace_alignment"])
def test_general_and_torque_exponentials_leave_scipy_unloaded(tmp_path, scenario):
    # the scaling-and-squaring exponential and the torque table are phasecraft's own
    scen = write(tmp_path, "top.json", scenario)
    code = ("import sys; from phasecraft import cli; "
            f"assert cli.main(['euler', {scen!r}, '--out', {str(tmp_path / 'o')!r}]) == 0; "
            "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if 'scipy' in m)")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
        str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")]))}
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


@pytest.mark.parametrize("initial", [
    {"sigma": [1.0, "x", 0.0]}, {"sigma": [1.0, 0.0]}, {"sigma": [[1.0, 0.0, 0.0]]},
    {"sigma": [1.0, float("inf"), 0.0]}, {},
    {"sigma": [1.0, 0.0, 0.0], "g": np.eye(2).tolist()},
    {"sigma": [1.0, 0.0, 0.0], "g": [[1.0, 0.0, 0.0], [0.0, float("nan"), 0.0], [0.0, 0.0, 1.0]]},
    {"sigma": [1.0, 0.0, 0.0], "g": [[1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]},
    [1.0, 0.0, 0.0],
], ids=["sigma_text", "sigma_short", "sigma_matrix", "sigma_inf", "sigma_missing",
        "g_shape", "g_nan", "g_ragged", "not_object"])
def test_euler_bad_initial_is_schema_error(tmp_path, initial):
    scen = write(tmp_path, "e.json", {**FREE_TOP, "initial": initial})
    with pytest.raises(SchemaError):
        cli.run("euler", scen, str(tmp_path / "out"), seed=None)
    assert cli.main(["euler", scen, "--out", str(tmp_path / "o")]) == 2


SO3_METRIC = {"algebra": "so3", "metric": [[1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 3.0]]}


@pytest.mark.parametrize("model", [
    {"principal_moments": "heavy"}, {"principal_moments": ["x", 2.0, 3.0]},
    {"principal_moments": [1.0, 2.0]}, {"principal_moments": [1.0, -2.0, 3.0]},
    {**SO3_METRIC, "metric": "round"},
    {**SO3_METRIC, "metric": [[1.0, 0.5, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 3.0]]},
    {**SO3_METRIC, "metric": [[1.0, 0.0], [0.0, 2.0]]},
    {"chirality": "up"}, {"method": "euler"},
], ids=["moments_text", "moments_entry_text", "moments_short", "moments_negative",
        "metric_text", "metric_not_symmetric", "metric_wrong_dimension", "chirality_up",
        "method_euler"])
def test_euler_bad_model_is_schema_error(tmp_path, model):
    doc = {**FREE_TOP, "initial": {"sigma": [1.0, 0.0, 0.0]}, **model}
    if "metric" in model:
        del doc["principal_moments"]
    scen = write(tmp_path, "e.json", doc)
    with pytest.raises(SchemaError):
        cli.run("euler", scen, str(tmp_path / "out"), seed=None)
    assert cli.main(["euler", scen, "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("method", ["lie_midpoint", "rk4"])
def test_euler_reads_the_algebra_not_its_label(tmp_path, method):
    """The group (special-orthogonal or not) and the Casimir column come from
    the algebra's data: the so3 document under another label runs exactly as
    the fixture does."""
    so3 = json.loads(Path(cli.__file__).with_name("fixtures").joinpath("so3.json").read_text())
    outs = []
    for name, algebra in (("fixture", "so3"), ("renamed", {**so3, "label": "rotations"})):
        scen = write(tmp_path, f"{name}.json", {**SO3_METRIC, "algebra": algebra, "t_end": 0.5,
                                                "initial": {"sigma": [1.0, 0.5, 0.2]},
                                                "method": method})
        out = tmp_path / name
        assert cli.run("euler", scen, str(out), seed=None) == 0
        outs.append([(out / f).read_bytes() for f in ("euler.csv", "conservation.json")])
    assert outs[0] == outs[1]
    assert b"casimir_1" in outs[1][0] and b"casimir_drift" in outs[1][1]


ROTATION = [[np.cos(0.3), -np.sin(0.3), 0.0], [np.sin(0.3), np.cos(0.3), 0.0], [0.0, 0.0, 1.0]]


# initial.g must lie in the group: SO(3) for an so(3) basis, invertible otherwise
@pytest.mark.parametrize("method", ["lie_midpoint", "rk4"])
@pytest.mark.parametrize("model,g", [
    (FREE_TOP, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]]),
    (FREE_TOP, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, -1.0]]),
    (FREE_TOP, [[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
    ({"algebra": "gl2", "metric": np.eye(4).tolist(), "t_end": 0.01}, [[1.0, 2.0], [2.0, 4.0]]),
], ids=["so3_singular", "so3_reflection", "so3_shear", "gl2_singular"])
def test_euler_initial_g_outside_the_group_is_schema_error(tmp_path, capsys, model, g, method):
    so3 = "principal_moments" in model
    doc = {**model, "initial": {"sigma": [1.0, 0.5, 0.2] + ([] if so3 else [0.0]), "g": g},
           "method": method}
    assert cli.main(["euler", write(tmp_path, "e.json", doc), "--out", str(tmp_path / "o")]) == 2
    assert "error: initial.g " in capsys.readouterr().err
    doc["initial"]["g"] = ROTATION if so3 else np.eye(2).tolist()
    assert cli.main(["euler", write(tmp_path, "ok.json", doc), "--out", str(tmp_path / "ok")]) == 0


@pytest.mark.parametrize("change", [
    {"grid": {"N": "many"}}, {"grid": {"N": 100}}, {"grid": {"N": 2}}, {"grid": {"N": 64.5}},
    {"grid": {"qmin": "x"}}, {"grid": {"qmax": -9.0}}, {"grid": {"qmax": float("inf")}},
    {"hbar": 0}, {"hbar": "planck"},
    {"state": {"kind": "ho-excited", "k": -1}}, {"state": {"kind": "ho-excited", "k": 1.5}},
    {"state": {"kind": "gaussian", "sigma": "wide"}}, {"state": {"kind": "gaussian", "sigma": 0}},
    {"state": {"kind": "cat", "separation": -1.0}}, {"state": {}}, {"grid": "fine"},
    {"grid": {"N": 2048}}, {"grid": {"N": 2**30}}, {"grid": {"N": 2**62}},
    {"grid": {"qmin": -1e300}}, {"hbar": 5e-324},
], ids=["N_text", "N_not_power_of_two", "N_too_small", "N_fraction", "qmin_text",
        "qmax_below_qmin", "qmax_inf", "hbar_zero", "hbar_text", "k_negative", "k_fraction",
        "sigma_text", "sigma_zero", "separation_negative", "kind_missing", "grid_not_object",
        "N_over_grid_budget", "N_2_30", "N_2_62", "qmin_overflows", "hbar_underflows"])
def test_bad_wigner_values_are_schema_errors(tmp_path, change):
    doc = {**WIGNER_64, **change}
    if isinstance(change.get("grid"), dict):
        doc["grid"] = {**WIGNER_64["grid"], **change["grid"]}
    scen = write(tmp_path, "w.json", doc)
    with pytest.raises(SchemaError):
        cli.run("wigner", scen, str(tmp_path / "out"), seed=None)
    assert cli.main(["wigner", scen, "--out", str(tmp_path / "o")]) == 2


LATTICE = {"model": "lattice_hyperbolic", "constants": {"a": 1.0}, "t_end": 0.01,
           "initial": {"q": [1.5, -1.5], "p": [0.0, 0.0],
                       "M": [[0.0, 1.0], [-1.0, 0.0]], "N": [[0.0, 1.2], [-1.2, 0.0]]}}


@pytest.mark.parametrize("change", [
    {"constants": {"a": "x"}}, {"constants": {"a": 0.0}}, {"constants": "strong"},
    {"model": "lattice_calogero", "constants": {"I": "heavy"}},
    {"model": "standard", "constants": {"J_iso": -1.0}},
    {"model": "affine_left", "constants": {"inv_b": "x"}},
    {"initial": {"q": [1.5, 0.0, -1.5]}}, {"initial": {"p": [0.0]}},
    {"initial": {"M": [[0.0, "x"], [-1.0, 0.0]]}}, {"initial": {"N": [0.0, 1.2]}},
    {"initial": {"q": []}}, {"initial": {"L": [[1.0, 0.0], [0.0, float("nan")]]}},
    {"initial": {"q": [-1.5, 1.5]}}, {"initial": {"M": [[0.0, 1.0], [1.0, 0.0]]}},
], ids=["a_text", "a_zero", "constants_not_object", "I_text", "J_iso_negative", "inv_b_text",
        "q_longer_than_M", "p_short", "M_text", "N_vector", "q_empty", "L_nan",
        "q_ascending", "M_symmetric"])
def test_bad_affine_values_are_schema_errors(tmp_path, change):
    doc = {**LATTICE, **change}
    if "initial" in change:
        doc["initial"] = {**LATTICE["initial"], **change["initial"]}
    scen = write(tmp_path, "a.json", doc)
    with pytest.raises(SchemaError):
        cli.run("affine", scen, str(tmp_path / "out"), seed=None)
    assert cli.main(["affine", scen, "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("extra", [
    {"q": [9.0, -9.0], "M": [[0.0, 5.0], [-5.0, 0.0]]}, {"N": [[0.0, 1.0], [-1.0, 0.0]]},
    {"L": [[1.0, 0.0], [0.0, 1.0]]}, {"R": [[1.0, 0.0], [0.0, 1.0]]},
], ids=["q_and_M", "N", "L", "R"])
def test_affine_initial_mixing_the_two_charts_is_schema_error(tmp_path, extra):
    initial = {"phi": [[2.0, 0.0], [0.0, 0.5]], "sigma_hat": [[0.0, 1.0], [0.0, 0.0]], **extra}
    scen = write(tmp_path, "a.json", {**LATTICE, "model": "affine_left", "initial": initial})
    with pytest.raises(SchemaError) as err:
        cli.run("affine", scen, str(tmp_path / "out"), seed=None)
    assert all(f"initial.{key}" in str(err.value) for key in extra)
    assert cli.main(["affine", scen, "--out", str(tmp_path / "o")]) == 2
    # p belongs to the lattice chart only: the configuration chart refuses it by its path
    initial = {"phi": initial["phi"], "sigma_hat": initial["sigma_hat"], "p": [0.0, 0.0]}
    scen = write(tmp_path, "b.json", {**LATTICE, "model": "affine_left", "initial": initial})
    with pytest.raises(SchemaError, match=r"'initial\.p'"):
        cli.run("affine", scen, str(tmp_path / "ok"), seed=None)


@pytest.mark.parametrize("chart", ["lattice", "configuration"])
def test_affine_lattice_over_the_budget_is_schema_error(tmp_path, chart):
    # refused by n before the lattice kernel is generated, from the library's own bound
    n = affine._MAX_LATTICE_N + 1
    zeros = np.zeros((n, n)).tolist()
    initial = ({"q": np.linspace(2.0, -2.0, n).tolist(), "p": [0.0] * n, "M": zeros, "N": zeros}
               if chart == "lattice" else
               {"phi": np.diag(np.exp(np.linspace(1.0, -1.0, n))).tolist(), "sigma_hat": zeros})
    model = "lattice_hyperbolic" if chart == "lattice" else "affine_left"
    scen = write(tmp_path, "a.json", {**LATTICE, "model": model, "initial": initial})
    with pytest.raises(SchemaError, match=f"n = {n} invariants"):
        cli.run("affine", scen, str(tmp_path / "out"), seed=None)
    assert cli.main(["affine", scen, "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("initial", [
    {"M": [[0.0, 1e160], [-1e160, 0.0]]}, {"p": [1e300, -1e300]},
], ids=["coupling_squared_overflows", "sinh_overflows"])
def test_affine_overflowing_state_exits_2(tmp_path, initial):
    scen = write(tmp_path, "a.json", {**LATTICE, "initial": {**LATTICE["initial"], **initial}})
    assert cli.main(["affine", scen, "--out", str(tmp_path / "o")]) == 2


SHELL = {"observable": "harmonic", "a": 1.0, "epsilon": 0.3,
         "box": [[-2.2, 2.2], [-2.2, 2.2]], "samples": 3200, "seed": 3}


WIGNER_64 = {"state": {"kind": "ho-ground"}, "grid": {"N": 64, "qmin": -8.0, "qmax": 8.0}}


@pytest.mark.parametrize("tolerances", [
    {"marginal": "tight"}, [1], {"marginals": 1e-30}, {"marginal": -1}, {"mass": float("inf")},
], ids=["text", "not_object", "unknown_name", "negative", "infinite"])
def test_bad_tolerances_are_schema_errors(tmp_path, tolerances):
    scen = write(tmp_path, "w.json", {**WIGNER_64, "tolerances": tolerances})
    with pytest.raises(SchemaError):
        cli.run("wigner", scen, str(tmp_path / "out"), seed=None)
    assert cli.main(["wigner", scen, "--out", str(tmp_path / "o")]) == 2


def test_tolerances_override_the_default_bounds(tmp_path):
    scen = write(tmp_path, "w.json", {**WIGNER_64, "tolerances": {"mass": 0.5, "marginal": 0}})
    out = str(tmp_path / "out")
    assert cli.run("wigner", scen, out, seed=None) == 1  # no marginal is exact
    bounds = {c["name"]: c["bound"] for c in read_json(out, "wigner_checks.json")["checks"]}
    assert bounds == {"position_marginal": 0.0, "momentum_marginal": 0.0, "mass_defect": 0.5}
    for sub, doc in (("ensemble", SHELL), ("cohomology", {"algebra": "so3"})):
        scen = write(tmp_path, f"{sub}.json", {**doc, "tolerances": {}})
        with pytest.raises(SchemaError):  # no check there reads a bound
            cli._parse(scen, sub)[0]


@pytest.mark.parametrize("bad", [
    {"seed": -1}, {"seed": 2**48}, {"seed": 1.5}, {"epsilon": 0}, {"epsilon": "wide"},
    {"samples": 15}, {"hbar": "x"}, {"hbar": -1},
    {"box": [[-2.2, 2.2], [-2.2]]}, {"box": [[2.2, -2.2], [-2.2, 2.2]]},
    {"box": [[-2.2, "y"], [-2.2, 2.2]]},
    {"observable": {"quadratic": [[1.0, 0.0], [0.0]]}},
    {"box": [[-2.2, 2.2]] * 4, "observable": {"quadratic": [[1.0, 0.0], [0.0, 1.0]]}},
    {"flow_time": "long"}, {"flow_time": float("inf")}, {"flow_time": 1e9},
    {"samples": 1e308}, {"samples": 1_000_001}, {"hbar": 1e308}, {"hbar": 1e-300},
    {"flow_time": 99999}, {"box": [[-2.2, 2.2]] * 8},
], ids=["seed_negative", "seed_2_48", "seed_fraction", "epsilon_zero", "epsilon_text",
        "samples_15", "hbar_text", "hbar_negative", "box_ragged", "box_reversed", "box_text",
        "quadratic_ragged", "quadratic_wrong_size", "flow_time_text", "flow_time_inf",
        "flow_time_over_step_budget", "samples_1e308", "samples_over_budget", "hbar_1e308",
        "hbar_1e-300", "flow_time_over_point_step_budget", "box_over_dof_budget"])
def test_bad_ensemble_inputs_are_schema_errors(tmp_path, bad):
    scen = write(tmp_path, "s.json", {**SHELL, **bad})
    with pytest.raises(SchemaError):
        cli.run("ensemble", scen, str(tmp_path / "out"), seed=None)
    assert cli.main(["ensemble", scen, "--out", str(tmp_path / "o")]) == 2


SHELL = {"observable": "harmonic", "a": 1.0, "epsilon": 0.3,
         "box": [[-2.2, 2.2], [-2.2, 2.2]], "samples": 3200}


@pytest.mark.parametrize("sub,scenario,seed,used", [
    ("wigner", {"state": {"kind": "ho-ground"}, "grid": {"N": 64, "qmin": -8.0, "qmax": 8.0}},
     -5, None),
    ("ensemble", SHELL, 3, 3),
    ("ensemble", {**SHELL, "seed": 11}, 3, 11),
], ids=["negative_seed_refused", "fills_a_missing_seed", "scenario_seed_wins"])
def test_seed_option_is_read_through_the_table(tmp_path, sub, scenario, seed, used):
    """``--seed`` fills in a missing scenario seed and is checked by the seed
    rule; the manifest records the seed the run used (None: refused)."""
    out = str(tmp_path / "out")
    rc = cli.main([sub, write(tmp_path, "s.json", scenario), "--out", out, f"--seed={seed}"])
    if used is None:
        assert rc == 2
        return
    assert rc == 0 and read_json(out, "manifest.json")["seed"] == used
    ref = str(tmp_path / "ref")
    assert cli.run(sub, write(tmp_path, "r.json", {**scenario, "seed": used}), ref, seed=None) == 0
    assert Path(out, f"{sub}.json").read_bytes() == Path(ref, f"{sub}.json").read_bytes()


def test_rerun_byte_identical(tmp_path):
    scen = write(tmp_path, "w.json", {
        "state": {"kind": "gaussian", "sigma": 1.0},
        "grid": {"N": 128, "qmin": -8.0, "qmax": 8.0},
    })
    outs = []
    for sub in ("a", "b"):
        out = str(tmp_path / sub)
        assert cli.run("wigner", scen, out, seed=1) == 0
        outs.append(Path(out, "manifest.json").read_bytes())
    assert outs[0] == outs[1]


_RNG = np.random.default_rng(2024)
_SIGMA = _RNG.uniform(-1.0, 1.0, 3).tolist()
_Q = sorted(_RNG.uniform(-1.5, 1.5, 2).tolist(), reverse=True)
_M, _N = _RNG.uniform(0.5, 1.5, 2).tolist()


@pytest.mark.parametrize("sub,doc", [
    ("euler", {"principal_moments": [1.0, 2.0, 3.0], "initial": {"sigma": _SIGMA},
               "t_end": 0.2, "method": "rk4"}),
    ("euler", {"principal_moments": [1.0, 2.0, 3.0], "initial": {"sigma": _SIGMA},
               "t_end": 0.2, "potential": "trace_alignment"}),
    ("affine", {"model": "lattice_trigonometric", "constants": {"a": 1.0}, "t_end": 0.2,
                "initial": {"q": _Q, "p": [0.3, -0.1], "M": [[0.0, _M], [-_M, 0.0]],
                            "N": [[0.0, _N], [-_N, 0.0]]}}),
    ("ensemble", {**SHELL, "seed": 5, "flow_time": 0.3}),
    ("cohomology", {"algebra": "heisenberg_rot"}),
], ids=["euler_rk4", "euler_torque", "affine", "ensemble", "cohomology"])
def test_scenario_reruns_are_byte_identical(tmp_path, sub, doc):
    scen = write(tmp_path, "s.json", doc)
    outs = []
    for run in ("a", "b"):
        out = str(tmp_path / run)
        assert cli.run(sub, scen, out, seed=None) == 0
        outs.append(Path(out, "manifest.json").read_bytes())
    assert outs[0] == outs[1]


def test_report_summary_flags_failures(tmp_path, capsys):
    out = str(tmp_path / "out")
    os.makedirs(out)
    doc = {"checks": [
        {"name": "drift", "value": 1e-5, "bound": 1e-6, "pass": False},
        {"name": "energy", "value": 1e-9, "bound": 1e-8, "pass": True},
    ]}
    with open(os.path.join(out, "run.json"), "w") as fh:
        json.dump(doc, fh)
    manifest = {"files": [{"name": "run.json", "sha256": "x", "bytes": 1}]}
    mpath = os.path.join(out, "manifest.json")
    with open(mpath, "w") as fh:
        json.dump(manifest, fh)
    assert cli.report_summary(mpath) == 1
    text = capsys.readouterr().out
    assert "FAIL" in text and "drift" in text and "1/2 checks passed" in text


def test_report_summary_empty(tmp_path, capsys):
    mpath = os.path.join(str(tmp_path), "manifest.json")
    with open(mpath, "w") as fh:
        json.dump({"files": []}, fh)
    assert cli.report_summary(mpath) == 0
    assert "no runs" in capsys.readouterr().out


@pytest.mark.parametrize("manifest,files", [
    ({"files": [{"name": "gone.json", "sha256": "x", "bytes": 1}]}, {}),
    ("not json", {}),
    ([1, 2], {}),
    ({"files": [{"sha256": "x", "bytes": 1}]}, {}),
    ({"files": [{"name": "run.json"}]}, {"run.json": {"checks": [{"name": "drift"}]}}),
    ({"files": [{"name": "run.json"}]}, {"run.json": [1]}),
    ("[" * 100_000 + "]" * 100_000, {}),
], ids=["missing_file", "not_json", "not_object", "record_without_name",
        "check_without_value", "run_file_not_object", "nested_too_deeply"])
def test_report_on_a_bad_manifest_exits_2(tmp_path, capsys, manifest, files):
    for name, doc in files.items():
        (tmp_path / name).write_text(json.dumps(doc))
    mpath = tmp_path / "manifest.json"
    mpath.write_text(manifest if isinstance(manifest, str) else json.dumps(manifest))
    assert cli.main(["report", str(mpath)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_main_error_paths(tmp_path):
    assert cli.main(["euler"]) == 2  # missing scenario
    missing = str(tmp_path / "nope.json")
    assert cli.main(["euler", missing]) == 2


@pytest.mark.parametrize("change", [
    {"unknown": 1}, {"grid": {"N": 48, "qmin": -8.0, "qmax": 8.0}},
], ids=["unknown_key", "runner_refuses_grid"])
def test_refused_scenario_leaves_no_output_directory(tmp_path, change):
    fresh = tmp_path / "fresh"
    scen = write(tmp_path, "bad.json", {**WIGNER_64, **change})
    assert cli.main(["wigner", scen, "--out", str(fresh)]) == 2
    assert not fresh.exists()


def test_internal_error_exits_3_without_traceback(tmp_path, monkeypatch, capsys):
    def crash(scn, art):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli._RUNNERS, "wigner", crash)
    scen = write(tmp_path, "w.json", WIGNER_64)
    assert cli.main(["wigner", scen, "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err == "internal error: RuntimeError: boom\n"


@pytest.mark.parametrize("state", [
    {"kind": "ho-excited", "k": 400}, {"kind": "cat", "separation": 1000.0},
], ids=["ho_excited_400", "cat_off_grid"])
def test_wigner_state_off_the_grid_is_named_error(tmp_path, state):
    scen = write(tmp_path, "w.json", {**WIGNER_64, "state": state})
    with pytest.raises(GridTooCoarse):
        cli.run("wigner", scen, str(tmp_path / "out"), seed=None)
    assert cli.main(["wigner", scen, "--out", str(tmp_path / "o")]) == 2


def test_euler_explicit_metric_branch(tmp_path):
    scen = write(tmp_path, "em.json", {
        "algebra": "so3",
        "metric": [[2.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 1.0]],
        "initial": {"sigma": [0.8, 0.3, 0.6]},
        "t_end": 0.5,
    })
    out = str(tmp_path / "out")
    assert cli.run("euler", scen, out, seed=None) == 0
    rep = read_json(out, "conservation.json")
    assert all(chk["pass"] for chk in rep["checks"])


def test_euler_algebra_without_basis_rejected(tmp_path):
    scen = write(tmp_path, "bad.json", {
        "algebra": "galilei",
        "metric": np.eye(10).tolist(),
        "initial": {"sigma": [0.0] * 10},
        "t_end": 0.1,
    })
    assert cli.main(["euler", scen, "--out", str(tmp_path / "o")]) == 2


def test_wigner_cat_and_excited_states(tmp_path):
    for kind, extra in (("cat", {"separation": 5.0}), ("ho-excited", {"k": 2})):
        scen = write(tmp_path, f"{kind}.json", {
            "state": {"kind": kind, **extra},
            "grid": {"N": 128, "qmin": -12.0, "qmax": 12.0},
        })
        out = str(tmp_path / f"out_{kind}")
        assert cli.run("wigner", scen, out, seed=None) == 0
        doc = read_json(out, "wigner_checks.json")
        assert all(chk["pass"] for chk in doc["checks"])


def _tree(root: Path) -> dict:
    """Every file under ``root``, by relative path, with its bytes."""
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def _manifest_matches(out: Path) -> bool:
    records = read_json(out, "manifest.json")["files"]
    return all(hashlib.sha256((out / r["name"]).read_bytes()).hexdigest() == r["sha256"]
               for r in records)


def test_interrupted_run_leaves_the_previous_run_untouched(tmp_path, monkeypatch):
    # stopped while it assembled its marginals, a second run used to leave its
    # wigner.f64 beside the first run's manifest, whose hash it no longer matched
    shipped = str(Path(__file__).resolve().parents[1] / "scenarios" / "ho_ground_wigner.json")
    out = tmp_path / "D"
    assert cli.main(["wigner", shipped, "--out", str(out)]) == 0
    before = _tree(out)
    excited = write(tmp_path, "excited.json", {**read_json(*os.path.split(shipped)),
                                               "state": {"kind": "ho-excited", "k": 3}})

    def interrupt(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli._Artifacts, "write_csv", interrupt)
    with pytest.raises(KeyboardInterrupt):
        cli.main(["wigner", excited, "--out", str(out)])
    assert _tree(out) == before
    assert _manifest_matches(out)


def test_a_second_run_removes_the_files_that_only_the_old_manifest_lists(tmp_path):
    # an euler run and then a wigner run into one directory left euler.csv and
    # conservation.json there, listed by no manifest
    euler = write(tmp_path, "e.json", {"principal_moments": [1.0, 2.0, 3.0],
                                       "initial": {"sigma": [1.0, 1.0, 1.0]}, "t_end": 0.1})
    wigner = write(tmp_path, "w.json", WIGNER_64)
    out = tmp_path / "D"
    assert cli.main(["euler", euler, "--out", str(out)]) == 0
    (out / "notes.txt").write_text("no manifest lists this")
    assert cli.main(["wigner", wigner, "--out", str(out)]) == 0
    listed = {r["name"] for r in read_json(out, "manifest.json")["files"]}
    assert set(_tree(out)) == listed | {"manifest.json", "notes.txt"}
    assert _manifest_matches(out)
    # a listed file whose bytes changed since its run was written stays
    assert cli.main(["euler", euler, "--out", str(out)]) == 0
    (out / "euler.csv").write_text("edited\n")
    assert cli.main(["wigner", wigner, "--out", str(out)]) == 0
    assert "euler.csv" in _tree(out) and "conservation.json" not in _tree(out)
    # only plain names: a listed path, or a manifest that cannot be read, removes nothing
    (tmp_path / "outside.txt").write_text("x")
    (out / "sub").mkdir()
    (out / "sub" / "f").write_text("x")
    x_sha = hashlib.sha256(b"x").hexdigest()
    notes_sha = hashlib.sha256((out / "notes.txt").read_bytes()).hexdigest()
    for old in ({"files": [{"name": name, "sha256": x_sha} for name in ("../outside.txt", "sub/f", "sub")]},
                {"files": [{"name": "notes.txt", "sha256": notes_sha}, "not a record"]}, "[not json"):
        (out / "manifest.json").write_text(old if isinstance(old, str) else json.dumps(old))
        assert cli.main(["euler", euler, "--out", str(out)]) == 0
    assert (tmp_path / "outside.txt").exists()
    assert {"notes.txt", "sub/f", "wigner.f64", "euler.csv"} <= set(_tree(out))


def test_run_stopped_while_writing_leaves_no_manifest(tmp_path, capsys):
    scen = write(tmp_path, "w.json", WIGNER_64)
    out = tmp_path / "D"
    assert cli.main(["wigner", scen, "--out", str(out)]) == 0
    (out / "wigner.json").unlink()
    (out / "wigner.json").mkdir()  # a file that cannot be written
    assert cli.main(["wigner", scen, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write the run to {str(out)!r}")
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("sub", ["", "sub"], ids=["a_file", "below_a_file"])
def test_out_that_names_a_file_exits_2(tmp_path, capsys, sub):
    blocker = tmp_path / "F"
    blocker.write_text("not a directory")
    out = blocker / sub if sub else blocker
    assert cli.main(["wigner", write(tmp_path, "w.json", WIGNER_64), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: cannot write")
    assert blocker.read_text() == "not a directory"
