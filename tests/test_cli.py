import json
import os
from pathlib import Path

import numpy as np
import pytest

from phasecraft import cli
from phasecraft.errors import SchemaError


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
        cli.parse_scenario(path, "euler")
    assert "integrater" in str(err.value)


def test_parse_reports_line_and_column(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "model": lattice\n}')
    with pytest.raises(SchemaError) as err:
        cli.parse_scenario(str(path), "affine")
    assert ":2:" in str(err.value)


def test_parse_missing_keys(tmp_path):
    path = write(tmp_path, "e.json", {"t_end": 1.0})
    with pytest.raises(SchemaError) as err:
        cli.parse_scenario(path, "euler")
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
    scen = cli.parse_scenario(
        write(tmp_path, "e.json", {
            "principal_moments": [1.0, 2.0, 3.0],
            "initial": {"sigma": [0.5, 0.0, 0.0]},
            "t_end": 0.5,
        }),
        "euler",
    )
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
])
def test_cohomology_bad_omega_is_schema_error(tmp_path, algebra, pairs):
    scen = write(tmp_path, "c.json", {"algebra": algebra, "omega": {"pairs": pairs}})
    with pytest.raises(SchemaError):
        cli.run("cohomology", scen, str(tmp_path / "out"), seed=None)
    assert cli.main(["cohomology", scen, "--out", str(tmp_path / "o")]) == 2


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


@pytest.mark.parametrize("change", [
    {"grid": {"N": "many"}}, {"grid": {"N": 100}}, {"grid": {"N": 2}}, {"grid": {"N": 64.5}},
    {"grid": {"qmin": "x"}}, {"grid": {"qmax": -9.0}}, {"grid": {"qmax": float("inf")}},
    {"hbar": 0}, {"hbar": "planck"},
    {"state": {"kind": "ho-excited", "k": -1}}, {"state": {"kind": "ho-excited", "k": 1.5}},
    {"state": {"kind": "gaussian", "sigma": "wide"}}, {"state": {"kind": "gaussian", "sigma": 0}},
    {"state": {"kind": "cat", "separation": -1.0}}, {"state": {}}, {"grid": "fine"},
], ids=["N_text", "N_not_power_of_two", "N_too_small", "N_fraction", "qmin_text",
        "qmax_below_qmin", "qmax_inf", "hbar_zero", "hbar_text", "k_negative", "k_fraction",
        "sigma_text", "sigma_zero", "separation_negative", "kind_missing", "grid_not_object"])
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
            cli.parse_scenario(scen, sub)


@pytest.mark.parametrize("bad", [
    {"seed": -1}, {"seed": 2**48}, {"seed": 1.5}, {"epsilon": 0}, {"epsilon": "wide"},
    {"samples": 15},
], ids=["seed_negative", "seed_2_48", "seed_fraction", "epsilon_zero", "epsilon_text",
        "samples_15"])
def test_bad_ensemble_inputs_are_schema_errors(tmp_path, bad):
    scen = write(tmp_path, "s.json", {**SHELL, **bad})
    with pytest.raises(SchemaError):
        cli.run("ensemble", scen, str(tmp_path / "out"), seed=None)
    assert cli.main(["ensemble", scen, "--out", str(tmp_path / "o")]) == 2


def test_selftest_deterministic(tmp_path):
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert cli.run("selftest", None, out1, seed=7) == 0
    assert cli.run("selftest", None, out2, seed=7) == 0
    assert Path(out1, "manifest.json").read_bytes() == Path(out2, "manifest.json").read_bytes()


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


def test_main_error_paths(tmp_path):
    assert cli.main(["euler"]) == 2  # missing scenario
    missing = str(tmp_path / "nope.json")
    assert cli.main(["euler", missing]) == 2


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
