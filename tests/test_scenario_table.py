"""The scenario tables against their fuzzer and their documentation.

Every key of every subcommand's table, at every nesting level and in every
variant, receives JSON values of every type and boundary numbers inside a
small valid scenario of each variant.  The CLI must answer with exit 0, 1
or 2: never an internal error (exit 3) and never a traceback.  A key added
to ``cli._SCENARIOS`` is fuzzed, and must be named in README, with no edit
here."""

import contextlib
import copy
import io
import json
import os
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from phasecraft import cli

EULER = {"initial": {"sigma": [1.0, 0.5, 0.0]}, "t_end": 0.01, "dt": 0.005}
AFFINE = {"t_end": 0.01, "dt": 0.005,
          "initial": {"q": [1.5, -1.5], "p": [0.0, 0.0],
                      "M": [[0.0, 1.0], [-1.0, 0.0]], "N": [[0.0, 1.2], [-1.2, 0.0]]}}
GRID = {"N": 64, "qmin": -8.0, "qmax": 8.0}

# valid scenarios that run in milliseconds, one per variant: every key is
# fuzzed in each scenario of its subcommand, so also inside the variant that
# reads it
BASE = {
    "euler": [{**EULER, "principal_moments": [1.0, 2.0, 3.0]},
              {**EULER, "algebra": "so3", "metric": [[2.0, 0.5, 0.0], [0.5, 2.0, 0.0],
                                                     [0.0, 0.0, 3.0]]}],
    "affine": [{**AFFINE, "model": "lattice_hyperbolic", "constants": {"a": 1.0}},
               {**AFFINE, "model": "lattice_calogero", "constants": {"I": 1.0}},
               {**AFFINE, "model": "standard", "constants": {"J_iso": 1.0}},
               {**AFFINE, "model": "affine_left", "constants": {"a": 1.0},
                "initial": {"phi": [[2.0, 0.0], [0.0, 0.5]],
                            "sigma_hat": [[0.0, 1.0], [0.0, 0.0]]}}],
    "ensemble": [{"observable": "harmonic", "a": 1.0, "epsilon": 0.3,
                  "box": [[-2.2, 2.2], [-2.2, 2.2]], "samples": 3200, "seed": 3}],
    "wigner": [{"state": state, "grid": GRID} for state in (
        {"kind": "ho-ground"}, {"kind": "ho-excited", "k": 2},
        {"kind": "gaussian", "sigma": 0.7}, {"kind": "cat", "separation": 3.0})],
    "cohomology": [{"algebra": "so3"}],
}

MISSING = object()


def key_paths(rule, prefix=()):
    """Every key that a scenario table reads, in nested tables and in every
    variant, as a path; a key that variants share appears once."""
    tables = [rule] if isinstance(rule, dict) else getattr(rule, "tables", {}).values()
    paths = []
    for table in tables:
        for name, (inner, *_) in table.items():
            paths += [prefix + (name,), *key_paths(inner, prefix + (name,))]
    return list(dict.fromkeys(paths))


PATHS = [(sub, path) for sub, table in cli._SCENARIOS.items() for path in key_paths(table)]

# Numbers at the edges of float64 and of the integers, and small ones.  No
# value is valid and expensive at once: a large t_end or sample count
# exceeds its budget, so every run stays short.
BOUNDARY = [0, 1, -1, 2, 0.5, -0.0, 1e-300, 5e-324, -5e-324, 1e300, -1e300,
            1.7976931348623157e308, -1.7976931348623157e308, float("inf"), float("-inf"),
            float("nan"), 2**31, 2**48, 2**53 + 1, 2**63, 10**400, -(10**400)]
numbers = st.sampled_from(BOUNDARY) | st.floats(-2.0, 2.0) | st.integers(-3, 3)
words = st.sampled_from(["", "x", "none", "harmonic", "so3", "galilei", "rk4", "cat",
                         "ho-excited", "trace_alignment", "lattice_calogero", "right"])
scalars = st.none() | st.booleans() | numbers | words | st.text(max_size=4)
arrays = (st.lists(numbers, min_size=1, max_size=4)
          | st.lists(st.lists(numbers, min_size=1, max_size=4), min_size=1, max_size=4))
json_values = st.recursive(
    scalars | arrays,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=8,
)


def place(doc: dict, path: tuple, value) -> dict:
    """A copy of ``doc`` with ``value`` at ``path`` (MISSING deletes the key)."""
    doc = copy.deepcopy(doc)
    *parents, last = path
    node = doc
    for name in parents:
        node = node.setdefault(name, {})
    if value is MISSING:
        node.pop(last, None)
    else:
        node[last] = value
    return doc


def run_cli(sub: str, doc: dict, tmp: str) -> tuple[int, str]:
    """(exit code, standard error) of ``phasecraft sub`` on ``doc``."""
    scen = os.path.join(tmp, "s.json")
    with open(scen, "w") as fh:
        json.dump(doc, fh)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([sub, scen, "--out", os.path.join(tmp, "out")])
    return code, err.getvalue()


def assert_named_exit(sub: str, doc: dict, tmp: str) -> None:
    code, err = run_cli(sub, doc, tmp)
    assert code in (0, 1, 2), (doc, err)
    assert "Traceback" not in err


IDS = [f"{sub}:{'.'.join(path)}" for sub, path in PATHS]


@pytest.mark.parametrize("sub,path", PATHS, ids=IDS)
def test_boundary_values_exit_0_1_or_2(tmp_path, sub, path):
    for base in BASE[sub]:
        for value in BOUNDARY + [MISSING]:
            assert_named_exit(sub, place(base, path, value), str(tmp_path))


@pytest.mark.parametrize("sub,path", PATHS, ids=IDS)
@given(value=json_values)
def test_fuzzed_values_exit_0_1_or_2(sub, path, value):
    with tempfile.TemporaryDirectory() as tmp:
        for base in BASE[sub]:
            assert_named_exit(sub, place(base, path, value), tmp)


def test_every_table_key_is_fuzzed():
    assert {sub for sub, _ in PATHS} == set(cli._SCENARIOS)
    assert len(set(PATHS)) == len(PATHS)
    assert ("wigner", ("state", "k")) in PATHS
    assert ("euler", ("tolerances", "energy_drift")) in PATHS


README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def test_readme_tolerance_table_equals_the_defaults():
    rows = re.findall(r"^\| `(\w+)` \| `(\w+)` \| ([-+.\de]+) \|", README, re.M)
    table = {}
    for sub, name, bound in rows:
        table.setdefault(sub, {})[name] = float(bound)
    assert table == cli._TOLERANCES


@pytest.mark.parametrize("sub", list(cli._SCENARIOS))
def test_readme_names_every_table_key(sub):
    start = README.index(f"#### `{sub}`")
    section = README[start:README.index("\n#", start + 1)]
    # tolerance names are the rows of the tolerance table
    keys = {".".join(path) for s, path in PATHS if s == sub and path[:1] != ("tolerances",)}
    assert {key for key in keys if f"`{key}`" not in section} == set()


SO3_ENTRIES = [[2, 0, 1, 1.0], [0, 1, 2, 1.0], [1, 2, 0, 1.0]]


# JSON true, and a string that spells a number, must not pass for a number;
# each case names the refused key
@pytest.mark.parametrize("sub,path,value,key", [
    ("affine", ("constants", "a"), True, "constants.a"),
    ("affine", ("sample_every",), True, "sample_every"),
    ("affine", ("initial", "q"), [True, False], "initial.q"),
    ("wigner", ("hbar",), True, "hbar"),
    ("cohomology", ("algebra",), {"dim": True, "structure": []}, "algebra.dim"),
    ("affine", ("constants", "a"), "1.0", "constants.a"),
    ("affine", ("t_end",), "0.01", "t_end"),
    ("affine", ("initial", "q"), ["1.5", "-1.5"], "initial.q"),
    ("wigner", ("state",), {"kind": "gaussian", "sigma": " 0.7 "}, "state.sigma"),
    ("wigner", ("grid", "qmin"), "-8", "grid.qmin"),
    ("wigner", ("hbar",), "1", "hbar"),
    ("cohomology", ("algebra",), {"dim": 3, "structure": [[2, 0, 1, "1.0"], *SO3_ENTRIES[1:]]},
     "algebra.structure[0]"),
], ids=["affine:constants.a", "affine:sample_every", "affine:initial.q", "wigner:hbar",
        "cohomology:algebra.dim", "affine:constants.a:str", "affine:t_end:str",
        "affine:initial.q:str", "wigner:state.sigma:str", "wigner:grid.qmin:str",
        "wigner:hbar:str", "cohomology:algebra.structure:str"])
def test_json_booleans_are_not_numbers(tmp_path, sub, path, value, key):
    code, err = run_cli(sub, place(BASE[sub][0], path, value), str(tmp_path))
    assert code == 2, err
    assert f"error: {key} " in err


# each variant reads only its own keys: a key it would drop is refused by name
@pytest.mark.parametrize("sub,doc,keys", [
    ("wigner", {"state": {"kind": "ho-ground", "k": 5}, "grid": GRID}, ["state.k"]),
    ("euler", {**BASE["euler"][0], "algebra": "so13", "metric": [[1.0, 0.0], [0.0, 1.0]]},
     ["algebra", "metric"]),
    ("affine", {**BASE["affine"][0], "constants": {"a": 1.0, "I": 2.0, "J_iso": 2.0, "inv_b": 5}},
     ["constants.I", "constants.J_iso", "constants.inv_b"]),
    ("cohomology", {"algebra": {"dim": 3, "structure": [[2.7, 0, 1, True]]}},
     ["algebra.structure[0]"]),
    # settings that no run reads: the configuration chart's x and p, and the
    # 1/b and 1/c weights of the trace-form models, whose dynamics has the 1/a term only
    ("affine", place(BASE["affine"][3], ("initial", "x"), [5.0, -3.0]), ["initial.x"]),
    ("affine", place(BASE["affine"][3], ("initial", "p"), [100.0, 7.0]), ["initial.p"]),
    ("affine", place(BASE["affine"][3], ("constants", "inv_b"), 0.0), ["constants.inv_b"]),
    ("affine", {**place(BASE["affine"][3], ("constants", "inv_c"), 0.0), "model": "affine_right"},
     ["constants.inv_c"]),
], ids=["wigner:ho-ground_k", "euler:moments_with_metric", "affine:hyperbolic_constants",
        "cohomology:entry_fraction_and_bool", "affine:configuration_x",
        "affine:configuration_p", "affine:affine_left_inv_b", "affine:affine_right_inv_c"])
def test_keys_the_variant_never_reads_are_refused(tmp_path, sub, doc, keys):
    code, err = run_cli(sub, doc, str(tmp_path))
    assert code == 2, err
    assert all(f"'{key}'" in err or f"{key} " in err for key in keys), err
