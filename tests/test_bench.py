"""The paired benchmark harness, bench/ab.py: its verdict rule and the JSON
record that ends every run."""
import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import ab  # noqa: E402

LOWER = {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25}
HIGHER = {"name": "ratio", "unit": "1", "better": "higher", "bound": 0.1}
BASE = [1.0 + 0.01 * k for k in range(10)]  # median 1.045, IQR 0.055


def verdict(metric, base, change):
    return ab.summary(metric, base, change)["verdict"]


def test_gain_needs_nine_tenths_of_the_pairs_and_a_move_past_the_base_iqr():
    assert verdict(LOWER, BASE, [b - 0.1 for b in BASE]) == "gain"
    nine = [b - 0.1 for b in BASE[:9]] + [BASE[9] + 0.1]
    assert ab.summary(LOWER, BASE, nine)["wins"] == 9
    assert verdict(LOWER, BASE, nine) == "gain"
    eight = [b - 0.1 for b in BASE[:8]] + [b + 0.1 for b in BASE[8:]]
    assert verdict(LOWER, BASE, eight) == "-"
    # every pair won, but the medians differ by less than the base's IQR
    assert verdict(LOWER, BASE, [b - 0.02 for b in BASE]) == "-"
    assert verdict(HIGHER, BASE, [b + 0.1 for b in BASE]) == "gain"
    assert verdict(HIGHER, BASE, [b - 0.1 for b in BASE]) == "-"


def test_worse_means_worse_beyond_the_bound():
    flat = [1.0] * 10
    assert verdict(LOWER, flat, [1.3] * 10) == "worse"
    assert verdict(LOWER, flat, [1.2] * 10) == "-"
    assert verdict(HIGHER, flat, [0.85] * 10) == "worse"
    assert verdict(HIGHER, flat, [0.95] * 10) == "-"
    unbounded = {"name": "step_us", "unit": "us", "better": "lower"}
    assert verdict(unbounded, flat, [100.0] * 10) == "-"


def test_ties_count_for_neither_side():
    row = ab.summary(LOWER, BASE, list(BASE))
    assert (row["wins"], row["verdict"]) == (0, "-")
    nine_and_a_tie = [b - 0.1 for b in BASE[:9]] + [BASE[9]]
    assert ab.summary(LOWER, BASE, nine_and_a_tie)["wins"] == 9
    assert verdict(LOWER, BASE, nine_and_a_tie) == "gain"
    eight_and_two_ties = [b - 0.1 for b in BASE[:8]] + BASE[8:]
    assert verdict(LOWER, BASE, eight_and_two_ties) == "-"


def test_fewer_than_ten_pairs_never_read_gain():
    assert verdict(LOWER, [1.0, 1.0], [0.99, 0.98]) == "-"
    for pairs in range(1, ab.MIN_PAIRS):
        assert verdict(LOWER, BASE[:pairs], [0.5] * pairs) == "-"
    assert ab.MIN_PAIRS == 10
    assert verdict(LOWER, BASE, [0.5] * 10) == "gain"


def _record(capsys, monkeypatch, argv, expect_exit=0):
    """Run ``ab.main`` and return the tables ``table`` returned, the printed
    lines and the JSON record on the last line."""
    returned, table = {}, ab.table

    def recording_table(label, metrics, values):
        returned[label] = table(label, metrics, values)
        return returned[label]

    monkeypatch.setattr(ab, "table", recording_table)
    assert ab.main(argv) == expect_exit
    lines = capsys.readouterr().out.splitlines()
    return returned, lines, json.loads(lines[-1])


def test_the_json_line_carries_the_workload_tables(tmp_path, monkeypatch, capsys):
    spec = {"workloads": [{"name": "w1"}, {"name": "w2"}],
            "end_to_end": [LOWER, {"name": "peak", "unit": "MB", "better": "lower", "bound": 0.1}]}
    for side in ("base", "change"):
        (tmp_path / side).mkdir()
        (tmp_path / side / "BENCHMARK.json").write_text(json.dumps(spec))
    runs = []

    def run(checkout, workload, seed, seconds):
        runs.append((checkout.name, workload, seed, seconds))
        n = len(runs)
        return {"correct": True, "failed": int(n == 1),
                "metrics": {"wall_s": {"value": 1.0 + 0.01 * n}, "peak": {"value": 40.0 + n % 3}}}

    monkeypatch.setattr(ab, "run", run)
    monkeypatch.setattr(ab, "git", lambda checkout, *args: None)
    argv = [str(tmp_path / "base"), str(tmp_path / "change"), "--pairs", "3",
            "--seed", "1", "--seed", "2", "--seconds", "1"]
    # the first run reports a failed operation: exit 1, and the record is still printed
    returned, lines, record = _record(capsys, monkeypatch, argv, expect_exit=1)
    assert record["tables"] == returned
    assert list(returned) == ["w1", "w2"]
    assert {k: record[k] for k in ("pairs", "seeds", "seconds")} == {
        "pairs": 3, "seeds": [1, 2], "seconds": 1.0}
    assert record["base"] == record["change"] == {"sha": None, "tracked_changes": False}
    # alternating order: the change runs first in odd pairs, both sides on one seed
    assert [(side, seed) for side, w, seed, _ in runs if w == "w1"] == [
        ("base", 1), ("change", 1), ("change", 2), ("base", 2), ("base", 1), ("change", 1)]
    row = returned["w1"]["wall_s"]
    assert row["base"] == [1.0 + 0.01 * n for n in (1, 4, 5)]
    assert row["change"] == [1.0 + 0.01 * n for n in (2, 3, 6)]
    w2 = lines[lines.index("w2"):]
    for name, row in returned["w2"].items():
        printed = next(line.split() for line in w2 if line.startswith(name + " "))
        assert printed[1:3] == [f"{row['median_base']:.4g}", f"{row['median_change']:.4g}"]


def test_the_json_line_carries_the_kernel_and_command_rows(tmp_path, monkeypatch, capsys):
    times = iter(range(100))
    monkeypatch.setattr(ab, "kernel_times", lambda checkout, seed: {
        "step_so13": 40.0 + next(times)})
    runs = []

    def cli(checkout, args, out):
        runs.append((checkout.name, args))
        return subprocess.CompletedProcess(args, 0, b"", b"")

    monkeypatch.setattr(ab, "cli", cli)
    monkeypatch.setattr(ab, "git", lambda checkout, *args: None)
    argv = [str(tmp_path / "base"), str(tmp_path / "change"), "--kernels", "--pairs", "2"]
    returned, _, record = _record(capsys, monkeypatch, argv)
    assert record["tables"] == returned
    assert record["seconds"] is None
    rows = returned["kernels"]
    assert list(rows) == ["step_so13", *(f"cli.{name}" for name in ab.CLI_COMMANDS)]
    assert (rows["step_so13"]["unit"], rows["cli.import"]["unit"]) == ("us", "s")
    assert all(len(row["base"]) == len(row["change"]) == 2 for row in rows.values())
    # both sides of a command back to back, the base first when pair + command index is even
    assert runs == [(side, args) for k in range(2)
                    for index, args in enumerate(ab.CLI_COMMANDS.values())
                    for side in (("base", "change") if (k + index) % 2 == 0
                                 else ("change", "base"))]
