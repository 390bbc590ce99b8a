"""phasecraft benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client in one process runs a workload's operations back to back (a
closed loop, no extra threads, BLAS pinned to one thread).  A pass runs every
operation once and checks it against its oracle; every pass of a seed must
reproduce the first pass's manifests hash for hash.

``--trace 0`` runs one warm-up pass, then timed passes for ``--seconds``
with a fresh set-up process after each, and prints the end-to-end metrics.
``--trace 1`` runs a warm-up, then untraced and traced passes in turn (two
each), checks that the traced counters repeat exactly, times the kernels and
prints the per-layer metrics; the spans go to ``.perfbench_spans/``.

The last line of standard output is the JSON result.  Notes on the choice of
workloads and metrics are in ``perfbench/NOTES.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import env

LOAD_PROBES = 3  # fresh processes timing the fixture load in a traced run
MIN_PASSES = 3
PROBE_TIMEOUT_S = 60


def probe_setup() -> tuple[float, float]:
    """(set-up seconds, fixture-load seconds) of one fresh process."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("setup_probe.py"))],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
    )
    probe = json.loads(proc.stdout.strip().splitlines()[-1])
    return probe["import_s"] + probe["fixtures_s"], probe["fixtures_s"]


class Gate:
    """Counts attempted and failed operations; a failure is an exception, a
    CLI check over its bound, an oracle miss or a digest that differs from
    the first pass's."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failed_by_layer: Counter = Counter()
        self.reference: dict = {}
        self.messages: list[str] = []

    def record(self, op, digest, problems) -> None:
        self.attempted += 1
        if digest is not None and digest != self.reference.setdefault(op.id, digest):
            problems = problems + ["output differs from the first pass"]
        if problems:
            self.failed += 1
            self.failed_by_layer[op.layer] += 1
            self.messages.append(f"{op.id}: {'; '.join(problems)}")


def run_pass(ops, out_root: Path, gate: Gate, tracer=None):
    """One pass: (wall seconds, per-operation seconds, artifact bytes)."""
    times, nbytes = [], 0
    begin = perf_counter()
    for op in ops:
        if tracer is not None:
            tracer.op = op.id
        start = perf_counter()
        try:
            result = op.run(out_root / op.id)
            with tracer.paused() if tracer is not None else contextlib.nullcontext():
                digest, problems, size = op.check(out_root / op.id, result)
        except Exception as exc:  # a failing operation is counted, not fatal
            digest, problems, size = None, [f"{type(exc).__name__}: {exc}"], 0
        times.append(perf_counter() - start)
        nbytes += size
        gate.record(op, digest, problems)
    wall = perf_counter() - begin
    shutil.rmtree(out_root, ignore_errors=True)
    return wall, times, nbytes


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(ops, work: Path, gate: Gate, seconds: float) -> dict:
    run_pass(ops, work / "warmup", gate)
    walls, op_times, setups = [], [], []
    deadline = perf_counter() + seconds
    while len(walls) < MIN_PASSES or perf_counter() < deadline:
        wall, times, _ = run_pass(ops, work / f"pass{len(walls)}", gate)
        walls.append(wall)
        op_times.append(times)
        setups.append(probe_setup()[0])  # spread over the run, not bunched at its start
    # Each operation's fastest time over the passes: the host's throughput
    # drifts by tens of percent over seconds (NOTES.md), and a pass-level
    # median follows the drift where the per-operation minimum does not.
    best = [min(column) for column in zip(*op_times)]
    print(f"passes: {len(walls)} timed after one warm-up, walls {[round(w, 3) for w in walls]} s; "
          f"operations per pass: {len(best)}; set-up probes: {len(setups)}")
    return {
        "setup_s": _metric(statistics.median(setups), "s"),
        "wall_s": _metric(sum(best), "s"),
        "op_p50_s": _metric(statistics.median(best), "s"),
        "op_p90_s": _metric(statistics.quantiles(best, n=10)[8], "s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }


def per_layer(ops, work: Path, gate: Gate, seed: int, spans_path: Path) -> tuple[dict, bool]:
    import kernels
    import tracing

    load_s = statistics.median(probe_setup()[1] for _ in range(LOAD_PROBES))
    run_pass(ops, work / "warmup", gate)
    untraced, tracers, walls, counts = [], [], [], []
    for k in range(2):  # interleaved, so a drift of the host hits both kinds alike
        untraced.append(run_pass(ops, work / f"untraced{k}", gate)[0])
        tracer = tracing.Tracer()
        with tracer.installed():
            wall, _, nbytes = run_pass(ops, work / f"traced{k}", gate, tracer)
        self_s, calls = tracer.layer_profile()
        tracers.append((tracer, self_s))
        walls.append(wall)
        counts.append({**tracer.counts, "cli.artifact_bytes": nbytes,
                       **{f"{layer}.calls": calls[layer] for layer in tracing.LAYERS}})
    repeat = counts[0] == counts[1]
    if not repeat:
        diff = {k: (counts[0].get(k), counts[1].get(k))
                for k in counts[0].keys() | counts[1].keys() if counts[0].get(k) != counts[1].get(k)}
        print(f"counters differ between traced passes: {diff}", file=sys.stderr)
    tracer, self_s = tracers[0]
    tracer.dump(spans_path)

    count, wall = counts[0], walls[0]
    overhead = statistics.mean(walls) - statistics.mean(untraced)
    metrics = {}
    for layer in tracing.LAYERS:
        metrics[f"{layer}.calls"] = _metric(count[f"{layer}.calls"], "count")
        metrics[f"{layer}.self_share"] = _metric(self_s.get(layer, 0.0) / wall, "1")
        metrics[f"{layer}.failed"] = _metric(gate.failed_by_layer[layer], "count")
    metrics["harness.self_share"] = _metric(1.0 - sum(self_s.values()) / wall, "1")
    metrics["cli.self_s"] = _metric(self_s.get("cli", 0.0), "s")
    metrics["fixtures.load_s"] = _metric(load_s, "s")
    metrics["trace.wall_s"] = _metric(wall, "s")
    metrics["trace.overhead_s"] = _metric(overhead, "s")
    metrics["cli.artifact_bytes"] = _metric(count["cli.artifact_bytes"], "B")
    for key in ("affine.steps", "rigid.steps", "rigid.expm_calls",
                "rigid.torque_calls", "algebra.group_elements",
                "ensembles.points_drawn", "ensembles.points_accepted"):
        metrics[key] = _metric(count.get(key, 0), "count")
    steps = count.get("rigid.steps", 0)
    metrics["algebra.group_elements_per_step"] = _metric(
        count.get("algebra.group_elements", 0) / steps if steps else 0.0, "1")
    drawn = count.get("ensembles.points_drawn", 0)
    metrics["ensembles.acceptance_ratio"] = _metric(
        count.get("ensembles.points_accepted", 0) / drawn if drawn else 0.0, "1")
    for name, (value, unit) in kernels.measure(seed).items():
        metrics[name] = _metric(value, unit)

    share = {layer: metrics[f"{layer}.self_share"]["value"] for layer in tracing.LAYERS}
    top = sorted(share, key=share.get, reverse=True)[:2]
    print("dominant layers: " + ", ".join(f"{layer} {share[layer]:.3f} of wall" for layer in top)
          + f"; tracing overhead {overhead:+.3f} s on {statistics.mean(untraced):.3f} s")
    return metrics, repeat


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    try:
        root = env.bootstrap()
    except env.MissingSources as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; have {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    work = root / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    spans_dir = root / ".perfbench_spans"
    gate = Gate()
    try:
        ops = workloads.build(workloads.WORKLOADS[args.workload](args.seed), work / "scenarios")
        if args.trace:
            spans_dir.mkdir(exist_ok=True)
            metrics, repeat = per_layer(ops, work, gate, args.seed,
                                        spans_dir / f"{args.workload}-seed{args.seed}.jsonl")
        else:
            metrics, repeat = end_to_end(ops, work, gate, args.seconds), True
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    for message in gate.messages[:20]:
        print(f"FAILED {message}", file=sys.stderr)
    print("environment: " + json.dumps(env.facts(), sort_keys=True))
    print(json.dumps({
        "correct": gate.failed == 0 and repeat,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
