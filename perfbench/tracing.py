"""Spans and exact counters around phasecraft's public entry points.

Nothing under ``src/`` is changed: ``Tracer.installed()`` swaps module and
class attributes for recording wrappers and restores them on exit.  A span
is ``(name, layer, start, end, parent, op)``; the parent is the index of the
enclosing span (-1 at the top of an operation) and ``op`` the operation id
the benchmark set before calling in.  A layer's self time is its spans'
time minus the time of their direct child spans.  Inside ``Tracer.paused()``
(the benchmark's own checks) the wrappers record nothing.
"""

from __future__ import annotations

import contextlib
import functools
import json
from collections import Counter, defaultdict
from time import perf_counter

import scipy.linalg

from phasecraft import affine, algebra, cli, ensembles, fixtures, forms, rigid, wigner

LAYERS = ("cli", "fixtures", "algebra", "forms", "rigid", "affine", "ensembles", "wigner")


def _steps_arg(args, kwargs, _result):
    return {"affine.steps": args[4] if len(args) > 4 else kwargs["steps"]}


def _points_drawn(_args, _kwargs, result):
    return {"ensembles.points_drawn": len(result)}


def _points_accepted(_args, _kwargs, result):
    return {"ensembles.points_accepted": sum(len(b) for b in result)}


def _one(key):
    return lambda _args, _kwargs, _result: {key: 1}


# (owner, attribute, layer, counter hook or None)
_ENTRY_POINTS = [
    (cli, "run", "cli", None),
    (fixtures, "fixture", "fixtures", None),
    (cli, "fixture", "fixtures", None),
    (rigid, "fixture", "fixtures", None),
    (algebra, "adjoint_matrix", "algebra", None),
    (rigid, "adjoint_matrix", "algebra", None),
    (algebra, "algebra_from_json", "algebra", None),
    (cli, "algebra_from_json", "algebra", None),
    (forms, "cocycle_space", "forms", None),
    (forms, "coboundary_space", "forms", None),
    (forms, "cohomology_dim", "forms", None),
    (forms, "coboundary_matrix", "forms", None),
    (forms, "radical", "forms", None),
    (rigid, "so3_model", "rigid", None),
    (rigid, "integrate", "rigid", None),
    (rigid, "step", "rigid", _one("rigid.steps")),
    (rigid, "torque_from_potential", "rigid", _one("rigid.torque_calls")),
    (rigid, "conservation_report", "rigid", None),
    (scipy.linalg, "expm", "rigid", _one("rigid.expm_calls")),
    (affine, "lattice_dynamics", "affine", _steps_arg),
    (affine, "lattice_hamiltonian", "affine", None),
    (ensembles, "shell_probability", "ensembles", None),
    (ensembles, "shell_samples", "ensembles", _points_accepted),
    (ensembles, "_batch_points", "ensembles", _points_drawn),  # reached through module globals
    (ensembles, "invariance_check", "ensembles", None),
    (ensembles, "liouville_volume", "ensembles", None),
    (ensembles, "entropy_continuous", "ensembles", None),
    (wigner, "ho_ground", "wigner", None),
    (wigner, "ho_excited", "wigner", None),
    (wigner, "gaussian_packet", "wigner", None),
    (wigner, "cat_state", "wigner", None),
    (wigner, "wigner_transform", "wigner", None),
    (wigner, "marginals", "wigner", None),
    (wigner, "star_product", "wigner", None),
    (wigner, "phase_grid_constant", "wigner", None),
    (wigner.GridWavefunction, "normalized", "wigner", None),
    (wigner.GridWavefunction, "fourier", "wigner", None),
]

# Counted but not timed: a span per construction would cost more than the
# construction itself.
_COUNTED_ONLY = [(algebra.GroupElement, "__post_init__", "algebra.group_elements")]


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.op = None
        self._stack: list[int] = []
        self._paused = False

    def _span(self, name, layer, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._paused:
                return fn(*args, **kwargs)
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append(None)
            tracer._stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer._stack.pop()
                tracer.spans[idx] = (name, layer, start, end, parent, tracer.op)
            if hook is not None:
                tracer.counts.update(hook(args, kwargs, result))
            return result

        return wrapper

    def _counter(self, key, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer._paused:
                tracer.counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for owner, attr, layer, hook in _ENTRY_POINTS:
                orig = getattr(owner, attr)
                saved.append((owner, attr, orig))
                name = f"{getattr(owner, '__name__', '')}.{attr}".removeprefix("phasecraft.")
                setattr(owner, attr, self._span(name, layer, orig, hook))
            for owner, attr, key in _COUNTED_ONLY:
                orig = getattr(owner, attr)
                saved.append((owner, attr, orig))
                setattr(owner, attr, self._counter(key, orig))
            yield self
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)

    @contextlib.contextmanager
    def paused(self):
        """Leave the calls made inside out of the spans and counters."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def layer_profile(self):
        """Per-layer (self seconds, calls) over the recorded spans."""
        child = [0.0] * len(self.spans)
        for _name, _layer, start, end, parent, _op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict = defaultdict(float)
        calls: Counter = Counter()
        for i, (_name, layer, start, end, _parent, _op) in enumerate(self.spans):
            self_s[layer] += (end - start) - child[i]
            calls[layer] += 1
        return self_s, calls

    def dump(self, path) -> None:
        """Write the spans as JSON lines: name, layer, start, end, parent, op."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
