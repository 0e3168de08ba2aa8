"""In-memory span tracer for the benchmark's traced run.

The tracer wraps the public functions of each ``dickesim`` module from the
outside; no program file changes.  A wrapped call records one span (name,
start, end, parent span, operation) and, where a work count exists, adds
the count it derives from the call's arguments and result.  A class is only
counted (see COUNTED_ONLY).  Spans stay in
flat arrays until ``save`` writes them out at the end of the run.

A layer's self time is its span's duration minus the time its child spans
cover.  Calls nest strictly (one thread, one operation at a time), so the
children of a span never overlap and their durations can simply be summed.
"""
from __future__ import annotations

import functools
import json
import math
import statistics
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

# Span name -> per-layer metrics it yields.  "calls" and "self_s" come from
# the spans; every other kind is a work count (see COUNTS).
LAYERS = {
    "core.apply_field": ("calls", "self_s", "amps", "bytes"),
    "core.StateVector": ("calls", "amps"),
    "correlations.g_m_pathsum": ("calls", "self_s", "paths"),
    "correlations.g_m_exact": ("self_s",),
    "correlations.g_m_closed_coincident": ("self_s",),
    "correlations.scan_curve": ("self_s",),
    "correlations.summarize": ("self_s",),
    "functional.build_functional": ("calls", "self_s", "terms"),
    "functional.extract_gm": ("calls", "self_s"),
    "cli.run_scan": ("self_s",),
}

UNITS = {
    "calls": "count",
    "self_s": "s",
    "amps": "count",
    "bytes": "B",
    "paths": "count",
    "terms": "count",
}

# Metrics measured outside the spans, by the runner.
RUNNER_METRICS = {"cli.output_bytes": "B", "trace.overhead_s": "s"}

# Work counts that are a model of the work, not a measurement of it.
COMPUTED = ("amps", "bytes")

# Counts that must repeat exactly from one operation to the next: they depend
# on the workload's sizes, never on its angles.  cli.output_bytes depends on
# how many digits each float prints.
EXACT_KINDS = ("calls", "amps", "bytes", "paths", "terms")

# Classes are counted, not timed: a span would move their time out of the
# self time of the function that builds them (apply_field builds one
# StateVector per call, and its copy is part of apply_field's cost).
COUNTED_ONLY = ("core.StateVector",)

def per_layer_metrics() -> dict[str, str]:
    """Every per-layer metric name of the traced run, with its unit."""
    out = {
        f"{span}.{kind}": UNITS[kind] for span, kinds in LAYERS.items() for kind in kinds
    }
    out.update(RUNNER_METRICS)
    return out


def _apply_field_work(work, args, kwargs, result):
    # The engine reads one 2^N vector and writes another: 16 B per amplitude each.
    amps = 1 << result.n_emitters
    work["core.apply_field.amps"] += amps
    work["core.apply_field.bytes"] += 2 * 16 * amps


def _state_vector_work(work, args, kwargs, result):
    work["core.StateVector.calls"] += 1
    work["core.StateVector.amps"] += 1 << args[0].n_emitters


def _pathsum_work(work, args, kwargs, result):
    geometry = args[0] if args else kwargs["geometry"]
    detectors = args[1] if len(args) > 1 else kwargs["detectors"]
    n, m = geometry.n_emitters, len(detectors)
    work["correlations.g_m_pathsum.paths"] += math.comb(n, m) * math.factorial(m)


def _functional_work(work, args, kwargs, result):
    work["functional.build_functional.terms"] += len(result.terms)


COUNTS = {
    "core.apply_field": _apply_field_work,
    "core.StateVector": _state_vector_work,
    "correlations.g_m_pathsum": _pathsum_work,
    "functional.build_functional": _functional_work,
}


class Tracer:
    """Records spans and work counts while installed; see the module docstring."""

    def __init__(self):
        self.names: list[str] = ["op"]  # the root span of each operation
        self.name_id = array("i")
        self.parent = array("q")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work: list[dict[str, float]] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers: dict[str, object] = {}

    # -- recording -----------------------------------------------------

    def _open(self, name_id: int) -> int:
        index = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(len(self.work) - 1)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._stack.pop()

    def begin_op(self) -> None:
        """Start a new operation and open its root span."""
        self.work.append(defaultdict(int))
        self._open(0)

    def end_op(self) -> None:
        self._close(self._stack[0])
        self._stack.clear()

    # -- installing ----------------------------------------------------

    def install(self) -> None:
        """Rebind every listed function wherever a dickesim module holds it.

        Modules that did ``from .core import apply_field`` hold their own
        reference, so each one is rebound, not only the defining module.  A
        class (StateVector) is counted through its ``__post_init__``.
        """
        modules = [
            mod for name, mod in sys.modules.items()
            if name == "dickesim" or name.startswith("dickesim.")
        ]
        for span in LAYERS:
            module_name, attr = span.rsplit(".", 1)
            target = getattr(sys.modules[f"dickesim.{module_name}"], attr)
            if isinstance(target, type):
                original = target.__dict__["__post_init__"]
                self._patch(target, "__post_init__", self._wrapper(span, original))
                continue
            traced = self._wrapper(span, target)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is target:
                        self._patch(mod, key, traced)

    def _wrapper(self, span: str, fn):
        """The traced stand-in for ``fn``, made once per span name."""
        if span in self._wrappers:
            return self._wrappers[span]
        name_id = len(self.names)
        self.names.append(span)
        count = COUNTS.get(span)

        if span in COUNTED_ONLY:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                count(self.work[-1], args, kwargs, result)
                return result

            self._wrappers[span] = counted
            return counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if count is not None:
                count(self.work[-1], args, kwargs, result)
            return result

        self._wrappers[span] = traced
        return traced

    def _patch(self, owner, key, value) -> None:
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    # -- results -------------------------------------------------------

    def op_metrics(self) -> list[dict[str, float]]:
        """Per-layer span metrics and work counts of each recorded operation."""
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        op = np.frombuffer(self.op, dtype=np.int32)
        duration = np.frombuffer(self.end) - np.frombuffer(self.start)
        has_parent = parent >= 0
        covered = np.bincount(
            parent[has_parent], weights=duration[has_parent], minlength=duration.size
        )
        self_time = duration - covered
        per_op = []
        for k, work in enumerate(self.work):
            mine = op == k
            ids = name_id[mine]
            measured = {
                "calls": np.bincount(ids, minlength=len(self.names)),
                "self_s": np.bincount(ids, weights=self_time[mine], minlength=len(self.names)),
            }
            values = {}
            for span, kinds in LAYERS.items():
                i = self.names.index(span)
                for kind in kinds:
                    name = f"{span}.{kind}"
                    timed = kind in measured and span not in COUNTED_ONLY
                    values[name] = measured[kind][i].item() if timed else work[name]
            per_op.append(values)
        return per_op

    def save(self, path, meta: dict) -> None:
        """Write every span, the span names and ``meta`` to an .npz file."""
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            op=np.frombuffer(self.op, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            meta=np.array(json.dumps(meta, sort_keys=True)),
        )


def summarize_ops(per_op: list[dict[str, float]]) -> tuple[dict[str, float], list[str]]:
    """Median of each metric over the traced operations, and the exact counts
    that did not repeat from one operation to the next."""
    names = per_op[0].keys()
    medians = {name: statistics.median(op[name] for op in per_op) for name in names}
    unsteady = [
        name for name in names
        if name.rsplit(".", 1)[1] in EXACT_KINDS
        and len({op[name] for op in per_op}) > 1
    ]
    return medians, unsteady
