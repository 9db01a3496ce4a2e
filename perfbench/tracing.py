"""Span tracing from outside the program, for the per-layer metrics.

The benchmark wraps faultlab's public functions at their module bindings:
a function is bound under its own name in every faultlab module that
imports it (``lstm_forward_batch`` lives in ``nncore.layers`` and is bound
again in ``changepoint`` and ``cascade``), so every binding is replaced,
and call sites that look the name up at call time all reach the wrapper.
``SequenceClassifier.infer_series`` is wrapped on the class.

Spans (name, start, end, parent, unit) are kept in flat arrays in memory and
written out once, when the run ends. A unit is one traced piece of the run:
unit 0 is the set-up, units 1.. are timed passes. Work counts are read from
argument shapes at the same boundaries as the spans.
"""

from __future__ import annotations

import functools
import logging
import os
import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

# LSTM roles by (input size, hidden size) at the shapes faultlab really runs.
ROLES = {(1, 16): "ae_enc", (48, 32): "ae_dec", (3, 32): "task_in",
         (5, 32): "task_in", (32, 32): "task_l2"}


class Tracer:
    """Nested spans and counters of one single-threaded run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("q")
        self.parent = array("q")
        self.unit_id = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[tuple[int, str, str], float] = defaultdict(float)
        self.unit = 0
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.unit_id.append(self.unit)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(self.clock())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = self.clock()
        self._stack.pop()

    def count(self, name: str, key: str, value: float) -> None:
        self.counts[(self.unit, name, key)] += value

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "unit": np.frombuffer(self.unit_id, dtype=np.int64),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def summary(self) -> dict[int, dict[str, float]]:
        """Per unit: ``<span>.self_s`` totals and ``<span>.<counter>`` sums."""
        a = self.arrays()
        own = self_times(a["start"], a["end"], a["parent"])
        out: dict[int, dict[str, float]] = defaultdict(dict)
        for (unit, nid), value in _group_sum(a["unit"], a["name_id"], own).items():
            out[unit][f"{self.names[nid]}.self_s"] = value
        for (unit, name, key), value in self.counts.items():
            out[unit][f"{name}.{key}"] = value
        return dict(out)

    def save(self, path: Path, run_id: str) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, run_id=np.array(run_id), names=np.array(self.names),
                            **self.arrays())


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the time its direct children cover.

    Spans of one thread nest properly, so the children of a span never
    overlap and their cover is the sum of their durations.
    """
    dur = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
    parent = np.asarray(parent, dtype=np.int64)
    nested = parent >= 0
    cover = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
    return dur - cover


def _group_sum(unit: np.ndarray, name_id: np.ndarray, values: np.ndarray):
    """Sum of values per (unit, name id)."""
    if len(values) == 0:
        return {}
    width = int(name_id.max()) + 1
    keys, inverse = np.unique(unit * width + name_id, return_inverse=True)
    totals = np.bincount(inverse, weights=values)
    return {(int(k) // width, int(k) % width): float(t) for k, t in zip(keys, totals)}


# --- what gets wrapped -------------------------------------------------------

def _role(p) -> str:
    return ROLES.get((p.input_size, p.hidden_size), f"{p.input_size}x{p.hidden_size}")


def _steps(x) -> int:
    return int(x.shape[0] * x.shape[1])


# (defining module, function, span name or name-of(args), counters-of(args, result))
SPECS = [
    ("faultlab.nncore.layers", "lstm_forward_batch",
     lambda a: f"nncore.lstm_forward.{_role(a[1])}", lambda a, r: {"steps": _steps(a[0])}),
    ("faultlab.nncore.layers", "lstm_backward_batch",
     lambda a: f"nncore.lstm_backward.{_role(a[0].params)}",
     lambda a, r: {"steps": _steps(a[0].x)}),
    ("faultlab.nncore.layers", "sigmoid", "nncore.sigmoid", lambda a, r: {"elems": r.size}),
    ("faultlab.nncore.optim", "adam_step", "nncore.adam_step", None),
    ("faultlab.nncore.training", "train", "nncore.train",
     lambda a, r: {"epochs": r.epochs_run, "stopped_early": int(r.stopped_early)}),
    ("faultlab.nncore.checkpoint", "load_checkpoint", "nncore.checkpoint.load",
     lambda a, r: {"bytes": os.path.getsize(a[0])}),
    ("faultlab.changepoint", "train_autoencoder", "changepoint.train_autoencoder", None),
    ("faultlab.changepoint", "reconstruction_errors", "changepoint.reconstruction_errors",
     lambda a, r: {"windows": len(r)}),
    ("faultlab.changepoint", "flags_to_segments", "changepoint.flags_to_segments",
     lambda a, r: {"segments": len(r)}),
    ("faultlab.segclass", "train_classifier", "segclass.train_classifier",
     lambda a, r: {"rows": len(a[1])}),
    ("faultlab.segclass", "predict_batch", "segclass.predict_batch",
     lambda a, r: {"rows": len(a[1])}),
    ("faultlab.cascade", "train_task2", "cascade.train_task2", None),
    ("faultlab.cascade", "train_task3", "cascade.train_task3", None),
    ("faultlab.cascade", "task2_score", "cascade.task2_score", None),
    ("faultlab.cascade", "warm_start_bias", "cascade.warm_start_bias", None),
    ("faultlab.cascade", "load_models", "cascade.load_models", None),
    ("faultlab.evaluation", "confusion", "evaluation.confusion",
     lambda a, r: {"labels": len(a[0])}),
    ("faultlab.simgen", "generate_dataset", "simgen.generate_dataset",
     lambda a, r: {"rows": len(r)}),
    ("faultlab.simgen", "read_csv", "simgen.read_csv", lambda a, r: {"rows": len(r)}),
    ("faultlab.experiment", "build_assets", "experiment.build_assets", None),
    ("faultlab.experiment", "run_variants", "experiment.run_variants", None),
    ("faultlab.cli", "main", "cli.main", None),
]
# Wrapped on the class rather than on a module binding; a[0] is self.
METHOD_SPECS = [
    ("faultlab.cascade", "SequenceClassifier", "infer_series", "cascade.infer_series",
     lambda a, r: {"steps": len(a[1])}),
]


def _wrap(tracer: Tracer, fn, name, counters):
    name_of = name if callable(name) else (lambda a, _n=name: _n)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = name_of(args)
        idx = tracer.open(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        tracer.count(span, "calls", 1)
        if counters is not None:
            for key, value in counters(args, result).items():
                tracer.count(span, key, value)
        return result

    return wrapper


class _EmptyDenominators(logging.Handler):
    """Counts the evaluation module's empty-denominator warnings."""

    def __init__(self, tracer: Tracer):
        super().__init__()
        self.tracer = tracer

    def emit(self, record):
        if record.msg.startswith("empty denominator"):
            self.tracer.count("evaluation.metrics", "empty_denominators", 1)


@contextmanager
def installed(tracer: Tracer):
    """Wrap every faultlab binding of the traced functions; restore on exit.

    Yields the number of bindings replaced per span name.
    """
    mods = {name: mod for name, mod in sys.modules.items()
            if mod is not None and (name == "faultlab" or name.startswith("faultlab."))}
    wrappers = {}
    for modname, attr, name, counters in SPECS:
        fn = getattr(mods[modname], attr)
        wrappers[id(fn)] = (fn, _wrap(tracer, fn, name, counters), name)
    patched = []
    bindings: dict[str, int] = defaultdict(int)
    for mod in mods.values():
        for attr, value in list(vars(mod).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(mod, attr, hit[1])
                patched.append((mod, attr, value))
                bindings[hit[2] if isinstance(hit[2], str) else attr] += 1
    for modname, cls_name, attr, name, counters in METHOD_SPECS:
        cls = getattr(mods[modname], cls_name)
        fn = cls.__dict__[attr]
        setattr(cls, attr, _wrap(tracer, fn, name, counters))
        patched.append((cls, attr, fn))
        bindings[name] += 1
    log = logging.getLogger("faultlab.evaluation")
    counter = _EmptyDenominators(tracer)
    log.addHandler(counter)
    try:
        yield dict(bindings)
    finally:
        log.removeHandler(counter)
        for owner, attr, value in reversed(patched):
            setattr(owner, attr, value)
