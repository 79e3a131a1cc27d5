"""Span tracing around fairtriplet's module-level entry points.

The benchmark never edits the program. It replaces the module attributes the
program looks up at call time (``fairtriplet.harness.mine_semi_hard``,
``fairtriplet.evaluation.impostor_distances``, ...) with wrappers that record
a span and hand back the callee's return value or exception untouched. An
entry point that no longer exists is reported as absent; the run goes on.

Spans live in memory (``Tracer.spans``) and are written out by the caller
when the run ends.
"""
from __future__ import annotations

import functools
import importlib
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable

ROUND = "harness.round"
ROUND_MARKER = "mining.assemble"  # a training round starts at each batch assembly


@dataclass
class Span:
    name: str
    start: float
    end: float | None
    parent: int  # index into Tracer.spans, -1 at top level
    attrs: dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict[str, Any]:
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "attrs": self.attrs}


class Tracer:
    """Nested spans on one thread. Entering ``ROUND_MARKER`` closes the open
    ``harness.round`` span and opens the next one, so every span of a round
    is a descendant of that round; closing a span closes any round still
    open inside it."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._clock = clock

    def enter(self, name: str) -> int:
        now = self._clock()
        if name == ROUND_MARKER:
            if self._stack and self.spans[self._stack[-1]].name == ROUND:
                self.spans[self._stack.pop()].end = now
            self._open(ROUND, now)
        return self._open(name, now)

    def _open(self, name: str, now: float) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, now, None, parent))
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def exit(self, index: int) -> None:
        now = self._clock()
        while self._stack:
            top = self._stack.pop()
            self.spans[top].end = now
            if top == index:
                break


# ---- what each entry point counts -------------------------------------------

def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_triplets(result) -> int:
    """Triplet count for a list of triplet objects or a tuple of index arrays."""
    if isinstance(result, tuple) and result and hasattr(result[0], "__len__"):
        return len(result[0])
    return len(result)


def _mine_counts(args, kwargs, result):
    batch = _arg(args, kwargs, 0, "batch")
    return {"triplets": _count_triplets(result), "slots": 2 * len(batch.pair_indices)}


def _distance_cells(args, kwargs, result):
    return {"cells": len(_arg(args, kwargs, 0, "a")) * len(_arg(args, kwargs, 1, "b"))}


def _checkpoint_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


@dataclass(frozen=True)
class EntryPoint:
    module: str
    attr: str                       # "function" or "Class.method"
    span: str                       # layer.operation
    measure: Callable | None = None  # (args, kwargs, result) -> {count: value}


ENTRY_POINTS = (
    EntryPoint("fairtriplet.harness", "run_training", "harness.run_training"),
    EntryPoint("fairtriplet.harness", "run_eval", "harness.run_eval"),
    EntryPoint("fairtriplet.harness", "generate_dataset", "datagen.generate",
               lambda a, k, r: {"pairs": len(r)}),
    EntryPoint("fairtriplet.harness", "assemble_batch", ROUND_MARKER),
    EntryPoint("fairtriplet.mining", "probabilities", "sampling.probabilities"),
    EntryPoint("fairtriplet.mining", "MiningBatch.embed_with", "mining.embed"),
    EntryPoint("fairtriplet.harness", "mine_semi_hard", "mining.mine", _mine_counts),
    EntryPoint("fairtriplet.mining", "cross_squared_distances", "core.distance",
               _distance_cells),
    EntryPoint("fairtriplet.harness", "schedule_minibatches", "mining.schedule"),
    EntryPoint("fairtriplet.harness", "loss_gradients", "model.loss_grad",
               lambda a, k, r: {"loss": float(r[0])}),
    EntryPoint("fairtriplet.harness", "adam_step", "model.adam"),
    EntryPoint("fairtriplet.harness", "save_checkpoint", "model.checkpoint",
               _checkpoint_bytes),
    EntryPoint("fairtriplet.harness", "_validation_entry", "evaluation.validation"),
    EntryPoint("fairtriplet.harness", "probabilities", "sampling.probabilities"),
    EntryPoint("fairtriplet.harness", "update_dynamic_weights", "sampling.dynamic_update"),
    EntryPoint("fairtriplet.evaluation", "EvalSet.from_dataset", "evaluation.embed",
               lambda a, k, r: {"rows": 2 * len(r)}),
    EntryPoint("fairtriplet.harness", "calibrate_threshold", "evaluation.calibrate"),
    EntryPoint("fairtriplet.evaluation", "impostor_distances",
               "evaluation.impostor_distances", lambda a, k, r: {"values": len(r)}),
    EntryPoint("fairtriplet.evaluation", "cross_squared_distances", "core.distance",
               _distance_cells),
    EntryPoint("fairtriplet.harness", "far_counts", "evaluation.far_counts"),
    EntryPoint("fairtriplet.evaluation", "far_counts", "evaluation.far_counts"),
    EntryPoint("fairtriplet.harness", "far_matrix", "evaluation.far_matrix"),
    EntryPoint("fairtriplet.harness", "default_theta_grid", "evaluation.theta_grid"),
    EntryPoint("fairtriplet.harness", "roc_curve_over_splits", "evaluation.roc"),
    EntryPoint("fairtriplet.harness", "roc_curve", "evaluation.roc"),
    EntryPoint("fairtriplet.harness", "write_far_matrix_csv", "dataio.write"),
    EntryPoint("fairtriplet.harness", "write_roc_csv", "dataio.write"),
)

# The untraced runs still need round boundaries (set-up time, round latency);
# the run_training span closes the last round.
ROUND_CLOCK = tuple(ep for ep in ENTRY_POINTS
                    if ep.span in (ROUND_MARKER, "harness.run_training"))


def _wrap(fn: Callable, ep: EntryPoint, tracer: Tracer) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = tracer.enter(ep.span)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.exit(index)
            tracer.spans[index].attrs["error"] = 1
            raise
        tracer.exit(index)
        if ep.measure is not None:
            try:
                tracer.spans[index].attrs.update(ep.measure(args, kwargs, result))
            except Exception:  # a reshaped signature must not break the program
                tracer.spans[index].attrs["measure_error"] = 1
        return result
    return traced


def _resolve(ep: EntryPoint):
    """(owner object, attribute name, raw attribute) or None when absent."""
    try:
        owner = importlib.import_module(ep.module)
    except ImportError:
        return None
    *path, name = ep.attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    raw = vars(owner).get(name) if isinstance(owner, type) else getattr(owner, name, None)
    if isinstance(raw, (classmethod, staticmethod)) or callable(raw):
        return owner, name, raw
    return None


def absent_entry_points(entry_points=ENTRY_POINTS) -> list[str]:
    return [f"{ep.module}.{ep.attr}" for ep in entry_points if _resolve(ep) is None]


@contextmanager
def traced(tracer: Tracer, entry_points=ENTRY_POINTS):
    """Install wrappers for the entry points that exist (the others are
    skipped) and restore every original attribute on exit."""
    installed = []
    try:
        for ep in entry_points:
            found = _resolve(ep)
            if found is None:
                continue
            owner, name, raw = found
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(_wrap(raw.__func__, ep, tracer))
            else:
                wrapped = _wrap(raw, ep, tracer)
            setattr(owner, name, wrapped)
            installed.append((owner, name, raw))
        yield
    finally:
        for owner, name, raw in reversed(installed):
            setattr(owner, name, raw)
