"""Benchmark arithmetic: medians, the tail rule, self time, and the per-layer
metrics computed from recorded spans. Pure Python, so it is tested on
synthetic spans without running the program."""
from __future__ import annotations

import math
import statistics
from collections import defaultdict

from tracing import ROUND, Span

# Tail percentiles tried from the top; the first with >= TAIL_BEYOND samples
# strictly beyond its rank is reported.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)
TAIL_BEYOND = 10


def median(values) -> float | None:
    values = list(values)
    return statistics.median(values) if values else None


def tail(values) -> tuple[float, float, int] | None:
    """(percentile, value, sample count) for the highest ladder percentile
    with at least TAIL_BEYOND samples beyond it; None when there are too few
    samples for any of them. Nearest-rank: the value at rank ceil(q*n/100)."""
    ordered = sorted(values)
    n = len(ordered)
    for q in TAIL_LADDER:
        rank = math.ceil(round(q * n / 100.0, 6))  # 99.9% of 10000 is 9990, not 9991
        if rank >= 1 and n - rank >= TAIL_BEYOND:
            return q, ordered[rank - 1], n
    return None


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def children_index(spans: list[Span]) -> dict[int, list[int]]:
    kids: dict[int, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            kids[s.parent].append(i)
    return kids


def self_time(spans: list[Span], kids, index: int) -> float:
    """A span's duration minus the part of it that its child spans cover."""
    s = spans[index]
    return s.duration - covered(
        ((spans[k].start, spans[k].end) for k in kids.get(index, ())), s.start, s.end
    )


def descendants(kids, index: int):
    todo = list(kids.get(index, ()))
    while todo:
        k = todo.pop()
        yield k
        todo.extend(kids.get(k, ()))


def nesting_problems(spans: list[Span]) -> list[str]:
    """Spans that break the tree self time is computed on: left open, ending
    before they start, reaching outside their parent, or overlapping a
    sibling. When there are none, every round's direct children plus its self
    time add up to the round's duration."""
    problems = []
    kids = children_index(spans)
    for i, s in enumerate(spans):
        if s.end is None or s.end < s.start:
            problems.append(f"span {i} {s.name} is not closed")
            continue
        p = spans[s.parent] if s.parent >= 0 else None
        if p is not None and p.end is not None and not (p.start <= s.start and s.end <= p.end):
            problems.append(f"span {i} {s.name} lies outside its parent {p.name}")
        ordered = sorted((spans[k].start, spans[k].end or math.inf, k) for k in kids.get(i, ()))
        for (_, end, k), (start, _, k2) in zip(ordered, ordered[1:]):
            if start < end:
                problems.append(f"spans {k} and {k2} under {s.name} overlap")
    return problems


# Per-operation totals: metric -> (span name, value of one span).
_PER_OP = {
    "core.distance_s": ("core.distance", lambda s: s.duration),
    "core.distance_calls": ("core.distance", lambda s: 1),
    "core.distance_cells": ("core.distance", lambda s: s.attrs.get("cells", 0)),
    "evaluation.impostor_sorts": ("evaluation.impostor_distances", lambda s: 1),
    "evaluation.impostor_values_sorted": ("evaluation.impostor_distances",
                                          lambda s: s.attrs.get("values", 0)),
    "evaluation.far_counts_s": ("evaluation.far_counts", lambda s: s.duration),
    "evaluation.far_counts_calls": ("evaluation.far_counts", lambda s: 1),
    "evaluation.embed_rows": ("evaluation.embed", lambda s: s.attrs.get("rows", 0)),
    "datagen.generate_s": ("datagen.generate", lambda s: s.duration),
    "datagen.pairs_generated": ("datagen.generate", lambda s: s.attrs.get("pairs", 0)),
}

# Span-duration medians: metric -> (span name, scale to the metric's unit).
_P50 = {
    "mining.assemble_ms_p50": ("mining.assemble", 1e3),
    "mining.embed_ms_p50": ("mining.embed", 1e3),
    "mining.mine_ms_p50": ("mining.mine", 1e3),
    "mining.schedule_ms_p50": ("mining.schedule", 1e3),
    "model.loss_grad_us_p50": ("model.loss_grad", 1e6),
    "model.adam_us_p50": ("model.adam", 1e6),
    "model.checkpoint_ms_p50": ("model.checkpoint", 1e3),
    "sampling.probabilities_ms_p50": ("sampling.probabilities", 1e3),
    "sampling.dynamic_update_us_p50": ("sampling.dynamic_update", 1e6),
    "evaluation.validation_ms_p50": ("evaluation.validation", 1e3),
    "evaluation.calibrate_ms": ("evaluation.calibrate", 1e3),
    "evaluation.far_matrix_ms": ("evaluation.far_matrix", 1e3),
    "evaluation.roc_ms": ("evaluation.roc", 1e3),
    "dataio.write_ms": ("dataio.write", 1e3),
}


def layer_metrics(spans: list[Span], op_windows: list[tuple[float, float]]) -> dict:
    """Per-layer metrics from the spans of one run.

    Span medians use the spans inside the traced operations; a layer those
    never reach (the training layers of an eval-only workload) falls back to
    the run's other spans, i.e. its set-up. A layer with no spans at all gets
    no entry: the caller reports it as not exercised.
    """
    kids = children_index(spans)
    inside: dict[str, list[int]] = defaultdict(list)
    anywhere: dict[str, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        anywhere[s.name].append(i)
        if any(lo <= s.start and s.end <= hi for lo, hi in op_windows):
            inside[s.name].append(i)

    def pick(name) -> list[Span]:
        return [spans[i] for i in inside.get(name) or anywhere.get(name, ())]

    out: dict[str, float] = {}
    for metric, (name, value_of) in _PER_OP.items():
        if inside.get(name):
            out[metric] = median(
                sum(value_of(s) for s in pick(name) if lo <= s.start and s.end <= hi)
                for lo, hi in op_windows)
    for metric, (name, scale) in _P50.items():
        if pick(name):
            out[metric] = median(s.duration * scale for s in pick(name))

    mines = inside.get("mining.mine") or anywhere.get("mining.mine", ())
    if mines:
        out["mining.self_ms_p50"] = median(self_time(spans, kids, i) * 1e3 for i in mines)
        counted = [spans[i].attrs for i in mines if spans[i].attrs.get("slots")]
        if counted:
            out["mining.triplets_per_round"] = median(a["triplets"] for a in counted)
            out["mining.triplet_yield"] = median(a["triplets"] / a["slots"] for a in counted)
    sizes = [s.attrs["bytes"] for s in pick("model.checkpoint") if "bytes" in s.attrs]
    if sizes:
        out["model.checkpoint_bytes"] = median(sizes)
    losses = [s.attrs["loss"] for s in pick("model.loss_grad") if "loss" in s.attrs]
    if losses:
        out["model.zero_loss_step_frac"] = sum(1 for x in losses if x == 0.0) / len(losses)

    rounds = inside.get(ROUND) or anywhere.get(ROUND, ())
    if rounds:
        steps, step_s, validation = [], [], 0.0
        for r in rounds:
            below = [spans[k] for k in descendants(kids, r)]
            steps.append(sum(1 for s in below if s.name == "model.loss_grad"))
            step_s.append(sum(s.duration for s in below
                              if s.name in ("model.loss_grad", "model.adam")))
            validation += sum(spans[k].duration for k in kids.get(r, ())
                              if spans[k].name == "evaluation.validation")
        out["model.steps"] = median(steps)
        out["model.step_s"] = median(step_s)
        out["harness.round_self_ms_p50"] = median(
            self_time(spans, kids, r) * 1e3 for r in rounds)
        out["harness.validation_share"] = validation / sum(spans[r].duration for r in rounds)
    return out
