"""Unit tests of the benchmark's own arithmetic, on synthetic spans.

    python3 -m pytest perfbench -q
"""
import json
import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import run  # noqa: E402
import worker  # noqa: E402
from analysis import children_index, covered, layer_metrics, nesting_problems, self_time, tail  # noqa: E402
from checks import check_report, is_count_ratio  # noqa: E402
from tracing import ROUND, EntryPoint, Span, Tracer, absent_entry_points, traced  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 1.0
        return self.t


def test_covered_merges_overlaps_and_clips():
    assert covered([(1, 3), (2, 4), (9, 12)], 0, 10) == 4
    assert covered([], 0, 10) == 0
    assert covered([(5, 6), (0, 1)], 2, 4) == 0


def test_self_time_subtracts_child_coverage():
    spans = [Span("p", 0.0, 10.0, -1), Span("a", 1.0, 3.0, 0), Span("b", 2.0, 4.0, 0),
             Span("grandchild", 2.5, 3.5, 2)]
    kids = children_index(spans)
    assert self_time(spans, kids, 0) == pytest.approx(7.0)
    assert self_time(spans, kids, 2) == pytest.approx(1.0)
    assert self_time(spans, kids, 3) == pytest.approx(1.0)


@pytest.mark.parametrize("n, q, value", [
    (40, 75.0, 30), (99, 75.0, 75), (100, 90.0, 90), (200, 95.0, 190),
    (1000, 99.0, 990), (10000, 99.9, 9990),
])
def test_tail_is_highest_ladder_percentile_with_ten_beyond(n, q, value):
    got_q, got_value, got_n = tail(range(1, n + 1))
    assert (got_q, got_value, got_n) == (q, value, n)
    assert n - got_value >= 10  # samples strictly beyond the reported one


def test_tail_needs_enough_samples():
    assert tail(range(39)) is None
    assert tail([]) is None


def test_tracer_rounds_nest_and_account_for_their_duration():
    tr = Tracer(clock=FakeClock())
    run = tr.enter("harness.run_training")
    for _ in range(2):
        tr.exit(tr.enter("mining.assemble"))
        mine = tr.enter("mining.mine")
        tr.exit(tr.enter("core.distance"))
        tr.exit(mine)
    tr.exit(run)
    rounds = [i for i, s in enumerate(tr.spans) if s.name == ROUND]
    assert len(rounds) == 2
    assert all(tr.spans[r].parent == run for r in rounds)
    assert tr.spans[rounds[0]].end == tr.spans[rounds[1]].start
    assert tr.spans[rounds[1]].end == tr.spans[run].end
    assert all(s.end is not None for s in tr.spans)
    assert nesting_problems(tr.spans) == []
    metrics = layer_metrics(tr.spans, [(tr.spans[run].start, tr.spans[run].end)])
    # each round: 6 ticks = assemble 1 + mine 3 (distance 1 of them) + 2 of glue
    assert metrics["mining.self_ms_p50"] == pytest.approx(2e3)
    assert metrics["harness.round_self_ms_p50"] == pytest.approx(2e3)
    assert metrics["core.distance_calls"] == 2


def test_layer_metrics_leave_unexercised_layers_out():
    spans = [Span("harness.run_eval", 0.0, 4.0, -1),
             Span("evaluation.impostor_distances", 1.0, 2.0, 0, {"values": 10}),
             Span("evaluation.impostor_distances", 2.0, 3.0, 0, {"values": 30})]
    metrics = layer_metrics(spans, [(0.0, 4.0)])
    assert metrics["evaluation.impostor_sorts"] == 2
    assert metrics["evaluation.impostor_values_sorted"] == 40
    assert "mining.mine_ms_p50" not in metrics
    assert "harness.round_self_ms_p50" not in metrics
    assert "core.distance_s" not in metrics


def test_layer_metrics_prefer_operations_and_fall_back_to_setup():
    spans = [Span("harness.run_training", 0.0, 10.0, -1),          # set-up
             Span("mining.mine", 1.0, 3.0, 0),
             Span("evaluation.calibrate", 4.0, 5.0, 0),
             Span("harness.run_eval", 20.0, 30.0, -1),             # the operation
             Span("evaluation.calibrate", 21.0, 24.0, 3)]
    metrics = layer_metrics(spans, [(20.0, 30.0)])
    assert metrics["evaluation.calibrate_ms"] == pytest.approx(3e3)
    assert metrics["mining.mine_ms_p50"] == pytest.approx(2e3)


@pytest.fixture
def fake_module(monkeypatch):
    mod = types.ModuleType("fake_program")

    def add(a, b):
        return a + b

    def boom():
        raise KeyError("boom")

    class Thing:
        @classmethod
        def make(cls, n):
            return [cls] * n

    mod.add, mod.boom, mod.Thing = add, boom, Thing
    monkeypatch.setitem(sys.modules, "fake_program", mod)
    return mod


def test_wrappers_are_transparent_and_restored(fake_module):
    original_add, original_make = fake_module.add, fake_module.Thing.__dict__["make"]
    eps = (EntryPoint("fake_program", "add", "layer.add", lambda a, k, r: {"sum": r}),
           EntryPoint("fake_program", "boom", "layer.boom"),
           EntryPoint("fake_program", "Thing.make", "layer.make"),
           EntryPoint("fake_program", "gone", "layer.gone"),
           EntryPoint("fake_program", "Missing.method", "layer.gone"),
           EntryPoint("no_such_module_anywhere", "f", "layer.gone"))
    tr = Tracer()
    with traced(tr, eps):
        assert fake_module.add(2, b=3) == 5
        with pytest.raises(KeyError, match="boom"):
            fake_module.boom()
        assert fake_module.Thing.make(2) == [fake_module.Thing] * 2
    assert [s.name for s in tr.spans] == ["layer.add", "layer.boom", "layer.make"]
    assert tr.spans[0].attrs == {"sum": 5}
    assert tr.spans[1].attrs == {"error": 1}
    assert fake_module.add is original_add
    assert fake_module.Thing.__dict__["make"] is original_make
    assert absent_entry_points(eps) == [
        "fake_program.gone", "fake_program.Missing.method", "no_such_module_anywhere.f"]


def test_failing_measure_does_not_change_the_result(fake_module):
    ep = EntryPoint("fake_program", "add", "layer.add", lambda a, k, r: {"n": len(r)})
    tr = Tracer()
    with traced(tr, (ep,)):
        assert fake_module.add(1, 1) == 2
    assert tr.spans[0].attrs == {"measure_error": 1}


def test_count_ratio():
    assert is_count_ratio(3 / 89700, 89700)
    assert is_count_ratio(0.0, 10)
    assert not is_count_ratio(3 / 89700 + 1e-12, 89700)
    assert not is_count_ratio(0.5, 3)


def test_units_per_operation():
    assert WORKLOADS["desk-2048"].units() == 10 + 1 + 1
    assert WORKLOADS["paper-10240"].units() == 2 + 1
    assert WORKLOADS["eval-paper"].units() == 1
    assert WORKLOADS["validate-country"].units() == 8 + 8


def test_nesting_problems_flag_broken_trees():
    spans = [Span("round", 0.0, 10.0, -1),
             Span("a", 1.0, 5.0, 0), Span("b", 4.0, 6.0, 0),   # siblings overlap
             Span("late", 9.0, 11.0, 0),                        # ends after its parent
             Span("open", 2.0, None, 1)]
    problems = nesting_problems(spans)
    assert any("1 and 2" in p and "overlap" in p for p in problems)
    assert any("late" in p and "outside" in p for p in problems)
    assert any("open" in p and "not closed" in p for p in problems)
    assert len(problems) == 3


def _report(tmp_path, n_eval, comparisons, genuine):
    path = tmp_path / "report.json"
    path.write_text(json.dumps({
        "overall": {"far": 2 / comparisons, "far_accepted": 2, "far_comparisons": comparisons,
                    "frr": 1 / genuine, "frr_rejected": 1, "genuine_pairs": genuine},
        "group_far": {}, "group_frr": {}, "matrix_files": [],
    }))
    return check_report(path, n_eval, 3)


def test_check_report_checks_counts_against_the_eval_set(tmp_path):
    assert _report(tmp_path, 10, 90, 10) == []
    problems = _report(tmp_path, 10, 80, 9)
    assert any("80 impostor comparisons, not 90" in p for p in problems)
    assert any("9 genuine pairs, not 10" in p for p in problems)


def _emit(tracer, tree):
    for name, attrs, below in tree:
        index = tracer.enter(name)
        _emit(tracer, below)
        tracer.exit(index)
        tracer.spans[index].attrs.update(attrs)


_ROUND = [
    ("mining.assemble", {}, [("sampling.probabilities", {}, [])]),
    ("mining.embed", {}, []),
    ("mining.mine", {"triplets": 3, "slots": 4}, [("core.distance", {"cells": 16}, [])]),
    ("mining.schedule", {}, []),
    ("model.loss_grad", {"loss": 0.5}, []),
    ("model.adam", {}, []),
    ("evaluation.validation", {}, [("evaluation.embed", {"rows": 8}, []),
                                   ("evaluation.impostor_distances", {"values": 12}, [])]),
    ("model.checkpoint", {"bytes": 1000}, []),
]


def test_traced_run_reports_reached_layers_when_entry_points_are_removed(
        monkeypatch, tmp_path):
    from fairtriplet import evaluation, harness

    # what a later change removing the threshold search and the FAR counter leaves
    monkeypatch.delattr(harness, "calibrate_threshold")
    monkeypatch.delattr(harness, "far_counts")
    monkeypatch.delattr(evaluation, "far_counts")
    full = Tracer(clock=FakeClock())
    _emit(full, [("harness.run_training", {}, [("datagen.generate", {"pairs": 100}, []),
                                               *_ROUND, *_ROUND])])
    window = (full.spans[0].start, full.spans[0].end)
    op = {"out": tmp_path, "setup_s": 1.0, "eval_s": None, "rounds_s": [2.0, 2.0],
          "error": None, "problems": []}
    ops = [{**op, "run_s": 5.0, "window": (0.0, 5.0), "traced": False},
           {**op, "run_s": 6.0, "window": window, "traced": True}]
    args = types.SimpleNamespace(seed=1, trace=1)
    result = worker.summarize(WORKLOADS["validate-country"], args, ops, [1.0], full, 100.0)

    assert result["absent_entry_points"] == [
        "fairtriplet.harness.calibrate_threshold", "fairtriplet.harness.far_counts",
        "fairtriplet.evaluation.far_counts"]
    gated = run.benchmark_units()["per_layer"]
    line = run.final_line(result, result["per_layer"], gated, trace=1)
    assert line is not None and line["correct"]
    unreached = {"evaluation.calibrate_ms", "evaluation.far_counts_s",
                 "evaluation.far_counts_calls"}
    assert set(line["metrics"]) == set(gated) - unreached
    assert line["metrics"]["trace.absent_entry_points"]["value"] == 3
    assert line["metrics"]["harness.trace_overhead_frac"]["value"] == pytest.approx(0.2)
    json.dumps(line)

    # the untraced run has no such allowance: a missing end-to-end metric is fatal
    e2e = run.benchmark_units()["end_to_end"]
    assert run.final_line(result, result["end_to_end"], e2e, trace=0) is not None
    assert run.final_line(result, {**result["end_to_end"], "setup_s": None}, e2e,
                          trace=0) is None
