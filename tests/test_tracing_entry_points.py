"""The benchmark's traced runs wrap program functions by module and name
(perfbench/tracing.py). A refactor that moves or renames one of them would
silently drop its layer from traced runs; this test fails instead. The tracer
keeps one span stack, so the program must call no wrapped function from a
worker thread; the traced eval below fails if it does."""
import json
import math
import threading
from pathlib import Path

from fairtriplet import evaluation, harness, mining
from fairtriplet.config import EvalConfig, ExperimentConfig, SamplerConfig
from fairtriplet.datagen import GeneratorConfig
from fairtriplet.harness import latest_checkpoint, run_eval, run_training
from fairtriplet.model import TrainingConfig

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = str(ROOT / "perfbench")
# Per-layer metrics the benchmark worker adds itself, outside layer_metrics.
WORKER_METRICS = {"harness.trace_overhead_frac", "trace.absent_entry_points",
                  "trace.spans_per_op"}


def test_every_traced_entry_point_exists(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    from tracing import absent_entry_points

    assert absent_entry_points() == []


def test_threaded_far_matrix_keeps_traced_spans_nested(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    from analysis import children_index, descendants, nesting_problems
    from tracing import Tracer, traced

    cfg = ExperimentConfig(
        seed=5,
        output_dir=str(tmp_path / "run"),
        data=GeneratorConfig(n_pairs=1500, input_dim=16),
        training=TrainingConfig(total_steps=3, batch_n=128, minibatch_size=32,
                                hidden_dims=(16,), embed_dim=8),
        sampler=SamplerConfig(variant="natural", axis="country"),
        eval=EvalConfig(target_far=1e-2, n_eval_pairs=300, group_pool_size=40,
                        matrix_axis="country", validation_every=3, roc_points=12),
    )
    run_training(cfg)
    # Two matrix threads whatever the host's cores and BLAS setting.
    monkeypatch.setattr(evaluation, "worker_threads", lambda n: min(n, 2))
    tracer = Tracer()
    with traced(tracer):
        run_eval(cfg, latest_checkpoint(cfg.output_dir))
    spans = tracer.spans
    assert nesting_problems(spans) == []
    matrix = [i for i, s in enumerate(spans) if s.name == "evaluation.far_matrix"]
    assert len(matrix) == 1
    assert list(descendants(children_index(spans), matrix[0])) == []


def test_threaded_tile_passes_keep_traced_spans_nested(tmp_path, monkeypatch):
    # The theta grid's and the two ROC splits' sorted tile passes on two
    # worker threads, which must call no traced function (_tile_distances).
    monkeypatch.syspath_prepend(PERFBENCH)
    from analysis import nesting_problems
    from tracing import Tracer, traced

    cfg = ExperimentConfig(
        seed=5,
        output_dir=str(tmp_path / "run"),
        data=GeneratorConfig(n_pairs=1500, input_dim=16),
        training=TrainingConfig(total_steps=3, batch_n=128, minibatch_size=32,
                                hidden_dims=(16,), embed_dim=8),
        sampler=SamplerConfig(variant="natural", axis="continent"),
        eval=EvalConfig(target_far=1e-2, n_eval_pairs=300, group_pool_size=40,
                        validation_every=3, roc_points=12, n_roc_splits=2),
    )
    run_training(cfg)
    monkeypatch.setattr(evaluation, "worker_threads", lambda n: 2)
    threads = set()
    impostor_tile = evaluation._impostor_tile

    def recording_tile(*args, **kwargs):
        threads.add(threading.get_ident())
        return impostor_tile(*args, **kwargs)

    monkeypatch.setattr(evaluation, "_impostor_tile", recording_tile)
    span_threads = set()

    class ThreadRecordingTracer(Tracer):
        def enter(self, name):
            span_threads.add(threading.get_ident())
            return super().enter(name)

    tracer = ThreadRecordingTracer()
    with traced(tracer):
        run_eval(cfg, latest_checkpoint(cfg.output_dir))
    assert nesting_problems(tracer.spans) == []
    # Spans that do not overlap nest on any thread; so check the threads too.
    assert span_threads == {threading.get_ident()}
    assert len(threads - span_threads) >= 2


def test_threaded_miner_keeps_traced_spans_nested(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    from analysis import children_index, nesting_problems
    from tracing import Tracer, traced

    cfg = ExperimentConfig(
        seed=6,
        output_dir=str(tmp_path / "run"),
        data=GeneratorConfig(n_pairs=1500, input_dim=16),
        training=TrainingConfig(total_steps=2, batch_n=300, minibatch_size=64,
                                hidden_dims=(16,), embed_dim=8),
        sampler=SamplerConfig(variant="natural", axis="continent"),
        eval=EvalConfig(target_far=1e-2, n_eval_pairs=300, group_pool_size=40,
                        validation_every=2, roc_points=12),
    )
    # Two mining threads whatever the batch size, host cores and BLAS setting.
    monkeypatch.setattr(mining, "worker_threads", lambda n: 2)
    tracer = Tracer()
    with traced(tracer):
        harness.run_training(cfg)  # the wrapped entry point, which closes the last round
    spans = tracer.spans
    assert nesting_problems(spans) == []
    kids = children_index(spans)
    mines = [i for i, s in enumerate(spans) if s.name == "mining.mine"]
    assert len(mines) == 2
    for i in mines:
        # The three 128 x 128 genuine-distance blocks, all on the calling thread.
        assert [spans[k].name for k in kids.get(i, ())] == ["core.distance"] * 3


def test_traced_training_run_reports_every_declared_layer_metric(tmp_path, monkeypatch):
    """A traced run that validates reaches every layer the benchmark declares
    (the training workloads reach the evaluation layers only through their
    validations), and its metrics are finite, so the worker's result line is
    strict JSON."""
    monkeypatch.syspath_prepend(PERFBENCH)
    from analysis import layer_metrics
    from tracing import Tracer, traced

    cfg = ExperimentConfig(
        seed=7,
        output_dir=str(tmp_path / "run"),
        data=GeneratorConfig(n_pairs=1500, input_dim=16),
        training=TrainingConfig(total_steps=2, batch_n=128, minibatch_size=32,
                                hidden_dims=(16,), embed_dim=8),
        sampler=SamplerConfig(variant="natural", axis="continent"),
        eval=EvalConfig(target_far=1e-2, n_eval_pairs=300, group_pool_size=40,
                        validation_every=2, roc_points=12),
    )
    tracer = Tracer()
    with traced(tracer):
        harness.run_training(cfg)
    [run] = [s for s in tracer.spans if s.name == "harness.run_training"]
    metrics = layer_metrics(tracer.spans, [(run.start, run.end)])
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    names = {m["name"] for m in declared} - WORKER_METRICS
    assert sorted(names - set(metrics)) == []
    assert [m for m in sorted(names) if not math.isfinite(metrics[m])] == []
    json.dumps(metrics, allow_nan=False)
