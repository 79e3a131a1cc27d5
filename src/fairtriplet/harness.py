"""Experiment orchestration: the train loop wiring sampler -> miner ->
optimizer, periodic validation feeding the dynamic scheduler, checkpointing
with exact resume, and report generation.

All randomness flows from the experiment seed, split into named streams
(data generation, batch sampling, mining, weight init, ROC splits), so
changing one consumer never perturbs the others. Every output file except
``timings.json`` is a pure function of config + seed, byte for byte.
"""
from __future__ import annotations

import ctypes
import json
import math
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .config import ExperimentConfig
from .core import ConfigError, Dataset, atomic_file, axis_groups
from .datagen import generate_dataset
from .dataio import (
    load_dataset,
    write_embeddings_csv,
    write_far_matrix_csv,
    write_roc_csv,
    write_summary_csv,
)
from .evaluation import (
    EvalSet,
    calibrate_threshold,
    default_theta_grid,
    far_counts,
    far_matrix,
    frr_counts,
    gender_pools,
    per_group_far,
    per_group_frr,
    roc_curve,
    roc_curve_over_splits,
)
from .mining import assemble_batch, mine_semi_hard, schedule_minibatches
from .model import (
    EmbeddingNetwork,
    OptimizerState,
    TrainingConfig,
    adam_step,
    load_checkpoint,
    loss_gradients,
    save_checkpoint,
)
from .sampling import (
    SamplerSpec,
    absent_groups,
    probabilities,
    update_dynamic_weights,
)

METRICS_FILE = "metrics.json"
TIMINGS_FILE = "timings.json"
REPORT_FILE = "report.json"

# glibc mallopt parameters and the values this module pins them to.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_HEAP_MMAP_THRESHOLD = 2 << 20
_HEAP_TRIM_THRESHOLD = 4 << 20


def _pin_heap_thresholds() -> None:
    """Serve every C-heap block of 2 MiB or more from its own mapping, which
    goes back to the OS when freed, and trim the heap top beyond 4 MiB.

    glibc otherwise raises both thresholds each time it frees a larger
    mapped block, up to 32 and 64 MiB. The miner's round buffers (10.5 MB
    per thread at N=10240) are then carved out of a heap whose resident free
    space depends on where earlier, unrelated blocks landed: a paper-scale
    run's peak RSS moved by 10 to 20 MB with nothing but the length of its
    output path. Pinned, the peak is the live arrays plus at most the trim
    margin. Does nothing where the C library has no ``mallopt``.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(_M_MMAP_THRESHOLD, _HEAP_MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, _HEAP_TRIM_THRESHOLD)


_pin_heap_thresholds()

_STREAMS = {
    "datagen-train": 0,
    "datagen-val": 1,
    "datagen-val-pools": 2,
    "datagen-eval": 3,
    "datagen-eval-pools": 4,
    "sampler": 5,
    "miner": 6,
    "init": 7,
    "roc": 8,
    "geometry": 9,
}


def stream_seed(cfg: ExperimentConfig, name: str, extra: int = 0) -> int:
    """Derived integer seed for a named randomness stream."""
    ss = np.random.SeedSequence([cfg.seed, _STREAMS[name], cfg.data.seed, extra])
    return int(ss.generate_state(1)[0])


def stream_rng(cfg: ExperimentConfig, name: str, extra: int = 0) -> np.random.Generator:
    return np.random.default_rng(stream_seed(cfg, name, extra))


def checkpoint_name(step: int) -> str:
    return str(Path("checkpoints", f"ckpt_{step:06d}.npz"))


@dataclass
class RunRecord:
    """Append-only account of one training run."""

    config_hash: str
    epochs: list[dict] = field(default_factory=list)
    final_step: int = 0

    @property
    def checkpoints(self) -> list[str]:
        """Each validation epoch, and only those, leaves a checkpoint."""
        return [checkpoint_name(e["step"]) for e in self.epochs]

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "config_hash": self.config_hash,
            "final_step": self.final_step,
            "checkpoints": self.checkpoints,
            "epochs": self.epochs,
        }


def _dump_json(path: Path, obj: dict) -> None:
    with atomic_file(path, "w") as f:
        json.dump(obj, f, sort_keys=True, indent=2)
        f.write("\n")


def _shared_geometry_seed(cfg: ExperimentConfig) -> int:
    """All of a run's datasets share one latent population; only identity and
    noise draws differ between train, validation, and evaluation sets."""
    return stream_seed(cfg, "geometry")


def _training_dataset(cfg: ExperimentConfig) -> Dataset:
    if cfg.data_path is not None:
        ds = load_dataset(cfg.data_path)
        if ds.input_dim != cfg.data.input_dim:
            raise ConfigError(
                f"dataset file input_dim {ds.input_dim} != configured {cfg.data.input_dim}"
            )
        return ds
    return generate_dataset(cfg.data.with_(
        seed=stream_seed(cfg, "datagen-train"),
        geometry_seed=_shared_geometry_seed(cfg),
    ))


def _natural_dataset(cfg: ExperimentConfig, stream: str, n_pairs: int) -> Dataset:
    return generate_dataset(cfg.data.with_(
        seed=stream_seed(cfg, stream),
        geometry_seed=_shared_geometry_seed(cfg),
        n_pairs=n_pairs,
        duplicate_rate=0.0,
    ))


def _group_pool_datasets(cfg: ExperimentConfig, axis: str, stream: str,
                         pool_size: int) -> dict[str, Dataset]:
    """One dataset of exactly pool_size pairs per group on the axis."""
    groups = axis_groups(axis)
    pools = {}
    for k, g in enumerate(groups):
        pools[g] = generate_dataset(
            cfg.data.with_(
                seed=stream_seed(cfg, stream, extra=k + 1),
                geometry_seed=_shared_geometry_seed(cfg),
                n_pairs=pool_size,
                composition={g: 1.0},
                duplicate_rate=0.0,
            )
        )
    return pools


def _rng_from_state(state: dict) -> np.random.Generator:
    rng = np.random.default_rng(0)
    rng.bit_generator.state = state
    return rng


def run_training(cfg: ExperimentConfig, stop_after: int | None = None,
                 resume_from: str | Path | None = None) -> RunRecord:
    """Train per the config; returns the RunRecord and writes metrics files.

    ``stop_after`` interrupts the run after that round (checkpointing first);
    ``resume_from`` continues from a checkpoint of the identical config and
    reproduces the uninterrupted run exactly.
    """
    cfg.validate()
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    tcfg = cfg.training
    full_hash = cfg.config_hash()

    train_ds = _training_dataset(cfg)
    sampler = cfg.sampler.build()
    absent = absent_groups(sampler, train_ds)
    if absent:
        raise ConfigError(f"sampler weights groups absent from the training set: {absent}")
    val_ds = _natural_dataset(cfg, "datagen-val", cfg.eval.n_eval_pairs)
    val_pool_ds = _group_pool_datasets(
        cfg, cfg.sampler.axis, "datagen-val-pools", cfg.eval.group_pool_size
    )
    far_floor = cfg.eval.resolved_far_floor()
    mb_per_round = math.ceil(2 * tcfg.batch_n / tcfg.minibatch_size)

    if resume_from is not None:
        net, opt, start_step, _, state = load_checkpoint(resume_from, full_hash)
        missing = [key for key in ("rng_sampler", "rng_miner", "epochs", "loss_buffer")
                   if key not in state]
        if missing:
            raise ConfigError(f"{resume_from}: checkpoint run state lacks {missing}")
        rng_sampler = _rng_from_state(state["rng_sampler"])
        rng_miner = _rng_from_state(state["rng_miner"])
        epochs: list[dict] = state["epochs"]
        loss_buffer: list[float] = state["loss_buffer"]
    else:
        # A longer run into this directory may have left later checkpoints,
        # which latest_checkpoint would pick over this run's.
        for stale in out.glob("checkpoints/ckpt_*.npz"):
            stale.unlink()
        net = EmbeddingNetwork.create(
            train_ds.input_dim, tcfg.hidden_dims, tcfg.embed_dim,
            tcfg.activation, stream_rng(cfg, "init"),
        )
        opt = OptimizerState.for_network(
            net, tcfg.lr_init, tcfg.lr_final,
            decay_steps=tcfg.total_steps * mb_per_round,
        )
        start_step = 0
        rng_sampler = stream_rng(cfg, "sampler")
        rng_miner = stream_rng(cfg, "miner")
        epochs = []
        loss_buffer = []
    record = RunRecord(config_hash=full_hash, epochs=epochs, final_step=start_step)
    # The last validation's update is the dynamic sampler's current weights.
    if sampler.variant == "dynamic" and epochs:
        sampler = replace(sampler, weights=epochs[-1]["dynamic_weights"])

    def save_state(step: int) -> None:
        save_checkpoint(
            out / checkpoint_name(step), net, opt, step, full_hash,
            run_state={
                "model_hash": cfg.model_hash(),
                "rng_sampler": rng_sampler.bit_generator.state,
                "rng_miner": rng_miner.bit_generator.state,
                "epochs": record.epochs,
                "loss_buffer": loss_buffer,
            },
        )

    t_start = time.perf_counter()
    step = start_step
    try:
        for step in range(start_step + 1, tcfg.total_steps + 1):
            loss_buffer.append(
                _train_round(step, train_ds, sampler, net, opt, tcfg, rng_sampler, rng_miner))

            at_validation = (
                step % cfg.eval.validation_every == 0 or step == tcfg.total_steps
            )
            if at_validation:
                entry = _validation_entry(
                    cfg, net, sampler, step, train_ds, val_ds, val_pool_ds, loss_buffer
                )
                loss_buffer = []
                if sampler.variant == "dynamic":
                    entry["dynamic_weights_prev"] = sampler.weights
                    entry["dynamic_weights"] = update_dynamic_weights(
                        sampler.weights, entry["group_far"], cfg.sampler.lam,
                        cfg.sampler.alpha_smooth, far_floor,
                    )
                    sampler = replace(sampler, weights=entry["dynamic_weights"])
                record.epochs.append(entry)
                save_state(step)
            if stop_after is not None and step >= stop_after:
                if not at_validation:
                    save_state(step)
                break
    except Exception as e:
        record.final_step = step
        failure = record.to_dict()
        failure["failed_at_step"] = step
        failure["error"] = f"{type(e).__name__}: {e}"
        _dump_json(out / METRICS_FILE, failure)
        raise

    record.final_step = step
    _dump_json(out / METRICS_FILE, record.to_dict())
    _dump_json(out / TIMINGS_FILE, {
        "total_seconds": time.perf_counter() - t_start,
        "steps": step - start_step,
    })
    return record


def _train_round(step: int, train_ds: Dataset, sampler: SamplerSpec, net: EmbeddingNetwork,
                 opt: OptimizerState, tcfg: TrainingConfig, rng_sampler: np.random.Generator,
                 rng_miner: np.random.Generator) -> float:
    """Round ``step``: assemble and embed a selection batch, mine its
    triplets, schedule them and take one Adam step per minibatch. Returns
    the mean minibatch loss (0.0 for a round without triplets). A non-finite
    loss or gradient raises ``FloatingPointError`` before its Adam step, so
    the parameters and moments keep their last finite values. The round's
    arrays die when it returns, before the next round's mining, its peak."""
    batch = assemble_batch(train_ds, sampler, tcfg.batch_n, rng_sampler).embed_with(net)
    triplets = mine_semi_hard(batch, tcfg.margin, rng_miner)
    minibatches = schedule_minibatches(triplets, tcfg.minibatch_size, rng_miner)
    losses = []
    for k, mb in enumerate(minibatches):
        loss, grads = loss_gradients(net, batch.features, mb, tcfg.margin)
        if not (np.isfinite(loss) and np.isfinite(grads).all()):
            raise FloatingPointError(
                f"non-finite loss or gradient in round {step}, minibatch {k}")
        adam_step(opt, net, grads)
        losses.append(loss)
    return float(np.mean(losses)) if losses else 0.0


def _validation_entry(cfg: ExperimentConfig, net: EmbeddingNetwork,
                      sampler: SamplerSpec, step: int, train_ds: Dataset,
                      val_ds: Dataset, val_pool_ds: dict[str, Dataset],
                      loss_buffer: list[float]) -> dict:
    _, theta, overall, pools = _measure(net, val_ds, val_pool_ds, cfg.eval.target_far)
    return {
        "step": step,
        "mean_loss": float(np.mean(loss_buffer)) if loss_buffer else None,
        "theta": theta,
        "overall_far": overall["far"],
        "overall_frr": overall["frr"],
        "group_far": per_group_far(pools, theta),
        "group_frr": per_group_frr(pools, theta),
        "sampling_probabilities": probabilities(sampler, train_ds),
    }


def _measure(net: EmbeddingNetwork, ds: Dataset, pool_ds: dict[str, Dataset],
             target_far: float):
    """The steps validation and eval share: embed ``ds``, calibrate theta on
    it at ``target_far``, count its overall FAR and FRR at theta, and embed
    the group pools. Returns (eval set, theta, overall counts, pools)."""
    es = EvalSet.from_dataset(net, ds)
    theta = calibrate_threshold(es, target_far)
    accepted, comparisons = far_counts(
        es.selfie_emb, es.identity_ids, es.doc_emb, es.identity_ids, theta,
    )
    rejected, genuine = frr_counts(es, theta)
    overall = {"far": accepted / comparisons, "far_accepted": accepted,
               "far_comparisons": comparisons, "frr": rejected / genuine,
               "frr_rejected": rejected, "genuine_pairs": genuine}
    pools = {g: EvalSet.from_dataset(net, d) for g, d in pool_ds.items()}
    return es, theta, overall, pools


def latest_checkpoint(run_dir: str | Path) -> Path:
    """The checkpoint of the largest step under ``run_dir``, by the step its
    name carries: names are padded to six digits, so from step 10^6 on they
    no longer sort by step."""
    steps = {int(p.stem.removeprefix("ckpt_")): p
             for p in Path(run_dir).glob("checkpoints/ckpt_*.npz")
             if p.stem.removeprefix("ckpt_").isdigit()}
    if not steps:
        raise ConfigError(f"no checkpoints under {run_dir}")
    return steps[max(steps)]


def run_eval(cfg: ExperimentConfig, checkpoint: str | Path,
             out_dir: str | Path | None = None) -> dict:
    """Evaluate a checkpoint on freshly derived evaluation data and write the
    JSON/CSV report files. Returns the report dict."""
    cfg.validate()
    net, _, step, _, state = load_checkpoint(checkpoint)
    if state.get("model_hash") != cfg.model_hash():
        raise ConfigError(
            "checkpoint was trained under a different seed, data, training or sampler "
            "config, or, for a dynamic sampler, different validation settings"
        )
    out = Path(out_dir) if out_dir is not None else Path(cfg.output_dir) / "eval"
    out.mkdir(parents=True, exist_ok=True)

    eval_ds = _natural_dataset(cfg, "datagen-eval", cfg.eval.n_eval_pairs)
    pool_ds = _group_pool_datasets(
        cfg, cfg.eval.matrix_axis, "datagen-eval-pools", cfg.eval.group_pool_size
    )
    es, theta, overall, pools = _measure(net, eval_ds, pool_ds, cfg.eval.target_far)
    matrix = far_matrix(pools, theta)
    # The diagonal cells are the within-group counts per_group_far would redo.
    g_far = dict(zip(matrix.groups, np.diagonal(matrix.values).tolist()))
    g_frr = per_group_frr(pools, theta)
    genders = per_group_far(gender_pools(es), theta)

    grid = default_theta_grid(es, cfg.eval.roc_points)
    if cfg.eval.n_roc_splits > 1:
        curve = roc_curve_over_splits(
            es, grid, cfg.eval.n_roc_splits, cfg.eval.split_fraction,
            stream_rng(cfg, "roc"),
        )
    else:
        curve = roc_curve(es, grid)

    # The checkpoint's own validation epochs, up to its step.
    trajectory = None if "epochs" not in state else [
        {k: e[k] for k in ("step", "sampling_probabilities", "dynamic_weights",
                           "dynamic_weights_prev", "group_far") if k in e}
        for e in state["epochs"]
    ]

    matrix_file = f"far_matrix_{cfg.eval.matrix_axis}.csv"
    write_far_matrix_csv(out / matrix_file, matrix, cfg.config_hash())
    write_roc_csv(out / "roc.csv", curve, cfg.config_hash())

    report = {
        "schema_version": 1,
        "config_hash": cfg.config_hash(),
        "model_hash": cfg.model_hash(),
        "checkpoint_step": step,
        "target_far": cfg.eval.target_far,
        "theta": theta,
        "overall": overall,
        "group_far": g_far,
        "group_frr": g_frr,
        "gender_far": genders,
        "sampler_variant": cfg.sampler.variant,
        "sampler_axis": cfg.sampler.axis,
        "weight_trajectory": trajectory,
        "matrix_files": [matrix_file],
        "roc_file": "roc.csv",
    }
    _dump_json(out / REPORT_FILE, report)
    return report


def export_embeddings(checkpoint: str | Path, dataset: Dataset,
                      out_path: str | Path) -> int:
    """Embed a dataset with a checkpointed network and write the CSV export."""
    net, _, _, _, _ = load_checkpoint(checkpoint)
    if net.input_dim != dataset.input_dim:
        raise ConfigError(
            f"checkpoint expects input_dim {net.input_dim}, dataset has {dataset.input_dim}"
        )
    return write_embeddings_csv(out_path, net, dataset)


def aggregate_reports(run_dirs: list[str | Path]) -> list[dict]:
    """Plot-ready comparison rows from several runs' eval reports."""
    rows = []
    for run_dir in run_dirs:
        report_path = Path(run_dir) / "eval" / REPORT_FILE
        if not report_path.exists():
            raise ConfigError(f"no eval report under {run_dir}")
        rep = json.loads(report_path.read_text())
        g_far, g_frr = rep["group_far"], rep["group_frr"]
        worst = max(g_far, key=lambda g: g_far[g])
        worst_frr = max(g_frr, key=lambda g: g_frr[g])
        overall, overall_frr = rep["overall"]["far"], rep["overall"]["frr"]
        row = {
            "run": str(run_dir),
            "config_hash": rep["config_hash"],
            "sampler": f'{rep["sampler_variant"]}/{rep["sampler_axis"]}',
            "theta": rep["theta"],
            "overall_far": overall,
            "overall_frr": overall_frr,
            "worst_group": worst,
            "worst_group_far": g_far[worst],
            "worst_to_overall": g_far[worst] / overall if overall > 0 else float("inf"),
            "worst_frr_group": worst_frr,
            "worst_group_frr": g_frr[worst_frr],
            "worst_frr_to_overall": (g_frr[worst_frr] / overall_frr if overall_frr > 0
                                     else float("inf")),
        }
        for g, v in sorted(rep["gender_far"].items()):
            row[f"far_{g}"] = v
        rows.append(row)
    return rows


def group_log_far_variance(run_dir: str | Path, far_floor: float) -> float:
    """Mean over groups of the variance of log10 max(group FAR, far_floor)
    across the validation epochs in the run's metrics.json."""
    epochs = json.loads((Path(run_dir) / METRICS_FILE).read_text())["epochs"]
    groups = sorted(epochs[0]["group_far"])
    far = np.array([[e["group_far"][g] for g in groups] for e in epochs])
    return float(np.mean(np.var(np.log10(np.maximum(far, far_floor)), axis=0)))
