#!/usr/bin/env python3
"""Compare per-group FAR stability between homogeneous batches (every
selection batch drawn from a single continent) and equal-weight mixed
batches.

Homogeneous training lets the model drift toward whichever group it saw
most recently, so within-group FARs swing between checkpoints; the script
trains both variants with identical seeds and budget, then prints the
variance of each group's log10 FAR across validation checkpoints.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from fairtriplet.config import EvalConfig, ExperimentConfig, SamplerConfig
from fairtriplet.datagen import GeneratorConfig
from fairtriplet.harness import run_training
from fairtriplet.model import TrainingConfig


def trajectory_variances(record_epochs, far_floor):
    groups = sorted(record_epochs[0]["group_far"])
    out = {}
    for g in groups:
        series = np.log10([max(e["group_far"][g], far_floor) for e in record_epochs])
        out[g] = float(np.var(series))
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", default="runs/homogeneous_oscillation")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--pairs", type=int, default=50_000)
    ap.add_argument("--steps", type=int, default=200)
    ap.add_argument("--batch", type=int, default=2048)
    ap.add_argument("--pool", type=int, default=300)
    ap.add_argument("--validate-every", type=int, default=10, dest="validate_every")
    args = ap.parse_args()

    samplers = {
        "homogeneous": SamplerConfig(variant="homogeneous", axis="continent",
                                     weights="equal"),
        "mixed_equal": SamplerConfig(variant="fixed", axis="continent",
                                     weights="equal"),
    }
    eval_cfg = EvalConfig(group_pool_size=args.pool, validation_every=args.validate_every)
    records = {}
    for name, sampler in samplers.items():
        cfg = ExperimentConfig(
            seed=args.seed,
            output_dir=str(Path(args.outdir) / name),
            data=GeneratorConfig(n_pairs=args.pairs),
            training=TrainingConfig(total_steps=args.steps, batch_n=args.batch),
            sampler=sampler,
            eval=eval_cfg,
        )
        records[name] = run_training(cfg)
        print(f"[{name}] {records[name].final_step} steps, "
              f"{len(records[name].epochs)} checkpoints")

    far_floor = eval_cfg.resolved_far_floor()
    table = {name: trajectory_variances(rec.epochs, far_floor)
             for name, rec in records.items()}
    groups = sorted(next(iter(table.values())))
    print(f"\nvariance of log10 within-group FAR across checkpoints")
    print(f"{'group':<8} {'homogeneous':>12} {'mixed_equal':>12} {'ratio':>8}")
    for g in groups:
        h, m = table["homogeneous"][g], table["mixed_equal"][g]
        print(f"{g:<8} {h:>12.4f} {m:>12.4f} {h / max(m, 1e-12):>8.1f}")
    mean_h = float(np.mean([table["homogeneous"][g] for g in groups]))
    mean_m = float(np.mean([table["mixed_equal"][g] for g in groups]))
    print(f"\nmean variance: homogeneous {mean_h:.4f} vs mixed {mean_m:.4f} "
          f"({mean_h / max(mean_m, 1e-12):.1f}x)")
    out = Path(args.outdir) / "variances.json"
    out.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    print(f"written to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
