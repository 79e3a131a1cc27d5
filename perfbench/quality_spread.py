#!/usr/bin/env python3
"""Seed spread of the desk run's quality readouts: information, not a gate.

Trains the complete 200-round desk run that desk-2048 measures the start of
(adjusted sampler, N=2048, validation every 10 rounds), evaluates it, and
records worst_to_overall_far and frr_at_target for seeds 7-11 with their
median and quartile spread, so a later change in either can be told apart
from seed noise. Writes perfbench/quality_spread.json; takes about four
minutes on two cores.

    python3 perfbench/quality_spread.py
"""
from __future__ import annotations

import json
import os
import statistics
import sys
import tempfile
from pathlib import Path

from checks import quality
from workloads import WORKLOADS, build_config

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (7, 8, 9, 10, 11)


def main() -> int:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # the benchmark's BLAS setting, before numpy loads
    sys.path.insert(0, str(ROOT / "src"))
    from fairtriplet import harness

    per_seed = {}
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        for seed in SEEDS:
            cfg = build_config(WORKLOADS["desk-2048"].train, seed, f"{tmp}/seed{seed}")
            record = harness.run_training(cfg)
            harness.run_eval(cfg, Path(cfg.output_dir) / record.checkpoints[-1])
            per_seed[seed] = quality(Path(cfg.output_dir) / "eval" / harness.REPORT_FILE)
            print(seed, per_seed[seed], flush=True)
    summary = {}
    for name in ("worst_to_overall_far", "frr_at_target"):
        values = [per_seed[s][name] for s in SEEDS]
        q1, _, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
        summary[name] = {"median": med, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / med, "min": min(values), "max": max(values)}
    out = {
        "workload": "desk-2048 trained to completion (200 rounds) then run_eval",
        "seeds": {str(s): per_seed[s] for s in SEEDS},
        "summary": summary,
    }
    path = Path(__file__).with_name("quality_spread.json")
    path.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")
    print(json.dumps(summary, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
