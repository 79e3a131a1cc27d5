"""The four benchmark workloads. Each becomes an ExperimentConfig built from
the benchmark seed; the program sees nothing else.

One measured operation per workload:

* desk-2048: the first ``stop_after`` rounds of the acceptance gate's desk run
  (adjusted sampler), then ``run_eval`` on the checkpoint it leaves.
* paper-10240: a complete ``total_steps``-round run at N=10240, validated once
  at the end.
* eval-paper: one ``run_eval`` at paper evaluation settings of a checkpoint
  trained during set-up.
* validate-country: the first ``stop_after`` rounds of a dynamic country-axis
  run that validates and checkpoints every round.
"""
from __future__ import annotations

import copy
from dataclasses import dataclass

DESK = {
    "data": {"n_pairs": 50_000, "input_dim": 32},
    "training": {"total_steps": 200, "batch_n": 2048, "minibatch_size": 32,
                 "margin": 0.6, "lr_init": 1.0e-3, "lr_final": 1.0e-5},
    "sampler": {"variant": "fixed", "axis": "continent", "weights": "adjusted"},
    "eval": {"target_far": 1.0e-3, "n_eval_pairs": 2000, "group_pool_size": 300,
             "validation_every": 10},
}

PAPER_EVAL = {"target_far": 1.0e-5, "n_eval_pairs": 4000, "group_pool_size": 1000,
              "matrix_axis": "country", "n_roc_splits": 5, "validation_every": 10}


def _desk(**sections) -> dict:
    raw = copy.deepcopy(DESK)
    for name, changes in sections.items():
        raw[name].update(changes)
    return raw


@dataclass(frozen=True)
class Workload:
    """Why each workload exists is recorded in BENCHMARK.json and README.md."""

    name: str
    train: dict                  # config sections of the training run
    stop_after: int | None       # rounds per operation; None runs to total_steps
    evaluate: bool               # run_eval after training, inside the operation
    eval_only: dict | None = None  # eval section: the operation is run_eval alone

    def units(self) -> int:
        """Rounds, validations and eval calls one operation attempts."""
        if self.eval_only is not None:
            return 1
        rounds = self.stop_after or self.train["training"]["total_steps"]
        every = self.train["eval"]["validation_every"]
        # a run that reaches total_steps also validates there, off-cadence or not
        validations = rounds // every + (rounds % every != 0 and self.stop_after is None)
        return rounds + validations + int(self.evaluate)


WORKLOADS = {w.name: w for w in (
    Workload("desk-2048", _desk(), stop_after=10, evaluate=True),
    Workload("paper-10240",
             _desk(training={"batch_n": 10240, "total_steps": 2},
                   sampler={"weights": "equal"}, eval={"validation_every": 2}),
             stop_after=None, evaluate=False),
    Workload("eval-paper", _desk(training={"total_steps": 5}),
             stop_after=None, evaluate=False, eval_only=PAPER_EVAL),
    Workload("validate-country",
             _desk(training={"batch_n": 512},
                   sampler={"variant": "dynamic", "axis": "country", "weights": None},
                   eval={"validation_every": 1}),
             stop_after=8, evaluate=False),
)}


def build_config(raw: dict, seed: int, output_dir: str):
    from fairtriplet.config import config_from_dict

    return config_from_dict({**copy.deepcopy(raw), "seed": seed, "output_dir": output_dir})
