"""Correctness checks on a measured operation's output files.

Each returns a list of problems (empty when the output is correct):

* every recorded loss is finite;
* every FAR/FRR in metrics.json, report.json and the FAR-matrix CSV is an
  exact integer-count ratio over the comparison count its pools imply
  (evaluation pools are generated without duplicated identities, so a pool of
  P pairs gives P*(P-1) within-pool and P*P cross-pool impostor comparisons).
"""
from __future__ import annotations

import csv
import json
import math
from pathlib import Path


def is_count_ratio(value: float, total: int) -> bool:
    k = round(value * total)
    return 0 <= k <= total and k / total == value


def _ratio_problems(where: str, rates: dict, total: int) -> list[str]:
    return [f"{where}[{g}]={v!r} is not k/{total}"
            for g, v in rates.items() if not is_count_ratio(v, total)]


def check_metrics(path: Path, n_eval: int, pool: int) -> list[str]:
    problems = []
    epochs = json.loads(path.read_text())["epochs"]
    if not epochs:
        problems.append(f"{path}: no validation epochs")
    for e in epochs:
        loss = e["mean_loss"]
        if loss is None or not math.isfinite(loss):
            problems.append(f"{path}: step {e['step']} mean_loss {loss!r}")
        where = f"{path.name} step {e['step']}"
        problems += _ratio_problems(where + " overall_far", {"all": e["overall_far"]},
                                    n_eval * (n_eval - 1))
        problems += _ratio_problems(where + " overall_frr", {"all": e["overall_frr"]}, n_eval)
        problems += _ratio_problems(where + " group_far", e["group_far"], pool * (pool - 1))
        problems += _ratio_problems(where + " group_frr", e["group_frr"], pool)
    return problems


def check_report(path: Path, n_eval: int, pool: int) -> list[str]:
    report = json.loads(path.read_text())
    o = report["overall"]
    problems = []
    if o["far_comparisons"] != n_eval * (n_eval - 1):
        problems.append(f"{path}: {o['far_comparisons']} impostor comparisons, "
                        f"not {n_eval * (n_eval - 1)}")
    if o["genuine_pairs"] != n_eval:
        problems.append(f"{path}: {o['genuine_pairs']} genuine pairs, not {n_eval}")
    if o["far"] != o["far_accepted"] / (n_eval * (n_eval - 1)):
        problems.append(f"{path}: overall far {o['far']!r} != its counts")
    if o["frr"] != o["frr_rejected"] / n_eval:
        problems.append(f"{path}: overall frr {o['frr']!r} != its counts")
    problems += _ratio_problems("report group_far", report["group_far"], pool * (pool - 1))
    problems += _ratio_problems("report group_frr", report["group_frr"], pool)
    for name in report["matrix_files"]:
        with open(path.parent / name, newline="") as f:
            rows = [r for r in csv.reader(f) if r and not r[0].startswith("#")]
        header, body = rows[0][1:], rows[1:]
        for row in body:
            for h, cell in zip(header, row[1:]):
                total = pool * (pool - 1) if h == row[0] else pool * pool
                if not is_count_ratio(float(cell), total):
                    problems.append(f"{name}[{row[0]},{h}]={cell} is not k/{total}")
    return problems


def quality(report_path: Path) -> dict:
    """The two readouts the acceptance gate's criterion 5 bounds."""
    report = json.loads(report_path.read_text())
    overall = report["overall"]["far"]
    worst = max(report["group_far"].values())
    return {"worst_to_overall_far": worst / overall if overall > 0 else math.inf,
            "frr_at_target": report["overall"]["frr"]}
