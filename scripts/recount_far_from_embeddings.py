#!/usr/bin/env python3
"""Recount a run's overall FAR/FRR from exported embeddings.

Independent cross-check of eval reports: reads an embedding CSV (produced by
`fairtriplet export`) and a report.json, recomputes the accepted/rejected
counts at the report's threshold, and compares them against the report's
integer counts. It also checks the threshold itself: the floor(target_far *
n)-th smallest (from 0) of the n impostor distances, or one float step above
the largest at target 1. When the report names its ROC file (`roc_file`, next
to the report) and that file holds one curve (no `far_std` column), each row's
FAR is checked against the impostor distances below its theta. Distances follow
the toolkit's documented kernel and tile shape (see README, "Conventions"); the
masking, counting, selection and aggregation here are written from scratch on
purpose.

Exit code 0 iff the threshold, all counts and all ROC rows match exactly.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

# Selfie rows per distance window, as in the toolkit (README, "Conventions").
TILE_ROWS = 128


def load_embeddings(path):
    ids, domains, vecs = [], [], []
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader)
        dim = len(header) - 4
        for row in reader:
            ids.append(int(row[0]))
            domains.append(row[3])
            vecs.append([float(x) for x in row[4:4 + dim]])
    ids = np.array(ids, dtype=np.int64)
    domains = np.array(domains)
    vecs = np.array(vecs, dtype=np.float64)
    return ids, domains, vecs


def roc_checks(path, impostor_d, comparisons):
    """One (name, recount, file) check per ROC row: the share of the impostor
    distances below its theta. A curve with `far_std` is a mean over random
    splits, which this script does not redraw, so it gets none."""
    with open(path, newline="") as f:
        reader = csv.DictReader(line for line in f if not line.startswith("#"))
        if "far_std" in reader.fieldnames:
            print(f"{path.name}: a mean over splits (far_std), rows not recounted")
            return []
        rows = list(reader)
    impostor_d.sort()
    return [(f"{path.name} far at theta {row['theta']}",
             int(np.searchsorted(impostor_d, float(row["theta"]), side="left")) / comparisons,
             float(row["far"])) for row in rows]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--embeddings", required=True, help="CSV from `fairtriplet export`")
    ap.add_argument("--report", required=True, help="report.json from `fairtriplet eval`")
    args = ap.parse_args()

    ids, domains, vecs = load_embeddings(args.embeddings)
    with open(args.report) as f:
        report = json.load(f)
    theta = report["theta"]

    selfies = vecs[domains == "selfie"]
    docs = vecs[domains == "doc"]
    sids = ids[domains == "selfie"]
    dids = ids[domains == "doc"]

    # Canonical distance kernel, in the toolkit's 128-row windows: BLAS can
    # round one dense product differently from the same rows inside a window.
    doc_sq = np.einsum("ij,ij->i", docs, docs)
    height = min(TILE_ROWS, len(selfies))
    comparisons = int(np.count_nonzero(sids[:, None] != dids[None, :]))
    impostor_d = np.empty(comparisons)
    filled = accepted = 0
    for start in range(0, len(selfies), TILE_ROWS):
        stop = min(start + TILE_ROWS, len(selfies))
        window = selfies[stop - height:stop]  # the last one ends at the last selfie
        d = window @ docs.T
        d *= -2.0
        d += np.einsum("ij,ij->i", window, window)[:, None]
        d += doc_sq[None, :]
        np.maximum(d, 0.0, out=d)
        fresh = d[start - (stop - height):]
        impostor = sids[start:stop, None] != dids[None, :]
        accepted += int(np.count_nonzero((fresh < theta) & impostor))
        values = fresh[impostor]
        impostor_d[filled:filled + values.size] = values
        filled += values.size

    k = math.floor(report["target_far"] * comparisons)
    if k >= comparisons:
        expected_theta = float(np.nextafter(impostor_d.max(), np.inf))
    else:
        impostor_d.partition(k)
        expected_theta = float(impostor_d[k])

    # genuine pairs: same pair order in both blocks of the export
    gdiff = selfies - docs
    genuine = np.einsum("ij,ij->i", gdiff, gdiff)
    rejected = int(np.count_nonzero(genuine >= theta))

    checks = [
        ("theta", expected_theta, theta),
        ("far_accepted", accepted, report["overall"]["far_accepted"]),
        ("far_comparisons", comparisons, report["overall"]["far_comparisons"]),
        ("frr_rejected", rejected, report["overall"]["frr_rejected"]),
        ("genuine_pairs", len(genuine), report["overall"]["genuine_pairs"]),
    ]
    if "roc_file" in report:
        checks += roc_checks(Path(args.report).parent / report["roc_file"], impostor_d,
                             comparisons)
    ok = True
    for name, got, want in checks:
        status = "ok" if got == want else "MISMATCH"
        if got != want:
            ok = False
        print(f"{name}: recount {got} vs report {want} [{status}]")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
