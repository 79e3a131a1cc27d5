"""The independent recount script against a report whose threshold sits on a
cell where one dense product and the 128-row distance tiles round apart."""
import csv
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

from fairtriplet import evaluation
from fairtriplet.core import cross_squared_distances, normalize_rows
from fairtriplet.dataio import write_roc_csv
from fairtriplet.evaluation import EvalSet, far_counts, frr_counts

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "recount_far_from_embeddings.py"


def write_export(path, ids, selfie, doc):
    """An embedding CSV laid out as `fairtriplet export` writes it."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["identity_id", "country", "gender", "domain"]
                        + [f"e{i}" for i in range(selfie.shape[1])])
        for domain, emb in (("selfie", selfie), ("doc", doc)):
            for i, row in zip(ids.tolist(), emb):
                writer.writerow([i, "poland", "male", domain] + [str(float(x)) for x in row])


def test_recount_follows_the_tiles_where_a_dense_product_rounds_apart(tmp_path):
    rng = np.random.default_rng(513)
    n = 513
    selfie = normalize_rows(rng.normal(size=(n, 8)))
    doc = normalize_rows(rng.normal(size=(n, 8)))
    ids = np.arange(n)
    tiled = np.concatenate([d.copy() for _, d in evaluation._distance_tiles(selfie, doc)])
    dense = cross_squared_distances(selfie, doc)
    impostor = ids[:, None] != ids[None, :]
    rows, cols = np.nonzero((tiled != dense) & impostor)
    assert rows.size > 0  # the set has cells the two products round apart
    # A cell whose tiled distance lies above its dense one, so that theta is a
    # tiled value, above the dense one at that cell; the target FAR ranks it.
    above = np.flatnonzero(tiled[rows, cols] > dense[rows, cols])
    theta = float(tiled[rows[above[0]], cols[above[0]]])
    rank = int(np.count_nonzero((tiled < theta) & impostor))
    comparisons = int(np.count_nonzero(impostor))
    target_far = (rank + 0.5) / comparisons
    assert evaluation.calibrate_threshold(
        EvalSet(selfie, doc, ids, male_genders(n)), target_far) == theta
    accepted = far_counts(selfie, ids, doc, ids, theta)[0]
    # One dense product would not reproduce this count.
    assert accepted != int(np.count_nonzero((dense < theta) & impostor))
    assert recount(tmp_path, selfie, doc, ids, target_far, theta).returncode == 0

    # A report whose theta is one float step lower, with the counts at that
    # theta: the counts match, the threshold does not.
    lower = float(np.nextafter(theta, 0.0))
    proc = recount(tmp_path, selfie, doc, ids, target_far, lower)
    assert proc.returncode == 1
    assert "theta: recount" in proc.stdout and proc.stdout.count("MISMATCH") == 1


def test_recount_checks_each_roc_row(tmp_path):
    rng = np.random.default_rng(200)
    n = 200  # two tiles, with repeated ids
    selfie = normalize_rows(rng.normal(size=(n, 8)))
    doc = normalize_rows(rng.normal(size=(n, 8)))
    ids = rng.integers(0, 150, n)
    es = EvalSet(selfie, doc, ids, male_genders(n))
    theta = evaluation.calibrate_threshold(es, 0.01)
    curve = evaluation.roc_curve(es, evaluation.default_theta_grid(es, 20))
    write_roc_csv(tmp_path / "roc.csv", curve)
    proc = recount(tmp_path, selfie, doc, ids, 0.01, theta, roc_file="roc.csv")
    assert proc.returncode == 0, proc.stdout
    assert proc.stdout.count("roc.csv far at theta") == len(curve.thetas)

    # One row's FAR one accepted impostor comparison higher.
    row = len(curve.thetas) // 2
    accepted, comparisons = far_counts(selfie, ids, doc, ids, curve.thetas[row])
    lines = (tmp_path / "roc.csv").read_text().splitlines()  # comment, header, rows
    fields = lines[2 + row].split(",")
    fields[1] = str((accepted + 1) / comparisons)
    lines[2 + row] = ",".join(fields)
    (tmp_path / "roc.csv").write_text("\n".join(lines) + "\n")
    proc = recount(tmp_path, selfie, doc, ids, 0.01, theta, roc_file="roc.csv")
    assert proc.returncode == 1
    mismatches = [line for line in proc.stdout.splitlines() if "MISMATCH" in line]
    assert len(mismatches) == 1 and mismatches[0].startswith("roc.csv far at theta")


def male_genders(n):
    return np.array(["male"] * n)


def recount(tmp_path, selfie, doc, ids, target_far, theta, **report_keys):
    """The recount script on an export of the rows and a report of the counts
    at ``theta``, with ``report_keys`` added to the report."""
    accepted, comparisons = far_counts(selfie, ids, doc, ids, theta)
    rejected, pairs = frr_counts(EvalSet(selfie, doc, ids, male_genders(len(ids))), theta)
    write_export(tmp_path / "emb.csv", ids, selfie, doc)
    (tmp_path / "report.json").write_text(json.dumps({
        "target_far": target_far, "theta": theta, "overall": {
            "far_accepted": accepted, "far_comparisons": comparisons,
            "frr_rejected": rejected, "genuine_pairs": pairs}, **report_keys}))
    return subprocess.run(
        [sys.executable, str(SCRIPT), "--embeddings", str(tmp_path / "emb.csv"),
         "--report", str(tmp_path / "report.json")],
        capture_output=True, text=True,
    )
