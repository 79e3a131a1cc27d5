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
    theta = float(max(tiled[rows[0], cols[0]], dense[rows[0], cols[0]]))
    accepted, comparisons = far_counts(selfie, ids, doc, ids, theta)
    # One dense product would not reproduce this count.
    assert accepted != int(np.count_nonzero((dense < theta) & impostor))

    es = EvalSet(selfie, doc, ids, np.array(["poland"] * n), np.array(["EU"] * n),
                 np.array(["male"] * n))
    rejected, pairs = frr_counts(es, theta)
    write_export(tmp_path / "emb.csv", ids, selfie, doc)
    (tmp_path / "report.json").write_text(json.dumps({"theta": theta, "overall": {
        "far_accepted": accepted, "far_comparisons": comparisons,
        "frr_rejected": rejected, "genuine_pairs": pairs}}))
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--embeddings", str(tmp_path / "emb.csv"),
         "--report", str(tmp_path / "report.json")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
