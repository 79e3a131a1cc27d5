"""Dataset and embedding file formats.

Dataset files are NPZ archives with a self-describing header and one record
per pair; see README for the exact layout. Embedding exports are CSV with
one row per image (two per pair) and shortest round-trip float formatting,
so reading the file back recovers bit-identical float64 vectors.
"""
from __future__ import annotations

import csv
import zipfile
from pathlib import Path
from typing import Iterable

import numpy as np

from .core import TAXONOMY_HASH, ConfigError, Dataset, atomic_file, savez_deterministic
from .model import EmbeddingNetwork

DATASET_FORMAT_VERSION = 1


def save_dataset(path: str | Path, dataset: Dataset) -> None:
    savez_deterministic(path, {
        "format_version": np.int64(DATASET_FORMAT_VERSION),
        "input_dim": np.int64(dataset.input_dim),
        "n_pairs": np.int64(len(dataset)),
        "taxonomy_hash": np.str_(TAXONOMY_HASH),
        "identity_id": dataset.identity_ids,
        "country": dataset.countries,
        "gender": dataset.genders,
        "selfie": dataset.selfie_features,
        "doc": dataset.doc_features,
    })


def load_dataset(path: str | Path) -> Dataset:
    """Read a dataset file. Raises ``ConfigError`` naming the file when it is
    not a dataset archive of this format and country table, lacks an array,
    has misaligned columns or unknown codes, disagrees with its header or
    holds a non-finite feature."""
    try:
        with np.load(path) as z:
            if int(z["format_version"]) != DATASET_FORMAT_VERSION:
                raise ConfigError(f"unsupported dataset format version in {path}")
            if str(z["taxonomy_hash"]) != TAXONOMY_HASH:
                raise ConfigError(f"dataset {path} was written with a different country table")
            ds = Dataset(
                identity_ids=z["identity_id"],
                countries=z["country"],
                genders=z["gender"],
                selfie_features=z["selfie"],
                doc_features=z["doc"],
            )
            header = int(z["n_pairs"]), int(z["input_dim"])
            finite = np.isfinite(ds.selfie_features).all() and np.isfinite(ds.doc_features).all()
    except (KeyError, TypeError, ValueError, EOFError, zipfile.BadZipFile) as e:
        raise ConfigError(f"dataset {path} is malformed: {e}") from None
    if header != (len(ds), ds.input_dim):
        raise ConfigError(f"dataset {path} header disagrees with its contents")
    if not finite:
        raise ConfigError(f"dataset {path} holds non-finite features")
    return ds


def _fmt(x: float) -> str:
    return str(float(x))


def _write_csv(path: str | Path, header: list[str], rows: Iterable[list],
               comment: str | None = None) -> None:
    """Write ``header`` and ``rows`` as CSV, after a ``# comment`` line when
    one is given, making the parent directories; atomically, like every
    output file."""
    with atomic_file(path, "w") as f:
        if comment is not None:
            f.write(f"# {comment}\n")
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows(rows)


def write_embeddings_csv(path: str | Path, net: EmbeddingNetwork, dataset: Dataset) -> int:
    """Write one row per image: identity_id, country, gender, domain, then the
    embedding components. Selfie rows come first, then doc rows, both in pair
    order. Returns the row count (2 x pairs)."""
    header = ["identity_id", "country", "gender", "domain"] + [
        f"e{i}" for i in range(net.embed_dim)
    ]
    _write_csv(path, header, (
        [int(dataset.identity_ids[i]), dataset.countries[i], dataset.genders[i], domain]
        + [_fmt(x) for x in emb[i]]
        for domain, emb in (("selfie", net.forward(dataset.selfie_features)),
                            ("doc", net.forward(dataset.doc_features)))
        for i in range(len(dataset))
    ))
    return 2 * len(dataset)


def read_embeddings_csv(path: str | Path):
    """Read an embedding export back; returns (identity_ids, countries,
    genders, domains, vectors)."""
    ids, countries, genders, domains, vecs = [], [], [], [], []
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader)
        dim = len(header) - 4
        for row in reader:
            ids.append(int(row[0]))
            countries.append(row[1])
            genders.append(row[2])
            domains.append(row[3])
            vecs.append([float(x) for x in row[4:4 + dim]])
    return (
        np.array(ids, dtype=np.int64),
        np.array(countries),
        np.array(genders),
        np.array(domains),
        np.array(vecs, dtype=np.float64),
    )


def write_far_matrix_csv(path: str | Path, matrix, config_hash: str = "") -> None:
    """CSV grid with group codes as row/column headers (selfie group in the
    row, doc group in the column). The first line is a comment carrying the
    run's config hash and the threshold."""
    _write_csv(path, ["selfie_group\\doc_group", *matrix.groups],
               ([g] + [_fmt(x) for x in row] for g, row in zip(matrix.groups, matrix.values)),
               comment=f"config_hash={config_hash} theta={_fmt(matrix.theta)}")


def write_roc_csv(path: str | Path, curve, config_hash: str = "") -> None:
    columns = [curve.thetas, curve.far, curve.frr]
    header = ["theta", "far", "frr"]
    if curve.far_std is not None:
        columns += [curve.far_std, curve.frr_std]
        header += ["far_std", "frr_std"]
    _write_csv(path, header, ([_fmt(x) for x in row] for row in zip(*columns)),
               comment=f"config_hash={config_hash}")


def write_summary_csv(path: str | Path, rows: list[dict]) -> None:
    """One line per row under the union of the rows' keys; a missing key
    leaves its cell empty."""
    if not rows:
        raise ConfigError("no rows to summarize")
    keys = list(rows[0])
    for row in rows[1:]:
        keys += [k for k in row if k not in keys]
    _write_csv(path, keys, ([row.get(k, "") for k in keys] for row in rows))
