#!/usr/bin/env python3
"""Print the sha256 of every output a seeded run writes, except timings.json.

Runs the four benchmark workloads of perfbench/workloads.py at --seed, each
followed by run_eval, and then each YAML config given on the command line:
its whole training run, then run_eval on its last checkpoint. Every run
writes into its own directory under one temporary directory (or --out), and
the script prints one line per output file, `<sha256>  <run>/<path>`, sorted
by path. timings.json holds wall-clock times, so it is the one file skipped.

Run it in two checkouts and compare what they print; equal lines mean
byte-identical outputs:

    python3 scripts/output_digests.py --seed 7 configs/natural.yaml \\
        configs/equal.yaml configs/dynamic.yaml configs/adjusted.yaml > digests.txt

Set OPENBLAS_NUM_THREADS=1 before the run to take the threaded side of the
FAR matrix and the miner (core.worker_threads); leave it unset for the
one-thread side.

Byte identity holds for one BLAS kernel, so the script names the kernel
OpenBLAS chose on stderr, as `# openblas: <core> (<config>)`, or `unknown`
where the library or its symbols are not found; stdout holds only digests.
"""
from __future__ import annotations

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from fairtriplet.config import load_config
from fairtriplet.harness import (
    TIMINGS_FILE,
    latest_checkpoint,
    openblas_build,
    run_eval,
    run_training,
)
from workloads import WORKLOADS, build_config


def run_workload(name: str, seed: int, out: Path) -> None:
    """The workload's training run, then run_eval on its last checkpoint;
    eval-paper's run_eval takes the paper evaluation settings."""
    wl = WORKLOADS[name]
    cfg = build_config(wl.train, seed, str(out))
    run_training(cfg, stop_after=wl.stop_after)
    if wl.eval_only is not None:
        cfg = build_config({**wl.train, "eval": wl.eval_only}, seed, str(out))
    run_eval(cfg, latest_checkpoint(out))


def run_config(path: str, out: Path) -> None:
    cfg = load_config(path).with_(output_dir=str(out))
    run_training(cfg)
    run_eval(cfg, latest_checkpoint(out))


def digests(root: Path):
    """``(sha256, relative path)`` of every file under ``root`` but timings."""
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        if path.name != TIMINGS_FILE:
            yield hashlib.sha256(path.read_bytes()).hexdigest(), path.relative_to(root)


def openblas_kernel() -> str:
    """``<core> (<config>)`` from the OpenBLAS library numpy loaded."""
    build = openblas_build()
    return "unknown" if build is None else "{} ({})".format(*build)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seed", type=int, required=True, help="workload seed")
    ap.add_argument("--out", help="directory for the runs (default: a temporary one)")
    ap.add_argument("configs", nargs="*", help="YAML configs to run after the workloads")
    args = ap.parse_args()
    print(f"# openblas: {openblas_kernel()}", file=sys.stderr)

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(args.out or tmp)
        for name in WORKLOADS:
            run_workload(name, args.seed, root / name)
        for path in args.configs:
            run_config(path, root / Path(path).stem)
        for digest, rel in digests(root):
            print(f"{digest}  {rel.as_posix()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
