"""Run one workload in this process and write its raw measurements as JSON.

Started by run.py, which pins the BLAS thread count before numpy loads; the
workload's peak RSS is this process's. Measured operations repeat until
``--seconds`` have passed (at least MIN_OPS of them). With ``--trace 1`` every
second operation runs under the full span tracer and the others under the
round clock alone, so the pair gives the tracing overhead. An untraced run
first times SETUP_REPEATS set-ups on their own (on eval-paper, the trainings
of its checkpoint); setup_s is the median of those and of the untraced
operations' own set-ups.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from fairtriplet import harness

from analysis import layer_metrics, median, nesting_problems, tail
from checks import check_metrics, check_report, quality
from tracing import (ENTRY_POINTS, ROUND, ROUND_CLOCK, ROUND_MARKER, Tracer,
                     absent_entry_points, traced)
from workloads import WORKLOADS, build_config

MIN_OPS = 2
SETUP_REPEATS = 3
ROOT = Path(__file__).resolve().parent.parent


def blas_threads() -> int | None:
    """Threads OpenBLAS will use, asked of the library numpy loaded."""
    try:
        with open("/proc/self/maps") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
    except OSError:  # not Linux
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas_name, "blas_threads": blas_threads()}


def eval_config(wl, seed: int, checkpoint: Path):
    # output_dir is the set-up run, whose metrics.json run_eval reads.
    return build_config({**wl.train, "eval": wl.eval_only}, seed, str(checkpoint.parent.parent))


def report_path(wl, out: Path) -> Path | None:
    if wl.eval_only is not None:
        return out / harness.REPORT_FILE
    return out / "eval" / harness.REPORT_FILE if wl.evaluate else None


def run_op(wl, seed: int, out: Path, checkpoint: Path | None, tracer: Tracer,
           entry_points) -> dict:
    """One measured operation. Its exception is recorded, not raised."""
    rec = {"out": out, "run_s": None, "setup_s": None, "eval_s": None,
           "rounds_s": [], "error": None}
    cfg = (eval_config(wl, seed, checkpoint) if wl.eval_only is not None
           else build_config(wl.train, seed, str(out)))
    first = len(tracer.spans)
    with traced(tracer, entry_points):
        t0 = time.perf_counter()
        try:
            if wl.eval_only is not None:
                harness.run_eval(cfg, checkpoint, out_dir=out)
                rec["eval_s"] = time.perf_counter() - t0
            else:
                record = harness.run_training(cfg, stop_after=wl.stop_after)
                if wl.evaluate:
                    t_eval = time.perf_counter()
                    harness.run_eval(cfg, out / record.checkpoints[-1])
                    rec["eval_s"] = time.perf_counter() - t_eval
        except Exception:
            rec["error"] = traceback.format_exc()
            print(rec["error"], file=sys.stderr)
        t1 = time.perf_counter()
    rec["run_s"], rec["window"] = t1 - t0, (t0, t1)
    spans = tracer.spans[first:]
    rec["rounds_s"] = [s.duration for s in spans if s.name == ROUND]
    starts = [s.start for s in spans if s.name == ROUND_MARKER]
    if starts:
        rec["setup_s"] = starts[0] - t0
    return rec


class _SetupDone(BaseException):
    """Ends a set-up-only run at its first batch assembly. A BaseException,
    so run_training's failure handler lets it through untouched."""


def time_setup(wl, seed: int, out: Path) -> float | None:
    """Seconds from entering run_training to its first assemble_batch call,
    where the run is stopped; None when there is no assemble_batch to stop at."""
    assemble = getattr(harness, "assemble_batch", None)
    if assemble is None:
        return None

    def stop(*args, **kwargs):
        raise _SetupDone(time.perf_counter())

    cfg = build_config(wl.train, seed, str(out))
    harness.assemble_batch = stop
    t0 = time.perf_counter()
    try:
        harness.run_training(cfg)
    except _SetupDone as done:
        return done.args[0] - t0
    finally:
        harness.assemble_batch = assemble
    return None


def train_checkpoint(wl, seed: int, out: Path, tracer: Tracer, entry_points):
    cfg = build_config(wl.train, seed, str(out))
    with traced(tracer, entry_points):
        t0 = time.perf_counter()
        record = harness.run_training(cfg)
        seconds = time.perf_counter() - t0
    return out / record.checkpoints[-1], seconds


def output_problems(wl, rec: dict) -> list[str]:
    problems = []
    if wl.eval_only is None:
        ev = wl.train["eval"]
        problems += check_metrics(rec["out"] / harness.METRICS_FILE, ev["n_eval_pairs"],
                                  ev["group_pool_size"])
    report = report_path(wl, rec["out"])
    if report is not None:
        ev = wl.eval_only or wl.train["eval"]
        problems += check_report(report, ev["n_eval_pairs"], ev["group_pool_size"])
    return problems


def output_files(wl, rec: dict) -> list[Path]:
    """The files the determinism contract makes byte-identical across repeats."""
    files = [rec["out"] / harness.METRICS_FILE] if wl.eval_only is None else []
    return files + [p for p in [report_path(wl, rec["out"])] if p is not None]


def recount_problems(wl, seed: int, rec: dict, checkpoint: Path) -> list[str]:
    """Reproduce the report's overall counts with the independent recount
    script, from exported embeddings of the evaluation set."""
    cfg = eval_config(wl, seed, checkpoint)
    eval_ds = harness._natural_dataset(cfg, "datagen-eval", cfg.eval.n_eval_pairs)
    embeddings = rec["out"] / "embeddings.csv"
    harness.export_embeddings(checkpoint, eval_ds, embeddings)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "recount_far_from_embeddings.py"),
         "--embeddings", str(embeddings), "--report", str(report_path(wl, rec["out"]))],
        capture_output=True, text=True, timeout=120,
    )
    print(proc.stdout, end="", file=sys.stderr)
    return [] if proc.returncode == 0 else [f"recount mismatch:\n{proc.stdout}{proc.stderr}"]


def check(wl, args, ops: list[dict], checkpoint: Path | None, spans: list) -> None:
    """Attach each operation's correctness problems (empty when correct)."""
    reference = None
    for rec in ops:
        rec["problems"] = [rec["error"]] if rec["error"] else []
        if rec["error"]:
            continue
        rec["problems"] += output_problems(wl, rec)
        blobs = [p.read_bytes() for p in output_files(wl, rec)]
        if reference is None:
            reference = blobs
        elif blobs != reference:
            rec["problems"].append("outputs differ from the first repeat (determinism)")
    if wl.eval_only is not None and not ops[0]["problems"]:
        ops[0]["problems"] += recount_problems(wl, args.seed, ops[0], checkpoint)
    if args.trace:
        trace_problems = nesting_problems(spans)[:10]
        if not all(math.isfinite(s.attrs["loss"]) for s in spans if "loss" in s.attrs):
            trace_problems.append("non-finite minibatch loss")
        for rec in ops:
            if rec["traced"]:
                rec["problems"] += trace_problems


def summarize(wl, args, ops: list[dict], setup_samples: list[float], full: Tracer,
              peak_rss_mb: float) -> dict:
    ok = [r for r in ops if not r["problems"]]
    plain = [r for r in ok if not r["traced"]]
    rounds = [x for r in plain for x in r["rounds_s"]]
    if wl.eval_only is None:
        setup_samples = setup_samples + [r["setup_s"] for r in plain if r["setup_s"] is not None]
    e2e = {
        # Contention on a shared host only ever adds time, so the fastest
        # repeat is the steadiest estimate of the operation's own cost.
        "run_s": min((r["run_s"] for r in plain), default=None),
        "setup_s": median(setup_samples),
        "peak_rss_mb": peak_rss_mb,
        "rounds_per_s": median(len(r["rounds_s"]) / sum(r["rounds_s"])
                               for r in plain if r["rounds_s"]),
        "round_ms_p50": median(x * 1e3 for x in rounds),
        "round_ms_tail": None,
        "eval_s": median(r["eval_s"] for r in plain if r["eval_s"] is not None),
    }
    result = {
        "workload": wl.name, "seed": args.seed, "trace": args.trace, "machine": machine(),
        "attempted": wl.units() * len(ops), "failed": wl.units() * (len(ops) - len(ok)),
        "ops": [{k: str(v) if k == "out" else v for k, v in r.items() if k != "window"}
                for r in ops],
        "setup_samples_s": setup_samples,
        "end_to_end": e2e,
    }
    t = tail(rounds)
    if t is not None:
        q, value, n = t
        e2e["round_ms_tail"] = value * 1e3
        result["round_tail"] = {"percentile": q, "samples": n}
    if ok and report_path(wl, ok[0]["out"]) is not None:
        e2e.update(quality(report_path(wl, ok[0]["out"])))
    if args.trace:
        windows = [r["window"] for r in ops if r["traced"]]
        layers = layer_metrics(full.spans, windows)
        layers["harness.trace_overhead_frac"] = (
            min(r["run_s"] for r in ops if r["traced"])
            / min(r["run_s"] for r in ops if not r["traced"]) - 1.0)
        absent = absent_entry_points()
        layers["trace.absent_entry_points"] = len(absent)
        layers["trace.spans_per_op"] = median(
            sum(1 for s in full.spans if lo <= s.start and s.end <= hi) for lo, hi in windows)
        result["per_layer"] = layers
        result["absent_entry_points"] = absent
        result["spans"] = [s.to_dict() for s in full.spans]
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    args = ap.parse_args()
    wl = WORKLOADS[args.workload]
    full = Tracer()

    setup_samples, checkpoint = [], None
    if wl.eval_only is not None:
        for k in range(1 if args.trace else SETUP_REPEATS):
            tracer, eps = (full, ENTRY_POINTS) if args.trace else (Tracer(), ROUND_CLOCK)
            checkpoint, seconds = train_checkpoint(
                wl, args.seed, args.workdir / f"setup_{k}", tracer, eps)
            setup_samples.append(seconds)
    elif not args.trace:
        setup_samples = [time_setup(wl, args.seed, args.workdir / f"setup_{k}")
                         for k in range(SETUP_REPEATS)]
        setup_samples = [x for x in setup_samples if x is not None]

    ops = []
    t_begin = time.perf_counter()
    while len(ops) < MIN_OPS or time.perf_counter() - t_begin < args.seconds:
        is_traced = bool(args.trace) and len(ops) % 2 == 1
        tracer, eps = (full, ENTRY_POINTS) if is_traced else (Tracer(), ROUND_CLOCK)
        rec = run_op(wl, args.seed, args.workdir / f"op_{len(ops)}", checkpoint, tracer, eps)
        rec["traced"] = is_traced
        ops.append(rec)
        print(f"[perfbench] {wl.name} op {len(ops) - 1} traced={is_traced} "
              f"run_s={rec['run_s']:.3f}", file=sys.stderr)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    check(wl, args, ops, checkpoint, full.spans)  # outside the timed region
    result = summarize(wl, args, ops, setup_samples, full, peak_rss_mb)
    args.result.parent.mkdir(parents=True, exist_ok=True)
    args.result.write_text(json.dumps(result, indent=1, default=float))
    return 0


if __name__ == "__main__":
    sys.exit(main())
