#!/usr/bin/env python3
"""fairtriplet benchmark: one command per workload run.

    python3 perfbench/run.py --workload desk-2048 --seed 7 --seconds 20 --trace 0

Runs the workload (see workloads.py) in its own Python process against the
unmodified package under src/, with BLAS pinned to one thread, then checks
the outputs and prints every metric by name and unit. The last stdout line
is one JSON object with the keys correct, attempted, failed and metrics;
``--trace 0`` puts BENCHMARK.json's end-to-end metrics there, and exits
non-zero if one has no value; ``--trace 1`` puts its per-layer metrics
there, less any layer the run never reached because an entry point was
renamed or removed (the table names those). The full measurements (ops, machine facts and, when
traced, every span) are kept in .perfbench/results/.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
# Time the worker gets beyond --seconds: its set-ups, the overrun of the last
# operation, the correctness checks and the recount.
WORKER_ALLOWANCE_S = 150

# Printed in the table but not on the final line. The gated metrics, with
# their units, are the ones BENCHMARK.json names.
TABLE_ONLY = {
    "end_to_end": {
        "rounds_per_s": "1/s", "round_ms_p50": "ms", "round_ms_tail": "ms", "eval_s": "s",
        "worst_to_overall_far": "ratio", "frr_at_target": "fraction",
        "failed_ops_frac": "fraction",
    },
    "per_layer": {
        "sampling.dynamic_update_us_p50": "us", "evaluation.far_matrix_ms": "ms",
        "evaluation.roc_ms": "ms", "dataio.write_ms": "ms",
    },
}


def benchmark_units() -> dict[str, dict[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {kind: {m["name"]: m["unit"] for m in spec[kind]} for kind in TABLE_ONLY}


def final_line(result: dict, values: dict, gated: dict[str, str], trace: int) -> dict | None:
    """The last stdout line, or None when an end-to-end metric has no value.
    A per-layer metric without a value is left out instead: its layer was
    not reached, as when a later change renames or removes an entry point,
    and the traced run still reports every layer it did reach."""
    if not trace and any(values.get(name) is None for name in gated):
        return None
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in gated.items() if values.get(name) is not None},
    }


def table(values: dict, units: dict, notes: dict) -> list[str]:
    lines = []
    for name, unit in units.items():
        value = values.get(name)
        shown = "n/a" if value is None else f"{value:.6g} {unit}"
        lines.append(f"  {name:34s} {shown}{notes.get(name, '')}")
    return lines


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    src = ROOT / "src"
    if not (src / "fairtriplet" / "__init__.py").is_file():
        print(f"perfbench: no fairtriplet sources under {src}", file=sys.stderr)
        return 2
    units = benchmark_units()
    kind = "per_layer" if args.trace else "end_to_end"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = ROOT / ".perfbench" / "work" / f"{tag}-{os.getpid()}"
    result_path = ROOT / ".perfbench" / "results" / f"{tag}.json"
    result_path.unlink(missing_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    timeout = args.seconds + WORKER_ALLOWANCE_S
    try:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("worker.py")),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--workdir", str(workdir), "--result", str(result_path)],
            cwd=ROOT, env=env, stdout=sys.stderr, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        print(f"perfbench: worker exceeded {timeout:g} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        print(f"perfbench: worker exited with {proc.returncode}", file=sys.stderr)
        return 1

    result = json.loads(result_path.read_text())
    e2e = dict(result["end_to_end"])
    e2e["failed_ops_frac"] = result["failed"] / result["attempted"]
    notes = {}
    if "round_tail" in result:
        notes["round_ms_tail"] = (f"  (p{result['round_tail']['percentile']:g} of "
                                  f"{result['round_tail']['samples']} rounds)")
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"machine={json.dumps(result['machine'], sort_keys=True)}")
    print(f"operations: {len(result['ops'])}, attempted {result['attempted']}, "
          f"failed {result['failed']}")
    for op in result["ops"]:
        for problem in op["problems"]:
            print(f"  FAILED: {problem.strip()}")
    print("end-to-end:")
    print("\n".join(table(e2e, {**units["end_to_end"], **TABLE_ONLY["end_to_end"]}, notes)))
    values = e2e
    if args.trace:
        values = result["per_layer"]
        print("per-layer (traced operations):")
        print("\n".join(table(values, {**units["per_layer"], **TABLE_ONLY["per_layer"]}, {})))
        for name in result["absent_entry_points"]:
            print(f"  absent entry point: {name}")

    missing = [name for name in units[kind] if values.get(name) is None]
    line = final_line(result, values, units[kind], args.trace)
    if line is None:
        print(f"perfbench: no value for {missing}", file=sys.stderr)
        return 1
    if missing:
        print(f"  not exercised: {', '.join(missing)}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
