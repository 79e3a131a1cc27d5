"""Command-line entry point.

Subcommands mirror the experiment pipeline stages:

    fairtriplet generate -c config.yaml -o dataset.npz
    fairtriplet train    -c config.yaml [-o DIR] [--seed N] [--resume] [--stop-after K]
    fairtriplet eval     -c config.yaml --checkpoint CKPT [-o DIR]
    fairtriplet export   --checkpoint CKPT --data dataset.npz -o embeddings.csv
    fairtriplet report   RUN_DIR [RUN_DIR ...] -o summary.csv
    fairtriplet compare  CONFIG [CONFIG ...] -o DIR

``compare`` trains and evaluates each config in DIR/<config file stem>,
skipping a run whose report already holds that config's final step, then
writes DIR/summary.csv. The configs are all loaded and checked first, so a
bad file or a repeated stem exits 2 before any training.

Exit codes: 0 success, 1 runtime failure, 2 configuration error,
3 measurement-resolution error.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .config import ExperimentConfig, load_config
from .core import ConfigError, ResolutionError
from .datagen import generate_dataset
from .dataio import load_dataset, save_dataset
from .harness import (
    REPORT_FILE,
    aggregate_reports,
    checkpoint_name,
    export_embeddings,
    group_log_far_variance,
    latest_checkpoint,
    run_eval,
    run_training,
    write_summary_csv,
)

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2
EXIT_RESOLUTION = 3


def _load(args) -> ExperimentConfig:
    cfg = load_config(args.config)
    if getattr(args, "seed", None) is not None:
        cfg = cfg.with_(seed=args.seed)
    if getattr(args, "output_dir", None) is not None:
        cfg = cfg.with_(output_dir=args.output_dir)
    return cfg


def _cmd_generate(args) -> int:
    cfg = _load(args)
    ds = generate_dataset(cfg.data)
    save_dataset(args.out, ds)
    print(f"wrote {len(ds)} pairs (input_dim {ds.input_dim}) to {args.out}")
    return EXIT_OK


def _cmd_train(args) -> int:
    cfg = _load(args)
    resume = latest_checkpoint(cfg.output_dir) if args.resume else None
    record = run_training(cfg, stop_after=args.stop_after, resume_from=resume)
    last = record.epochs[-1] if record.epochs else {}
    print(
        f"trained to step {record.final_step} "
        f"(overall FAR {last.get('overall_far', float('nan')):.3g}, "
        f"FRR {last.get('overall_frr', float('nan')):.3g}); "
        f"metrics in {cfg.output_dir}"
    )
    return EXIT_OK


def _cmd_eval(args) -> int:
    cfg = _load(args)
    ckpt = args.checkpoint or str(latest_checkpoint(cfg.output_dir))
    report = run_eval(cfg, ckpt, out_dir=args.out)
    overall = report["overall"]
    print(
        f"theta {report['theta']:.6g} @ target FAR {report['target_far']:g}: "
        f"overall FAR {overall['far']:.3g}, FRR {overall['frr']:.3g}"
    )
    for g, v in report["group_far"].items():
        print(f"  FAR[{g}] = {v:.3g}")
    return EXIT_OK


def _cmd_export(args) -> int:
    ds = load_dataset(args.data)
    rows = export_embeddings(args.checkpoint, ds, args.out)
    print(f"wrote {rows} embedding rows to {args.out}")
    return EXIT_OK


def _print_rows(rows: list[dict], out) -> None:
    for row in rows:
        line = (
            f"{row['run']}: sampler={row['sampler']} "
            f"worst {row['worst_group']} FAR {row['worst_group_far']:.3g} "
            f"({row['worst_to_overall']:.2f}x overall), FRR {row['overall_frr']:.3g}, "
            f"worst {row['worst_frr_group']} FRR {row['worst_group_frr']:.3g} "
            f"({row['worst_frr_to_overall']:.2f}x overall)"
        )
        if "mean_log_far_variance" in row:
            line += f", log10 FAR variance {row['mean_log_far_variance']:.3g}"
        print(line)
    print(f"summary written to {out}")


def _cmd_report(args) -> int:
    rows = aggregate_reports(args.run_dirs)
    write_summary_csv(args.out, rows)
    _print_rows(rows, args.out)
    return EXIT_OK


def _finished(cfg: ExperimentConfig) -> bool:
    """Whether the run directory holds this config's report of its last step."""
    path = Path(cfg.output_dir) / "eval" / REPORT_FILE
    if not path.exists():
        return False
    report = json.loads(path.read_text())
    return (report["config_hash"] == cfg.config_hash()
            and report["checkpoint_step"] == cfg.training.total_steps)


def _cmd_compare(args) -> int:
    out = Path(args.out)
    cfgs: dict[str, ExperimentConfig] = {}
    for path in args.configs:
        stem = Path(path).stem
        if stem in cfgs:
            raise ConfigError(f"two configs named {stem!r} would share {out / stem}")
        cfgs[stem] = load_config(path).with_(output_dir=str(out / stem))
    for stem, cfg in cfgs.items():
        if _finished(cfg):
            print(f"{stem}: report of step {cfg.training.total_steps} exists, skipped")
            continue
        run_training(cfg)
        run_eval(cfg, Path(cfg.output_dir) / checkpoint_name(cfg.training.total_steps))
    rows = aggregate_reports([cfg.output_dir for cfg in cfgs.values()])
    for row, cfg in zip(rows, cfgs.values()):
        row["mean_log_far_variance"] = group_log_far_variance(
            cfg.output_dir, cfg.eval.resolved_far_floor())
    write_summary_csv(out / "summary.csv", rows)
    _print_rows(rows, out / "summary.csv")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fairtriplet", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a dataset file from the config")
    p.add_argument("-c", "--config", required=True)
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(fn=_cmd_generate)

    p = sub.add_parser("train", help="run the training loop")
    p.add_argument("-c", "--config", required=True)
    p.add_argument("-o", "--output-dir")
    p.add_argument("--seed", type=int)
    p.add_argument("--resume", action="store_true",
                   help="continue from the latest checkpoint in the output dir")
    p.add_argument("--stop-after", type=int,
                   help="interrupt after this training round (for resume tests)")
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint and write reports")
    p.add_argument("-c", "--config", required=True)
    p.add_argument("--checkpoint", help="defaults to the run's latest checkpoint")
    p.add_argument("-o", "--out", help="report directory (default: <output_dir>/eval)")
    p.add_argument("--seed", type=int)
    p.add_argument("--output-dir")
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("export", help="export embeddings for external projection")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True, help="dataset .npz file")
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(fn=_cmd_export)

    p = sub.add_parser("report", help="aggregate eval reports into one table")
    p.add_argument("run_dirs", nargs="+")
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(fn=_cmd_report)

    p = sub.add_parser("compare", help="train and evaluate each config, then aggregate")
    p.add_argument("configs", nargs="+")
    p.add_argument("-o", "--out", required=True, help="directory of the runs and summary.csv")
    p.set_defaults(fn=_cmd_compare)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except ResolutionError as e:
        print(f"resolution error: {e}", file=sys.stderr)
        return EXIT_RESOLUTION
    except Exception as e:  # noqa: BLE001 - CLI boundary
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
