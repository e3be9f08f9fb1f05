"""Command-line surface: run, sweep, inspect, make-fixture.

Exit codes: 0 success, 2 configuration error, 3 runtime divergence,
4 input/output failure (malformed dataset files included).
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

import numpy as np

from . import graphdata, harness
from .errors import CefglError, ConfigError, DivergenceDetected, IoError, VersionMismatch

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
EXIT_IO = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cefgl", description=__doc__)
    parser.add_argument("-v", "--verbose", action="store_true", help="log at DEBUG level")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one experiment from a config file")
    run.add_argument("config")
    run.add_argument("--out", default=None, help="output directory (default: run.out_dir)")

    sweep = sub.add_parser("sweep", help="run one experiment per axis value, shared seeds")
    sweep.add_argument("config")
    sweep.add_argument("--axis", required=True, choices=sorted(harness.SWEEP_AXES))
    sweep.add_argument("--values", required=True, help="comma-separated axis values")
    sweep.add_argument("--out", default=None)

    inspect = sub.add_parser("inspect", help="summarize a finished run directory")
    inspect.add_argument("summary_dir")

    fixture = sub.add_parser("make-fixture", help="write the tiny TU-format fixture")
    fixture.add_argument("dir")
    return parser


def _cmd_run(args) -> int:
    cfg = harness.parse_config(args.config)
    summary = harness.run_and_persist(cfg, out_dir=args.out)
    out = Path(args.out if args.out else cfg.run.out_dir)
    print(
        f"{cfg.run.algorithm}: {len(summary.records)} rounds, "
        f"final acc {summary.final_acc_mean:.4f} ± {summary.final_acc_std:.4f}, "
        f"uplink {summary.total_uplink_bits} bits, "
        f"downlink {summary.total_downlink_bits} bits -> {out}"
    )
    return EXIT_OK


def _cmd_sweep(args) -> int:
    cfg = harness.parse_config(args.config)
    values = [v.strip() for v in args.values.split(",") if v.strip()]
    if not values:
        raise ConfigError("--values must list at least one value")
    base_out = Path(args.out if args.out else cfg.run.out_dir)
    summaries = harness.run_sweep(cfg, args.axis, values)
    for value, summary in zip(values, summaries):
        point_dir = base_out / f"{args.axis}={value}"
        harness.emit_metrics(summary, point_dir)
        print(
            f"{args.axis}={value}: final acc {summary.final_acc_mean:.4f}, "
            f"total bits {summary.total_uplink_bits + summary.total_downlink_bits}"
        )
    return EXIT_OK


def _cmd_inspect(args) -> int:
    summary = harness.load_summary(args.summary_dir)
    comm = sum(1 for r in summary.records if r.communicated)
    total_bits = summary.total_uplink_bits + summary.total_downlink_bits
    print(f"rounds:            {len(summary.records)}")
    print(f"communicated:      {comm}")
    print(f"final acc:         {summary.final_acc_mean:.4f} ± {summary.final_acc_std:.4f}")
    print(f"uplink bits:       {summary.total_uplink_bits}")
    print(f"downlink bits:     {summary.total_downlink_bits}")
    ranks = [r.lowrank_rank_ratio for r in summary.records if r.lowrank_rank_ratio is not None]
    params = [r.lowrank_param_ratio for r in summary.records if r.lowrank_param_ratio is not None]
    if ranks:
        print(f"low-rank ratio:    rank {np.mean(ranks):.4f}, params {np.mean(params):.4f}")
    print(f"sparsity ratio:    {np.mean([r.sparsity_ratio for r in summary.records]):.4f}")
    print(f"wall time (model): {sum(r.wall_time for r in summary.records):.3f} s")
    print(f"total bits:        {total_bits}")
    print("consistency:       rounds.jsonl and summary.csv agree")
    return EXIT_OK


def _cmd_make_fixture(args) -> int:
    root = graphdata.write_tu_fixture(args.dir)
    print(f"fixture written under {root}")
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
    )
    handlers = {
        "run": _cmd_run,
        "sweep": _cmd_sweep,
        "inspect": _cmd_inspect,
        "make-fixture": _cmd_make_fixture,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DivergenceDetected as exc:
        print(f"diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except (IoError, VersionMismatch, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except CefglError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
