"""Command-line entry points: run, reproduce, plot."""

from __future__ import annotations

import argparse
import sys

from .experiments import (
    REPRO_ITERATIONS,
    ConfigError,
    ExperimentConfig,
    check_count,
    emit_svg_plot,
    read_trace_csv,
    reproduce_paper_experiment,
    run_experiment,
)
from .solvers import DivergenceError

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DIVERGED = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pushopt",
        description=(
            "Simulate decentralized first-order optimization over directed "
            "graphs and compare accelerated and baseline solvers."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment described by a JSON config")
    p_run.add_argument("--config", required=True, help="path to the JSON config file")
    p_run.add_argument("--out", default=None, help="output directory (overrides config)")
    p_run.add_argument(
        "--seed", type=int, default=None, help="override the Gaussian init seed"
    )

    p_rep = sub.add_parser(
        "reproduce", help="run the benchmark logistic-regression comparison"
    )
    p_rep.add_argument(
        "--case", required=True, choices=("nonstrongly", "strongly"),
        help="objective variant: unpenalized or l2-penalized",
    )
    p_rep.add_argument(
        "--data",
        default=None,
        help="labeled CSV dataset; omit to use the deterministic synthetic set",
    )
    p_rep.add_argument("--out", default="reproduction", help="output directory")
    p_rep.add_argument("--iters", type=int, default=REPRO_ITERATIONS, help="iteration count")

    p_plot = sub.add_parser("plot", help="render trace CSVs as an SVG comparison")
    p_plot.add_argument(
        "--in", dest="inputs", required=True, nargs="+", help="trace CSV files"
    )
    p_plot.add_argument("--out", required=True, help="output SVG path")
    p_plot.add_argument(
        "--axes", default="semilogy", choices=("loglog", "semilogy"),
        help="axis scaling for the loss curves",
    )
    return parser


def _print_gaps(summary: dict) -> None:
    """Each run's final gap, and one stderr line naming every run whose final
    gap is above its start gap or not finite."""
    above = []
    for name, info in summary["algorithms"].items():
        print(f"{name}: final gap {info['final_gap']:.3e}")
        if info["final_above_start"]:
            above.append(name)
    if above:
        print(
            f"warning: final gap above the start gap or not finite: {', '.join(above)}",
            file=sys.stderr,
        )


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            config = ExperimentConfig.from_json(args.config)
            if args.out is not None:
                config.run["out_dir"] = args.out
            if args.seed is not None:
                config.init["x0_seed"] = check_count("--seed", args.seed)
            summary, _ = run_experiment(config)
            _print_gaps(summary)
            print(f"wrote traces and summary.json to {config.run['out_dir']}")
        elif args.command == "reproduce":
            check_count("--iters", args.iters)
            summary, _ = reproduce_paper_experiment(
                args.data, args.case, args.out, iters=args.iters
            )
            _print_gaps(summary)
            comp = summary["comparison"]
            print(
                f"accelerated method no worse than pushdiging: {comp['accelerated_no_worse']}"
            )
            print(f"wrote traces, comparison.svg and summary.json to {args.out}")
        else:
            traces = [read_trace_csv(p) for p in args.inputs]
            emit_svg_plot(traces, args.out, axes=args.axes)
            print(f"wrote {args.out}")
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except (ConfigError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
