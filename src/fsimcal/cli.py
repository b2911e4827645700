"""Command-line entry point.

Subcommands: calibrate, sweep, crlb-scan, alpha-scan, confusion-check,
emit-figures.  All experiment settings live in a JSON config file; the
flags --seed/--replicates/--out/--exact override the corresponding config
fields and --jobs controls replicate-level parallelism.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time

from .fisher import SingularFisherError
from .harness import FIGURES, MODES, EmptyPointError, ExperimentConfig, emit_figure_data, run_mode


def _add_run_flags(sub):
    sub.add_argument("--config", required=True, help="path to the JSON experiment config")
    sub.add_argument("--seed", type=int, default=None, help="override the noise seed")
    sub.add_argument("--replicates", type=int, default=None, help="override the replicate count")
    sub.add_argument("--out", default=None, help="override the output directory")
    sub.add_argument("--exact", action="store_true", help="noise-free analytic mode")
    sub.add_argument("--jobs", type=int, default=1, help="processes that run replicates, this one included")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fsimcal", description="FsimGate calibration experiments")
    subs = parser.add_subparsers(dest="command", required=True)
    for name in dict.fromkeys(m.subcommand for m in MODES.values()):
        _add_run_flags(subs.add_parser(name))
    fig = subs.add_parser("emit-figures")
    fig.add_argument("--records", required=True, help="directory holding a previous run's outputs")
    fig.add_argument("--figure", required=True, choices=FIGURES)
    fig.add_argument("--out", required=True, help="directory for the figure CSV")
    return parser


def _load_config(args) -> ExperimentConfig:
    if args.jobs < 1:
        raise ValueError(f"--jobs must be >= 1, got {args.jobs}")
    config = ExperimentConfig.from_json_file(args.config)
    if MODES[config.mode].subcommand != args.command:
        raise ValueError(f"config mode {config.mode!r} does not match subcommand {args.command!r}")
    given = lambda overrides: {key: value for key, value in overrides.items() if value is not None}
    noise = dataclasses.replace(config.noise, **given({"seed": args.seed, "exact": args.exact or None}))
    return dataclasses.replace(config, noise=noise, **given({"replicates": args.replicates, "output_dir": args.out}))


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "emit-figures":
            figure = FIGURES[args.figure]
            with open(os.path.join(args.records, MODES[figure.mode].files[figure.kind]), encoding="utf-8") as fh:
                path = emit_figure_data(json.load(fh), args.figure, args.out)
            print(f"wrote {path}")
            return 0
        config = _load_config(args)
    except (OSError, ValueError) as exc:  # unreadable input, or a config rejected when it is built
        print(f"fsimcal {args.command}: {exc}", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    try:
        paths = run_mode(config, jobs=args.jobs)
    except (EmptyPointError, SingularFisherError) as exc:  # no replicate survived, or a CRLB is unbounded
        print(f"fsimcal {args.command}: {exc}", file=sys.stderr)
        return 1
    elapsed = time.perf_counter() - t0
    for kind, path in paths.items():
        print(f"{kind}: {path}")
    print(f"done in {elapsed:.1f}s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
