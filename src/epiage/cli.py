"""Command-line interface.

Subcommands and the files each writes into the output directory::

    epiage thresholds  --config run.ini --out outdir [--tol T]
        report.txt
    epiage simulate    --config run.ini --out outdir [--tol T]
        report.txt initial.csv trajectory.csv b_series.csv
    epiage steady      --config run.ini --out outdir [--tol T]
        report.txt steady_states.csv
    epiage bifurcation --config run.ini --out outdir [--tol T]
        diagram.csv
    epiage preset NAME --out outdir [--tol T]
        report.txt initial.csv trajectory.csv b_series.csv steady_states.csv

The files are written by the run phases of ``presets``, in this process;
``trajectory.csv`` keeps every ``max(1, age_steps // 400)``-th age node
and the last.  This module parses arguments, loads the config, chooses
the output directory and prints a summary of what the phases computed.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import parse_config
from .errors import ModelError
from .presets import PRESETS, _diagram, _run, _simulation, _steady, _thresholds, run_preset

_DEFAULT_TOL = 1e-10

#: the run phases of each config subcommand, in order
_PHASES = {
    "thresholds": (_thresholds,),
    "simulate": (_thresholds, _simulation),
    "steady": (_thresholds, _steady),
    "bifurcation": (_diagram,),
}


def _load(args):
    path = Path(args.config)
    if not path.exists():
        raise ModelError(f"config file not found: {path}")
    return parse_config(path.read_text(), base_dir=path.parent)


def _outdir(args, config=None):
    if args.out:
        return Path(args.out)
    if config is not None and config.directory:
        return Path(config.directory)
    return Path("runs") / args.command


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="epiage",
        description="Age-structured epidemic model with nonlinear relapse",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, config_required=True):
        if config_required:
            p.add_argument("--config", required=True, help="run configuration file")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument(
            "--tol", type=float, default=_DEFAULT_TOL, help="solver tolerance"
        )

    add_common(sub.add_parser("thresholds", help="R0, RC, growth rate, region"))
    add_common(sub.add_parser("simulate", help="run the transport solver"))
    add_common(sub.add_parser("steady", help="solve for every endemic steady state"))
    add_common(sub.add_parser("bifurcation", help="sweep a rate and emit the diagram"))
    preset = sub.add_parser("preset", help="run a named desk-scale experiment")
    preset.add_argument("name", choices=PRESETS)
    add_common(preset, config_required=False)

    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except ModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    if args.command == "preset":
        _announce(run_preset(args.name, _outdir(args), tol=args.tol))
        return 0
    config = _load(args)
    written = _run(config, _outdir(args, config), args.tol, _PHASES[args.command])
    _announce(written)
    _summarize(args.command, config, written)
    return 0


def _summarize(command, config, written):
    if command == "thresholds":
        report = written["_report"]
        print(
            f"R0 = {report.r0:.6g}  RC = {report.rc:.6g}  "
            f"growth = {report.growth_rate:.6g}/yr  region = {report.region}"
        )
    elif command == "simulate":
        trajectory = written["_trajectory_object"]
        print(
            f"B(T) = {trajectory.b_series[-1]:.6g}; "
            f"max |s+i+r-1| = {trajectory.conservation_max:.3g}"
        )
    elif command == "steady":
        states = written["_states"]
        for state in states:
            print(f"fixed point B* = {state.b_star:.10g} (residual {state.residual:.2g})")
        if not states:
            print("no endemic steady state in (0, 1)")
    elif command == "bifurcation":
        for row in written["_rows"]:
            status = f"{len(row.branches)} branch(es)" if not row.error else row.error
            print(f"{config.sweep_param} = {row.swept_value:g}: R0 = {row.r0:.4g}, {status}")


def _announce(written: dict):
    for key, value in written.items():
        if not key.startswith("_"):
            print(f"wrote {value}")


if __name__ == "__main__":
    raise SystemExit(main())
