"""Command-line entry points.

Subcommands: ``make-data`` writes the bundled synthetic dataset; ``run``
executes the full pipeline for one scenario; ``demand`` and ``dispatch``
stop after the corresponding stage and emit what exists up to it;
``report --merge`` combines per-scenario summaries into one table.

Exit code 0 on success; failures print the stage tag to stderr and exit 1.
"""

from __future__ import annotations

import argparse
import sys

from gridstudy.harness import StageError, merge_summaries, run_scenario
from gridstudy.scenarioconfig import ConfigError, scenario_from_config
from gridstudy.synthdata import DEFAULT_SEED, generate_dataset


def _add_run_args(sub):
    sub.add_argument("--scenario", required=True, help="scenario config file")
    sub.add_argument("--data-dir", required=True, help="directory holding the data files")
    sub.add_argument("--out", required=True, help="output directory")
    sub.add_argument("--days", type=int, default=None,
                     help="truncate the horizon to the first N days")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="gridstudy",
                                     description="future-grid demand/dispatch/loadability study")
    commands = parser.add_subparsers(dest="command", required=True)

    gen = commands.add_parser("make-data", help="write the bundled synthetic dataset")
    gen.add_argument("--out", required=True, help="target data directory")
    gen.add_argument("--seed", type=int, default=DEFAULT_SEED)

    for name, help_text in (
        ("run", "full pipeline: prices, demand, dispatch, loadability, report"),
        ("demand", "run through the demand-scheduling stage"),
        ("dispatch", "run through the nett-demand dispatch stage"),
    ):
        _add_run_args(commands.add_parser(name, help=help_text))

    rep = commands.add_parser("report", help="merge per-scenario summaries")
    rep.add_argument("--merge", nargs="+", required=True, help="run output directories")
    rep.add_argument("--out", required=True, help="merged summary CSV path")

    args = parser.parse_args(argv)
    try:
        if args.command == "make-data":
            files = generate_dataset(args.out, seed=args.seed)
            print(f"wrote {len(files)} data files to {args.out}")
            return 0
        if args.command == "report":
            out = merge_summaries(args.merge, args.out)
            print(f"merged {len(args.merge)} summaries into {out}")
            return 0
        config = scenario_from_config(args.scenario)
        stop_after = {"demand": "demand", "dispatch": "dispatch"}.get(args.command)
        report = run_scenario(config, args.data_dir, out_dir=args.out, days=args.days,
                              stop_after=stop_after)
        if report is None:
            print(f"scenario {config.scenario_id}: stopped after the {args.command} stage; "
                  f"artifacts in {args.out}")
            return 0
        print(f"scenario {report.scenario_id}: spilled {report.spilled_energy_twh:.4f} TWh, "
              f"spilled hours {report.spilled_hours_pct:.2f}%, "
              f"GT {report.gt_energy_twh:.4f} TWh, "
              f"unserved hours {report.unserved_hours}, "
              f"loadability {report.loadability_gw:.2f} GW")
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except StageError as exc:
        print(f"pipeline failure [{exc.stage}]: {exc.cause}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
