"""Command line interface: generate synthetic datasets, run the pipeline, print reports.

Exit codes: 0 success, 1 configuration error, 2 data error (out of memory
included), 3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .advect import PhaseConsistencyError
from .dataset_io import (
    SCENARIO_KINDS,
    DatasetError,
    SyntheticScenario,
    generate_scenario,
    read_utf8,
    write_dataset,
)
from .runtime import ConfigError, parse_config, run_pipeline

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="flowsep")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a synthetic dataset")
    gen.add_argument("--scenario", required=True, choices=SCENARIO_KINDS)
    gen.add_argument("--cells", type=int, required=True, help="cells per axis")
    gen.add_argument("--steps", type=int, required=True, help="stored time steps")
    gen.add_argument("--out", required=True, help="output dataset directory")
    # unset scenario flags stay off the namespace: SyntheticScenario's defaults apply
    for flag in ("--span", "--radius", "--speed", "--offset", "--t-split"):
        gen.add_argument(flag, type=float, default=argparse.SUPPRESS)
    gen.add_argument("--center", default=argparse.SUPPRESS)

    run = sub.add_parser("run", help="run the pipeline from a config file")
    run.add_argument("--config", required=True)

    rep = sub.add_parser("report", help="print the report of a finished run")
    rep.add_argument("--run", required=True, help="run output directory")
    return parser


def _cmd_gen(args) -> int:
    names = ("span", "radius", "speed", "offset", "t_split", "center")
    kwargs = {k: v for k, v in vars(args).items() if k in names}
    if "center" in kwargs:
        try:
            center = tuple(float(v) for v in args.center.split(","))
        except ValueError:
            center = ()
        if len(center) != 3:
            raise ConfigError(f"--center needs three comma-separated numbers, got {args.center!r}")
        kwargs["center"] = center
    ds = generate_scenario(SyntheticScenario(args.scenario, args.cells, args.steps, **kwargs))
    manifest = write_dataset(ds, args.out)
    print(f"wrote {len(ds)} steps to {manifest}")
    return EXIT_OK


def _cmd_run(args) -> int:
    config = parse_config(args.config)
    result = run_pipeline(config)
    rep = result.report
    print(
        f"particles={rep.particles} intervals={len(rep.intervals)} "
        f"splits={len(rep.splits)} b_meshes={len(result.b_meshes)} "
        f"s_meshes={len(result.s_meshes)} max_eps={rep.max_eps:.3g}"
    )
    if config.output is not None:
        print(f"artifacts in {config.output}")
    return EXIT_OK


def _cmd_report(args) -> int:
    report_file = Path(args.run) / "report.tsv"
    if not report_file.exists():
        raise DatasetError(f"no report at {report_file}")
    sys.stdout.write(read_utf8(report_file))
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "gen":
            return _cmd_gen(args)
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_report(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DatasetError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except MemoryError as exc:
        print(f"data error: out of memory ({exc})", file=sys.stderr)
        return EXIT_DATA
    except PhaseConsistencyError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
