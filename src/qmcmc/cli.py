"""Command-line experiment runner.

Subcommands: run, compare, spectra, transpile-report, list.  JSON is the
canonical output format; csv flattens histograms and table prints a summary.
Exit codes: 0 success, 1 assertion threshold exceeded (or no TVD to assert
on), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import QmcmcError, SchemaError
from .experiments import (
    EXPERIMENT_NAMES,
    SPECTRAL_WALKS,
    ExperimentReport,
    ExperimentSpec,
    compare,
    run,
    run_with_comparison,
    transpile_report,
)
from .noise import NoiseModel

# Spectral checks measure nothing; they run through `spectra`.
_MEASURED = tuple(name for name in EXPERIMENT_NAMES if name != "spectral-check")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmcmc",
        description="Quantum Markov chain Monte Carlo experiment runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a named measurement experiment")
    p_run.add_argument("--experiment", required=True, choices=_MEASURED)
    p_run.add_argument("--delta", type=float, default=0.25)
    p_run.add_argument("--angle", type=float, default=None, help="acceptance angle (radians)")
    p_run.add_argument("--shots", type=int, default=10_000)
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--noise", type=Path, default=None, help="noise model JSON file")
    p_run.add_argument("--out", type=Path, default=None)
    p_run.add_argument("--format", choices=("json", "csv", "table"), default="json")
    p_run.add_argument("--compare-to", default="expected", help="expected or a device name")
    p_run.add_argument(
        "--assert",
        dest="assert_tvd",
        type=float,
        default=None,
        metavar="TVD",
        help="exit 1 if the comparison TVD exceeds this threshold or is null",
    )

    p_cmp = sub.add_parser("compare", help="compare a stored report against a reference")
    p_cmp.add_argument("report", type=Path)
    p_cmp.add_argument("--reference", default="expected")
    p_cmp.add_argument("--assert", dest="assert_tvd", type=float, default=None, metavar="TVD")

    p_spec = sub.add_parser("spectra", help="eigenphase correspondence report")
    p_spec.add_argument("--encoding", choices=tuple(SPECTRAL_WALKS), default="szegedy")
    p_spec.add_argument("--delta", type=float, default=0.25)
    p_spec.add_argument("--angle", type=float, default=None)
    p_spec.add_argument("--out", type=Path, default=None)

    p_tr = sub.add_parser("transpile-report", help="native gate counts vs references")
    p_tr.add_argument("--delta", type=float, default=0.25)
    p_tr.add_argument("--out", type=Path, default=None)

    sub.add_parser("list", help="list the experiments run takes and the encodings spectra takes")
    return parser


def _emit(text: str, out: Path | None):
    if out is None:
        print(text)
    else:
        out.write_text(text + "\n")


def _report_csv(report: ExperimentReport) -> str:
    shots = sum(report.histogram.values())
    lines = ["outcome,count,probability"]
    for k in sorted(report.histogram):
        c = report.histogram[k]
        lines.append(f"{k},{c},{c / shots:.6f}")
    return "\n".join(lines)


def _report_table(report: ExperimentReport) -> str:
    lines = [
        f"experiment: {report.spec.name}",
        f"bit order:  {' '.join(report.bit_order)}",
        f"shots:      {sum(report.histogram.values())}",
    ]
    if report.success_count is not None:
        lines.append(f"successes:  {report.success_count}")
    lines.append("outcome  count")
    for k in sorted(report.histogram, key=lambda k: -report.histogram[k]):
        lines.append(f"{k:>7}  {report.histogram[k]}")
    for key, value in report.derived.items():
        lines.append(f"{key}: {value}")
    if report.comparison is not None:
        tvd = report.comparison["tvd"]
        shown = "null" if tvd is None else f"{tvd:.4f}"
        lines.append(f"tvd vs {report.comparison['source']}: {shown}")
    return "\n".join(lines)


def _exceeds(comparison: dict, threshold: float | None) -> bool:
    """True if ``--assert`` was given and the TVD is null (nothing to compare) or above it."""
    if threshold is None:
        return False
    return comparison["tvd"] is None or comparison["tvd"] > threshold


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "list":
            print("experiments (qmcmc run --experiment):", *_MEASURED, sep="\n  ")
            print("encodings (qmcmc spectra --encoding):", *SPECTRAL_WALKS, sep="\n  ")
            return 0
        if args.command == "transpile-report":
            _emit(json.dumps(transpile_report(args.delta), indent=2, sort_keys=True), args.out)
            return 0
        if args.command == "spectra":
            spec = ExperimentSpec(
                "spectral-check",
                delta=args.delta,
                acceptance_angle=args.angle,
                encoding=args.encoding,
            )
            report = run(spec)
            _emit(json.dumps(report.derived["spectral"], indent=2, sort_keys=True), args.out)
            return 0 if report.derived["spectral"]["ok"] else 1
        if args.command == "compare":
            report = ExperimentReport.from_dict(json.loads(args.report.read_text()))
            summary = compare(report, args.reference)
            print(json.dumps(summary, indent=2, sort_keys=True))
            return 1 if _exceeds(summary, args.assert_tvd) else 0
        # run
        noise = None
        if args.noise is not None:
            noise = NoiseModel.from_json(args.noise.read_text())
        spec = ExperimentSpec(
            args.experiment,
            delta=args.delta,
            acceptance_angle=args.angle,
            shots=args.shots,
            seed=args.seed,
            noise=noise,
        )
        report = run_with_comparison(spec, args.compare_to)
        if args.format == "json":
            _emit(report.to_json(), args.out)
        elif args.format == "csv":
            _emit(_report_csv(report), args.out)
        else:
            _emit(_report_table(report), args.out)
        return 1 if _exceeds(report.comparison, args.assert_tvd) else 0
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except QmcmcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, json.JSONDecodeError, KeyError, MemoryError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
