"""Command-line entry point: pick a model and checks, emit reports, exit by verdict.

Exit codes: 0 when every verdict matches the expected pattern shipped for the
model, 1 on unexpected verdicts, 2 on configuration or input errors.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from dataclasses import asdict, replace
from importlib import resources

from .bell import nonlocality_witness
from .checks import (
    CheckReport,
    CheckRun,
    LabeledEstimate,
    audit_implication_chain,
    canonical_pair,
    check_born_reproduction,
    check_max_psi_epistemic,
    check_measurement_noncontextuality,
    check_omega_witness,
    check_outcome_determinism,
    check_preparation_noncontextuality,
    classify_ontology,
)
from .errors import FieldError
from .integrate import MIN_SAMPLES, McConfig, QuadratureGrid
from .models import MODEL_NAMES, StateCatalog, catalog_from_states, default_catalog, make_model
from .qubit import half_half_mixture, state_from_catalog_entry

OUTPUT_FORMATS = ("json", "csv", "text")
DEFAULT_CHECKS = ("audit",)
# The flag that sets each validated field of McConfig, QuadratureGrid and CheckRun.
FIELD_FLAGS = {
    "n_samples": "--samples",
    "seed": "--seed",
    "tol": "--tol",
    "n_polar": "--quad-polar",
    "n_azimuth": "--quad-azimuth",
}


def _run_prep_nc(run: CheckRun) -> CheckReport:
    psi, phi = canonical_pair(run.catalog)
    return check_preparation_noncontextuality(run, half_half_mixture(psi), half_half_mixture(phi))


def _run_nonlocality(run: CheckRun) -> CheckReport:
    return nonlocality_witness(run, *canonical_pair(run.catalog))


CHECK_RUNNERS = {
    "born": check_born_reproduction,
    "determinism": check_outcome_determinism,
    "measurement-nc": check_measurement_noncontextuality,
    "max-epistemic": check_max_psi_epistemic,
    "classify": classify_ontology,
    "prep-nc": _run_prep_nc,
    "omega": check_omega_witness,
    "nonlocality": _run_nonlocality,
    "audit": audit_implication_chain,
}


def expected_patterns() -> dict:
    text = resources.files("onticlab").joinpath("expected_patterns.json").read_text("utf-8")
    return json.loads(text)


def load_catalog(path: str) -> StateCatalog:
    try:
        with open(path, encoding="utf-8") as fh:
            entries = json.load(fh)
    except OSError as exc:   # a missing file, a directory, no read permission
        raise ValueError(f"--catalog {path!r} cannot be read: {exc.strerror or exc}") from exc
    except ValueError as exc:   # a JSON syntax error or bytes that are not UTF-8
        raise ValueError(f"--catalog {path!r} is not valid JSON: {exc}") from exc
    except RecursionError as exc:   # arrays or objects nested deeper than the parser recurses
        raise ValueError(f"--catalog {path!r} is nested too deeply to parse") from exc
    if not isinstance(entries, list) or not entries:
        raise ValueError(f"--catalog {path!r} must hold a non-empty JSON array of state entries")
    states = []
    for index, entry in enumerate(entries):
        try:
            states.append(state_from_catalog_entry(entry))
        except ValueError as exc:
            raise ValueError(f"--catalog {path!r} entry {index}: {exc}") from exc
    return catalog_from_states(states)


def emit_report(reports: list[CheckReport], output_format: str) -> str:
    if output_format == "json":
        return json.dumps([asdict(r) for r in reports], indent=2, sort_keys=True) + "\n"
    if output_format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(
            ["check_name", "model_name", "verdict", "label", "mean", "std_error",
             "tolerance", "n_samples", "seed"]
        )
        for r in reports:
            rows = r.estimates or (LabeledEstimate("", float("nan"), float("nan")),)
            for e in rows:
                writer.writerow(
                    [r.check_name, r.model_name, r.verdict, e.label, repr(e.mean),
                     repr(e.std_error), repr(r.tolerance), r.n_samples, r.seed]
                )
        return buf.getvalue()
    if output_format == "text":
        lines = [f"{'CHECK':<16} {'MODEL':<13} {'VERDICT':<14} {'N':>9} {'SEED':>6}  DETAILS"]
        for r in reports:
            detail = r.details if len(r.details) <= 100 else r.details[:97] + "..."
            lines.append(
                f"{r.check_name:<16} {r.model_name:<13} {r.verdict:<14}"
                f" {r.n_samples:>9} {r.seed:>6}  {detail}"
            )
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown output format {output_format!r}; valid: {', '.join(OUTPUT_FORMATS)}")


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    """The command line's settings; each flag defaults to the library field it sets."""
    parser = argparse.ArgumentParser(
        prog="onticlab", description="Run property checks on hidden-variable models of a qubit."
    )
    parser.add_argument("--model", required=True, help=f"model name ({', '.join(MODEL_NAMES)})")
    parser.add_argument(
        "--check", dest="check_names", action="append", choices=sorted(CHECK_RUNNERS), metavar="NAME",
        help=f"check to run, repeatable ({', '.join(sorted(CHECK_RUNNERS))});"
        f" default: {', '.join(DEFAULT_CHECKS)}",
    )
    parser.add_argument("--samples", type=int, default=McConfig.n_samples, help="Monte Carlo sample count")
    parser.add_argument("--seed", type=int, default=McConfig.seed, help="base seed for all sampling")
    parser.add_argument("--tol", type=float, default=CheckRun.tol, help="verdict tolerance")
    parser.add_argument("--quad-polar", type=int, default=QuadratureGrid.n_polar,
                        help="quadrature polar order per hemisphere")
    parser.add_argument("--quad-azimuth", type=int, default=QuadratureGrid.n_azimuth,
                        help="quadrature azimuth count")
    parser.add_argument("--catalog", help="path to a JSON state-catalog file")
    parser.add_argument("--format", choices=OUTPUT_FORMATS, default="text", help="report format")
    args = parser.parse_args(argv)
    args.check_names = tuple(args.check_names or DEFAULT_CHECKS)
    return args


def run(args: argparse.Namespace) -> tuple[int, list[CheckReport]]:
    """Execute the parsed checks; exit code 0 only for fully expected verdicts."""
    reports: list[CheckReport] = []
    try:
        model = make_model(args.model)
        samples = args.samples
        # a count of 1..99 is raised; McConfig rejects zero and negative counts
        if 0 < samples < MIN_SAMPLES:
            print(f"note: samples raised to the minimum of {MIN_SAMPLES}", file=sys.stderr)
            samples = MIN_SAMPLES
        cfg = McConfig(n_samples=samples, seed=args.seed)
        grid = QuadratureGrid(args.quad_polar, args.quad_azimuth)
        catalog = load_catalog(args.catalog) if args.catalog else default_catalog()
        check_run = CheckRun(model, catalog, cfg, args.check_names, args.tol, grid)
    except FieldError as exc:
        print(f"error: {exc.worded(FIELD_FLAGS.get(exc.field, exc.field))}", file=sys.stderr)
        return 2, reports
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2, reports

    patterns = expected_patterns().get(args.model, {})
    exit_code = 0
    for name in args.check_names:
        started = time.perf_counter()
        try:
            report = CHECK_RUNNERS[name](check_run)
        except ValueError as exc:
            print(f"error: check {name!r}: {exc}", file=sys.stderr)
            return 2, reports
        report = replace(report, duration_ms=(time.perf_counter() - started) * 1e3)
        reports.append(report)
        expected = patterns.get(name)
        if report.verdict != expected:
            exit_code = 1
            print(
                f"unexpected verdict for {args.model}/{name}:"
                f" got {report.verdict!r}, expected {expected!r}",
                file=sys.stderr,
            )
    return exit_code, reports


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    code, reports = run(args)
    if reports:
        sys.stdout.write(emit_report(reports, args.format))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
