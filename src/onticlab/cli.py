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
from dataclasses import dataclass, field, replace
from importlib import resources

from .bell import nonlocality_witness
from .checks import (
    CheckReport,
    LabeledEstimate,
    StateTable,
    _audit_from_table,
    _born_from_table,
    _classify_from_table,
    _max_epistemic_from_table,
    canonical_pair,
    check_measurement_noncontextuality,
    check_outcome_determinism,
    check_preparation_noncontextuality,
    find_omega_witness,
    state_table,
    triage_verdict,
)
from .errors import PreconditionError
from .integrate import MAX_N_AZIMUTH, MAX_N_POLAR, McConfig, QuadratureGrid
from .models import (
    MODEL_NAMES,
    OntologicalModel,
    StateCatalog,
    catalog_from_states,
    default_catalog,
    make_model,
)
from .qubit import (
    MeasurementBasis,
    half_half_mixture,
    orthogonal_complement,
    same_state,
    state_from_catalog_entry,
)

MIN_SAMPLES = 100
OUTPUT_FORMATS = ("json", "csv", "text")


@dataclass(frozen=True)
class RunConfig:
    model_name: str
    check_names: tuple[str, ...] = ("audit",)
    samples: int = 1_000_000
    seed: int = 42
    tolerance: float = 1e-2
    quad_polar: int = 128
    quad_azimuth: int = 256
    catalog_path: str | None = None
    output_format: str = "text"


def _basis_containing(catalog: StateCatalog, phi) -> MeasurementBasis:
    for basis in catalog.bases:
        if any(same_state(outcome, phi) for outcome in basis.outcomes):
            return basis
    return MeasurementBasis((phi, orthogonal_complement(phi)), phi.describe())


# The checks that read each part of a run's shared StateTable.
RESPONSE_CHECKS = frozenset({"born", "audit"})
OVERLAP_CHECKS = frozenset({"max-epistemic", "classify", "audit"})


@dataclass
class CheckRun:
    """The inputs of one run and the state table its checks share.

    The table is one pass over every mu_psi, built by the first check that
    reads it, with the parts any of check_names reads.  It lives as long as
    this object, so nothing computed for one catalog can reach another.
    """

    model: OntologicalModel
    catalog: StateCatalog
    cfg: McConfig
    tol: float
    grid: QuadratureGrid
    check_names: tuple[str, ...]
    _table: StateTable | None = field(default=None, init=False, repr=False)

    def table(self) -> StateTable:
        if self._table is None:
            names = set(self.check_names)
            self._table = state_table(
                self.model, self.catalog, self.cfg,
                responses=not RESPONSE_CHECKS.isdisjoint(names),
                overlaps=not OVERLAP_CHECKS.isdisjoint(names),
            )
        return self._table


def _run_born(run: CheckRun) -> CheckReport:
    return _born_from_table(run.model, run.table(), run.cfg, run.tol)


def _run_determinism(run: CheckRun) -> CheckReport:
    return check_outcome_determinism(run.model, run.catalog, run.cfg)


def _run_measurement_nc(run: CheckRun) -> CheckReport:
    return check_measurement_noncontextuality(run.model, run.catalog, run.cfg)


def _run_max_epistemic(run: CheckRun) -> CheckReport:
    return _max_epistemic_from_table(run.model, run.table(), run.cfg, run.tol)


def _run_classify(run: CheckRun) -> CheckReport:
    return _classify_from_table(run.model, run.table(), run.cfg)


def _run_prep_nc(run: CheckRun) -> CheckReport:
    psi, phi = canonical_pair(run.catalog)
    return check_preparation_noncontextuality(
        run.model, half_half_mixture(psi), half_half_mixture(phi), run.cfg, run.tol, run.grid
    )


def _run_omega(run: CheckRun) -> CheckReport:
    model, catalog, cfg, tol = run.model, run.catalog, run.cfg, run.tol
    psi, phi = canonical_pair(catalog)
    witness = find_omega_witness(model, psi, phi, _basis_containing(catalog, phi), cfg)
    mass = witness.mu_psi_mass
    return CheckReport(
        check_name="omega",
        model_name=model.name,
        verdict=triage_verdict(mass.mean, tol, mass.std_error),
        estimates=(
            LabeledEstimate("mu_psi_mass", mass.mean, mass.std_error),
            LabeledEstimate("response_mass", witness.response_mass.mean, witness.response_mass.std_error),
        ),
        tolerance=tol,
        n_samples=cfg.n_samples,
        seed=cfg.seed,
        details=(
            f"pair {psi.describe()}->{phi.describe()};"
            f" {len(witness.sample_points)} exemplar ontic states collected"
        ),
    )


def _run_nonlocality(run: CheckRun) -> CheckReport:
    psi, phi = canonical_pair(run.catalog)
    return nonlocality_witness(run.model, psi, phi, run.cfg, run.tol, run.grid)


def _run_audit(run: CheckRun) -> CheckReport:
    return _audit_from_table(run.model, run.catalog, run.table, run.cfg, run.tol, run.grid)


CHECK_RUNNERS = {
    "born": _run_born,
    "determinism": _run_determinism,
    "measurement-nc": _run_measurement_nc,
    "max-epistemic": _run_max_epistemic,
    "classify": _run_classify,
    "prep-nc": _run_prep_nc,
    "omega": _run_omega,
    "nonlocality": _run_nonlocality,
    "audit": _run_audit,
}


def expected_patterns() -> dict:
    text = resources.files("onticlab").joinpath("expected_patterns.json").read_text("utf-8")
    return json.loads(text)


def load_catalog(path: str) -> StateCatalog:
    with open(path, encoding="utf-8") as fh:
        try:
            entries = json.load(fh)
        except ValueError as exc:   # a JSON syntax error or bytes that are not UTF-8
            raise ValueError(f"--catalog {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(entries, list) or not entries:
        raise ValueError(f"--catalog {path!r} must hold a non-empty JSON array of state entries")
    return catalog_from_states([state_from_catalog_entry(e) for e in entries])


def report_as_dict(report: CheckReport) -> dict:
    return {
        "check_name": report.check_name,
        "model_name": report.model_name,
        "verdict": report.verdict,
        "estimates": [
            {"label": e.label, "mean": e.mean, "std_error": e.std_error} for e in report.estimates
        ],
        "tolerance": report.tolerance,
        "n_samples": report.n_samples,
        "seed": report.seed,
        "duration_ms": report.duration_ms,
        "details": report.details,
    }


def emit_report(reports: list[CheckReport], output_format: str) -> str:
    if output_format == "json":
        return json.dumps([report_as_dict(r) for r in reports], indent=2, sort_keys=True) + "\n"
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


def run(config: RunConfig) -> tuple[int, list[CheckReport]]:
    """Execute the configured checks; exit code 0 only for fully expected verdicts."""
    reports: list[CheckReport] = []
    try:
        model = make_model(config.model_name)
        for name in config.check_names:
            if name not in CHECK_RUNNERS:
                raise ValueError(
                    f"unknown check {name!r}; valid names: {', '.join(sorted(CHECK_RUNNERS))}"
                )
        if config.output_format not in OUTPUT_FORMATS:
            raise ValueError(
                f"unknown output format {config.output_format!r}; valid: {', '.join(OUTPUT_FORMATS)}"
            )
        if not 0 <= config.seed < 2**64:
            raise ValueError(f"--seed must be an integer in [0, 2**64), got {config.seed!r}")
        if not 0.0 < config.tolerance < 1.0:
            raise ValueError(f"--tol must be a finite number in (0, 1), got {config.tolerance!r}")
        for flag, value, cap in (
            ("--quad-polar", config.quad_polar, MAX_N_POLAR),
            ("--quad-azimuth", config.quad_azimuth, MAX_N_AZIMUTH),
        ):
            if not 1 <= value <= cap:
                raise ValueError(f"{flag} must be an integer in [1, {cap}], got {value!r}")
        catalog = load_catalog(config.catalog_path) if config.catalog_path else default_catalog()
        samples = config.samples
        if samples < MIN_SAMPLES:
            print(f"note: samples raised to the minimum of {MIN_SAMPLES}", file=sys.stderr)
            samples = MIN_SAMPLES
        cfg = McConfig(n_samples=samples, seed=config.seed)
        grid = QuadratureGrid(config.quad_polar, config.quad_azimuth)
        check_run = CheckRun(model, catalog, cfg, config.tolerance, grid, config.check_names)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2, reports

    patterns = expected_patterns().get(config.model_name, {})
    exit_code = 0
    for name in config.check_names:
        started = time.perf_counter()
        try:
            report = CHECK_RUNNERS[name](check_run)
        except (PreconditionError, ValueError) as exc:
            print(f"error: check {name!r}: {exc}", file=sys.stderr)
            return 2, reports
        report = replace(report, duration_ms=(time.perf_counter() - started) * 1e3)
        reports.append(report)
        expected = patterns.get(name)
        if report.verdict != expected:
            exit_code = 1
            print(
                f"unexpected verdict for {config.model_name}/{name}:"
                f" got {report.verdict!r}, expected {expected!r}",
                file=sys.stderr,
            )
    return exit_code, reports


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="onticlab",
        description="Run property checks on hidden-variable models of a qubit.",
    )
    parser.add_argument("--model", required=True, help=f"model name ({', '.join(MODEL_NAMES)})")
    parser.add_argument(
        "--check",
        action="append",
        metavar="NAME",
        help=f"check to run, repeatable ({', '.join(sorted(CHECK_RUNNERS))}); default: audit",
    )
    parser.add_argument("--samples", type=int, default=1_000_000, help="Monte Carlo sample count")
    parser.add_argument("--seed", type=int, default=42, help="base seed for all sampling")
    parser.add_argument("--tol", type=float, default=1e-2, help="verdict tolerance")
    parser.add_argument("--quad-polar", type=int, default=128, help="quadrature polar order per hemisphere")
    parser.add_argument("--quad-azimuth", type=int, default=256, help="quadrature azimuth count")
    parser.add_argument("--catalog", default=None, help="path to a JSON state-catalog file")
    parser.add_argument("--format", default="text", choices=OUTPUT_FORMATS, help="report format")
    args = parser.parse_args(argv)

    config = RunConfig(
        model_name=args.model,
        check_names=tuple(args.check) if args.check else ("audit",),
        samples=args.samples,
        seed=args.seed,
        tolerance=args.tol,
        quad_polar=args.quad_polar,
        quad_azimuth=args.quad_azimuth,
        catalog_path=args.catalog,
        output_format=args.format,
    )
    code, reports = run(config)
    if reports:
        sys.stdout.write(emit_report(reports, config.output_format))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
