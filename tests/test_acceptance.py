"""End-to-end acceptance suite.

Each test is one acceptance criterion, run at its stated tolerance and the
full default sampling budget; the conftest hook prints one PASS/FAIL line per
criterion at the end of the run.
"""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from onticlab.bell import make_max_entangled, nonlocality_witness, steer, steering_basis
from onticlab.checks import (
    SATISFIED,
    VIOLATED,
    CheckRun,
    EnsembleDistribution,
    audit_implication_chain,
    check_born_reproduction,
    check_max_psi_epistemic,
    check_measurement_noncontextuality,
    check_outcome_determinism,
    check_preparation_noncontextuality,
    classify_ontology,
    find_omega_witness,
)
from onticlab.cli import emit_report, expected_patterns, parse_args, run
from onticlab.integrate import McConfig, QuadratureGrid, sphere_quadrature
from onticlab.models import StateCatalog, default_catalog, make_model
from onticlab.qubit import (
    MINUS_X,
    MINUS_Z,
    PLUS_X,
    PLUS_Z,
    MeasurementBasis,
    born_probability,
    half_half_mixture,
    orthogonal_complement,
)

from batch_of_one import density_gap, gauss_1d, random_states

FULL = McConfig(n_samples=1_000_000, seed=42)
GRID = QuadratureGrid()
TOL = 1e-2
QUAD_TOL = 1e-3

KS = make_model("ks")
BM = make_model("bell-mermin")
X_BASIS = MeasurementBasis((PLUS_X, MINUS_X), "x")


def overlap_rows(report, catalog):
    """The max-epistemic rows, one per ordered pair in catalog order.

    Each row is the support overlap of its pair, drawn on its own, bit for bit
    (test_checks.py::TestMaxPsiEpistemic::test_rows_are_the_overlap_integrals),
    so the criteria read the overlaps from the report instead of drawing them again.
    """
    pairs = [f"{psi.describe()}->{phi.describe()}" for psi in catalog.states for phi in catalog.states]
    assert [row.label for row in report.estimates] == pairs
    return report.estimates


@pytest.fixture(scope="module")
def extended_catalog():
    base = default_catalog()
    return StateCatalog(base.states + random_states(2026, 12), base.bases)


@pytest.fixture(scope="module")
def audits():
    catalog = default_catalog()
    return {
        name: audit_implication_chain(
            CheckRun(make_model(name), catalog, FULL, ("audit",), TOL, GRID)
        )
        for name in ("ks", "bell-mermin", "const-half", "label-reader")
    }


def test_criterion_1_born_reproduction(extended_catalog):
    """Monte Carlo Born agreement for both models; quadrature cross-check for the cap model."""
    for model in (KS, BM):
        report = check_born_reproduction(CheckRun(model, extended_catalog, FULL, ("born",), TOL))
        assert report.verdict == SATISFIED
        assert len(report.estimates) == len(extended_catalog.states) * 6
        rows = iter(report.estimates)
        for psi in extended_catalog.states:
            for basis in extended_catalog.bases:
                for idx in (0, 1):
                    row = next(rows)
                    target = born_probability(basis.outcomes[idx], psi)
                    assert abs(row.mean - target) <= max(TOL, 5 * row.std_error)
    worst = 0.0
    for psi in extended_catalog.states:
        density = lambda p, psi=psi: KS.density_batch(psi, p)
        for basis in extended_catalog.bases:
            for idx in (0, 1):
                response = lambda p, b=basis, i=idx: KS.response_batch(b, p)[i]
                value = sphere_quadrature(lambda p: response(p) * density(p), GRID)
                worst = max(worst, abs(value - born_probability(basis.outcomes[idx], psi)))
    assert worst <= QUAD_TOL


def test_criterion_2_cap_model_maximally_epistemic():
    """Support overlap equals the Born probability for every catalog pair."""
    catalog = default_catalog()
    report = check_max_psi_epistemic(CheckRun(KS, catalog, FULL, ("max-epistemic",), TOL))
    assert report.verdict == SATISFIED
    rows = iter(overlap_rows(report, catalog))
    for psi in catalog.states:
        for phi in catalog.states:
            est = next(rows)
            born = born_probability(phi, psi)
            assert abs(est.mean - born) <= 5 * est.std_error
            quad = sphere_quadrature(
                lambda p: KS.in_support_batch(phi, p).astype(float)
                * KS.density_batch(psi, p),
                GRID,
            )
            assert abs(quad - born) <= QUAD_TOL


def test_criterion_3_pair_model_fails_maximal_epistemicity():
    """Disjoint supports: overlap is exactly zero, so the deficit equals the Born probability."""
    catalog = default_catalog()
    report = check_max_psi_epistemic(CheckRun(BM, catalog, FULL, ("max-epistemic",), TOL))
    assert report.verdict == VIOLATED
    rows = iter(overlap_rows(report, catalog))
    for psi in catalog.states:
        for phi in catalog.states:
            est = next(rows)
            born = born_probability(phi, psi)
            if psi == phi:
                assert est.mean == 1.0
                continue
            assert est.mean == 0.0 and est.std_error == 0.0
            deficit = born - est.mean
            assert abs(deficit - born) <= 5 * est.std_error
            if born > 1e-12:
                assert deficit > 0.0


def test_criterion_4_determinism_and_noncontextuality():
    """Zero violations for both models; each negative control fails its targeted check."""
    catalog = default_catalog()
    for model in (KS, BM):
        det = check_outcome_determinism(CheckRun(model, catalog, FULL, ("determinism",)))
        assert det.verdict == SATISFIED and det.estimates[0].mean == 0.0
        mnc = check_measurement_noncontextuality(CheckRun(model, catalog, FULL, ("measurement-nc",)))
        assert mnc.verdict == SATISFIED and mnc.estimates[0].mean == 0.0
    const_run = CheckRun(make_model("const-half"), catalog, FULL, ("determinism",))
    assert check_outcome_determinism(const_run).verdict == VIOLATED
    reader_run = CheckRun(make_model("label-reader"), catalog, FULL, ("measurement-nc",))
    assert check_measurement_noncontextuality(reader_run).verdict == VIOLATED


def test_criterion_5_preparation_contextuality_of_cap_model():
    """The z and x equal mixtures share a density operator but not a distribution."""
    e_z = half_half_mixture(PLUS_Z)
    e_x = half_half_mixture(PLUS_X)
    assert density_gap(e_z.vec(), np.zeros(3)) <= 2e-12
    assert density_gap(e_x.vec(), np.zeros(3)) <= 2e-12

    prep_run = CheckRun(KS, default_catalog(), FULL, ("prep-nc",), TOL, GRID)
    report = check_preparation_noncontextuality(prep_run, e_z, e_x)
    assert report.verdict == VIOLATED
    tv = report.estimates[0].mean
    assert tv > 0.1

    # piecewise closed-form oracle for the reduced 1-dim integral
    def j_low(u):
        s = np.sqrt(1.0 - u * u)
        return 4.0 * (
            2.0 * np.sqrt(1.0 - 2.0 * u * u)
            - 2.0 * u * np.arccos(np.minimum(u / s, 1.0))
            + u * np.pi / 2.0
            - s
        )

    def j_high(u):
        return 4.0 * (u * np.pi / 2.0 - np.sqrt(1.0 - u * u))

    half_sqrt2 = 1.0 / math.sqrt(2.0)
    oracle = (
        2.0 * (gauss_1d(j_low, 0.0, half_sqrt2, 600) + gauss_1d(j_high, half_sqrt2, 1.0, 600))
    ) / (4.0 * np.pi)
    assert abs(oracle - (math.sqrt(2.0) - 1.0)) <= 1e-10
    assert abs(tv - oracle) <= 0.01 * oracle

    mixture = EnsembleDistribution(KS, e_z)
    angles = 2 * np.pi * np.arange(100) / 100
    equator = np.stack([np.cos(angles), np.sin(angles), np.zeros(100)], axis=1)
    np.testing.assert_array_equal(mixture.density_batch(equator), np.zeros(100))


def test_criterion_6_omega_witness_masses():
    """The obstruction set has mass 1/2 for the pair model and zero for the cap model."""
    witness = find_omega_witness(BM, PLUS_Z, PLUS_X, X_BASIS, FULL)
    cap_fraction = born_probability(PLUS_X, PLUS_Z)   # hemisphere: exactly 1/2
    assert cap_fraction == 0.5
    assert abs(witness.mu_psi_mass.mean - cap_fraction) <= 5 * witness.mu_psi_mass.std_error
    ks_witness = find_omega_witness(KS, PLUS_Z, PLUS_X, X_BASIS, FULL)
    assert abs(ks_witness.mu_psi_mass.mean) <= 5 * ks_witness.mu_psi_mass.std_error
    assert ks_witness.mu_psi_mass.mean == 0.0


def test_criterion_7_steering_construction():
    """Remote preparation: exact 50/50 collapse, maximally mixed marginals, witness firing."""
    pairs = list(zip(random_states(7, 20), random_states(8, 20)))
    for psi, phi in pairs:
        basis, _ = steering_basis(psi, phi)   # internally verified at 1e-10
        ens = steer(make_max_entangled(psi), basis)
        (p0, bob0), (p1, bob1) = ens.entries
        assert abs(p0 - 0.5) <= 1e-10 and abs(p1 - 0.5) <= 1e-10
        assert np.abs(bob0.vec() - phi.vec()).max() <= 1e-10
        assert np.abs(bob1.vec() + phi.vec()).max() <= 1e-10
        assert density_gap(ens.vec(), np.zeros(3)) <= 2e-12
    for name in ("ks", "bell-mermin"):
        witness_run = CheckRun(make_model(name), default_catalog(), FULL, ("nonlocality",), TOL, GRID)
        fired = nonlocality_witness(witness_run, PLUS_Z, PLUS_X)
        assert fired.verdict == VIOLATED
        quiet = nonlocality_witness(witness_run, PLUS_Z, PLUS_Z)
        assert quiet.verdict == SATISFIED


def test_criterion_8_implication_chain_audit(audits):
    """Observed verdict patterns match the shipped table; no chain counterexample."""
    patterns = expected_patterns()
    for name, report in audits.items():
        assert report.verdict == SATISFIED
        assert "chain=consistent" in report.details
        observed = dict(
            part.split("=", 1) for part in report.details.split("; ") if "=" in part
        )
        expected = patterns[name]
        for check in ("born", "determinism", "measurement-nc", "max-epistemic", "prep-nc", "classify"):
            assert observed[check] == expected[check], (name, check)


def test_criterion_9_reproducible_reports():
    """Identical run configurations yield byte-identical JSON, duration aside."""
    config = parse_args(
        ["--model", "ks", "--check", "born", "--check", "prep-nc", "--check", "classify",
         "--samples", "50000", "--seed", "42", "--format", "json"]
    )
    outputs = []
    for _ in range(2):
        code, reports = run(config)
        assert code == 0
        outputs.append(emit_report([replace(r, duration_ms=0.0) for r in reports], "json"))
    assert outputs[0] == outputs[1]
    assert outputs[0].encode("utf-8") == outputs[1].encode("utf-8")
