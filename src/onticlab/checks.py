"""Property checkers for hidden-variable models, emitting machine-readable reports.

Every statistical verdict is Comparison.verdict: a report row against its
exact target.  A discrepancy within the tolerance is "satisfied"; one that
exceeds the tolerance but sits inside the 5-sigma resolution of the row is
"inconclusive" (insufficient power to call it either way); anything beyond
both is "violated".
"""

from __future__ import annotations

import math
import numbers
from collections import namedtuple
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import FieldError, PreconditionError
from .integrate import (
    MIN_SAMPLES,
    McConfig,
    McEstimate,
    QuadratureGrid,
    RunningSums,
    mc_expectation,
    mc_expectations,
    stratified,
    tv_distance,
    walk,
)
from .models import RELABEL_MARK, Batch, OntologicalModel, StateCatalog, _index
from .qubit import (
    Ensemble,
    MeasurementBasis,
    PureState,
    born_probability,
    density_operators_equal,
    ensemble_density_operator,
    half_half_mixture,
    orthogonal_complement,
    same_state,
)

SATISFIED = "satisfied"
VIOLATED = "violated"
INCONCLUSIVE = "inconclusive"
PSI_ONTIC = "psi-ontic"
PSI_EPISTEMIC = "psi-epistemic"

DENSITY_OP_TOL = 1e-12
OMEGA_EXAMPLES = 10      # the most Omega hits an Omega witness counts as exemplars


@dataclass(frozen=True)
class LabeledEstimate:
    label: str
    mean: float
    std_error: float


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one checker run, reproducible bit-for-bit given (seed, cfg)."""

    check_name: str
    model_name: str
    verdict: str
    estimates: tuple[LabeledEstimate, ...]
    tolerance: float
    n_samples: int
    seed: int
    details: str = ""
    duration_ms: float = 0.0


@dataclass(frozen=True)
class Comparison:
    """A report row and the exact value it estimates: the one rule of statistical verdicts."""

    row: LabeledEstimate
    target: float

    def disc(self) -> float:
        return abs(self.row.mean - self.target)

    def verdict(self, tol: float) -> str:
        """Satisfied within tol, inconclusive within the row's 5-sigma resolution, else violated."""
        disc = self.disc()
        if disc <= tol:
            return SATISFIED
        if disc <= 5.0 * self.row.std_error:
            return INCONCLUSIVE
        return VIOLATED


def _combine(verdicts) -> str:
    if VIOLATED in verdicts:
        return VIOLATED
    if INCONCLUSIVE in verdicts:
        return INCONCLUSIVE
    return SATISFIED


def _prepare_sampler(model: OntologicalModel, psi: PureState):
    return lambda seed, start, count: model.prepare_batch(psi, seed, start, count)


# Each part of a run's source pass: what it holds, and the checks that read it.
PASS_PARTS = {
    "responses": ("the state table's responses", frozenset({"born", "nonlocality", "audit"})),
    "overlaps": ("the state table's overlaps", frozenset({"max-epistemic", "classify", "audit"})),
    "scan": ("the response scan", frozenset({"determinism", "measurement-nc", "audit"})),
    "omega": ("the Omega witness", frozenset({"omega"})),
}


@dataclass
class CheckRun:
    """The inputs of one run of checks and the work its checks share.

    Every check of a run is a function of this object, and construction
    validates what the config objects do not: tol must be a finite number in
    (0, 1) and check_names a non-empty tuple of strings.  Every pass that
    draws samples and is shared goes through once(), whose memo lives as long
    as this object: the one source pass over the catalog's streams (the state
    table, the response scan of determinism and measurement-nc, and the Omega
    witness; see source_pass) and every comparison of two preparations (see
    check_preparation_noncontextuality), whichever check or caller asks for
    it.  A comparison's report is kept; a report built from the source pass
    is rebuilt, not stored.  No check builds a run of its own, and nothing
    computed for one catalog can reach another.
    """

    model: OntologicalModel
    catalog: StateCatalog
    cfg: McConfig
    check_names: tuple[str, ...]
    tol: float = 1e-2
    grid: QuadratureGrid = QuadratureGrid()
    _memo: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        tol = self.tol
        # NaN and the infinities fail the range test
        if isinstance(tol, bool) or not isinstance(tol, numbers.Real) or not 0.0 < tol < 1.0:
            raise FieldError("tol", "a finite number in (0, 1)", tol)
        names = self.check_names
        if not isinstance(names, tuple) or not names or not all(isinstance(n, str) for n in names):
            raise FieldError("check_names", "a non-empty tuple of strings", names)

    def once(self, key, compute):
        """The memo of passes: compute() once per key, which holds all it depends on beyond the run."""
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    def part(self, part: str, check_name: str):
        """One of PASS_PARTS of the run's source pass, for check_name.

        The pass draws each catalog stream once, made by the first check that
        reads any part, with the parts any of check_names reads.  A part that
        no check of the run declares is a PreconditionError naming check_name,
        raised before any stream is drawn.
        """
        what, readers = PASS_PARTS[part]
        if readers.isdisjoint(self.check_names):
            raise PreconditionError(
                f"check {check_name!r} reads {what}, which none of the"
                f" run's checks ({', '.join(self.check_names)}) declares"
            )
        return self.once("source-pass", lambda: source_pass(self))[part]

    def report(
        self, check_name: str, verdict: str, estimates, details: str, tolerance: float | None = None
    ) -> CheckReport:
        """A report of this run; the tolerance is the run's unless given."""
        return CheckReport(
            check_name=check_name,
            model_name=self.model.name,
            verdict=verdict,
            estimates=tuple(estimates),
            tolerance=self.tol if tolerance is None else tolerance,
            n_samples=self.cfg.n_samples,
            seed=self.cfg.seed,
            details=details,
        )


def _require_bases(run: CheckRun) -> tuple[MeasurementBasis, ...]:
    """The catalog's bases; a catalog without one leaves no response value to check."""
    if not run.catalog.bases:
        raise PreconditionError("the catalog has no measurement basis, so no response value to check")
    return run.catalog.bases


def check_born_reproduction(run: CheckRun) -> CheckReport:
    """Compare E[response] under every preparation against the Born probability.

    Samples for one preparation are shared across all of its (basis, outcome)
    triples; each estimate stays unbiased and the whole table is deterministic.
    """
    _require_bases(run)
    comparisons = run.part("responses", "born")
    worst = max(comparisons, key=Comparison.disc)
    return run.report(
        "born", _combine([c.verdict(run.tol) for c in comparisons]), [c.row for c in comparisons],
        f"{len(comparisons)} (state, basis, outcome) triples;"
        f" worst {worst.row.label} off by {worst.disc():.3e}",
    )


def _exact_report(run: CheckRun, name: str, label: str, what: str, counts: tuple) -> CheckReport:
    """An exact check's (values, offenses, first offense's text): offending fraction against 0 at tolerance 0."""
    checked, bad, first = counts
    row = LabeledEstimate(label, bad / checked if checked else 0.0, 0.0)
    return run.report(name, Comparison(row, 0.0).verdict(0.0), (row,), what + first, tolerance=0.0)


def _descriptor_variants(basis: MeasurementBasis) -> list[tuple[MeasurementBasis, tuple[int, int]]]:
    """Synthesized descriptors sharing outcome states with `basis`.

    Returns (variant, outcome map) for the swapped-order and the relabeled
    copy, where the map's entry i is the index in basis of the variant's
    outcome i.  For a qubit no two genuinely distinct bases share an
    outcome, so noncontextuality is probed through descriptor relabeling
    and permutation instead.
    """
    swapped = MeasurementBasis((basis.outcomes[1], basis.outcomes[0]), basis.label)
    relabeled = MeasurementBasis(basis.outcomes, (basis.label or "M") + RELABEL_MARK)
    return [(swapped, (1, 0)), (relabeled, (0, 1))]


def _scan_integrand(model: OntologicalModel, basis: MeasurementBasis):
    """The integrand of a basis's offense indicators: determinism's, then measurement-nc's.

    Determinism's, per outcome, mark values other than 0 and 1; measurement-nc's,
    per descriptor variant and outcome, mark the variant's responses that differ.
    """
    variants = _descriptor_variants(basis)

    def offenses(batch):
        vals = model.response_batch(basis, batch)
        return [(v != 0.0) & (v != 1.0) for v in vals] + [
            v != vals[b_idx] for variant, outcome_map in variants
            for v, b_idx in zip(model.response_batch(variant, batch), outcome_map)]

    return offenses


def check_outcome_determinism(run: CheckRun) -> CheckReport:
    """Assert every evaluated response value is exactly 0 or 1."""
    _require_bases(run)
    det, _, n_states = run.part("scan", "determinism")
    what = f"{det[0]} response values over {n_states} sampled ontic states"
    return _exact_report(run, "determinism", "non_binary_fraction", what, det)


def check_measurement_noncontextuality(run: CheckRun) -> CheckReport:
    """Assert responses depend only on the outcome state, not its descriptor."""
    _require_bases(run)
    _, mnc, _ = run.part("scan", "measurement-nc")
    return _exact_report(run, "measurement-nc", "mismatch_fraction", f"{mnc[0]} descriptor comparisons", mnc)


def overlap_integral(model: OntologicalModel, psi: PureState, phi: PureState, cfg: McConfig) -> McEstimate:
    """Probability that a mu_psi draw lands in the support of mu_phi."""
    f = lambda b: model.in_support_batch(phi, b)
    return mc_expectation(f, _prepare_sampler(model, psi), cfg)


def check_max_psi_epistemic(run: CheckRun) -> CheckReport:
    """Check that each ordered pair's support overlap equals born_probability(phi, psi)."""
    comparisons = [c for _, _, c in run.part("overlaps", "max-epistemic")]
    worst = max(comparisons, key=Comparison.disc)
    return run.report(
        "max-epistemic", _combine([c.verdict(run.tol) for c in comparisons]), [c.row for c in comparisons],
        f"worst pair {worst.row.label} deficit {worst.target - worst.row.mean:.6f}"
        f" (|overlap - born| = {worst.disc():.3e})",
    )


def classify_ontology(run: CheckRun) -> CheckReport:
    """Label the model psi-ontic or psi-epistemic from its support overlaps."""
    canonical_pair(run.catalog)   # without a nonorthogonal pair no overlap can tell
    perp = {psi: orthogonal_complement(psi) for psi in run.catalog.states}
    rows = []
    epistemic_witness = None
    max_overlap = 0.0
    for psi, phi, c in run.part("overlaps", "classify"):
        if same_state(psi, phi):
            continue
        rows.append(c.row)
        if same_state(phi, perp[psi]):
            continue
        max_overlap = max(max_overlap, c.row.mean)
        # an overlap is at least 0, so a violated comparison with 0 is a significantly positive one
        if epistemic_witness is None and Comparison(c.row, 0.0).verdict(0.0) == VIOLATED:
            epistemic_witness = c.row.label
    if epistemic_witness is not None:
        verdict = PSI_EPISTEMIC
        details = f"positive overlap for nonorthogonal pair {epistemic_witness}"
    else:
        verdict = PSI_ONTIC
        details = f"all nonorthogonal overlaps consistent with 0 (max {max_overlap:.3e})"
    return run.report("classify", verdict, rows, details, tolerance=0.0)


@dataclass(frozen=True, eq=False)
class MixtureBatch:
    """A mixture's batch: each component's batch for the same sample indices, in entry order."""

    parts: tuple

    def __len__(self) -> int:
        return len(self.parts[0])


@dataclass(frozen=True)
class EnsembleDistribution:
    """Ontic distribution of a mixed preparation, mu_E = sum_j p_j mu_{psi_j}.

    An expectation under it is its components' expectations, weighted: each
    component is drawn on its own stream, and no draw picks a component.
    """

    model: OntologicalModel
    ensemble: Ensemble

    def sample_batch(self, seed: int, start: int, count: int) -> MixtureBatch:
        """Every component's batch for the indices."""
        entries = self.ensemble.entries
        return MixtureBatch(tuple(self.model.prepare_batch(s, seed, start, count) for _, s in entries))

    def expectation(self, f: Callable[[Batch], np.ndarray], cfg: McConfig) -> McEstimate:
        """E[f] under mu_E: each component's estimate on its first n samples, combined by integrate.stratified."""
        strata = mc_expectations([lambda batch: [f(part) for part in batch.parts]], self.sample_batch, cfg)
        return stratified(self.ensemble.weights(), strata)

    def density_batch(self, batch: Batch) -> np.ndarray:
        """sum_j p_j times mu_{psi_j}'s density; PreconditionError for a model without one."""
        return sum(w * self.model.density_batch(s, batch) for w, s in self.ensemble.entries)

    def support_batch(self, batch: Batch) -> np.ndarray:
        """Membership of each row in the union of the supports of the positive-weight entries."""
        member = None
        for w, s in self.ensemble.entries:
            if w > 0.0:
                cur = self.model.in_support_batch(s, batch)
                member = cur if member is None else member | cur
        return member


def ensemble_distribution(model: OntologicalModel, ensemble: Ensemble) -> EnsembleDistribution:
    """The mixture distribution mu_E = sum_j p_j mu_{psi_j} with sampler and density."""
    return EnsembleDistribution(model, ensemble)


def check_preparation_noncontextuality(run: CheckRun, e1: Ensemble, e2: Ensemble) -> CheckReport:
    """Compare the ontic distributions of two preparations of the same density operator, once per run.

    With densities available the comparison is the total-variation distance on
    the run's quadrature grid; otherwise a support-membership witness is
    evaluated under both ensembles.  Verdict "violated" means preparation
    contextual.  The precondition is checked on every call; the comparison
    is made once per run for each pair of ensembles, whoever asks.
    """
    if not density_operators_equal(
        ensemble_density_operator(e1), ensemble_density_operator(e2), DENSITY_OP_TOL
    ):
        raise PreconditionError(
            "ensembles prepare different density operators; the comparison is meaningless"
        )
    # Ensemble equality ignores the labels and signs of zero that the details
    # and stream keys carry, so the key holds each entry's exact weight bits,
    # Bloch bytes and label
    key = ("prep-nc",) + tuple(
        tuple((float(w).hex(), s.vec().tobytes(), s.label) for w, s in e.entries) for e in (e1, e2)
    )
    return run.once(key, lambda: _compare_preparations(run, e1, e2))


def _compare_preparations(run: CheckRun, e1: Ensemble, e2: Ensemble) -> CheckReport:
    """check_preparation_noncontextuality's report, made afresh."""
    d1 = EnsembleDistribution(run.model, e1)
    d2 = EnsembleDistribution(run.model, e2)
    pair = f"{e1.describe()} vs {e2.describe()}"
    if run.model.has_density:
        dist = tv_distance(d1.density_batch, d2.density_batch, run.grid)
        # with std_error 0 the verdict is violated exactly when the distance exceeds the tolerance
        tv = Comparison(LabeledEstimate("tv_distance", dist, 0.0), 0.0)
        return run.report(
            "prep-nc", tv.verdict(run.tol), (tv.row,), f"density route: total variation {dist:.6f} for {pair}"
        )
    witness = d1.support_batch
    m1, m2 = (d.expectation(witness, run.cfg) for d in (d1, d2))
    # the row compared is the difference of the two, which is not reported
    se = math.hypot(m1.std_error, m2.std_error)
    diff = Comparison(LabeledEstimate("e1 - e2", m1.mean - m2.mean, se), 0.0)
    return run.report(
        "prep-nc", diff.verdict(run.tol),
        (
            LabeledEstimate("witness_under_e1", m1.mean, m1.std_error),
            LabeledEstimate("witness_under_e2", m2.mean, m2.std_error),
        ),
        f"support-witness route: expectations differ by {diff.disc():.6f} for {pair}",
    )


@dataclass(frozen=True)
class OmegaWitness:
    """Mass reached by mu_psi outside the support of mu_phi where phi still responds.

    The witness counts its exemplar ontic states (Omega hits, at most
    OMEGA_EXAMPLES) and keeps none of them.
    """

    mu_psi_mass: McEstimate
    response_mass: McEstimate

    def __post_init__(self):
        combined = 5.0 * math.hypot(self.mu_psi_mass.std_error, self.response_mass.std_error)
        if not (-1e-12 <= self.response_mass.mean <= self.mu_psi_mass.mean + combined):
            raise ValueError("response mass exceeds the witness-set mass beyond resolution")

    @property
    def exemplars(self) -> int:
        """min(OMEGA_EXAMPLES, Omega hits); rounded, since mean * n of a count can miss it in the last bit."""
        return min(OMEGA_EXAMPLES, round(self.mu_psi_mass.mean * self.mu_psi_mass.n))


def _omega_integrand(model: OntologicalModel, phi: PureState, basis_containing_phi: MeasurementBasis):
    """The integrand of a mu_psi batch giving the Omega indicator and phi's response mass on Omega."""
    outcome_index = _index(basis_containing_phi.outcomes, phi)
    if outcome_index < 0:
        raise PreconditionError("phi is not an outcome of the given basis")

    def omega_and_response(batch):
        resp = model.response_batch(basis_containing_phi, batch)[outcome_index]
        omega = (~model.in_support_batch(phi, batch)) & (resp > 0.0)
        # resp * omega keeps a bool response bool, so both indicators are counted
        return omega, resp * omega

    return omega_and_response


def find_omega_witness(
    model: OntologicalModel,
    psi: PureState,
    phi: PureState,
    basis_containing_phi: MeasurementBasis,
    cfg: McConfig,
) -> OmegaWitness:
    """Estimate the mass of Omega = {lambda outside supp(mu_phi) with response(phi) > 0}."""
    f = _omega_integrand(model, phi, basis_containing_phi)
    return OmegaWitness(*mc_expectations([f], _prepare_sampler(model, psi), cfg))


def _basis_containing(catalog: StateCatalog, phi: PureState) -> MeasurementBasis:
    for basis in catalog.bases:
        if _index(basis.outcomes, phi) >= 0:
            return basis
    return MeasurementBasis((phi, orthogonal_complement(phi)), phi.describe())


def check_omega_witness(run: CheckRun) -> CheckReport:
    """Report the Omega masses of the catalog's canonical pair against the tolerance."""
    psi, phi = canonical_pair(run.catalog)
    witness = run.part("omega", "omega")
    m, r = witness.mu_psi_mass, witness.response_mass
    mass = Comparison(LabeledEstimate("mu_psi_mass", m.mean, m.std_error), 0.0)
    return run.report(
        "omega", mass.verdict(run.tol), (mass.row, LabeledEstimate("response_mass", r.mean, r.std_error)),
        f"pair {psi.describe()}->{phi.describe()};"
        f" {witness.exemplars} exemplar ontic states collected",
    )


def _chain_pair(run: CheckRun):
    """Pick the (psi, phi) pair for the preparation-contextuality construction.

    The pair with the largest significant overlap deficit, if any; otherwise
    the first distinct nonorthogonal pair in catalog order.
    """
    violated = [(psi, phi, c) for psi, phi, c in run.part("overlaps", "audit")
                if not same_state(psi, phi) and c.verdict(run.tol) == VIOLATED]
    if not violated:
        return canonical_pair(run.catalog)
    return max(violated, key=lambda v: v[2].disc())[:2]


def canonical_pair(catalog: StateCatalog) -> tuple[PureState, PureState]:
    """The first distinct nonorthogonal (psi, phi) pair in catalog order."""
    for psi in catalog.states:
        perp = orthogonal_complement(psi)
        for phi in catalog.states:
            if not same_state(psi, phi) and not same_state(phi, perp):
                return psi, phi
    raise PreconditionError("catalog has no distinct nonorthogonal pair")


# One stream of a source pass: its label, its sampler, and its RunningSums over the run's budget
# and over the scan's share, each None when no check of the run reads it
_Stream = namedtuple("_Stream", "label sampler budget share")


def _offenses(model: OntologicalModel, bases, streams, seed: int) -> list[tuple[int, int, str]]:
    """Determinism's and measurement-nc's (values, offenses, first offense's text) from the streams' shares.

    A share holds the sums of the bases' _scan_integrand, and slots names
    each sum's check, basis, and outcome or variant.  A first offense is the
    lowest (stream, basis, outcome or variant) with a positive count;
    determinism's text also gives its first value, from that one batch drawn
    again.
    """
    det, mnc = [0, 0, ""], [0, 0, ""]
    slots = [slot for basis in bases for slot in [(det, basis, idx) for idx, _ in enumerate(basis.outcomes)]
             + [(mnc, basis, variant) for variant, omap in _descriptor_variants(basis) for _ in omap]]
    for stream in streams:
        for (counts, basis, at), (hits, _), batch in zip(slots, stream.share.sums, stream.share.firsts):
            if hits and not counts[1]:
                counts[2] = stream, basis, at, batch
            counts[0] += stream.share.n
            counts[1] += int(hits)
    if det[1]:
        stream, basis, idx, (start, count) = det[2]
        v = model.response_batch(basis, stream.sampler(seed, start, count))[idx]
        det[2] = f"; first offense {stream.label}|{basis.describe()} value {v[(v != 0.0) & (v != 1.0)][0]!r}"
    if mnc[1]:
        stream, basis, variant, _ = mnc[2]
        mnc[2] = f"; first mismatch {stream.label}|{basis.describe()} vs descriptor {variant.describe()}"
    return [tuple(det), tuple(mnc)]


def source_pass(run: CheckRun) -> dict:
    """Draw each catalog stream once and feed its batches to every part the run's checks read.

    The parts (PASS_PARTS), each None when no check of the run reads it:
    - "responses" holds a Comparison of each response row psi|basis|outcome
      with its Born probability, and "overlaps" (psi, phi, Comparison of the
      row psi->phi with born_probability(phi, psi)) for every ordered pair
      of states, each on mu_psi's first n samples;
    - "scan" holds determinism's and measurement-nc's counts (see _offenses)
      and the states sampled, over an even share of the budget (at least
      MIN_SAMPLES) of every mu_psi, then of the reference measure; it is None
      on a catalog without a basis;
    - "omega" holds the OmegaWitness of the canonical pair on psi's first n
      samples; it is None on a catalog without that pair.
    Each stream is one _Stream: each catalog state's mu_psi in catalog
    order, then the reference measure when the scan runs.  Its budget sums
    reduce the table's integrands, then on the canonical psi the Omega
    integrand, whose two estimates come last; its share sums reduce the
    scan's, so the scan reads the first batches of what the budget drew.
    The pass is one integrate.walk over the streams, which may feed two at
    once, so each feed adds to its own stream's sums.  Each estimate builds
    up on its own in index order, so no part depends on which others share
    the pass, on the batch size or on the workers.
    """
    model, catalog, cfg = run.model, run.catalog, run.cfg
    reads = {part for part, (_, readers) in PASS_PARTS.items() if not readers.isdisjoint(run.check_names)}
    bases = catalog.bases if "responses" in reads else ()
    outcomes = [(basis, outcome) for basis in bases for outcome in basis.outcomes]
    phis = catalog.states if "overlaps" in reads else ()
    table_fs = [lambda b, basis=basis: model.response_batch(basis, b) for basis in bases]
    table_fs += [lambda b, phi=phi: (model.in_support_batch(phi, b),) for phi in phis]
    omega_psi, omega_fs = None, []
    if "omega" in reads:
        try:
            omega_psi, phi = canonical_pair(catalog)
        except PreconditionError:
            pass   # omega raises it itself
        else:
            omega_fs = [_omega_integrand(model, phi, _basis_containing(catalog, phi))]
    scan_fs = [_scan_integrand(model, basis) for basis in catalog.bases] if "scan" in reads else []
    per_source = max(MIN_SAMPLES, cfg.n_samples // (len(catalog.states) + 1))
    sums = lambda fs: RunningSums(fs) if fs else None
    streams = []
    for psi in catalog.states:
        fs = table_fs + omega_fs if psi is omega_psi else table_fs
        streams.append(_Stream(f"mu({psi.describe()})", _prepare_sampler(model, psi), sums(fs), sums(scan_fs)))
    if scan_fs:
        streams.append(_Stream("reference", model.reference_batch, None, sums(scan_fs)))
    feeds = lambda s: [(k, x.add) for k, x in ((cfg.n_samples, s.budget), (per_source, s.share)) if x is not None]
    walk([(s.sampler, feeds(s)) for s in streams], cfg.seed)

    resp_rows, pair_rows, witness = [], [], None
    for psi, stream in zip(catalog.states, streams):
        ests = stream.budget.estimates() if stream.budget is not None else []
        for (basis, outcome), est in zip(outcomes, ests):
            label = f"{psi.describe()}|{basis.describe()}|{outcome.describe()}"
            row = LabeledEstimate(label, est.mean, est.std_error)
            resp_rows.append(Comparison(row, born_probability(outcome, psi)))
        for phi, est in zip(phis, ests[len(outcomes):]):
            row = LabeledEstimate(f"{psi.describe()}->{phi.describe()}", est.mean, est.std_error)
            pair_rows.append((psi, phi, Comparison(row, born_probability(phi, psi))))
        if psi is omega_psi:
            witness = OmegaWitness(*ests[-2:])
    return {
        "responses": tuple(resp_rows) if "responses" in reads else None,
        "overlaps": tuple(pair_rows) if "overlaps" in reads else None,
        "scan": (*_offenses(model, catalog.bases, streams, cfg.seed), per_source * (len(catalog.states) + 1))
        if scan_fs else None,
        "omega": witness,
    }


def audit_implication_chain(run: CheckRun) -> CheckReport:
    """Run every checker and test the two-step implication chain on the observed verdicts.

    The chain is: preparation noncontextual => maximally psi-epistemic =>
    outcome deterministic and measurement noncontextual.  The verdict is
    "violated" only when the observed verdicts form a counterexample to one
    of the implications.  This audits instantiations on the model under test,
    not the general statements.  The catalog precondition is checked before
    the run's state table is read.  Each sub-check's report is rebuilt from the
    run's memoized passes, so no stream is drawn again.
    """
    if not run.catalog.closed_under_complements():
        raise PreconditionError("audit requires a catalog closed under orthogonal complements")
    born = check_born_reproduction(run)
    det = check_outcome_determinism(run)
    mnc = check_measurement_noncontextuality(run)
    maxe = check_max_psi_epistemic(run)
    cls = classify_ontology(run)
    psi, phi = _chain_pair(run)
    prep = check_preparation_noncontextuality(run, half_half_mixture(psi), half_half_mixture(phi))
    # determinism and measurement-nc are exact: each is satisfied or violated
    ks_nc = _combine((det.verdict, mnc.verdict))

    counterexample = (prep.verdict == SATISFIED and maxe.verdict == VIOLATED) or (
        maxe.verdict == SATISFIED and ks_nc == VIOLATED
    )
    inconclusive = INCONCLUSIVE in {r.verdict for r in (born, det, mnc, maxe, prep, cls)}
    verdict = VIOLATED if counterexample else INCONCLUSIVE if inconclusive else SATISFIED

    details = "; ".join(
        [
            f"born={born.verdict}",
            f"determinism={det.verdict}",
            f"measurement-nc={mnc.verdict}",
            f"max-epistemic={maxe.verdict}",
            f"prep-nc={prep.verdict}",
            f"classify={cls.verdict}",
            f"ks-noncontextual={ks_nc}",
            f"pair={psi.describe()}->{phi.describe()}",
            "chain=" + ("counterexample" if counterexample else "consistent"),
        ]
    )
    return run.report("audit", verdict, prep.estimates, details)
