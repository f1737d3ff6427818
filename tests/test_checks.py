import hashlib
import math
import struct

import numpy as np
import pytest

from onticlab import checks, cli, integrate, models
from onticlab.checks import (
    INCONCLUSIVE,
    PSI_EPISTEMIC,
    PSI_ONTIC,
    SATISFIED,
    VIOLATED,
    CheckRun,
    Comparison,
    EnsembleDistribution,
    LabeledEstimate,
    OmegaWitness,
    audit_implication_chain,
    canonical_pair,
    check_born_reproduction,
    check_max_psi_epistemic,
    check_measurement_noncontextuality,
    check_outcome_determinism,
    check_preparation_noncontextuality,
    classify_ontology,
    find_omega_witness,
)
from onticlab.errors import FieldError, PreconditionError
from onticlab.integrate import (
    McConfig,
    McEstimate,
    QuadratureGrid,
    mc_expectation,
    sphere_quadrature,
    substream_key,
    uniform_blocks,
)
from onticlab.models import (
    KochenSpeckerModel,
    PairBatch,
    StateCatalog,
    catalog_from_states,
    default_catalog,
    make_model,
)
from onticlab.qubit import (
    MINUS_X,
    MINUS_Z,
    PLUS_X,
    PLUS_Y,
    PLUS_Z,
    Ensemble,
    MeasurementBasis,
    PureState,
    born_probability,
    half_half_mixture,
    orthogonal_complement,
)

from batch_of_one import random_states, uniform_sphere_batch

CFG = McConfig(n_samples=50_000, seed=19)
GRID = QuadratureGrid()
CATALOG = default_catalog()
X_BASIS = MeasurementBasis((PLUS_X, MINUS_X), "x")

KS = make_model("ks")
BM = make_model("bell-mermin")
CONST = make_model("const-half")
READER = make_model("label-reader")


def run_of(model, check_name, catalog=CATALOG, cfg=CFG, tol=1e-2):
    """A run of the one named check."""
    return CheckRun(model, catalog, cfg, (check_name,), tol)


def overlap_of(model, psi, phi, cfg):
    """The share of mu_psi's first n draws in the support of mu_phi."""
    sampler = lambda seed, start, count: model.prepare_batch(psi, seed, start, count)
    return mc_expectation(lambda b: model.in_support_batch(phi, b), sampler, cfg)


class TestComparison:
    """Comparison.verdict is the rule of every statistical verdict."""

    # dyadic gaps and errors, so every discrepancy and 5-sigma bound is exact
    @pytest.mark.parametrize("sign", [1, -1], ids=["above", "below"])
    @pytest.mark.parametrize(
        "gap, std_error, verdict",
        [
            (0.125, 0.0, SATISFIED),         # disc == tol
            (0.0625, 0.0625, SATISFIED),
            (0.25, 0.0625, INCONCLUSIVE),    # tol < disc < 5 sigma
            (0.3125, 0.0625, INCONCLUSIVE),  # disc == 5 sigma
            (0.375, 0.0625, VIOLATED),       # beyond 5 sigma
            (0.25, 0.0, VIOLATED),           # no error bar: beyond tol is violated
        ],
    )
    def test_verdict(self, gap, std_error, verdict, sign):
        comparison = Comparison(LabeledEstimate("row", 0.5 + sign * gap, std_error), 0.5)
        assert comparison.disc() == gap
        assert comparison.verdict(0.125) == verdict

    @pytest.mark.parametrize("bad, verdict", [(0, SATISFIED), (1, VIOLATED)])
    def test_an_exact_scan_decides_through_the_rule(self, bad, verdict):
        # the offending fraction against 0 at tolerance 0, with no error bar: any offense is violated
        counts = (4, bad, "; first offense" * bad)   # values, offenses, and the first offense's text or ""
        run = run_of(KS, "determinism")
        rep = checks._exact_report(run, "determinism", "non_binary_fraction", "4 values", counts)
        assert rep.verdict == verdict and rep.tolerance == 0.0
        assert rep.estimates == (LabeledEstimate("non_binary_fraction", bad / 4, 0.0),)
        assert rep.details == "4 values" + "; first offense" * bad

    def test_the_worst_row_is_the_first_with_the_largest_discrepancy(self):
        rows = [Comparison(LabeledEstimate(label, mean, 0.0), 0.5)
                for label, mean in [("a", 0.5), ("b", 0.25), ("c", 0.75), ("d", 0.625)]]
        assert max(rows, key=Comparison.disc).row.label == "b"
        # const-half answers 1/2 where Born gives 0 or 1: 12 rows tie at 0.5, and born names the first
        rep = check_born_reproduction(run_of(CONST, "born"))
        borns = [born_probability(o, psi) for psi in CATALOG.states for b in CATALOG.bases for o in b.outcomes]
        assert [abs(e.mean - p) for e, p in zip(rep.estimates, borns)].count(0.5) == 12
        assert rep.details.endswith("worst +z|z|+z off by 5.000e-01")

    def test_the_chain_pair_is_the_first_violated_pair_with_the_largest_discrepancy(self):
        # bell-mermin's overlaps of distinct states are 0, so each deficit is the Born probability;
        # the canonical pair is (+z, s80), and four pairs tie at the largest deficit, (+z, s30) first
        s80, s30 = (PureState.from_angles(math.radians(a), 0.0) for a in (80, 30))
        catalog = catalog_from_states((PLUS_Z, s80, s30))
        run = CheckRun(BM, catalog, McConfig(n_samples=1000, seed=3), ("audit",))
        assert canonical_pair(catalog) == (PLUS_Z, s80)
        psi, phi = checks._chain_pair(run)
        assert psi is catalog.states[0] and phi is catalog.states[4]


class TestBornReproduction:
    def test_physical_models_reproduce(self):
        for model in (KS, BM):
            rep = check_born_reproduction(run_of(model, "born"))
            assert rep.verdict == SATISFIED
            assert len(rep.estimates) == 36

    def test_constant_response_fails_on_certain_outcomes(self):
        rep = check_born_reproduction(run_of(CONST, "born"))
        assert rep.verdict == VIOLATED
        by_label = {e.label: e for e in rep.estimates}
        row = by_label["+z|z|+z"]
        assert row.mean == 0.5 and row.std_error == 0.0   # Born probability is 1 here

    def test_label_reader_fails(self):
        assert check_born_reproduction(run_of(READER, "born")).verdict == VIOLATED

    def test_reports_are_reproducible(self):
        a = check_born_reproduction(run_of(KS, "born"))
        b = check_born_reproduction(run_of(KS, "born"))
        assert a == b

    def test_undersampled_runs_are_inconclusive(self):
        undersampled = McConfig(n_samples=10_000, seed=3)
        rep = check_born_reproduction(run_of(KS, "born", cfg=undersampled, tol=1e-6))
        assert rep.verdict == INCONCLUSIVE

    def test_bell_mermin_sums_each_batch_once(self, monkeypatch):
        # three bases read every batch, and the summed vector is built once for all six outcomes
        built = []
        plain = models.lend

        def counting(shape):
            built.append(shape[0])
            return plain(shape)

        # on bell-mermin only PairBatch.total lends from models
        monkeypatch.setattr(models, "lend", counting)
        monkeypatch.setattr(integrate, "BATCH_SIZE", 300)
        cfg = McConfig(n_samples=1000, seed=19)
        rep = check_born_reproduction(run_of(BM, "born", cfg=cfg))
        assert len(rep.estimates) == 36
        assert len(built) == len(CATALOG.states) * 4   # 4 batches of at most 300 rows per state


class TestOutcomeDeterminism:
    def test_step_valued_models_pass(self):
        for model in (KS, BM, READER):
            rep = check_outcome_determinism(run_of(model, "determinism"))
            assert rep.verdict == SATISFIED
            assert rep.estimates[0].mean == 0.0

    def test_constant_response_fails(self):
        rep = check_outcome_determinism(run_of(CONST, "determinism"))
        assert rep.verdict == VIOLATED
        assert rep.estimates[0].mean == 1.0

    @pytest.mark.parametrize("size", [25_000, 7])
    def test_first_offense_is_the_first_basis_at_any_batch_size(self, size, monkeypatch):
        # in 7-row batches, the first batch of mu(+z) that offends does so in x alone, after z's basis
        class HalfOnAxes(KochenSpeckerModel):
            def response_batch(self, basis, batch):
                r0, r1 = super().response_batch(basis, batch)
                half = {"z": batch[:, 0] > 0.9, "x": batch[:, 1] > 0.3}.get(basis.label)
                return (r0, r1) if half is None else (np.where(half, 0.5, r0), np.where(half, 0.5, r1))

        monkeypatch.setattr(integrate, "BATCH_SIZE", size)
        rep = check_outcome_determinism(run_of(HalfOnAxes(), "determinism", cfg=McConfig(7_000, 42)))
        assert rep.details == (
            "42000 response values over 7000 sampled ontic states; first offense mu(+z)|z value np.float64(0.5)"
        )

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("size", [7, 300, 25_000])
    def test_a_late_first_offense_names_its_value_at_any_batch_size(self, size, workers, monkeypatch):
        # outcome +x reads the row's x coordinate on the few rows with y < -0.9995, which mu(-y), the
        # last catalog stream, reaches first: its value comes from that one batch, drawn again
        class LateOffense(KochenSpeckerModel):
            def response_batch(self, basis, batch):
                r0, r1 = super().response_batch(basis, batch)
                return (np.where(batch[:, 1] < -0.9995, batch[:, 0], r0), r1) if basis.label == "x" else (r0, r1)

        monkeypatch.setattr(integrate, "BATCH_SIZE", size)
        monkeypatch.setattr(integrate, "WORKERS", workers)
        run = CheckRun(LateOffense(), CATALOG, McConfig(70_000, 42), ("determinism", "measurement-nc"))
        assert check_outcome_determinism(run).details == (
            "420000 response values over 70000 sampled ontic states;"
            " first offense mu(-y)|x value np.float64(-0.005346286312863614)"
        )
        assert check_measurement_noncontextuality(run).details == (
            "840000 descriptor comparisons; first mismatch mu(-y)|x vs descriptor x"
        )


class TestMeasurementNoncontextuality:
    def test_state_only_responses_pass(self):
        for model in (KS, BM, CONST):
            rep = check_measurement_noncontextuality(run_of(model, "measurement-nc"))
            assert rep.verdict == SATISFIED

    def test_label_reader_fails(self):
        rep = check_measurement_noncontextuality(run_of(READER, "measurement-nc"))
        assert rep.verdict == VIOLATED
        assert rep.estimates[0].mean > 0.0


class TestOverlapIntegral:
    def test_own_support(self):
        est = overlap_of(KS, PLUS_Z, PLUS_Z, CFG)
        assert est.mean == 1.0 and est.std_error == 0.0

    def test_cap_model_overlap_equals_born(self):
        est = overlap_of(KS, PLUS_Z, PLUS_X, CFG)
        assert abs(est.mean - 0.5) <= 5 * est.std_error
        quad = sphere_quadrature(
            lambda p: KS.in_support_batch(PLUS_X, p).astype(float)
            * KS.density_batch(PLUS_Z, p),
            GRID,
        )
        assert abs(quad - 0.5) <= 1e-3

    def test_pair_model_overlap_vanishes(self):
        est = overlap_of(BM, PLUS_Z, PLUS_X, CFG)
        assert est.mean == 0.0 and est.std_error == 0.0

    def test_orthogonal_pair_overlap_vanishes(self):
        for model in (KS, BM):
            est = overlap_of(model, PLUS_Z, MINUS_Z, CFG)
            assert est.mean == 0.0

    def test_bounded_by_born_for_reproducing_models(self):
        # the max-epistemic rows are the overlaps of the ordered pairs in catalog order
        pairs = [(psi, phi) for psi in CATALOG.states for phi in CATALOG.states]
        for model in (KS, BM):
            rows = check_max_psi_epistemic(run_of(model, "max-epistemic", cfg=McConfig(20_000, 5))).estimates
            for est, (psi, phi) in zip(rows, pairs, strict=True):
                assert est.mean <= born_probability(phi, psi) + 5 * est.std_error


class TestMaxPsiEpistemic:
    @pytest.mark.parametrize("model", (KS, BM), ids=lambda m: m.name)
    def test_rows_are_the_overlap_integrals(self, model):
        """Each row is the overlap of its ordered pair, bit for bit, in catalog order."""
        cfg = McConfig(n_samples=20_000, seed=42)
        rows = check_max_psi_epistemic(CheckRun(model, CATALOG, cfg, ("max-epistemic",))).estimates
        pairs = [(psi, phi) for psi in CATALOG.states for phi in CATALOG.states]
        assert len(rows) == len(pairs)
        for row, (psi, phi) in zip(rows, pairs):
            est = overlap_of(model, psi, phi, cfg)
            assert row.label == f"{psi.describe()}->{phi.describe()}"
            assert (row.mean, row.std_error) == (est.mean, est.std_error)

    def test_cap_model_is_maximally_epistemic(self):
        assert check_max_psi_epistemic(run_of(KS, "max-epistemic")).verdict == SATISFIED

    def test_pair_model_deficit_equals_born(self):
        rep = check_max_psi_epistemic(run_of(BM, "max-epistemic"))
        assert rep.verdict == VIOLATED
        by_label = {e.label: e for e in rep.estimates}
        assert by_label["+z->+x"].mean == 0.0
        assert "deficit 0.5" in rep.details

    def test_orthogonal_only_catalog_vacuously_satisfied(self):
        cat = StateCatalog((PLUS_Z, MINUS_Z), (MeasurementBasis((PLUS_Z, MINUS_Z), "z"),))
        for model in (KS, BM, CONST):
            assert check_max_psi_epistemic(run_of(model, "max-epistemic", cat)).verdict == SATISFIED


class TestClassifyOntology:
    def test_cap_model_is_epistemic(self):
        rep = classify_ontology(run_of(KS, "classify"))
        assert rep.verdict == PSI_EPISTEMIC

    def test_pair_model_is_ontic(self):
        rep = classify_ontology(run_of(BM, "classify"))
        assert rep.verdict == PSI_ONTIC

    def test_fixtures_are_ontic(self):
        for model in (CONST, READER):
            assert classify_ontology(run_of(model, "classify")).verdict == PSI_ONTIC

    def test_builds_each_complement_once(self, monkeypatch):
        catalog = catalog_from_states(random_states(42, 32))
        assert len(catalog.states) == 64
        calls = []

        def counting(psi):
            calls.append(psi)
            return orthogonal_complement(psi)

        monkeypatch.setattr(checks, "orthogonal_complement", counting)
        classify_ontology(run_of(KS, "classify", catalog, McConfig(n_samples=100, seed=1)))
        # one per catalog state, plus canonical_pair's
        assert len(calls) <= 2 * len(catalog.states)


class TestEnsembleDistribution:
    def test_singleton_matches_component_sampler(self):
        dist = EnsembleDistribution(KS, Ensemble(((1.0, PLUS_Y),)))
        a = dist.sample_batch(8, 0, 1000).parts[0]
        b = KS.prepare_batch(PLUS_Y, 8, 0, 1000)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("model", [KS, BM], ids=lambda m: m.name)
    def test_sample_batch_is_one_draw_of_each_component(self, model, monkeypatch):
        ensemble = Ensemble(((0.5, PLUS_Z), (0.25, PLUS_X), (0.25, MINUS_Z)))
        prepared, keys = [], []
        prepare, philox = model.prepare_batch, np.random.Philox

        def counting_prepare(psi, seed, start, count):
            prepared.append((psi, seed, start, count))
            return prepare(psi, seed, start, count)

        def counting_philox(key, counter):
            keys.append(key)
            return philox(key=key, counter=counter)

        monkeypatch.setattr(model, "prepare_batch", counting_prepare)
        monkeypatch.setattr(np.random, "Philox", counting_philox)
        batch = EnsembleDistribution(model, ensemble).sample_batch(4, 10, 40)
        drawn = [part.second if isinstance(part, PairBatch) else part for part in batch.parts]   # every sphere
        assert len(batch) == 40
        assert prepared == [(s, 4, 10, 40) for _, s in ensemble.entries]
        assert keys == [model._prepare_key(s, 4) for _, s in ensemble.entries]
        for rows, (_, s) in zip(drawn, ensemble.entries):
            want = prepare(s, 4, 10, 40)
            np.testing.assert_array_equal(rows, want.second if isinstance(want, PairBatch) else want)

    def test_z_mixture_density_vanishes_on_equator(self):
        dist = EnsembleDistribution(KS, half_half_mixture(PLUS_Z))
        angles = 2 * np.pi * np.arange(100) / 100
        equator = np.stack([np.cos(angles), np.sin(angles), np.zeros(100)], axis=1)
        np.testing.assert_array_equal(dist.density_batch(equator), np.zeros(100))

    def test_x_mixture_density_at_plus_x(self):
        dist = EnsembleDistribution(KS, half_half_mixture(PLUS_X))
        val = dist.density_batch(np.array([[1.0, 0.0, 0.0]]))[0]
        assert val == 0.5 / np.pi

    def test_mixture_density_normalizes(self):
        dist = EnsembleDistribution(KS, half_half_mixture(PLUS_X))
        total = sphere_quadrature(dist.density_batch, GRID)
        assert abs(total - 1.0) <= 1e-3

    def test_sampler_matches_density(self):
        dist = EnsembleDistribution(KS, half_half_mixture(PLUS_Z))
        g = lambda p: (p[:, 2] > 0.5).astype(float)
        est = dist.expectation(g, CFG)
        quad = sphere_quadrature(lambda p: g(p) * dist.density_batch(p), GRID)
        assert abs(est.mean - quad) <= 5 * est.std_error + 1e-4

    def test_support_witness_draws_no_stream(self, monkeypatch):
        # the support witness reads the point-mass sphere only, so no component stream is drawn
        drawn = []

        def counting(key, start, count):
            drawn.append((key, count))
            return uniform_blocks(key, start, count)

        for module in (integrate, models):
            monkeypatch.setattr(module, "uniform_blocks", counting)
        dist = EnsembleDistribution(BM, half_half_mixture(PLUS_X))
        monkeypatch.setattr(integrate, "BATCH_SIZE", 300)
        cfg = McConfig(n_samples=1000, seed=19)
        est = dist.expectation(dist.support_batch, cfg)
        assert est.mean == 1.0
        assert drawn == []

    def test_zero_weight_entry_has_no_support(self):
        # the support is where the density is positive: a zero-weight entry adds neither
        dist = EnsembleDistribution(KS, Ensemble(((1.0, PLUS_Z), (0.0, PLUS_X))))
        pts = uniform_sphere_batch(3, 0, 2000)
        support = dist.support_batch(pts)
        np.testing.assert_array_equal(support, dist.density_batch(pts) > 0.0)
        assert not support.all() and support.any()

    def test_pair_mixture_density_absent(self):
        dist = EnsembleDistribution(BM, half_half_mixture(PLUS_Z))
        with pytest.raises(PreconditionError, match="'bell-mermin' has no density"):
            dist.density_batch(dist.sample_batch(1, 0, 10))


def expected_key(seed: int, *tags) -> int:
    """substream_key as its docstring defines it: strings in UTF-8, float lists as "<d" bytes."""
    h = hashlib.sha256(struct.pack("<Q", seed))
    for tag in tags:
        h.update(b"\x1f")
        h.update(tag.encode("utf-8") if isinstance(tag, str) else struct.pack(f"<{len(tag)}d", *tag))
    return int.from_bytes(h.digest()[:16], "little")


class TestStreamKeys:
    """Stream keys are pinned: the same bytes on every host, and the ones reports were recorded with."""

    STATES = CATALOG.states + tuple(orthogonal_complement(s) for s in CATALOG.states)   # -0.0s included

    @pytest.mark.parametrize("model", [KS, BM], ids=lambda m: m.name)
    def test_prepare_keys_hash_the_little_endian_bloch_vector(self, model):
        for psi in self.STATES:
            assert model._prepare_key(psi, 42) == expected_key(42, model.name, "prepare", [psi.x, psi.y, psi.z])

    def test_keys_of_record(self):
        # the keys every reference report was drawn with, in hex
        assert hex(KS._prepare_key(PLUS_Z, 42)) == "0x2534224e76e9eeec688398437d3fa8fa"
        assert hex(BM._prepare_key(orthogonal_complement(PLUS_Z), 42)) == "0xedfac3224f0fc2c4da975e7ae3ae7112"

    def test_a_tag_keys_the_same_in_either_byte_order(self):
        tag = np.array([[0.5, -0.0, 1e-16, -1.0], [0.5, 0.0, -1e-16, 1.0]])
        big = tag.astype(">f8")
        assert big.tobytes() != tag.tobytes()
        assert substream_key(42, "t", big) == substream_key(42, "t", tag) == expected_key(42, "t", tag.ravel())


class TestPreparationNoncontextuality:
    def test_cap_model_is_contextual(self):
        rep = check_preparation_noncontextuality(
            run_of(KS, "prep-nc"), half_half_mixture(PLUS_Z), half_half_mixture(PLUS_X)
        )
        assert rep.verdict == VIOLATED
        tv = rep.estimates[0].mean
        assert tv > 0.1
        assert abs(tv - (math.sqrt(2.0) - 1.0)) <= 1e-3

    def test_same_ensemble_is_noncontextual(self):
        for model in (KS, BM):
            rep = check_preparation_noncontextuality(
                run_of(model, "prep-nc"), half_half_mixture(PLUS_Z), half_half_mixture(PLUS_Z)
            )
            assert rep.verdict == SATISFIED
            if model is KS:
                assert rep.estimates[0].mean == 0.0

    def test_pair_model_support_witness(self):
        rep = check_preparation_noncontextuality(
            run_of(BM, "prep-nc"), half_half_mixture(PLUS_Z), half_half_mixture(PLUS_X)
        )
        assert rep.verdict == VIOLATED
        assert rep.estimates[0].mean == 1.0   # witness under its own ensemble
        assert rep.estimates[1].mean == 0.0   # witness under the other ensemble
        assert "support-witness" in rep.details

    def test_run_keeps_reports_of_equal_states_with_other_labels_or_zero_signs_apart(self):
        # each equals PLUS_X, but its label or signed zero shows in the details
        phis = (PLUS_X, PureState(1.0, 0.0, 0.0, "x"), PureState(1.0, 0.0, 0.0),
                PureState(1.0, -0.0, 0.0))
        run = run_of(KS, "prep-nc")
        compare = lambda run, phi: check_preparation_noncontextuality(
            run, half_half_mixture(PLUS_Z), half_half_mixture(phi))
        shared = [compare(run, phi) for phi in phis]
        assert shared == [compare(run_of(KS, "prep-nc"), phi) for phi in phis]
        assert len({r.details for r in shared}) == len(phis)

    def test_a_run_compares_a_pair_once_whoever_asks(self, monkeypatch):
        # a library call, the prep-nc runner, audit and the library call again share one comparison
        calls = []
        plain = checks.tv_distance

        def counting(*args):
            calls.append(args)
            return plain(*args)

        monkeypatch.setattr(checks, "tv_distance", counting)
        run = CheckRun(KS, CATALOG, McConfig(n_samples=2000, seed=19), ("prep-nc", "audit"))
        assert canonical_pair(CATALOG) == (PLUS_Z, PLUS_X)
        library = lambda: check_preparation_noncontextuality(
            run, half_half_mixture(PLUS_Z), half_half_mixture(PLUS_X))
        first = library()
        runner = cli.CHECK_RUNNERS["prep-nc"](run)
        audit = audit_implication_chain(run)
        assert "pair=+z->+x" in audit.details
        again = library()
        assert len(calls) == 1
        assert again is first and runner is first and audit.estimates == first.estimates

    @pytest.mark.parametrize("delta, accepted", [(0.95e-12, True), (1.05e-12, False)])
    def test_precondition_allows_an_entrywise_density_gap_of_1e_12(self, delta, accepted):
        # weights 1/2 +- delta on the x (z) pair move rho's off-diagonal (diagonal) entries by delta
        run = run_of(BM, "prep-nc", cfg=McConfig(n_samples=2000, seed=19))
        for psi, plus, minus in ((PLUS_Z, PLUS_X, MINUS_X), (PLUS_X, PLUS_Z, MINUS_Z)):
            tilted = Ensemble(((0.5 + delta, plus), (0.5 - delta, minus)))
            if accepted:
                check_preparation_noncontextuality(run, half_half_mixture(psi), tilted)
            else:
                with pytest.raises(PreconditionError, match="different density operators"):
                    check_preparation_noncontextuality(run, half_half_mixture(psi), tilted)

    def test_density_operator_precondition(self):
        with pytest.raises(PreconditionError):
            check_preparation_noncontextuality(
                run_of(KS, "prep-nc"), half_half_mixture(PLUS_Z), Ensemble(((1.0, PLUS_Z),))
            )


class TestSourcePassStreams:
    """Each stream of a source pass is one record, reduced by one RunningSums per budget it feeds."""

    def test_omega_reduces_with_its_streams_table(self, monkeypatch):
        built = []

        def counted(fs):
            built.append(integrate.RunningSums(fs))
            return built[-1]

        monkeypatch.setattr(checks, "RunningSums", counted)
        names = ("born", "max-epistemic", "omega", "determinism")
        run = CheckRun(KS, CATALOG, McConfig(n_samples=7_000, seed=42), names)
        for check in (check_born_reproduction, check_max_psi_epistemic, checks.check_omega_witness,
                      check_outcome_determinism):
            check(run)
        # six catalog streams over the budget; the scan's share of 1,000 on each of them and the reference
        assert sorted(s.n for s in built) == [1_000] * 7 + [7_000] * 6

    def test_descriptor_variants_are_not_rebuilt_per_batch(self, monkeypatch):
        calls = []
        variants = checks._descriptor_variants
        monkeypatch.setattr(checks, "_descriptor_variants", lambda basis: calls.append(basis) or variants(basis))
        monkeypatch.setattr(integrate, "BATCH_SIZE", 7)
        run = CheckRun(KS, CATALOG, McConfig(n_samples=700, seed=42), ("determinism", "measurement-nc"))
        check_outcome_determinism(run)
        check_measurement_noncontextuality(run)
        # once for the scan's integrand and once to name the offense slots, not once per batch
        assert len(calls) <= 2 * len(CATALOG.bases)


class TestOmegaWitness:
    def test_pair_model_mass_is_cap_fraction(self):
        # closed form: P(x-component of uniform point > 0) = 1/2
        w = find_omega_witness(BM, PLUS_Z, PLUS_X, X_BASIS, CFG)
        assert abs(w.mu_psi_mass.mean - 0.5) <= 5 * w.mu_psi_mass.std_error
        assert abs(w.response_mass.mean - 0.5) <= 5 * w.response_mass.std_error
        assert 0 < w.exemplars <= 10

    def test_cap_model_mass_vanishes(self):
        w = find_omega_witness(KS, PLUS_Z, PLUS_X, X_BASIS, CFG)
        assert w.mu_psi_mass.mean == 0.0
        assert w.exemplars == 0

    # psi = +z against phi near -z hits Omega a few times in n draws.  mu_psi_mass.mean * n
    # misses the hit count in the last bit both ways: 7.000000000000001 at pi - 0.4, seed 1,
    # n = 200 (7 hits), and 1.9999999999999998 at pi - 0.3, seed 1, n = 103 (2 hits)
    @pytest.mark.parametrize(
        "theta, seed, n",
        [(math.pi - 0.3, s, 200) for s in (1, 2, 3)] + [(math.pi - 0.4, 1, 200), (math.pi - 0.3, 1, 103)],
    )
    def test_exemplars_count_omega_hits_up_to_ten(self, theta, seed, n):
        phi = PureState.from_angles(theta, 0.0)
        basis = MeasurementBasis((phi, orthogonal_complement(phi)))
        cfg = McConfig(n_samples=n, seed=seed)
        batch = BM.prepare_batch(PLUS_Z, seed, 0, n)
        hits = np.count_nonzero(~BM.in_support_batch(phi, batch) & BM.response_batch(basis, batch)[0])
        assert 0 < hits < 10
        assert find_omega_witness(BM, PLUS_Z, phi, basis, cfg).exemplars == min(10, hits)

    def test_orthogonal_outcome_never_responds(self):
        z_basis = MeasurementBasis((PLUS_Z, MINUS_Z), "z")
        for model in (KS, BM):
            w = find_omega_witness(model, PLUS_Z, MINUS_Z, z_basis, CFG)
            assert w.response_mass.mean == 0.0

    def test_mass_decomposition_recovers_born(self):
        for model in (KS, BM):
            w = find_omega_witness(model, PLUS_Z, PLUS_X, X_BASIS, CFG)
            overlap = overlap_of(model, PLUS_Z, PLUS_X, CFG)
            se = math.hypot(w.response_mass.std_error, overlap.std_error)
            assert abs(w.response_mass.mean + overlap.mean - 0.5) <= 5 * se + 1e-12

    @pytest.mark.parametrize("name", models.MODEL_NAMES)
    def test_source_pass_witness_is_the_witness_on_psi_stream(self, name):
        # the pass feeds omega psi's batches, alone or beside the table and the scan
        model, catalog, cfg = make_model(name), default_catalog(), McConfig(n_samples=3_000, seed=11)
        psi, phi = canonical_pair(catalog)
        want = find_omega_witness(model, psi, phi, checks._basis_containing(catalog, phi), cfg)
        for names in (("omega",), ("born", "classify", "determinism", "omega")):
            assert checks.source_pass(CheckRun(model, catalog, cfg, names))["omega"] == want

    def test_phi_must_be_an_outcome(self):
        with pytest.raises(PreconditionError):
            find_omega_witness(KS, PLUS_Z, PLUS_Y, X_BASIS, CFG)

    def test_invariant_guard(self):
        good = McEstimate(mean=0.5, std_error=0.0, n=100)
        bad = McEstimate(mean=0.9, std_error=0.0, n=100)
        with pytest.raises(ValueError):
            OmegaWitness(good, bad)


class TestImplicationChainAudit:
    @pytest.mark.parametrize("name", ["ks", "bell-mermin", "const-half", "label-reader"])
    def test_chain_consistent_on_all_models(self, name):
        rep = audit_implication_chain(run_of(make_model(name), "audit"))
        assert rep.verdict == SATISFIED
        assert "chain=consistent" in rep.details

    def test_expected_subverdicts(self):
        details = audit_implication_chain(run_of(KS, "audit")).details
        assert "prep-nc=violated" in details
        assert "max-epistemic=satisfied" in details
        details = audit_implication_chain(run_of(BM, "audit")).details
        assert "prep-nc=violated" in details
        assert "max-epistemic=violated" in details

    def test_theorem_contrapositive_on_negative_controls(self):
        # a model failing determinism or noncontextuality must fail maximal epistemicity
        for model in (CONST, READER):
            det = check_outcome_determinism(run_of(model, "determinism"))
            mnc = check_measurement_noncontextuality(run_of(model, "measurement-nc"))
            assert VIOLATED in (det.verdict, mnc.verdict)
            assert check_max_psi_epistemic(run_of(model, "max-epistemic")).verdict == VIOLATED

    def test_deficit_implies_preparation_contextuality(self):
        for model in (BM, CONST, READER):
            rep = check_preparation_noncontextuality(
                run_of(model, "prep-nc"), half_half_mixture(PLUS_Z), half_half_mixture(PLUS_X)
            )
            assert rep.verdict == VIOLATED

    def test_requires_complement_closed_catalog(self):
        cat = StateCatalog(
            (PLUS_Z, MINUS_Z, PLUS_X), (MeasurementBasis((PLUS_Z, MINUS_Z), "z"),)
        )
        with pytest.raises(PreconditionError):
            audit_implication_chain(run_of(KS, "audit", cat))


class TestCanonicalPair:
    @staticmethod
    def pair(*states):
        return canonical_pair(StateCatalog(states, ()))

    def test_first_distinct_nonorthogonal_pair(self):
        assert self.pair(PLUS_Z, MINUS_Z, PLUS_X) == (PLUS_Z, PLUS_X)

    def test_skips_a_pair_antipodal_within_state_tol(self):
        near_minus_z = PureState(5e-13, 0.0, -1.0)
        psi, phi = self.pair(PLUS_Z, near_minus_z, PLUS_X)
        assert (psi, phi) == (PLUS_Z, PLUS_X)

    def test_skips_a_pair_identical_within_state_tol(self):
        near_plus_z = PureState(5e-13, 0.0, 1.0)
        assert self.pair(PLUS_Z, near_plus_z, PLUS_X) == (PLUS_Z, PLUS_X)

    def test_orthogonality_is_state_identity_with_the_complement(self):
        # 1e-7 off the antipode is a different state, however small its Born weight
        off_minus_z = PureState(1e-7, 0.0, -1.0)
        assert self.pair(PLUS_Z, off_minus_z) == (PLUS_Z, off_minus_z)

    def test_no_pair(self):
        with pytest.raises(PreconditionError, match="no distinct nonorthogonal pair"):
            self.pair(PLUS_Z, MINUS_Z)


class TestCheckRun:
    @pytest.mark.parametrize(
        "declared, check, name",
        [
            (("born",), check_max_psi_epistemic, "max-epistemic"),
            (("classify",), check_born_reproduction, "born"),
            (("determinism", "prep-nc"), classify_ontology, "classify"),
        ],
    )
    def test_undeclared_table_part_is_a_precondition_error(self, declared, check, name):
        with pytest.raises(PreconditionError, match=f"check '{name}' reads the state table"):
            check(CheckRun(KS, CATALOG, CFG, declared))

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0, 0.0, 1.0])
    def test_tolerance_outside_unit_interval_names_tol(self, tol):
        with pytest.raises(FieldError, match=r"^tol must be a finite number in \(0, 1\)") as info:
            CheckRun(KS, CATALOG, CFG, ("born",), tol)
        assert info.value.field == "tol"

    def test_no_check_runs_on_a_nan_tolerance(self):
        # a NaN tolerance made every `dist > tol` false: ks prep-nc read "satisfied" at TV 0.414
        with pytest.raises(FieldError, match="^tol"):
            check_preparation_noncontextuality(
                run_of(KS, "prep-nc", tol=math.nan), half_half_mixture(PLUS_Z), half_half_mixture(PLUS_X)
            )

    @pytest.mark.parametrize("names", [(), ["born"], "born", ("born", 1)])
    def test_check_names_must_be_a_non_empty_tuple_of_strings(self, names):
        with pytest.raises(FieldError, match="^check_names must be a non-empty tuple of strings"):
            CheckRun(KS, CATALOG, CFG, names)


class TestNoVacuousVerdicts:
    """A check with nothing to examine raises instead of reporting "satisfied"."""

    @pytest.mark.parametrize(
        "check",
        [check_born_reproduction, check_outcome_determinism, check_measurement_noncontextuality],
    )
    def test_response_checks_need_a_basis(self, check):
        # states but no bases is a legal catalog; max-epistemic gives the shared table rows
        catalog = StateCatalog((PLUS_Z, MINUS_Z), ())
        run = CheckRun(KS, catalog, CFG, ("born", "determinism", "measurement-nc", "max-epistemic"))
        with pytest.raises(PreconditionError, match="no measurement basis"):
            check(run)
        assert check_max_psi_epistemic(run).verdict == SATISFIED

    def test_classify_needs_a_nonorthogonal_pair(self):
        # +z and its complement only: with no nonorthogonal overlap, psi-ontic would be vacuous
        run = CheckRun(KS, catalog_from_states((PLUS_Z,)), CFG, ("classify",))
        with pytest.raises(PreconditionError, match="no distinct nonorthogonal pair"):
            classify_ontology(run)
