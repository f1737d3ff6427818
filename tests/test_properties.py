"""Property tests over random inputs.

Every test runs with derandomize=True, so the examples are a fixed function
of the test and the suite stays reproducible.
"""

import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onticlab import integrate
from onticlab.bell import make_max_entangled, steer, steering_basis
from onticlab.checks import CheckRun, EnsembleDistribution, _omega_integrand, find_omega_witness
from onticlab.errors import FieldError
from onticlab.integrate import (
    MAX_N_AZIMUTH,
    MAX_N_POLAR,
    MIN_SAMPLES,
    McConfig,
    QuadratureGrid,
    RunningSums,
    mc_expectation,
    mc_expectations,
    substream_key,
    tv_distance,
    uniform_blocks,
    walk,
    weighted_sum,
)
from onticlab.models import KochenSpeckerModel, PairBatch, catalog_from_states, default_catalog, make_model
from onticlab.qubit import (
    MINUS_Z,
    PLUS_X,
    PLUS_Z,
    Ensemble,
    MeasurementBasis,
    PureState,
    born_probability,
    half_half_mixture,
    orthogonal_complement,
    same_state,
)

from batch_of_one import uniform_sphere_batch

FAST = settings(derandomize=True, max_examples=60, deadline=None)

# Every value of these fails an integer field, whatever its range.
NOT_INTEGERS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True), st.booleans(), st.text(max_size=3), st.none()
)

INTEGER_FIELDS = {
    "n_samples": (McConfig, st.integers(max_value=MIN_SAMPLES - 1)),
    "seed": (McConfig, st.one_of(st.integers(max_value=-1), st.integers(min_value=2**64))),
    "n_polar": (QuadratureGrid, st.one_of(st.integers(max_value=0), st.integers(min_value=MAX_N_POLAR + 1))),
    "n_azimuth": (
        QuadratureGrid, st.one_of(st.integers(max_value=0), st.integers(min_value=MAX_N_AZIMUTH + 1))
    ),
}

STATES = st.builds(
    PureState.from_angles,
    st.floats(0.0, math.pi),
    st.floats(0.0, 2.0 * math.pi),
)


def assert_rejected(build, field):
    with pytest.raises(FieldError) as info:
        build()
    assert info.value.field == field
    assert str(info.value).startswith(f"{field} must be ")


class TestValidators:
    @pytest.mark.parametrize("field", sorted(INTEGER_FIELDS))
    def test_integer_fields_reject_non_integers_and_out_of_range(self, field):
        cls, out_of_range = INTEGER_FIELDS[field]

        @FAST
        @given(st.one_of(NOT_INTEGERS, out_of_range))
        def check(value):
            assert_rejected(lambda: cls(**{field: value}), field)

        check()

    @FAST
    @given(
        st.integers(MIN_SAMPLES, 10**9), st.integers(0, 2**64 - 1),
        st.integers(1, MAX_N_POLAR), st.integers(1, MAX_N_AZIMUTH),
    )
    def test_integers_in_range_accepted(self, n_samples, seed, n_polar, n_azimuth):
        cfg = McConfig(n_samples, seed)
        assert (cfg.n_samples, cfg.seed) == (n_samples, seed)
        grid = QuadratureGrid(n_polar, n_azimuth)
        assert (grid.n_polar, grid.n_azimuth) == (n_polar, n_azimuth)

    @FAST
    @given(
        st.one_of(
            st.floats(max_value=0.0), st.floats(min_value=1.0), st.just(math.nan),
            st.booleans(), st.text(max_size=3), st.none(),
        )
    )
    def test_tolerance_outside_the_open_unit_interval_rejected(self, tol):
        assert_rejected(lambda: CheckRun(make_model("ks"), default_catalog(), McConfig(), ("born",), tol), "tol")

    @FAST
    @given(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    def test_tolerance_inside_the_open_unit_interval_accepted(self, tol):
        assert CheckRun(make_model("ks"), default_catalog(), McConfig(), ("born",), tol).tol == tol


class TestCatalogFromStates:
    @FAST
    @given(st.lists(STATES, min_size=1, max_size=6), st.data())
    def test_closed_under_complements_and_idempotent(self, states, data):
        # repeats and complements of inputs must merge into the states already there
        extra = data.draw(st.lists(st.sampled_from(states), max_size=3))
        inputs = states + extra + [orthogonal_complement(s) for s in extra]
        cat = catalog_from_states(inputs)
        assert cat.closed_under_complements()
        assert all(any(same_state(s, c) for c in cat.states) for s in inputs)
        assert len(cat.states) == 2 * len(cat.bases)
        again = catalog_from_states(cat.states)
        assert again.states == cat.states and again.bases == cat.bases


class TestIndicatorReduction:
    @FAST
    @given(
        st.integers(MIN_SAMPLES, 5_000), st.integers(1, 6_000), st.integers(0, 2**64 - 1),
        st.floats(0.0, 1.0),
    )
    def test_bool_and_float_indicators_give_equal_estimates(self, n_samples, size, seed, p):
        cfg = McConfig(n_samples, seed)
        sampler = lambda seed, start, count: uniform_blocks(substream_key(seed, "bits"), start, count)[:, 0]
        # patched per example: a function-scoped fixture is not reset between examples
        with mock.patch.object(integrate, "BATCH_SIZE", size):
            counted = mc_expectation(lambda u: u < p, sampler, cfg)
            summed = mc_expectation(lambda u: (u < p).astype(float), sampler, cfg)
        assert counted == summed


class TestExactSumsAndBatchSize:
    """Exact sums do not depend on the batch size, for integrands beyond 0/1 indicators.

    The integrand takes the dyadic values k/4, k = 0..16, so every partial sum
    and sum of squares is exact far below 2**53, in any order.  A general
    float integrand is out of scope: its sums could move in the last bit with
    the batch size (ROADMAP item 2d).
    """

    @staticmethod
    def quarters(p):
        return (np.floor(8.0 * (p[:, 2] + 1.0)) / 4.0,)

    # every batch size of an example is one walk, so few examples cover many walks
    @settings(derandomize=True, max_examples=10, deadline=None)
    @given(st.integers(MIN_SAMPLES, 300), st.integers(0, 2**64 - 1))
    def test_dyadic_estimates_are_bitwise_equal_at_every_batch_size(self, n_samples, seed):
        cfg = McConfig(n_samples, seed)
        bits = lambda ests: [(e.mean.hex(), e.std_error.hex(), e.n) for e in ests]
        # patched per example: a function-scoped fixture is not reset between examples
        with mock.patch.object(integrate, "BATCH_SIZE", n_samples):
            one_batch = bits(mc_expectations([self.quarters], uniform_sphere_batch, cfg))
        for size in range(1, n_samples + 1):
            with mock.patch.object(integrate, "BATCH_SIZE", size):
                assert bits(mc_expectations([self.quarters], uniform_sphere_batch, cfg)) == one_batch


def batch_starts(budgets, size):
    """Where a walk starts a source's batches: 0, each multiple of size and each budget, below the last budget."""
    n = max(budgets, default=0)
    return sorted({0, *range(size, n, size), *budgets} - {n})


class TestWalk:
    """Each feed of a walk reads its budget's indices once, in order, bitwise one draw of them."""

    @FAST
    @given(st.lists(st.integers(1, 400), min_size=1, max_size=4), st.integers(1, 150),
           st.integers(0, 2**63), st.booleans())
    def test_feeds_read_one_draw_of_their_budgets(self, budgets, size, seed, pairs):
        drawn = []   # the start of every second sphere drawn

        def pair_sampler(seed, start, count):
            def draw_second():
                drawn.append(start)
                return uniform_sphere_batch(seed + 1, start, count)

            return PairBatch(uniform_sphere_batch(seed, start, count), draw_second)

        sampler = pair_sampler if pairs else uniform_sphere_batch
        read = [[] for _ in budgets]

        def feed_of(rows):
            def feed(batch):
                assert len(batch) <= size and type(batch) is (PairBatch if pairs else np.ndarray)
                # a batch is valid only during its feeds, so the rows kept are copies
                rows.append((batch.first.copy(), batch.second.copy()) if pairs else (batch.copy(),))
            return feed

        # patched per example: a function-scoped fixture is not reset between examples
        with mock.patch.object(integrate, "BATCH_SIZE", size):
            walk([(sampler, [(budget, feed_of(rows)) for budget, rows in zip(budgets, read)])], seed)
        assert drawn == (batch_starts(budgets, size) if pairs else [])   # each batch's once
        for budget, rows in zip(budgets, read):
            whole = sampler(seed, 0, budget)
            for sphere, part in zip((whole.first, whole.second) if pairs else (whole,), zip(*rows)):
                np.testing.assert_array_equal(np.concatenate(part), sphere)

    @FAST
    @given(st.lists(st.lists(st.integers(1, 400), max_size=3), min_size=1, max_size=4), st.integers(1, 150),
           st.integers(0, 2**62))
    def test_each_source_feeds_as_a_walk_of_its_own(self, sources, size, seed):
        """Every feed of a walk of several sources gets bitwise the rows a one-source walk of its source gives."""

        def run(walked):
            """The batch starts each source drew, and each feed's rows, in a walk of the sources walked."""
            drawn = [[] for _ in sources]
            read = [[[] for _ in budgets] for budgets in sources]

            def sampler_of(j):
                def sampler(seed, start, count):
                    drawn[j].append(start)
                    return uniform_sphere_batch(seed + j, start, count)
                return sampler

            # a batch is valid only during its feeds, so the rows kept are copies of its bytes
            walk([(sampler_of(j), [(budget, lambda batch, rows=rows: rows.append(batch.tobytes()))
                                   for budget, rows in zip(sources[j], read[j])])
                  for j in walked], seed)
            return drawn, read

        # patched per example: a function-scoped fixture is not reset between examples
        with mock.patch.object(integrate, "BATCH_SIZE", size):
            drawn, read = run(range(len(sources)))
            for j, budgets in enumerate(sources):
                alone_drawn, alone_read = run([j])
                assert drawn[j] == alone_drawn[j] == batch_starts(budgets, size)
                assert read[j] == alone_read[j]
                assert [sum(len(r) for r in rows) for rows in read[j]] == [24 * b for b in budgets]


class TestWorkers:
    """A walk's feeds and sums are bitwise the same on one worker and on two, for any float integrand."""

    @staticmethod
    def general(rows):
        return (np.sqrt(2.0) * rows[:, 0] + 1.0 / 3.0,)   # not dyadic: its sums round at every step

    @FAST
    @given(st.lists(st.lists(st.integers(2, 400), max_size=3), min_size=1, max_size=5), st.integers(1, 150),
           st.integers(0, 2**62))
    def test_feeds_and_estimates_do_not_depend_on_the_workers(self, sources, size, seed):
        def run():
            """Each feed's rows as bytes and each feed's estimates as hex, per source."""
            read = [[[] for _ in budgets] for budgets in sources]
            sums = [[RunningSums([self.general]) for _ in budgets] for budgets in sources]

            def feed_of(rows, acc):
                def feed(batch):
                    rows.append(batch.tobytes())
                    acc.add(batch)
                return feed

            walk([(lambda seed, start, count, j=j: uniform_sphere_batch(seed + j, start, count),
                   [(budget, feed_of(rows, acc)) for budget, rows, acc in zip(budgets, read[j], sums[j])])
                  for j, budgets in enumerate(sources)], seed)
            bits = [[[(e.mean.hex(), e.std_error.hex(), e.n) for e in acc.estimates()] for acc in accs]
                    for accs in sums]
            return read, bits

        # patched per example: a function-scoped fixture is not reset between examples
        with mock.patch.object(integrate, "BATCH_SIZE", size):
            with mock.patch.object(integrate, "WORKERS", 1):
                one = run()
            with mock.patch.object(integrate, "WORKERS", 2):
                two = run()
        assert two == one


class TestQuadratureReduction:
    """weighted_sum is exactly rounded, so its double is a function of the multiset of terms."""

    @FAST
    @given(
        st.lists(
            st.tuples(st.floats(0.0, 1e100), st.floats(-1e100, 1e100)), min_size=1, max_size=40
        ),
        st.data(),
    )
    def test_same_double_under_any_permutation_of_terms(self, terms, data):
        weights, values = (np.array(column) for column in zip(*terms))
        order = np.array(data.draw(st.permutations(range(len(terms)))))
        total = weighted_sum(weights, values)
        assert weighted_sum(weights[order], values[order]) == total
        # the exact rational sum of the rounded products, rounded once
        assert total == float(sum(Fraction(float(p)) for p in weights * values))

    def test_criterion_5_pair_reads_one_double(self):
        ks = make_model("ks")
        z, x = (EnsembleDistribution(ks, half_half_mixture(s)) for s in (PLUS_Z, PLUS_X))
        tv = tv_distance(z.density_batch, x.density_batch)
        assert tv == 0.4141998590767367


TV_GRID_ERROR = 5e-5   # E: how far the default grid's TV may lie from the exact TV of ks mixtures


def exact_mixture_tv(psi, phi):
    """The TV of ks's half-half mixtures of psi and phi: sqrt(1 + |psi x phi|) - 1 for their Bloch vectors."""
    return math.sqrt(1.0 + np.linalg.norm(np.cross(psi.vec(), phi.vec()))) - 1.0


class TestExactMixtureTv:
    """On the default grid, tv_distance of ks half-half mixtures lies within TV_GRID_ERROR of the closed form.

    A ks half-half mixture of psi has density |psi . lambda| / (2 pi).  With psi
    and phi at angle gamma in one plane, TV = (1/8) int_0^{2 pi} ||cos b| - |cos(b - gamma)|| db
    = sin(gamma/2) + cos(gamma/2) - 1 = sqrt(1 + |psi x phi|) - 1.  So a prep-nc or
    nonlocality verdict on ks can flip with the grid only when |TV - tol| < TV_GRID_ERROR.
    """

    KS = make_model("ks")

    def assert_near_exact(self, e1, e2, psi, phi):
        densities = (EnsembleDistribution(self.KS, e).density_batch for e in (e1, e2))
        assert abs(tv_distance(*densities, QuadratureGrid()) - exact_mixture_tv(psi, phi)) <= TV_GRID_ERROR

    @FAST
    @given(STATES, STATES)
    def test_random_pairs(self, psi, phi):
        self.assert_near_exact(half_half_mixture(psi), half_half_mixture(phi), psi, phi)

    @FAST
    @given(st.floats(0.0, math.pi - 0.01), st.floats(0.0, 2.0 * math.pi), st.floats(1e-9, 1e-2))
    def test_near_pairs(self, theta, azimuth, delta):
        psi, phi = (PureState.from_angles(t, azimuth) for t in (theta, theta + delta))
        self.assert_near_exact(half_half_mixture(psi), half_half_mixture(phi), psi, phi)

    @pytest.mark.parametrize("psi", [PLUS_Z, PLUS_X, PureState.from_angles(1.1, 4.2)])
    def test_equal_and_orthogonal_pairs(self, psi):
        # a state and its complement make the same mixture: both read exactly 0
        for phi in (psi, orthogonal_complement(psi)):
            assert exact_mixture_tv(psi, phi) == 0.0
            self.assert_near_exact(half_half_mixture(psi), half_half_mixture(phi), psi, phi)
        # Bloch vectors at a right angle read sqrt(2) - 1
        axis = np.cross(psi.vec(), [0.6, 0.0, 0.8])
        perp = PureState(*(axis / np.linalg.norm(axis)).tolist())
        assert exact_mixture_tv(psi, perp) == pytest.approx(math.sqrt(2.0) - 1.0, abs=1e-15)
        self.assert_near_exact(half_half_mixture(psi), half_half_mixture(perp), psi, perp)

    @FAST
    @given(STATES, STATES)
    def test_steered_ensembles(self, psi, phi):
        # nonlocality's two ensembles: Bob's halves for Alice's bases aimed at psi and at phi
        (_, e1), (_, e2) = steering_basis(psi, psi), steering_basis(psi, phi)
        self.assert_near_exact(e1, e2, psi, phi)

    def test_nonlocality_steered_pair(self):
        (_, e1), (_, e2) = steering_basis(PLUS_Z, PLUS_Z), steering_basis(PLUS_Z, PLUS_X)
        self.assert_near_exact(e1, e2, PLUS_Z, PLUS_X)


# catalog states coincide across ensembles, as a point measure's support needs to show anything
CATALOG_STATES = st.sampled_from(default_catalog().states)


def ensembles(states):
    """Ensembles of 1 to 3 entries whose weights, zero included, sum to 1 but for a few units of 2**-44."""
    entries = st.lists(st.tuples(st.integers(0, 4), states), min_size=1, max_size=3)
    scales = st.integers(-4, 4).map(lambda k: 1.0 + k * 2.0**-44)
    return st.tuples(entries.filter(lambda es: any(w for w, _ in es)), scales).map(
        lambda drawn: Ensemble(tuple((drawn[1] * w / sum(v for v, _ in drawn[0]), s) for w, s in drawn[0]))
    )


def estimate_bits(e):
    return e.mean.hex(), e.std_error.hex(), e.n


class TestStratifiedExpectation:
    """A mixture's expectation is each component's own estimate, combined by integrate.stratified.

    The witness is the union of another ensemble's supports, so components
    may disagree, and entries may have zero weight.
    """

    @staticmethod
    def general(part):
        rows = part.total if isinstance(part, PairBatch) else part
        return np.sqrt(2.0) * rows[:, 0] + 1.0 / 3.0   # not dyadic: its sums round at every step

    @FAST
    @given(st.sampled_from(["ks", "bell-mermin"]), st.data(), st.integers(0, 2**63),
           st.integers(MIN_SAMPLES, 300))
    def test_each_component_is_estimated_on_its_own_stream(self, model_name, data, seed, n):
        model = make_model(model_name)
        states = CATALOG_STATES if model_name == "bell-mermin" else st.one_of(CATALOG_STATES, STATES)
        witness = EnsembleDistribution(model, data.draw(ensembles(states)))
        dist = EnsembleDistribution(model, data.draw(ensembles(states)))
        f = data.draw(st.sampled_from([witness.support_batch, self.general]))
        cfg = McConfig(n, seed)
        samplers = [lambda seed, start, count, psi=psi: model.prepare_batch(psi, seed, start, count)
                    for _, psi in dist.ensemble.entries]
        strata = [mc_expectation(f, sampler, cfg) for sampler in samplers]
        got = dist.expectation(f, cfg)
        assert estimate_bits(got) == estimate_bits(integrate.stratified(dist.ensemble.weights(), strata))
        if len(strata) == 1:
            assert estimate_bits(got) == estimate_bits(strata[0])

    @FAST
    @given(st.sampled_from(["ks", "bell-mermin"]), st.data(), st.integers(0, 2**63), st.integers(-64, 64))
    def test_a_constant_comes_back_exactly(self, model_name, data, seed, k):
        # a dyadic constant, so each component's sums are exact and its estimate is the constant
        dist = EnsembleDistribution(make_model(model_name), data.draw(ensembles(CATALOG_STATES)))
        got = dist.expectation(lambda part: np.full(len(part), k / 8.0), McConfig(MIN_SAMPLES, seed))
        assert (got.mean, got.std_error, got.n) == (k / 8.0, 0.0, MIN_SAMPLES)


class TestSteeringRoundTrip:
    @FAST
    @given(STATES, STATES)
    def test_steered_halves_are_phi_and_its_complement(self, psi, phi):
        basis, _ = steering_basis(psi, phi)
        ens = steer(make_max_entangled(psi), basis)
        (p0, bob0), (p1, bob1) = ens.entries
        assert abs(p0 - 0.5) <= 1e-10 and abs(p1 - 0.5) <= 1e-10
        assert np.abs(bob0.vec() - phi.vec()).max() <= 1e-10
        assert np.abs(bob1.vec() + phi.vec()).max() <= 1e-10


class WideSupport(KochenSpeckerModel):
    """ks with every support widened to lambda . phi > -0.1, past the half-space where phi responds."""

    def in_support_batch(self, psi, batch):
        return batch @ psi.vec() > -0.1


class TestBornLemma:
    """The lemma behind both steps of the chain: a model that reproduces Born on phi has
    response(phi, lambda) = 1 for mu_phi-almost every lambda.

    For every catalog psi, basis outcome phi and lambda ~ mu_psi, lambda in supp mu_phi must imply
    response(phi, lambda) = 1.  const-half answers 1/2 everywhere and fails Born, so it offends on
    every support row, and a support widened past phi's half-space shows that the scan has teeth.
    """

    @staticmethod
    def counts(model, cfg=McConfig(n_samples=20_000, seed=42)):
        """(offending rows, support rows) over every catalog psi and basis outcome phi."""
        def lemma(basis, idx, phi):
            def support_and_offense(batch):
                inside = model.in_support_batch(phi, batch)
                return inside, inside & (model.response_batch(basis, batch)[idx] != 1)
            return support_and_offense

        catalog = default_catalog()
        fs = [lemma(basis, idx, phi) for basis in catalog.bases for idx, phi in enumerate(basis.outcomes)]
        offending = support = 0
        for psi in catalog.states:
            sampler = lambda seed, start, count, psi=psi: model.prepare_batch(psi, seed, start, count)
            hits = [round(e.mean * e.n) for e in mc_expectations(fs, sampler, cfg)]
            support, offending = support + sum(hits[0::2]), offending + sum(hits[1::2])
        return offending, support

    @pytest.mark.parametrize("model, offending, support", [
        (make_model("ks"), 0, 360_000),
        (make_model("bell-mermin"), 0, 120_000),
        (make_model("label-reader"), 0, 120_000),
        (make_model("const-half"), 120_000, 120_000),
        (WideSupport(), 31_577, 391_577),
    ], ids=["ks", "bell-mermin", "label-reader", "const-half", "wide-support"])
    def test_support_rows_respond_with_one(self, model, offending, support):
        assert self.counts(model) == (offending, support)

    @pytest.mark.parametrize("name, differ", [
        ("ks", 0), ("bell-mermin", 0), ("label-reader", 0), ("const-half", 6),
    ])
    def test_born_count_is_overlap_count_plus_omega_response_count(self, name, differ):
        """Where the lemma holds, Born(phi|psi) = mu_psi(supp mu_phi) + D(psi, phi), count for count.

        All three are counted on one stream, and D is the Omega witness's response mass.  const-half
        responds 1/2 on its own support, so its psi = phi rows break the identity.
        """
        model, catalog, cfg = make_model(name), default_catalog(), McConfig(n_samples=20_000, seed=42)

        def born_overlap_omega(basis, idx, phi):
            omega = _omega_integrand(model, phi, basis)
            return lambda batch: (
                model.response_batch(basis, batch)[idx], model.in_support_batch(phi, batch), omega(batch)[1]
            )

        outcomes = [phi for basis in catalog.bases for phi in basis.outcomes]
        fs = [born_overlap_omega(basis, idx, phi)
              for basis in catalog.bases for idx, phi in enumerate(basis.outcomes)]
        broken = []
        for psi in catalog.states:
            sampler = lambda seed, start, count, psi=psi: model.prepare_batch(psi, seed, start, count)
            counts = [round(e.mean * e.n) for e in mc_expectations(fs, sampler, cfg)]
            for phi, born, overlap, omega in zip(outcomes, counts[0::3], counts[1::3], counts[2::3]):
                if born != overlap + omega:
                    broken.append((psi, phi))
        assert len(catalog.states) * len(outcomes) == 36
        assert len(broken) == differ
        assert all(same_state(psi, phi) for psi, phi in broken)


class NarrowSupport(KochenSpeckerModel):
    """ks with every support narrowed to lambda . phi > 0.1, inside the half-space where phi responds."""

    def in_support_batch(self, psi, batch):
        return batch @ psi.vec() > 0.1


class TestChainFirstStep:
    """The chain's first step with its slack: for a model that reproduces Born on {phi, phi_perp},
    D(psi, phi) + D(psi_perp, phi) <= 2 TV(1/2 mu_psi + 1/2 mu_psi_perp, 1/2 mu_phi + 1/2 mu_phi_perp).

    D is the Omega witness's response mass.  The test function 1{off supp mu_phi} response(phi) lies
    in [0, 1]; it integrates to 0 under the phi mixture and to (D + D') / 2 under the psi mixture.
    Near pairs make 2 TV small, and a ks support narrowed to lambda . phi > 0.1 breaks the bound
    there.  bell-mermin has no density, so there D(psi, phi) <= Born(phi|psi) is checked instead.
    """

    CFG = McConfig(n_samples=20_000, seed=42)
    ANGLES = (st.floats(0.0, math.pi), st.floats(0.0, 2.0 * math.pi))

    def masses(self, model, phi):
        """D(+z, phi) and D(-z, phi)."""
        basis = MeasurementBasis((phi, orthogonal_complement(phi)))
        return [
            find_omega_witness(model, psi, phi, basis, self.CFG).response_mass for psi in (PLUS_Z, MINUS_Z)
        ]

    def bound(self, model, theta, azimuth):
        """(D + D', 2 TV, 5 sigma of D + D') for psi = +z and phi at (theta, azimuth)."""
        phi = PureState.from_angles(theta, azimuth)
        d, d_perp = self.masses(model, phi)
        mixture = lambda s: EnsembleDistribution(model, half_half_mixture(s)).density_batch
        tv = tv_distance(mixture(PLUS_Z), mixture(phi), QuadratureGrid())
        return d.mean + d_perp.mean, 2.0 * tv, 5.0 * math.hypot(d.std_error, d_perp.std_error)

    @settings(derandomize=True, max_examples=4, deadline=None)
    @given(*ANGLES)
    def test_ks_omega_masses_are_within_twice_the_mixtures_tv(self, theta, azimuth):
        masses, twice_tv, resolution = self.bound(make_model("ks"), theta, azimuth)
        # ks's response to phi shares its support's half-space, so D is exactly 0
        assert masses == 0.0
        assert masses <= twice_tv + resolution

    @pytest.mark.parametrize("theta, holds", [(0.002, False), (0.02, True), (0.5, True), (1.2, True)])
    def test_a_narrowed_support_breaks_the_bound_on_near_pairs(self, theta, holds):
        masses, twice_tv, resolution = self.bound(NarrowSupport(), theta, 0.3)
        assert (masses <= twice_tv + resolution) == holds

    @settings(derandomize=True, max_examples=4, deadline=None)
    @given(*ANGLES)
    def test_bell_mermin_omega_response_mass_is_within_born(self, theta, azimuth):
        phi = PureState.from_angles(theta, azimuth)
        d, _ = self.masses(make_model("bell-mermin"), phi)
        assert d.mean <= born_probability(phi, PLUS_Z) + 5.0 * d.std_error
