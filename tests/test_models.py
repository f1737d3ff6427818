import numpy as np
import pytest

from onticlab.errors import FieldError
from onticlab.integrate import McConfig, QuadratureGrid, mc_expectation, sphere_quadrature
from onticlab.models import (
    RELABEL_MARK,
    BellMerminModel,
    ConstantResponseModel,
    KochenSpeckerModel,
    LabelReadingModel,
    PairPoint,
    SingleBatch,
    SinglePoint,
    StateCatalog,
    catalog_from_states,
    default_catalog,
    make_model,
    random_states,
)
from onticlab.qubit import (
    MINUS_X,
    MINUS_Z,
    PLUS_X,
    PLUS_Y,
    PLUS_Z,
    BlochVector,
    MeasurementBasis,
    PureState,
    born_probability,
    orthogonal_complement,
)

from batch_of_one import density, in_support, response, sample_prepared, step, uniform_sphere_batch

CFG = McConfig(n_samples=100_000, seed=13)
GRID = QuadratureGrid()
KS = KochenSpeckerModel()
BM = BellMerminModel()
Z_BASIS = MeasurementBasis((PLUS_Z, MINUS_Z), "z")
X_BASIS = MeasurementBasis((PLUS_X, MINUS_X), "x")


def gauss_1d(f, a, b, n=400):
    x, w = np.polynomial.legendre.leggauss(n)
    xm = 0.5 * (b - a) * x + 0.5 * (a + b)
    return float(0.5 * (b - a) * (w @ f(xm)))


def prepare_sampler(model, psi):
    return lambda seed, start, count: model.prepare_batch(psi, seed, start, count)


class TestStep:
    def test_convention(self):
        assert step(0.3) == 1.0
        assert step(0.0) == 0.0
        assert step(-0.3) == 0.0
        assert step(-0.0) == 0.0

    def test_vectorized(self):
        np.testing.assert_array_equal(step(np.array([-1.0, 0.0, 2.0])), [0.0, 0.0, 1.0])


class TestCapDensity:
    def test_at_the_prepared_vector(self):
        assert density(KS, PLUS_Z, SinglePoint(PLUS_Z.bloch)) == 1.0 / np.pi

    def test_boundary_and_antipode(self):
        assert density(KS, PLUS_Z, SinglePoint(PLUS_X.bloch)) == 0.0
        assert density(KS, PLUS_Z, SinglePoint(MINUS_Z.bloch)) == 0.0

    def test_rejects_pair_states(self):
        lam = PairPoint(PLUS_Z.bloch, PLUS_X.bloch)
        with pytest.raises(ValueError):
            density(KS, PLUS_Z, lam)

    def test_normalization_on_default_grid(self):
        # polar-aligned states hit the panel boundary and are near exact
        for psi in (PLUS_Z, MINUS_Z):
            val = sphere_quadrature(lambda p: KS.density_batch(psi, SingleBatch(p)), GRID)
            assert abs(val - 1.0) <= 1e-9
        # arbitrary orientations are limited by the azimuthal kink resolution
        states = [PLUS_X, MINUS_X, PLUS_Y, *random_states(99, 5)]
        for psi in states:
            val = sphere_quadrature(lambda p: KS.density_batch(psi, SingleBatch(p)), GRID)
            assert abs(val - 1.0) <= 1e-4

    def test_density_nonnegative_and_support_consistent(self):
        pts = uniform_sphere_batch(3, 0, 20_000)
        dens = KS.density_batch(PLUS_Y, SingleBatch(pts))
        support = KS.in_support_batch(PLUS_Y, SingleBatch(pts))
        assert dens.min() >= 0.0
        np.testing.assert_array_equal(dens > 0.0, support)


class TestCapSampler:
    def test_mean_alignment(self):
        # E[psi . lam] under the cap density: int_0^1 t * 2t dt = 2/3
        oracle = gauss_1d(lambda t: 2.0 * t * t, 0.0, 1.0)
        assert abs(oracle - 2.0 / 3.0) <= 1e-12
        for psi in (PLUS_Z, PureState(BlochVector.from_angles(1.1, 2.2))):
            est = mc_expectation(
                lambda b: b.points @ psi.vec(), prepare_sampler(KS, psi), CFG
            )
            assert abs(est.mean - oracle) <= 5 * est.std_error

    def test_all_draws_in_open_hemisphere(self):
        for psi in (PLUS_X, PureState(BlochVector.from_angles(0.4, -1.0))):
            pts = KS.prepare_batch(psi, 7, 0, 100_000).points
            assert (pts @ psi.vec()).min() > 0.0

    def test_determinism_and_scalar_batch_agreement(self):
        batch = KS.prepare_batch(PLUS_X, 21, 10, 6)
        for i in range(6):
            lam = sample_prepared(KS, PLUS_X, 21, 10 + i)
            np.testing.assert_array_equal(lam.point.as_array(), batch.points[i])
        again = KS.prepare_batch(PLUS_X, 21, 10, 6)
        np.testing.assert_array_equal(batch.points, again.points)

    def test_matches_density_via_quadrature(self):
        psi = PureState(BlochVector.from_angles(0.9, 0.3))
        integrands = [
            lambda p: np.exp(p[:, 2]),
            lambda p: (p[:, 0] > 0.2).astype(float),
        ]
        for g in integrands:
            quad = sphere_quadrature(
                lambda p: g(p) * KS.density_batch(psi, SingleBatch(p)), GRID
            )
            est = mc_expectation(lambda b: g(b.points), prepare_sampler(KS, psi), CFG)
            assert abs(est.mean - quad) <= 5 * est.std_error + 1e-4


class TestCapResponse:
    def test_pointwise_cases(self):
        assert response(KS, X_BASIS, 0, SinglePoint(PLUS_X.bloch)) == 1.0
        assert response(KS, X_BASIS, 0, SinglePoint(MINUS_X.bloch)) == 0.0
        assert response(KS, X_BASIS, 0, SinglePoint(PLUS_Z.bloch)) == 0.0  # boundary

    def test_outcomes_sum_to_one_off_boundary(self):
        batch = KS.prepare_batch(PLUS_Y, 3, 0, 50_000)
        total = KS.response_batch(X_BASIS, 0, batch) + KS.response_batch(X_BASIS, 1, batch)
        np.testing.assert_array_equal(total, np.ones(len(batch)))

    def test_boundary_sums_to_zero(self):
        boundary = SinglePoint(PLUS_Z.bloch)   # equator of the x basis
        total = response(KS, X_BASIS, 0, boundary) + response(KS, X_BASIS, 1, boundary)
        assert total == 0.0


class TestSpherePairModel:
    def test_first_component_pinned_exactly(self):
        batch = BM.prepare_batch(PLUS_Y, 5, 0, 1000)
        assert (batch.first == PLUS_Y.vec()).all()

    def test_second_component_uniform(self):
        batch = BM.prepare_batch(PLUS_Z, 5, 0, 200_000)
        assert np.abs(batch.second.mean(axis=0)).max() <= 5 * (1.0 / np.sqrt(3 * 200_000)) + 2e-3

    def test_support_is_first_component_only(self):
        batch = BM.prepare_batch(PLUS_Z, 5, 0, 100)
        assert BM.in_support_batch(PLUS_Z, batch).all()
        assert not BM.in_support_batch(PLUS_X, batch).any()
        lam = sample_prepared(BM, PLUS_Z, 5, 0)
        assert in_support(BM, PLUS_Z, lam)
        assert not in_support(BM, PLUS_X, lam)

    def test_point_response_cases(self):
        assert response(BM, X_BASIS, 0, PairPoint(PLUS_X.bloch, PLUS_X.bloch)) == 1.0
        for basis, idx in ((X_BASIS, 0), (X_BASIS, 1), (Z_BASIS, 0), (Z_BASIS, 1)):
            lam = PairPoint(PLUS_Y.bloch, MINUS_Z.bloch.antipode().antipode())
            lam = PairPoint(PLUS_Y.bloch, orthogonal_complement(PLUS_Y).bloch)
            assert response(BM, basis, idx, lam) == 0.0   # summed vector is zero

    def test_reproduces_born_rule_in_expectation(self):
        for psi, alpha_basis, idx in (
            (PLUS_Z, X_BASIS, 0),
            (PLUS_Y, Z_BASIS, 1),
            (PureState(BlochVector.from_angles(0.7, 0.1)), Z_BASIS, 0),
        ):
            est = mc_expectation(
                lambda b: BM.response_batch(alpha_basis, idx, b),
                prepare_sampler(BM, psi),
                CFG,
            )
            target = born_probability(alpha_basis.outcomes[idx], psi)
            assert abs(est.mean - target) <= 5 * est.std_error

    def test_density_absent(self):
        assert density(BM, PLUS_Z, sample_prepared(BM, PLUS_Z, 1, 0)) is None
        assert BM.density_batch(PLUS_Z, BM.prepare_batch(PLUS_Z, 1, 0, 10)) is None

    def test_scalar_batch_agreement(self):
        batch = BM.prepare_batch(PLUS_X, 9, 4, 5)
        for i in range(5):
            lam = sample_prepared(BM, PLUS_X, 9, 4 + i)
            np.testing.assert_array_equal(lam.first.as_array(), batch.first[i])
            np.testing.assert_array_equal(lam.second.as_array(), batch.second[i])

    def test_reference_measure_is_product_uniform(self):
        ref = BM.reference_batch(11, 0, 100_000)
        assert abs((ref.first[:, 2] ** 2).mean() - 1 / 3) <= 0.01
        assert abs((ref.second[:, 0] ** 2).mean() - 1 / 3) <= 0.01


class TestResponseCompleteness:
    @pytest.mark.parametrize("name", ["ks", "bell-mermin", "const-half", "label-reader"])
    def test_outcomes_sum_to_one_on_sampled_states(self, name):
        model = make_model(name)
        for psi in (PLUS_Z, PLUS_Y):
            batch = model.prepare_batch(psi, 3, 0, 20_000)
            for basis in (Z_BASIS, X_BASIS):
                total = model.response_batch(basis, 0, batch) + model.response_batch(basis, 1, batch)
                np.testing.assert_array_equal(total, np.ones(len(batch)))

    @pytest.mark.parametrize("name", ["ks", "bell-mermin"])
    def test_support_orthogonality_and_own_response(self, name):
        model = make_model(name)
        for psi in (PLUS_Z, PLUS_X):
            batch = model.prepare_batch(psi, 7, 0, 50_000)
            perp = orthogonal_complement(psi)
            assert not model.in_support_batch(perp, batch).any()
            basis = MeasurementBasis((psi, perp), "own")
            np.testing.assert_array_equal(
                model.response_batch(basis, 0, batch), np.ones(len(batch))
            )


class TestFixtures:
    def test_constant_response(self):
        model = ConstantResponseModel()
        batch = model.prepare_batch(PLUS_Z, 1, 0, 10)
        np.testing.assert_array_equal(model.response_batch(Z_BASIS, 0, batch), np.full(10, 0.5))
        assert (batch.points == PLUS_Z.vec()).all()

    def test_label_reader_flips_only_on_marked_descriptors(self):
        model = LabelReadingModel()
        batch = model.reference_batch(2, 0, 1000)
        plain = model.response_batch(X_BASIS, 0, batch)
        marked = MeasurementBasis(X_BASIS.outcomes, "x" + RELABEL_MARK)
        np.testing.assert_array_equal(model.response_batch(marked, 0, batch), 1.0 - plain)
        unmarked = MeasurementBasis(X_BASIS.outcomes, "renamed")
        np.testing.assert_array_equal(model.response_batch(unmarked, 0, batch), plain)


class TestCatalogs:
    def test_default_catalog(self):
        cat = default_catalog()
        assert len(cat.states) == 6 and len(cat.bases) == 3
        assert cat.closed_under_complements()

    def test_outcome_must_be_listed(self):
        with pytest.raises(ValueError):
            StateCatalog((PLUS_Z, MINUS_Z), (X_BASIS,))

    def test_empty_catalog_rejected_naming_states(self):
        with pytest.raises(FieldError, match="^states must be non-empty") as info:
            StateCatalog((), ())
        assert info.value.field == "states"

    def test_closure_detection(self):
        cat = StateCatalog((PLUS_Z, MINUS_Z, PLUS_X), (Z_BASIS,))
        assert not cat.closed_under_complements()

    def test_random_states_deterministic_units(self):
        a = random_states(31, 12)
        b = random_states(31, 12)
        assert a == b
        assert len({s.bloch for s in a}) == 12
        for s in a:
            assert abs(np.linalg.norm(s.vec()) - 1.0) <= 1e-12

    def test_catalog_from_states(self):
        cat = catalog_from_states([PLUS_Z, PLUS_X, MINUS_X])
        assert cat.closed_under_complements()
        assert len(cat.bases) == 2
        for basis in cat.bases:
            a, b = basis.outcomes
            assert np.abs(a.vec() + b.vec()).max() <= 1e-12

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_catalog_from_states_is_idempotent(self, seed):
        cat = catalog_from_states(random_states(seed, 10))
        again = catalog_from_states(cat.states)
        assert again.states == cat.states and again.bases == cat.bases
        assert [s.label for s in again.states] == [s.label for s in cat.states]
        assert [b.label for b in again.bases] == [b.label for b in cat.bases]

    def test_states_within_state_tol_merge(self):
        near = PureState(BlochVector(1e-13, 0.0, 1.0))
        near_complement = PureState(BlochVector(0.0, -5e-13, -1.0))   # near MINUS_Z
        cat = catalog_from_states([PLUS_Z, near, near_complement])
        assert cat.states == (PLUS_Z, MINUS_Z) and len(cat.bases) == 1
        apart = PureState(BlochVector(2e-12, 0.0, 1.0))
        cat = catalog_from_states([PLUS_Z, apart])
        assert len(cat.states) == 4 and len(cat.bases) == 2

    def test_membership_and_closure_use_state_tol(self):
        near_minus_z = PureState(BlochVector(5e-13, 0.0, -1.0))
        cat = StateCatalog((PLUS_Z, near_minus_z), (Z_BASIS,))
        assert cat.closed_under_complements()
        with pytest.raises(ValueError, match="missing from catalog states"):
            StateCatalog((PLUS_Z, PureState(BlochVector(2e-12, 0.0, -1.0))), (Z_BASIS,))

    def test_make_model_unknown(self):
        with pytest.raises(ValueError, match="valid names"):
            make_model("nope")
