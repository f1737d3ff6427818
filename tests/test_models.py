import math

import numpy as np
import pytest

from onticlab import integrate, models
from onticlab.checks import _descriptor_variants
from onticlab.errors import FieldError, PreconditionError
from onticlab.integrate import (
    McConfig,
    QuadratureGrid,
    mc_expectation,
    sphere_points_from_uniforms,
    sphere_quadrature,
    uniform_blocks,
    walk,
)
from onticlab.models import (
    RELABEL_MARK,
    BellMerminModel,
    ConstantResponseModel,
    KochenSpeckerModel,
    LabelReadingModel,
    PairBatch,
    StateCatalog,
    catalog_from_states,
    default_catalog,
    make_model,
)
from onticlab.qubit import (
    MINUS_X,
    MINUS_Y,
    MINUS_Z,
    PLUS_X,
    PLUS_Y,
    PLUS_Z,
    MeasurementBasis,
    PureState,
    born_probability,
    orthogonal_complement,
)

from batch_of_one import (
    density,
    gauss_1d,
    in_support,
    pair,
    random_states,
    response,
    sample_prepared,
    single,
    step,
    uniform_sphere_batch,
)

CFG = McConfig(n_samples=100_000, seed=13)
GRID = QuadratureGrid()
KS = KochenSpeckerModel()
BM = BellMerminModel()
Z_BASIS = MeasurementBasis((PLUS_Z, MINUS_Z), "z")
X_BASIS = MeasurementBasis((PLUS_X, MINUS_X), "x")


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
        assert density(KS, PLUS_Z, single(PLUS_Z)) == 1.0 / np.pi

    def test_boundary_and_antipode(self):
        assert density(KS, PLUS_Z, single(PLUS_X)) == 0.0
        assert density(KS, PLUS_Z, single(MINUS_Z)) == 0.0

    def test_rejects_pair_states(self):
        lam = pair(PLUS_Z, PLUS_X)
        with pytest.raises(ValueError):
            density(KS, PLUS_Z, lam)

    def test_normalization_on_default_grid(self):
        # polar-aligned states hit the panel boundary and are near exact
        for psi in (PLUS_Z, MINUS_Z):
            val = sphere_quadrature(lambda p: KS.density_batch(psi, p), GRID)
            assert abs(val - 1.0) <= 1e-9
        # arbitrary orientations are limited by the azimuthal kink resolution
        states = [PLUS_X, MINUS_X, PLUS_Y, *random_states(99, 5)]
        for psi in states:
            val = sphere_quadrature(lambda p: KS.density_batch(psi, p), GRID)
            assert abs(val - 1.0) <= 1e-4

    def test_density_nonnegative_and_support_consistent(self):
        pts = uniform_sphere_batch(3, 0, 20_000)
        dens = KS.density_batch(PLUS_Y, pts)
        support = KS.in_support_batch(PLUS_Y, pts)
        assert dens.min() >= 0.0
        np.testing.assert_array_equal(dens > 0.0, support)


class TestCapSampler:
    def test_mean_alignment(self):
        # E[psi . lam] under the cap density: int_0^1 t * 2t dt = 2/3
        oracle = gauss_1d(lambda t: 2.0 * t * t, 0.0, 1.0, 400)
        assert abs(oracle - 2.0 / 3.0) <= 1e-12
        for psi in (PLUS_Z, PureState.from_angles(1.1, 2.2)):
            est = mc_expectation(
                lambda b: b @ psi.vec(), prepare_sampler(KS, psi), CFG
            )
            assert abs(est.mean - oracle) <= 5 * est.std_error

    def test_all_draws_in_open_hemisphere(self):
        for psi in (PLUS_X, PureState.from_angles(0.4, -1.0)):
            pts = KS.prepare_batch(psi, 7, 0, 100_000)
            assert (pts @ psi.vec()).min() > 0.0

    def test_determinism_and_scalar_batch_agreement(self):
        batch = KS.prepare_batch(PLUS_X, 21, 10, 6)
        for i in range(6):
            lam = sample_prepared(KS, PLUS_X, 21, 10 + i)
            np.testing.assert_array_equal(lam[0], batch[i])
        again = KS.prepare_batch(PLUS_X, 21, 10, 6)
        np.testing.assert_array_equal(batch, again)

    def test_matches_density_via_quadrature(self):
        psi = PureState.from_angles(0.9, 0.3)
        integrands = [
            lambda p: np.exp(p[:, 2]),
            lambda p: (p[:, 0] > 0.2).astype(float),
        ]
        for g in integrands:
            quad = sphere_quadrature(
                lambda p: g(p) * KS.density_batch(psi, p), GRID
            )
            est = mc_expectation(g, prepare_sampler(KS, psi), CFG)
            assert abs(est.mean - quad) <= 5 * est.std_error + 1e-4


def _axes_near_the_frame_switch():
    """Unit axes with |z| on both sides of the 0.9 at which _cap_frame changes its helper vector."""
    zs = (0.8999, 0.9, 0.9001, -0.8999, -0.9, -0.9001)
    return [np.array([math.sqrt(1.0 - z * z) * math.cos(1.3), math.sqrt(1.0 - z * z) * math.sin(1.3), z])
            for z in zs]


class TestMapsMatchPlainExpressions:
    """The cap and sphere maps write every step into lent arrays, and give bit for bit their plain expressions.

    The references below are the plain numpy expressions the two maps had
    before they wrote with out=, one fresh array per step.  The axes lie off
    the coordinate axes, so every coordinate of a cap point reads the polar
    angle, which the signs alone (all that the default catalog's ks reports
    read) do not.
    """

    # the six axis states, with -z twice: as MINUS_Z and as the complement of +z, which carries -0.0
    AXES = [s.vec() for s in random_states(17, 4)] + _axes_near_the_frame_switch() + [
        s.vec() for s in (PLUS_Z, MINUS_Z, orthogonal_complement(PLUS_Z), PLUS_X, MINUS_X, PLUS_Y, MINUS_Y)
    ]
    COUNT = 1_000

    @staticmethod
    def plain_sphere(u0, u1):
        z = 2.0 * u0 - 1.0
        phi = (2.0 * np.pi) * u1
        r = np.sqrt(1.0 - z * z)
        out = np.empty((len(z), 3))
        out[:, 0] = r * np.cos(phi)
        out[:, 1] = r * np.sin(phi)
        out[:, 2] = z
        return out

    @staticmethod
    def plain_cap(axis, key, start, count):
        u = uniform_blocks(key, start, count)
        t = np.sqrt(1.0 - u[:, 0])
        s = np.sqrt(1.0 - t * t)
        phi = (2.0 * np.pi) * u[:, 1]
        e1, e2 = models._cap_frame(axis.tobytes())
        sc, ss = s * np.cos(phi), s * np.sin(phi)
        out = np.empty((count, 3))
        for k in range(3):
            out[:, k] = sc * e1[k] + ss * e2[k] + t * axis[k]
        out /= np.sqrt(out[:, 0] ** 2 + out[:, 1] ** 2 + out[:, 2] ** 2)[:, None]
        return out

    def plain_spheres(self, key, start, count):
        u = uniform_blocks(key, start, count)
        return self.plain_sphere(u[:, 0], u[:, 1]), self.plain_sphere(u[:, 2], u[:, 3])

    @staticmethod
    def spheres(key, start, count):
        u = uniform_blocks(key, start, count)
        return sphere_points_from_uniforms(u[:, 0], u[:, 1]), sphere_points_from_uniforms(u[:, 2], u[:, 3])

    def test_outside_a_walk(self):
        for j, axis in enumerate(self.AXES):
            got = models._cap_points(axis, j, 12_345, self.COUNT)
            assert got.tobytes() == self.plain_cap(axis, j, 12_345, self.COUNT).tobytes()
            for got, want in zip(self.spheres(j, 12_345, self.COUNT), self.plain_spheres(j, 12_345, self.COUNT)):
                assert got.tobytes() == want.tobytes()

    def test_the_cap_frame_memo_is_keyed_by_bytes(self):
        # the signed zeros of a frame never reach a cap point's bits, since each coordinate has a nonzero
        # term in the frame, so the maps cannot tell a memo keyed by value: -z and the complement of +z
        # are equal in value, and each must still get the frame of its own bytes
        for axis in self.AXES:
            models._cap_points(axis, 0, 0, 10)
            frame, unmemoized = models._cap_frame(axis.tobytes()), models._cap_frame.__wrapped__(axis.tobytes())
            assert [e.tobytes() for e in frame] == [e.tobytes() for e in unmemoized]

    def test_inside_one_walk_of_alternating_cap_and_sphere_sources(self, monkeypatch):
        # 300 does not divide the count: the cap and sphere maps take the same slots with other
        # shapes in turn, and each source's short last batch writes into views of the buffers
        monkeypatch.setattr(integrate, "BATCH_SIZE", 300)
        sources, got, want = [], [], []
        for j, axis in enumerate(self.AXES):
            cap = lambda seed, start, count, axis=axis, j=j: (models._cap_points(axis, j, start, count),)
            sphere = lambda seed, start, count, j=j: self.spheres(j, start, count)
            for sampler, plain in ((cap, (self.plain_cap(axis, j, 0, self.COUNT),)),
                                   (sphere, self.plain_spheres(j, 0, self.COUNT))):
                rows = []   # each batch's bytes: a batch is valid only during its feeds
                keep = lambda batch, rows=rows: rows.append([p.tobytes() for p in batch])
                sources.append((sampler, [(self.COUNT, keep)]))
                got.append(rows)
                want.append([p.tobytes() for p in plain])
        walk(sources, 0)
        assert [len(rows) for rows in got] == [4] * len(got)
        assert [[b"".join(parts) for parts in zip(*rows)] for rows in got] == want


class TestLentRequests:
    """The arrays one batch of each sampler asks its walk worker's lender for (see integrate.lend)."""

    @staticmethod
    def requests(sampler) -> list[int]:
        taken = []

        def feed(batch):
            if isinstance(batch, PairBatch):
                batch.total   # what the two-sphere responses read
            taken.append(integrate._LENDER.get().taken)

        walk([(sampler, [(1_000, feed)])], 0)
        return taken

    def test_a_sphere_pair_reference_batch_with_its_total(self):
        # the uniforms, two arrays per sphere (its rows and their radius), and the total
        assert self.requests(BM.reference_batch) == [6]

    def test_a_sphere_pair_preparation_batch_with_its_total(self):
        # the point-mass rows are a broadcast view: the second sphere's uniforms, its two arrays, the total
        assert self.requests(prepare_sampler(BM, PLUS_X)) == [4]

    def test_a_cap_batch(self):
        # the uniforms, t, s, the two azimuth terms and the rows
        assert self.requests(prepare_sampler(KS, PLUS_X)) == [6]


class TestCapResponse:
    def test_pointwise_cases(self):
        assert response(KS, X_BASIS, 0, single(PLUS_X)) == 1.0
        assert response(KS, X_BASIS, 0, single(MINUS_X)) == 0.0
        assert response(KS, X_BASIS, 0, single(PLUS_Z)) == 0.0  # boundary

    def test_outcomes_sum_to_one_off_boundary(self):
        batch = KS.prepare_batch(PLUS_Y, 3, 0, 50_000)
        r0, r1 = KS.response_batch(X_BASIS, batch)
        np.testing.assert_array_equal(r0 + r1, np.ones(len(batch)))

    def test_boundary_sums_to_zero(self):
        boundary = single(PLUS_Z)   # equator of the x basis
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
        assert response(BM, X_BASIS, 0, pair(PLUS_X, PLUS_X)) == 1.0
        for basis, idx in ((X_BASIS, 0), (X_BASIS, 1), (Z_BASIS, 0), (Z_BASIS, 1)):
            lam = pair(PLUS_Y, orthogonal_complement(PLUS_Y))
            assert response(BM, basis, idx, lam) == 0.0   # summed vector is zero

    def test_reproduces_born_rule_in_expectation(self):
        for psi, alpha_basis, idx in (
            (PLUS_Z, X_BASIS, 0),
            (PLUS_Y, Z_BASIS, 1),
            (PureState.from_angles(0.7, 0.1), Z_BASIS, 0),
        ):
            est = mc_expectation(
                lambda b: BM.response_batch(alpha_basis, b)[idx],
                prepare_sampler(BM, psi),
                CFG,
            )
            target = born_probability(alpha_basis.outcomes[idx], psi)
            assert abs(est.mean - target) <= 5 * est.std_error

    def test_rejects_single_sphere_states(self):
        for respond in (lambda b: BM.in_support_batch(PLUS_Z, b), lambda b: BM.response_batch(X_BASIS, b)):
            with pytest.raises(ValueError, match="expected a sphere-pair ontic state"):
                respond(single(PLUS_Z))

    def test_density_absent(self):
        with pytest.raises(PreconditionError, match="'bell-mermin' has no density"):
            density(BM, PLUS_Z, sample_prepared(BM, PLUS_Z, 1, 0))
        with pytest.raises(PreconditionError, match="'bell-mermin' has no density"):
            BM.density_batch(PLUS_Z, BM.prepare_batch(PLUS_Z, 1, 0, 10))

    def test_scalar_batch_agreement(self):
        batch = BM.prepare_batch(PLUS_X, 9, 4, 5)
        for i in range(5):
            lam = sample_prepared(BM, PLUS_X, 9, 4 + i)
            np.testing.assert_array_equal(lam.first[0], batch.first[i])
            np.testing.assert_array_equal(lam.second[0], batch.second[i])

    def test_second_sphere_drawn_on_first_read_only(self, monkeypatch):
        drawn = []

        def counting(key, start, count):
            drawn.append((start, count))
            return uniform_blocks(key, start, count)

        monkeypatch.setattr(models, "uniform_blocks", counting)
        batch = BM.prepare_batch(PLUS_X, 9, 4, 5)
        assert len(batch) == 5 and (batch.first == PLUS_X.vec()).all()
        assert drawn == []   # the point-mass rows draw nothing
        second = batch.second
        assert batch.second is second
        batch.total
        assert drawn == [(4, 5)]

    @pytest.mark.parametrize("start, count", [(0, 300), (300, 300), (600, 100), (37, 1)])
    def test_deferred_second_equals_eager_draw(self, start, count):
        u = uniform_blocks(BM._prepare_key(PLUS_Y, 21), start, count)
        eager = sphere_points_from_uniforms(u[:, 0], u[:, 1])
        np.testing.assert_array_equal(BM.prepare_batch(PLUS_Y, 21, start, count).second, eager)
        whole = BM.prepare_batch(PLUS_Y, 21, 0, 700).second
        np.testing.assert_array_equal(whole[start:start + count], eager)

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
                r0, r1 = model.response_batch(basis, batch)
                np.testing.assert_array_equal(r0 + r1, np.ones(len(batch)))

    @pytest.mark.parametrize("name", ["ks", "bell-mermin"])
    def test_support_orthogonality_and_own_response(self, name):
        model = make_model(name)
        for psi in (PLUS_Z, PLUS_X):
            batch = model.prepare_batch(psi, 7, 0, 50_000)
            perp = orthogonal_complement(psi)
            assert not model.in_support_batch(perp, batch).any()
            basis = MeasurementBasis((psi, perp), "own")
            np.testing.assert_array_equal(
                model.response_batch(basis, batch)[0], np.ones(len(batch))
            )


class TestFixtures:
    def test_constant_response(self):
        model = ConstantResponseModel()
        batch = model.prepare_batch(PLUS_Z, 1, 0, 10)
        np.testing.assert_array_equal(model.response_batch(Z_BASIS, batch)[0], np.full(10, 0.5))
        assert (batch == PLUS_Z.vec()).all()

    def test_label_reader_flips_only_on_marked_descriptors(self):
        model = LabelReadingModel()
        batch = model.reference_batch(2, 0, 1000)
        plain = model.response_batch(X_BASIS, batch)[0]
        marked = MeasurementBasis(X_BASIS.outcomes, "x" + RELABEL_MARK)
        np.testing.assert_array_equal(model.response_batch(marked, batch)[0], 1.0 - plain)
        unmarked = MeasurementBasis(X_BASIS.outcomes, "renamed")
        np.testing.assert_array_equal(model.response_batch(unmarked, batch)[0], plain)


def _signed_zero_states():
    """States with -0.0 components, whose antipodes carry +0.0 there."""
    return [
        PureState(-0.0, 0.6, 0.8, "a"),
        PureState(0.6, -0.0, -0.8, "b"),
        PureState(-0.0, -0.0, -1.0, "c"),
    ]


def _library_bases():
    """The default catalog's bases, random and signed-zero catalogs' bases, and their variants."""
    built = [catalog_from_states(random_states(seed, n)).bases for seed, n in ((1, 8), (7, 32), (99, 5))]
    built.append(catalog_from_states(_signed_zero_states()).bases)
    built = [b for bases in built for b in bases]
    shipped = list(default_catalog().bases)
    variants = [v for b in shipped + built for v, _ in _descriptor_variants(b)]
    return shipped, built, variants


def _rows_on_boundaries(basis, n, seed):
    """n uniform sphere rows, then rows on or next to the plane orthogonal to outcome 0.

    The boundary rows are tangents of either sign, +0.0 and -0.0 rows (every
    product of a -0.0 row with a positive component is -0.0, so a kernel
    that does not start its sum at +0.0 projects it to -0.0) and rows of the
    smallest subnormal, whose products round to a signed zero.
    """
    pts = uniform_sphere_batch(seed, 0, n)
    tangent = np.cross(basis.outcomes[0].vec(), pts[:8])
    tiny = np.full((2, 3), 5e-324) * np.array([[1.0], [-1.0]])
    return np.vstack([pts, tangent, -tangent, np.zeros((1, 3)), -np.zeros((1, 3)), tiny])


class TestOneProjectionPerBasis:
    """One projection answers both outcomes, with the values a projection per outcome gives."""

    def test_every_library_basis_has_the_exact_antipode(self):
        shipped, built, variants = _library_bases()
        for basis in shipped + built + variants:
            v0, v1 = (o.vec() for o in basis.outcomes)
            # IEEE equality: the axis constants differ from -v0 only in a zero's sign,
            # which no product with a finite row carries into a nonzero projection
            np.testing.assert_array_equal(v1, -v0)
        for basis in built:
            v0, v1 = (o.vec() for o in basis.outcomes)
            assert v1.tobytes() == (-v0).tobytes()

    def test_signed_zero_inputs_reach_the_catalog(self):
        bases = catalog_from_states(_signed_zero_states()).bases
        assert np.signbit(bases[0].outcomes[0].vec()[0])
        assert not np.signbit(bases[0].outcomes[1].vec()[0])

    def test_ks_matches_a_projection_per_outcome(self):
        shipped, built, variants = _library_bases()
        for k, basis in enumerate(shipped + built + variants):
            pts = _rows_on_boundaries(basis, 200, k)
            r0, r1 = KS.response_batch(basis, pts)
            for vals, outcome in zip((r0, r1), basis.outcomes):
                np.testing.assert_array_equal(vals, pts @ outcome.vec() > 0.0)

    def test_bell_mermin_matches_a_projection_per_outcome(self):
        shipped, built, variants = _library_bases()
        for k, basis in enumerate(shipped + built + variants):
            second = _rows_on_boundaries(basis, 200, k)
            first = uniform_sphere_batch(1000 + k, 0, len(second))
            first[-len(second) // 2:] = 0.0   # the summed vector is then the boundary row itself
            r0, r1 = BM.response_batch(basis, PairBatch(first, lambda: second))
            for vals, outcome in zip((r0, r1), basis.outcomes):
                np.testing.assert_array_equal(vals, (first + second) @ outcome.vec() > 0.0)

    def test_label_reader_matches_its_per_outcome_rule(self):
        model = LabelReadingModel()
        shipped, built, variants = _library_bases()
        for k, basis in enumerate(shipped + built + variants):
            pts = _rows_on_boundaries(basis, 200, k)
            hit = pts @ basis.outcomes[0].vec() > 0.0
            if RELABEL_MARK in (basis.label or ""):
                hit = ~hit
            r0, r1 = model.response_batch(basis, pts)
            np.testing.assert_array_equal(r0, hit)
            np.testing.assert_array_equal(r1, ~hit)

    def test_boundary_rows_project_to_zero(self):
        rows = _rows_on_boundaries(Z_BASIS, 10, 3)
        for v in (PLUS_Z.vec(), MINUS_Z.vec()):
            assert ((rows @ v) == 0.0).sum() >= 16
        assert np.signbit(rows[-3]).all() and (rows[-3] == 0.0).all()


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
        assert len(set(a)) == 12
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
        near = PureState(1e-13, 0.0, 1.0)
        near_complement = PureState(0.0, -5e-13, -1.0)   # near MINUS_Z
        cat = catalog_from_states([PLUS_Z, near, near_complement])
        assert cat.states == (PLUS_Z, MINUS_Z) and len(cat.bases) == 1
        apart = PureState(2e-12, 0.0, 1.0)
        cat = catalog_from_states([PLUS_Z, apart])
        assert len(cat.states) == 4 and len(cat.bases) == 2

    def test_membership_and_closure_use_state_tol(self):
        near_minus_z = PureState(5e-13, 0.0, -1.0)
        cat = StateCatalog((PLUS_Z, near_minus_z), (Z_BASIS,))
        assert cat.closed_under_complements()
        with pytest.raises(ValueError, match="missing from catalog states"):
            StateCatalog((PLUS_Z, PureState(2e-12, 0.0, -1.0)), (Z_BASIS,))

    def test_make_model_unknown(self):
        with pytest.raises(ValueError, match="valid names"):
            make_model("nope")


def _repeated_row_batch(model, psi, count, seed):
    """count rows of psi with stride 0, as the model's batch format holds them."""
    rows = np.broadcast_to(psi.vec(), (count, 3))
    if isinstance(model, BellMerminModel):
        second = uniform_sphere_batch(seed, 0, count)
        return PairBatch(rows, lambda: second)
    return rows


def _materialised(batch):
    """The batch with every row in its own writable memory."""
    if isinstance(batch, PairBatch):
        return PairBatch(np.array(batch.first, order="C"), lambda: batch.second)
    return np.array(batch, order="C")


class TestPointMeasureRows:
    """A point measure's batch is one row with stride 0; it answers as its materialised copy does."""

    CATALOGS = (default_catalog(), catalog_from_states(random_states(5, 3)))

    @pytest.mark.parametrize("name", ("const-half", "label-reader", "bell-mermin"))
    def test_point_measures_prepare_one_repeated_row(self, name):
        batch = make_model(name).prepare_batch(PLUS_X, 3, 0, 40)
        rows = batch.first if isinstance(batch, PairBatch) else batch
        assert rows.strides[0] == 0 and not rows.flags.writeable
        np.testing.assert_array_equal(rows, np.tile(PLUS_X.vec(), (40, 1)))

    @pytest.mark.parametrize("name", models.MODEL_NAMES)
    def test_broadcast_batch_answers_as_its_copy(self, name):
        model = make_model(name)
        for k, catalog in enumerate(self.CATALOGS):
            variants = tuple(v for b in catalog.bases for v, _ in _descriptor_variants(b))
            for psi in catalog.states:
                batch = _repeated_row_batch(model, psi, 40, k)
                copy = _materialised(batch)
                for phi in catalog.states:
                    got, want = model.in_support_batch(phi, batch), model.in_support_batch(phi, copy)
                    assert got.dtype == want.dtype and got.flags.writeable
                    np.testing.assert_array_equal(got, want)
                    if model.has_density:
                        got, want = model.density_batch(phi, batch), model.density_batch(phi, copy)
                        np.testing.assert_array_equal(got, want)
                        continue
                    for rows in (batch, copy):   # has_density is the one "no density" signal
                        with pytest.raises(PreconditionError, match=f"'{name}' has no density"):
                            model.density_batch(phi, rows)
                for basis in catalog.bases + variants:
                    for got, want in zip(model.response_batch(basis, batch), model.response_batch(basis, copy)):
                        assert got.dtype == want.dtype and got.shape == (40,)
                        np.testing.assert_array_equal(got, want)

    def test_pair_total_adds_the_repeated_row(self):
        batch = _repeated_row_batch(BM, PLUS_Y, 40, 2)
        total = batch.total
        assert total.flags.writeable and total.strides[0] == 24
        np.testing.assert_array_equal(total, _materialised(batch).total)

    def test_per_row_returns_a_full_array(self):
        rows = np.broadcast_to(PLUS_X.vec(), (5, 3))
        calls = []

        def f(r):
            calls.append(len(r))
            return r[:, 0] > 0.5

        out = models.per_row(f, rows)
        assert calls == [1]
        assert out.shape == (5,) and out.flags.writeable and out.strides == (1,) and out.all()
        assert models.per_row(f, rows[:0]).shape == (0,)


class TestHead:
    """The first k rows of either batch kind are the batch of the first k sample indices."""

    def test_head_of_an_array_is_its_first_rows(self):
        batch = uniform_sphere_batch(2, 0, 10)
        np.testing.assert_array_equal(batch[:4], uniform_sphere_batch(2, 0, 4))

    @pytest.mark.parametrize("name", models.MODEL_NAMES)
    def test_head_is_the_shorter_draw(self, name):
        model = make_model(name)
        for whole, short in (
            (model.prepare_batch(PLUS_X, 5, 100, 30), model.prepare_batch(PLUS_X, 5, 100, 12)),
            (model.reference_batch(5, 100, 30), model.reference_batch(5, 100, 12)),
        ):
            assert type(whole) is type(short) and len(short) == 12
            if isinstance(whole, PairBatch):
                for sphere in ("first", "second", "total"):
                    np.testing.assert_array_equal(getattr(whole, sphere)[:12], getattr(short, sphere))
            else:
                np.testing.assert_array_equal(whole[:12], short)
