import math

import numpy as np
import pytest

from onticlab.qubit import (
    MINUS_X,
    MINUS_Z,
    PLUS_X,
    PLUS_Y,
    PLUS_Z,
    BlochVector,
    DensityOperator,
    Ensemble,
    MeasurementBasis,
    PureState,
    amplitudes_to_bloch,
    bloch_to_amplitudes,
    born_probability,
    density_operators_equal,
    ensemble_density_operator,
    half_half_mixture,
    STATE_TOL,
    orthogonal_complement,
    same_state,
    same_state_rows,
    state_from_catalog_entry,
)


def random_pure_states(n, seed=0):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(n, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return [PureState(BlochVector.from_array(row)) for row in v]


class TestBlochVector:
    def test_rejects_far_from_unit(self):
        with pytest.raises(ValueError):
            BlochVector(0.0, 0.0, 0.5)

    @pytest.mark.parametrize(
        "components",
        [(float("nan"), 0.0, 0.0), (0.0, float("inf"), 0.0), (0.0, 0.0, float("-inf"))],
    )
    def test_rejects_non_finite(self, components):
        with pytest.raises(ValueError, match="finite"):
            BlochVector(*components)

    def test_normalizes_near_unit(self):
        v = BlochVector(0.0, 0.0, 1.0 + 5e-10)
        assert abs(v.x**2 + v.y**2 + v.z**2 - 1.0) <= 1e-12

    def test_unit_invariant_random(self):
        for s in random_pure_states(200):
            b = s.bloch
            assert abs(b.x**2 + b.y**2 + b.z**2 - 1.0) <= 1e-12

    def test_from_angles(self):
        v = BlochVector.from_angles(np.pi / 2, 0.0)
        np.testing.assert_allclose(v.as_array(), [1.0, 0.0, 0.0], atol=1e-15)


class TestBornProbability:
    def test_identity_case(self):
        assert born_probability(PLUS_Z, PLUS_Z) == 1.0

    def test_orthogonal_case(self):
        assert born_probability(MINUS_Z, PLUS_Z) == 0.0

    def test_perpendicular_bloch_vectors(self):
        assert born_probability(PLUS_Z, PLUS_X) == 0.5

    def test_symmetry_and_completeness(self):
        states = random_pure_states(100, seed=1)
        for psi, phi in zip(states[:50], states[50:]):
            p = born_probability(phi, psi)
            assert abs(p - born_probability(psi, phi)) <= 1e-12
            assert abs(p + born_probability(orthogonal_complement(phi), psi) - 1.0) <= 1e-12
            assert 0.0 <= p <= 1.0


class TestOrthogonalComplement:
    def test_axis_cases(self):
        assert orthogonal_complement(PLUS_Z).bloch == MINUS_Z.bloch
        assert orthogonal_complement(PLUS_X).bloch == MINUS_X.bloch

    def test_antipodal_map(self):
        assert born_probability(orthogonal_complement(PLUS_Z), PLUS_Z) == 0.0
        for s in random_pure_states(50, seed=2):
            c = orthogonal_complement(s)
            np.testing.assert_array_equal(c.vec(), -s.vec())
            assert born_probability(c, s) <= 1e-12

    def test_double_complement_exact(self):
        for s in random_pure_states(50, seed=3):
            assert orthogonal_complement(orthogonal_complement(s)) == s

    def test_label_toggle(self):
        s = PureState(PLUS_Z.bloch, "+z")
        assert orthogonal_complement(s).label == "+z'"
        assert orthogonal_complement(orthogonal_complement(s)).label == "+z"


class TestAmplitudes:
    def test_poles_and_equator(self):
        np.testing.assert_allclose(bloch_to_amplitudes(PLUS_Z), [1.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(bloch_to_amplitudes(MINUS_Z), [0.0, 1.0], atol=1e-15)
        np.testing.assert_allclose(
            bloch_to_amplitudes(PLUS_X), [1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-15
        )

    def test_phase_convention(self):
        for s in random_pure_states(100, seed=4):
            a = bloch_to_amplitudes(s)
            assert a[0].imag == 0.0
            assert a[0].real >= 0.0
            assert abs(np.vdot(a, a).real - 1.0) <= 1e-12

    def test_round_trip(self):
        for s in random_pure_states(200, seed=5):
            back = amplitudes_to_bloch(bloch_to_amplitudes(s))
            assert np.abs(back.as_array() - s.vec()).max() <= 1e-10

    @pytest.mark.parametrize("theta", [1e-10, 1e-7, math.pi - 1e-7, math.pi - 1e-10])
    def test_round_trip_near_the_poles(self, theta):
        # a polar angle taken as acos(z) missed these states by up to 1e-10
        s = PureState(BlochVector.from_angles(theta, 0.3))
        back = amplitudes_to_bloch(bloch_to_amplitudes(s))
        assert np.abs(back.as_array() - s.vec()).max() <= 1e-15

    def test_second_amplitude_fixed_when_first_vanishes(self):
        a = bloch_to_amplitudes(MINUS_Z)
        assert a[0] == 0.0 and a[1] == 1.0


class TestEnsembles:
    def test_antipodal_mixture_is_maximally_mixed(self):
        for s in random_pure_states(20, seed=6):
            rho = ensemble_density_operator(half_half_mixture(s))
            assert np.abs(rho.matrix - np.eye(2) / 2).max() <= 1e-12

    def test_x_and_z_mixtures_agree(self):
        rho_z = ensemble_density_operator(half_half_mixture(PLUS_Z))
        rho_x = ensemble_density_operator(half_half_mixture(PLUS_X))
        assert density_operators_equal(rho_z, rho_x, 1e-12)

    def test_pure_preparation(self):
        rho = ensemble_density_operator(Ensemble(((1.0, PLUS_Z),)))
        np.testing.assert_allclose(rho.matrix, np.diag([1.0, 0.0]), atol=1e-15)

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            Ensemble(((0.7, PLUS_Z), (0.7, MINUS_Z)))
        with pytest.raises(ValueError):
            Ensemble(((-0.1, PLUS_Z), (1.1, MINUS_Z)))
        with pytest.raises(ValueError):
            Ensemble(())

    @pytest.mark.parametrize(
        "weights",
        [(float("nan"),), (float("nan"), 1.0), (float("inf"), 1.0), (float("-inf"), 1.0), (0.5, float("inf"))],
    )
    def test_non_finite_weights_rejected(self, weights):
        # NaN passes the sign and sum tests, and the mixture sampler would then pick component 0
        entries = tuple(zip(weights, (PLUS_Z, MINUS_Z)))
        with pytest.raises(ValueError, match="finite"):
            Ensemble(entries)


class TestDensityOperators:
    def test_equality_tolerance(self):
        half = DensityOperator(np.eye(2) / 2)
        assert density_operators_equal(half, half, 1e-12)
        pure = DensityOperator(np.diag([1.0, 0.0]))
        assert not density_operators_equal(pure, half, 1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            DensityOperator(np.array([[0.5, 0.1j], [0.1j, 0.5]]))   # not Hermitian
        with pytest.raises(ValueError):
            DensityOperator(np.diag([0.7, 0.7]))                    # trace 1.4
        with pytest.raises(ValueError):
            DensityOperator(np.diag([1.5, -0.5]))                   # negative eigenvalue


class TestMeasurementBasis:
    def test_rejects_non_antipodal(self):
        with pytest.raises(ValueError):
            MeasurementBasis((PLUS_Z, PLUS_X))

    def test_axis_basis(self):
        basis = MeasurementBasis((PLUS_Y, orthogonal_complement(PLUS_Y)), "y")
        assert basis.describe() == "y"


class TestSameState:
    """same_state and same_state_rows are one rule: every component within STATE_TOL."""

    @staticmethod
    def offset(psi, k, delta):
        v = psi.vec()
        v[k] += delta
        return PureState(BlochVector.from_array(v))

    @staticmethod
    def max_abs_rows(points, psi):
        """same_state_rows as an axis-1 max reduction, the form the column test replaced."""
        return np.abs(points - psi.vec()).max(axis=1) <= STATE_TOL

    def test_scalar_and_row_forms_agree_on_random_pairs(self):
        for seed in range(4):
            states = random_pure_states(12, seed)
            rows = np.array([s.vec() for s in states])
            noise = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(500, 3))
            for psi in states:
                expected = [same_state(s, psi) for s in states]
                np.testing.assert_array_equal(same_state_rows(rows, psi), expected)
                assert sum(expected) == 1
                for points in (rows, noise, psi.vec() + STATE_TOL * noise):
                    np.testing.assert_array_equal(
                        same_state_rows(points, psi), self.max_abs_rows(points, psi)
                    )

    def test_forms_agree_at_offsets_around_the_tolerance(self):
        deltas = [
            sign * d
            for d in (0.5 * STATE_TOL, np.nextafter(STATE_TOL, 0.0), STATE_TOL,
                      np.nextafter(STATE_TOL, 1.0), 2.0 * STATE_TOL)
            for sign in (1.0, -1.0)
        ]
        for seed in range(3):
            for psi in random_pure_states(8, seed):
                rows, special = [], []
                for k in range(3):
                    for delta in deltas:
                        phi = self.offset(psi, k, delta)
                        row = bool(same_state_rows(phi.vec()[None, :], psi)[0])
                        assert same_state(psi, phi) == same_state(phi, psi) == row
                        raw = psi.vec()       # the offset row without renormalization
                        raw[k] += delta
                        rows += [phi.vec(), raw]
                        special += [False, False]
                    for value in (np.nan, np.inf, -np.inf):   # rows no BlochVector can hold
                        bad = psi.vec()
                        bad[k] = value
                        rows.append(bad)
                        special.append(True)
                rows = np.array(rows)
                got = same_state_rows(rows, psi)
                np.testing.assert_array_equal(got, self.max_abs_rows(rows, psi))
                assert not got[special].any()

    @pytest.mark.parametrize(
        "delta, same",
        [(0.5e-12, True), (np.nextafter(STATE_TOL, 0.0), True), (STATE_TOL, True),
         (np.nextafter(STATE_TOL, 1.0), False), (2e-12, False)],
    )
    def test_threshold(self, delta, same):
        # a tangential offset leaves the norm at 1, so the components are as written
        phi = PureState(BlochVector(1.0, float(delta), 0.0))
        assert phi.bloch.y == delta
        assert same_state(PLUS_X, phi) is same
        assert bool(same_state_rows(phi.vec()[None, :], PLUS_X)[0]) is same

    def test_basis_outcomes_antipodal_within_the_tolerance(self):
        MeasurementBasis((PLUS_X, PureState(BlochVector(-1.0, 0.5e-12, 0.0))))
        with pytest.raises(ValueError, match="not antipodal"):
            MeasurementBasis((PLUS_X, PureState(BlochVector(-1.0, 2e-12, 0.0))))


class TestCatalogEntries:
    def test_bloch_form(self):
        s = state_from_catalog_entry({"bloch": [0, 0, 1], "label": "up"})
        assert s.bloch == PLUS_Z.bloch and s.label == "up"

    def test_angle_form(self):
        s = state_from_catalog_entry({"theta": np.pi / 2, "phi": 0.0})
        assert np.abs(s.vec() - PLUS_X.vec()).max() <= 1e-12

    def test_bad_entries(self):
        with pytest.raises(ValueError):
            state_from_catalog_entry({"bloch": [0, 0]})
        with pytest.raises(ValueError):
            state_from_catalog_entry({"theta": 0.0})
        with pytest.raises(ValueError):
            state_from_catalog_entry({"bloch": [0, 0, 1], "label": 7})

    @pytest.mark.parametrize(
        "entry, field",
        [
            ({"bloch": [float("nan"), 0, 0]}, "bloch"),
            ({"bloch": [0, 0, float("inf")]}, "bloch"),
            ({"theta": float("inf"), "phi": 0.0}, "theta"),
            ({"theta": 0.5, "phi": float("nan")}, "phi"),
        ],
    )
    def test_non_finite_entries_name_the_field(self, entry, field):
        with pytest.raises(ValueError, match=f"'{field}' must be finite"):
            state_from_catalog_entry(entry)

    @pytest.mark.parametrize(
        "entry, message",
        [
            ([0, 0, 1], "must be a JSON object"),
            ({"theta": None, "phi": 0}, "'theta' must be a number"),
            ({"bloch": ["a", 0, 0]}, "'bloch' must be a number"),
            ({"bloch": [True, 0, 0]}, "'bloch' must be a number"),
            ({"theta": 0.5, "phi": "0"}, "'phi' must be a number"),
            ({"bloch": [10**400, 0, 0]}, "'bloch' must be finite"),
            ({"bloch": [0, 0, 1], "lable": "up"}, "unknown key 'lable'"),
            ({"theta": 1.0, "phi": 0.5, "bloch": [1, 0, 0]}, "mixes 'bloch' with 'theta'/'phi'"),
            ({"bloch": [1, 0, 0], "phi": 0.5}, "mixes 'bloch' with 'theta'/'phi'"),
        ],
    )
    def test_non_numeric_entries_name_the_field(self, entry, message):
        with pytest.raises(ValueError, match=message):
            state_from_catalog_entry(entry)

    def test_integer_and_float_fields_accepted(self):
        assert state_from_catalog_entry({"bloch": [0, 0, 1]}).bloch == PLUS_Z.bloch
        assert state_from_catalog_entry({"theta": 0, "phi": 0.0}).bloch == PLUS_Z.bloch
