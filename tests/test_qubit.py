import math

import numpy as np
import pytest

from onticlab.qubit import (
    MINUS_X,
    MINUS_Z,
    PLUS_X,
    PLUS_Y,
    PLUS_Z,
    Ensemble,
    MeasurementBasis,
    PureState,
    amplitudes_to_bloch,
    bloch_to_amplitudes,
    born_probability,
    half_half_mixture,
    STATE_TOL,
    orthogonal_complement,
    same_state,
    same_state_rows,
    state_from_catalog_entry,
)

from batch_of_one import density_gap


def random_pure_states(n, seed=0):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(n, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return [PureState(*row.tolist()) for row in v]


class TestPureState:
    def test_rejects_far_from_unit(self):
        with pytest.raises(ValueError):
            PureState(0.0, 0.0, 0.5)

    @pytest.mark.parametrize(
        "components",
        [(float("nan"), 0.0, 0.0), (0.0, float("inf"), 0.0), (0.0, 0.0, float("-inf"))],
    )
    def test_rejects_non_finite(self, components):
        with pytest.raises(ValueError, match="finite"):
            PureState(*components)

    @pytest.mark.parametrize("components", [(True, False, False), ("1", 0, 0), (None, 0, 0), (0, 0, 1j)])
    def test_rejects_non_real_components_naming_them(self, components):
        with pytest.raises(ValueError, match=r"Bloch vector components must be finite real numbers, got \("):
            PureState(*components)

    def test_normalizes_near_unit(self):
        v = PureState(0.0, 0.0, 1.0 + 5e-10)
        assert abs(v.x**2 + v.y**2 + v.z**2 - 1.0) <= 1e-12

    def test_unit_invariant_random(self):
        for s in random_pure_states(200):
            assert abs(s.x**2 + s.y**2 + s.z**2 - 1.0) <= 1e-12

    def test_from_angles(self):
        v = PureState.from_angles(np.pi / 2, 0.0)
        np.testing.assert_allclose(v.vec(), [1.0, 0.0, 0.0], atol=1e-15)

    def test_from_angles_keeps_the_label(self):
        assert PureState.from_angles(0.0, 0.0, "up").label == "up"

    @pytest.mark.parametrize("excess, accepted", [(0.9e-9, True), (1.1e-9, False)])
    def test_norm_accepted_within_1e_9(self, excess, accepted):
        if accepted:
            assert PureState(0.0, 0.0, 1.0 + excess).z == 1.0
        else:
            with pytest.raises(ValueError, match="is not within 1e-09 of 1"):
                PureState(0.0, 0.0, 1.0 + excess)

    def test_renormalized_only_outside_1e_12(self):
        # inside the unit tolerance the components are kept as written
        assert PureState(0.0, 0.0, 1.0 + 5e-13).z == 1.0 + 5e-13
        assert PureState(0.0, 0.0, 1.0 + 5e-12).z == 1.0

    def test_complement_of_plus_z_carries_negative_zeros_but_is_minus_z(self):
        # state identity in the package is same_state; a state used as a key still hashes as it compares
        c = orthogonal_complement(PLUS_Z)
        assert math.copysign(1.0, c.x) == math.copysign(1.0, c.y) == -1.0
        assert c == MINUS_Z and hash(c) == hash(MINUS_Z)
        assert {MINUS_Z: "found"}[c] == "found"


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
        assert orthogonal_complement(PLUS_Z) == MINUS_Z
        assert orthogonal_complement(PLUS_X) == MINUS_X

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
        s = PureState(0.0, 0.0, 1.0, "+z")
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
            assert np.abs(back.vec() - s.vec()).max() <= 1e-10

    @pytest.mark.parametrize("theta", [1e-10, 1e-7, math.pi - 1e-7, math.pi - 1e-10])
    def test_round_trip_near_the_poles(self, theta):
        # a polar angle taken as acos(z) missed these states by up to 1e-10
        s = PureState.from_angles(theta, 0.3)
        back = amplitudes_to_bloch(bloch_to_amplitudes(s))
        assert np.abs(back.vec() - s.vec()).max() <= 1e-15

    def test_second_amplitude_fixed_when_first_vanishes(self):
        a = bloch_to_amplitudes(MINUS_Z)
        assert a[0] == 0.0 and a[1] == 1.0


class TestEnsembles:
    def test_antipodal_mixture_is_maximally_mixed(self):
        for s in random_pure_states(20, seed=6):
            assert density_gap(half_half_mixture(s).vec(), np.zeros(3)) <= 2e-12

    def test_x_and_z_mixtures_agree(self):
        assert density_gap(half_half_mixture(PLUS_Z).vec(), half_half_mixture(PLUS_X).vec()) <= 2e-12

    def test_pure_preparation(self):
        assert density_gap(Ensemble(((1.0, PLUS_Z),)).vec(), [0.0, 0.0, 1.0]) <= 2e-15

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


class TestMeasurementBasis:
    def test_rejects_non_antipodal(self):
        with pytest.raises(ValueError):
            MeasurementBasis((PLUS_Z, PLUS_X))

    def test_axis_basis(self):
        basis = MeasurementBasis((PLUS_Y, orthogonal_complement(PLUS_Y)), "y")
        assert basis.describe() == "y"

    def test_an_unlabeled_basis_describes_its_outcomes(self):
        outcomes = (PureState(0.6, 0.0, 0.8), PureState(-0.6, 0.0, -0.8))
        assert MeasurementBasis(outcomes).describe() == "{(+0.6000,+0.0000,+0.8000),(-0.6000,+0.0000,-0.8000)}"


class TestSameState:
    """same_state and same_state_rows are one rule: every component within STATE_TOL."""

    @staticmethod
    def offset(psi, k, delta):
        v = psi.vec()
        v[k] += delta
        return PureState(*v.tolist())

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
                    for value in (np.nan, np.inf, -np.inf):   # rows no PureState can hold
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
        phi = PureState(1.0, float(delta), 0.0)
        assert phi.y == delta
        assert same_state(PLUS_X, phi) is same
        assert bool(same_state_rows(phi.vec()[None, :], PLUS_X)[0]) is same

    def test_basis_outcomes_antipodal_within_the_tolerance(self):
        MeasurementBasis((PLUS_X, PureState(-1.0, 0.5e-12, 0.0)))
        with pytest.raises(ValueError, match="not antipodal"):
            MeasurementBasis((PLUS_X, PureState(-1.0, 2e-12, 0.0)))


class TestCatalogEntries:
    def test_bloch_form(self):
        s = state_from_catalog_entry({"bloch": [0, 0, 1], "label": "up"})
        assert s == PLUS_Z and s.label == "up"

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
        assert state_from_catalog_entry({"bloch": [0, 0, 1]}) == PLUS_Z
        assert state_from_catalog_entry({"theta": 0, "phi": 0.0}) == PLUS_Z
