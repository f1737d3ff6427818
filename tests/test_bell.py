import numpy as np
import pytest

from onticlab import bell
from onticlab.bell import (
    BipartiteState,
    bob_reduced_density,
    make_max_entangled,
    nonlocality_witness,
    steer,
    steering_basis,
)
from onticlab.checks import (
    SATISFIED,
    VIOLATED,
    CheckRun,
    check_born_reproduction,
    check_max_psi_epistemic,
)
from onticlab.errors import PreconditionError
from onticlab.integrate import McConfig
from onticlab.models import (
    KochenSpeckerModel,
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
    Ensemble,
    MeasurementBasis,
    PureState,
    bloch_to_amplitudes,
    orthogonal_complement,
)

from batch_of_one import density_gap, random_states

CFG = McConfig(n_samples=50_000, seed=23)
Z_BASIS = MeasurementBasis((PLUS_Z, MINUS_Z), "z")
X_BASIS = MeasurementBasis((PLUS_X, MINUS_X), "x")
PAULI = (np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1, -1]))


def witness_run(name):
    """A run of the nonlocality check on the named model."""
    return CheckRun(make_model(name), default_catalog(), CFG, ("nonlocality",))


def random_pairs(n, seed):
    states = random_states(seed, 2 * n)
    return list(zip(states[:n], states[n:]))


def oracle_steer(state_amps, alice_state):
    """Independent 4x4 projector route: project, trace out Alice, normalize; Bob's r_k = tr(rho sigma_k)."""
    a = bloch_to_amplitudes(alice_state)
    proj = np.kron(np.outer(a, a.conj()), np.eye(2))
    collapsed = proj @ state_amps
    p = float(np.vdot(collapsed, collapsed).real)
    v = collapsed.reshape(2, 2)
    rho_bob = (v.T @ v.conj()) / p
    return p, np.array([np.trace(rho_bob @ sigma).real for sigma in PAULI])


class TestMaxEntangled:
    def test_computational_basis_case(self):
        state = make_max_entangled(PLUS_Z)
        np.testing.assert_allclose(
            state.amplitudes, np.array([1, 0, 0, 1]) / np.sqrt(2), atol=1e-15
        )

    def test_unit_norm(self):
        for psi, _ in random_pairs(10, 1):
            amps = make_max_entangled(psi).amplitudes
            assert abs(np.vdot(amps, amps).real - 1.0) <= 1e-12

    def test_bob_marginal_is_maximally_mixed(self):
        for psi, _ in random_pairs(10, 2):
            assert density_gap(bob_reduced_density(make_max_entangled(psi)), np.zeros(3)) <= 2e-12

    def test_norm_validation(self):
        with pytest.raises(ValueError):
            BipartiteState(np.array([1.0, 0.0, 0.0, 1.0]))

    def test_amplitude_count_validation(self):
        with pytest.raises(ValueError, match="needs 4 amplitudes"):
            BipartiteState(np.array([1.0, 0.0, 0.0]))

    @pytest.mark.parametrize("bad", [np.nan, complex(0.0, np.nan), np.inf])
    def test_non_finite_amplitudes_rejected(self, bad):
        # a NaN norm passed the norm test, and steer then failed naming a Bloch vector
        with pytest.raises(ValueError, match="bipartite state amplitudes must be finite"):
            BipartiteState(np.array([bad, 0.0, 0.0, 0.0]))


class TestSteer:
    def test_z_measurement_on_z_pair(self):
        ens = steer(make_max_entangled(PLUS_Z), Z_BASIS)
        (p0, bob0), (p1, bob1) = ens.entries
        assert abs(p0 - 0.5) <= 1e-12 and abs(p1 - 0.5) <= 1e-12
        assert np.abs(bob0.vec() - PLUS_Z.vec()).max() <= 1e-12
        assert np.abs(bob1.vec() - MINUS_Z.vec()).max() <= 1e-12

    def test_x_measurement_on_z_pair(self):
        ens = steer(make_max_entangled(PLUS_Z), X_BASIS)
        (p0, bob0), (p1, bob1) = ens.entries
        assert abs(p0 - 0.5) <= 1e-12
        assert np.abs(bob0.vec() - PLUS_X.vec()).max() <= 1e-12
        assert np.abs(bob1.vec() - MINUS_X.vec()).max() <= 1e-12

    def test_agrees_with_projector_oracle(self):
        for psi, alice in random_pairs(20, 3):
            state = make_max_entangled(psi)
            basis = MeasurementBasis((alice, orthogonal_complement(alice)))
            ens = steer(state, basis)
            for (p, bob), outcome in zip(ens.entries, basis.outcomes):
                p_ref, r_ref = oracle_steer(state.amplitudes, outcome)
                assert abs(p - p_ref) <= 1e-12
                assert density_gap(bob.vec(), r_ref) <= 2e-10

    def test_every_steered_marginal_is_maximally_mixed(self):
        for psi, alice in random_pairs(10, 4):
            basis = MeasurementBasis((alice, orthogonal_complement(alice)))
            ens = steer(make_max_entangled(psi), basis)
            assert density_gap(ens.vec(), np.zeros(3)) <= 2e-12

    def test_degenerate_outcome_rejected(self):
        product = BipartiteState(np.array([1.0, 0.0, 0.0, 0.0]))
        with pytest.raises(PreconditionError):
            steer(product, Z_BASIS)


class TestSteeringBasis:
    def test_same_state_uses_defining_basis(self):
        basis, _ = steering_basis(PLUS_Z, PLUS_Z)
        assert np.abs(basis.outcomes[0].vec() - PLUS_Z.vec()).max() <= 1e-12

    def test_real_amplitude_target(self):
        basis, _ = steering_basis(PLUS_Z, PLUS_X)
        assert np.abs(basis.outcomes[0].vec() - PLUS_X.vec()).max() <= 1e-12

    def test_conjugation_negates_y(self):
        basis, _ = steering_basis(PLUS_Z, PLUS_Y)
        assert np.abs(basis.outcomes[0].vec() - MINUS_Y.vec()).max() <= 1e-12
        assert np.abs(basis.outcomes[1].vec() - PLUS_Y.vec()).max() <= 1e-12

    def test_target_near_a_pole(self):
        # phi's amplitudes once dropped its 1e-10 distance from +z, and the verification raised
        psi, phi = (PureState.from_angles(theta, 0.0) for theta in (0.5, 1e-10))
        _, steered = steering_basis(psi, phi)
        assert np.abs(steered.entries[0][1].vec() - phi.vec()).max() <= 1e-15

    def test_round_trip_on_random_pairs(self):
        for psi, phi in random_pairs(20, 6):
            basis, steered = steering_basis(psi, phi)
            ens = steer(make_max_entangled(psi), basis)
            assert steered.entries == ens.entries
            (p0, bob0), (p1, bob1) = ens.entries
            assert abs(p0 - 0.5) <= 1e-10 and abs(p1 - 0.5) <= 1e-10
            assert np.abs(bob0.vec() - phi.vec()).max() <= 1e-10
            assert np.abs(bob1.vec() + phi.vec()).max() <= 1e-10

    def test_failed_verification_names_the_pair(self, monkeypatch):
        plain = bell.steer

        def perturbed(state, basis):
            (p0, bob0), (p1, bob1) = plain(state, basis).entries
            return Ensemble(((p0 + 1e-9, bob0), (p1 - 1e-9, bob1)))

        monkeypatch.setattr(bell, "steer", perturbed)
        with pytest.raises(ValueError, match=r"verification failed for \+z->\+x"):
            steering_basis(PLUS_Z, PLUS_X)


class CountingCapModel(KochenSpeckerModel):
    """The cap model, counting the preparation rows it draws."""

    drawn = 0

    def prepare_batch(self, psi, seed, start, count):
        self.drawn += count
        return super().prepare_batch(psi, seed, start, count)


class TestNonlocalityWitness:
    def test_reads_the_born_report_of_its_run(self):
        model, catalog = CountingCapModel(), default_catalog()
        run = CheckRun(model, catalog, CFG, ("born", "nonlocality"))
        check_born_reproduction(run)
        assert model.drawn == len(catalog.states) * CFG.n_samples
        # the density route draws nothing, and the Born precondition reads the run's table
        assert nonlocality_witness(run, PLUS_Z, PLUS_X).verdict == VIOLATED
        assert model.drawn == len(catalog.states) * CFG.n_samples

    def test_steering_states_must_be_catalog_states(self):
        model = CountingCapModel()
        run = CheckRun(model, catalog_from_states((PLUS_Z, PLUS_X)), CFG, ("nonlocality",))
        for psi, phi in ((PLUS_Z, PLUS_Y), (PLUS_Y, PLUS_Z)):
            with pytest.raises(PreconditionError, match="not a state of the run's catalog"):
                nonlocality_witness(run, psi, phi)
        assert model.drawn == 0
        # same_state decides membership, so a state 1e-16 off a catalog state is in it
        near_x = PureState(1.0, 1e-16, 0.0)
        assert nonlocality_witness(run, PLUS_Z, near_x).verdict == VIOLATED

    def test_fires_on_cap_model(self):
        rep = nonlocality_witness(witness_run("ks"), PLUS_Z, PLUS_X)
        assert rep.verdict == VIOLATED
        assert rep.check_name == "nonlocality"
        assert rep.estimates[0].mean > 0.1

    def test_fires_on_pair_model(self):
        rep = nonlocality_witness(witness_run("bell-mermin"), PLUS_Z, PLUS_X)
        assert rep.verdict == VIOLATED
        assert "support-witness" in rep.details

    def test_does_not_fire_for_identical_targets(self):
        for name in ("ks", "bell-mermin"):
            rep = nonlocality_witness(witness_run(name), PLUS_Z, PLUS_Z)
            assert rep.verdict == SATISFIED

    def test_fires_exactly_when_overlap_deficit_exists(self):
        catalog = default_catalog()
        ks_rep, bm_rep = (
            check_max_psi_epistemic(CheckRun(make_model(name), catalog, CFG, ("max-epistemic",)))
            for name in ("ks", "bell-mermin")
        )
        assert ks_rep.verdict == SATISFIED and bm_rep.verdict == VIOLATED
        # no deficit: the witness relies on distribution equality and stays quiet
        # for the deficit-free pair (psi, psi); with a deficit it must fire
        fired = nonlocality_witness(witness_run("bell-mermin"), PLUS_Z, PLUS_X)
        assert fired.verdict == VIOLATED

    def test_born_precondition(self):
        with pytest.raises(PreconditionError):
            nonlocality_witness(witness_run("const-half"), PLUS_Z, PLUS_X)
