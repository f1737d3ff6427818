"""Entangled-pair steering and the remote-preparation nonlocality witness.

Alice measures her half of a maximally entangled pair; the basis choice
steers Bob's marginal into one of two ensembles with the same density
operator.  A model in which those two ensembles carry different ontic
distributions makes Bob's hidden state depend on Alice's choice.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .checks import CheckReport, CheckRun, check_born_reproduction, check_preparation_noncontextuality
from .errors import PreconditionError
from .models import _index
from .qubit import (
    Ensemble,
    MeasurementBasis,
    PureState,
    amplitudes_to_bloch,
    bloch_to_amplitudes,
    orthogonal_complement,
)

STEER_VERIFY_TOL = 1e-10
MIN_OUTCOME_PROB = 1e-12


@dataclass(frozen=True, eq=False)
class BipartiteState:
    """Two-qubit state vector in the (A tensor B) basis order 00, 01, 10, 11."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (4,):
            raise ValueError("bipartite state needs 4 amplitudes")
        # a NaN norm passes the norm test below (every comparison with it is false)
        if not np.isfinite(amps).all():
            raise ValueError(f"bipartite state amplitudes must be finite, got {amps.tolist()!r}")
        norm = float(np.vdot(amps, amps).real)
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"bipartite state norm-squared {norm!r} differs from 1")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)


def make_max_entangled(psi: PureState) -> BipartiteState:
    """(|psi>|psi> + |psi_perp>|psi_perp>) / sqrt(2)."""
    a = bloch_to_amplitudes(psi)
    b = bloch_to_amplitudes(orthogonal_complement(psi))
    return BipartiteState((np.kron(a, a) + np.kron(b, b)) / np.sqrt(2.0))


def bob_reduced_density(state: BipartiteState) -> np.ndarray:
    """Bloch vector (2 Re rho_10, 2 Im rho_10, rho_00 - rho_11) of Bob's marginal rho (partial trace over Alice)."""
    v = state.amplitudes.reshape(2, 2)
    rho = v.T @ v.conj()
    return np.array([2.0 * rho[1, 0].real, 2.0 * rho[1, 0].imag, (rho[0, 0] - rho[1, 1]).real])


def steer(state: BipartiteState, alice_basis: MeasurementBasis) -> Ensemble:
    """Collapse Bob's side for each Alice outcome via the partial inner product."""
    results = []
    for outcome in alice_basis.outcomes:
        a = bloch_to_amplitudes(outcome)
        v = np.conj(a[0]) * state.amplitudes[:2] + np.conj(a[1]) * state.amplitudes[2:]
        p = float(np.vdot(v, v).real)
        if p < MIN_OUTCOME_PROB:
            raise PreconditionError(
                f"Alice outcome {outcome.describe()} has probability {p:.3e}; Bob state undefined"
            )
        results.append((p, amplitudes_to_bloch(v / np.sqrt(p))))
    return Ensemble(tuple(results))


def steering_basis(psi: PureState, phi: PureState) -> tuple[MeasurementBasis, Ensemble]:
    """Alice's basis steering Bob to {phi, phi_perp} with probability 1/2 each, and Bob's steered ensemble.

    Alice's first outcome is the conjugate of |phi> written in the
    {psi, psi_perp} amplitude coordinates.  The construction is verified at
    runtime by steering make_max_entangled(psi) and comparing against phi
    directly; the ensemble returned is that steering's.
    """
    pa = bloch_to_amplitudes(psi)
    qa = bloch_to_amplitudes(orthogonal_complement(psi))
    fa = bloch_to_amplitudes(phi)
    c = np.vdot(pa, fa)
    d = np.vdot(qa, fa)
    alice_amps = np.conj(c) * pa + np.conj(d) * qa
    alice = amplitudes_to_bloch(alice_amps / np.linalg.norm(alice_amps))
    basis = MeasurementBasis(
        (alice, orthogonal_complement(alice)),
        f"steer({psi.describe()}->{phi.describe()})",
    )
    ensemble = steer(make_max_entangled(psi), basis)
    (p0, bob0), (p1, bob1) = ensemble.entries
    errs = (
        abs(p0 - 0.5),
        abs(p1 - 0.5),
        float(np.abs(bob0.vec() - phi.vec()).max()),
        float(np.abs(bob1.vec() + phi.vec()).max()),
    )
    if max(errs) > STEER_VERIFY_TOL:
        raise ValueError(
            f"steering basis verification failed for {psi.describe()}->{phi.describe()}"
            f" (worst error {max(errs):.3e})"
        )
    return basis, ensemble


def nonlocality_witness(run: CheckRun, psi: PureState, phi: PureState) -> CheckReport:
    """Check whether Bob's ontic distribution depends on Alice's basis choice.

    psi and phi must be catalog states: the Born precondition is the run's
    born report, built from the run's shared state table.  Then the two
    steered ensembles for Alice bases aimed at {psi, psi_perp} and
    {phi, phi_perp} go to the preparation-noncontextuality checker; verdict
    "violated" means the witness fires.
    """
    for s in (psi, phi):
        if _index(run.catalog.states, s) < 0:
            raise PreconditionError(f"steering state {s.describe()} is not a state of the run's catalog")
    born = check_born_reproduction(run)
    if born.verdict != "satisfied":
        raise PreconditionError(
            f"model {run.model.name} does not reproduce the Born rule on the catalog"
            f" (verdict {born.verdict})"
        )
    basis1, e1 = steering_basis(psi, psi)
    basis2, e2 = steering_basis(psi, phi)
    report = check_preparation_noncontextuality(run, e1, e2)
    return replace(
        report,
        check_name="nonlocality",
        details=f"Alice bases {basis1.describe()} vs {basis2.describe()}; " + report.details,
    )
