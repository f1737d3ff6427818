"""Bloch-sphere geometry and exact single-qubit predictions."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

NORM_ACCEPT_TOL = 1e-9   # construction tolerance on the input norm
STATE_TOL = 1e-12        # per Bloch component: vectors this close name one state


def _perp_label(label: str | None) -> str | None:
    if label is None:
        return None
    return label[:-1] if label.endswith("'") else label + "'"


@dataclass(frozen=True)
class PureState:
    """Pure qubit state: its unit Bloch vector (x, y, z); the label is metadata only.

    Inputs within 1e-9 of unit norm are renormalized, others rejected.
    """

    x: float
    y: float
    z: float
    label: str | None = field(default=None, compare=False)

    def __post_init__(self):
        comps = (self.x, self.y, self.z)
        if not all(isinstance(c, numbers.Real) and not isinstance(c, bool) and math.isfinite(c) for c in comps):
            raise ValueError(f"Bloch vector components must be finite real numbers, got {comps!r}")
        norm = math.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)
        if abs(norm - 1.0) > NORM_ACCEPT_TOL:
            raise ValueError(f"Bloch vector norm {norm!r} is not within {NORM_ACCEPT_TOL} of 1")
        # renormalize only outside the unit tolerance: construction is then
        # idempotent, so negation round-trips bit-exactly
        if abs(norm - 1.0) > 1e-12:
            object.__setattr__(self, "x", self.x / norm)
            object.__setattr__(self, "y", self.y / norm)
            object.__setattr__(self, "z", self.z / norm)

    @classmethod
    def from_angles(cls, theta: float, phi: float, label: str | None = None) -> PureState:
        s = math.sin(theta)
        return cls(s * math.cos(phi), s * math.sin(phi), math.cos(theta), label)

    def vec(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])

    def describe(self) -> str:
        if self.label is not None:
            return self.label
        return f"({self.x:+.4f},{self.y:+.4f},{self.z:+.4f})"


@dataclass(frozen=True)
class MeasurementBasis:
    """Orthonormal qubit basis: two antipodal Bloch vectors."""

    outcomes: tuple[PureState, PureState]
    label: str | None = field(default=None, compare=False)

    def __post_init__(self):
        a, b = self.outcomes
        if not same_state(b, orthogonal_complement(a)):
            raise ValueError(f"basis outcomes {a.describe()} and {b.describe()} are not antipodal")

    def describe(self) -> str:
        if self.label is not None:
            return self.label
        return "{" + self.outcomes[0].describe() + "," + self.outcomes[1].describe() + "}"


@dataclass(frozen=True)
class Ensemble:
    """Weighted mixture of pure states prepared by independent classical randomness."""

    entries: tuple[tuple[float, PureState], ...]

    def __post_init__(self):
        if not self.entries:
            raise ValueError("ensemble must contain at least one state")
        weights = [w for w, _ in self.entries]
        # NaN passes both tests below (every comparison with it is false)
        if not all(math.isfinite(w) for w in weights):
            raise ValueError(f"ensemble weights must be finite, got {weights!r}")
        if any(w < 0.0 for w in weights):
            raise ValueError("ensemble weights must be nonnegative")
        if abs(sum(weights) - 1.0) > 1e-12:
            raise ValueError(f"ensemble weights sum to {sum(weights)!r}, expected 1")

    def weights(self) -> np.ndarray:
        return np.array([w for w, _ in self.entries])

    def vec(self) -> np.ndarray:
        """Mean Bloch vector sum_j p_j r_j: the density operator (I + r.sigma)/2 of the mixture."""
        return sum(w * s.vec() for w, s in self.entries)

    def describe(self) -> str:
        return "+".join(f"{w:g}*{s.describe()}" for w, s in self.entries)


def same_state(a: PureState, b: PureState) -> bool:
    """True iff a and b name one state: every Bloch component within STATE_TOL.

    The scalar form of same_state_rows, kept in plain Python because catalog
    construction calls it for every pair of states.
    """
    return abs(a.x - b.x) <= STATE_TOL and abs(a.y - b.y) <= STATE_TOL and abs(a.z - b.z) <= STATE_TOL


def same_state_rows(points: np.ndarray, psi: PureState) -> np.ndarray:
    """Boolean mask of the rows of an (n, 3) array that name psi under same_state.

    One comparison per column, ANDed: an axis-1 max over the three columns
    costs about 10x more.  A row holding NaN matches nothing.
    """
    return (
        (np.abs(points[:, 0] - psi.x) <= STATE_TOL)
        & (np.abs(points[:, 1] - psi.y) <= STATE_TOL)
        & (np.abs(points[:, 2] - psi.z) <= STATE_TOL)
    )


def born_probability(phi: PureState, psi: PureState) -> float:
    """Probability of outcome phi on preparation psi: (1 + phi.psi)/2 in Bloch form."""
    p = 0.5 * (1.0 + (phi.x * psi.x + phi.y * psi.y + phi.z * psi.z))
    return min(1.0, max(0.0, p))


def orthogonal_complement(psi: PureState) -> PureState:
    """The unique state orthogonal to psi (antipodal Bloch vector)."""
    return PureState(-psi.x, -psi.y, -psi.z, _perp_label(psi.label))


def bloch_to_amplitudes(psi: PureState) -> np.ndarray:
    """Complex amplitudes (cos(theta/2), e^{i phi} sin(theta/2)).

    Global phase fixed by a real nonnegative first amplitude; when that
    amplitude is 0 the second is fixed to 1.  The azimuth is defined as 0
    at the poles.
    """
    # acos(z) loses a state's small distance from a pole, which atan2 keeps
    theta = math.atan2(math.hypot(psi.x, psi.y), psi.z)
    if theta == math.pi:
        return np.array([0.0, 1.0], dtype=complex)
    phi = math.atan2(psi.y, psi.x)
    a = math.cos(0.5 * theta)
    b = complex(math.cos(phi), math.sin(phi)) * math.sin(0.5 * theta)
    return np.array([a, b], dtype=complex)


def amplitudes_to_bloch(amps) -> PureState:
    """The state of a (normalized) amplitude pair, by its Bloch vector; insensitive to global phase."""
    a, b = complex(amps[0]), complex(amps[1])
    cross = a.conjugate() * b
    return PureState(2.0 * cross.real, 2.0 * cross.imag, abs(a) ** 2 - abs(b) ** 2)


def half_half_mixture(psi: PureState) -> Ensemble:
    """The 50/50 mixture of psi and its orthogonal complement."""
    return Ensemble(((0.5, psi), (0.5, orthogonal_complement(psi))))


PLUS_Z = PureState(0.0, 0.0, 1.0, "+z")
MINUS_Z = PureState(0.0, 0.0, -1.0, "-z")
PLUS_X = PureState(1.0, 0.0, 0.0, "+x")
MINUS_X = PureState(-1.0, 0.0, 0.0, "-x")
PLUS_Y = PureState(0.0, 1.0, 0.0, "+y")
MINUS_Y = PureState(0.0, -1.0, 0.0, "-y")


def _finite(field_name: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"catalog entry {field_name!r} must be a number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:   # an integer literal beyond the float range
        x = math.inf
    if not math.isfinite(x):
        raise ValueError(f"catalog entry {field_name!r} must be finite, got {x!r}")
    return x


def state_from_catalog_entry(entry: dict) -> PureState:
    """Parse one state-catalog JSON entry.

    Accepted forms: {"bloch": [x, y, z], "label": ...} or
    {"theta": t, "phi": p, "label": ...} with angles in radians.  Every
    number must be a finite JSON number (not a string or a boolean).  An
    unknown key, or "bloch" beside "theta" or "phi", raises naming it.
    """
    if not isinstance(entry, dict):
        raise ValueError(f"catalog entry must be a JSON object, got {entry!r}")
    unknown = [key for key in entry if key not in ("bloch", "theta", "phi", "label")]
    if unknown:
        raise ValueError(f"catalog entry has unknown key {unknown[0]!r}; expected bloch, theta, phi or label")
    if "bloch" in entry and ("theta" in entry or "phi" in entry):
        raise ValueError("catalog entry mixes 'bloch' with 'theta'/'phi'; give one form")
    label = entry.get("label")
    if label is not None and not isinstance(label, str):
        raise ValueError("catalog entry label must be a string")
    if "bloch" in entry:
        v = entry["bloch"]
        if not isinstance(v, (list, tuple)) or len(v) != 3:
            raise ValueError("catalog entry 'bloch' must be a 3-element list")
        coords = [_finite("bloch", c) for c in v]
        try:
            return PureState(*coords, label)
        except ValueError as exc:   # the components are finite, so the norm is off
            raise ValueError(f"catalog entry 'bloch' must be a unit vector: {exc}") from None
    if "theta" in entry and "phi" in entry:
        theta, phi = _finite("theta", entry["theta"]), _finite("phi", entry["phi"])
        return PureState.from_angles(theta, phi, label)
    raise ValueError("catalog entry needs either 'bloch' or 'theta'/'phi' fields")
