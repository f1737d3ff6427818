"""Hidden-variable models of a qubit on the unit sphere.

Two physical models are provided: a single-sphere model whose preparation
density is a cosine cap around the prepared Bloch vector, and a two-sphere
model that pins the first sphere to the prepared vector exactly and draws
the second uniformly.  Two deliberately broken fixtures ship alongside them
so the property checkers can be shown to fail.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import FieldError, PreconditionError
from .integrate import circle_points_from_uniforms, lend, sphere_points_from_uniforms, substream_key, uniform_blocks
from .qubit import (
    MINUS_X,
    MINUS_Y,
    MINUS_Z,
    PLUS_X,
    PLUS_Y,
    PLUS_Z,
    MeasurementBasis,
    PureState,
    orthogonal_complement,
    same_state,
    same_state_rows,
)

RELABEL_MARK = "*"       # marker used on checker-synthesized basis descriptors


class PairBatch:
    """Vectorized batch of sphere-pair ontic states: two (n, 3) arrays of unit rows, one per sphere.

    draw_second is a function of no arguments that returns the second
    sphere; it is called when second is first read, once, so rows that no
    integrand reads are never drawn.  Counter-based draws make the deferred
    rows bitwise those an eager draw gives.  Neither deferred value takes a
    lock: a batch is read by the one thread that drew it.
    """

    def __init__(self, first: np.ndarray, draw_second: Callable[[], np.ndarray]):
        self.first = first
        self._draw_second = draw_second
        self._second = None
        self._total = None

    def __len__(self) -> int:
        return len(self.first)

    @property
    def second(self) -> np.ndarray:
        if self._second is None:
            self._second = self._draw_second()
        return self._second

    @property
    def total(self) -> np.ndarray:
        """first + second, the summed vector the two-sphere responses read; computed once per batch."""
        if self._total is None:
            self._total = np.add(self.first, self.second, out=lend(self.second.shape))
        return self._total


# A single-sphere batch is its (n, 3) array of unit rows.
Batch = np.ndarray | PairBatch


def per_row(f: Callable[[np.ndarray], np.ndarray], rows: np.ndarray) -> np.ndarray:
    """f(rows) for a per-row function f, evaluated on row 0 alone when rows repeat it.

    Returns a full array either way: a point measure's batch answers every
    row from one evaluation.
    """
    if rows.strides[0] != 0 or len(rows) == 0:
        return f(rows)
    one = f(rows[:1])
    return np.full(len(rows), one[0], dtype=one.dtype)


class OntologicalModel(ABC):
    """Sampler, support predicate and response function of one model.

    All capabilities are pure functions of their arguments plus (seed, index).
    """

    name: str = "abstract"
    has_density: bool = False

    @abstractmethod
    def prepare_batch(self, psi: PureState, seed: int, start: int, count: int) -> Batch:
        """Draw ontic states for sample indices start..start+count-1 of mu_psi."""

    @abstractmethod
    def reference_batch(self, seed: int, start: int, count: int) -> Batch:
        """Draw from the reference measure on the full ontic space."""

    @abstractmethod
    def in_support_batch(self, psi: PureState, batch: Batch) -> np.ndarray:
        """Boolean membership of each batch row in the support of mu_psi."""

    @abstractmethod
    def response_batch(self, basis: MeasurementBasis, batch: Batch) -> tuple[np.ndarray, np.ndarray]:
        """Response probabilities of the basis's two outcomes at each batch row, as (r0, r1).

        A deterministic response is a bool array (the outcome fires or not);
        any other response is a float array of probabilities.  The step
        models project once onto outcome 0's Bloch vector v and answer
        outcome 1 from the opposite half-space, d < 0, which is bitwise the
        projection onto -v tested for > 0.  So every basis whose outcome 1
        is the exact antipode (all that orthogonal_complement and the axis
        constants build) gets a projection per outcome's values, and a basis
        antipodal only within STATE_TOL is answered from outcome 0's
        half-space.
        """

    def density_batch(self, psi: PureState, batch: Batch) -> np.ndarray:
        """Density of mu_psi w.r.t. the reference measure; PreconditionError unless has_density."""
        raise PreconditionError(f"model {self.name!r} has no density")

    def _prepare_key(self, psi: PureState, seed: int) -> int:
        """The Philox key of mu_psi's stream, from the exact Bloch vector of psi."""
        return substream_key(seed, self.name, "prepare", psi.vec())


def _require_single(batch: Batch) -> np.ndarray:
    if isinstance(batch, PairBatch):
        raise ValueError("expected a single-sphere ontic state, got a sphere pair")
    return batch


def _require_pair(batch: Batch) -> PairBatch:
    if not isinstance(batch, PairBatch):
        raise ValueError("expected a sphere-pair ontic state, got a single point")
    return batch


@lru_cache(maxsize=256)
def _cap_frame(axis_bytes: bytes) -> tuple[np.ndarray, np.ndarray]:
    """Unit tangents (e1, e2), e1 x e2 = axis, of the axis with these bytes: a complement's -0.0 keeps its own."""
    axis = np.frombuffer(axis_bytes)
    helper = np.array([0.0, 0.0, 1.0]) if abs(axis[2]) < 0.9 else np.array([1.0, 0.0, 0.0])
    e1 = np.cross(helper, axis)
    e1 /= np.linalg.norm(e1)
    return e1, np.cross(axis, e1)


def _cap_points(axis: np.ndarray, key: int, start: int, count: int) -> np.ndarray:
    """Sample the cosine-cap density (1/pi) * max(0, axis . lam) exactly.

    In the frame with `axis` at the pole, cos(theta) = sqrt(1 - u) for u
    uniform on [0, 1), which keeps axis . lam strictly positive; the azimuth
    is uniform.  It lends the uniforms, t, s, two azimuth terms and the rows,
    each written with out= by the one IEEE operation of t = sqrt(1 - u0),
    s = sqrt(1 - t*t), row = s*cos(phi)*e1 + s*sin(phi)*e2 + t*axis, row / |row|.
    """
    u = uniform_blocks(key, start, count)
    t = np.subtract(1.0, u[:, 0], out=lend((count,)))
    np.sqrt(t, out=t)
    s = np.multiply(t, t, out=lend((count,)))
    np.subtract(1.0, s, out=s)
    np.sqrt(s, out=s)
    sc, ss = lend((count,)), lend((count,))
    circle_points_from_uniforms(s, u[:, 1], sc, ss)
    e1, e2 = _cap_frame(axis.tobytes())
    out = lend((count, 3))
    for k in range(3):   # s is spent, so it serves as scratch
        col = out[:, k]
        np.multiply(sc, e1[k], out=col)
        col += np.multiply(ss, e2[k], out=s)
        col += np.multiply(t, axis[k], out=s)
    norm = np.multiply(out[:, 0], out[:, 0], out=sc)   # as do the spent azimuth terms
    norm += np.multiply(out[:, 1], out[:, 1], out=s)
    norm += np.multiply(out[:, 2], out[:, 2], out=s)
    out /= np.sqrt(norm, out=norm)[:, None]
    return out


def _point_mass_rows(psi: PureState, count: int) -> np.ndarray:
    """count rows of psi's Bloch vector, as one read-only row with stride 0."""
    return np.broadcast_to(psi.vec(), (count, 3))


def _half_spaces(rows: np.ndarray, basis: MeasurementBasis) -> tuple[np.ndarray, np.ndarray]:
    """The step responses (d > 0, d < 0) of the rows' projection d onto outcome 0's vector."""
    d = rows @ basis.outcomes[0].vec()
    return d > 0.0, d < 0.0


class KochenSpeckerModel(OntologicalModel):
    """Single-sphere model with cosine-cap preparations and step responses."""

    name = "ks"
    has_density = True

    def prepare_batch(self, psi, seed, start, count):
        return _cap_points(psi.vec(), self._prepare_key(psi, seed), start, count)

    def reference_batch(self, seed, start, count):
        u = uniform_blocks(substream_key(seed, self.name, "reference"), start, count)
        return sphere_points_from_uniforms(u[:, 0], u[:, 1])

    def density_batch(self, psi, batch):
        pts = _require_single(batch)
        return np.maximum(0.0, pts @ psi.vec()) / np.pi

    def in_support_batch(self, psi, batch):
        return _require_single(batch) @ psi.vec() > 0.0

    def response_batch(self, basis, batch):
        return _half_spaces(_require_single(batch), basis)


class BellMerminModel(OntologicalModel):
    """Two-sphere model: a point measure (no density) on the first sphere, a uniform second sphere."""

    name = "bell-mermin"

    def prepare_batch(self, psi, seed, start, count):
        key = self._prepare_key(psi, seed)

        def draw_second():
            u = uniform_blocks(key, start, count)
            return sphere_points_from_uniforms(u[:, 0], u[:, 1])

        return PairBatch(_point_mass_rows(psi, count), draw_second)

    def reference_batch(self, seed, start, count):
        u = uniform_blocks(substream_key(seed, self.name, "reference"), start, count)
        second = sphere_points_from_uniforms(u[:, 2], u[:, 3])
        # the closure holds the mapped rows, not the uniforms
        return PairBatch(sphere_points_from_uniforms(u[:, 0], u[:, 1]), lambda: second)

    def in_support_batch(self, psi, batch):
        return per_row(lambda rows: same_state_rows(rows, psi), _require_pair(batch).first)

    def response_batch(self, basis, batch):
        return _half_spaces(_require_pair(batch).total, basis)


class _PointMeasureFixture(OntologicalModel):
    """Shared base for the negative controls: point measures on a single sphere."""

    def prepare_batch(self, psi, seed, start, count):
        return _point_mass_rows(psi, count)

    # the cap model's uniform reference on the one sphere, keyed by each fixture's name
    reference_batch = KochenSpeckerModel.reference_batch

    def in_support_batch(self, psi, batch):
        return per_row(lambda rows: same_state_rows(rows, psi), _require_single(batch))


class ConstantResponseModel(_PointMeasureFixture):
    """Negative control: every response is 1/2, breaking determinism and the Born rule."""

    name = "const-half"

    def response_batch(self, basis, batch):
        half = np.full(len(batch), 0.5)
        return half, half


class LabelReadingModel(_PointMeasureFixture):
    """Negative control: flips its response on marked basis labels.

    Descriptors whose label contains RELABEL_MARK get the complementary
    response, so the measurement-noncontextuality checker catches it.  The
    second outcome is defined as the complement of the first so responses
    sum to 1 even at the point-measure draws on decision boundaries.
    """

    name = "label-reader"

    def response_batch(self, basis, batch):
        v = basis.outcomes[0].vec()
        hit = per_row(lambda rows: rows @ v > 0.0, _require_single(batch))
        if basis.label is not None and RELABEL_MARK in basis.label:
            return ~hit, hit
        return hit, ~hit


def _index(states, psi: PureState) -> int:
    """Position of the first of states that names psi under same_state, or -1."""
    return next((i for i, s in enumerate(states) if same_state(s, psi)), -1)


@dataclass(frozen=True)
class StateCatalog:
    """The states that can be prepared and the bases that can be measured.

    states must be non-empty; bases may be empty.
    """

    states: tuple[PureState, ...]
    bases: tuple[MeasurementBasis, ...]

    def __post_init__(self):
        if not self.states:
            raise FieldError("states", "non-empty", self.states)
        for basis in self.bases:
            for outcome in basis.outcomes:
                if _index(self.states, outcome) < 0:
                    raise ValueError(f"basis outcome {outcome.describe()} missing from catalog states")

    def closed_under_complements(self) -> bool:
        return all(_index(self.states, orthogonal_complement(s)) >= 0 for s in self.states)


def default_catalog() -> StateCatalog:
    """The six axis states with their three measurement bases."""
    return StateCatalog(
        states=(PLUS_Z, MINUS_Z, PLUS_X, MINUS_X, PLUS_Y, MINUS_Y),
        bases=(
            MeasurementBasis((PLUS_Z, MINUS_Z), "z"),
            MeasurementBasis((PLUS_X, MINUS_X), "x"),
            MeasurementBasis((PLUS_Y, MINUS_Y), "y"),
        ),
    )


def catalog_from_states(states) -> StateCatalog:
    """Build a catalog from bare states: close under complements, pair into bases.

    A state that names an earlier one under same_state merges into it, so
    the catalog keeps the first of each.  A new state's complement is new
    too, since the catalog already holds the complement of every state in it.
    """
    closed: list[PureState] = []
    bases = []
    for s in states:
        if _index(closed, s) < 0:
            perp = orthogonal_complement(s)
            closed += (s, perp)
            bases.append(MeasurementBasis((s, perp), s.describe()))
    return StateCatalog(tuple(closed), tuple(bases))


_MODELS = {
    cls.name: cls
    for cls in (KochenSpeckerModel, BellMerminModel, ConstantResponseModel, LabelReadingModel)
}
MODEL_NAMES = tuple(_MODELS)


def make_model(name: str) -> OntologicalModel:
    """Instantiate a model by its registry name."""
    if name not in _MODELS:
        raise ValueError(f"unknown model {name!r}; valid names: {', '.join(MODEL_NAMES)}")
    return _MODELS[name]()
