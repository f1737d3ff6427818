"""Pointwise views of the package's batch API, for tests: every ontic state is a batch of one row.

The package evaluates models, samplers and mixtures on batches only.  These
helpers let a test state a pointwise fact about one ontic state, a one-row
batch, and each one goes through the same batch method the checks call.
random_states draws the random preparations that tests build catalogs from.
"""

import numpy as np

from onticlab.integrate import sphere_points_from_uniforms, substream_key, uniform_blocks
from onticlab.models import KochenSpeckerModel, PairBatch
from onticlab.qubit import MINUS_Z, PLUS_Z, BlochVector, MeasurementBasis, PureState

_KS = KochenSpeckerModel()
_Z_BASIS = MeasurementBasis((PLUS_Z, MINUS_Z), "z")


def single(point: BlochVector) -> np.ndarray:
    """The one-row batch of a single-sphere model at point."""
    return point.as_array()[None]


def pair(first: BlochVector, second: BlochVector) -> PairBatch:
    """The one-row batch of a two-sphere model at (first, second)."""
    second_row = second.as_array()[None]
    return PairBatch(first.as_array()[None], lambda: second_row)


def sample_prepared(model, psi, seed, index):
    return model.prepare_batch(psi, seed, index, 1)


def in_support(model, psi, lam) -> bool:
    return bool(model.in_support_batch(psi, lam)[0])


def response(model, basis, outcome_index, lam) -> float:
    return float(model.response_batch(basis, lam)[outcome_index][0])


def density(model, psi, lam):
    return float(model.density_batch(psi, lam)[0])


def uniform_sphere_batch(seed, start, count):
    """(count, 3) uniform sphere points for indices start..start+count-1, keyed by the bare seed."""
    u = uniform_blocks(int(seed), start, count)
    return sphere_points_from_uniforms(u[:, 0], u[:, 1])


def uniform_sphere_sampler(seed, index) -> BlochVector:
    """The uniform sphere point assigned to (seed, index)."""
    return BlochVector.from_array(uniform_sphere_batch(seed, index, 1)[0])


def random_states(seed: int, count: int) -> tuple[PureState, ...]:
    """Uniformly random pure states with stable labels r00, r01, ..."""
    u = uniform_blocks(substream_key(seed, "random-states"), 0, count)
    pts = sphere_points_from_uniforms(u[:, 0], u[:, 1])
    return tuple(PureState(BlochVector.from_array(pts[i]), f"r{i:02d}") for i in range(count))


def step(x):
    """The step function of the ks responses, at the dot products x (scalar or array).

    Row k is the ks response to +z at the point (0, 0, x[k]); the rows need
    not be unit vectors, since the response only tests the sign of the dot
    product.  Its convention is step(0) = step(-0.0) = 0.
    """
    z = np.atleast_1d(np.asarray(x, dtype=float))
    points = np.column_stack([np.zeros_like(z), np.zeros_like(z), z])
    vals = _KS.response_batch(_Z_BASIS, points)[0]
    return vals if np.ndim(x) else float(vals[0])
