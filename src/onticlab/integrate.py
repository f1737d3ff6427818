"""Seeded Monte Carlo estimation and deterministic quadrature on the unit sphere.

Sampling is counter-based: every sample index maps to its own Philox counter
block, so the value drawn for (seed, index) never depends on batch sizes or
on how batches are scheduled.  Quadrature uses a Gauss-Legendre product grid
in u = cos(theta), split at the equator, with a midpoint rule in azimuth.
"""

from __future__ import annotations

import hashlib
import math
import os
import threading
from contextvars import ContextVar
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .errors import PreconditionError, require_int

WEIGHT_SUM_TOL = 1e-10
DENSITY_NORM_TOL = 1e-3
MIN_SAMPLES = 100        # the smallest Monte Carlo budget, per run and per sample source
BATCH_SIZE = 25_000      # a batch's (n, 3) points (600 KB) and temporaries stay near a core's L2 cache
MAX_N_POLAR = 512        # 16x the default grid's nodes at both caps
MAX_N_AZIMUTH = 1024
# a walk's sources go to at most this many workers, one of them the calling thread
WORKERS = min(2, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)


def substream_key(seed: int, *tags) -> int:
    """Derive an independent 128-bit Philox key from a seed and purpose tags.

    Distinct tag tuples give statistically independent streams, which keeps
    e.g. each state's preparation draws decoupled from the reference
    measure's.  The key is the first 16 bytes (little-endian) of the sha256
    of the seed's 8 little-endian bytes and, per tag, 0x1f and the tag: an
    array (the one way a state enters a key) as row-major little-endian
    float64, the same on every host, and anything else as str(tag) in UTF-8.
    """
    h = hashlib.sha256(int(seed).to_bytes(8, "little", signed=False))
    for tag in tags:
        h.update(b"\x1f")
        is_array = isinstance(tag, np.ndarray)
        h.update(np.ascontiguousarray(tag, dtype="<f8").tobytes() if is_array else str(tag).encode("utf-8"))
    return int.from_bytes(h.digest()[:16], "little")


@dataclass
class _Lent:
    """A walk worker's buffers, and the requests of its current batch so far (see lend)."""

    arrays: list = field(default_factory=list)
    taken: int = 0


# the running walk worker's buffers, None outside a walk; a context variable, so each thread has its own
_LENDER: ContextVar[_Lent | None] = ContextVar("onticlab_lender", default=None)


def lend(shape: tuple[int, ...]) -> np.ndarray:
    """An uninitialized float64 array of shape, for a batch-sized array that its caller writes in full.

    Outside a walk it is a new array.  While integrate.walk runs, the k-th
    request of each batch gets its worker's k-th buffer, or a view of its
    first shape[0] rows on a shorter batch; walk restarts k at every batch,
    so no two arrays of one batch share memory, and the worker's next batch
    writes over them.  A request of another shape takes over its slot with a
    new array.
    """
    memory = _LENDER.get()
    if memory is None:
        return np.empty(shape)
    k = memory.taken
    memory.taken += 1
    if k == len(memory.arrays):
        memory.arrays.append(np.empty(shape))
    elif memory.arrays[k].shape[1:] != shape[1:] or len(memory.arrays[k]) < shape[0]:
        memory.arrays[k] = np.empty(shape)
    return memory.arrays[k][: shape[0]]


def uniform_blocks(key: int, start: int, count: int) -> np.ndarray:
    """Return a (count, 4) array of uniforms in [0, 1), written into a lent array.

    Row i holds the four outputs of Philox counter block start + i under the
    given key, so any sub-range of indices reproduces bit-identically.
    """
    gen = np.random.Generator(np.random.Philox(key=key, counter=int(start)))
    return gen.random(out=lend((count, 4)))


def circle_points_from_uniforms(radius: np.ndarray, u: np.ndarray, x: np.ndarray, y: np.ndarray) -> None:
    """Write radius*cos(2*pi*u) into x and radius*sin(2*pi*u) into y, bit for bit those expressions.

    y holds the azimuth, so nothing is lent; x and y share no memory with radius, u or each other.
    """
    phi = np.multiply(2.0 * np.pi, u, out=y)
    np.cos(phi, out=x)
    x *= radius   # a product does not depend on the order of its factors
    np.sin(phi, out=phi)
    phi *= radius


def sphere_points_from_uniforms(u0: np.ndarray, u1: np.ndarray) -> np.ndarray:
    """Map pairs of uniforms to points on S2 via z = 2*u0 - 1, azimuth = 2*pi*u1.

    It lends the (n, 3) rows, whose third column takes z, and the radius sqrt(1 - z*z);
    each step writes with out= the one IEEE operation of the expressions, bit for bit.
    """
    out = lend((len(u0), 3))
    z = np.multiply(2.0, u0, out=out[:, 2])
    z -= 1.0
    r = np.multiply(z, z, out=lend((len(u0),)))
    np.subtract(1.0, r, out=r)
    np.sqrt(r, out=r)
    circle_points_from_uniforms(r, u1, out[:, 0], out[:, 1])
    return out


@dataclass(frozen=True)
class McConfig:
    """Sampling budget for Monte Carlo estimates; every field is an integer."""

    n_samples: int = 1_000_000
    seed: int = 42

    def __post_init__(self):
        require_int("n_samples", self.n_samples, MIN_SAMPLES, math.inf, f">= {MIN_SAMPLES}")
        require_int("seed", self.seed, 0, 2**64 - 1, "in [0, 2**64)")


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo mean with its standard error (sample std / sqrt(n))."""

    mean: float
    std_error: float
    n: int
    count: int | None = None   # a counted (bool) integrand's hits, of which mean is count / n; None for any other

    @classmethod
    def from_sums(cls, s1: int | float, s2: int | float, n: int) -> McEstimate:
        """The estimate from the sum s1 and the sum of squares s2 of n values; int sums are a count (batch_sums)."""
        mean = s1 / n
        var = max(0.0, (s2 - n * mean * mean) / (n - 1))
        return cls(mean, float(np.sqrt(var / n)), n, s1 if isinstance(s1, int) else None)


def walk(
    sources: Sequence[tuple[Callable[[int, int, int], object], Sequence[tuple[int, Callable]]]],
    seed: int,
) -> None:
    """Draw each (sampler, feeds) source's stream once and give each (budget, feed) its rows.

    sampler(seed, start, count) must return a batch for indices
    start..start+count-1.  A source's stream is drawn up to its largest
    budget, in index order, in batches that end at every multiple of
    BATCH_SIZE and at every feed's budget; a source without feeds draws
    nothing.  So a budget never ends inside a batch: on each batch every feed
    of the source whose budget lies beyond the batch's start, in order, gets
    feed(batch), and len(batch) is the count it reads.  Counts and exact sums
    do not depend on where batches end; a general float sum could move in
    its last bit with them.

    Sources go to at most WORKERS workers: the calling thread and a thread
    that the walk starts and joins before it returns or raises.  Each worker
    takes the next source that no worker has taken, in the order given, and
    draws and feeds all of it.  So a feed may run beside another source's
    feeds, and it must touch only its own source's state.  A walk nested in
    a feed, and a walk with one source to draw, run on the calling thread.
    When sources raise, the walk raises the error of the first of them in
    source order, as a walk on one worker would; a worker stops a source
    after such an error at its next batch and takes no source after it.  An
    interrupt, such as KeyboardInterrupt, stops every source at its next
    batch, and the walk raises it in place of any source's error.

    Each worker lends every batch of its sources one set of buffers (see
    lend), freed when the walk ends, and a nested walk lends its own.  So a
    batch is valid only during its feeds: the worker's next batch writes over
    it, and a feed that keeps rows past its call must copy them.
    """
    def batch_ends(feeds) -> list[int]:
        """Where a source's batches end: each positive budget, and each multiple of BATCH_SIZE below the last."""
        budgets = {budget for budget, _ in feeds if budget > 0}
        return sorted(budgets.union(range(BATCH_SIZE, max(budgets, default=0), BATCH_SIZE)))

    plan = [(sampler, feeds, batch_ends(feeds)) for sampler, feeds in sources]
    lock = threading.Lock()
    taken, failed, errors = 0, len(plan), {}   # failed: the first source in order that raised so far

    def take() -> int | None:
        nonlocal taken
        with lock:
            if taken >= failed:
                return None
            taken += 1
            return taken - 1

    def work() -> None:
        nonlocal failed
        memory = _Lent()
        token = _LENDER.set(memory)   # a new thread starts with an empty context
        try:
            while (i := take()) is not None:
                sampler, feeds, ends = plan[i]
                try:
                    for start, end in zip([0] + ends, ends):
                        if failed < i:
                            break
                        memory.taken = 0
                        batch = sampler(seed, start, end - start)
                        for budget, feed in feeds:
                            if budget > start:
                                feed(batch)
                except BaseException as exc:   # kept for the caller, who re-raises it after the join
                    with lock:
                        if isinstance(exc, Exception):
                            errors[i], failed = exc, min(failed, i)
                        else:   # an interrupt stops every source at its next batch, and the walk raises it
                            errors.setdefault(-1, exc)
                            failed = -1
        finally:
            _LENDER.reset(token)

    nested = _LENDER.get() is not None
    if nested or min(WORKERS, sum(bool(ends) for *_, ends in plan)) < 2:
        work()
    else:
        helper = threading.Thread(target=work, name="onticlab-walk")
        helper.start()
        try:
            work()
            helper.join()
        except BaseException:   # an interrupt outside the sources' feeds: stop every source, then wait
            with lock:
                failed = -1
            helper.join()
            raise
    if errors:
        raise errors[failed]


def batch_sums(values, count: int, name: str) -> tuple[int, int] | tuple[float, float]:
    """The sum and the sum of squares of one integrand's values over one batch.

    values must have shape (count,).  A bool array is an indicator, so its
    count, an int, is both sums; any other array is cast to float, must be
    finite, and gives float sums.  A float holds a count below 2**53 exactly,
    so the two give an estimate the same doubles for the same 0/1 values.
    """
    vals = np.asarray(values)
    if vals.shape != (count,):
        raise ValueError(f"{name} returned shape {vals.shape}, expected ({count},)")
    if vals.dtype == np.bool_:
        hits = int(np.count_nonzero(vals))
        return hits, hits
    vals = vals.astype(float, copy=False)
    if not np.isfinite(vals).all():
        raise ValueError(f"{name} produced non-finite values")
    return float(vals.sum()), float((vals * vals).sum())


class RunningSums:
    """The reduction of several integrands, fed one batch at a time in index order.

    Each f maps a batch to a tuple of arrays of the same length, one per
    estimate: bool for an indicator, which is counted, or numbers, which are
    summed as floats (see batch_sums).  Each f must return the same number of
    arrays on every batch, and the first batch that breaks this raises.  The
    estimates come back flattened in order: those of fs[0], then those of
    fs[1], and so on.  add(batch) is a walk feed: it counts len(batch) samples.
    sums holds per estimate (sum, sum of squares), from the int 0 (an
    indicator's stay its int count), and firsts the (start, count) of its first
    batch with a positive sum of squares (for an indicator, a positive count) or None.
    """

    def __init__(self, fs: Sequence[Callable]):
        if not fs:
            raise ValueError("need at least one integrand")
        self.fs = fs
        self.n = 0
        self.sums = self.firsts = None   # per estimate, sized on the first batch

    def add(self, batch) -> None:
        """Reduce the batch of the next len(batch) sample indices into the sums."""
        arrays = (v for f in self.fs for v in f(batch))   # lazy: one integrand's arrays are held at a time
        reduced = [batch_sums(v, len(batch), f"integrand {k}") for k, v in enumerate(arrays)]
        if self.sums is None:
            self.sums, self.firsts = [(0, 0)] * len(reduced), [None] * len(reduced)
        elif len(reduced) != len(self.sums):
            raise ValueError("the integrands returned a different number of arrays on some batch")
        self.sums = [(s1 + a, s2 + b) for (s1, s2), (a, b) in zip(self.sums, reduced)]
        self.firsts = [f or ((self.n, len(batch)) if b > 0.0 else None) for f, (_, b) in zip(self.firsts, reduced)]
        self.n += len(batch)

    def estimates(self) -> list[McEstimate]:
        return [McEstimate.from_sums(s1, s2, self.n) for s1, s2 in self.sums]


def mc_expectations(
    fs: Sequence[Callable],
    sampler: Callable[[int, int, int], object],
    cfg: McConfig,
) -> list[McEstimate]:
    """Estimate several expectations over one shared sample stream.

    sampler(seed, start, count) must return a batch covering sample indices
    start..start+count-1; fs are reduced as RunningSums describes, over the
    first cfg.n_samples indices of a walk of that one source.  Batches are
    reduced in index order, so results are a pure function of (fs, sampler, cfg).
    """
    sums = RunningSums(fs)
    walk([(sampler, [(cfg.n_samples, sums.add)])], cfg.seed)
    return sums.estimates()


def mc_expectation(f: Callable, sampler: Callable, cfg: McConfig) -> McEstimate:
    """Estimate E[f] under the sampler's distribution, for f returning one array; see mc_expectations."""
    return mc_expectations([lambda batch: (f(batch),)], sampler, cfg)[0]


@lru_cache(maxsize=8)
def _grid_arrays(n_polar: int, n_azimuth: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(n_polar)
    # Gauss-Legendre panels on [-1, 0] and [0, 1]: integrands with an
    # equatorial kink or step stay smooth on each panel.
    u = np.concatenate([0.5 * (x - 1.0), 0.5 * (x + 1.0)])
    wu = np.concatenate([0.5 * w, 0.5 * w])
    # Midpoint rule in azimuth keeps axis-aligned meridional discontinuities
    # on cell boundaries instead of on nodes.
    phi = (2.0 * np.pi) * (np.arange(n_azimuth) + 0.5) / n_azimuth
    uu, pp = np.meshgrid(u, phi, indexing="ij")
    r = np.sqrt(1.0 - uu * uu)
    points = np.stack([r * np.cos(pp), r * np.sin(pp), uu], axis=-1).reshape(-1, 3)
    weights = np.repeat(wu * (2.0 * np.pi / n_azimuth), n_azimuth)
    assert abs(weights.sum() - 4.0 * np.pi) <= WEIGHT_SUM_TOL
    points.setflags(write=False)
    weights.setflags(write=False)
    return points, weights


@dataclass(frozen=True)
class QuadratureGrid:
    """Product quadrature grid over S2.

    n_polar is the Gauss-Legendre order per hemisphere panel in u = cos(theta)
    (2 * n_polar polar nodes in total); n_azimuth is the uniform midpoint
    azimuth count.  Weights are positive and sum to the sphere area 4*pi.
    Both are integers; n_polar is capped at MAX_N_POLAR and n_azimuth at
    MAX_N_AZIMUTH.
    """

    n_polar: int = 128
    n_azimuth: int = 256

    def __post_init__(self):
        require_int("n_polar", self.n_polar, 1, MAX_N_POLAR, f"in [1, {MAX_N_POLAR}]")
        require_int("n_azimuth", self.n_azimuth, 1, MAX_N_AZIMUTH, f"in [1, {MAX_N_AZIMUTH}]")

    @property
    def points(self) -> np.ndarray:
        return _grid_arrays(self.n_polar, self.n_azimuth)[0]

    @property
    def weights(self) -> np.ndarray:
        return _grid_arrays(self.n_polar, self.n_azimuth)[1]


def weighted_sum(weights: np.ndarray, values) -> float:
    """The sum of weights * values, exactly rounded: the one quadrature reduction.

    Each product is one correctly rounded multiply and math.fsum adds them
    exactly (Shewchuk 1997), so the result depends on neither the order of
    the terms nor the BLAS kernel or thread count, unlike a dot product.
    values must have the shape of weights.
    """
    vals = np.asarray(values, dtype=float)
    if vals.shape != weights.shape:
        raise ValueError(f"integrand returned shape {vals.shape}, expected {weights.shape}")
    return math.fsum(weights * vals)


def stratified(weights: np.ndarray, strata: Sequence[McEstimate]) -> McEstimate:
    """The estimate of a mixture from its components' estimates: the one reduction of strata.

    weights are the components' nonnegative weights, at least one positive,
    and strata their estimates, each over the same n samples, which is the
    result's n.  mean = sum_j w_j m_j / sum_j w_j and std_error =
    sqrt(sum_j w_j**2 se_j**2) / sum_j w_j (stratified sampling; Cochran,
    Sampling Techniques, 1977).  Dividing by the sum matters: weights that
    miss 1 in their last bit must not move a mean of 1.  The mean is taken
    about the first stratum's, so equal means, and a single stratum, come
    back bit for bit.
    """
    share = weights / weighted_sum(weights, np.ones_like(weights))
    first = strata[0].mean
    mean = first + weighted_sum(share, np.array([e.mean - first for e in strata]))
    return McEstimate(mean, math.hypot(*(share * [e.std_error for e in strata])), strata[0].n)


def sphere_quadrature(f: Callable[[np.ndarray], np.ndarray], grid: QuadratureGrid = QuadratureGrid()) -> float:
    """Approximate the surface integral of f over S2.

    f receives an (N, 3) array of unit vectors and returns N values.  Exact
    (to 1e-10) for polynomials of degree <= 2*n_polar - 1 with azimuthal
    harmonics of order < n_azimuth / 2; discontinuous integrands converge
    with degraded accuracy.
    """
    return weighted_sum(grid.weights, f(grid.points))


def tv_distance(
    f: Callable[[np.ndarray], np.ndarray],
    g: Callable[[np.ndarray], np.ndarray],
    grid: QuadratureGrid = QuadratureGrid(),
) -> float:
    """Total variation distance (1/2) * integral of |f - g| between sphere densities.

    Both inputs must be finite, nonnegative and integrate to 1 within 1e-3 on the grid.
    """
    pts, wts = grid.points, grid.weights
    fv = np.asarray(f(pts), dtype=float)
    gv = np.asarray(g(pts), dtype=float)
    for name, vals in (("f", fv), ("g", gv)):
        if not np.isfinite(vals).all():
            raise PreconditionError(f"density {name} takes non-finite values")
        if vals.min() < 0.0:
            raise PreconditionError(f"density {name} takes negative values")
        total = weighted_sum(wts, vals)
        if abs(total - 1.0) > DENSITY_NORM_TOL:
            raise PreconditionError(
                f"density {name} integrates to {total:.6f}, not 1, on the quadrature grid with"
                f" n_polar={grid.n_polar} and n_azimuth={grid.n_azimuth}"
            )
    return 0.5 * weighted_sum(wts, np.abs(fv - gv))
