import math
import sys
import threading

import numpy as np
import pytest

from onticlab import integrate
from onticlab.errors import FieldError, PreconditionError
from onticlab.integrate import (
    McConfig,
    McEstimate,
    QuadratureGrid,
    RunningSums,
    batch_sums,
    lend,
    mc_expectation,
    mc_expectations,
    sphere_quadrature,
    substream_key,
    tv_distance,
    uniform_blocks,
    walk,
)

from onticlab.models import MODEL_NAMES, RELABEL_MARK, default_catalog, make_model
from onticlab.qubit import MeasurementBasis

from batch_of_one import uniform_sphere_batch, uniform_sphere_sampler

CFG = McConfig(n_samples=200_000, seed=11)
GRID = QuadratureGrid()


def gauss_1d(f, a, b, n=400):
    """Independent 1-dim Gauss-Legendre oracle used to pin expected values."""
    x, w = np.polynomial.legendre.leggauss(n)
    xm = 0.5 * (b - a) * x + 0.5 * (a + b)
    return float(0.5 * (b - a) * (w @ f(xm)))


class TestCounterStreams:
    def test_substream_keys_distinct(self):
        k1 = substream_key(42, "a")
        assert k1 == substream_key(42, "a")
        assert k1 != substream_key(42, "b")
        assert k1 != substream_key(43, "a")

    def test_blocks_are_indexed_per_sample(self):
        key = substream_key(9, "t")
        batch = uniform_blocks(key, 5, 8)
        for i in range(8):
            np.testing.assert_array_equal(uniform_blocks(key, 5 + i, 1)[0], batch[i])

    def test_sphere_sampler_determinism(self):
        a = uniform_sphere_sampler(3, 17)
        b = uniform_sphere_sampler(3, 17)
        assert a == b
        batch = uniform_sphere_batch(3, 15, 5)
        np.testing.assert_array_equal(batch[2], a.as_array())

    def test_sphere_points_are_unit(self):
        pts = uniform_sphere_batch(1, 0, 10_000)
        np.testing.assert_allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)


class TestUniformSphereMoments:
    def test_coordinate_means_vanish(self):
        ests = mc_expectations(
            [lambda p: (p[:, 0],), lambda p: (p[:, 1], p[:, 2])],
            uniform_sphere_batch,
            CFG,
        )
        assert len(ests) == 3
        for est in ests:
            assert abs(est.mean) <= 5 * est.std_error

    def test_z_squared_moment(self):
        # closed-form second moment: (1/2) * integral of u^2 over [-1, 1] = 1/3
        oracle = 0.5 * gauss_1d(lambda u: u * u, -1.0, 1.0)
        assert abs(oracle - 1.0 / 3.0) <= 1e-12
        est = mc_expectation(lambda p: p[:, 2] ** 2, uniform_sphere_batch, CFG)
        assert abs(est.mean - oracle) <= 5 * est.std_error


class TestMcExpectation:
    def test_constant_integrand(self):
        est = mc_expectation(lambda p: np.ones(len(p)), uniform_sphere_batch, CFG)
        assert est.mean == 1.0 and est.std_error == 0.0

    def test_hemisphere_indicator(self):
        est = mc_expectation(lambda p: (p[:, 2] > 0).astype(float), uniform_sphere_batch, CFG)
        assert abs(est.mean - 0.5) <= 5 * est.std_error

    def test_positive_part_of_z(self):
        # (1/2) * integral of max(0, u) over [-1, 1] = 1/4
        oracle = 0.5 * gauss_1d(lambda u: u, 0.0, 1.0)
        assert abs(oracle - 0.25) <= 1e-14
        est = mc_expectation(lambda p: np.maximum(0.0, p[:, 2]), uniform_sphere_batch, CFG)
        assert abs(est.mean - oracle) <= 5 * est.std_error

    def test_bit_identical_reruns(self):
        f = lambda p: np.maximum(0.0, p[:, 2])
        a = mc_expectation(f, uniform_sphere_batch, CFG)
        b = mc_expectation(f, uniform_sphere_batch, CFG)
        assert a == b

    def test_partial_final_batch(self, monkeypatch):
        monkeypatch.setattr(integrate, "BATCH_SIZE", 1000)
        cfg = McConfig(n_samples=12_345, seed=5)
        est = mc_expectation(lambda p: np.ones(len(p)), uniform_sphere_batch, cfg)
        assert est.mean == 1.0 and est.n == 12_345

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            mc_expectation(
                lambda p: np.where(p[:, 2] > 0, np.nan, 1.0), uniform_sphere_batch, CFG
            )

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="shape"):
            mc_expectation(lambda p: np.ones(3), uniform_sphere_batch, CFG)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            McConfig(n_samples=10)
        with pytest.raises(ValueError):
            mc_expectations([], uniform_sphere_batch, CFG)


class TestTupleIntegrands:
    """Each integrand returns a tuple of arrays; the estimates come back flattened in order."""

    def test_estimates_flatten_in_order(self, monkeypatch):
        monkeypatch.setattr(integrate, "BATCH_SIZE", 700)
        cfg = McConfig(n_samples=5_000, seed=2)
        pairs = mc_expectations(
            [lambda p: (p[:, 0], p[:, 2] > 0), lambda p: (p[:, 1] ** 2,)], uniform_sphere_batch, cfg
        )
        singles = [
            mc_expectation(f, uniform_sphere_batch, cfg)
            for f in (lambda p: p[:, 0], lambda p: p[:, 2] > 0, lambda p: p[:, 1] ** 2)
        ]
        assert pairs == singles

    @pytest.mark.parametrize("later", [0, 2])
    def test_array_count_must_not_change_between_batches(self, later, monkeypatch):
        monkeypatch.setattr(integrate, "BATCH_SIZE", 400)
        cfg = McConfig(n_samples=1_000, seed=2)
        calls = []

        def f(p):   # one array on the first batch, `later` arrays on the next
            calls.append(len(p))
            return (p[:, 0],) * (1 if len(calls) == 1 else later)

        with pytest.raises(ValueError, match="different number of arrays"):
            mc_expectations([f], uniform_sphere_batch, cfg)

    def test_array_count_change_raises_on_the_batch_that_makes_it(self, monkeypatch):
        monkeypatch.setattr(integrate, "BATCH_SIZE", 100)
        cfg = McConfig(n_samples=1_000, seed=2)   # 10 batches
        starts = []

        def spy(seed, start, count):
            starts.append(start)
            return uniform_sphere_batch(seed, start, count)

        def f(p):   # one array on batch 1, two from batch 2 on
            return (p[:, 0],) * (1 if len(starts) == 1 else 2)

        with pytest.raises(ValueError, match="different number of arrays"):
            mc_expectations([f], spy, cfg)
        assert starts == [0, 100]


class TestRunningSums:
    """mc_expectations is RunningSums fed the stream's batches in index order."""

    def test_batches_fed_by_hand_give_the_estimates(self, monkeypatch):
        monkeypatch.setattr(integrate, "BATCH_SIZE", 300)
        cfg = McConfig(n_samples=1_000, seed=4)
        fs = [lambda p: (p[:, 2] > 0, p[:, 0] > 0.5)]
        sums = RunningSums(fs)
        for start, count in ((0, 300), (300, 700)):
            sums.add(uniform_sphere_batch(cfg.seed, start, count))
        assert sums.n == 1_000
        assert sums.estimates() == mc_expectations(fs, uniform_sphere_batch, cfg)

    def test_needs_an_integrand(self):
        with pytest.raises(ValueError, match="at least one integrand"):
            RunningSums([])


class TestCountPath:
    """A bool integrand is an indicator: its count is both sums of the reduction."""

    def test_bool_values_are_counted(self):
        vals = np.array([True, False, True, True])
        assert batch_sums(vals, 4, "f") == (3.0, 3.0)
        assert batch_sums(vals.astype(float), 4, "f") == (3.0, 3.0)

    def test_bool_integrand_of_the_wrong_shape_rejected(self):
        with pytest.raises(ValueError, match=r"integrand 0 returned shape \(3,\)"):
            mc_expectation(lambda p: np.ones(3, dtype=bool), uniform_sphere_batch, CFG)
        with pytest.raises(ValueError, match="shape"):
            mc_expectation(lambda p: (p > 0.0), uniform_sphere_batch, CFG)

    def test_float_nan_integrand_still_rejected(self):
        with pytest.raises(ValueError, match="integrand 1 produced non-finite values"):
            mc_expectations(
                [lambda p: (p[:, 2] > 0, np.full(len(p), np.nan))], uniform_sphere_batch, CFG
            )

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_shipped_responses_and_supports_are_bool(self, name):
        # const-half's 1/2 is the one response that is not an indicator
        model, catalog = make_model(name), default_catalog()
        relabeled = tuple(MeasurementBasis(b.outcomes, b.label + RELABEL_MARK) for b in catalog.bases)
        batches = [model.prepare_batch(s, 3, 0, 50) for s in catalog.states]
        batches.append(model.reference_batch(3, 0, 50))
        for batch in batches:
            for psi in catalog.states:
                assert model.in_support_batch(psi, batch).dtype == np.bool_
            for basis in catalog.bases + relabeled:
                responses = model.response_batch(basis, batch)
                assert len(responses) == 2
                for vals in responses:
                    assert vals.dtype == (np.float64 if name == "const-half" else np.bool_)


class TestConfigFields:
    """A config field of the wrong type fails at construction with an error naming it."""

    @pytest.mark.parametrize(
        "field, value", [("n_samples", 1e3), ("seed", 1.5), ("seed", True)]
    )
    def test_mc_config_rejects_non_integers(self, field, value):
        with pytest.raises(FieldError, match=f"^{field} must be an integer, got") as info:
            McConfig(**{field: value})
        assert info.value.field == field

    @pytest.mark.parametrize("value", [4.5, True])
    def test_grid_rejects_non_integers(self, value):
        with pytest.raises(FieldError, match="^n_polar must be an integer, got") as info:
            QuadratureGrid(n_polar=value)
        assert info.value.field == "n_polar"

    def test_ranges_keep_their_wording(self):
        for build, text in (
            (lambda: McConfig(seed=2**64), r"^seed must be in \[0, 2\*\*64\), got"),
            (lambda: McConfig(n_samples=99), "^n_samples must be >= 100, got 99$"),
            (lambda: QuadratureGrid(n_polar=513), r"^n_polar must be in \[1, 512\], got 513$"),
            (lambda: QuadratureGrid(n_azimuth=0), r"^n_azimuth must be in \[1, 1024\], got 0$"),
        ):
            with pytest.raises(FieldError, match=text):
                build()


class TestWalk:
    def test_each_index_once_in_order_with_remainder_last(self, monkeypatch):
        monkeypatch.setattr(integrate, "BATCH_SIZE", 100)
        calls, pairs = [], []

        def sampler(seed, start, count):
            calls.append((seed, start, count))
            return np.arange(start, start + count)

        walk([(sampler, [(250, lambda batch: pairs.append((len(batch), batch)))])], 3)
        assert [count for count, _ in pairs] == [100, 100, 50]
        np.testing.assert_array_equal(np.concatenate([b for _, b in pairs]), np.arange(250))
        assert calls == [(3, 0, 100), (3, 100, 100), (3, 200, 50)]

    def test_single_batch_when_budget_fits(self, monkeypatch):
        monkeypatch.setattr(integrate, "BATCH_SIZE", 1000)
        batches = []
        walk([(lambda seed, start, count: (start, count), [(100, batches.append)])], 0)
        assert batches == [(0, 100)]

    def test_no_feed_draws_nothing(self):
        calls = []
        walk([(lambda seed, start, count: calls.append(start), [])], 0)
        assert calls == []


class TestUniformConversion:
    """uniform_blocks is pinned to the Philox stream: each double is a raw 64-bit output's top 53 bits times 2**-53.

    numpy keeps its bit generators stream-stable but not Generator.random, so
    a numpy that changes the conversion fails here instead of moving every
    report.
    """

    @staticmethod
    def raw_uniforms(key, start, count):
        raw = np.random.Philox(key=key, counter=start).random_raw(4 * count)
        return ((raw >> 11) * 2.0**-53).reshape(count, 4)

    @pytest.mark.parametrize("key", [0, 42, 2**127 + 12_345])
    @pytest.mark.parametrize("start", [0, 12_345, 2**40])
    @pytest.mark.parametrize("count", [1, 7, 25_000])
    def test_outside_a_walk(self, key, start, count):
        assert uniform_blocks(key, start, count).tobytes() == self.raw_uniforms(key, start, count).tobytes()

    @pytest.mark.parametrize("key", [0, 2**127 + 12_345])
    @pytest.mark.parametrize("start", [0, 12_345, 2**40])
    @pytest.mark.parametrize("count", [1, 7, 25_000])
    def test_inside_a_walk_into_lent_buffers(self, key, start, count, monkeypatch):
        # 3,000-row batches reuse the first batch's buffer, and a short last batch takes a view of it
        monkeypatch.setattr(integrate, "BATCH_SIZE", 3_000)
        got = []
        walk([(lambda seed, s, c: uniform_blocks(key, start + s, c), [(count, lambda u: got.append(u.copy()))])], 0)
        assert np.concatenate(got).tobytes() == self.raw_uniforms(key, start, count).tobytes()


class TestLend:
    """A walk lends each batch's k-th array from its k-th buffer; outside a walk every array is new."""

    def test_outside_a_walk_every_array_is_new(self):
        a, b = lend((5, 3)), lend((5, 3))
        assert a.shape == (5, 3) and a.dtype == np.float64 and not np.shares_memory(a, b)

    def test_kth_request_of_each_batch_gets_the_kth_buffer(self, monkeypatch):
        monkeypatch.setattr(integrate, "BATCH_SIZE", 4)
        seen = []

        def sampler(seed, start, count):
            arrays = [lend((count, 4)), lend((count,)), lend((count, 3))]
            for a in arrays:
                a.fill(start)   # a lent array is written in full by its caller
            return arrays

        walk([(sampler, [(10, seen.append)])], 0)
        assert [len(arrays[0]) for arrays in seen] == [4, 4, 2]
        for arrays in seen:
            assert not any(np.shares_memory(a, b) for i, a in enumerate(arrays) for b in arrays[i + 1:])
        for later in seen[1:]:
            assert all(np.shares_memory(a, b) for a, b in zip(seen[0], later))
        # the short last batch wrote over the first two rows of the first batch's arrays
        assert (seen[0][0][:2] == 8).all() and (seen[0][0][2:] == 4).all()

    def test_another_shape_takes_over_the_slot(self, monkeypatch):
        monkeypatch.setattr(integrate, "BATCH_SIZE", 4)
        seen = []
        walk([(lambda seed, start, count: lend((count, 4) if start else (count, 3)), [(8, seen.append)])], 0)
        assert [a.shape for a in seen] == [(4, 3), (4, 4)]

    def test_a_nested_walk_lends_its_own(self, monkeypatch):
        monkeypatch.setattr(integrate, "BATCH_SIZE", 4)
        outer, inner = [], []

        def feed(a):
            outer.append(a)
            walk([(lambda seed, start, count: lend((count, 4)), [(4, inner.append)])], 0)
            assert not np.shares_memory(a, inner[-1])

        walk([(lambda seed, start, count: lend((count, 4)), [(8, feed)])], 0)
        assert len(outer) == 2 and len(inner) == 2

    def test_consecutive_sources_reuse_one_set_and_the_next_walk_starts_afresh(self, monkeypatch):
        monkeypatch.setattr(integrate, "WORKERS", 1)   # one worker takes both sources
        first, second, own, held = [], [], [], []
        sampler = lambda seed, start, count: lend((count, 4))

        def second_feed(a):
            second.append(a)
            held.append(len(integrate._LENDER.get().arrays))

        walk([(sampler, [(10, first.append)]), (sampler, [(10, second_feed)])], 0)
        walk([(sampler, [(10, own.append)])], 0)
        assert np.shares_memory(first[0], second[0]) and held == [1]
        assert not np.shares_memory(first[0], own[0])


@pytest.fixture
def started(monkeypatch):
    """The threads started while the test runs."""
    starts = []

    class Counted(threading.Thread):
        def start(self):
            starts.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", Counted)
    return starts


def lent_rows(seed, start, count):
    rows = lend((count, 4))
    rows.fill(start)   # a lent array is written in full by its caller
    return rows


class TestWorkers:
    """A walk takes sources on at most WORKERS workers, each with its own buffers, and joins them."""

    def test_two_workers_hold_disjoint_rows_and_each_reuses_its_set(self, monkeypatch, started):
        monkeypatch.setattr(integrate, "WORKERS", 2)
        monkeypatch.setattr(integrate, "BATCH_SIZE", 4)
        both_hold = threading.Barrier(2, timeout=10)
        held, seen = [], {}

        def feed(rows):
            seen.setdefault(threading.get_ident(), []).append(rows)
            if rows[0, 0] == 0:   # each source's first batch waits until the other worker holds one too
                held.append(rows)
                both_hold.wait()

        walk([(lent_rows, [(12, feed)]), (lent_rows, [(12, feed)])], 0)
        assert len(started) == 1 and not started[0].is_alive()
        assert len(seen) == 2 and not np.shares_memory(*held)
        for batches in seen.values():
            assert len(batches) == 3 and all(np.shares_memory(batches[0], b) for b in batches[1:])

    @pytest.mark.parametrize("workers", (1, 2))
    def test_the_first_source_that_raises_in_source_order_raises(self, workers, monkeypatch):
        monkeypatch.setattr(integrate, "WORKERS", workers)
        monkeypatch.setattr(integrate, "BATCH_SIZE", 10)
        fourth_raised = threading.Event()
        fed = [0] * 6

        class SourceError(Exception):
            pass

        def feed_of(i):
            def feed(rows):
                fed[i] += 1
                if i == 4:
                    fourth_raised.set()
                    raise SourceError(i)
                if i == 2 and fed[i] == 3:
                    # on two workers, source 4 raises while source 2 still runs
                    assert workers == 1 or fourth_raised.wait(timeout=10)
                    raise SourceError(i)
            return feed

        before = threading.active_count()
        with pytest.raises(SourceError) as info:
            walk([(lent_rows, [(30, feed_of(i))]) for i in range(6)], 0)
        assert info.value.args == (2,)
        assert threading.active_count() == before
        # no source after one that raised is taken
        assert fed[:3] == [3, 3, 3] and fed[5] == 0
        assert fed[3:5] == ([0, 0] if workers == 1 else [3, 1])

    def test_an_interrupt_in_a_feed_wins_over_a_lower_source_error(self, monkeypatch):
        """Ctrl-C on the calling thread is raised even when the helper's lower source raises after it."""
        monkeypatch.setattr(integrate, "WORKERS", 2)
        monkeypatch.setattr(integrate, "BATCH_SIZE", 10)
        caller = threading.get_ident()
        both_in_a_feed = threading.Barrier(2, timeout=10)
        interrupted = threading.Event()
        waited = set()

        def feed_of(i):
            def feed(rows):
                if threading.get_ident() not in waited:   # each worker's first feed waits for the other's
                    waited.add(threading.get_ident())
                    both_in_a_feed.wait()
                if threading.get_ident() != caller:
                    assert interrupted.wait(timeout=10)
                    raise ValueError(i)
                if i > 0:   # the caller's source is above the helper's: source 0 ends at once
                    interrupted.set()
                    raise KeyboardInterrupt
            return feed

        before = threading.active_count()
        with pytest.raises(KeyboardInterrupt):
            walk([(lent_rows, [(30, feed_of(i))]) for i in range(4)], 0)
        assert threading.active_count() == before

    @staticmethod
    def caller_takes_source_0(monkeypatch, interrupted_joins=0):
        """Samplers whose source 0 the caller takes and source 1 the helper, and an event that join sets.

        The helper takes a source only after the caller has drawn source 0's
        first batch.  The first interrupted_joins calls of join() raise
        KeyboardInterrupt; the next one sets the event, then joins.
        """
        caller_drew, joined = threading.Event(), threading.Event()
        joins = []

        class Helper(threading.Thread):
            def run(self):
                caller_drew.wait(timeout=10)
                super().run()

            def join(self, timeout=None):
                joins.append(self)
                if len(joins) <= interrupted_joins:
                    raise KeyboardInterrupt
                joined.set()
                super().join(timeout)

        def sampler_of(i):
            def sampler(seed, start, count):
                if i == 0:
                    caller_drew.set()
                return lent_rows(seed, start, count)
            return sampler

        monkeypatch.setattr(threading, "Thread", Helper)
        return sampler_of, joined

    def test_a_source_error_stops_the_other_workers_source_at_its_next_batch(self, monkeypatch, started):
        monkeypatch.setattr(integrate, "WORKERS", 2)
        monkeypatch.setattr(integrate, "BATCH_SIZE", 10)
        sampler_of, joined = self.caller_takes_source_0(monkeypatch)
        holding = threading.Event()
        fed = [0, 0]

        class SourceError(Exception):
            pass

        def feed_of(i):
            def feed(rows):
                fed[i] += 1
                if i == 0:   # source 0 raises while source 1 holds its first batch
                    assert holding.wait(timeout=10)
                    raise SourceError(i)
                holding.set()
                assert joined.wait(timeout=10)   # the caller joins once it has given up its sources
            return feed

        with pytest.raises(SourceError) as info:
            walk([(sampler_of(i), [(30, feed_of(i))]) for i in range(2)], 0)
        assert info.value.args == (0,)
        assert fed == [1, 1]
        assert len(started) == 1 and not started[0].is_alive()

    def test_an_interrupt_while_joining_stops_the_helpers_source_at_its_next_batch(self, monkeypatch, started):
        monkeypatch.setattr(integrate, "WORKERS", 2)
        monkeypatch.setattr(integrate, "BATCH_SIZE", 10)
        sampler_of, joined = self.caller_takes_source_0(monkeypatch, interrupted_joins=1)
        holding = threading.Event()
        fed = [0, 0]

        def feed_of(i):
            def feed(rows):
                fed[i] += 1
                if i == 0:   # source 1 is taken before the caller, done with source 0, joins
                    assert holding.wait(timeout=10)
                    return
                holding.set()
                assert joined.wait(timeout=10)   # the second join comes after the interrupted first
            return feed

        before = threading.active_count()
        with pytest.raises(KeyboardInterrupt):
            walk([(sampler_of(i), [(30, feed_of(i))]) for i in range(2)], 0)
        assert fed == [3, 1]
        assert len(started) == 1 and not started[0].is_alive()
        assert threading.active_count() == before

    def test_nested_and_one_source_walks_start_no_thread(self, monkeypatch, started):
        monkeypatch.setattr(integrate, "WORKERS", 2)
        monkeypatch.setattr(integrate, "BATCH_SIZE", 4)
        inner = []

        def feed(rows):
            walk([(lent_rows, [(8, inner.append)]), (lent_rows, [(8, inner.append)])], 0)

        walk([(lent_rows, [(12, inner.append)])], 0)
        walk([(lent_rows, [(12, inner.append)]), (lent_rows, [])], 0)
        assert started == []
        walk([(lent_rows, [(4, feed)]), (lent_rows, [(4, feed)])], 0)
        assert len(started) == 1 and len(inner) == 3 + 3 + 2 * 4

    def test_every_source_is_fed_once_under_a_short_switch_interval(self, monkeypatch):
        """A lost update in taking sources would feed a source twice or skip one."""
        monkeypatch.setattr(integrate, "WORKERS", 2)
        monkeypatch.setattr(integrate, "BATCH_SIZE", 3)
        fed = [[] for _ in range(300)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            walk([(lambda seed, start, count: start, [(7, rows.append)]) for rows in fed], 0)
        finally:
            sys.setswitchinterval(interval)
        assert fed == [[0, 3, 6]] * 300


class TestMcEstimateFromSums:
    def test_matches_sample_statistics(self):
        vals = np.array([0.0, 1.0, 1.0, 0.5, 0.0])
        est = McEstimate.from_sums(float(vals.sum()), float((vals * vals).sum()), 5)
        assert est.mean == vals.mean()
        assert abs(est.std_error - vals.std(ddof=1) / np.sqrt(5)) <= 1e-15
        assert est.n == 5


class TestStratified:
    def test_the_weights_are_divided_by_their_sum(self):
        strata = [McEstimate(0.0, 0.5, 100), McEstimate(1.0, 0.25, 100)]
        got = integrate.stratified(np.array([1.0, 3.0]), strata)
        assert got == McEstimate(0.75, math.hypot(0.125, 0.1875), 100)

    @pytest.mark.parametrize("kept", [0, 1])
    def test_a_zero_weight_stratum_adds_nothing(self, kept):
        strata = [McEstimate(0.25, 0.5, 100), McEstimate(1.0, 0.25, 100)]
        weights = np.array([1.0, 0.0]) if kept == 0 else np.array([0.0, 1.0])
        assert integrate.stratified(weights, strata) == strata[kept]


class TestSphereQuadrature:
    @pytest.mark.parametrize("orders", [(0, 256), (513, 256), (128, 0), (128, 1025)])
    def test_grid_orders_outside_the_caps_rejected(self, orders):
        with pytest.raises(ValueError, match="must be in"):
            QuadratureGrid(*orders)

    def test_grid_orders_at_the_caps_accepted(self):
        # the nodes are built lazily, so constructing the largest grid is cheap
        assert QuadratureGrid(512, 1024).n_polar == 512
        assert QuadratureGrid(1, 1).points.shape == (2, 3)

    def test_weights(self):
        assert GRID.weights.min() > 0.0
        assert abs(GRID.weights.sum() - 4 * np.pi) <= 1e-10

    def test_total_area(self):
        assert abs(sphere_quadrature(lambda p: np.ones(len(p)), GRID) - 4 * np.pi) <= 1e-10

    def test_polynomial_moments(self):
        cases = [
            (lambda p: p[:, 2] ** 2, 2 * np.pi * gauss_1d(lambda u: u * u, -1, 1)),
            (lambda p: p[:, 2] ** 4, 2 * np.pi * gauss_1d(lambda u: u**4, -1, 1)),
            (lambda p: p[:, 0] ** 2 * p[:, 1] ** 2,
             np.pi / 4 * gauss_1d(lambda u: (1 - u * u) ** 2, -1, 1)),
        ]
        for f, expected in cases:
            assert abs(sphere_quadrature(f, GRID) - expected) <= 1e-10

    def test_high_order_azimuthal_harmonic(self):
        f = lambda p: np.cos(100 * np.arctan2(p[:, 1], p[:, 0]))
        assert abs(sphere_quadrature(f, GRID)) <= 1e-10

    def test_cap_density_normalization(self):
        # equator-aligned kink integrand is handled by the panel split
        val = sphere_quadrature(lambda p: np.maximum(0.0, p[:, 2]) / np.pi, GRID)
        assert abs(val - 1.0) <= 1e-6

    @pytest.mark.parametrize("values", [lambda p: 1.0, lambda p: np.ones((len(p), 1))])
    def test_integrand_of_the_wrong_shape_rejected(self, values):
        # one value per node: a scalar or a column would broadcast to a wrong sum
        with pytest.raises(ValueError, match="shape"):
            sphere_quadrature(values, GRID)

    def test_agrees_with_monte_carlo_on_smooth_integrand(self):
        f = lambda p: (1.0 + p[:, 0]) * np.exp(p[:, 2])
        quad = sphere_quadrature(f, GRID) / (4 * np.pi)
        est = mc_expectation(f, uniform_sphere_batch, CFG)
        assert abs(est.mean - quad) <= 5 * est.std_error


def uniform_density(p):
    return np.full(len(p), 1.0 / (4 * np.pi))


def cap_density(p):
    return np.maximum(0.0, p[:, 2]) / np.pi


class TestTvDistance:
    def test_identical_densities(self):
        assert tv_distance(uniform_density, uniform_density, GRID) == 0.0

    def test_uniform_vs_cap(self):
        # piecewise 1-dim reduction: tv = pi/(2*pi) * int |1/4pi - max(0,u)/pi| du pieces
        pieces = [
            gauss_1d(lambda u: np.abs(1 / (4 * np.pi) - 0 * u), -1.0, 0.0),
            gauss_1d(lambda u: np.abs(1 / (4 * np.pi) - u / np.pi), 0.0, 0.25),
            gauss_1d(lambda u: np.abs(1 / (4 * np.pi) - u / np.pi), 0.25, 1.0),
        ]
        oracle = 0.5 * 2 * np.pi * sum(pieces)
        assert abs(oracle - 9.0 / 16.0) <= 1e-12
        val = tv_distance(uniform_density, cap_density, GRID)
        assert 0.0 < val < 1.0
        assert abs(val - oracle) <= 1e-4

    def test_symmetry_and_triangle_inequality(self):
        third = lambda p: np.maximum(0.0, p[:, 0]) / np.pi
        d_uc = tv_distance(uniform_density, cap_density, GRID)
        d_cu = tv_distance(cap_density, uniform_density, GRID)
        assert abs(d_uc - d_cu) <= 1e-10
        d_ut = tv_distance(uniform_density, third, GRID)
        d_ct = tv_distance(cap_density, third, GRID)
        assert d_uc <= d_ut + d_ct + 1e-10
        assert d_ut <= d_uc + d_ct + 1e-10

    def test_normalization_precondition(self):
        with pytest.raises(PreconditionError):
            tv_distance(uniform_density, lambda p: 2.0 * cap_density(p), GRID)

    def test_negative_density_rejected(self):
        with pytest.raises(PreconditionError):
            tv_distance(lambda p: p[:, 2] / np.pi, uniform_density, GRID)

    @staticmethod
    def nan_near_pole(p):
        return np.where(p[:, 2] > 0.999, np.nan, uniform_density(p))

    def test_nan_in_f_rejected(self):
        # NaN passes both the sign and the normalisation test, so it is caught on its own
        with pytest.raises(PreconditionError, match="^density f takes non-finite values$"):
            tv_distance(self.nan_near_pole, uniform_density, GRID)

    def test_nan_in_g_rejected(self):
        with pytest.raises(PreconditionError, match="^density g takes non-finite values$"):
            tv_distance(uniform_density, self.nan_near_pole, GRID)
