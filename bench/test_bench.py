"""Self-tests of the benchmark: span arithmetic, block counting, the report gate, inputs.

    python3 -m unittest discover -s bench -p 'test_*.py'
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import gate
import run
import spans


def fake_clock(ticks):
    it = iter(ticks)
    return lambda: next(it)


class SpanTests(unittest.TestCase):
    def test_nested_calls_give_self_times(self):
        # outer [0, 10] holds inner [1, 3] and inner [4, 7].
        tracer = spans.Tracer(clock=fake_clock([0.0, 1.0, 3.0, 4.0, 7.0, 10.0]))
        inner = tracer.wrap("integrate.inner", lambda n: list(range(n)), spans._result_rows)

        def body():
            inner(2)
            inner(5)
            return "done"

        self.assertEqual(tracer.wrap("checks.outer", body)(), "done")
        by_name = tracer.summary()["spans"]
        self.assertEqual(by_name["checks.outer"]["total_s"], 10.0)
        self.assertEqual(by_name["checks.outer"]["self_s"], 5.0)
        self.assertEqual(by_name["integrate.inner"],
                         {"calls": 2, "rows": 7, "total_s": 5.0, "self_s": 5.0})
        self.assertEqual([s[3] for s in tracer.spans], [-1, 0, 0])

    def test_span_closes_when_the_call_raises(self):
        tracer = spans.Tracer(clock=fake_clock([0.0, 2.0]))

        def boom():
            raise ValueError("x")

        with self.assertRaises(ValueError):
            tracer.wrap("models.boom", boom)()
        self.assertEqual(tracer.spans, [["models.boom", 0.0, 2.0, -1, 0]])
        self.assertEqual(tracer._stack, [])

    def test_distinct_blocks_count_overlaps_once_per_key(self):
        ranges = {1: [(5, 10), (0, 10), (20, 5), (21, 2)], 2: [(0, 10)]}
        # key 1 covers [0, 15) and [20, 25); key 2 covers [0, 10).
        self.assertEqual(spans.distinct_blocks(ranges), 30)

    def test_traced_cli_run_reaches_every_namespace(self):
        # uniform_blocks is called from models and checks through their own
        # bindings; a missed binding would leave those draws uncounted.
        with tempfile.TemporaryDirectory() as tmp:
            timing = Path(tmp) / "timing.json"
            cmd = [sys.executable, str(run.BENCH / "child.py"), str(timing),
                   str(Path(tmp) / "spans.jsonl"), "--", "--model", "bell-mermin",
                   "--check", "born", "--check", "prep-nc", "--samples", "1000", "--tol", "0.2",
                   "--format", "json"]
            done = subprocess.run(cmd, cwd=run.ROOT, env=run.child_env(), capture_output=True)
            self.assertEqual(done.returncode, 0, done.stderr.decode())
            summary = json.loads(timing.read_text())["trace"]
        m = spans.layer_metrics(summary)
        # born: 6 states x 1000 rows; prep-nc: two mixtures, two components
        # each, plus one component-choice draw per mixture.
        self.assertEqual(m["models.prepare_batch.rows"], 6000 + 4000)
        self.assertEqual(m["integrate.uniform_blocks.blocks"], 6000 + 4000 + 2000)
        self.assertEqual(m["integrate.sphere_points_from_uniforms.rows"], 10000)
        self.assertEqual(m["checks.EnsembleDistribution.sample_batch.used_fraction"], 0.5)
        self.assertGreater(m["checks.born.s"], 0.0)
        self.assertEqual(m["checks.audit.s"], 0)


class GateTests(unittest.TestCase):
    reference = (run.REFERENCE / "matrix" / "ks.json").read_bytes()

    def test_reference_passes_itself(self):
        self.assertEqual(gate.failed_checks(self.reference, self.reference, spans.CHECK_NAMES), [])

    def test_changed_mean_fails_only_its_check(self):
        reports = json.loads(self.reference)
        self.assertEqual(reports[3]["check_name"], "max-epistemic")
        old = json.dumps(reports[3]["estimates"][0]["mean"]).encode()
        head, _, tail = self.reference.partition(b'"check_name": "max-epistemic"')
        changed = head + b'"check_name": "max-epistemic"' + tail.replace(
            b'"mean": ' + old, b'"mean": ' + json.dumps(float(old) + 1e-15).encode(), 1)
        self.assertNotEqual(changed, self.reference)
        self.assertEqual(gate.failed_checks(changed, self.reference, spans.CHECK_NAMES),
                         ["max-epistemic"])

    def test_changed_duration_is_ignored(self):
        changed = self.reference.replace(b'"duration_ms": 0.0', b'"duration_ms": 1234.5678', 1)
        self.assertNotEqual(changed, self.reference)
        self.assertEqual(gate.failed_checks(changed, self.reference, spans.CHECK_NAMES), [])

    def test_reformatted_output_fails_every_check(self):
        compact = json.dumps(json.loads(self.reference)).encode()
        self.assertEqual(gate.failed_checks(compact, self.reference, spans.CHECK_NAMES),
                         list(spans.CHECK_NAMES))


class InputTests(unittest.TestCase):
    def test_born_wide_catalog_depends_only_on_the_seed(self):
        self.assertEqual(run.catalog_bytes(7), run.catalog_bytes(7))
        self.assertNotEqual(run.catalog_bytes(7), run.catalog_bytes(8))
        stored = (run.REFERENCE / "born-wide" / "catalog-seed42.json").read_bytes()
        self.assertEqual(run.catalog_bytes(run.DEFAULT_SEED), stored)

    def test_born_wide_catalog_holds_unit_vectors(self):
        entries = run.born_wide_catalog(3)
        self.assertEqual(len(entries), run.BORN_WIDE_STATES)
        for e in entries:
            self.assertAlmostEqual(sum(x * x for x in e["bloch"]), 1.0, delta=1e-12)


if __name__ == "__main__":
    unittest.main()
