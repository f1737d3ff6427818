"""Outside-in span tracer for onticlab: wraps public functions, keeps spans in memory.

Nothing in the package is edited.  `install` replaces each traced function or
method in every module namespace that holds it, because a name imported with
`from .integrate import uniform_blocks` is a separate binding: patching only
`onticlab.integrate` would let calls from `models` and `checks` bypass the
wrapper.  A span is [name, start, end, parent index, rows]; a span's self time
is its duration minus the time its direct children cover.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

# CLI check names, in the order the benchmark runs them.
CHECK_NAMES = (
    "born", "determinism", "measurement-nc", "max-epistemic", "classify",
    "prep-nc", "omega", "nonlocality", "audit",
)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """Records nested spans and the Philox block ranges drawn under each key."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.block_ranges: dict[int, list[tuple[int, int]]] = defaultdict(list)

    def wrap(self, name, fn, rows=None):
        """Return fn wrapped in a span; rows(args, kwargs, result) gives its work count."""
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if rows is not None:
                span[4] = rows(args, kwargs, result)
            return result

        return traced

    def record_blocks(self, args, kwargs, result) -> int:
        """Row counter for uniform_blocks that also keeps its (key, start, count) range."""
        key = int(_arg(args, kwargs, 0, "key"))
        start = int(_arg(args, kwargs, 1, "start"))
        self.block_ranges[key].append((start, len(result)))
        return len(result)

    def summary(self) -> dict:
        return summarize(self.spans, self.block_ranges)

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, rows in self.spans:
                fh.write(json.dumps([name, start, end, parent, rows]) + "\n")


def distinct_blocks(block_ranges) -> int:
    """Number of distinct (key, counter) Philox blocks covered by the recorded ranges."""
    total = 0
    for ranges in block_ranges.values():
        covered_to = None
        for start, count in sorted(ranges):
            end = start + count
            if covered_to is None or start >= covered_to:
                total += count
                covered_to = end
            elif end > covered_to:
                total += end - covered_to
                covered_to = end
    return total


def summarize(spans, block_ranges) -> dict:
    """Per-name calls, rows, total and self seconds, plus block and mixture counters."""
    child_time = [0.0] * len(spans)
    child_prepare_rows = [0] * len(spans)
    for name, start, end, parent, rows in spans:
        if parent >= 0:
            child_time[parent] += end - start
            if name == "models.prepare_batch":
                child_prepare_rows[parent] += rows
    by_name: dict[str, dict] = {}
    mixture_drawn = 0
    for i, (name, start, end, parent, rows) in enumerate(spans):
        agg = by_name.setdefault(name, {"calls": 0, "rows": 0, "total_s": 0.0, "self_s": 0.0})
        agg["calls"] += 1
        agg["rows"] += rows
        agg["total_s"] += end - start
        agg["self_s"] += (end - start) - child_time[i]
        if name == "checks.EnsembleDistribution.sample_batch":
            mixture_drawn += child_prepare_rows[i]
    return {
        "spans": by_name,
        "blocks_distinct": distinct_blocks(block_ranges),
        "block_keys": len(block_ranges),
        "mixture_component_rows": mixture_drawn,
    }


def _grid_points(args, kwargs, result) -> int:
    from onticlab.integrate import QuadratureGrid

    grid = args[2] if len(args) > 2 else kwargs.get("grid")
    return len((grid or QuadratureGrid()).points)


def _integrand_rows(args, kwargs, result) -> int:
    return len(_arg(args, kwargs, 0, "fs")) * _arg(args, kwargs, 2, "cfg").n_samples


def _result_rows(args, kwargs, result) -> int:
    return len(result)


def _batch_arg_rows(args, kwargs, result) -> int:
    return len(_arg(args, kwargs, 2, "batch"))


MODEL_METHODS = {
    "prepare_batch": _result_rows,
    "reference_batch": _result_rows,
    "in_support_batch": _result_rows,
    "response_batch": _result_rows,
    "density_batch": _batch_arg_rows,
}

CHECK_FUNCTIONS = (
    "check_born_reproduction", "check_outcome_determinism",
    "check_measurement_noncontextuality", "overlap_integral", "check_max_psi_epistemic",
    "classify_ontology", "check_preparation_noncontextuality", "find_omega_witness",
    "audit_implication_chain", "ensemble_distribution",
)

BELL_FUNCTIONS = ("nonlocality_witness", "steering_basis", "steer", "make_max_entangled",
                  "bob_reduced_density")


def install(tracer: Tracer) -> None:
    """Wrap the public functions of integrate, models, checks, bell and cli in place."""
    import onticlab
    from onticlab import bell, checks, cli, integrate, models

    namespaces = (onticlab, integrate, models, checks, bell, cli)

    def patch(name, fn, rows=None, modules=namespaces):
        wrapped = tracer.wrap(name, fn, rows)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapped)

    patch("integrate.uniform_blocks", integrate.uniform_blocks, tracer.record_blocks)
    patch("integrate.sphere_points_from_uniforms", integrate.sphere_points_from_uniforms,
          _result_rows)
    patch("integrate.mc_expectations", integrate.mc_expectations, _integrand_rows)
    patch("integrate.tv_distance", integrate.tv_distance, _grid_points)
    for name in CHECK_FUNCTIONS:
        patch(f"checks.{name}", getattr(checks, name))
    for name in BELL_FUNCTIONS:
        patch(f"bell.{name}", getattr(bell, name))
    for name in ("sample_batch", "density_batch", "support_batch"):
        method = vars(checks.EnsembleDistribution)[name]
        setattr(checks.EnsembleDistribution, name,
                tracer.wrap(f"checks.EnsembleDistribution.{name}", method,
                            _result_rows if name == "sample_batch" else None))
    for cls in _subclasses(models.OntologicalModel):
        for name, rows in MODEL_METHODS.items():
            if name in vars(cls):
                setattr(cls, name, tracer.wrap(f"models.{name}", vars(cls)[name], rows))
    # Catalog acquisition in the CLI: a --catalog file or the default catalog.
    patch("cli.load_catalog", cli.load_catalog)
    patch("cli.load_catalog", cli.default_catalog, modules=(cli,))
    patch("cli.emit_report", cli.emit_report)
    for name, runner in list(cli.CHECK_RUNNERS.items()):
        cli.CHECK_RUNNERS[name] = tracer.wrap(f"cli.check.{name}", runner)


def _subclasses(cls):
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(_subclasses(sub))
    return out


def layer_metrics(summary: dict) -> dict:
    """The per-layer metrics of one traced invocation (or of summed summaries)."""
    spans = summary["spans"]
    never_called = {"calls": 0, "rows": 0, "total_s": 0.0, "self_s": 0.0}

    def get(name, field):
        return spans.get(name, never_called)[field]

    drawn = get("integrate.uniform_blocks", "rows")
    sample_rows = get("checks.EnsembleDistribution.sample_batch", "rows")
    m = {
        "integrate.uniform_blocks.blocks": drawn,
        "integrate.uniform_blocks.calls": get("integrate.uniform_blocks", "calls"),
        "integrate.uniform_blocks.self_s": get("integrate.uniform_blocks", "self_s"),
        "integrate.uniform_blocks.distinct_fraction":
            summary["blocks_distinct"] / drawn if drawn else 0.0,
        "models.prepare_batch.rows": get("models.prepare_batch", "rows"),
        "models.prepare_batch.calls": get("models.prepare_batch", "calls"),
        "models.prepare_batch.self_s": get("models.prepare_batch", "self_s"),
        "models.in_support_batch.rows": get("models.in_support_batch", "rows"),
        "models.in_support_batch.self_s": get("models.in_support_batch", "self_s"),
        "models.response_batch.rows": get("models.response_batch", "rows"),
        "models.response_batch.self_s": get("models.response_batch", "self_s"),
        "integrate.mc_expectations.integrand_rows": get("integrate.mc_expectations", "rows"),
        "integrate.mc_expectations.calls": get("integrate.mc_expectations", "calls"),
        "integrate.mc_expectations.self_s": get("integrate.mc_expectations", "self_s"),
        "integrate.sphere_points_from_uniforms.rows":
            get("integrate.sphere_points_from_uniforms", "rows"),
        "integrate.sphere_points_from_uniforms.self_s":
            get("integrate.sphere_points_from_uniforms", "self_s"),
        "models.reference_batch.rows": get("models.reference_batch", "rows"),
        "models.reference_batch.self_s": get("models.reference_batch", "self_s"),
        "models.density_batch.rows": get("models.density_batch", "rows"),
        "models.density_batch.self_s": get("models.density_batch", "self_s"),
        "integrate.tv_distance.grid_points": get("integrate.tv_distance", "rows"),
        "integrate.tv_distance.self_s": get("integrate.tv_distance", "self_s"),
        "checks.EnsembleDistribution.sample_batch.rows": sample_rows,
        "checks.EnsembleDistribution.sample_batch.used_fraction":
            sample_rows / summary["mixture_component_rows"]
            if summary["mixture_component_rows"] else 0.0,
        "checks.EnsembleDistribution.sample_batch.self_s":
            get("checks.EnsembleDistribution.sample_batch", "self_s"),
    }
    for check in CHECK_NAMES:
        m[f"checks.{check}.s"] = get(f"cli.check.{check}", "total_s")
    m["checks.self_s"] = sum(a["self_s"] for n, a in spans.items() if n.startswith("checks."))
    m["bell.nonlocality_witness.self_s"] = get("bell.nonlocality_witness", "self_s")
    m["bell.steering_basis.calls"] = get("bell.steering_basis", "calls")
    m["cli.load_catalog.s"] = get("cli.load_catalog", "total_s")
    m["cli.emit_report.s"] = get("cli.emit_report", "total_s")
    return m


def merge_summaries(summaries) -> dict:
    """Sum the summaries of several invocations (one per model) into one."""
    out = {"spans": {}, "blocks_distinct": 0, "block_keys": 0, "mixture_component_rows": 0}
    for s in summaries:
        for key in ("blocks_distinct", "block_keys", "mixture_component_rows"):
            out[key] += s[key]
        for name, agg in s["spans"].items():
            dst = out["spans"].setdefault(name, {"calls": 0, "rows": 0, "total_s": 0.0, "self_s": 0.0})
            for field, value in agg.items():
                dst[field] += value
    return out
