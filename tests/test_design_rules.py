"""Design rules: each concept has one mechanism, and each row of RULES guards one.

A place is a file (``integrate.py``, all of it) or a top-level def or class in it
(``checks.py:source_pass``).
"""
import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PKG, TREE, TESTS = ("src/onticlab/*.py",), ("src/onticlab/**/*",), ("tests/**/*",)

RULES = {  # reason: (pattern, files, the only places a match may sit, places that must hold one)
    "states are compared with qubit.same_state, never with exact float equality":
        (r"\.[xyz]\b\s*(==|!=|in\b|not in\b)|(==|!=)\s*[\w.]+\.[xyz]\b", TREE, (), ()),
    "every report is built by CheckRun.report, so checks cannot bypass the run":
        (r"CheckReport\(", PKG, ("checks.py:CheckRun",), ("checks.py:CheckRun",)),
    "every estimate reduces through integrate.mc_expectations":
        (r"batch_sums\(|McEstimate\.from_sums\(", PKG, ("integrate.py",), ()),
    "ontic states are batches: a one-row batch is the pointwise form":
        (r"SinglePoint|PairPoint|OnticState|\.item\(", TREE + TESTS, (), ()),
    "checks share work through the run they are given; only cli.py builds a CheckRun":
        (r"CheckRun\(", PKG, ("cli.py",), ()),
    "replace(run, ...) makes a sub-run that bypasses the run's memo":
        (r"replace\(\s*run\b", TREE, (), ()),
    "the memo holds passes, and every key of it is written in checks.py":
        (r"\.once\(", PKG, ("checks.py",), ()),
    "checks.source_pass, the only caller of walk in checks.py, reads each catalog stream once":
        (r"walk\(", ("src/onticlab/checks.py",), ("checks.py:source_pass",), ("checks.py:source_pass",)),
    "every statistical verdict is Comparison.verdict of a row and its target; CheckRun validates tol":
        (r"[<>]=?\s*(run\.|self\.)?\btol\b|\btol\s*[<>]", ("src/onticlab/checks.py", "src/onticlab/bell.py"),
         ("checks.py:Comparison", "checks.py:CheckRun"), ()),
    "integrate.substream_key alone makes stream-key bytes; prep-nc's comparison and _cap_points' tobytes( are memo keys":
        (r"tobytes\(", PKG,
         ("integrate.py:substream_key", "checks.py:check_preparation_noncontextuality", "models.py:_cap_points"), ()),
    "batch boundaries live in integrate.py, which draws every stream":
        (r"BATCH_SIZE", PKG, ("integrate.py",), ()),
    "integrate.walk is the only loop over a sample stream, and the one reader of BATCH_SIZE":
        (r"^(?!BATCH_SIZE =).*BATCH_SIZE", ("src/onticlab/integrate.py",), ("integrate.py:walk",),
         ("integrate.py:walk",)),
    "a single-sphere batch is its (n, 3) array, and a sphere pair is a models.PairBatch":
        (r"SingleBatch", TREE + TESTS, (), ()),
    "McConfig is the sampling budget; batches hold integrate.BATCH_SIZE rows, which tests patch":
        (r"\.batch_size\b|batch_size=", TREE + TESTS, (), ()),
    "state identity within STATE_TOL is decided by qubit.same_state and its row form":
        (r"[<>]=?\s*STATE_TOL", PKG, ("qubit.py:same_state", "qubit.py:same_state_rows"),
         ("qubit.py:same_state", "qubit.py:same_state_rows")),
    "a point measure is one row with stride 0, made only by models.per_row":
        (r"\.strides", PKG, ("models.py:per_row",), ("models.py:per_row",)),
    "integrate.weighted_sum is the one quadrature reduction":
        (r"fsum\(", PKG, ("integrate.py:weighted_sum",), ("integrate.py:weighted_sum",)),
    "every draw is counter-based, from integrate.uniform_blocks":
        (r"np\.random\.", PKG, ("integrate.py:uniform_blocks",), ("integrate.py:uniform_blocks",)),
    "a batch-sized array comes from integrate.lend, which a running walk lends from its buffers":
        (r"np\.empty\(", PKG, ("integrate.py:lend",), ("integrate.py:lend",)),
    "how long batch buffers live is integrate.walk's policy alone: one set per walk, no memory to pass":
        (r"BatchMemory", TREE + TESTS, (), ()),
    "only integrate.walk installs the buffers that lend hands out":
        (r"_LENDER\.set\(", PKG, ("integrate.py:walk",), ("integrate.py:walk",)),
    "the 5-sigma resolution is Comparison's; OmegaWitness's is a consistency guard, not a verdict":
        (r"5\.0\s*\*", PKG, ("checks.py:Comparison", "checks.py:OmegaWitness"), ()),
    "a mixture is its components' weighted estimates: no stream picks a component and no rows are merged":
        (r"ensemble-choice|_choices\b|\.choices\b|\.merge\(", TREE + TESTS, (), ()),
    "a batch is only what a sampler drew: walk ends a batch at every budget, so no batch is sliced":
        (r"__getitem__", TREE, (), ()),
    "integrate.walk alone starts a worker, and joins it before it returns":
        (r"threading\.Thread\(|ThreadPoolExecutor|multiprocessing", TREE, ("integrate.py:walk",),
         ("integrate.py:walk",)),
    "batches memoize in plain attributes, not the cached property, whose lock on 3.10 and 3.11 serializes workers":
        (r"cached_property", TREE, (), ()),
    "the worker count is integrate.WORKERS, read by walk alone and patched only by tests":
        (r"^(?!WORKERS =).*\bWORKERS\b", PKG, ("integrate.py:walk",), ("integrate.py:walk",)),
    "every count reduces through integrate.batch_sums":
        (r"np\.count_nonzero\(", TREE, ("integrate.py:batch_sums",), ("integrate.py:batch_sums",)),
    "exact checks count through RunningSums: no tally of their own and nothing to merge across workers":
        (r"_Tally|\.merged\(", TREE + TESTS, (), ()),
    "environment variables are never consulted":
        (r"os\.environ|getenv\(", TREE, (), ()),
    "no test calls the bench-pinned shims, so deleting them touches no test":
        (r"overlap_integral\(|ensemble_distribution\(", TESTS, (), ()),
    "the command line is configured once: cli.parse_args's namespace goes to run, with no mirror of its flags":
        (r"RunConfig", TREE + TESTS + ("README.md",), (), ()),
    "random preparations are a test fixture (batch_of_one.random_states); the package draws no random state":
        (r"random_states", TREE, (), ()),
    "a mixed qubit state is its Bloch vector (Ensemble.vec); no density-matrix type compares two preparations":
        (r"DensityOperator|ensemble_density_operator|density_operators_equal", TREE + TESTS + ("README.md",), (), ()),
    "a pure qubit state is its Bloch vector (PureState's x, y, z); no vector type sits under it":
        (r"BlochVector", TREE + TESTS + ("README.md",), (), ()),
    "both samplers take their trig from integrate.circle_points_from_uniforms; the grid computes its nodes":
        (r"np\.(cos|sin)\(", PKG, ("integrate.py:circle_points_from_uniforms", "integrate.py:_grid_arrays"),
         ("integrate.py:circle_points_from_uniforms",)),
    "the cap frame is one memoized function, models._cap_frame":
        (r"_tangent_frame", TREE + TESTS, (), ()),
    "a count is an int from integrate.batch_sums to the verdict (McEstimate.count), so nothing rounds one back":
        (r"\bround\(|int\(hits\)", TREE, (), ()),
    "a report row is made from its estimate in one place, checks._row; cli.emit_report's placeholder has none":
        (r"LabeledEstimate\(", PKG, ("checks.py:_row", "cli.py:emit_report"), ("checks.py:_row",)),
}


def places(path: Path, pattern: str) -> list[str]:
    """Name each match in path's whole text ``file:scope``, or ``file`` outside a top-level def or class."""
    text = path.read_text(encoding="utf-8")
    spans = [
        (min([n.lineno] + [d.lineno for d in n.decorator_list]), n.end_lineno, n.name)
        for n in (ast.parse(text).body if path.suffix == ".py" else [])
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    ]
    names = []
    for match in re.finditer(pattern, text, re.M):
        line = text.count("\n", 0, match.start()) + 1
        scope = next((name for start, end, name in spans if start <= line <= end), None)
        names.append(f"{path.name}:{scope}" if scope else path.name)
    return names


def matches(pattern: str, globs: tuple[str, ...]) -> list[str]:
    """places() over every file the globs reach, except bytecode caches and this file."""
    paths = {p for glob in globs for p in ROOT.glob(glob) if p.is_file() and "__pycache__" not in p.parts}
    return [name for p in sorted(paths - {Path(__file__).resolve()}) for name in places(p, pattern)]


def outside(allowed: tuple[str, ...], names: list[str]) -> list[str]:
    return sorted({n for n in names if n not in allowed and n.split(":")[0] not in allowed})


@pytest.mark.parametrize("reason", RULES)
def test_design_rule(reason):
    pattern, globs, allowed, required = RULES[reason]
    names = matches(pattern, globs)
    assert outside(allowed, names) == [], reason
    assert set(required) <= set(names), reason


def test_exactly_one_report_constructor():
    assert len(matches(r"CheckReport\(", PKG)) == 1


def test_exactly_one_walk_in_checks():
    """A run's source pass is one walk over all its sources."""
    assert len(matches(r"walk\(", ("src/onticlab/checks.py",))) == 1


@pytest.mark.parametrize(
    "prefix, name, snippet",
    [
        ("every statistical verdict", "checks.py", "def f(run, d):\n    return run.tol < d\n"),
        ("replace(run,", "bell.py", "def g(run):\n    return replace(\n        run, tol=0.5)\n"),
        ("states are compared", "qubit.py", "def h(a, b):\n    return a.x == b.x and b.z != 0.0\n"),
        ("states are compared", "models.py", "def k(points, psi):\n    return points[:, 1] == psi.y\n"),
    ],
)
def test_widened_rows_catch_what_a_line_grep_missed(tmp_path, prefix, name, snippet):
    """A pattern that reads the whole text finds a comparison a line grep missed and a wrapped call."""
    ((pattern, _, allowed, _),) = [row for reason, row in RULES.items() if reason.startswith(prefix)]
    (tmp_path / name).write_text(snippet, encoding="utf-8")
    assert outside(allowed, places(tmp_path / name, pattern))
