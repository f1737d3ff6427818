"""onticlab benchmark: three CLI workloads, an outside-in traced run, a report gate.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --all [--seed N] [--seconds S]     # every workload, one table
    python3 bench/run.py --gate [--record]                  # 4 models x 9 checks at seed 42

Every workload is closed-loop: one `onticlab` process runs at a time and the
next starts only after the last one exits.  A pass runs each of the workload's
invocations once; another pass starts only while it is expected to end within
--seconds, so a run lasts about that long (at least one pass).
End-to-end metrics are medians over passes with tracing off.  With --trace 1,
untraced and traced passes alternate; the per-layer metrics come from the
traced passes and `trace.overhead_fraction` compares the two kinds.

Every report is checked.  An operation is one (model, check) report; it fails
when the invocation exits with another code than expected, or when its JSON,
with `duration_ms` zeroed, differs byte for byte from the stored reference
(seed 42) or from the same invocation's first pass in this run (other seeds).

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  Lines before it describe the machine and every pass.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import gate
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
REFERENCE = BENCH / "reference"

DEFAULT_SEED = 42
MODELS = ("ks", "bell-mermin", "const-half", "label-reader")
PHYSICAL_MODELS = ("ks", "bell-mermin")
WORKLOADS = ("audit-default", "all-checks", "born-wide")
BORN_WIDE_STATES = 32
BORN_WIDE_SAMPLES = 100_000
# A run must end within 180 s: no pass starts that should end past this, and
# an invocation still running at it is killed and counted as failed.
RUN_LIMIT_S = 165.0

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


@dataclass(frozen=True)
class Invocation:
    """One `onticlab` command line and how its reports are judged."""

    model: str
    cli_checks: tuple[str, ...]       # passed as --check; empty runs the default audit
    reference: str | None             # file under bench/reference/, used at seed 42
    extra: tuple[str, ...] = ()
    expected_exit: int = 0

    @property
    def checks(self) -> tuple[str, ...]:
        return self.cli_checks or ("audit",)

    @property
    def tag(self) -> str:
        """File-name stem for this invocation's outputs under bench/out/."""
        return f"{self.model}-{'-'.join(self.checks) if len(self.checks) < 3 else 'all'}"

    def argv(self, seed: int) -> list[str]:
        args = ["--model", self.model]
        for check in self.cli_checks:
            args += ["--check", check]
        return args + ["--seed", str(seed), "--format", "json", *self.extra]


def born_wide_catalog(seed: int) -> list[dict]:
    """BORN_WIDE_STATES uniformly random states drawn from the workload seed."""
    import numpy as np

    rng = np.random.Generator(np.random.PCG64(seed))
    v = rng.standard_normal((BORN_WIDE_STATES, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return [
        {"bloch": [float(x) for x in row], "label": f"w{i:02d}"} for i, row in enumerate(v)
    ]


def catalog_bytes(seed: int) -> bytes:
    return (json.dumps(born_wide_catalog(seed), indent=1) + "\n").encode("utf-8")


def workload_invocations(name: str, seed: int) -> list[Invocation]:
    if name == "audit-default":
        return [Invocation(m, (), f"audit-default/{m}.json") for m in MODELS]
    if name == "all-checks":
        return [Invocation(m, spans.CHECK_NAMES, f"matrix/{m}.json") for m in PHYSICAL_MODELS]
    if name == "born-wide":
        path = OUT / f"born-wide-catalog-seed{seed}.json"
        OUT.mkdir(exist_ok=True)
        path.write_bytes(catalog_bytes(seed))
        extra = ("--samples", str(BORN_WIDE_SAMPLES), "--catalog", str(path))
        return [Invocation(m, ("born",), f"born-wide/{m}.json", extra) for m in PHYSICAL_MODELS]
    raise ValueError(f"unknown workload {name!r}; valid: {', '.join(WORKLOADS)}")


def gate_invocations() -> list[Invocation]:
    """The 4 models x 9 checks matrix, plus the audit-default and born-wide workloads."""
    invs = [Invocation(m, spans.CHECK_NAMES, f"matrix/{m}.json") for m in PHYSICAL_MODELS]
    controls = [m for m in MODELS if m not in PHYSICAL_MODELS]
    # The negative controls have no nonlocality pattern: that check must keep exiting 2.
    no_nonlocality = tuple(c for c in spans.CHECK_NAMES if c != "nonlocality")
    invs += [Invocation(m, no_nonlocality, f"matrix/{m}.json") for m in controls]
    invs += [Invocation(m, ("nonlocality",), None, expected_exit=2) for m in controls]
    return (invs + workload_invocations("audit-default", DEFAULT_SEED)
            + workload_invocations("born-wide", DEFAULT_SEED))


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def preflight() -> None:
    """Fail fast, without a result, when the package source is missing or broken."""
    if not (ROOT / "src" / "onticlab" / "cli.py").is_file():
        raise SystemExit(f"error: {ROOT / 'src' / 'onticlab'} not found; run from a checkout")
    # Also warms the bytecode and file caches before anything is timed.
    done = subprocess.run([sys.executable, "-c", "import onticlab.cli"], cwd=ROOT,
                          env=child_env(), capture_output=True, timeout=120)
    if done.returncode != 0:
        raise SystemExit("error: cannot import onticlab.cli:\n" + done.stderr.decode(errors="replace"))


def run_invocation(inv: Invocation, seed: int, traced: bool, tag: str, deadline: float) -> dict:
    """Run one CLI process to completion; returns exit code, stdout and timings."""
    OUT.mkdir(exist_ok=True)
    timing_path = OUT / f"{tag}.timing.json"
    spans_path = OUT / f"{tag}.spans.jsonl"
    timing_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH / "child.py"), str(timing_path)]
    cmd += [str(spans_path)] if traced else []
    cmd += ["--", *inv.argv(seed)]
    with open(OUT / f"{tag}.stdout", "wb") as out, open(OUT / f"{tag}.stderr", "wb") as err:
        spawned = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT, env=child_env())
        try:
            code = proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            code = None
    stdout = (OUT / f"{tag}.stdout").read_bytes()
    timing = json.loads(timing_path.read_text()) if timing_path.is_file() else None
    if timing is not None and timing["first_check"] is not None:
        timing["setup_s"] = timing["first_check"] - spawned
    return {"code": code, "stdout": stdout, "timing": timing}


def judge(inv: Invocation, result: dict, expected: bytes | None) -> list[str]:
    """Names of the invocation's checks whose operation failed."""
    if result["code"] != inv.expected_exit:
        return list(inv.checks)
    if inv.expected_exit != 0 or expected is None:
        return []
    return gate.failed_checks(result["stdout"], expected, inv.checks)


def expected_output(inv: Invocation, seed: int, first_outputs: dict) -> bytes | None:
    if seed == DEFAULT_SEED and inv.reference is not None:
        return (REFERENCE / inv.reference).read_bytes()
    return first_outputs.get(inv)


def run_pass(invs, seed, traced, index, deadline, first_outputs) -> dict:
    """Run every invocation once; sum the timings and judge every report."""
    rec = {"traced": traced, "setup_s": 0.0, "wall_s": 0.0, "cpu_s": 0.0, "peak_rss_mb": 0.0,
           "attempted": 0, "failed": 0, "timed": True, "timed_out": False, "models": {}}
    for inv in invs:
        tag = f"{inv.tag}-pass{index}"
        result = run_invocation(inv, seed, traced, tag, deadline)
        failed = judge(inv, result, expected_output(inv, seed, first_outputs))
        if not failed:
            first_outputs.setdefault(inv, result["stdout"])
        rec["attempted"] += len(inv.checks)
        rec["failed"] += len(failed)
        if failed:
            print(f"  FAILED {inv.model} {','.join(failed)} (exit {result['code']}, "
                  f"expected {inv.expected_exit}); see {OUT / tag}.*")
        rec["timed_out"] |= result["code"] is None
        timing = result["timing"]
        if timing is None or timing.get("setup_s") is None:
            rec["timed"] = False
            continue
        for key in ("setup_s", "wall_s", "cpu_s"):
            rec[key] += timing[key]
        rec["peak_rss_mb"] = max(rec["peak_rss_mb"], timing["peak_rss_kb"] / 1024.0)
        rec["threads"] = timing["threads"]
        if traced:
            rec["models"][inv.model] = timing["trace"]
    return rec


def describe(values: list[float]) -> str:
    """Median and the highest percentile with at least ten samples beyond it."""
    n = len(values)
    text = f"median {statistics.median(values):.6g} over n={n}"
    if n >= 11:
        rank = n - 10                      # at least ten samples above this one
        text += f", p{100 * rank // n} {sorted(values)[rank - 1]:.6g}"
    else:
        text += ", no upper percentile (needs n >= 11)"
    return text + f", min {min(values):.6g}, max {max(values):.6g}"


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run passes of one workload for `seconds`; returns metrics and counts."""
    invs = workload_invocations(workload, seed)
    start = time.perf_counter()
    deadline = start + RUN_LIMIT_S
    passes: list[dict] = []
    first_outputs: dict = {}
    durations: list[float] = []
    while True:
        traced = trace and len(passes) % 2 == 1
        pass_start = time.perf_counter()
        rec = run_pass(invs, seed, traced, len(passes), deadline, first_outputs)
        passes.append(rec)
        durations.append(time.perf_counter() - pass_start)
        print(f"pass {len(passes)} {'traced' if traced else 'untraced'}: "
              + " ".join(f"{k}={rec[k]:.6g}" for k in END_TO_END_UNITS)
              + f" failed={rec['failed']}/{rec['attempted']}")
        # Start another pass only if it should end within the run length, so
        # that a run lasts about `seconds` whatever the speed of the program.
        projected = time.perf_counter() - start + statistics.median(durations)
        if rec["timed_out"] or projected >= RUN_LIMIT_S:
            break
        if projected > seconds and (not trace or len(passes) >= 2):
            break

    plain = [p for p in passes if not p["traced"] and p["timed"]]
    traced_passes = [p for p in passes if p["traced"] and p["timed"]]
    if not plain or (trace and not traced_passes):
        raise SystemExit("error: no pass completed with timings; see " + str(OUT))
    result = {
        "workload": workload, "seed": seed, "passes": passes,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "end_to_end": {k: [p[k] for p in plain] for k in END_TO_END_UNITS},
    }
    for key, values in result["end_to_end"].items():
        print(f"{key} [{END_TO_END_UNITS[key]}]: {describe(values)}")
    if trace:
        per_pass = [spans.layer_metrics(spans.merge_summaries(p["models"].values()))
                    for p in traced_passes]
        layers = {}
        for key in per_pass[0]:
            values = [m[key] for m in per_pass]
            # Counts repeat exactly from pass to pass; median_low keeps them whole.
            low = layer_unit(key) == "count"
            layers[key] = statistics.median_low(values) if low else statistics.median(values)
        untraced_wall = statistics.median(p["wall_s"] for p in plain)
        traced_wall = statistics.median(p["wall_s"] for p in traced_passes)
        layers["trace.overhead_fraction"] = (traced_wall - untraced_wall) / untraced_wall
        result["per_layer"] = layers
        for model, summary in traced_passes[-1]["models"].items():
            drawn = summary["spans"].get("integrate.uniform_blocks", {}).get("rows", 0)
            print(f"{model}: {drawn} Philox blocks drawn, {summary['blocks_distinct']} distinct,"
                  f" {summary['block_keys']} keys")
        for key, value in layers.items():
            print(f"{key}: {value:.6g}")
    return result


def _read_text(path: Path) -> str | None:
    try:
        return path.read_text(encoding="utf-8").strip()
    except OSError:
        return None


def git_commit() -> str:
    head = _read_text(ROOT / ".git" / "HEAD")
    if head is None:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    loose = _read_text(ROOT / ".git" / ref)
    if loose:
        return loose
    for line in (_read_text(ROOT / ".git" / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def machine_facts(threads: int | None) -> dict:
    import numpy

    cpu = "unknown"
    for line in (_read_text(Path("/proc/cpuinfo")) or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(), "cpu_model": cpu, "python": platform.python_version(),
        "numpy": numpy.__version__, "blas": blas,
        # Threads of an onticlab process after its run: OpenBLAS computes on
        # the calling thread plus its pool, so this is the BLAS thread count.
        # The benchmark itself adds no workers.
        "blas_threads": threads, "git_commit": git_commit(),
    }


def run_workload(args) -> int:
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    facts = machine_facts(result["passes"][-1].get("threads"))
    result["machine"] = facts
    print("machine: " + json.dumps(facts, sort_keys=True))
    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(result, indent=1, default=str) + "\n")
    if args.trace:
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in result["per_layer"].items()}
    else:
        metrics = {k: {"value": statistics.median(v), "unit": END_TO_END_UNITS[k]}
                   for k, v in result["end_to_end"].items()}
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


def layer_unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("fraction"):
        return "fraction"
    return "count"


def run_all(args) -> int:
    rows = []
    for workload in WORKLOADS:
        print(f"== {workload}")
        result = measure(workload, args.seed, args.seconds, False)
        rows.append((workload, result))
    print(f"\nseed {args.seed}; medians over passes; machine: "
          + json.dumps(machine_facts(rows[-1][1]["passes"][-1].get("threads")), sort_keys=True))
    print(f"{'workload':<14} {'metric':<16} {'value':>12} unit")
    for workload, result in rows:
        for key, values in result["end_to_end"].items():
            print(f"{workload:<14} {key:<16} {statistics.median(values):>12.4f} {END_TO_END_UNITS[key]}")
        fraction = result["failed"] / result["attempted"]
        print(f"{workload:<14} {'failed_fraction':<16} {fraction:>12.4f} "
              f"({result['failed']}/{result['attempted']} operations)")
    return 0 if all(r["failed"] == 0 for _, r in rows) else 1


def run_gate(args) -> int:
    """Run the report matrix once at seed 42 and diff (or, with --record, store) it."""
    deadline = time.perf_counter() + 3600.0
    attempted = failed = 0
    for inv in gate_invocations():
        result = run_invocation(inv, DEFAULT_SEED, False, f"gate-{inv.tag}", deadline)
        if args.record and inv.reference is not None and result["code"] == inv.expected_exit:
            path = REFERENCE / inv.reference
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(gate.zero_durations(result["stdout"]))
        bad = judge(inv, result, expected_output(inv, DEFAULT_SEED, {}))
        attempted += len(inv.checks)
        failed += len(bad)
        status = "ok" if not bad else "FAILED " + ",".join(bad)
        print(f"{inv.model:<13} {','.join(inv.checks):<60} exit {result['code']} {status}")
    print(f"gate: {failed}/{attempted} operations failed")
    return 0 if failed == 0 else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=WORKLOADS)
    mode.add_argument("--all", action="store_true", help="every workload, one summary table")
    mode.add_argument("--gate", action="store_true", help="report matrix at seed 42")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="measure for this long; at least one pass runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="with --gate: overwrite the stored references")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    preflight()
    if args.gate:
        return run_gate(args)
    if args.all:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    raise SystemExit(main())
