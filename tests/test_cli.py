import csv
import io
import json
import re
import sys
from dataclasses import asdict, fields, replace

import numpy as np
import pytest

from onticlab import checks, integrate, models
from onticlab.integrate import McConfig, QuadratureGrid, walk
from onticlab.errors import FieldError, PreconditionError
from onticlab.models import (
    MODEL_NAMES,
    LabelReadingModel,
    StateCatalog,
    catalog_from_states,
    default_catalog,
    make_model,
)
from onticlab.qubit import PLUS_X, PLUS_Z, MeasurementBasis, PureState

from onticlab.checks import (
    CheckReport,
    CheckRun,
    LabeledEstimate,
    audit_implication_chain,
    check_born_reproduction,
    check_max_psi_epistemic,
    check_measurement_noncontextuality,
    check_omega_witness,
    check_outcome_determinism,
    classify_ontology,
)
from onticlab.cli import (
    CHECK_RUNNERS,
    FIELD_FLAGS,
    emit_report,
    expected_patterns,
    load_catalog,
    main,
    parse_args,
    run,
)

FAST = {"samples": 20_000}
IS_DIRECTORY = object()   # a catalog path that names a directory


def parsed(model_name, checks=(), **flags):
    """parse_args of --model model_name, one --check per name, and --flag value per keyword (_ as -)."""
    argv = ["--model", model_name]
    for name in checks:
        argv += ["--check", name]
    for flag, value in flags.items():
        argv += ["--" + flag.replace("_", "-"), str(value)]
    return parse_args(argv)


def exit_of(argv):
    """main's exit code, whether main returns it or the parser exits with it."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def run_json(model_name, checks):
    code, reports = run(parsed(model_name, checks, **FAST))
    return code, json.loads(emit_report(reports, "json"))


class TestRun:
    def test_cap_model_audit_passes(self):
        code, payload = run_json("ks", ("audit",))
        assert code == 0
        assert payload[0]["verdict"] == "satisfied"
        assert "prep-nc=violated" in payload[0]["details"]
        assert "max-epistemic=satisfied" in payload[0]["details"]

    def test_pair_model_expected_violation_passes(self):
        code, payload = run_json("bell-mermin", ("max-epistemic",))
        assert code == 0
        assert payload[0]["verdict"] == "violated"

    def test_undersampled_run_is_inconclusive(self):
        code, reports = run(parsed("ks", ("born",), samples=10))
        assert code == 1
        assert reports[0].verdict == "inconclusive"
        assert reports[0].n_samples == 100

    @pytest.mark.parametrize("samples", [50, 99])
    def test_small_positive_sample_count_is_raised_with_a_note(self, capsys, samples):
        code, reports = run(parsed("ks", ("born",), samples=samples))
        assert "note: samples raised to the minimum of 100" in capsys.readouterr().err
        assert code == 1 and reports[0].n_samples == 100

    @pytest.mark.parametrize("samples", ["-5", "0"])
    def test_non_positive_sample_count_exits_2_naming_the_flag(self, capsys, samples):
        code = main(["--model", "ks", "--check", "born", "--samples", samples])
        captured = capsys.readouterr()
        assert code == 2
        assert f"error: --samples must be >= 100, got {samples}" in captured.err
        assert "raised" not in captured.err and captured.out == ""

    @pytest.mark.parametrize("samples", [50.5, 50.0, True])
    def test_non_integer_sample_count_is_not_raised(self, capsys, samples):
        # the parser rejects it; test_a_value_only_python_can_pass_is_rejected_by_its_object
        # covers the same values passed to McConfig
        code = exit_of(["--model", "ks", "--check", "born", "--samples", str(samples)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "--samples" in captured.err and f"'{samples}'" in captured.err
        assert "raised" not in captured.err

    def test_unknown_model_fails_fast(self, capsys):
        # the parser rejects an unknown --model, so run() is reached by library callers only
        args = parsed("ks")
        args.model = "mystery"
        code, reports = run(args)
        assert code == 2 and reports == []
        assert "valid names" in capsys.readouterr().err

    # argparse words its choice list differently across Python versions, so only
    # the flag and the value are asserted
    def test_unknown_check_fails_fast(self, capsys):
        code = exit_of(["--model", "ks", "--check", "born", "--check", "vibes"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "--check" in captured.err and "'vibes'" in captured.err

    def test_unknown_output_format_fails_fast(self, capsys):
        code = exit_of(["--model", "ks", "--check", "born", "--format", "xml"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "--format" in captured.err and "'xml'" in captured.err

    def test_precondition_error_exits_2(self, capsys):
        code, _ = run(parsed("const-half", ("nonlocality",), **FAST))
        assert code == 2
        assert "Born" in capsys.readouterr().err

    def test_checks_run_in_declared_order(self):
        code, reports = run(parsed("ks", ("classify", "born"), **FAST))
        assert [r.check_name for r in reports] == ["classify", "born"]
        assert code == 0

    def test_expected_patterns_cover_all_models(self):
        patterns = expected_patterns()
        assert set(patterns) == {"ks", "bell-mermin", "const-half", "label-reader"}
        for name in ("ks", "bell-mermin"):
            assert set(patterns[name]) >= {
                "born", "determinism", "measurement-nc", "max-epistemic",
                "classify", "prep-nc", "omega", "nonlocality", "audit",
            }

    def test_omega_check_matches_pattern(self):
        code, payload = run_json("bell-mermin", ("omega",))
        assert code == 0
        assert payload[0]["verdict"] == "violated"
        assert abs(payload[0]["estimates"][0]["mean"] - 0.5) < 0.02


class TestEmit:
    def example_report(self):
        return CheckReport(
            check_name="born",
            model_name="ks",
            verdict="satisfied",
            estimates=(LabeledEstimate("+z|z|+z", 1.0, 0.0),),
            tolerance=0.01,
            n_samples=1000,
            seed=42,
            details="all good",
            duration_ms=12.5,
        )

    def test_empty_json(self):
        assert emit_report([], "json") == "[]\n"

    def test_json_round_trip(self):
        reports = [self.example_report()]
        parsed = json.loads(emit_report(reports, "json"))
        assert parsed == [
            {
                "check_name": "born",
                "model_name": "ks",
                "verdict": "satisfied",
                "estimates": [{"label": "+z|z|+z", "mean": 1.0, "std_error": 0.0}],
                "tolerance": 0.01,
                "n_samples": 1000,
                "seed": 42,
                "details": "all good",
                "duration_ms": 12.5,
            }
        ]

    def test_text_contains_verdict(self):
        text = emit_report([self.example_report()], "text")
        lines = text.strip().splitlines()
        assert len(lines) == 2
        assert "satisfied" in lines[1]

    def test_csv_one_row_per_estimate(self):
        rows = list(csv.reader(io.StringIO(emit_report([self.example_report()], "csv"))))
        assert rows[0][:4] == ["check_name", "model_name", "verdict", "label"]
        assert len(rows) == 2
        assert rows[1][2] == "satisfied"

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            emit_report([], "yaml")


class TestCatalogIngestion:
    def test_load_and_run(self, tmp_path):
        path = tmp_path / "catalog.json"
        path.write_text(
            json.dumps(
                [
                    {"bloch": [0, 0, 1], "label": "up"},
                    {"theta": 1.5707963267948966, "phi": 0.0, "label": "side"},
                ]
            )
        )
        catalog = load_catalog(str(path))
        assert len(catalog.states) == 4           # closed under complements
        assert len(catalog.bases) == 2
        code, reports = run(parsed("ks", ("born",), catalog=path, **FAST))
        assert code == 0 and reports[0].verdict == "satisfied"

    def test_malformed_catalog_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{}")
        code, reports = run(parsed("ks", catalog=path))
        assert code == 2 and reports == []

    @pytest.mark.parametrize(
        "entry, field",
        [
            ({"bloch": [float("nan"), 0, 0]}, "bloch"),
            ({"theta": float("inf"), "phi": 0.0}, "theta"),
        ],
    )
    def test_non_finite_entry_exits_2_naming_the_field(self, tmp_path, capsys, entry, field):
        path = tmp_path / "nonfinite.json"
        path.write_text(json.dumps([{"bloch": [0, 0, 1]}, entry]))
        code, reports = run(parsed("ks", catalog=path, **FAST))
        assert code == 2 and reports == []
        assert f"'{field}'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "entries, message",
        [
            ([1, 2], "must be a JSON object"),
            ([{"theta": None, "phi": 0}], "'theta' must be a number"),
            ([{"bloch": ["a", 0, 0]}], "'bloch' must be a number"),
            ([{"bloch": [True, 0, 0]}], "'bloch' must be a number"),
            ([{"bloch": [2, 0, 0]}], "'bloch' must be a unit vector"),
            ([{"bloch": [1e308, 0, 0]}], "'bloch' must be a unit vector"),   # its norm overflows to inf
            ([{"bloch": [0, 0, 1], "lable": "up"}], "unknown key 'lable'"),
            ([{"bloch": [0, 0, 1]}, {"theta": 1.0, "phi": 0.5, "bloch": [1, 0, 0]}],
             "mixes 'bloch' with 'theta'/'phi'"),
        ],
    )
    def test_malformed_entry_exits_2_naming_the_field(self, tmp_path, capsys, entries, message):
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(entries))
        code, reports = run(parsed("ks", catalog=path, **FAST))
        assert code == 2 and reports == []
        assert message in capsys.readouterr().err

    def test_a_bad_entry_is_named_by_the_flag_the_path_and_its_index(self, tmp_path, capsys):
        path = tmp_path / "two.json"
        path.write_text(json.dumps([{"bloch": [0, 0, 1]}, {"bloch": [0, 1]}]))
        code, reports = run(parsed("ks", catalog=path, **FAST))
        assert code == 2 and reports == []
        assert capsys.readouterr().err == (
            f"error: --catalog {str(path)!r} entry 1: catalog entry 'bloch' must be a 3-element list\n"
        )

    @pytest.mark.parametrize("offset, triples", [(1e-13, 4), (2e-12, 16)])
    def test_states_within_state_tol_merge(self, tmp_path, offset, triples):
        path = tmp_path / "near.json"
        path.write_text(json.dumps([{"bloch": [0, 0, 1]}, {"bloch": [offset, 0, 1]}]))
        code, reports = run(parsed("ks", ("born",), catalog=path, **FAST))
        assert code == 0
        assert len(reports[0].estimates) == triples

    def test_classify_on_a_one_state_catalog_exits_2(self, tmp_path, capsys):
        path = tmp_path / "one.json"
        path.write_text(json.dumps([{"bloch": [0, 0, 1]}]))
        code, reports = run(parsed("ks", ("classify",), catalog=path, **FAST))
        assert code == 2 and reports == []
        assert "no distinct nonorthogonal pair" in capsys.readouterr().err

    def test_missing_file_exits_2(self):
        code, reports = run(parsed("ks", catalog="/nonexistent.json"))
        assert code == 2

    @pytest.mark.parametrize(
        "content",
        ["", "[{\"bloch\": [0, 0, 1]", "{}", pytest.param(None, id="missing"),
         pytest.param(IS_DIRECTORY, id="directory"),
         pytest.param("[" * 100_000 + "]" * 100_000, id="deeply-nested")],
    )
    def test_unreadable_catalog_exits_2_naming_the_flag_and_path(self, tmp_path, capsys, content):
        path = tmp_path / "broken.json"
        if content is IS_DIRECTORY:
            path.mkdir()
        elif content is not None:   # None leaves the path missing
            path.write_text(content)
        code, reports = run(parsed("ks", catalog=path, **FAST))
        assert code == 2 and reports == []
        err = capsys.readouterr().err
        assert "--catalog" in err and str(path) in err


class TestMain:
    def test_json_output_and_exit_code(self, capsys):
        code = main(
            ["--model", "bell-mermin", "--check", "classify", "--samples", "20000",
             "--format", "json"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert json.loads(out)[0]["verdict"] == "psi-ontic"

    def test_repeatable_check_flag(self, capsys):
        code = main(
            ["--model", "ks", "--check", "classify", "--check", "determinism",
             "--samples", "20000", "--format", "json"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert [r["check_name"] for r in payload] == ["classify", "determinism"]

    def test_unknown_model_exit_2(self, capsys):
        assert exit_of(["--model", "zeta", "--samples", "20000"]) == 2
        captured = capsys.readouterr()
        assert "--model" in captured.err and "'zeta'" in captured.err

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_out_of_range_exits_2_naming_the_flag(self, capsys, seed):
        code = main(["--model", "ks", "--check", "born", "--samples", "100", "--seed", seed])
        captured = capsys.readouterr()
        assert code == 2
        assert "--seed" in captured.err and "[0, 2**64)" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("tol", ["nan", "inf", "-0.5", "0", "1", "2"])
    def test_tolerance_outside_unit_interval_exits_2(self, capsys, tol):
        code = main(["--model", "ks", "--check", "born", "--samples", "100", "--tol", tol])
        captured = capsys.readouterr()
        assert code == 2
        assert "--tol" in captured.err
        assert captured.out == ""


    @pytest.mark.parametrize(
        "flag, value, bound",
        [("--quad-polar", "100000", "[1, 512]"), ("--quad-polar", "0", "[1, 512]"),
         ("--quad-azimuth", "1025", "[1, 1024]"), ("--quad-azimuth", "-3", "[1, 1024]")],
    )
    def test_grid_order_out_of_range_exits_2(self, capsys, flag, value, bound):
        code = main(["--model", "ks", "--check", "born", "--samples", "100", flag, value])
        captured = capsys.readouterr()
        assert code == 2
        assert flag in captured.err and bound in captured.err
        assert captured.out == ""


    def test_a_grid_too_coarse_to_normalize_exits_2_naming_its_orders(self, capsys):
        code = main(["--model", "ks", "--check", "prep-nc", "--quad-polar", "1", "--quad-azimuth", "1"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "error: check 'prep-nc': density g integrates to 1.732051, not 1," in captured.err
        assert "n_polar=1 and n_azimuth=1" in captured.err

    @pytest.mark.parametrize(
        "field, value, flag",
        [("seed", 1.5, "--seed"), ("quad_polar", True, "--quad-polar"),
         ("quad_azimuth", 8.0, "--quad-azimuth"), ("tolerance", float("nan"), "--tol")],
    )
    def test_run_config_value_of_the_wrong_type_exits_2_naming_the_flag(
        self, capsys, field, value, flag
    ):
        # the parser rejects the first three by type and CheckRun the NaN tolerance
        code = exit_of(["--model", "ks", "--check", "born", "--samples", "100", flag, str(value)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert flag in captured.err and str(value) in captured.err

    @pytest.mark.parametrize(
        "build, field, requirement, value",
        [
            pytest.param(McConfig, "n_samples", "an integer", 50.5, id="samples-50.5"),
            pytest.param(McConfig, "n_samples", "an integer", 50.0, id="samples-50.0"),
            pytest.param(McConfig, "n_samples", "an integer", True, id="samples-True"),
            # a numpy integer is an integer, so only its range fails
            pytest.param(McConfig, "n_samples", ">= 100", np.int64(50), id="samples-np.int64"),
            pytest.param(McConfig, "seed", "an integer", 1.5, id="seed-1.5"),
            pytest.param(QuadratureGrid, "n_polar", "an integer", True, id="quad-polar-True"),
            pytest.param(QuadratureGrid, "n_azimuth", "an integer", 8.0, id="quad-azimuth-8.0"),
        ],
    )
    def test_a_value_only_python_can_pass_is_rejected_by_its_object(self, build, field, requirement, value):
        with pytest.raises(FieldError) as info:
            build(**{field: value})
        flag = FIELD_FLAGS[info.value.field]
        assert info.value.worded(flag) == f"{flag} must be {requirement}, got {value!r}"

    def test_absent_flags_take_the_library_defaults(self):
        args = parse_args(["--model", "ks"])
        cfg, grid = McConfig(), QuadratureGrid()
        assert (args.samples, args.seed, args.quad_polar, args.quad_azimuth) == (
            cfg.n_samples, cfg.seed, grid.n_polar, grid.n_azimuth
        )
        assert (args.tol, args.check_names, args.catalog, args.format) == (CheckRun.tol, ("audit",), None, "text")

    def test_field_flags_name_validated_fields_and_real_flags(self, capsys):
        validated = {f.name for cls in (McConfig, QuadratureGrid, CheckRun) for f in fields(cls)}
        assert set(FIELD_FLAGS) <= validated
        with pytest.raises(SystemExit):
            main(["--help"])
        usage = capsys.readouterr().out
        assert all(flag in usage for flag in FIELD_FLAGS.values())


class TestDeterminism:
    def test_identical_configs_give_identical_json(self):
        config = parsed("ks", ("born", "prep-nc"), samples=20_000, seed=7, format="json")
        outputs = []
        for _ in range(2):
            code, reports = run(config)
            assert code == 0
            normalized = [replace(r, duration_ms=0.0) for r in reports]
            outputs.append(emit_report(normalized, "json"))
        assert outputs[0] == outputs[1]


class TestBatchSizeInvariance:
    """Reports depend on (seed, n_samples) only, not on how the stream is batched.

    The integrands of these checks take only the values 0, 0.5 and 1, so
    their per-batch sums are exact and any batching must agree bit for bit.
    7,000 and 1,000 do not divide 20,000, so tail batches are exercised; 1,000
    also splits the per-source budget of determinism and measurement-nc.
    """

    CHECKS = ("born", "determinism", "measurement-nc", "max-epistemic", "classify",
              "prep-nc", "omega", "audit")

    @staticmethod
    def reports(monkeypatch, model_name, size):
        monkeypatch.setattr(integrate, "BATCH_SIZE", size)
        cfg = McConfig(n_samples=20_000, seed=42)
        checks = TestBatchSizeInvariance.CHECKS
        check_run = CheckRun(make_model(model_name), default_catalog(), cfg, checks)
        return [asdict(CHECK_RUNNERS[name](check_run)) for name in checks]

    @pytest.mark.parametrize("model_name", MODEL_NAMES)
    def test_reports_equal_across_batch_sizes(self, model_name, monkeypatch):
        whole = self.reports(monkeypatch, model_name, 20_000)
        assert [r["check_name"] for r in whole] == list(self.CHECKS)
        for size in (7_000, 1_000):
            assert self.reports(monkeypatch, model_name, size) == whole


class TestDefaultBatchSize:
    """The cache-sized BATCH_SIZE gives the reports of 100,000-row and whole batches.

    110,000 samples are a multiple of neither BATCH_SIZE nor 100,000, so
    both split the budget with a tail batch.
    """

    N_SAMPLES = 110_000
    CHECKS = ("born", "determinism", "prep-nc")

    @classmethod
    def reports(cls, monkeypatch, model_name, size):
        monkeypatch.setattr(integrate, "BATCH_SIZE", size)
        cfg = McConfig(n_samples=cls.N_SAMPLES, seed=42)
        check_run = CheckRun(make_model(model_name), default_catalog(), cfg, cls.CHECKS)
        return [asdict(CHECK_RUNNERS[name](check_run)) for name in cls.CHECKS]

    @pytest.mark.parametrize("model_name", ("ks", "bell-mermin"))
    def test_default_equals_old_default_and_one_batch(self, model_name, monkeypatch):
        default = integrate.BATCH_SIZE
        assert self.N_SAMPLES % default and self.N_SAMPLES % 100_000
        reports = self.reports(monkeypatch, model_name, default)
        assert reports == self.reports(monkeypatch, model_name, 100_000)
        assert reports == self.reports(monkeypatch, model_name, self.N_SAMPLES)


def outputs_of(model, catalog, cfg, checks):
    """Each check's JSON report (duration_ms zeroed) or its PreconditionError, from one run."""
    check_run = CheckRun(model, catalog, cfg, checks)
    out = {}
    for name in checks:
        try:
            out[name] = zeroed_json([CHECK_RUNNERS[name](check_run)])
        except PreconditionError as exc:
            out[name] = f"error: {exc}"
    return out


class TestSourcePassBatchSizes:
    """The source pass gives every report byte for byte at any batch size and on one or two workers.

    At 1,400 samples the response scan reads 200 rows of each of the default
    catalog's 6 streams and of the reference, which the table and omega draw
    to 1,400.  Sizes that divide 200 (100, 200) and sizes that do not (7,
    199, 201) reach it through a head of a batch.  The reports of one whole
    batch on one worker are the reference for every size at both worker counts.
    """

    CFG = McConfig(n_samples=1_400, seed=42)
    SIZES = (7, 100, 199, 200, 201)

    @pytest.mark.parametrize("model_name", MODEL_NAMES)
    def test_all_checks_equal_across_batch_sizes(self, model_name, monkeypatch):
        catalog = default_catalog()
        assert self.CFG.n_samples // (len(catalog.states) + 1) == 200
        default = integrate.BATCH_SIZE
        assert self.CFG.n_samples < default
        monkeypatch.setattr(integrate, "WORKERS", 1)
        whole = outputs_of(make_model(model_name), catalog, self.CFG, tuple(CHECK_RUNNERS))
        for workers in (1, 2):
            monkeypatch.setattr(integrate, "WORKERS", workers)
            for size in (default,) + self.SIZES:
                monkeypatch.setattr(integrate, "BATCH_SIZE", size)
                assert outputs_of(make_model(model_name), catalog, self.CFG, tuple(CHECK_RUNNERS)) == whole


def allocate(shape):
    return np.empty(shape)


class TestLentMemory:
    """Lent batch memory gives every report of the gate matrix byte for byte, at any batch size.

    The allocating lender gives each request a new array, as if no walk ran;
    its reports on one worker are the reference for the lent ones on one and
    on two workers, each of which lends from its own buffers.
    Each model runs the gate's checks in one invocation; the negative
    controls leave out nonlocality, whose exit 2 reports nothing.  At 3,000
    samples the tolerance is 0.05, so that born is satisfied and nonlocality
    draws its steered mixtures instead of raising.  1,000 and 7 do not
    divide 3,000 or the response scan's 428 rows per source, so short last
    batches take views of the lent buffers.
    """

    SAMPLES = 3_000

    @classmethod
    def output(cls, model_name):
        checks = tuple(c for c in CHECK_RUNNERS if c != "nonlocality" or model_name in ("ks", "bell-mermin"))
        code, reports = run(parsed(model_name, checks, samples=cls.SAMPLES, tol=0.05))
        return code, zeroed_json(reports)

    @pytest.mark.parametrize("size", (25_000, 1_000, 7))
    @pytest.mark.parametrize("model_name", MODEL_NAMES)
    def test_lent_reports_equal_allocated(self, model_name, size, monkeypatch):
        binds = {name for name, m in sys.modules.items() if name.startswith("onticlab") and "lend" in vars(m)}
        assert binds == {"onticlab.integrate", "onticlab.models"}   # every binding is patched below
        monkeypatch.setattr(integrate, "BATCH_SIZE", size)
        lent = []
        for workers in (1, 2):
            monkeypatch.setattr(integrate, "WORKERS", workers)
            lent.append(self.output(model_name))
        assert len(json.loads(lent[0][1])) == (9 if model_name in ("ks", "bell-mermin") else 8)
        for module in (integrate, models):
            monkeypatch.setattr(module, "lend", allocate)
        monkeypatch.setattr(integrate, "WORKERS", 1)
        assert lent == [self.output(model_name)] * 2


class TestSourcesShareNoState:
    """No two sources of a pass share a feed's state, since a walk may feed two sources at once."""

    @staticmethod
    def state(feed) -> set[int]:
        """The sums a feed writes: the sums of a bound add, or those its closure holds."""
        held = [getattr(feed, "__self__", None)] + [cell.cell_contents for cell in feed.__closure__ or ()]
        return {id(x) for x in held if isinstance(x, integrate.RunningSums)}

    @pytest.mark.parametrize("model_name", MODEL_NAMES)
    def test_each_source_writes_its_own_tallies_and_sums(self, model_name, monkeypatch):
        walked = []
        monkeypatch.setattr(checks, "walk", lambda sources, seed: walked.append(sources) or walk(sources, seed))
        outputs_of(make_model(model_name), default_catalog(), McConfig(n_samples=1_400), tuple(CHECK_RUNNERS))
        (sources,) = walked
        held = [set().union(*(self.state(feed) for _, feed in feeds)) for _, feeds in sources]
        assert len(sources) == 7 and all(held)
        assert sum(len(h) for h in held) == len(set().union(*held))


class TestPassPreconditions:
    """A pass part whose precondition fails is left out; only the checks that read it raise."""

    CFG = McConfig(n_samples=20_000, seed=42)

    def outputs(self, model_name, catalog, checks):
        return outputs_of(make_model(model_name), catalog, self.CFG, checks)

    @pytest.mark.parametrize("model_name", MODEL_NAMES)
    def test_no_nonorthogonal_pair_fails_only_omega(self, model_name):
        catalog = catalog_from_states((PLUS_Z,))   # +z and -z in one basis
        checks = ("born", "determinism", "measurement-nc", "max-epistemic", "omega")
        together = self.outputs(model_name, catalog, checks)
        assert together["omega"] == "error: catalog has no distinct nonorthogonal pair"
        for name in checks[:-1]:
            assert not together[name].startswith("error")
            assert together[name] == self.outputs(model_name, catalog, (name,))[name]

    @pytest.mark.parametrize("model_name", MODEL_NAMES)
    def test_no_basis_fails_only_the_response_checks(self, model_name):
        catalog = StateCatalog((PLUS_Z, PLUS_X), ())
        checks = ("born", "determinism", "measurement-nc", "max-epistemic", "classify", "omega")
        together = self.outputs(model_name, catalog, checks)
        for name in checks[:3]:
            assert together[name] == (
                "error: the catalog has no measurement basis, so no response value to check"
            )
        for name in checks[3:]:
            assert not together[name].startswith("error")
            assert together[name] == self.outputs(model_name, catalog, (name,))[name]


class CountingLabelReader(LabelReadingModel):
    """label-reader that counts the preparation and reference rows it draws."""

    drawn = 0

    def prepare_batch(self, psi, seed, start, count):
        self.drawn += count
        return super().prepare_batch(psi, seed, start, count)

    def reference_batch(self, seed, start, count):
        self.drawn += count
        return super().reference_batch(seed, start, count)


def zeroed_json(reports):
    return emit_report([replace(r, duration_ms=0.0) for r in reports], "json")


class TestSharedStateTable:
    """Checks of one run share one pass over each mu_psi and the passes audit reads.

    Nothing outlives the run.
    """

    SHARING = ("born", "max-epistemic", "classify", "audit")

    @pytest.mark.parametrize("model_name", MODEL_NAMES)
    def test_shared_run_equals_separate_runs(self, model_name):
        code, together = run(parsed(model_name, self.SHARING, **FAST))
        assert code == 0
        alone = []
        for name in self.SHARING:
            code, reports = run(parsed(model_name, (name,), **FAST))
            assert code == 0
            alone += reports
        assert zeroed_json(together) == zeroed_json(alone)

    @pytest.mark.parametrize("model_name", MODEL_NAMES)
    def test_audit_first_or_last_equals_each_check_alone(self, model_name):
        others = tuple(name for name in expected_patterns()[model_name] if name != "audit")
        alone = {}
        for name in others + ("audit",):
            code, reports = run(parsed(model_name, (name,), **FAST))
            assert code == 0
            alone[name] = reports
        for names in (("audit",) + others, others + ("audit",)):
            code, together = run(parsed(model_name, names, **FAST))
            assert code == 0
            assert zeroed_json(together) == zeroed_json([r for n in names for r in alone[n]])

    @pytest.fixture
    def drawn(self, monkeypatch):
        """Rows a counting label-reader draws in one CLI run of the given checks."""
        model = CountingLabelReader()
        monkeypatch.setattr("onticlab.cli.make_model", lambda name: model)

        def drawn(checks):
            before = model.drawn
            code, reports = run(parsed("label-reader", checks, **FAST))
            assert code == 0 and len(reports) == len(checks)
            return model.drawn - before

        return drawn

    def test_audit_reuses_the_reports_its_run_made(self, drawn):
        audit_alone = drawn(("audit",))
        assert drawn(("determinism", "measurement-nc", "prep-nc", "audit")) == audit_alone

    def test_omega_pass_is_made_once(self, drawn):
        assert drawn(("omega", "omega")) == drawn(("omega",))

    def test_checks_after_audit_rebuild_their_reports_from_its_passes(self, drawn):
        after = (
            "audit", "born", "determinism", "measurement-nc", "max-epistemic", "classify", "prep-nc",
        )
        assert drawn(after) == drawn(("audit",))

    def test_exact_checks_share_one_response_scan(self, drawn):
        # every mu_psi and the reference, each at the per-source budget
        sources = len(default_catalog().states) + 1
        scan = sources * (FAST["samples"] // sources)
        assert drawn(("determinism",)) == drawn(("measurement-nc",)) == scan
        assert drawn(("determinism", "measurement-nc")) == scan
        assert drawn(("measurement-nc", "determinism")) == scan

    def test_one_pass_draws_each_catalog_stream_once(self, drawn):
        # every mu_psi is drawn to n once: the table, omega and the scan's share of it
        # read the same batches, so the scan alone draws the reference
        states = len(default_catalog().states)
        n = FAST["samples"]
        per_source = n // (states + 1)
        mixtures = drawn(("prep-nc",))   # audit compares its pair's two mixtures as well
        assert drawn(("born", "determinism", "measurement-nc", "omega", "audit")) == (
            states * n + per_source + mixtures
        )
        assert drawn(("omega",)) == n
        assert drawn(("born", "omega")) == drawn(("born",)) == states * n
        assert drawn(("omega", "determinism")) == n + states * per_source

    @pytest.mark.parametrize(
        "check, name, part",
        [
            (check_outcome_determinism, "determinism", "the response scan"),
            (check_measurement_noncontextuality, "measurement-nc", "the response scan"),
            (check_omega_witness, "omega", "the Omega witness"),
            (check_born_reproduction, "born", "the state table's responses"),
        ],
    )
    def test_an_undeclared_part_raises_before_any_draw(self, check, name, part):
        model = CountingLabelReader()
        check_run = CheckRun(model, default_catalog(), McConfig(n_samples=20_000), ("classify",))
        with pytest.raises(PreconditionError, match=f"^check '{name}' reads {part}, which none"):
            check(check_run)
        assert model.drawn == 0

    def test_a_run_draws_each_stream_once_and_keeps_nothing(self):
        model, catalog = CountingLabelReader(), default_catalog()
        cfg = McConfig(n_samples=20_000, seed=42)

        def drawn(checks):
            before = model.drawn
            check_run = CheckRun(model, catalog, cfg, checks)
            for name in checks:
                CHECK_RUNNERS[name](check_run)
            return model.drawn - before

        audit_alone = drawn(("audit",))
        # born, max-epistemic and classify read audit's table and draw nothing more
        assert drawn(self.SHARING) == audit_alone
        # a later run on the very same objects draws every stream again
        assert drawn(self.SHARING) == audit_alone
        for check, name in (
            (check_born_reproduction, "born"),
            (check_max_psi_epistemic, "max-epistemic"),
            (classify_ontology, "classify"),
        ):
            for _ in range(2):
                before = model.drawn
                check(CheckRun(model, catalog, cfg, (name,)))
                assert model.drawn - before == len(catalog.states) * cfg.n_samples

    @staticmethod
    def axis_catalog(state_labels, basis_mark):
        """The six axis states under the given labels, one basis per pair, marked or not."""
        vectors = ((0, 0, 1), (0, 0, -1), (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0))
        states = tuple(PureState(*v, label) for v, label in zip(vectors, state_labels))
        bases = tuple(
            MeasurementBasis(states[i:i + 2], states[i].label + basis_mark) for i in (0, 2, 4)
        )
        return StateCatalog(states, bases)

    def test_catalogs_differing_in_labels_report_their_own(self):
        plain = ("up", "down", "right", "left", "front", "back")
        renamed = ("U", "D", "R", "L", "F", "B")
        # labels are not part of state or basis equality
        assert self.axis_catalog(plain, "") == self.axis_catalog(renamed, "*")
        cfg = McConfig(n_samples=20_000, seed=42)
        outputs = []
        for names, mark in ((plain, ""), (renamed, "*"), (plain, "")):
            model, catalog = make_model("label-reader"), self.axis_catalog(names, mark)
            check_run = CheckRun(model, catalog, cfg, self.SHARING)
            shared = [CHECK_RUNNERS[name](check_run) for name in self.SHARING]
            api = [
                check_born_reproduction(CheckRun(model, catalog, cfg, ("born",))),
                check_max_psi_epistemic(CheckRun(model, catalog, cfg, ("max-epistemic",))),
                classify_ontology(CheckRun(model, catalog, cfg, ("classify",))),
                audit_implication_chain(CheckRun(model, catalog, cfg, ("audit",))),
            ]
            assert zeroed_json(shared) == zeroed_json(api)
            own = set(names) | {name + mark for name in names}
            for report in shared[:3]:
                parts = {p for e in report.estimates for p in re.split(r"\||->", e.label)}
                assert parts and parts <= own
            assert f"pair={names[0]}->" in shared[3].details
            outputs.append((zeroed_json(shared), [e.mean for e in shared[0].estimates]))
        assert outputs[0] == outputs[2]
        # label-reader flips its responses on marked basis labels
        assert [1.0 - m for m in outputs[1][1]] == outputs[0][1]
