"""CLI: config validation, determinism, subcommands, exit codes."""

import csv
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vlqsim import cli, codebook, estimate
from vlqsim.cli import ConfigError, SimulationConfig, main, run_config, selftest
from vlqsim.estimate import ser_full_analytic
from vlqsim.numerics import QuadratureError


def base_config(**overrides):
    doc = {
        "t": 1,
        "strategy": "bf-full",
        "P-grid-dB": [10.0],
        "samples": 50000,
        "seed": 7,
        "output-path": "out.csv",
        "conditioning": "none",
    }
    doc.update(overrides)
    return doc


# logP schedule; at t=2 it is invertible from ln P >= 2.94 (12.8 dB) up
_LOGP = {"f": "logP", "c0": 0.0224}


def write_config(tmp_path, doc, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


class TestConfigValidation:
    def test_round_trip_identity(self):
        doc = base_config(strategy="bf-vlq", delta=0.3, t=2)
        cfg = SimulationConfig.from_dict(doc)
        assert SimulationConfig.from_dict(cfg.to_dict()) == cfg

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            SimulationConfig.from_dict(base_config(extra=1))

    def test_missing_keys_rejected(self):
        doc = base_config()
        del doc["samples"]
        with pytest.raises(ConfigError, match="samples"):
            SimulationConfig.from_dict(doc)

    def test_descending_grid_rejected(self):
        with pytest.raises(ConfigError, match="ascending"):
            SimulationConfig.from_dict(base_config(**{"P-grid-dB": [20.0, 10.0]}))

    def test_strategy_field_consistency(self):
        with pytest.raises(ConfigError):
            SimulationConfig.from_dict(base_config(strategy="bf-flq", t=2))  # no delta
        with pytest.raises(ConfigError):
            SimulationConfig.from_dict(base_config(delta=0.3))  # baseline takes none
        with pytest.raises(ConfigError):
            SimulationConfig.from_dict(
                base_config(strategy="bf-vlq", t=2, delta=0.3, **{"codebook-path": "x"})
            )

    def test_schedule_validation(self):
        doc = base_config(strategy="bf-vlq", t=2, schedule={"f": "logP", "c0": 0.02})
        cfg = SimulationConfig.from_dict(doc)
        assert cfg.schedule == {"f": "logP", "c0": 0.02}
        with pytest.raises(ConfigError):
            SimulationConfig.from_dict(
                base_config(strategy="bf-vlq", t=2, schedule={"f": "expP", "c0": 0.02})
            )
        with pytest.raises(ConfigError):
            SimulationConfig.from_dict(
                base_config(strategy="pc-vlq", t=2, schedule={"f": "logP", "c0": 0.02})
            )

    def test_db_conversion(self):
        cfg = SimulationConfig.from_dict(base_config(**{"P-grid-dB": [0.0, 10.0, 20.0]}))
        assert cfg.P_grid == pytest.approx((1.0, 10.0, 100.0))

    @pytest.mark.parametrize("key", ["t", "samples", "seed"])
    def test_bool_is_not_an_integer(self, key):
        with pytest.raises(ConfigError, match=key):
            SimulationConfig.from_dict(base_config(**{key: True}))

    @pytest.mark.parametrize(
        "delta", [[0.3], "0.3", None, True, math.nan, math.inf, 10**400], ids=repr
    )
    def test_delta_must_be_a_finite_number(self, delta):
        doc = base_config(strategy="bf-flq", t=2, delta=delta)
        with pytest.raises(ConfigError):
            SimulationConfig.from_dict(doc)

    @pytest.mark.parametrize(
        "bad", [math.nan, math.inf, -math.inf, True, "10", 10**400, 1e4], ids=repr
    )
    def test_grid_entries_must_be_finite_numbers(self, bad):
        with pytest.raises(ConfigError, match="P-grid-dB"):
            SimulationConfig.from_dict(base_config(**{"P-grid-dB": [0.0, bad]}))

    def test_schedule_c0_must_be_finite(self):
        for c0 in (math.nan, math.inf, True):
            doc = base_config(strategy="bf-vlq", t=2, schedule={"f": "logP", "c0": c0})
            with pytest.raises(ConfigError, match="c0"):
                SimulationConfig.from_dict(doc)


_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**70), max_value=2**70)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=8,
)
# values that have slipped past type checks before: bools pass isinstance(_, int)
_NASTY = st.sampled_from(
    [True, False, None, math.nan, math.inf, -math.inf, 10**400, 0, -1, 0.5, 1e4, [0.3], "0.3", {}]
)
_VALID = {
    "t": 2,
    "strategy": "bf-vlq",
    "delta": 0.3,
    "P-grid-dB": [3.0, 10.0],
    "samples": 10,
    "seed": 1,
    "output-path": "o.csv",
    "conditioning": "radial",
}
_KEYS = sorted(_VALID) + ["schedule", "codebook-path", "extra"]


@st.composite
def _fuzzed_configs(draw):
    """A valid config with some keys replaced by, or added as, random JSON values."""
    doc = dict(_VALID)
    for key in draw(st.lists(st.sampled_from(_KEYS), min_size=1, max_size=3, unique=True)):
        if draw(st.integers(0, 4)) == 0:
            doc.pop(key, None)
        else:
            doc[key] = draw(_NASTY | _JSON)
    return doc


class TestConfigFuzz:
    @settings(max_examples=300, deadline=None)
    @given(doc=_fuzzed_configs() | _JSON)
    def test_only_config_errors_escape(self, doc):
        try:
            cfg = SimulationConfig.from_dict(doc)
        except ConfigError:
            return
        assert all(math.isfinite(P) and P > 0.0 for P in cfg.P_grid)
        assert cfg.strategy != "bf-vlq" or min(cfg.P_grid) > 1.0
        for value in (cfg.t, cfg.samples, cfg.seed):
            assert type(value) is int
        assert cfg.delta is None or 0.0 < cfg.delta < 1.0
        assert SimulationConfig.from_dict(cfg.to_dict()) == cfg


# Valid and invalid values for each key of a sweep config, chosen so that a
# run stays cheap: t <= 2, samples <= 512, at most three grid points and
# every fixed or scheduled delta >= 0.2 at t=2 (a t=1 codebook is one
# codeword at any delta).  "@" stands for the example's directory.
_MAIN_VALUES = {
    "t": ([1, 2], [0, 9, True, 2.0, "2", None]),
    "strategy": (["bf-full", "bf-flq", "bf-vlq", "pc-full", "pc-vlq", "open-loop"], ["bf", 1]),
    "delta": ([0.2, 0.5], [0.0, 1.0, -0.3, math.nan, "0.3", [0.3], None]),
    "schedule": (
        [{"f": "logP", "c0": 0.0224}, {"f": "sqrtP", "c0": 0.0224}],
        [{"f": "logP"}, {"f": "cubeP", "c0": 0.0224}, {"f": ["logP"], "c0": 0.0224},
         {"f": "logP", "c0": -1}, "logP", None],
    ),
    "codebook-path": (
        ["@/book.json", "@/t1.json"],
        ["@/nan.json", "@/novec.json", "@/missing.json", "@", 3, None],
    ),
    "P-grid-dB": (
        [[13.0, 20.0, 30.0], [5.0, 40.0], [25.0]],
        [[-3.0, 10.0], [0.0], [20.0, 10.0], [], [math.inf], ["10"], "10"],
    ),
    "samples": ([1, 512], [0, -5, True, 1.5, "512"]),
    "seed": ([0, 2**64 - 1], [2**64, -1, 0.5]),
    "output-path": (["@/o.csv"], ["@/missing/o.csv", "@", "", 7]),
    "conditioning": (["radial", "none"], ["both", None]),
    "extra": ([], [1]),
}
_MAIN_BASE = {
    "t": 2,
    "strategy": "bf-vlq",
    "P-grid-dB": [13.0, 20.0, 30.0],
    "samples": 256,
    "seed": 3,
    "output-path": "@/o.csv",
    "conditioning": "radial",
}


@st.composite
def _main_configs(draw):
    """A cheap valid config with one codebook source, then up to two keys
    removed, added or set to a valid or an invalid value."""
    doc = dict(_MAIN_BASE)
    source = draw(st.sampled_from(["delta", "schedule", "codebook-path"]))
    doc[source] = draw(st.sampled_from(_MAIN_VALUES[source][0]))
    for key in draw(st.lists(st.sampled_from(sorted(_MAIN_VALUES)), max_size=2, unique=True)):
        valid, invalid = _MAIN_VALUES[key]
        if draw(st.integers(0, 4)) == 0:
            doc.pop(key, None)
        else:
            doc[key] = draw(st.sampled_from(valid if valid and draw(st.booleans()) else invalid))
    return doc


def _in_dir(value, d):
    if isinstance(value, str):
        return value.replace("@", d)
    if isinstance(value, dict):
        return {k: _in_dir(v, d) for k, v in value.items()}
    return value


class TestMainFuzz:
    @settings(max_examples=40, deadline=None)
    @given(doc=_main_configs())
    @example(doc=dict(_MAIN_BASE, schedule=_LOGP))
    def test_exit_codes_not_exceptions(self, doc):
        with tempfile.TemporaryDirectory() as d:
            books = {"book": _book_doc(), "t1": dict(_book_doc(), t=1, vectors=[[[1.0, 0.0]]])}
            for name, book in books.items():
                Path(d, f"{name}.json").write_text(json.dumps(book))
            _nan_book(Path(d))
            _book_without_vectors(Path(d))
            cfg = write_config(Path(d), _in_dir(doc, d))
            for argv in (
                ["sweep", "--config", cfg, "--workers", "1"],
                ["compare", "--config", cfg, "--baseline", "bf-full"],
                ["compare", "--config", cfg, "--baseline", "bf-flq"],
            ):
                assert main(argv) in (0, 2, 3), argv


class TestRunConfig:
    def test_full_csit_matches_oracle(self, tmp_path):
        out = tmp_path / "out.csv"
        cfg = SimulationConfig.from_dict(base_config(**{"output-path": str(out)}))
        records = run_config(cfg)
        want = ser_full_analytic(1, 10.0)
        assert abs(records[0].ser - want) <= 3.0 * records[0].ser_stderr
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert float(rows[0]["P_linear"]) == pytest.approx(10.0)
        assert float(rows[0]["ser"]) == records[0].ser
        summary = json.loads((tmp_path / "out.csv.summary.json").read_text())
        assert summary["converse-violations"] == []

    def test_idempotent_and_worker_independent(self, tmp_path):
        out = tmp_path / "out.csv"
        doc = base_config(
            strategy="bf-vlq", t=2, delta=0.3, samples=60000,
            **{"P-grid-dB": [5.0, 15.0], "output-path": str(out)},
        )
        cfg = SimulationConfig.from_dict(doc)
        run_config(cfg, workers=1)
        first = out.read_bytes()
        for workers in (4, 16):
            run_config(cfg, workers=workers)
            assert out.read_bytes() == first

    def test_scheduled_sweep(self, tmp_path):
        out = tmp_path / "sched.csv"
        doc = base_config(
            strategy="bf-vlq", t=2, samples=20000,
            schedule={"f": "logP", "c0": 0.0224},
            **{"P-grid-dB": [30.0, 40.0, 50.0], "output-path": str(out), "conditioning": "radial"},
        )
        records = run_config(SimulationConfig.from_dict(doc))
        assert len(records) == 3
        summary = json.loads((tmp_path / "sched.csv.summary.json").read_text())
        assert "gains" in summary
        assert summary["gains"]["diversity"] == pytest.approx(2.0, abs=0.3)

    def test_missing_codebook_hint(self, tmp_path):
        doc = base_config(
            strategy="bf-flq", t=2, **{"codebook-path": str(tmp_path / "nope.json")}
        )
        with pytest.raises(ConfigError, match="codebook build"):
            run_config(SimulationConfig.from_dict(doc))


def _scheduled(tmp_path):
    return base_config(
        strategy="bf-vlq", t=2, samples=2000, schedule=dict(_LOGP),
        **{"P-grid-dB": [30.0, 40.0, 50.0]},
    )


def _on_stored_book(tmp_path):
    book = tmp_path / "book.json"
    assert main(
        ["codebook", "build", "--t", "2", "--delta", "0.2", "--seed", "1", "--output", str(book)]
    ) == 0
    return base_config(
        strategy="bf-vlq", t=2, samples=20000,
        **{"codebook-path": str(book), "P-grid-dB": [5.0, 15.0, 25.0]},
    )


# (config document builder, baseline) pairs for `vlqsim compare` in which
# A's conditional SER is >= B's on every draw; a coded baseline must use the
# config's own codebook (the scheduled one at each point, or the file's)
_COMPARES = [
    (lambda p: base_config(strategy="bf-flq", t=2, delta=0.3, samples=20000), "bf-full"),
    (_scheduled, "bf-full"),
    (_scheduled, "bf-flq"),
    (_on_stored_book, "bf-flq"),
]


class TestMainExitCodes:
    def test_success_and_byte_identical(self, tmp_path, capsys):
        out = tmp_path / "o.csv"
        cfg = write_config(tmp_path, base_config(**{"output-path": str(out)}))
        assert main(["sweep", "--config", cfg]) == 0
        one = out.read_bytes()
        assert main(["sweep", "--config", cfg, "--workers", "4"]) == 0
        assert out.read_bytes() == one

    def test_config_error_is_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, base_config(**{"P-grid-dB": [20.0, 10.0]}))
        assert main(["sweep", "--config", cfg]) == 2
        assert "ascending" in capsys.readouterr().err

    @pytest.mark.parametrize("grid", [[-3.0, 10.0], [0.0, 10.0]])
    def test_bf_vlq_grid_at_or_below_0db_is_2(self, tmp_path, capsys, grid):
        # beta = (t+1) ln P is undefined below 0 dB and zero at 0 dB
        doc = base_config(
            strategy="bf-vlq", t=2, delta=0.3,
            **{"P-grid-dB": grid, "output-path": str(tmp_path / "o.csv")},
        )
        with pytest.raises(ConfigError, match="P-grid-dB"):
            SimulationConfig.from_dict(doc)
        assert main(["sweep", "--config", write_config(tmp_path, doc)]) == 2
        err = capsys.readouterr().err
        assert "P-grid-dB" in err and "Traceback" not in err
        assert not (tmp_path / "o.csv").exists()

    def test_bf_flq_sweep_below_0db_checks_the_points_from_0db_up(
        self, tmp_path, capsys, monkeypatch
    ):
        # Theorem 3's converse is stated for P >= 1 only
        checked = []
        lb = cli.bounds_mod.thm3_converse_lb
        monkeypatch.setattr(
            cli.bounds_mod, "thm3_converse_lb", lambda P, *a: checked.append(P) or lb(P, *a)
        )
        out = tmp_path / "o.csv"
        doc = base_config(
            strategy="bf-flq", t=2, delta=0.3, samples=2000,
            **{"P-grid-dB": [-5.0, 5.0, 15.0], "output-path": str(out)},
        )
        assert main(["sweep", "--config", write_config(tmp_path, doc)]) == 0
        assert capsys.readouterr().err == ""
        summary = json.loads((tmp_path / "o.csv.summary.json").read_text())
        assert summary["records"] == 3 and summary["converse-violations"] == []
        assert checked == [10.0**0.5, 10.0**1.5]

    @pytest.mark.parametrize(
        "action, flag, value",
        [("build", "--stop-streak", "10000001"), ("build", "--stop-streak", "0"),
         ("verify", "--probes", "100000001"), ("verify", "--probes", "0")],
    )
    def test_probe_counts_outside_their_caps_are_2(
        self, tmp_path, capsys, monkeypatch, action, flag, value
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("a probe was drawn")

        monkeypatch.setattr(codebook, "_unit_probes", refuse)
        book, out = tmp_path / "b.json", tmp_path / "o.json"
        book.write_text(json.dumps(_book_doc()))
        argv = {
            "build": ["codebook", "build", "--t", "2", "--delta", "0.3", "--output", str(out)],
            "verify": ["codebook", "verify", "--input", str(book)],
        }[action]
        assert main(argv + [flag, value]) == 2
        captured = capsys.readouterr()
        message = {"build": "stop_streak must be in [1, 10^7]", "verify": "probes must be in [1, 10^8]"}
        assert message[action] in captured.err and "Traceback" not in captured.err
        assert captured.out == "" and not out.exists()

    def test_missing_config_file_is_2(self, tmp_path, capsys):
        assert main(["sweep", "--config", str(tmp_path / "missing.json")]) == 2

    def test_corrupted_codebook_is_3(self, tmp_path, capsys):
        book_path = tmp_path / "book.json"
        assert main(
            ["codebook", "build", "--t", "2", "--delta", "0.3", "--seed", "1",
             "--output", str(book_path)]
        ) == 0
        doc = json.loads(book_path.read_text())
        doc["vectors"][0][0][0] *= 2.0  # break the unit norm
        book_path.write_text(json.dumps(doc))
        out = tmp_path / "o.csv"
        cfg = write_config(
            tmp_path,
            base_config(
                strategy="bf-flq", t=2,
                **{"codebook-path": str(book_path), "output-path": str(out)},
            ),
        )
        assert main(["sweep", "--config", cfg]) == 3
        assert "invariant" in capsys.readouterr().err

    def test_codebook_build_verify_cycle(self, tmp_path, capsys):
        path = tmp_path / "b.json"
        assert main(
            ["codebook", "build", "--t", "2", "--delta", "0.4", "--seed", "3",
             "--output", str(path)]
        ) == 0
        assert main(["codebook", "verify", "--input", str(path), "--probes", "5000"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        # verifying against a much tighter delta must fail with status 3
        assert main(
            ["codebook", "verify", "--input", str(path), "--probes", "5000",
             "--delta", "0.05"]
        ) == 3

    def test_fit_subcommand(self, tmp_path, capsys):
        out = tmp_path / "o.csv"
        doc = base_config(
            t=2, samples=1000,
            **{"P-grid-dB": [30.0, 40.0, 50.0], "output-path": str(out),
               "conditioning": "radial"},
        )
        cfg = write_config(tmp_path, doc)
        assert main(["sweep", "--config", cfg]) == 0
        assert main(["fit", "--input", str(out)]) == 0
        text = capsys.readouterr().out
        d = float(text.split("diversity")[1].split()[0])
        assert d == pytest.approx(2.0, abs=0.05)

    def test_compare_subcommand(self, tmp_path, capsys):
        for make_doc, baseline in _COMPARES:
            doc = make_doc(tmp_path)
            doc["output-path"] = str(tmp_path / "o.csv")
            cfg = write_config(tmp_path, doc)
            capsys.readouterr()
            assert main(["compare", "--config", cfg, "--baseline", baseline]) == 0, doc
            lines = capsys.readouterr().out.splitlines()[1:]
            assert len(lines) == len(doc["P-grid-dB"]), doc
            for line in lines:
                assert "A>=B on 100.00%" in line and "max violation +0.00e+00" in line, doc

    def test_compare_follows_conditioning(self, tmp_path, capsys):
        # a radial config is compared per direction, not draw by draw
        outputs = {}
        for conditioning in ("radial", "none"):
            doc = base_config(
                strategy="pc-vlq", t=2, delta=0.3, samples=20000, conditioning=conditioning,
                **{"P-grid-dB": [5.0, 15.0], "output-path": str(tmp_path / "o.csv")},
            )
            capsys.readouterr()
            assert main(["compare", "--config", write_config(tmp_path, doc),
                         "--baseline", "bf-full"]) == 0
            outputs[conditioning] = capsys.readouterr().out.splitlines()
        radial, plain = outputs["radial"], outputs["none"]
        assert len(radial) == len(plain) == 3
        assert all(a != b for a, b in zip(radial[1:], plain[1:]))

    def test_bounds_subcommand(self, capsys):
        assert main(["bounds", "--t", "2"]) == 0
        assert "C1" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flags",
        [["--c0", "inf"], ["--c0", "1e308"], ["--delta", "1e-300"], ["--r", "1/0"]],
        ids=" ".join,
    )
    def test_bounds_bad_flags_are_2(self, capsys, flags):
        assert _exit_code(["bounds", "--t", "2", *flags]) == 2
        err = capsys.readouterr().err
        assert err and "Traceback" not in err

    @pytest.mark.parametrize("delta", ["2", "1", "0", "-0.1", "nan"])
    def test_verify_delta_outside_unit_interval_is_2(self, tmp_path, capsys, delta):
        path = tmp_path / "b.json"
        path.write_text(json.dumps(_book_doc()))
        assert main(["codebook", "verify", "--input", str(path), "--delta", delta]) == 2
        captured = capsys.readouterr()
        assert "delta must be in (0, 1)" in captured.err and captured.out == ""

    @pytest.mark.parametrize("t", ["0", "9", "100"])
    def test_build_t_outside_1_to_8_is_2(self, tmp_path, capsys, monkeypatch, t):
        def refuse(*args, **kwargs):
            raise AssertionError("build started")

        monkeypatch.setattr(cli, "build_covering_codebook", refuse)
        argv = ["codebook", "build", "--t", t, "--delta", "0.9",
                "--output", str(tmp_path / "b.json")]
        assert main(argv) == 2
        assert "[1, 8]" in capsys.readouterr().err
        assert not (tmp_path / "b.json").exists()


    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    @pytest.mark.parametrize("command", ["build", "verify", "selftest"])
    def test_seed_outside_64_bits_is_2(self, tmp_path, capsys, monkeypatch, command, seed):
        # a config's seed is in [0, 2^64); so is every --seed, checked by
        # argparse before any build, probe or check runs
        def refuse(*args, **kwargs):
            raise AssertionError("work started")

        for name in ("build_covering_codebook", "verify_covering", "selftest"):
            monkeypatch.setattr(cli, name, refuse)
        book, out = tmp_path / "b.json", tmp_path / "o.json"
        book.write_text(json.dumps(_book_doc()))
        argv = {
            "build": ["codebook", "build", "--t", "2", "--delta", "0.3", "--output", str(out)],
            "verify": ["codebook", "verify", "--input", str(book)],
            "selftest": ["selftest"],
        }[command]
        assert _exit_code(argv + ["--seed", seed]) == 2
        captured = capsys.readouterr()
        assert "argument --seed: not an integer in [0, 2^64)" in captured.err
        assert captured.out == "" and not out.exists()

def _exit_code(argv) -> int:
    """main's return value, or the status of the SystemExit that argparse
    raises on a flag it rejects."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def _book_doc():
    """A valid two-codeword t=2 codebook file's document."""
    return {"format-version": 1, "t": 2, "delta": 0.3,
            "vectors": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]}


def _nan_book(tmp_path):
    path = tmp_path / "nan.json"
    doc = _book_doc()
    doc["vectors"][1][1][0] = math.nan
    path.write_text(json.dumps(doc))
    return path


def _book_without_vectors(tmp_path):
    path = tmp_path / "novec.json"
    doc = _book_doc()
    del doc["vectors"]
    path.write_text(json.dumps(doc))
    return path


def _sweep_on_book(tmp_path, book):
    doc = base_config(
        strategy="bf-flq", t=2, samples=1000,
        **{"codebook-path": str(book), "output-path": str(tmp_path / "o.csv")},
    )
    return ["sweep", "--config", write_config(tmp_path, doc)]


def _csv_with_power(tmp_path, power):
    """A four-row bf-full sweep CSV whose first row has P_linear = power;
    with power nan, the fit once ran on the other three and exited 0."""
    path = tmp_path / "power.csv"
    rows = [",".join(estimate.CSV_COLUMNS)]
    for P, ser in ((power, "1e-4"), ("10000", "1e-6"), ("100000", "1e-8"), ("1000000", "1e-10")):
        rows.append(f"bf-full,0,{P},{ser},0,0,0,1000,7")
    path.write_text("\n".join(rows) + "\n")
    return path


def _csv_without_schema(tmp_path):
    path = tmp_path / "other.csv"
    path.write_text("a,b\n1,2\n")
    return path


def _csv_with_powers(tmp_path, *powers):
    """A bf-full sweep CSV with one row per P_linear in powers."""
    path = tmp_path / "powers.csv"
    rows = [",".join(estimate.CSV_COLUMNS)]
    rows += [f"bf-full,0,{P},{0.1 * P**-2.0!r},0,0,0,1000,7" for P in powers]
    path.write_text("\n".join(rows) + "\n")
    return path


def _book_with(tmp_path, **fields):
    """A codebook file: _book_doc with fields replaced."""
    path = tmp_path / "book.json"
    path.write_text(json.dumps({**_book_doc(), **fields}))
    return path


def _sweep_with(p, **overrides):
    """`vlqsim sweep` on base_config with overrides, written to o.csv."""
    doc = base_config(samples=1000, **{"output-path": str(p / "o.csv")})
    doc.update(overrides)
    return ["sweep", "--config", write_config(p, doc)]


def _not_json(p):
    path = p / "cfg.json"
    path.write_text('{"t": 2,')
    return ["sweep", "--config", str(path)]


# (name, argv builder, exit code, part of the message): bad paths, files
# and configs that once raised, sampled or built before failing, or that
# no other test reaches
_UNWRITABLE = "it is a directory, or its directory is missing or read-only"
_BAD_FILES = [
    ("sweep-unwritable-output", lambda p: [
        "sweep", "--config", write_config(p, base_config(samples=1000)),
        "--output", str(p / "missing" / "x.csv")], 2, _UNWRITABLE),
    ("sweep-output-is-a-directory", lambda p: [
        "sweep", "--config", write_config(p, base_config(samples=1000)), "--output", str(p)],
     2, _UNWRITABLE),
    ("build-unwritable-output", lambda p: [
        "codebook", "build", "--t", "2", "--delta", "0.4",
        "--output", str(p / "missing" / "b.json")], 2, _UNWRITABLE),
    ("verify-missing-input", lambda p: [
        "codebook", "verify", "--input", str(p / "missing.json")], 2, "No such file"),
    ("verify-no-vectors", lambda p: [
        "codebook", "verify", "--input", str(_book_without_vectors(p))], 3, "lacks ['vectors']"),
    ("verify-nan-codeword", lambda p: [
        "codebook", "verify", "--input", str(_nan_book(p))], 3, "codewords must be finite"),
    ("sweep-no-vectors", lambda p: _sweep_on_book(p, _book_without_vectors(p)), 3,
     "lacks ['vectors']"),
    ("sweep-nan-codeword", lambda p: _sweep_on_book(p, _nan_book(p)), 3,
     "codewords must be finite"),
    ("fit-missing-csv", lambda p: ["fit", "--input", str(p / "missing.csv")], 2, "No such file"),
    ("fit-csv-without-schema", lambda p: ["fit", "--input", str(_csv_without_schema(p))], 2,
     "lacks the sweep CSV columns"),
    *[(f"fit-power-{power}", lambda p, power=power: [
        "fit", "--input", str(_csv_with_power(p, power))], 2, "must be finite and > 0")
      for power in ("0", "nan", "-5", "inf")],
    ("sweep-schedule-below-range", lambda p: [
        "sweep", "--config", write_config(p, base_config(
            strategy="bf-vlq", t=2, samples=1000, schedule=_LOGP,
            **{"P-grid-dB": [10.0, 20.0, 30.0], "output-path": str(p / "o.csv")}))], 2,
     "outside the invertible range"),
    ("sweep-workers-below-one", lambda p: [
        "sweep", "--config", write_config(p, base_config(samples=1000)), "--workers", "-3"], 2,
     "workers must be in [1, 1024]"),
    ("sweep-workers-above-cap", lambda p: _sweep_with(p) + ["--workers", "1025"], 2,
     "workers must be in [1, 1024]"),
    ("sweep-samples-above-cap", lambda p: _sweep_with(p, samples=10**10 + 1), 2,
     "samples must be an integer in [1, 10^10]"),
    ("sweep-samples-zero", lambda p: _sweep_with(p, samples=0), 2,
     "samples must be an integer in [1, 10^10]"),
    ("sweep-seed-negative", lambda p: _sweep_with(p, seed=-1), 2,
     "seed must be a 64-bit unsigned integer"),
    ("sweep-seed-2-64", lambda p: _sweep_with(p, seed=2**64), 2,
     "seed must be a 64-bit unsigned integer"),
    ("sweep-delta-zero", lambda p: _sweep_with(p, strategy="bf-flq", t=2, delta=0), 2,
     "delta must be in (0, 1)"),
    ("sweep-delta-one", lambda p: _sweep_with(p, strategy="bf-flq", t=2, delta=1), 2,
     "delta must be in (0, 1)"),
    ("sweep-codebook-path-not-a-string", lambda p: _sweep_with(
        p, strategy="bf-flq", t=2, **{"codebook-path": 3}), 2, "codebook-path must be a string"),
    ("sweep-schedule-third-key", lambda p: _sweep_with(
        p, strategy="bf-vlq", t=2, schedule={**_LOGP, "g": 1}), 2,
     'schedule must have exactly keys {"f", "c0"}'),
    ("sweep-schedule-c0-zero", lambda p: _sweep_with(
        p, strategy="bf-vlq", t=2, schedule={"f": "logP", "c0": 0}), 2,
     "schedule c0 must be positive"),
    ("sweep-config-not-json", _not_json, 2, "config is not valid JSON"),
    ("fit-header-only", lambda p: ["fit", "--input", str(_csv_with_powers(p))], 2,
     "no records in"),
    ("fit-two-rows", lambda p: ["fit", "--input", str(_csv_with_powers(p, 10, 1000))], 2,
     "need at least 3 records"),
    ("fit-top-decades-thin", lambda p: [
        "fit", "--input", str(_csv_with_powers(p, 1, 1.5, 2, 1000))], 2,
     "fewer than 3 records in the top decades"),
    *[(f"fit-top-decades-{decades}", lambda p, decades=decades: [
        "fit", "--input", str(_csv_with_powers(p, 1, 10, 100, 1000)), "--top-decades", decades],
       2, "top decades must be >= 1") for decades in ("0", "-1", "-400")],
    ("verify-non-numeric-entry", lambda p: ["codebook", "verify", "--input", str(_book_with(
        p, vectors=[[["one", 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]))], 3,
     "malformed codebook entries"),
    ("verify-vectors-not-t-long", lambda p: [
        "codebook", "verify", "--input", str(_book_with(p, t=3))], 3,
     "vector length inconsistent with t"),
]


@pytest.mark.parametrize(
    "argv, code, message", [case[1:] for case in _BAD_FILES], ids=[case[0] for case in _BAD_FILES]
)
def test_bad_files_get_exit_codes_not_tracebacks(
    tmp_path, capsys, monkeypatch, argv, code, message
):
    argv = argv(tmp_path)
    (tmp_path / "o.csv").write_text("an earlier sweep\n")
    before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}

    def refuse(*args, **kwargs):
        raise AssertionError("work started")

    # bad input starts no build, sweep, thread pool or draw: directions are
    # drawn only for a codebook, magnitudes for every plain-mode scheme
    monkeypatch.setattr(cli, "build_covering_codebook", refuse)
    monkeypatch.setattr(estimate, "ser_rate_sweep", refuse)
    monkeypatch.setattr(estimate, "_pool", refuse)
    monkeypatch.setattr(estimate, "direction_blocks", refuse)
    monkeypatch.setattr(estimate, "sample_magnitudes", refuse)
    assert main(argv) == code
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    # and writes, truncates or leaves no file
    assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before


@pytest.mark.parametrize(
    "error, code, prefix",
    [
        (QuadratureError("no convergence", 0.5, 1e-3), 1, "internal error: "),
        (RuntimeError("can't start new thread"), 1, "internal error: "),
        (codebook.CoveringError("certificate failed"), 3, "invariant failure: "),
        (ValueError("P grid must be nonempty, finite and positive"), 2, "error: "),
        (OSError("disk full"), 2, "error: "),
    ],
    ids=["quadrature", "thread-start", "covering", "value", "os"],
)
def test_internal_errors_are_not_config_errors(tmp_path, capsys, monkeypatch, error, code, prefix):
    # a RuntimeError that reaches main from inside the sweep is a fault of
    # the program, not of the config, and gets its own exit code
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(estimate, "ser_rate_sweep", fail)
    assert main(_sweep_with(tmp_path)) == code
    err = capsys.readouterr().err
    assert err.startswith(prefix) and str(error) in err and "Traceback" not in err


# plain-mode sweeps whose SER collapses in the top decades, so that no power
# law can be fitted there
_UNFITTABLE = {
    "bf-full": dict(t=2),
    "open-loop": dict(t=3),
    "pc-vlq": dict(t=3, delta=0.5),
}


@pytest.mark.parametrize("strategy", list(_UNFITTABLE))
def test_unfittable_gains_are_recorded_not_raised(tmp_path, capsys, strategy):
    out = tmp_path / "o.csv"
    doc = base_config(
        strategy=strategy, samples=150000, **_UNFITTABLE[strategy],
        **{"P-grid-dB": [5, 15, 25, 35, 40, 45, 50, 60], "output-path": str(out)},
    )
    assert main(["sweep", "--config", write_config(tmp_path, doc)]) == 0
    assert capsys.readouterr().err == ""
    assert len(estimate.read_records_csv(out)) == 8
    summary = json.loads((tmp_path / "o.csv.summary.json").read_text())
    assert summary["gains"] is None and summary["gains-reason"]


class TestSelftest:
    def test_all_pass_default_seed(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        for name in (
            "q-function-sandwich",
            "kraft-inequality",
            "covering-certificate",
            "ostbc-orthogonality",
            "pathwise-dominance",
            "converse-consistency",
            "quadrature-closed-form",
        ):
            assert name in out

    def test_seed_independent(self):
        for seed in (1, 12345):
            results = selftest(seed=seed, verbose=False)
            assert all(ok for _, ok, _ in results)
