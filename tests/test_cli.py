"""CLI: config validation, determinism, subcommands, exit codes."""

import csv
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vlqsim.cli import ConfigError, SimulationConfig, main, run_config, selftest
from vlqsim.estimate import ser_full_analytic


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
        out = tmp_path / "o.csv"
        doc = base_config(
            strategy="bf-flq", t=2, delta=0.3, samples=20000,
            **{"output-path": str(out)},
        )
        cfg = write_config(tmp_path, doc)
        assert main(["compare", "--config", cfg, "--baseline", "bf-full"]) == 0
        text = capsys.readouterr().out
        assert "A>=B on 100.00%" in text

    def test_bounds_subcommand(self, capsys):
        assert main(["bounds", "--t", "2"]) == 0
        assert "C1" in capsys.readouterr().out


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
