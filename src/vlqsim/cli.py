"""Batch experiment driver.

Subcommands: codebook build|verify, sweep, fit, compare, bounds, selftest.
Exit codes: 0 success, 1 internal error (a RuntimeError other than a
failed covering certificate, such as a QuadratureError or a thread that
cannot start), 2 config error (including bad flags, unreadable or
unwritable paths and malformed CSVs), 3 invariant failure (including invalid
codebook files).  No subcommand runs adaptive quadrature outside selftest,
which reports its own failures.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import bounds as bounds_mod
from . import estimate as est
from .channel import RngStream
from .codebook import (
    BeamformingCodebook,
    CoveringError,
    build_covering_codebook,
    load_codebook,
    save_codebook,
    verify_covering,
)
from .numerics import q_function
from .quantizer import kraft_check, vlq_prefix_code
from .stbc import ostbc_generator

__all__ = ["SimulationConfig", "ConfigError", "run_config", "selftest", "main"]

# strategy name -> (t, codebook) -> scheme
_SCHEMES = {
    "bf-full": lambda t, book: est.FullCsitBeamforming(t),
    "bf-flq": lambda t, book: est.FixedLengthBeamforming(book),
    "bf-vlq": lambda t, book: est.VariableLengthBeamforming(book),
    "pc-full": lambda t, book: est.FullCsitPrecoding(t),
    "pc-vlq": lambda t, book: est.VariableLengthPrecoding(book),
    "open-loop": lambda t, book: est.OpenLoopPrecoding(t),
}
_STRATEGIES = tuple(_SCHEMES)
_CODED = ("bf-flq", "bf-vlq", "pc-vlq")
# config key -> SimulationConfig field, in the order to_dict writes them
_FIELDS = {
    "t": "t",
    "strategy": "strategy",
    "P-grid-dB": "P_grid_dB",
    "samples": "samples",
    "seed": "seed",
    "output-path": "output_path",
    "conditioning": "conditioning",
    "delta": "delta",
    "schedule": "schedule",
    "codebook-path": "codebook_path",
}
_SCHEDULE_F = {"logP": math.log, "sqrtP": math.sqrt}
# greedy-build stop streak of sweep codebooks and of `codebook build`
_STOP_STREAK = 400
# delta of a coded compare baseline for a config without a codebook source
_BASELINE_DELTA = 0.3


class ConfigError(ValueError):
    pass


def _integer(value, name: str) -> int:
    """A JSON integer; bool is rejected although it subclasses int."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name} must be an integer")
    return value


def _finite(value, name: str) -> float:
    """A finite JSON number (int or float, not bool) as a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a number")
    try:
        x = float(value)
    except OverflowError:
        x = math.inf
    if not math.isfinite(x):
        raise ConfigError(f"{name} must be finite")
    return x


def _check_grid(strategy: str, grid_dB) -> None:
    """bf-vlq's threshold (t+1) ln P needs P > 1 at every grid point."""
    if strategy == "bf-vlq" and 10.0 ** (grid_dB[0] / 10.0) <= 1.0:
        raise ConfigError(
            "P-grid-dB entries must be > 0 dB for bf-vlq: its threshold (t+1) ln P needs P > 1"
        )


@dataclass(frozen=True)
class SimulationConfig:
    t: int
    strategy: str
    P_grid_dB: tuple
    samples: int
    seed: int
    delta: float | None = None
    schedule: dict | None = None
    codebook_path: str | None = None
    output_path: str = "sweep.csv"
    conditioning: str = "radial"

    @classmethod
    def from_dict(cls, doc: dict) -> "SimulationConfig":
        if not isinstance(doc, dict):
            raise ConfigError("config must be a JSON object")
        unknown = set(doc) - set(_FIELDS)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key in ("t", "strategy", "P-grid-dB", "samples", "seed", "output-path"):
            if key not in doc:
                raise ConfigError(f"missing required key {key!r}")
        t = _integer(doc["t"], "t")
        if not 1 <= t <= 8:
            raise ConfigError("t must be an integer in [1, 8]")
        strategy = doc["strategy"]
        if strategy not in _STRATEGIES:
            raise ConfigError(f"strategy must be one of {_STRATEGIES}")
        grid = doc["P-grid-dB"]
        if not isinstance(grid, list) or not grid:
            raise ConfigError("P-grid-dB must be a nonempty list")
        grid = [_finite(g, "P-grid-dB entries") for g in grid]
        if any(abs(g) >= 3000.0 for g in grid):
            raise ConfigError("P-grid-dB entries must lie in (-3000, 3000) dB")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ConfigError("P-grid-dB must be strictly ascending")
        _check_grid(strategy, grid)
        samples = _integer(doc["samples"], "samples")
        if not 1 <= samples <= est.MAX_SAMPLES:
            raise ConfigError("samples must be an integer in [1, 10^10]")
        seed = _integer(doc["seed"], "seed")
        if not 0 <= seed < 2**64:
            raise ConfigError("seed must be a 64-bit unsigned integer")
        if not isinstance(doc["output-path"], str) or not doc["output-path"]:
            raise ConfigError("output-path must be a nonempty string")
        sources = ("delta", "schedule", "codebook-path")
        delta, schedule, cb_path = (doc.get(key) for key in sources)
        given = [key for key in sources if doc.get(key) is not None]
        if strategy not in _CODED and given:
            raise ConfigError(f"strategy {strategy} takes no codebook fields")
        if strategy in _CODED and not given:
            raise ConfigError(f"strategy {strategy} needs delta, schedule or codebook-path")
        if len(given) > 1:
            raise ConfigError(f"give exactly one of delta/schedule/codebook-path, got {given}")
        if delta is not None:
            delta = _finite(delta, "delta")
            if not 0.0 < delta < 1.0:
                raise ConfigError("delta must be in (0, 1)")
        if cb_path is not None and not isinstance(cb_path, str):
            raise ConfigError("codebook-path must be a string")
        if schedule is not None:
            if strategy != "bf-vlq":
                raise ConfigError("schedule form is only supported for bf-vlq")
            if not isinstance(schedule, dict) or set(schedule) != {"f", "c0"}:
                raise ConfigError('schedule must have exactly keys {"f", "c0"}')
            if not isinstance(schedule["f"], str) or schedule["f"] not in _SCHEDULE_F:
                raise ConfigError('schedule f must be "logP" or "sqrtP"')
            if _finite(schedule["c0"], "schedule c0") <= 0:
                raise ConfigError("schedule c0 must be positive")
        conditioning = doc.get("conditioning", "radial")
        if conditioning not in ("none", "radial"):
            raise ConfigError('conditioning must be "none" or "radial"')
        return cls(
            t=t,
            strategy=strategy,
            P_grid_dB=tuple(grid),
            samples=samples,
            seed=seed,
            delta=delta,
            schedule=None if schedule is None else dict(schedule),
            codebook_path=cb_path,
            output_path=doc["output-path"],
            conditioning=conditioning,
        )

    def to_dict(self) -> dict:
        doc = {key: getattr(self, field) for key, field in _FIELDS.items()}
        doc["P-grid-dB"] = list(self.P_grid_dB)
        if self.schedule is not None:
            doc["schedule"] = dict(self.schedule)
        return {key: value for key, value in doc.items() if value is not None}

    @property
    def P_grid(self) -> tuple:
        return tuple(10.0 ** (dB / 10.0) for dB in self.P_grid_dB)


def _load_config(path: str) -> SimulationConfig:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        doc = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return SimulationConfig.from_dict(doc)


def _load_book(path) -> BeamformingCodebook:
    """load_codebook with an invalid file reported as an invariant failure."""
    try:
        return load_codebook(path)
    except ValueError as exc:
        raise CoveringError(f"codebook file {path} failed validation: {exc}") from exc


def _writable(path) -> Path:
    """path as a Path; a ConfigError unless a file can be written there,
    checked before any draw or build rather than after."""
    out = Path(path)
    if out.is_dir() or not (out.parent.is_dir() and os.access(out.parent, os.W_OK)):
        raise ConfigError(
            f"cannot write {out}: it is a directory, or its directory is missing or read-only"
        )
    return out


def _codebook(config: SimulationConfig, delta: float) -> BeamformingCodebook:
    """The config's codebook-path file, else a book built at delta."""
    if config.codebook_path is not None:
        p = Path(config.codebook_path)
        if not p.exists():
            raise ConfigError(
                f"codebook file not found: {config.codebook_path} "
                "(build one with: vlqsim codebook build)"
            )
        book = _load_book(p)
        if book.t != config.t:
            raise ConfigError(f"codebook has t={book.t}, config has t={config.t}")
        return book
    return build_covering_codebook(
        config.t, delta, RngStream(config.seed, 101), stop_streak=_STOP_STREAK
    )


def _grid_schemes(config: SimulationConfig, strategies) -> list:
    """(P values, one scheme per strategy) for each run of grid points that
    share a codebook: the whole grid for a fixed delta or a codebook-path,
    each point alone, at its scheduled delta, for a schedule."""
    t = config.t
    if config.schedule is None:
        coded = any(s in _CODED for s in strategies)
        delta = _BASELINE_DELTA if config.delta is None else config.delta
        books = [(config.P_grid, _codebook(config, delta) if coded else None)]
    else:
        f, c0 = _SCHEDULE_F[config.schedule["f"]], config.schedule["c0"]
        books = [([P], _codebook(config, bounds_mod.delta_schedule(f(P), t, c0))) for P in config.P_grid]
    return [(grid, tuple(_SCHEMES[s](t, book) for s in strategies)) for grid, book in books]


def run_config(
    config: SimulationConfig, workers: int | None = None, output: str | None = None
) -> list:
    """Execute a sweep config; writes the CSV and a JSON summary next to it.

    ``workers`` threads run the sweep, by default one per usable CPU.  The
    summary's "gains" is null, with the reason in "gains-reason", when the
    top decades admit no fit.
    """
    if workers is not None and not 1 <= workers <= est.MAX_WORKERS:
        raise ConfigError("workers must be in [1, 1024]")
    out = _writable(output if output is not None else config.output_path)
    stream = RngStream(config.seed)
    records = []
    for grid, (spec,) in _grid_schemes(config, [config.strategy]):
        records.extend(
            est.ser_rate_sweep(
                [spec], grid, config.samples, stream,
                workers=workers, conditioning=config.conditioning,
            )
        )
    est.write_records_csv(records, out)
    summary = {"config": config.to_dict(), "records": len(records)}
    c1, _ = bounds_mod.derive_c1()
    summary["constants"] = {"c1": c1}
    summary["converse-violations"] = bounds_mod.converse_check(records, config.t, c1)
    if len(config.P_grid) >= 3 and config.P_grid[-1] / config.P_grid[0] >= 100.0:
        try:
            gains = est.estimate_gains(records, top_decades=2)
        except ValueError as exc:
            summary["gains"], summary["gains-reason"] = None, str(exc)
        else:
            summary["gains"] = {"diversity": gains.diversity, "array-gain": gains.array_gain}
    Path(str(out) + ".summary.json").write_text(json.dumps(summary, indent=1))
    return records


def selftest(seed: int = 0, verbose: bool = True) -> list:
    """Reduced invariant suite; returns (name, passed, detail) tuples."""
    results = []

    def check(name, fn):
        t0 = time.time()
        try:
            fn()
            results.append((name, True, f"{time.time() - t0:.1f}s"))
        except Exception as exc:  # noqa: BLE001 - report, do not crash
            results.append((name, False, f"{type(exc).__name__}: {exc}"))

    def q_sandwich():
        c1, _ = bounds_mod.derive_c1()
        x = np.arange(-5.0, 8.0, 0.01)
        q = q_function(x)
        assert np.all(q >= c1 * np.exp(-(x**2)) - 1e-15), "lower sandwich violated"
        pos = x[x >= 0.0]
        assert np.all(q_function(pos) <= 0.5 * np.exp(-(pos**2) / 2.0) + 1e-15), (
            "upper sandwich violated"
        )
        assert abs(q_function(0.0) - 0.5) < 1e-14

    def kraft():
        book = build_covering_codebook(2, 0.3, RngStream(seed, 11), stop_streak=200)
        ok, total = kraft_check(vlq_prefix_code(len(book)))
        assert ok, "prefix condition violated"
        assert total <= 1.0 + 1e-12, f"Kraft sum {total} > 1"

    def covering():
        book = build_covering_codebook(2, 0.3, RngStream(seed, 12), stop_streak=200)
        report = verify_covering(book, 0.3, probes=2000, stream=RngStream(seed, 13))
        assert report.passed, f"worst correlation^2 {report.worst_correlation_sq}"
        # fault injection: a corrupted codeword must be rejected on load
        bad = book.vectors.copy()
        bad[0] *= 1.5
        try:
            BeamformingCodebook(vectors=bad, delta=book.delta)
        except ValueError:
            pass
        else:
            raise AssertionError("non-unit codeword slipped through validation")

    def orthogonality():
        gen = np.random.default_rng(seed)
        for t in (2, 3, 4):
            code = ostbc_generator(t)
            for _ in range(100):
                s = gen.standard_normal(code.k) + 1j * gen.standard_normal(code.k)
                S = code.generator(s)
                err = np.max(np.abs(S.conj().T @ S - np.sum(np.abs(s) ** 2) * np.eye(t)))
                assert err < 1e-12, f"t={t} orthogonality defect {err}"

    def dominance():
        book = build_covering_codebook(2, 0.3, RngStream(seed, 14), stop_streak=200)
        specs = [_SCHEMES[s](2, book) for s in _CODED]
        full = est.FullCsitBeamforming(2)
        for spec in specs:
            ((_, _, frac, worst),) = est.paired_compare(
                spec, full, [10.0], 20000, RngStream(seed, 15)
            )
            assert frac == 1.0 and worst == 0.0, (
                f"{spec.quantizer_id} beat full-CSIT on some draw ({worst})"
            )

    def bound_consistency():
        book = build_covering_codebook(2, 0.3, RngStream(seed, 16), stop_streak=200)
        specs = [_SCHEMES[s](2, book) for s in _CODED]
        records = est.ser_rate_sweep(specs, [10.0, 100.0], 20000, RngStream(seed, 17))
        c1, _ = bounds_mod.derive_c1()
        violations = bounds_mod.converse_check(records, 2, c1)
        assert not violations, f"converse violations: {violations}"

    def quadrature():
        from .numerics import bpsk_mrc_ser

        for t in (1, 2, 3):
            for P in (1.0, 10.0, 100.0):
                a = est.ser_full_analytic(t, P)
                b = float(bpsk_mrc_ser(t, P))
                assert abs(a - b) <= 1e-8 * b, f"t={t} P={P}: {a} vs {b}"

    check("q-function-sandwich", q_sandwich)
    check("kraft-inequality", kraft)
    check("covering-certificate", covering)
    check("ostbc-orthogonality", orthogonality)
    check("pathwise-dominance", dominance)
    check("converse-consistency", bound_consistency)
    check("quadrature-closed-form", quadrature)
    if verbose:
        for name, ok, detail in results:
            print(f"{'PASS' if ok else 'FAIL'}  {name:24s} {detail}")
    return results


def _cmd_codebook(args) -> int:
    if args.action == "build":
        if not 1 <= args.t <= 8:
            raise ConfigError("t must be an integer in [1, 8]")
        _writable(args.output)
        book = build_covering_codebook(
            args.t, args.delta, RngStream(args.seed, 101), stop_streak=args.stop_streak
        )
        save_codebook(book, args.output)
        print(f"built |B| = {len(book)} codewords (t={args.t}, delta={args.delta}) -> {args.output}")
        return 0
    book = _load_book(args.input)
    report = verify_covering(
        book, args.delta if args.delta is not None else book.delta,
        probes=args.probes, stream=RngStream(args.seed, 102),
    )
    print(
        f"verify |B| = {len(book)}: worst correlation^2 {report.worst_correlation_sq:.6f} "
        f"{'>=' if report.passed else '<'} {1 - report.delta:.6f} "
        f"over {report.probes_tested} probes -> {'PASS' if report.passed else 'FAIL'}"
    )
    return 0 if report.passed else 3


def _cmd_sweep(args) -> int:
    config = _load_config(args.config)
    records = run_config(config, workers=args.workers, output=args.output)
    out = args.output if args.output is not None else config.output_path
    print(f"wrote {len(records)} records -> {out}")
    return 0


def _cmd_fit(args) -> int:
    records = est.read_records_csv(args.input)
    if not records:
        raise ConfigError(f"no records in {args.input}")
    by_q: dict[str, list] = {}
    for record in records:
        by_q.setdefault(record.quantizer_id, []).append(record)
    for qid, recs in by_q.items():
        gains = est.estimate_gains(recs, top_decades=args.top_decades)
        print(
            f"{qid}: diversity {gains.diversity:.4f}  array gain {gains.array_gain:.5g}  "
            f"max |residual| {gains.fit.max_abs_residual:.3g}"
        )
    return 0


def _cmd_compare(args) -> int:
    config = _load_config(args.config)
    _check_grid(args.baseline, config.P_grid_dB)
    runs = _grid_schemes(config, [config.strategy, args.baseline])
    print(f"pairwise {config.strategy} vs {args.baseline} ({config.samples} draws/point)")
    for grid, (spec, baseline) in runs:
        gaps = est.paired_compare(
            spec, baseline, grid, config.samples, RngStream(config.seed, 5),
            conditioning=config.conditioning,
        )
        for P, (gap, se, frac, worst) in zip(grid, gaps):
            print(
                f"  P = {P:10.4g}: mean gap {gap:+.4e} +- {se:.1e}  "
                f"A>=B on {100 * frac:.2f}% of draws  max violation {worst:+.2e}"
            )
    return 0


def _cmd_bounds(args) -> int:
    print(bounds_mod.constants_table(args.t, args.r, args.c0, args.delta))
    return 0


def _cmd_selftest(args) -> int:
    results = selftest(seed=args.seed)
    return 0 if all(ok for _, ok, _ in results) else 3


def _fraction(text: str) -> Fraction:
    """An argparse type: a rational such as 3/4 or 0.75."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a finite fraction: {text!r}") from None


def _seed(text: str) -> int:
    """An argparse type: an integer in [0, 2^64), as a config's seed."""
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if not 0 <= seed < 2**64:
        raise argparse.ArgumentTypeError(f"not an integer in [0, 2^64): {text!r}")
    return seed


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vlqsim",
        description="Variable-length limited-feedback quantizer simulations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_cb = sub.add_parser("codebook", help="build or verify covering codebooks")
    cb_sub = p_cb.add_subparsers(dest="action", required=True)
    p_build = cb_sub.add_parser("build")
    p_build.add_argument("--t", type=int, required=True)
    p_build.add_argument("--delta", type=float, required=True)
    p_build.add_argument("--seed", type=_seed, default=0)
    p_build.add_argument(
        "--stop-streak", type=int, default=_STOP_STREAK,
        help="probes in a row that add no codeword before the build stops, "
        "in [1, 10^7]; outside it, exit 2",
    )
    p_build.add_argument("--output", required=True)
    p_verify = cb_sub.add_parser("verify")
    p_verify.add_argument("--input", required=True)
    p_verify.add_argument("--delta", type=float, default=None)
    p_verify.add_argument(
        "--probes", type=int, default=20000,
        help="uniform probes to draw, in [1, 10^8]; outside it, exit 2",
    )
    p_verify.add_argument("--seed", type=_seed, default=0)

    p_sweep = sub.add_parser("sweep", help="run a configured SER/rate sweep")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument(
        "--workers", type=int, default=None,
        help="threads, by default one per usable CPU, in [1, 1024]; outside it, exit 2",
    )
    p_sweep.add_argument("--output", default=None)

    p_fit = sub.add_parser("fit", help="diversity/array-gain fit on a sweep CSV")
    p_fit.add_argument(
        "--input", required=True,
        help="sweep CSV; a P_linear that is not finite and > 0 exits 2",
    )
    p_fit.add_argument(
        "--top-decades", type=int, default=2,
        help="decades of P, counted down from the largest, that the fit uses; below 1, exit 2",
    )

    p_cmp = sub.add_parser("compare", help="pathwise comparison against a baseline")
    p_cmp.add_argument("--config", required=True)
    p_cmp.add_argument("--baseline", default="bf-full", choices=_STRATEGIES)

    p_bounds = sub.add_parser("bounds", help="print the bound constants table")
    p_bounds.add_argument("--t", type=int, default=2)
    p_bounds.add_argument("--r", type=_fraction, default=Fraction(1))
    p_bounds.add_argument("--c0", type=float, default=0.0224)
    p_bounds.add_argument("--delta", type=float, default=0.35)

    p_self = sub.add_parser("selftest", help="run the reduced invariant suite")
    p_self.add_argument("--seed", type=_seed, default=0)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "codebook": _cmd_codebook,
        "sweep": _cmd_sweep,
        "fit": _cmd_fit,
        "compare": _cmd_compare,
        "bounds": _cmd_bounds,
        "selftest": _cmd_selftest,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except CoveringError as exc:
        print(f"invariant failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
