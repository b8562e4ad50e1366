"""Workloads, timed rounds, checks and metrics of the vlqsim benchmark.

Importing this module loads numpy and the package, so run.py times the
import as part of set-up.  Every call into the package goes through a module
attribute (``estimate.ser_rate_sweep``, ``codebook.build_covering_codebook``)
so that the traced run can wrap it.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import time
from pathlib import Path

import numpy as np

import checks
from vlqsim import bounds, codebook, estimate, quantizer
from vlqsim.channel import RngStream
from vlqsim.codebook import CoveringError

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REF_DIR = HERE / "reference"

P_GRID = (1e2, 1e3, 1e4)
SCHEMES = ("bf-flq", "bf-vlq", "pc-vlq")
BOOK_SEED = 0
STOP_STREAK = 400  # what `vlqsim sweep` and `vlqsim codebook build` use
VERIFY_PROBES = 20000  # the `vlqsim codebook verify` default
COVER_CASES = ((2, 0.2), (3, 0.2), (4, 0.3))
CHECK_PROBES = 1 << 13
DELTA = {2: 0.2, 4: 0.3}
SWEEPS = {
    "radial-t2": {"t": 2, "draws": 1_000_000, "conditioning": "radial"},
    "plain-t2": {"t": 2, "draws": 1_000_000, "conditioning": "none"},
    "radial-t4": {"t": 4, "draws": 1 << 17, "conditioning": "radial"},
}
BOOKS = {name: (w["t"], DELTA[w["t"]]) for name, w in SWEEPS.items()}

# Per-layer metrics of the traced run: name -> (unit, better).  Times are
# self times and counts are per round of the traced phase, except the
# codebook's size and margin and the short-branch share, which describe the
# workload.
LAYER_METRICS = {
    "channel.sample_s": ("s", "lower"),
    "channel.draws": ("count", "lower"),
    "channel.streams": ("count", "lower"),
    "codebook.corr_s": ("s", "lower"),
    "codebook.corr_rows": ("count", "lower"),
    "codebook.corr_cmacs": ("count", "lower"),
    "codebook.corr_bytes": ("B", "lower"),
    "codebook.build_s": ("s", "lower"),
    "codebook.verify_s": ("s", "lower"),
    "codebook.build_probes": ("count", "lower"),
    "codebook.size": ("count", "lower"),
    "codebook.worst_corr2_margin": ("corr2", "higher"),
    "numerics.q_s": ("s", "lower"),
    "numerics.q_elems": ("count", "lower"),
    "numerics.quad_s": ("s", "lower"),
    "numerics.quad_calls": ("count", "lower"),
    "estimate.prepare_s": ("s", "lower"),
    "numerics.mrc_s": ("s", "lower"),
    "numerics.gamma_tail_s": ("s", "lower"),
    "estimate.sweep_s": ("s", "lower"),
    "estimate.chunks": ("count", "lower"),
    "estimate.self_s": ("s", "lower"),
    "quantizer.short_frac": ("ratio", "higher"),
    "trace.overhead": ("ratio", "lower"),
}


def _index_bits(size: int) -> int:
    return (size - 1).bit_length()


class Sweep:
    """One `ser_rate_sweep` call per round over the three quantizers.

    The codebook is built at a fixed seed the way `vlqsim sweep` builds it;
    the workload seed only drives the channel draws.  Specs are made afresh
    every round, so each round pays the per-P preparation a user pays.
    """

    builds_in_setup = True

    def __init__(self, name: str, scale: float = 1.0):
        w = SWEEPS[name]
        self.t = w["t"]
        self.delta = DELTA[self.t]
        self.conditioning = w["conditioning"]
        self.draws = max(1 << 12, int(w["draws"] * scale))

    def setup(self) -> None:
        built = codebook.build_covering_codebook(
            self.t, self.delta, RngStream(BOOK_SEED, 101), stop_streak=STOP_STREAK
        )
        stored = codebook.load_codebook(REF_DIR / f"book-t{self.t}.json")
        self.reference = json.loads((REF_DIR / "values.json").read_text())[f"t{self.t}"]["schemes"]
        # The reference holds for the stored codebook; a change to the build
        # leaves the sweep on that codebook so the check stays valid.
        self.book_matches = built.vectors.shape == stored.vectors.shape and bool(
            np.allclose(built.vectors, stored.vectors, rtol=0.0, atol=1e-12)
        )
        self.book = built if self.book_matches else stored
        self.built_probes = built.metadata["probes_during_build"]
        self.c1, _ = bounds.derive_c1()

    def warm_up(self, seed: int) -> None:
        # A whole round: radial-t4's first full-size round runs up to 20%
        # slower than the rest, while its large arrays are first allocated.
        self.round(seed, 1 << 40)

    def specs(self) -> list:
        book = self.book
        return [
            estimate.FixedLengthBeamforming(book),
            estimate.VariableLengthBeamforming(quantizer.VlqBeamformingSpec(book)),
            estimate.VariableLengthPrecoding(
                quantizer.VlqPrecodingSpec(codebook.precoding_codebook(book))
            ),
        ]

    def round(self, seed: int, index: int):
        specs = self.specs()
        start = time.perf_counter()
        records = estimate.ser_rate_sweep(
            specs, P_GRID, self.draws, RngStream(seed, index), conditioning=self.conditioning
        )
        return time.perf_counter() - start, records

    def check(self, outputs: list, seed: int) -> list[list[str]]:
        """Failure messages per operation; one sweep is one operation."""
        bits = _index_bits(len(self.book))
        return [
            checks.check_sweep(
                records, self.reference, self.conditioning, self.t, bits,
                len(bounds.converse_check(records, self.t, self.c1)),
            )
            for records in outputs
        ]

    def cover_margin(self, seed: int) -> float:
        gen = np.random.default_rng([seed, 1 << 20])
        return checks.worst_cover(self.book.vectors, gen, CHECK_PROBES) - (1.0 - self.delta)

    def details(self, times: list[float], outputs: list) -> dict:
        median = statistics.median(times)
        out = {
            "draws_per_s": self.draws * len(P_GRID) / median,
            "codebook_size": len(self.book),
            "codebook_matches_reference": self.book_matches,
        }
        if self.conditioning == "radial":
            top = max(P_GRID)
            per_round = [
                dt * (max(r.ser_stderr / r.ser for r in recs if r.P == top) / 0.01) ** 2
                for dt, recs in zip(times, outputs)
            ]
            out["time_to_1pct_s"] = statistics.median(per_round)
        return out

    def book_size(self, outputs: list) -> float:
        return len(self.book)

    def build_probes(self, outputs: list) -> int:
        return self.built_probes  # the one build, in set-up

    def short_frac(self, outputs: list) -> float:
        bits = _index_bits(len(self.book))
        shares = [
            1.0 - (r.rate - 1.0) / bits
            for records in outputs
            for r in records
            if r.quantizer_id in ("bf-vlq", "pc-vlq")
        ]
        return statistics.fmean(shares)


class Cover:
    """Build then verify a codebook for each (t, delta) per round.

    Round i builds from stream (seed, 2i) and verifies with (seed, 2i+1),
    as `vlqsim codebook build/verify` do with their seed.  A build that
    raises CoveringError, or whose codebook the benchmark's own probes show
    is not a delta-cover, is a failed operation.
    """

    builds_in_setup = False

    def __init__(self, scale: float = 1.0):
        self.check_probes = max(1 << 10, int(CHECK_PROBES * scale))

    def setup(self) -> None:
        pass

    def warm_up(self, seed: int) -> None:
        self.round(seed, 1 << 40)

    def round(self, seed: int, index: int):
        ops = []
        start = time.perf_counter()
        for t, delta in COVER_CASES:
            t0 = time.perf_counter()
            try:
                book = codebook.build_covering_codebook(
                    t, delta, RngStream(seed, 2 * index), stop_streak=STOP_STREAK
                )
            except CoveringError as exc:
                ops.append({"t": t, "delta": delta, "error": str(exc),
                            "build_s": time.perf_counter() - t0, "verify_s": 0.0})
                continue
            t1 = time.perf_counter()
            report = codebook.verify_covering(
                book, delta, probes=VERIFY_PROBES, stream=RngStream(seed, 2 * index + 1)
            )
            ops.append({"t": t, "delta": delta, "book": book, "passed": report.passed,
                        "build_s": t1 - t0, "verify_s": time.perf_counter() - t1})
        return time.perf_counter() - start, ops

    def check(self, outputs: list, seed: int) -> list[list[str]]:
        """Failure messages per operation; one build (and its verify) is one."""
        fails = []
        self.margins = []
        for i, ops in enumerate(outputs):
            for op in ops:
                fails.append(self._check_op(op, np.random.default_rng([seed, i, op["t"]])))
        return fails

    def _check_op(self, op: dict, gen: np.random.Generator) -> list[str]:
        if "error" in op:
            return [f"CoveringError: {op['error']}"]
        t, delta, vectors = op["t"], op["delta"], op["book"].vectors
        if vectors.shape[1] != t or np.max(np.abs(np.linalg.norm(vectors, axis=1) - 1.0)) > 1e-9:
            return [f"t={t}: codewords are not unit vectors in C^{t}"]
        worst = checks.worst_cover(vectors, gen, self.check_probes)
        self.margins.append(worst - (1.0 - delta))
        if worst < 1.0 - delta:
            return [f"t={t} delta={delta}: not a cover, worst corr^2 {worst:.5f} < "
                    f"{1.0 - delta:.2f} (verify_covering passed={op['passed']})"]
        return []

    def cover_margin(self, seed: int) -> float:
        return min(self.margins) if self.margins else 0.0

    def details(self, times: list[float], outputs: list) -> dict:
        ops = [op for round_ops in outputs for op in round_ops]
        verified = [op for op in ops if "book" in op]
        return {
            "builds_per_s": len(ops) / sum(op["build_s"] for op in ops),
            "verify_probes_per_s": VERIFY_PROBES * len(verified)
            / max(sum(op["verify_s"] for op in verified), 1e-300),
            "codebook_size": self.book_size(outputs),
        }

    def book_size(self, outputs: list) -> float:
        sizes = [len(op["book"]) for ops in outputs for op in ops if "book" in op]
        return statistics.fmean(sizes) if sizes else 0.0

    def short_frac(self, outputs: list) -> float:
        return 0.0

    def build_probes(self, outputs: list) -> int:
        return sum(op["book"].metadata["probes_during_build"]
                   for ops in outputs for op in ops if "book" in op)


def make_workload(name: str, scale: float = 1.0):
    return Cover(scale) if name == "codebook" else Sweep(name, scale)


def measure(workload, seed: int, seconds: float, min_rounds: int, first_index: int = 0,
            tracer=None):
    """Run rounds until `seconds` have passed (and at least min_rounds)."""
    times, outputs = [], []
    end = time.perf_counter() + seconds
    index = first_index
    while len(times) < min_rounds or time.perf_counter() < end:
        if tracer is not None:
            tracer.round_id = index
        dt, out = workload.round(seed, index)
        times.append(dt)
        outputs.append(out)
        index += 1
    return times, outputs


def layer_metrics(workload, tracer, setup_tracer, traced_times, traced_outputs, untraced_times,
                  seed) -> dict:
    """Per-layer metrics from the traced phase's spans and counters.

    A sweep builds its codebook once, in set-up, so its build layers come
    from the traced set-up and are per set-up; the codebook workload builds
    in every round, so its build layers are per round like the rest.
    """
    rounds = len(traced_times)
    own = tracer.self_times()
    count = tracer.counts
    per_round = {
        "channel.sample_s": own["channel.sample"],
        "channel.draws": count["channel.draws"],
        "channel.streams": count["channel.streams"],
        "codebook.corr_s": own["codebook.corr"],
        "codebook.corr_rows": count["codebook.corr_rows"],
        "codebook.corr_cmacs": count["codebook.corr_cmacs"],
        "codebook.corr_bytes": count["codebook.corr_bytes"],
        "numerics.q_s": own["numerics.q"],
        "numerics.q_elems": count["numerics.q_elems"],
        "numerics.quad_s": own["numerics.quad"],
        "numerics.quad_calls": count["numerics.quad_calls"],
        "estimate.prepare_s": own["estimate.prepare"],
        "numerics.mrc_s": own["numerics.mrc"],
        "numerics.gamma_tail_s": own["numerics.gamma_tail"],
        "estimate.sweep_s": tracer.total_time("estimate.sweep"),
        "estimate.chunks": tracer.span_count("channel.sample"),
        "estimate.self_s": own["estimate.sweep"],
    }
    out = {name: float(v) / rounds for name, v in per_round.items()}
    build, build_rounds = (setup_tracer, 1) if workload.builds_in_setup else (tracer, rounds)
    build_own = build.self_times()
    out["codebook.build_s"] = build_own["codebook.build"] / build_rounds
    out["codebook.verify_s"] = build_own["codebook.verify"] / build_rounds
    out["codebook.build_probes"] = float(workload.build_probes(traced_outputs)) / build_rounds
    out["codebook.size"] = float(workload.book_size(traced_outputs))
    out["codebook.worst_corr2_margin"] = float(workload.cover_margin(seed))
    out["quantizer.short_frac"] = float(workload.short_frac(traced_outputs))
    out["trace.overhead"] = statistics.median(traced_times) / statistics.median(untraced_times) - 1.0
    return {name: out[name] for name in LAYER_METRICS}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS numpy has loaded, if any."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str | None:
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "vlqsim").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def machine_record(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration")},
        "blas_threads": _blas_threads(),
        "vlqsim_commit": _git_commit(),
        "vlqsim_source_sha256": _source_digest(),
        "seed": seed,
    }
