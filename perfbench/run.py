"""Run the vlqsim benchmark.

    python3 perfbench/run.py --workload radial-t2 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py                # every workload, each in its own process
    python3 perfbench/run.py --trace 1      # the traced (per-layer) run of every workload

With --workload, one workload runs in this process and the last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics: the end-to-end metrics with --trace 0, the per-layer metrics
with --trace 1.  The line before it is the run's record: machine, details
and failure messages.  Both are also written to perfbench/out/.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

_START = time.perf_counter()  # set-up time counts from here: numpy and vlqsim load later

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
WORKLOADS = ("radial-t2", "plain-t2", "radial-t4", "codebook")
SETUP_SAMPLES = 9
MIN_ROUNDS = 3
SHOWN_FAILURES = 20


def _load_bench():
    sys.path.insert(0, str(ROOT / "src"))
    import bench

    return bench


def setup_sample(workload: str, scale: float) -> float:
    """Set-up time of a fresh process: imports, then the workload's set-up."""
    bench = _load_bench()
    bench.make_workload(workload, scale).setup()
    return time.perf_counter() - _START


def _setup_seconds(args) -> list[float]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-sample",
           "--workload", args.workload, "--scale", repr(args.scale)]
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def run_workload(args) -> int:
    setup_times = _setup_seconds(args)
    bench = _load_bench()
    workload = bench.make_workload(args.workload, args.scale)
    if args.trace:
        from spans import Tracer

        setup_tracer = Tracer()
        with setup_tracer.installed():
            workload.setup()
    else:
        workload.setup()
    workload.warm_up(args.seed)
    if args.trace:
        half = args.seconds / 2.0
        plain_times, plain_out = bench.measure(workload, args.seed, half, MIN_ROUNDS)
        tracer = Tracer()
        with tracer.installed():
            traced_times, traced_out = bench.measure(
                workload, args.seed, half, MIN_ROUNDS, first_index=len(plain_times), tracer=tracer
            )
        times, outputs = plain_times + traced_times, plain_out + traced_out
    else:
        times, outputs = bench.measure(workload, args.seed, args.seconds, MIN_ROUNDS)
        rss = bench.peak_rss_mb()  # before the checks, which are not the program's memory
    fails = workload.check(outputs, args.seed)
    failed = sum(1 for f in fails if f)
    if args.trace:
        values = bench.layer_metrics(workload, tracer, setup_tracer, traced_times, traced_out,
                                     plain_times, args.seed)
        metrics = {k: {"value": v, "unit": bench.LAYER_METRICS[k][0]} for k, v in values.items()}
    else:
        metrics = {
            "round_s": {"value": statistics.median(times), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
        }
    details = workload.details(times, outputs)
    details.update(rounds=len(times), round_times_s=times, setup_times_s=setup_times,
                   failed_ratio=failed / len(fails))
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "machine": bench.machine_record(args.seed),
        "details": details,
        "failures": [f"operation {i}: {msg}" for i, f in enumerate(fails) for msg in f],
    }
    result = {"correct": True, "attempted": len(fails), "failed": failed, "metrics": metrics}
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps({"record": record, "result": result},
                                                     indent=1))
    if args.trace:
        tracer.write(OUT_DIR / f"{stem}-spans.json")
        setup_tracer.write(OUT_DIR / f"{stem}-setup-spans.json")
    for msg in record["failures"][:SHOWN_FAILURES]:
        print(f"FAILED {msg}")
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({**record, "failures": record["failures"][:SHOWN_FAILURES]}))
    print(json.dumps(result))
    return 0


# The all-workload table: round_s and the seven end-to-end figures, each only
# where it applies; failed_ratio is failed / attempted.
SUMMARY = (
    ("round_s", "s"), ("draws_per_s", "1/s"), ("time_to_1pct_s", "s"), ("builds_per_s", "1/s"),
    ("verify_probes_per_s", "1/s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
    ("failed_ratio", "ratio"),
)


def run_all(args) -> int:
    """Every workload in its own process, then one table."""
    rows = {}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", repr(args.seconds),
               "--trace", str(args.trace), "--scale", repr(args.scale)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            print(f"{workload}: exited with {proc.returncode}", file=sys.stderr)
            return 1
        lines = proc.stdout.strip().splitlines()
        rows[workload] = (json.loads(lines[-2]), json.loads(lines[-1]))
    for workload, (record, result) in rows.items():
        print(f"{workload}: {result['failed']}/{result['attempted']} operations failed")
        if args.trace:
            figures = [(k, m["value"], m["unit"]) for k, m in result["metrics"].items()]
        else:
            found = {**record["details"],
                     **{k: m["value"] for k, m in result["metrics"].items()}}
            figures = [(k, found[k], unit) for k, unit in SUMMARY if k in found]
        for name, value, unit in figures:
            print(f"  {name:<28} {value:>14.6g} {unit}")
    print(json.dumps({w: result for w, (_, result) in rows.items()}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0, help=argparse.SUPPRESS)
    parser.add_argument("--setup-sample", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0 or args.scale <= 0:
        parser.error("--seed must be >= 0, --seconds and --scale > 0")
    if args.setup_sample:
        print(repr(setup_sample(args.workload, args.scale)))
        return 0
    return run_workload(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
