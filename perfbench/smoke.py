"""Smoke test of the benchmark itself (about a minute on 2 cores).

    python3 perfbench/smoke.py

1. Every workload, at a tiny size, prints every metric BENCHMARK.json names,
   with its unit, in the result line, untraced and traced.  This covers the
   workloads run.py offers beyond those BENCHMARK.json lists.
2. The checks catch faults: a sweep whose SER is halved and a codebook with
   one codeword removed each count as failed operations, while the
   unmodified ones pass.
Exits 0 when all of this holds, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCALE = 1.0 / 64.0
SEED = 3
PROBLEMS: list[str] = []


def expect(ok: bool, message: str) -> None:
    print(("ok   " if ok else "FAIL ") + message)
    if not ok:
        PROBLEMS.append(message)


def check_result_lines() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        wanted = {m["name"]: m["unit"] for m in spec[key]}
        for workload in WORKLOADS:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(SEED), "--seconds", "0.1", "--trace", str(trace),
                   "--scale", repr(SCALE)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
            tag = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                expect(False, f"{tag} exited {proc.returncode}: {proc.stderr[-400:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{tag}: result keys")
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            expect(got == wanted, f"{tag}: prints every {key} metric with its unit")


def check_fault_detection() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    import bench
    from vlqsim.codebook import BeamformingCodebook

    sweep = bench.make_workload("radial-t2", SCALE)
    sweep.setup()
    _, records = sweep.round(SEED, 0)
    expect(sweep.check([records], SEED) == [[]], "unmodified sweep passes its checks")
    halved = [dataclasses.replace(r, ser=0.5 * r.ser) for r in records]
    fails = sweep.check([halved], SEED)
    expect(len(fails[0]) > 0, f"sweep with SER halved fails: {fails[0][:1]}")

    cover = bench.make_workload("codebook")
    book = sweep.book
    op = {"t": book.t, "delta": book.delta, "book": book, "passed": True}
    fails = cover.check([[op]], SEED)
    expect(fails == [[]], "the sweep's t=2 codebook passes the cover check")
    op["book"] = BeamformingCodebook(book.vectors[1:], book.delta)
    fails = cover.check([[op]], SEED)
    expect(len(fails[0]) > 0, f"codebook with one codeword removed fails: {fails[0][:1]}")


def main() -> int:
    check_result_lines()
    check_fault_detection()
    print(f"{len(PROBLEMS)} problem(s)")
    return 1 if PROBLEMS else 0


if __name__ == "__main__":
    sys.exit(main())
