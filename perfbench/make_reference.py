"""Regenerate the stored sweep reference in perfbench/reference/.

For each sweep codebook the benchmark uses, this builds the codebook the way
the sweep set-up does, saves it, and computes every scheme's SER at every
grid point by conditioning on the channel direction: the magnitude is
integrated out exactly with the Craig-form kernels of checks.py, over far
more directions than one benchmark sweep draws.  The directions come from
numpy's default generator, not from vlqsim's streams, so the reference stays
valid when a later change alters how the package draws channels.

    python3 perfbench/make_reference.py        # a few minutes on 2 cores
"""

from __future__ import annotations

import json
import math
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from bench import BOOK_SEED, BOOKS, P_GRID, REF_DIR, SCHEMES, STOP_STREAK  # noqa: E402
from vlqsim.channel import RngStream  # noqa: E402
from vlqsim.codebook import build_covering_codebook, save_codebook  # noqa: E402

REF_SEED = 20130128
CHUNK = 1 << 15
# Directions for the mean, and for the mean squared conditional SER, which
# only scales the plain-mode stderr and needs less precision.
DIRECTIONS = {2: 1 << 22, 4: 1 << 20}
SQUARE_DIRECTIONS = 1 << 18


def reference_for(t: int, delta: float) -> dict:
    book = build_covering_codebook(t, delta, RngStream(BOOK_SEED, 101), stop_streak=STOP_STREAK)
    save_codebook(book, REF_DIR / f"book-t{t}.json")
    gen = np.random.default_rng(REF_SEED + t)
    n_total = DIRECTIONS[t]
    sums = {(s, P): [0.0, 0.0, 0.0] for s in SCHEMES for P in P_GRID}
    for lo in range(0, n_total, CHUNK):
        c = checks.corr2(checks.unit_directions(gen, t, CHUNK), book.vectors)
        for scheme in SCHEMES:
            for P in P_GRID:
                acc = sums[scheme, P]
                m = checks.per_direction(scheme, t, delta, c, P)
                acc[0] += math.fsum(m)
                acc[1] += math.fsum(m * m)
                if lo < SQUARE_DIRECTIONS:
                    acc[2] += math.fsum(checks.per_direction(scheme, t, delta, c, P, square=True))
    out = {}
    for scheme in SCHEMES:
        out[scheme] = {}
        for P in P_GRID:
            s1, s2, q2 = sums[scheme, P]
            mean = s1 / n_total
            var = max(s2 / n_total - mean * mean, 0.0)
            out[scheme][repr(P)] = {
                "ser": mean,
                "ser_se": math.sqrt(var / n_total),
                "ser2": q2 / SQUARE_DIRECTIONS,
            }
    return {
        "t": t,
        "delta": delta,
        "codebook_size": len(book),
        "directions": n_total,
        "square_directions": SQUARE_DIRECTIONS,
        "generator_seed": REF_SEED + t,
        "schemes": out,
    }


def main() -> int:
    REF_DIR.mkdir(exist_ok=True)
    doc = {}
    for t, delta in sorted(set(BOOKS.values())):
        start = time.perf_counter()
        doc[f"t{t}"] = reference_for(t, delta)
        print(f"t={t} delta={delta}: {time.perf_counter() - start:.1f} s", flush=True)
    (REF_DIR / "values.json").write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
