"""In-memory span recorder for the traced benchmark run.

The recorder wraps package functions from the benchmark's side (no file of
the package changes): each call records a span (name, start, end, parent
span, round id) and bumps work counters.  A layer's self time is its spans'
duration minus the time their direct children cover.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict

import numpy as np

from vlqsim import codebook, estimate
from vlqsim.channel import RngStream
from vlqsim.codebook import BeamformingCodebook
from vlqsim.estimate import VariableLengthPrecoding


def _count_draws(counts, args, kwargs):
    counts["channel.draws"] += kwargs.get("n", args[2] if len(args) > 2 else 0)


def _count_q(counts, args, kwargs):
    counts["numerics.q_elems"] += np.size(args[0])


def _count_quad(counts, args, kwargs):
    counts["numerics.quad_calls"] += 1


def _count_corr(counts, args, kwargs):
    book, h = args[0], np.atleast_2d(args[1])
    rows = len(h)
    counts["codebook.corr_rows"] += rows
    counts["codebook.corr_cmacs"] += rows * len(book) * book.t
    counts["codebook.corr_bytes"] += 16 * rows * len(book)


# (owner, attribute, span name, counter) for every traced call.
TARGETS = (
    (estimate, "sample_channels", "channel.sample", _count_draws),
    (estimate, "q_function", "numerics.q", _count_q),
    (estimate, "bpsk_mrc_ser", "numerics.mrc", None),
    (estimate, "gamma_tail", "numerics.gamma_tail", None),
    (estimate, "integrate_gamma_weighted", "numerics.quad", _count_quad),
    (estimate, "ser_rate_sweep", "estimate.sweep", None),
    (BeamformingCodebook, "max_correlation_sq", "codebook.corr", _count_corr),
    (VariableLengthPrecoding, "prepare", "estimate.prepare", None),
    (codebook, "build_covering_codebook", "codebook.build", None),
    (codebook, "verify_covering", "codebook.verify", None),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, round id]
        self.counts: dict[str, float] = defaultdict(float)
        self.round_id = -1
        self._stack: list[int] = []

    def _wrap(self, name, fn, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            span = [name, 0.0, 0.0, parent, self.round_id]
            self.spans.append(span)
            self._stack.append(index)
            if count is not None:
                count(self.counts, args, kwargs)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every target for the duration of the block."""
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in TARGETS]
        child = RngStream.child

        def counted_child(stream, *extra):
            self.counts["channel.streams"] += 1
            return child(stream, *extra)

        try:
            for (owner, attr, name, count), (_, _, fn) in zip(TARGETS, saved):
                setattr(owner, attr, self._wrap(name, fn, count))
            RngStream.child = counted_child
            yield self
        finally:
            for owner, attr, fn in saved:
                setattr(owner, attr, fn)
            RngStream.child = child

    def self_times(self) -> dict[str, float]:
        """Total self time per span name."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _, _), inner in zip(self.spans, child_time):
            out[name] += end - start - inner
        return out

    def total_time(self, name: str) -> float:
        return sum(end - start for n, start, end, _, _ in self.spans if n == name)

    def span_count(self, name: str) -> int:
        return sum(1 for span in self.spans if span[0] == name)

    def write(self, path) -> None:
        base = min((span[1] for span in self.spans), default=0.0)
        doc = {
            "fields": ["name", "start_s", "end_s", "parent", "round"],
            "spans": [[n, s - base, e - base, p, r] for n, s, e, p, r in self.spans],
            "counts": dict(self.counts),
        }
        path.write_text(json.dumps(doc))
