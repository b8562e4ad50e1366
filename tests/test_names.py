"""Names that other code looks up: the traced benchmark's targets, the
keyword arguments the benchmark passes, and every module's ``__all__``."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from vlqsim import codebook, estimate
from vlqsim.channel import RngStream

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
MODULES = ("bounds", "channel", "cli", "codebook", "estimate", "numerics", "quantizer", "stbc")


def test_traced_benchmark_targets_exist():
    # perfbench/spans.py patches these with setattr; a missing one would
    # crash the traced run instead of failing here
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    for owner, attr, _, _ in spans.TARGETS:
        assert hasattr(owner, attr), f"{owner.__name__}.{attr}"
    assert callable(RngStream.child)


@pytest.mark.parametrize(
    "fn, keywords",
    [
        (codebook.build_covering_codebook, ("stop_streak",)),
        (codebook.verify_covering, ("probes", "stream")),
        (estimate.ser_rate_sweep, ("conditioning",)),
    ],
)
def test_benchmark_keywords_exist(fn, keywords):
    # perfbench/bench.py passes these by keyword; bind_partial raises
    # TypeError for a parameter that no longer exists
    inspect.signature(fn).bind_partial(**dict.fromkeys(keywords))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"vlqsim.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
