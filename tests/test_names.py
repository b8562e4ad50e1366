"""Names that other code looks up: the traced benchmark's targets, the
keyword arguments the benchmark passes, every module's ``__all__``, and
the names each module imports."""

import ast
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

from vlqsim import codebook, estimate
from vlqsim.channel import RngStream

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "perfbench" / "spans.py"
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


def _unused_imports(path: Path) -> list:
    """Names `path` imports and never reads; __all__ entries and
    ``from __future__`` imports are exempt."""
    tree = ast.parse(path.read_text())
    imported, used, exported = set(), set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    return sorted(imported - used - exported)


def test_no_unused_imports():
    found = {
        str(path.relative_to(ROOT)): names
        for folder in ("src", "tests")
        for path in sorted((ROOT / folder).rglob("*.py"))
        if (names := _unused_imports(path))
    }
    assert found == {}


def _foreign_imports(path: Path) -> list:
    """Top-level modules `path` imports that are neither numpy, the
    standard library nor the package itself (relative imports)."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found.update(a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.partition(".")[0])
    return sorted(found - {"numpy", "vlqsim"} - sys.stdlib_module_names)


def test_package_imports_only_numpy_and_stdlib():
    found = {
        str(path.relative_to(ROOT)): names
        for path in sorted((ROOT / "src" / "vlqsim").rglob("*.py"))
        if (names := _foreign_imports(path))
    }
    assert found == {}
