"""The names the benchmark's tracer wraps: a refactor that drops or renames
one fails here, before the benchmark's traced run does."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [(module, path) for module, path, _ in tracing.TARGETS]


@pytest.mark.parametrize("module, path", _targets())
def test_traced_name_resolves(module, path):
    owner = importlib.import_module(f"qadv.{module}")
    for part in path.split("."):
        assert hasattr(owner, part), f"qadv.{module}.{path}"
        owner = getattr(owner, part)
    assert callable(owner)
