"""The names the benchmark's tracer wraps, and the spans each workload must
record: a refactor that drops, renames or stops calling one fails here,
before the benchmark's traced run does."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name: str):
    """bench/<name>.py as the module ``bench_<name>``, loaded once."""
    if f"bench_{name}" not in sys.modules:
        spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        # Registered first: dataclasses look their module up while it loads.
        sys.modules[spec.name] = module
        spec.loader.exec_module(module)
    return sys.modules[f"bench_{name}"]


def _targets():
    return [(module, path) for module, path, _ in _load("tracing").TARGETS]


@pytest.mark.parametrize("module, path", _targets())
def test_traced_name_resolves(module, path):
    owner = importlib.import_module(f"qadv.{module}")
    for part in path.split("."):
        assert hasattr(owner, part), f"qadv.{module}.{path}"
        owner = getattr(owner, part)
    assert callable(owner)


@pytest.mark.parametrize("name", list(_load("workloads").WORKLOADS))
def test_workload_records_every_expected_span(name, tmp_path):
    # One smoke-size run in this process under the benchmark's tracer.
    tracing, wl = _load("tracing"), _load("workloads").WORKLOADS[name]
    inputs = wl.setup(1, wl.smoke_sizes, tmp_path)
    tracer = tracing.Tracer(wl.opener, wl.item_key)
    tracer.install()
    try:
        wl.run(inputs, lambda item: setattr(tracer, "item", item))
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    calls = tracing.summarize(tracer.spans)
    assert [s for s in wl.expected_spans if not calls.get(f"{s}.calls")] == []
