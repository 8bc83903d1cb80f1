"""The library names the benchmark's tracer wraps and whose caches it reads."""

import importlib.util
import pathlib
import sys

SPANS_PY = pathlib.Path(__file__).parent.parent / "perfbench" / "spans.py"


def test_span_and_cache_targets_resolve(monkeypatch):
    # Loaded from its file without writing bytecode next to it.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PY)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for targets in spans.SPANS.values():
        for module, attr in targets:
            owner, name = spans._resolve(module, attr)
            assert callable(getattr(owner, name, None)), f"{module}.{attr}"
    for module, attr in spans.CACHES.values():
        owner, name = spans._resolve(module, attr)
        assert hasattr(getattr(owner, name, None), "cache_info"), f"{module}.{attr}"
