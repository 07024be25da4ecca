"""The benchmark's span tracer still finds every layer it wraps.

``perfbench/spans.py`` replaces hk functions and methods by name (methods
through the class ``__dict__``), so renaming one of them breaks a traced
benchmark run.  Instrumenting and restoring every target catches that.
"""

import importlib.util
from pathlib import Path

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans",
                                                  SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves_and_restores():
    spans = load_spans()
    originals = {}
    for _, module_name, path, _ in spans.TARGETS:
        module = importlib.import_module(module_name)
        owner, _, attr = path.rpartition(".")
        holder = getattr(module, owner) if owner else module
        originals[(module_name, path)] = (holder, attr, getattr(holder, attr))
    restore = spans.instrument(spans.Tracer())
    try:
        for holder, attr, original in originals.values():
            assert getattr(holder, attr) is not original
    finally:
        restore()
    for holder, attr, original in originals.values():
        assert getattr(holder, attr) is original
