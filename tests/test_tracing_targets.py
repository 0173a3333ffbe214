"""The benchmark's layer tracer wraps rinv module attributes by name; each
name it lists must still resolve, or `perfbench/run.py --trace 1` breaks."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    missing = [
        f"{module.__name__}.{name}"
        for name, modules, _ in tracing.TARGETS
        for module in modules
        if not callable(getattr(module, name, None))
    ]
    assert missing == []
