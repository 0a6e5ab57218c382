"""The benchmark's per-layer hooks must name functions that exist.

``perfbench/spans.py`` wraps ldk functions by module and attribute name;
a hook whose target is renamed or deleted turns its layer's metrics into
``null`` without failing the run, so a rename is caught here instead.
"""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_hook_resolves_to_a_callable():
    spans = _load_spans()
    missing = [f"{module}.{attr}" for module, attr, _, _ in spans.HOOKS
               if not callable(getattr(spans._resolve(module), attr, None))]
    assert missing == []
