"""The benchmark's per-layer hooks and imports must name what exists.

``perfbench/spans.py`` wraps ldk functions by module and attribute name;
a hook whose target is renamed or deleted turns its layer's metrics into
``null`` without failing the run, so a rename is caught here instead.
"""

import ast
import importlib
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


def test_every_name_the_benchmark_imports_from_ldk_resolves():
    # a moved name would break the benchmark's output check or its pool
    # builder (``reference.py``) at run time; catch the move here instead
    imports = []
    for path in sorted(SPANS.parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.split(".")[0] == "ldk"):
                imports += [(path.name, node.module, alias.name)
                            for alias in node.names]
    assert {module for _, module, _ in imports} >= {"ldk.cli", "ldk.decision"}
    missing = [f"{file}: {module}.{name}" for file, module, name in imports
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []
