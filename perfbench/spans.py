"""Per-layer spans and counts, recorded from outside the program.

A ``Tracer`` replaces public ldk functions with timing wrappers at the
module attribute their callers look up (``ldk.decision.one_balance`` is
the name ``check_identity`` calls, ``ldk.linsolve.smith_normal_form`` the
one ``solve`` calls), and puts the originals back on ``uninstall``.  Only
functions called O(10) times per op are wrapped.  A span is
``[op, name, start, end, parent]``; spans stay in memory until the run
writes them out.  A hook whose function no longer exists is reported by
name, and its layer's metrics become ``null``.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Sequence

LAYERS = ("terms", "balance", "planegraph", "pbg", "linsolve", "decision", "cli")


def _leaves(terms: Sequence) -> int:
    """Leaf count of parsed terms, walked without recursion."""
    count, stack = 0, list(terms)
    while stack:
        node = stack.pop()
        if hasattr(node, "index"):
            count += 1
        else:
            stack += (node.left, node.right)
    return count


def _count_parse(counts: Counter, result) -> None:
    counts["terms.leaves"] += _leaves([side for ident in result
                                       for side in (ident.lhs, ident.rhs)])


def _count_balance(counts: Counter, result) -> None:
    balanced, trace = result
    counts["balance.splits"] += sum(hasattr(s, "fresh") for s in trace.steps)
    counts["balance.vars_out"] += _leaves([balanced.lhs])


def _count_system(counts: Counter, result) -> None:
    rows = result[0].rows
    counts["linsolve.rows"] += len(rows)
    counts["linsolve.useful_rows"] += len({row for row in rows if any(row)})


def _count_snf(counts: Counter, result) -> None:
    diagonal = result[1].rows
    counts["linsolve.factorizations"] += 1
    entries = [row[i] for i, row in enumerate(diagonal) if i < len(row)]
    counts["linsolve.rank"] += sum(1 for d in entries if d)
    counts["linsolve.nonunit_factors"] += sum(1 for d in entries if abs(d) > 1)


def _counter(key: str) -> Callable[[Counter, object], None]:
    def count(counts: Counter, result) -> None:
        counts[key] += 1
    return count


def _count_paths(counts: Counter, result) -> None:
    counts["planegraph.control_paths"] += len(result)


# (module, attribute, span name, count); the span's layer is its prefix
HOOKS = (
    ("ldk.cli", "parse_identity", "terms.parse", _count_parse),
    ("ldk.cli", "pretty_identity", "terms.pretty", None),
    ("ldk.decision", "dual_identity", "terms.dual", None),
    ("ldk.cli", "absorb_missing", "balance.absorb", None),
    ("ldk.cli", "one_balance", "balance.one_balance", _count_balance),
    ("ldk.decision", "one_balance", "balance.one_balance", _count_balance),
    ("ldk.decision", "graph_of_term", "planegraph.graph_of_term", None),
    ("ldk.pbg", "dual_graph", "planegraph.dual_graph", None),
    ("ldk.planegraph", "validate", "planegraph.validate",
     _counter("planegraph.validations")),
    ("ldk.linsolve", "maximal_paths", "planegraph.maximal_paths", _count_paths),
    ("ldk.linsolve", "first_path", "planegraph.first_path", None),
    ("ldk.pbg.PbgProblem", "__post_init__", "pbg.problem",
     _counter("pbg.problems")),
    ("ldk.decision", "dual_problem", "pbg.dual_problem", None),
    ("ldk.decision", "solve_problem", "linsolve.solve", None),
    ("ldk.linsolve", "assemble_system", "linsolve.assemble", _count_system),
    ("ldk.linsolve", "solve", "linsolve.solve", None),
    ("ldk.linsolve", "smith_normal_form", "linsolve.snf", _count_snf),
    ("ldk.cli", "check_identity", "decision.check", _counter("decision.checks")),
    ("ldk.decision", "check_identity", "decision.check",
     _counter("decision.checks")),
    ("ldk.cli", "check_self_duality", "decision.self_duality", None),
    ("ldk.decision", "build_problem", "decision.build_problem", None),
)


def _resolve(path: str):
    """Import ``a.b.C`` as module ``a.b`` and attribute ``C`` if needed."""
    try:
        return importlib.import_module(path)
    except ImportError:
        module, _, attr = path.rpartition(".")
        return getattr(importlib.import_module(module), attr, None)


class Tracer:
    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Dict[int, Counter] = {}
        self.missing: List[str] = []
        self._stack: List[int] = []
        self._op = -1
        self._saved: List[tuple] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        self.missing = []
        for module, attr, name, count in HOOKS:
            owner = _resolve(module)
            original = getattr(owner, attr, None) if owner is not None else None
            if not callable(original):
                self.missing.append(f"{module}.{attr}")
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, count))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def missing_layers(self) -> Dict[str, str]:
        """Layer -> first missing hook of that layer."""
        by_name = {f"{m}.{a}": n.split(".")[0] for m, a, n, _ in HOOKS}
        layers: Dict[str, str] = {}
        for hook in self.missing:
            layers.setdefault(by_name[hook], hook)
        return layers

    def _wrap(self, fn: Callable, name: str, count) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.span(name, fn, *args, **kwargs)
            if count is not None:
                count(self.counts[self._op], result)
            return result
        return wrapper

    # -- recording --------------------------------------------------------

    def span(self, name: str, fn: Callable, *args, **kwargs):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [self._op, name, time.perf_counter(), None, parent]
        self.spans.append(record)
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            record[3] = time.perf_counter()
            self._stack.pop()

    def begin_op(self, op: int) -> None:
        self._op = op
        self._stack.clear()
        self.counts[op] = Counter()

    # -- summary ----------------------------------------------------------

    def self_times(self, ops: Optional[set] = None) -> Counter:
        """Seconds of self time per span name, over spans of ``ops``."""
        child = [0.0] * len(self.spans)
        for op, _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: Counter = Counter()
        for i, (op, name, start, end, _) in enumerate(self.spans):
            if ops is None or op in ops:
                totals[name] += end - start - child[i]
        return totals

    def to_json(self) -> dict:
        return {"missing": self.missing,
                "counts": {str(op): dict(c) for op, c in self.counts.items()},
                "spans": self.spans}
