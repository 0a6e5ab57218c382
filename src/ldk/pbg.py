"""Systems of contents and paired-bipolar-graphs problems.

A problem couples a flow graph ``G`` and a control graph ``H`` whose edges
share one index set, a group Z_m (m = 0 meaning Z), and a target element
``b``.  A capacity vector is a solution when the combined effect of every
maximal directed path of ``H``, read as edges of ``G``, is the system of
contents that removes ``b`` from the source of ``G`` and deposits it at
the sink.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple, Union

from .planegraph import (
    PlaneGraph,
    dual_graph,
    graph_from_json,
    graph_to_json,
    maximal_paths,
    transpose_graph,
)

Capacities = Union[Sequence[int], Mapping[int, int]]


class ProblemFormatError(ValueError):
    pass


@dataclass(frozen=True)
class GroupSpec:
    """The group Z_m: m = 0 is the integers, m = 1 the trivial group."""

    modulus: int = 0

    def __post_init__(self):
        if isinstance(self.modulus, bool) or not isinstance(self.modulus, int):
            raise ValueError("modulus must be an integer")
        if self.modulus < 0:
            raise ValueError("modulus must be >= 0")

    def reduce(self, x: int) -> int:
        return x % self.modulus if self.modulus else x

    def describe(self) -> str:
        return "Z" if self.modulus == 0 else f"Z_{self.modulus}"


INTEGERS = GroupSpec(0)


@dataclass
class ContentSystem:
    """A total map from the vertices of one graph to group elements."""

    values: Dict[object, int]
    group: GroupSpec = INTEGERS

    def __post_init__(self):
        self.values = {v: self.group.reduce(x) for v, x in self.values.items()}

    @classmethod
    def zero(cls, g: PlaneGraph, group: GroupSpec = INTEGERS) -> "ContentSystem":
        return cls({v: 0 for v in g.vertices}, group)

    def _compatible(self, other: "ContentSystem") -> None:
        if self.group != other.group:
            raise ValueError("content systems live over different groups")
        if set(self.values) != set(other.values):
            raise ValueError("content systems have different vertex domains")

    def __add__(self, other: "ContentSystem") -> "ContentSystem":
        self._compatible(other)
        return ContentSystem(
            {v: x + other.values[v] for v, x in self.values.items()}, self.group)

    def __sub__(self, other: "ContentSystem") -> "ContentSystem":
        self._compatible(other)
        return ContentSystem(
            {v: x - other.values[v] for v, x in self.values.items()}, self.group)

    def __neg__(self) -> "ContentSystem":
        return ContentSystem({v: -x for v, x in self.values.items()}, self.group)

    def total(self) -> int:
        return self.group.reduce(sum(self.values.values()))


def init_content(g: PlaneGraph, group: GroupSpec, b: int) -> ContentSystem:
    """``b`` sitting at the source, zero everywhere else."""
    values = {v: 0 for v in g.vertices}
    values[g.source] = b
    return ContentSystem(values, group)


def term_content(g: PlaneGraph, group: GroupSpec, b: int) -> ContentSystem:
    """``b`` sitting at the sink, zero everywhere else."""
    values = {v: 0 for v in g.vertices}
    values[g.sink] = b
    return ContentSystem(values, group)


def transp_content(g: PlaneGraph, group: GroupSpec, b: int) -> ContentSystem:
    """The change of contents when ``b`` moves from source to sink."""
    values = {v: 0 for v in g.vertices}
    values[g.source] = -b
    values[g.sink] = b
    return ContentSystem(values, group)


def _capacity(g: PlaneGraph, a: Capacities, j: int) -> int:
    if isinstance(a, Mapping):
        try:
            return a[j]
        except KeyError:
            raise IndexError(f"no capacity for edge index {j}") from None
    indices = g.edge_indices
    if len(a) != len(indices):
        raise ValueError(
            f"capacity vector has length {len(a)}, expected {len(indices)}")
    return a[indices.index(j)]


def edge_effect(g: PlaneGraph, a: Capacities, j: int,
                group: GroupSpec = INTEGERS) -> ContentSystem:
    """Moving the capacity of edge j along it: -a_j at its tail, +a_j at
    its head."""
    if j not in g.edges:
        raise IndexError(f"edge index {j} out of range")
    value = _capacity(g, a, j)
    edge = g.edges[j]
    values = {v: 0 for v in g.vertices}
    values[edge.tail] -= value
    values[edge.head] += value
    return ContentSystem(values, group)


def set_effect(g: PlaneGraph, a: Capacities, X: Iterable[int],
               group: GroupSpec = INTEGERS) -> ContentSystem:
    """Pointwise sum of the edge effects over ``X`` (order-independent);
    the vertex-sum of the result is always zero."""
    values = {v: 0 for v in g.vertices}
    for j in X:
        if j not in g.edges:
            raise IndexError(f"edge index {j} out of range")
        value = _capacity(g, a, j)
        edge = g.edges[j]
        values[edge.tail] -= value
        values[edge.head] += value
    return ContentSystem(values, group)


@dataclass
class PbgProblem:
    """Flow graph, control graph, group, and target; edges correspond by
    shared index.  Both graphs must be valid; this is not checked here.
    Graphs from files are validated when loaded; compiled graphs, their
    duals and their transposes are valid by construction."""

    flow: PlaneGraph
    control: PlaneGraph
    group: GroupSpec
    b: int

    def __post_init__(self):
        if self.flow.edge_indices != self.control.edge_indices:
            raise ValueError("flow and control graphs must share one edge index set")

    @property
    def n(self) -> int:
        return self.flow.n

    @property
    def edge_indices(self) -> Tuple[int, ...]:
        return self.flow.edge_indices


def is_solution(problem: PbgProblem, a: Capacities,
                path_limit: Optional[int] = None) -> bool:
    """True iff every maximal control path realizes the b-transporting
    system of contents on the flow graph."""
    kwargs = {} if path_limit is None else {"limit": path_limit}
    target = transp_content(problem.flow, problem.group, problem.b)
    for path in maximal_paths(problem.control, **kwargs):
        if set_effect(problem.flow, a, path, problem.group) != target:
            return False
    return True


def dual_problem(problem: PbgProblem) -> PbgProblem:
    """Interchange the two graphs and dualize both; group, target, and the
    index correspondence stay put."""
    return PbgProblem(
        flow=dual_graph(problem.control),
        control=dual_graph(problem.flow),
        group=problem.group,
        b=problem.b,
    )


def transpose_problem(problem: PbgProblem) -> PbgProblem:
    return PbgProblem(
        flow=transpose_graph(problem.flow),
        control=transpose_graph(problem.control),
        group=problem.group,
        b=problem.b,
    )


# ---------------------------------------------------------------------------
# file format

def problem_to_json(problem: PbgProblem) -> dict:
    return {
        "flow": graph_to_json(problem.flow),
        "control": graph_to_json(problem.control),
        "modulus": problem.group.modulus,
        "b": problem.b,
    }


def _load_graph(value, base_dir: Optional[Path]) -> PlaneGraph:
    if isinstance(value, str):
        path = Path(value)
        if base_dir is not None and not path.is_absolute():
            path = base_dir / path
        try:
            value = json.loads(path.read_text())
        except OSError as exc:
            raise ProblemFormatError(f"cannot read graph file {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ProblemFormatError(f"graph file {path} is not valid JSON") from exc
    return graph_from_json(value)


def problem_from_json(obj: dict, base_dir: Optional[Path] = None) -> PbgProblem:
    """Build a problem from ``{"flow": ..., "control": ..., "modulus": m,
    "b": ...}``; the graph entries may be inline objects or file paths."""
    if not isinstance(obj, dict):
        raise ProblemFormatError("problem must be a JSON object")
    for key in ("flow", "control", "modulus", "b"):
        if key not in obj:
            raise ProblemFormatError(f"problem is missing key {key!r}")
    modulus = obj["modulus"]
    if isinstance(modulus, bool) or not isinstance(modulus, int) or modulus < 0:
        raise ProblemFormatError("modulus must be a nonnegative integer")
    b = obj["b"]
    if isinstance(b, bool) or not isinstance(b, int):
        raise ProblemFormatError("b must be an integer")
    return PbgProblem(
        flow=_load_graph(obj["flow"], base_dir),
        control=_load_graph(obj["control"], base_dir),
        group=GroupSpec(modulus),
        b=b,
    )
