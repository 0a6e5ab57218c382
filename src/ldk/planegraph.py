"""Upward bipolar plane graphs with explicit facet structure.

A graph is stored purely combinatorially: every directed edge carries the
facet on its left and on its right, and the unbounded region is split into
an outer-left and an outer-right facet.  Geometry is never represented;
the conditions checked by :func:`validate` are the operative definition of
an admissible graph (Euler count V - E + F = 3, the two outer facets each
bounded by one source-to-sink path, every inner facet bounded by a left
and a right path sharing both endpoints).

Edge indices are arbitrary distinct positive integers in memory.  Graphs
compiled from terms index each edge by its variable, and the JSON file
format requires indices exactly 1..n.  :func:`graph_of_term` builds a
graph top-down in one pass over the term, a join splitting its region at
a new vertex and a meet along a new inner facet, and numbers vertices
and facets by first appearance along the edges in index order.

Validity has one owner per way a graph comes about: :func:`graph_from_json`
validates what it loads, and compiled graphs, their duals and their
transposes are valid by construction, so nothing validates them again.
"""

from __future__ import annotations

import json
from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple, Union

from .terms import Join, Term, Variable

VertexId = Union[int, str]
FacetId = Union[int, str]

DEFAULT_PATH_LIMIT = 10_000


class GraphValidationError(ValueError):
    """An operation required a valid graph; ``violations`` lists why not."""

    def __init__(self, violations: Sequence[str]):
        super().__init__("; ".join(violations))
        self.violations = list(violations)


class RepeatedVariableError(ValueError):
    pass


class PathLimitExceededError(RuntimeError):
    def __init__(self, limit: int):
        super().__init__(f"more than {limit} maximal directed paths")
        self.limit = limit


class GraphFormatError(ValueError):
    pass


class Edge(NamedTuple):
    tail: VertexId
    head: VertexId
    left: FacetId
    right: FacetId


class PlaneGraph:
    """Immutable by convention; construct once, never mutate.  Equal when
    all seven fields are equal; unhashable, since ``edges`` is a dict."""

    __slots__ = ("vertices", "edges", "facets", "source", "sink",
                 "outer_left", "outer_right")

    def __init__(self, vertices: frozenset, edges: Dict[int, Edge],
                 facets: frozenset, source: VertexId, sink: VertexId,
                 outer_left: FacetId, outer_right: FacetId):
        self.vertices = vertices
        self.edges = edges
        self.facets = facets
        self.source = source
        self.sink = sink
        self.outer_left = outer_left
        self.outer_right = outer_right

    def _values(self) -> tuple:
        return (self.vertices, self.edges, self.facets, self.source,
                self.sink, self.outer_left, self.outer_right)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    __hash__ = None

    def __repr__(self):
        return ("PlaneGraph(" + ", ".join(
            f"{name}={value!r}"
            for name, value in zip(self.__slots__, self._values())) + ")")

    @property
    def n(self) -> int:
        return len(self.edges)

    @property
    def edge_indices(self) -> Tuple[int, ...]:
        return tuple(sorted(self.edges))

    @property
    def inner_facets(self) -> Tuple[FacetId, ...]:
        inner = self.facets - {self.outer_left, self.outer_right}
        return tuple(sorted(inner, key=_sort_key))


def _sort_key(value):
    # total order over mixed int/str ids
    if isinstance(value, int) and not isinstance(value, bool):
        return (0, value, "")
    return (1, 0, str(value))


def sorted_vertices(g: PlaneGraph) -> List[VertexId]:
    return sorted(g.vertices, key=_sort_key)


# ---------------------------------------------------------------------------
# validation

def _single_path(g: PlaneGraph, indices: List[int]) -> Optional[Tuple[VertexId, VertexId]]:
    """Endpoints if the edges ``indices`` of ``g`` form one directed path,
    else None."""
    if not indices:
        return None
    by_tail: Dict[VertexId, int] = {}
    heads: Set[VertexId] = set()
    for idx in indices:
        edge = g.edges[idx]
        if edge.tail in by_tail:
            return None
        by_tail[edge.tail] = idx
        if edge.head in heads:
            return None
        heads.add(edge.head)
    starts = [t for t in by_tail if t not in heads]
    ends = [h for h in heads if h not in by_tail]
    if len(starts) != 1 or len(ends) != 1:
        return None
    current = starts[0]
    used = 0
    while current in by_tail:
        idx = by_tail.pop(current)
        current = g.edges[idx].head
        used += 1
    if used != len(indices) or current != ends[0]:
        return None
    return starts[0], current


def _is_acyclic(g: PlaneGraph) -> bool:
    indeg = {v: 0 for v in g.vertices}
    for edge in g.edges.values():
        indeg[edge.head] += 1
    queue = [v for v, d in indeg.items() if d == 0]
    seen = 0
    out: Dict[VertexId, List[VertexId]] = {v: [] for v in g.vertices}
    for edge in g.edges.values():
        out[edge.tail].append(edge.head)
    while queue:
        v = queue.pop()
        seen += 1
        for w in out[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    return seen == len(g.vertices)


def _is_connected(g: PlaneGraph) -> bool:
    if not g.vertices:
        return False
    neigh: Dict[VertexId, List[VertexId]] = {v: [] for v in g.vertices}
    for edge in g.edges.values():
        neigh[edge.tail].append(edge.head)
        neigh[edge.head].append(edge.tail)
    stack = [next(iter(g.vertices))]
    seen = set(stack)
    while stack:
        for w in neigh[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(g.vertices)


def facet_sides(g: PlaneGraph) -> Dict[FacetId, Tuple[List[int], List[int]]]:
    """Per facet, its left boundary (the edges with the facet on their
    right) and its right boundary (the edges with it on their left), each
    in ascending edge index order.  Every facet label of an edge must be
    in ``g.facets``."""
    sides: Dict[FacetId, Tuple[List[int], List[int]]] = {f: ([], []) for f in g.facets}
    for idx in sorted(g.edges):
        edge = g.edges[idx]
        sides[edge.right][0].append(idx)
        sides[edge.left][1].append(idx)
    return sides


def validate(g: PlaneGraph) -> List[str]:
    """All violations of the plane-graph invariants (empty when valid)."""
    bad: List[str] = []
    if len(g.vertices) < 2:
        bad.append("graph must have at least 2 vertices")
    if g.source not in g.vertices:
        bad.append(f"source {g.source!r} is not a vertex")
    if g.sink not in g.vertices:
        bad.append(f"sink {g.sink!r} is not a vertex")
    if g.source == g.sink:
        bad.append("source and sink must be distinct")
    if g.outer_left not in g.facets:
        bad.append(f"outer_left {g.outer_left!r} is not a facet")
    if g.outer_right not in g.facets:
        bad.append(f"outer_right {g.outer_right!r} is not a facet")
    if g.outer_left == g.outer_right:
        bad.append("outer facets must be distinct")
    if not g.edges:
        bad.append("graph must have at least one edge")
    for idx in sorted(g.edges):
        edge = g.edges[idx]
        if not isinstance(idx, int) or isinstance(idx, bool) or idx < 1:
            bad.append(f"edge index {idx!r} must be a positive integer")
        if edge.tail not in g.vertices or edge.head not in g.vertices:
            bad.append(f"edge {idx} has an endpoint outside the vertex set")
        if edge.tail == edge.head:
            bad.append(f"edge {idx} is a loop")
        if edge.left not in g.facets or edge.right not in g.facets:
            bad.append(f"edge {idx} has a facet label outside the facet set")
        if edge.left == edge.right:
            bad.append(f"edge {idx} has the same facet on both sides")
    if bad:
        return bad

    used_vertices = {e.tail for e in g.edges.values()} | {e.head for e in g.edges.values()}
    for v in sorted(g.vertices - used_vertices, key=_sort_key):
        bad.append(f"vertex {v!r} is not incident to any edge")
    sides = facet_sides(g)
    for f in sorted(g.facets, key=_sort_key):
        if sides[f] == ([], []):
            bad.append(f"facet {f!r} does not border any edge")

    if not _is_acyclic(g):
        bad.append("graph contains a directed cycle")
    indeg = {v: 0 for v in g.vertices}
    outdeg = {v: 0 for v in g.vertices}
    for edge in g.edges.values():
        indeg[edge.head] += 1
        outdeg[edge.tail] += 1
    sources = sorted((v for v in g.vertices if indeg[v] == 0), key=_sort_key)
    sinks = sorted((v for v in g.vertices if outdeg[v] == 0), key=_sort_key)
    if sources != [g.source]:
        bad.append(f"expected the unique source {g.source!r}, found {sources!r}")
    if sinks != [g.sink]:
        bad.append(f"expected the unique sink {g.sink!r}, found {sinks!r}")
    if not _is_connected(g):
        bad.append("graph is not connected")
    euler = len(g.vertices) - len(g.edges) + len(g.facets)
    if euler != 3:
        bad.append(f"Euler count V - E + F = {euler}, expected 3")

    # outer facets: one boundary path each, the outer-left facet on the
    # left of its edges and the outer-right facet on their right
    left_wrong, left_path = sides[g.outer_left]
    right_path, right_wrong = sides[g.outer_right]
    for name, path, wrong, other in (("outer_left", left_path, left_wrong, "right"),
                                     ("outer_right", right_path, right_wrong, "left")):
        for i in wrong:
            bad.append(f"edge {i} has the {name} facet on its {other} side")
        if _single_path(g, path) != (g.source, g.sink):
            bad.append(f"{name} boundary is not a single source-to-sink path")

    # inner facets: left and right boundary paths sharing both endpoints
    for facet in g.inner_facets:
        left_ends, right_ends = (_single_path(g, half) for half in sides[facet])
        if left_ends is None or right_ends is None:
            bad.append(f"facet {facet!r} boundary halves are not directed paths")
        elif left_ends != right_ends:
            bad.append(f"facet {facet!r} boundary halves do not share endpoints")
    return bad


# ---------------------------------------------------------------------------
# compilation from terms

def graph_of_term(term: Term) -> PlaneGraph:
    """Compile a repetition-free term into its plane graph.

    A variable ``x_i`` becomes a single edge indexed ``i``.  A join stacks
    the second operand atop the first (series composition: one middle
    vertex, both outer facets shared); a meet puts the first operand to
    the left of the second (parallel composition: both endpoints shared,
    one new inner facet between them).  The term is walked top-down with
    an explicit stack, each node handed the tail, head, left and right
    facet of the region it fills, so depth is not limited by recursion.

    Vertices and facets are then numbered 1, 2, ... in order of first
    appearance, reading the edges by ascending index and each edge as
    tail, head, left, right (vertices and facets counted separately).
    The result is valid by construction.  A variable met twice raises
    :class:`RepeatedVariableError`.
    """
    # raw labels: vertex 0 is the source and 1 the sink, facet 0 the outer
    # left and 1 the outer right; inner labels count up from 2
    raw: Dict[int, Tuple[int, int, int, int]] = {}
    vertices = facets = 2
    stack: List[Tuple[Term, int, int, int, int]] = [(term, 0, 1, 0, 1)]
    while stack:
        t, tail, head, left, right = stack.pop()
        if isinstance(t, Variable):
            if t.index in raw:
                raise RepeatedVariableError(
                    "term-to-graph compilation requires a repetition-free term")
            raw[t.index] = (tail, head, left, right)
        elif isinstance(t, Join):
            middle, vertices = vertices, vertices + 1
            stack.append((t.left, tail, middle, left, right))
            stack.append((t.right, middle, head, left, right))
        else:
            inner, facets = facets, facets + 1
            stack.append((t.left, tail, head, left, inner))
            stack.append((t.right, tail, head, inner, right))

    vmap: Dict[int, int] = {}
    fmap: Dict[int, int] = {}
    edges: Dict[int, Edge] = {}
    for idx in sorted(raw):
        tail, head, left, right = raw[idx]
        edges[idx] = Edge(
            tail=vmap.setdefault(tail, len(vmap) + 1),
            head=vmap.setdefault(head, len(vmap) + 1),
            left=fmap.setdefault(left, len(fmap) + 1),
            right=fmap.setdefault(right, len(fmap) + 1),
        )
    return PlaneGraph(
        vertices=frozenset(vmap.values()),
        edges=edges,
        facets=frozenset(fmap.values()),
        source=vmap[0],
        sink=vmap[1],
        outer_left=fmap[0],
        outer_right=fmap[1],
    )


# ---------------------------------------------------------------------------
# dual / transpose

def dual_graph(g: PlaneGraph) -> PlaneGraph:
    """The two-outer-facet dual: vertices are the facets of ``g`` and each
    edge runs from its left facet to its right facet (left-hand rule).

    Facet labels of the dual are chosen so that taking the dual twice
    yields exactly the transpose of ``g``.  ``g`` must be valid, and then
    so is its dual; this is not checked here.
    """
    edges = {
        idx: Edge(tail=e.left, head=e.right, left=e.head, right=e.tail)
        for idx, e in g.edges.items()
    }
    return PlaneGraph(
        vertices=frozenset(g.facets),
        edges=edges,
        facets=frozenset(g.vertices),
        source=g.outer_left,
        sink=g.outer_right,
        outer_left=g.sink,
        outer_right=g.source,
    )


def transpose_graph(g: PlaneGraph) -> PlaneGraph:
    """Reverse every edge; left/right facets, source/sink and the two
    outer facets swap accordingly."""
    edges = {
        idx: Edge(tail=e.head, head=e.tail, left=e.right, right=e.left)
        for idx, e in g.edges.items()
    }
    return PlaneGraph(
        vertices=g.vertices,
        edges=edges,
        facets=g.facets,
        source=g.sink,
        sink=g.source,
        outer_left=g.outer_right,
        outer_right=g.outer_left,
    )


# ---------------------------------------------------------------------------
# traversal

def _out_edges(g: PlaneGraph) -> Dict[VertexId, List[int]]:
    adj: Dict[VertexId, List[int]] = {v: [] for v in g.vertices}
    for idx in sorted(g.edges):
        adj[g.edges[idx].tail].append(idx)
    return adj


def maximal_paths(g: PlaneGraph, limit: int = DEFAULT_PATH_LIMIT) -> List[Tuple[int, ...]]:
    """All source-to-sink paths as edge index sequences, in depth-first
    order exploring edges by ascending index."""
    adj = _out_edges(g)
    paths: List[Tuple[int, ...]] = []
    stack: List[Tuple[VertexId, Tuple[int, ...]]] = [(g.source, ())]
    while stack:
        v, acc = stack.pop()
        if v == g.sink:
            paths.append(acc)
            if len(paths) > limit:
                raise PathLimitExceededError(limit)
            continue
        for idx in reversed(adj[v]):
            stack.append((g.edges[idx].head, acc + (idx,)))
    return paths


def first_path(g: PlaneGraph) -> Tuple[int, ...]:
    """The depth-first-first maximal path (smallest edge index greedily)."""
    adj = _out_edges(g)
    acc: List[int] = []
    v = g.source
    while v != g.sink:
        idx = adj[v][0]
        acc.append(idx)
        v = g.edges[idx].head
    return tuple(acc)


def iso_check(g1: PlaneGraph, g2: PlaneGraph) -> bool:
    """Does mapping edge i of g1 to edge i of g2 induce a well-defined
    vertex bijection preserving tails and heads?"""
    if set(g1.edges) != set(g2.edges):
        return False
    mapping: Dict[VertexId, VertexId] = {}

    def bind(a: VertexId, b: VertexId) -> bool:
        if a in mapping:
            return mapping[a] == b
        mapping[a] = b
        return True

    for idx in sorted(g1.edges):
        e1, e2 = g1.edges[idx], g2.edges[idx]
        if not (bind(e1.tail, e2.tail) and bind(e1.head, e2.head)):
            return False
    if len(set(mapping.values())) != len(mapping):
        return False
    return set(mapping) == set(g1.vertices) and set(mapping.values()) == set(g2.vertices)


# ---------------------------------------------------------------------------
# export / import

def dot_export(g: PlaneGraph, name: str = "G") -> str:
    """Deterministic DOT rendering; source on the bottom rank, sink on top,
    edges labeled by index."""
    def q(x) -> str:
        return json.dumps(str(x))

    lines = [f"digraph {name} {{", "  rankdir=BT;",
             f"  {{ rank=min; {q(g.source)}; }}",
             f"  {{ rank=max; {q(g.sink)}; }}"]
    for v in sorted_vertices(g):
        lines.append(f"  {q(v)};")
    for idx in sorted(g.edges):
        e = g.edges[idx]
        lines.append(f"  {q(e.tail)} -> {q(e.head)} [label=\"{idx}\"];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_to_json(g: PlaneGraph) -> dict:
    return {
        "vertices": sorted_vertices(g),
        "edges": [
            {"id": idx, "tail": g.edges[idx].tail, "head": g.edges[idx].head,
             "left": g.edges[idx].left, "right": g.edges[idx].right}
            for idx in sorted(g.edges)
        ],
        "source": g.source,
        "sink": g.sink,
        "outer_left": g.outer_left,
        "outer_right": g.outer_right,
    }


def _check_id(value, what: str):
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise GraphFormatError(f"{what} must be an integer or string, got {value!r}")
    return value


def graph_from_json(obj: dict) -> PlaneGraph:
    """Load the JSON graph format; edge ids must be exactly 1..n.

    This is where graphs from outside enter, so the result is validated
    here: a well-formed but invalid graph raises
    :class:`GraphValidationError` with the violations of :func:`validate`.
    """
    if not isinstance(obj, dict):
        raise GraphFormatError("graph object must be a JSON object")
    for key in ("vertices", "edges", "source", "sink", "outer_left", "outer_right"):
        if key not in obj:
            raise GraphFormatError(f"graph object is missing key {key!r}")
    if not isinstance(obj["vertices"], list) or not isinstance(obj["edges"], list):
        raise GraphFormatError("'vertices' and 'edges' must be arrays")
    vertices = frozenset(_check_id(v, "vertex id") for v in obj["vertices"])
    edges: Dict[int, Edge] = {}
    facets: Set[FacetId] = set()
    for entry in obj["edges"]:
        if not isinstance(entry, dict):
            raise GraphFormatError("each edge must be a JSON object")
        for key in ("id", "tail", "head", "left", "right"):
            if key not in entry:
                raise GraphFormatError(f"edge is missing key {key!r}")
        idx = entry["id"]
        if isinstance(idx, bool) or not isinstance(idx, int):
            raise GraphFormatError(f"edge id {idx!r} must be an integer")
        if idx in edges:
            raise GraphFormatError(f"duplicate edge id {idx}")
        edges[idx] = Edge(
            tail=_check_id(entry["tail"], "edge tail"),
            head=_check_id(entry["head"], "edge head"),
            left=_check_id(entry["left"], "edge left facet"),
            right=_check_id(entry["right"], "edge right facet"),
        )
        facets.update((entry["left"], entry["right"]))
    if sorted(edges) != list(range(1, len(edges) + 1)):
        raise GraphFormatError("edge ids must be exactly 1..n")
    facets.update((obj["outer_left"], obj["outer_right"]))
    graph = PlaneGraph(
        vertices=vertices,
        edges=edges,
        facets=frozenset(facets),
        source=_check_id(obj["source"], "source"),
        sink=_check_id(obj["sink"], "sink"),
        outer_left=_check_id(obj["outer_left"], "outer_left"),
        outer_right=_check_id(obj["outer_right"], "outer_right"),
    )
    violations = validate(graph)
    if violations:
        raise GraphValidationError(violations)
    return graph
