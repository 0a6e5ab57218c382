import random

import pytest

from conftest import random_repetition_free_term, two_parallel_edges_json
from ldk.planegraph import (
    Edge,
    GraphFormatError,
    GraphValidationError,
    PathLimitExceededError,
    PlaneGraph,
    RepeatedVariableError,
    dot_export,
    dual_graph,
    first_path,
    graph_from_json,
    graph_of_term,
    graph_to_json,
    iso_check,
    maximal_paths,
    transpose_graph,
    validate,
)
from ldk.terms import Join, Meet, Variable, dual_term, parse_term

R_TEXT = r"(x1 \/ (x2 /\ (x3 \/ x4)) \/ x5) /\ (((x6 \/ x7) /\ (x8 \/ x9)) \/ x10)"


def graph_of(text):
    return graph_of_term(parse_term(text))


def euler(g):
    return len(g.vertices) - g.n + len(g.facets)


def test_single_variable_graph():
    g = graph_of_term(Variable(1))
    assert len(g.vertices) == 2 and g.n == 1 and len(g.facets) == 2
    edge = g.edges[1]
    assert edge.tail == g.source and edge.head == g.sink
    assert {edge.left, edge.right} == {g.outer_left, g.outer_right}
    assert validate(g) == []


def test_join_graph_is_a_chain():
    g = graph_of(r"x1 \/ x2")
    assert len(g.vertices) == 3 and g.n == 2 and len(g.facets) == 2
    assert all(e.left == g.outer_left for e in g.edges.values())
    assert all(e.right == g.outer_right for e in g.edges.values())
    assert g.edges[1].head == g.edges[2].tail
    assert validate(g) == []


def test_meet_graph_is_parallel():
    g = graph_of(r"x1 /\ x2")
    assert len(g.vertices) == 2 and g.n == 2 and len(g.facets) == 3
    assert len(g.inner_facets) == 1
    assert validate(g) == []


def test_example_term_graph_counts():
    g = graph_of(R_TEXT)
    assert len(g.vertices) == 8 and g.n == 10 and len(g.facets) == 5
    assert len(g.inner_facets) == 3
    assert euler(g) == 3
    assert validate(g) == []


def test_graph_of_term_ids():
    # vertices and facets numbered by first appearance along edges 1..n
    g = graph_of(r"(x1 /\ (x2 \/ x3)) \/ (x4 /\ x5)")
    assert graph_to_json(g) == {
        "vertices": [1, 2, 3, 4],
        "edges": [{"id": 1, "tail": 1, "head": 2, "left": 1, "right": 2},
                  {"id": 2, "tail": 1, "head": 3, "left": 2, "right": 3},
                  {"id": 3, "tail": 3, "head": 2, "left": 2, "right": 3},
                  {"id": 4, "tail": 2, "head": 4, "left": 1, "right": 4},
                  {"id": 5, "tail": 2, "head": 4, "left": 4, "right": 3}],
        "source": 1,
        "sink": 4,
        "outer_left": 1,
        "outer_right": 3,
    }


def test_graph_of_deep_term():
    # 5000 leaves nest 4999 deep, far beyond the interpreter's recursion limit
    t = Variable(1)
    for i in range(2, 5001):
        t = (Join if i % 2 else Meet)(t, Variable(i))
    g = graph_of_term(t)
    assert g.n == 5000
    assert validate(g) == []


def test_graph_of_term_rejects_repetitions():
    with pytest.raises(RepeatedVariableError, match="repetition-free term"):
        graph_of_term(parse_term(r"x1 /\ x1"))


def test_dual_of_single_edge():
    g = graph_of_term(Variable(1))
    d = dual_graph(g)
    assert d.source == g.outer_left and d.sink == g.outer_right
    assert d.edges[1] == Edge(tail=g.outer_left, head=g.outer_right,
                              left=g.sink, right=g.source)
    assert d.facets == frozenset(g.vertices)
    assert validate(d) == []


def test_dual_of_meet_is_join():
    assert iso_check(dual_graph(graph_of(r"x1 /\ x2")), graph_of(r"x1 \/ x2"))


def test_double_dual_is_transpose():
    g = graph_of(R_TEXT)
    assert dual_graph(dual_graph(g)) == transpose_graph(g)
    assert iso_check(dual_graph(dual_graph(g)), transpose_graph(g))


def test_transpose_basics():
    g = graph_of_term(Variable(1))
    t = transpose_graph(g)
    assert t.edges[1].tail == g.sink and t.edges[1].head == g.source
    assert transpose_graph(t) == g
    chain = graph_of(r"x1 \/ x2")
    back = transpose_graph(chain)
    assert len(back.facets) == 2 and validate(back) == []


def test_maximal_paths_small():
    assert maximal_paths(graph_of(r"x1 \/ x2")) == [(1, 2)]
    assert maximal_paths(graph_of(r"x1 /\ x2")) == [(1,), (2,)]


def test_maximal_paths_example_term():
    paths = maximal_paths(graph_of(R_TEXT))
    assert paths == [(1, 2, 5), (1, 3, 4, 5), (6, 7, 10), (8, 9, 10)]
    assert len(paths) == 4


def test_first_path_is_dfs_first():
    g = graph_of(R_TEXT)
    assert first_path(g) == maximal_paths(g)[0]


def test_path_limit():
    g = graph_of(r"x1 /\ x2 /\ x3")
    with pytest.raises(PathLimitExceededError):
        maximal_paths(g, limit=2)


def test_validate_flags_two_cycle():
    g = PlaneGraph(
        vertices=frozenset((1, 2)),
        edges={1: Edge(1, 2, 10, 11), 2: Edge(2, 1, 11, 10)},
        facets=frozenset((10, 11)),
        source=1, sink=2, outer_left=10, outer_right=11,
    )
    violations = validate(g)
    assert any("cycle" in v for v in violations)


def test_validate_flags_euler_breakage():
    g = graph_of_term(Variable(1))
    broken = PlaneGraph(
        vertices=g.vertices,
        edges=g.edges,
        facets=g.facets | {99},
        source=g.source, sink=g.sink,
        outer_left=g.outer_left, outer_right=g.outer_right,
    )
    violations = validate(broken)
    assert any("Euler" in v for v in violations)


def test_iso_check_distinguishes_shapes():
    assert not iso_check(graph_of(r"x1 /\ x2"), graph_of(r"x1 \/ x2"))
    assert not iso_check(graph_of(r"x1 \/ x2"), graph_of(r"x1 \/ x3"))
    g = graph_of(R_TEXT)
    assert iso_check(g, g)


def test_dot_export_single_edge_and_chain():
    g = graph_of_term(Variable(1))
    out = dot_export(g)
    assert 'label="1"' in out and out.count("->") == 1
    chain = dot_export(graph_of(r"x1 \/ x2"))
    assert chain.count("->") == 2


def test_dot_export_is_deterministic():
    g = graph_of(R_TEXT)
    assert dot_export(g) == dot_export(g)
    assert dot_export(g).encode() == dot_export(g).encode()


def test_graph_json_round_trip():
    g = graph_of(R_TEXT)
    assert graph_from_json(graph_to_json(g)) == g


def test_graph_json_rejects_bad_edge_ids():
    g = graph_of_term(Variable(1))
    obj = graph_to_json(g)
    obj["edges"][0]["id"] = 2
    with pytest.raises(GraphFormatError):
        graph_from_json(obj)


def test_graph_json_rejects_invalid_graph():
    obj = two_parallel_edges_json()
    with pytest.raises(GraphValidationError) as info:
        graph_from_json(obj)
    direct = PlaneGraph(
        vertices=frozenset((1, 2)),
        edges={1: Edge(1, 2, "L", "R"), 2: Edge(1, 2, "L", "R")},
        facets=frozenset(("L", "R")),
        source=1, sink=2, outer_left="L", outer_right="R",
    )
    assert info.value.violations == validate(direct) != []


def test_graph_json_rejects_missing_keys():
    with pytest.raises(GraphFormatError):
        graph_from_json({"vertices": [], "edges": []})


def test_construction_duality_random(term_corpus):
    for t in term_corpus[:60]:
        g = graph_of_term(t)
        assert validate(g) == []
        dual_of_term = graph_of_term(dual_term(t))
        assert iso_check(dual_graph(g), dual_of_term)
        assert dual_graph(dual_graph(g)) == transpose_graph(g)
        for h in (g, dual_graph(g), transpose_graph(g)):
            assert euler(h) == 3 and validate(h) == []


def test_paths_run_source_to_sink_random():
    rng = random.Random(44)
    for _ in range(25):
        g = graph_of_term(random_repetition_free_term(rng, rng.randint(1, 9)))
        for path in maximal_paths(g):
            assert g.edges[path[0]].tail == g.source
            assert g.edges[path[-1]].head == g.sink
            for a, b in zip(path, path[1:]):
                assert g.edges[a].head == g.edges[b].tail
