import json
import random

import pytest

from conftest import random_repetition_free_term, three_edge_fragment
from ldk.pbg import (
    ContentSystem,
    GroupSpec,
    INTEGERS,
    PbgProblem,
    ProblemFormatError,
    dual_problem,
    edge_effect,
    init_content,
    is_solution,
    problem_from_json,
    problem_to_json,
    set_effect,
    term_content,
    transp_content,
    transpose_problem,
)
from ldk.decision import build_problem
from ldk.linsolve import enumerate_solutions
from ldk.planegraph import graph_of_term, validate
from ldk.terms import Variable, parse_identity, parse_term


def graph_of(text):
    return graph_of_term(parse_term(text))


MEET_JOIN = parse_identity(r"x1 /\ x2 <= x1 \/ x2")[0]
IDENTITY_ID = parse_identity("x1 <= x1")[0]


def test_group_spec():
    assert GroupSpec(0).reduce(-7) == -7
    assert GroupSpec(5).reduce(-3) == 2
    assert GroupSpec(1).reduce(12345) == 0
    with pytest.raises(ValueError):
        GroupSpec(-1)


def test_transp_content_single_edge():
    g = graph_of_term(Variable(1))
    system = transp_content(g, INTEGERS, 1)
    assert system.values == {g.source: -1, g.sink: 1}


def test_transp_content_zero_target():
    g = graph_of(r"x1 \/ x2")
    assert transp_content(g, INTEGERS, 0) == ContentSystem.zero(g)


def test_transp_content_reduces_mod_m():
    g = graph_of_term(Variable(1))
    system = transp_content(g, GroupSpec(5), 3)
    assert system.values == {g.source: 2, g.sink: 3}


def test_terminal_is_initial_plus_transporting():
    g = graph_of(R"x1 \/ (x2 /\ x3)")
    for group, b in ((INTEGERS, 4), (GroupSpec(5), 3)):
        assert term_content(g, group, b) == \
            init_content(g, group, b) + transp_content(g, group, b)


def test_edge_effect_single_edge():
    g = graph_of_term(Variable(1))
    eff = edge_effect(g, (7,), 1)
    assert eff.values == {g.source: -7, g.sink: 7}
    assert edge_effect(g, (0,), 1) == ContentSystem.zero(g)


def test_edge_effect_on_chain():
    g = graph_of(r"x1 \/ x2")
    mid = g.edges[1].head
    eff = edge_effect(g, (2, 5), 2)
    assert eff.values == {g.source: 0, mid: -5, g.sink: 5}


def test_edge_effect_index_out_of_range():
    g = graph_of_term(Variable(1))
    with pytest.raises(IndexError):
        edge_effect(g, (1,), 2)


def test_set_effect_three_edge_fragment():
    g = three_edge_fragment()
    assert validate(g) == []
    capacities = {9: 3, 10: 3, 15: 6}
    eff = set_effect(g, capacities, {9, 15, 10})
    assert eff.values == {"s": -6, "v1": 0, "t": 6}
    assert eff == transp_content(g, INTEGERS, 6)


def test_set_effect_empty_set():
    g = graph_of(r"x1 /\ x2")
    assert set_effect(g, (4, 4), set()) == ContentSystem.zero(g)


def test_set_effect_vertex_sum_is_zero():
    rng = random.Random(15)
    for _ in range(25):
        g = graph_of_term(random_repetition_free_term(rng, rng.randint(1, 8)))
        a = [rng.randint(-9, 9) for _ in range(g.n)]
        subset = {j for j in g.edge_indices if rng.random() < 0.6}
        group = GroupSpec(rng.choice((0, 2, 3, 6)))
        assert set_effect(g, a, subset, group).total() == 0


def test_content_system_domain_mismatch():
    g1 = graph_of_term(Variable(1))
    g2 = graph_of(r"x1 \/ x2")
    with pytest.raises(ValueError):
        ContentSystem.zero(g1) + ContentSystem.zero(g2)
    with pytest.raises(ValueError):
        ContentSystem.zero(g1) + ContentSystem.zero(g1, GroupSpec(2))


def test_is_solution_identity_problem():
    problem = build_problem(IDENTITY_ID, 0, 1)
    assert is_solution(problem, (1,))
    assert not is_solution(problem, (2,))


def test_is_solution_meet_join():
    problem = build_problem(MEET_JOIN, 0, 1)
    assert is_solution(problem, (1, 0))
    assert not is_solution(problem, (1, 1))


def test_dual_problem_shape_and_solutions():
    problem = build_problem(MEET_JOIN, 2, 1)
    dual = dual_problem(problem)
    # flow of the dual is the dual control graph: two parallel edges
    assert len(dual.flow.vertices) == 2 and dual.flow.n == 2
    assert len(dual.control.vertices) == 3 and dual.control.n == 2
    assert enumerate_solutions(problem) == [(0, 1), (1, 0)]
    assert enumerate_solutions(dual) == [(0, 1), (1, 0)]


def test_double_dual_has_same_solutions():
    problem = build_problem(MEET_JOIN, 3, 1)
    assert enumerate_solutions(dual_problem(dual_problem(problem))) == \
        enumerate_solutions(problem)


def test_transpose_problem_identity():
    problem = build_problem(IDENTITY_ID, 0, 1)
    assert is_solution(transpose_problem(problem), (1,))


def test_problem_json_round_trip(tmp_path):
    problem = build_problem(MEET_JOIN, 2, 1)
    obj = problem_to_json(problem)
    again = problem_from_json(obj)
    assert again.flow == problem.flow and again.control == problem.control
    assert again.group == problem.group and again.b == problem.b
    # graph entries may also be file paths
    flow_file = tmp_path / "flow.json"
    flow_file.write_text(json.dumps(obj["flow"]))
    obj2 = dict(obj, flow="flow.json")
    again2 = problem_from_json(obj2, base_dir=tmp_path)
    assert again2.flow == problem.flow


def test_problem_json_rejects_bad_objects():
    with pytest.raises(ProblemFormatError):
        problem_from_json({"flow": {}, "control": {}})
    problem = build_problem(MEET_JOIN, 2, 1)
    obj = problem_to_json(problem)
    obj["modulus"] = -2
    with pytest.raises(ProblemFormatError):
        problem_from_json(obj)


def test_problem_requires_matching_indices():
    g1 = graph_of_term(Variable(1))
    g2 = graph_of(r"x2 \/ x3")
    with pytest.raises(ValueError):
        PbgProblem(flow=g1, control=g2, group=INTEGERS, b=1)
