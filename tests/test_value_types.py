"""The value types keep the construction, equality, hash and repr they
had as dataclasses.

Hashes equal ``hash(tuple(fields))``, as a frozen dataclass's did, so the
iteration order of sets and dicts of these values, and with it stdout,
does not depend on how the classes are written.  The repr literals are
those of the dataclass versions.
"""

import pytest

from ldk.balance import AbsorbStep, BalanceTrace, MatrixSplitStep
from ldk.decision import SelfDualityReport, Verdict, check_identity, check_self_duality
from ldk.linsolve import IntMatrix, SolutionReport
from ldk.pbg import ContentSystem, GroupSpec, PbgProblem
from ldk.planegraph import Edge, PlaneGraph, graph_of_term
from ldk.terms import Identity, Join, Meet, OccurrenceProfile, Variable, occurrences

X1, X2 = Variable(1), Variable(2)
GRAPH = graph_of_term(X1)
GRAPH_REPR = ("PlaneGraph(vertices=frozenset({1, 2}), edges={1: Edge(tail=1, "
              "head=2, left=1, right=2)}, facets=frozenset({1, 2}), source=1, "
              "sink=2, outer_left=1, outer_right=2)")

# (keyword-built value, its fields in order, its repr)
HASHABLE = [
    (Variable(index=1), (1,), "Variable(index=1)"),
    (Join(left=X1, right=X2), (X1, X2),
     "Join(left=Variable(index=1), right=Variable(index=2))"),
    (Meet(left=X1, right=X2), (X1, X2),
     "Meet(left=Variable(index=1), right=Variable(index=2))"),
    (Identity(lhs=Meet(X1, X2), rhs=X1), (Meet(X1, X2), X1),
     "Identity(lhs=Meet(left=Variable(index=1), right=Variable(index=2)), "
     "rhs=Variable(index=1))"),
    (AbsorbStep(variable=3, side="rhs"), (3, "rhs"),
     "AbsorbStep(variable=3, side='rhs')"),
    (MatrixSplitStep(variable=1, u=2, v=1, fresh=((3,), (4,))),
     (1, 2, 1, ((3,), (4,))),
     "MatrixSplitStep(variable=1, u=2, v=1, fresh=((3,), (4,)))"),
    (BalanceTrace(steps=(AbsorbStep(3, "lhs"),)), ((AbsorbStep(3, "lhs"),),),
     "BalanceTrace(steps=(AbsorbStep(variable=3, side='lhs'),))"),
    (Edge(tail="s", head="t", left="L", right="R"), ("s", "t", "L", "R"),
     "Edge(tail='s', head='t', left='L', right='R')"),
    (GroupSpec(modulus=3), (3,), "GroupSpec(modulus=3)"),
    (GroupSpec(), (0,), "GroupSpec(modulus=0)"),
    (IntMatrix(rows=((1, 0), (0, 2))), (((1, 0), (0, 2)),),
     "IntMatrix(rows=((1, 0), (0, 2)))"),
    (SolutionReport(solvable=True, particular=(1,), kernel_generators=((2,),),
                    snf_diagonal=(1,), modulus=0),
     (True, (1,), ((2,),), (1,), 0),
     "SolutionReport(solvable=True, particular=(1,), kernel_generators=((2,),),"
     " snf_diagonal=(1,), modulus=0)"),
]

UNHASHABLE = [
    (PlaneGraph(vertices=GRAPH.vertices, edges=GRAPH.edges, facets=GRAPH.facets,
                source=1, sink=2, outer_left=1, outer_right=2), GRAPH_REPR),
    (ContentSystem(values={"s": 4, "t": -1}, group=GroupSpec(3)),
     "ContentSystem(values={'s': 1, 't': 2}, group=GroupSpec(modulus=3))"),
    (PbgProblem(flow=GRAPH, control=GRAPH, group=GroupSpec(2), b=1),
     f"PbgProblem(flow={GRAPH_REPR}, control={GRAPH_REPR}, "
     "group=GroupSpec(modulus=2), b=1)"),
    (OccurrenceProfile(counts={1: (1, 1), 2: (1, 0)}),
     "OccurrenceProfile(counts={1: (1, 1), 2: (1, 0)})"),
]


@pytest.mark.parametrize("value, fields, text", HASHABLE,
                         ids=[type(v).__name__ for v, _, _ in HASHABLE])
def test_hashable_values_keep_equality_hash_and_repr(value, fields, text):
    twin = type(value)(*fields)
    assert value == twin and not value != twin
    assert hash(value) == hash(twin) == hash(fields)
    assert repr(value) == text


@pytest.mark.parametrize("value, text", UNHASHABLE,
                         ids=[type(v).__name__ for v, _ in UNHASHABLE])
def test_mutable_field_values_compare_by_fields_and_do_not_hash(value, text):
    assert repr(value) == text
    with pytest.raises(TypeError):
        hash(value)


def test_equality_needs_the_same_class_and_fields():
    assert Join(X1, X2) != Meet(X1, X2)
    assert Join(X1, X2) != Join(X2, X1)
    assert Variable(1) != 1
    assert GroupSpec(2) != GroupSpec(3)
    assert IntMatrix(((1,),)) != ((1,),)
    assert len({Join(X1, X2), Meet(X1, X2), Join(X1, X2)}) == 2
    assert occurrences(Identity(X1, X1)) == OccurrenceProfile({1: (1, 1)})
    assert ContentSystem({"s": 4}, GroupSpec(3)) == ContentSystem({"s": 1}, GroupSpec(3))
    assert ContentSystem({"s": 1}, GroupSpec(3)) != ContentSystem({"s": 1}, GroupSpec(2))
    assert graph_of_term(X1) == GRAPH and graph_of_term(X2) != GRAPH
    assert PbgProblem(GRAPH, GRAPH, GroupSpec(2), 1) != PbgProblem(GRAPH, GRAPH, GroupSpec(2), 0)


def test_plane_graph_is_not_a_sequence():
    with pytest.raises(TypeError):
        len(GRAPH)


def test_verdict_reports_keep_their_fields():
    verdict = check_identity(Identity(X1, X1), 0)
    assert isinstance(verdict, Verdict)
    assert repr(verdict.trace) == "BalanceTrace(steps=())"
    assert (verdict.original, verdict.balanced, verdict.modulus, verdict.holds) == (
        Identity(X1, X1), Identity(X1, X1), 0, True)
    assert verdict.problem == PbgProblem(GRAPH, GRAPH, GroupSpec(0), 1)
    report = check_self_duality(Identity(X1, X1), 2)
    assert isinstance(report, SelfDualityReport)
    assert report.flags == dict.fromkeys(
        ("identity_holds", "dual_identity_holds", "problem_solvable",
         "dual_problem_solvable"), True)
    assert report.dual_problem_report == report.primal.witness


@pytest.mark.parametrize("build", [
    lambda: Variable(0),
    lambda: Variable(index=-3),
    lambda: GroupSpec(-1),
    lambda: GroupSpec(True),
    lambda: GroupSpec(2.0),
    lambda: IntMatrix(((1, 2), (3,))),
], ids=["variable-0", "variable-negative", "group-negative", "group-bool",
        "group-float", "ragged-matrix"])
def test_validation_errors_are_kept(build):
    with pytest.raises(ValueError):
        build()


def test_problem_post_init_runs_once_per_construction(monkeypatch):
    calls = []
    original = PbgProblem.__post_init__

    def counted(self):
        calls.append(self)
        original(self)

    monkeypatch.setattr(PbgProblem, "__post_init__", counted)
    problem = PbgProblem(flow=GRAPH, control=GRAPH, group=GroupSpec(2), b=1)
    assert calls == [problem]
    check_identity(Identity(X1, X1), 0)
    assert len(calls) == 2
    with pytest.raises(ValueError):
        PbgProblem(GRAPH, graph_of_term(X2), GroupSpec(2), 1)
    assert len(calls) == 3
