import itertools
import random

import pytest

from conftest import random_repetition_free_term
from ldk.decision import (
    DualityError,
    build_problem,
    check_identity,
    check_self_duality,
)
from ldk.oracles import (
    OracleCapError,
    eval_term_on_spans,
    membership_via_contents,
    oracle_holds,
    subspace_lattice,
)
from ldk.pbg import is_solution
from ldk.planegraph import graph_of_term
from ldk.terms import (
    Identity,
    Variable,
    dual_identity,
    parse_identity,
    parse_term,
    variables,
)

DISTRIBUTIVE = parse_identity(r"x1 /\ (x2 \/ x3) <= (x1 /\ x2) \/ (x1 /\ x3)")[0]
MODULAR = parse_identity(r"x1 /\ (x2 \/ (x1 /\ x3)) <= (x1 /\ x2) \/ (x1 /\ x3)")[0]
REFLEXIVE = parse_identity("x1 <= x1")[0]


# ---------------------------------------------------------------------------
# check_identity

def test_reflexive_inequality_holds_everywhere():
    for m in (0, 1, 2, 3, 4, 6, 12):
        assert check_identity(REFLEXIVE, m).holds


def test_modular_inequality_holds():
    for m in (0, 2, 3, 4):
        verdict = check_identity(MODULAR, m)
        assert verdict.holds
        assert is_solution(verdict.problem, verdict.witness.particular)


def test_distributive_inequality_fails():
    for m in (0, 2, 3):
        verdict = check_identity(DISTRIBUTIVE, m)
        assert not verdict.holds
        assert verdict.witness.particular is None


def test_trivial_group_accepts_everything():
    assert check_identity(DISTRIBUTIVE, 1).holds
    assert check_identity(Identity(parse_term(r"x1 \/ x2"),
                                   parse_term(r"x1 /\ x2")), 1).holds


def test_verdict_consistency():
    verdict = check_identity(MODULAR, 3)
    assert verdict.holds == verdict.witness.solvable
    assert verdict.modulus == 3 and verdict.original == MODULAR


# ---------------------------------------------------------------------------
# self-duality

def test_self_duality_distributive():
    report = check_self_duality(DISTRIBUTIVE, 2)
    assert set(report.flags.values()) == {False}


def test_self_duality_modular():
    for m in (0, 2, 3):
        report = check_self_duality(MODULAR, m)
        assert set(report.flags.values()) == {True}


def test_self_duality_reflexive():
    report = check_self_duality(REFLEXIVE, 5)
    assert set(report.flags.values()) == {True}


# ---------------------------------------------------------------------------
# subspace lattices

def test_subspace_counts():
    assert len(subspace_lattice(2, 2)) == 5
    assert len(subspace_lattice(2, 3)) == 16
    assert len(subspace_lattice(3, 2)) == 6


def test_subspace_lattice_rejects_bad_parameters():
    with pytest.raises(ValueError):
        subspace_lattice(4, 2)
    with pytest.raises(ValueError):
        subspace_lattice(2, 4)


def test_lattice_laws_f2_squared():
    lat = subspace_lattice(2, 2)
    elems = range(len(lat))
    for a, b in itertools.product(elems, repeat=2):
        assert lat.join(a, b) == lat.join(b, a)
        assert lat.meet(a, b) == lat.meet(b, a)
        assert lat.join(a, lat.meet(a, b)) == a
        assert lat.meet(a, lat.join(a, b)) == a
        assert lat.leq(lat.meet(a, b), a) and lat.leq(a, lat.join(a, b))
    for a, b, c in itertools.product(elems, repeat=3):
        assert lat.join(a, lat.join(b, c)) == lat.join(lat.join(a, b), c)
        assert lat.meet(a, lat.meet(b, c)) == lat.meet(lat.meet(a, b), c)
    assert all(lat.leq(lat.zero, a) and lat.leq(a, lat.top) for a in elems)


def test_from_basis_identifies_spans():
    lat = subspace_lattice(2, 2)
    line = lat.from_basis(((1, 1),))
    assert lat.elements[line] == ((1, 1),)
    assert lat.from_basis(((1, 1), (1, 1))) == line


# ---------------------------------------------------------------------------
# exhaustive oracle

def test_oracle_distributive_fails_on_f2_squared():
    lat = subspace_lattice(2, 2)
    assert not oracle_holds(DISTRIBUTIVE, lat)
    # the standard witness: lhs = B1, rhs = 0
    b1 = lat.from_basis(((1, 0),))
    b2 = lat.from_basis(((0, 1),))
    b3 = lat.from_basis(((1, 1),))
    lhs = lat.meet(b1, lat.join(b2, b3))
    rhs = lat.join(lat.meet(b1, b2), lat.meet(b1, b3))
    assert lhs == b1 and rhs == lat.zero and not lat.leq(lhs, rhs)


def test_oracle_modular_holds_on_f2_squared():
    assert oracle_holds(MODULAR, subspace_lattice(2, 2))


def test_oracle_reflexive():
    assert oracle_holds(REFLEXIVE, subspace_lattice(3, 2))


def test_oracle_var_cap():
    wide = Identity(parse_term(r"x1 /\ x2 /\ x3 /\ x4"),
                    parse_term(r"x5 \/ x6 \/ x7 \/ x8"))
    with pytest.raises(OracleCapError):
        oracle_holds(wide, subspace_lattice(2, 2), var_cap=5)


# ---------------------------------------------------------------------------
# membership through systems of contents

def test_membership_forced_witness():
    g = graph_of_term(parse_term(r"x1 \/ x2"))
    subs = {1: ((1, 0),), 2: ((0, 1),)}
    assert membership_via_contents(g, 2, 2, subs, (0, 0), (1, 1))


def test_membership_failure_with_zero_second_block():
    g = graph_of_term(parse_term(r"x1 \/ x2"))
    subs = {1: ((1, 0),), 2: ()}
    assert not membership_via_contents(g, 2, 2, subs, (0, 0), (1, 1))


def test_membership_matches_direct_evaluation():
    rng = random.Random(55)
    lat = subspace_lattice(2, 2)
    vectors = list(itertools.product(range(2), repeat=2))
    for _ in range(60):
        term = random_repetition_free_term(rng, rng.randint(1, 4))
        g = graph_of_term(term)
        spans = {idx: lat.element_sets[rng.randrange(len(lat))]
                 for idx in g.edge_indices}
        u = rng.choice(vectors)
        vtx = rng.choice(vectors)
        via_contents = membership_via_contents(g, 2, 2, spans, u, vtx)
        value = eval_term_on_spans(term, spans, 2)
        direct = tuple((vtx[i] - u[i]) % 2 for i in range(2)) in value
        assert via_contents == direct


def test_membership_caps():
    g = graph_of_term(parse_term(r"x1 \/ x2 \/ x3 \/ x4 \/ x5"))
    with pytest.raises(OracleCapError):
        membership_via_contents(g, 2, 2, {i: () for i in range(1, 6)},
                                (0, 0), (0, 0))


# ---------------------------------------------------------------------------
# soundness of the pipeline against the oracle

def test_pipeline_sound_against_oracle():
    cases = [REFLEXIVE, MODULAR, DISTRIBUTIVE,
             parse_identity(r"x1 /\ x2 <= x1 \/ x2")[0],
             parse_identity(r"x1 /\ x2 <= x2 \/ x3")[0]]
    for ident in cases:
        for m in (2, 3):
            if not check_identity(ident, m).holds:
                continue
            for d in (2, 3):
                assert oracle_holds(ident, subspace_lattice(m, d))


def test_build_problem_requires_balanced_input():
    with pytest.raises(ValueError):
        build_problem(DISTRIBUTIVE, 2)
