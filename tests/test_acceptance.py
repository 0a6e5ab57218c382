"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Every test prints a single PASS line (visible with ``pytest -s`` or in the
captured output); a failing assertion marks the criterion red.  Corpora
are seeded, so runs are reproducible.
"""

import itertools
import random
import time

import numpy as np

from conftest import (
    random_balanced_identity,
    random_repeating_term,
    random_repetition_free_term,
    three_edge_fragment,
)
from ldk.balance import one_balance
from ldk.decision import (
    build_problem,
    check_identity,
    check_self_duality,
    eval_term_on_spans,
    membership_via_contents,
    oracle_holds,
    subspace_lattice,
)
from ldk.linsolve import assemble_system, enumerate_solutions, solve_problem
from ldk.pbg import (
    INTEGERS,
    dual_problem,
    set_effect,
    transp_content,
    transpose_problem,
)
from ldk.planegraph import (
    dual_graph,
    graph_of_term,
    iso_check,
    transpose_graph,
    validate,
)
from ldk.terms import Identity, dual_term, parse_identity, variables

MODULI = (0, 2, 3, 4, 6)
ENUM_MODULI = (2, 3)

MODULAR = parse_identity(r"x1 /\ (x2 \/ (x1 /\ x3)) <= (x1 /\ x2) \/ (x1 /\ x3)")[0]
DISTRIBUTIVE = parse_identity(r"x1 /\ (x2 \/ x3) <= (x1 /\ x2) \/ (x1 /\ x3)")[0]
REFLEXIVE = parse_identity("x1 <= x1")[0]


def _announce(number: int, message: str, started: float) -> None:
    print(f"ACCEPTANCE criterion {number} PASS: {message} "
          f"({time.monotonic() - started:.1f}s)")


def _system_mask(M, rhs, vectors: np.ndarray, m: int) -> np.ndarray:
    """Satisfaction mask of an assembled system over all candidate vectors."""
    if not M.rows:
        return np.ones(len(vectors), dtype=bool)
    mat = np.array([list(r) for r in M.rows], dtype=np.int64)
    target = np.array(rhs, dtype=np.int64)
    return ~(((vectors @ mat.T) - target) % m).any(axis=1)


def test_criterion_1_duality(balanced_corpus):
    started = time.monotonic()
    set_checks = 0
    for ident in balanced_corpus:
        for m in MODULI:
            problem = build_problem(ident, m, 1)
            dual = dual_problem(problem)
            assert solve_problem(problem).solvable == solve_problem(dual).solvable
        n = len(variables(ident.lhs))
        if n <= 8:
            for m in ENUM_MODULI:
                problem = build_problem(ident, m, 1)
                primal = enumerate_solutions(problem)
                assert set(primal) == set(enumerate_solutions(dual_problem(problem)))
                set_checks += 1
    elapsed = time.monotonic() - started
    assert elapsed <= 60.0
    _announce(1, f"{len(balanced_corpus)} identities x {len(MODULI)} moduli, "
                 f"{set_checks} full solution-set comparisons", started)


def test_criterion_2_transpose(balanced_corpus):
    started = time.monotonic()
    checked = 0
    for ident in balanced_corpus:
        if len(variables(ident.lhs)) > 8:
            continue
        for m in ENUM_MODULI:
            problem = build_problem(ident, m, 1)
            assert set(enumerate_solutions(problem)) == \
                set(enumerate_solutions(transpose_problem(problem)))
            checked += 1
    _announce(2, f"{checked} transpose solution-set comparisons", started)


def test_criterion_3_construction_duality(term_corpus):
    started = time.monotonic()
    for term in term_corpus:
        g = graph_of_term(term)
        g_dual_term = graph_of_term(dual_term(term))
        assert iso_check(dual_graph(g), g_dual_term)
        assert iso_check(dual_graph(dual_graph(g)), transpose_graph(g))
        for h in (g, dual_graph(g), transpose_graph(g), g_dual_term):
            assert len(h.vertices) - h.n + len(h.facets) == 3
            assert validate(h) == []
    _announce(3, f"{len(term_corpus)} terms, duality + transpose + Euler", started)


def test_criterion_4_decision_goldens():
    started = time.monotonic()
    for m in (0, 2, 3, 4):
        assert check_self_duality(MODULAR, m).primal.holds is True
    for m in (0, 2, 3):
        assert check_self_duality(DISTRIBUTIVE, m).primal.holds is False
    for m in (0, 1, 2, 3, 4, 6):
        assert check_self_duality(REFLEXIVE, m).primal.holds is True
    for ident in (MODULAR, DISTRIBUTIVE, REFLEXIVE):
        assert check_identity(ident, 1).holds is True
        assert check_self_duality(ident, 1).dual.holds is True
    elapsed = time.monotonic() - started
    assert elapsed <= 5.0
    _announce(4, "modular/distributive/reflexive verdicts incl. duals", started)


def test_criterion_5_soundness_against_subspace_oracle(balanced_corpus):
    started = time.monotonic()
    confirmed = 0
    small = [ident for ident in balanced_corpus
             if len(variables(one_balance(ident)[0].lhs)) <= 5]
    assert small, "corpus must contain small identities"
    for ident in small:
        for m in ENUM_MODULI:
            if not check_identity(ident, m).holds:
                continue
            for d in (2, 3):
                assert oracle_holds(ident, subspace_lattice(m, d))
                confirmed += 1
    _announce(5, f"{len(small)} small identities, {confirmed} oracle "
                 f"confirmations, zero counterexamples", started)


def test_criterion_6_membership_oracle():
    started = time.monotonic()
    rng = random.Random(606)
    lattice = subspace_lattice(2, 2)
    vectors = list(itertools.product(range(2), repeat=2))
    agreements = 0
    for _ in range(120):
        term = random_repetition_free_term(rng, rng.randint(1, 4))
        g = graph_of_term(term)
        spans = {idx: lattice.element_sets[rng.randrange(len(lattice))]
                 for idx in g.edge_indices}
        u = rng.choice(vectors)
        v = rng.choice(vectors)
        direct = tuple((v[i] - u[i]) % 2 for i in range(2)) in \
            eval_term_on_spans(term, spans, 2)
        assert membership_via_contents(g, 2, 2, spans, u, v) == direct
        agreements += 1
    elapsed = time.monotonic() - started
    assert elapsed <= 30.0
    _announce(6, f"{agreements} membership instances matched direct "
                 f"subspace evaluation", started)


def test_criterion_7_balancing_preserves_oracle():
    started = time.monotonic()
    rng = random.Random(707)
    lattice = subspace_lattice(2, 2)
    checked = 0
    attempts = 0
    while checked < 100:
        attempts += 1
        assert attempts < 5000
        ident = Identity(random_repeating_term(rng, rng.randint(1, 4), (1, 2, 3)),
                         random_repeating_term(rng, rng.randint(1, 4), (1, 2, 3)))
        balanced, _ = one_balance(ident)
        if len(variables(balanced.lhs) | variables(balanced.rhs)) > 5:
            continue
        assert oracle_holds(ident, lattice) == oracle_holds(balanced, lattice)
        checked += 1
    _announce(7, f"{checked} identities, oracle verdict invariant under "
                 f"balancing", started)


def test_criterion_8_three_edge_fragment():
    started = time.monotonic()
    g = three_edge_fragment()
    assert validate(g) == []
    effect = set_effect(g, {9: 3, 15: 6, 10: 3}, {9, 15, 10})
    assert effect.values == {"s": -6, "v1": 0, "t": 6}
    assert effect == transp_content(g, INTEGERS, 6)
    _announce(8, "three-edge fragment transports b = 6", started)


def test_criterion_9_solver_cross_checks(balanced_corpus):
    started = time.monotonic()
    enum_checks = 0
    mask_checks = 0
    for ident in balanced_corpus:
        n = len(variables(ident.lhs))
        for m in MODULI:
            problem = build_problem(ident, m, 1)
            full = solve_problem(problem, mode="full")
            reduced = solve_problem(problem, mode="facet_reduced")
            assert full.solvable == reduced.solvable
            if m in ENUM_MODULI and n <= 8:
                found = enumerate_solutions(problem)
                assert full.solvable == bool(found)
                if full.solvable:
                    assert full.particular in found
                    assert reduced.particular in found
                enum_checks += 1
                # the two assembled systems must accept exactly the same vectors
                grid = np.array(list(itertools.product(range(m), repeat=n)),
                                dtype=np.int64)
                m_full, r_full = assemble_system(problem, mode="full")
                m_red, r_red = assemble_system(problem, mode="facet_reduced")
                full_mask = _system_mask(m_full, r_full, grid, m)
                red_mask = _system_mask(m_red, r_red, grid, m)
                assert (full_mask == red_mask).all()
                assert set(map(tuple, grid[full_mask].tolist())) == set(found)
                mask_checks += 1
    _announce(9, f"{enum_checks} solve-vs-enumeration checks, "
                 f"{mask_checks} full-vs-facet system comparisons", started)
