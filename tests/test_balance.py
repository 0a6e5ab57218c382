import random

from conftest import random_repeating_term
from ldk.balance import (
    AbsorbStep,
    MatrixSplitStep,
    absorb_missing,
    one_balance,
    replay,
)
from ldk.oracles import oracle_holds, subspace_lattice
from ldk.terms import (
    Identity,
    Meet,
    Variable,
    is_one_balanced,
    parse_identity,
    parse_term,
    variables,
)

DISTRIBUTIVE = parse_identity(r"x1 /\ (x2 \/ x3) <= (x1 /\ x2) \/ (x1 /\ x3)")[0]
MODULAR = parse_identity(r"x1 /\ (x2 \/ (x1 /\ x3)) <= (x1 /\ x2) \/ (x1 /\ x3)")[0]


def test_absorb_variable_missing_on_right():
    ident = parse_identity(r"x1 /\ x2 <= x1")[0]
    out, trace = absorb_missing(ident)
    assert out == parse_identity(r"x1 /\ x2 <= x1 \/ (x1 /\ x2)")[0]
    assert trace.steps == (AbsorbStep(2, "rhs"),)


def test_absorb_variable_missing_on_left():
    ident = parse_identity(r"x1 <= x1 \/ x2")[0]
    out, trace = absorb_missing(ident)
    assert out == parse_identity(r"x1 /\ (x1 \/ x2) <= x1 \/ x2")[0]
    assert trace.steps == (AbsorbStep(2, "lhs"),)


def test_absorb_no_op_on_equal_variable_sets():
    ident = parse_identity(r"x1 /\ x2 <= x2 \/ x1")[0]
    out, trace = absorb_missing(ident)
    assert out == ident
    assert trace.steps == ()


def test_balance_distributive():
    out, trace = one_balance(DISTRIBUTIVE)
    expected = parse_identity(
        r"(x4 /\ x5) /\ (x2 \/ x3) <= (x4 /\ x2) \/ (x5 /\ x3)")[0]
    assert out == expected
    assert trace.steps == (MatrixSplitStep(1, 1, 2, ((4, 5),)),)
    assert is_one_balanced(out)


def test_balance_modular():
    # x1 occurs twice on each side, so it splits into a 2x2 fresh matrix
    out, _ = one_balance(MODULAR)
    expected = parse_identity(
        r"(x4 /\ x5) /\ (x2 \/ ((x6 /\ x7) /\ x3))"
        r" <= ((x4 \/ x6) /\ x2) \/ ((x5 \/ x7) /\ x3)")[0]
    assert out == expected
    assert is_one_balanced(out)
    assert len(variables(out.lhs)) == 6
    assert len(list(_leaves(out.lhs))) == 6
    assert len(list(_leaves(out.rhs))) == 6


def _leaves(t):
    from ldk.terms import leaves
    return leaves(t)


def test_balance_keeps_balanced_input():
    ident = parse_identity(r"x1 /\ x2 <= x1 \/ x2")[0]
    out, trace = one_balance(ident)
    assert out == ident
    assert trace.steps == ()


def test_balance_is_idempotent_and_deterministic():
    once, trace1 = one_balance(DISTRIBUTIVE)
    again, trace2 = one_balance(DISTRIBUTIVE)
    assert once == again and trace1 == trace2
    fixed, trace3 = one_balance(once)
    assert fixed == once and trace3.steps == ()


def test_replay_reproduces_output():
    rng = random.Random(31)
    cases = [DISTRIBUTIVE, MODULAR]
    for _ in range(20):
        cases.append(Identity(
            random_repeating_term(rng, rng.randint(1, 5), range(1, 4)),
            random_repeating_term(rng, rng.randint(1, 5), range(1, 4))))
    # one variable on one side only: its absorption doubles the other
    # side, and several splits follow
    absorbed = []
    for k in range(10):
        only = Meet(random_repeating_term(rng, rng.randint(5, 11), range(1, 4)),
                    Variable(4))
        other = random_repeating_term(rng, rng.randint(6, 12), range(1, 4))
        absorbed.append(Identity(only, other) if k % 2 else Identity(other, only))
    for ident in cases + absorbed:
        balanced, trace = one_balance(ident)
        assert replay(ident, trace) == balanced
        assert is_one_balanced(balanced)
    for ident in absorbed:
        steps = one_balance(ident)[1].steps
        assert isinstance(steps[0], AbsorbStep)
        assert sum(isinstance(step, MatrixSplitStep) for step in steps) >= 2


def test_split_variable_index_is_reused():
    # x1 is gone after its split, so index 1 is the first fresh one for x2
    ident = parse_identity(r"x1 /\ x1 /\ x2 /\ x2 <= x1 \/ x1 \/ x2 \/ x2")[0]
    _, trace = one_balance(ident)
    assert trace.steps == (MatrixSplitStep(1, 2, 2, ((3, 4), (5, 6))),
                           MatrixSplitStep(2, 2, 2, ((1, 7), (8, 9))))


def test_balancing_preserves_subspace_lattice_verdicts():
    # equivalence spot-check on F_m^d for m in {2, 3}, d in {2, 3}
    rng = random.Random(32)
    cases = [
        parse_identity(r"x1 /\ x2 <= x1")[0],
        parse_identity(r"x1 <= x1 \/ x2")[0],
        DISTRIBUTIVE,
    ]
    while len(cases) < 10:
        ident = Identity(random_repeating_term(rng, rng.randint(1, 3), (1, 2)),
                         random_repeating_term(rng, rng.randint(1, 3), (1, 2)))
        if len(variables(one_balance(ident)[0].lhs)) <= 5:
            cases.append(ident)
    lattices = [subspace_lattice(m, d) for m in (2, 3) for d in (2, 3)]
    for ident in cases:
        balanced, _ = one_balance(ident)
        for lattice in lattices:
            assert oracle_holds(ident, lattice) == oracle_holds(balanced, lattice)
