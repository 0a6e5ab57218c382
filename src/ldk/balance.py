"""Rewrite an arbitrary identity into an equivalent 1-balanced identity.

Two rewrite rules, both validity-preserving in every lattice:

* absorption -- a variable occurring on one side only is absorbed into the
  other side (``q := q \\/ (q /\\ x)`` when ``x`` occurs only on the left,
  and dually ``p := p /\\ (p \\/ x)``);
* matrix split -- a variable with ``u`` occurrences on the left and ``v``
  on the right is replaced by a ``u x v`` matrix of fresh variables: the
  i-th left occurrence becomes the meet of row i, the j-th right occurrence
  the join of column j.

Every step is deterministic (smallest variable index first, occurrences
numbered left to right, fresh indices smallest-unused in row-major order,
inserted chains right-associated), so identical input yields an identical
output and trace.

:func:`one_balance` plans every split from one occurrence profile and
rewrites each side in one walk; a split variable's index is free for the
fresh indices of later splits.  :func:`replay` applies a trace step by
step and is the reference that plan is tested against.
"""

from __future__ import annotations

import itertools
from typing import List, Mapping, NamedTuple, Sequence, Tuple, Union

from .terms import (
    Identity,
    Join,
    Meet,
    Term,
    Variable,
    occurrences,
    variables,
)


class AbsorbStep(NamedTuple):
    """Absorption of ``variable`` into ``side`` ("lhs" or "rhs" was rewritten)."""

    variable: int
    side: str


class MatrixSplitStep(NamedTuple):
    """Replacement of ``variable`` (u left / v right occurrences) by the
    fresh index matrix ``fresh`` (u rows by v columns, row-major)."""

    variable: int
    u: int
    v: int
    fresh: Tuple[Tuple[int, ...], ...]


Step = Union[AbsorbStep, MatrixSplitStep]


class BalanceTrace(NamedTuple):
    steps: Tuple[Step, ...]


def _chain(ctor, leaves: Sequence[Term]) -> Term:
    # right-associated: w1 op (w2 op (... op wk))
    node = leaves[-1]
    for leaf in reversed(leaves[:-1]):
        node = ctor(leaf, node)
    return node


def _replace_occurrences(t: Term, builders: Mapping[int, Sequence[Term]]) -> Term:
    """Replace the k-th leaf occurrence of each variable ``x`` in
    ``builders`` by ``builders[x][k]``, in one walk over ``t``."""
    seen = dict.fromkeys(builders, 0)

    def walk(node: Term) -> Term:
        if isinstance(node, Variable):
            k = seen.get(node.index)
            if k is None:
                return node
            seen[node.index] = k + 1
            return builders[node.index][k]
        ctor = Join if isinstance(node, Join) else Meet
        return ctor(walk(node.left), walk(node.right))

    result = walk(t)
    for variable, count in seen.items():
        if count != len(builders[variable]):
            raise ValueError(f"expected {len(builders[variable])} occurrences"
                             f" of x{variable}, found {count}")
    return result


def _split_builders(step: MatrixSplitStep) -> Tuple[List[Term], List[Term]]:
    """The replacements of the left occurrences (row meets) and of the
    right occurrences (column joins) of ``step.variable``.  Each fresh
    index is one ``Variable``, shared by its row and its column (terms are
    never mutated)."""
    leaves = [[Variable(i) for i in row] for row in step.fresh]
    return ([_chain(Meet, row) for row in leaves],
            [_chain(Join, column) for column in zip(*leaves)])


def _apply_step(ident: Identity, step: Step) -> Identity:
    if isinstance(step, AbsorbStep):
        x = Variable(step.variable)
        if step.side == "rhs":
            return Identity(ident.lhs, Join(ident.rhs, Meet(ident.rhs, x)))
        if step.side == "lhs":
            return Identity(Meet(ident.lhs, Join(ident.lhs, x)), ident.rhs)
        raise ValueError(f"unknown absorb side {step.side!r}")
    lhs_builders, rhs_builders = _split_builders(step)
    return Identity(
        _replace_occurrences(ident.lhs, {step.variable: lhs_builders}),
        _replace_occurrences(ident.rhs, {step.variable: rhs_builders}),
    )


def replay(ident: Identity, trace: BalanceTrace) -> Identity:
    """Re-apply a trace to its original identity."""
    for step in trace.steps:
        ident = _apply_step(ident, step)
    return ident


def absorb_missing(ident: Identity) -> Tuple[Identity, BalanceTrace]:
    """Make the variable sets of both sides equal via the absorption law.

    Variables occurring only on the left are absorbed into the right side
    first, then the symmetric rule runs; each group in ascending index
    order.  Already-equal variable sets come back unchanged with an empty
    trace.
    """
    left, right = variables(ident.lhs), variables(ident.rhs)
    steps: List[Step] = [AbsorbStep(i, "rhs") for i in sorted(left - right)]
    steps += [AbsorbStep(i, "lhs") for i in sorted(right - left)]
    out = ident
    for step in steps:
        out = _apply_step(out, step)
    return out, BalanceTrace(tuple(steps))


def _fresh_indices(used: set, count: int) -> List[int]:
    """The ``count`` smallest positive integers not in ``used``."""
    unused = itertools.filterfalse(used.__contains__, itertools.count(1))
    return list(itertools.islice(unused, count))


def one_balance(ident: Identity) -> Tuple[Identity, BalanceTrace]:
    """Produce an equivalent 1-balanced identity and the rewrite trace.

    Applies absorb_missing first, then splits every unbalanced variable
    in ascending index order.  A split leaves the counts of every other
    variable as they were, so all splits are planned from the occurrence
    profile of the absorbed identity.  Each split takes the smallest
    indices unused at that point, and the split variable's own index is
    free for later splits.  Each side is then rewritten in one walk.
    """
    out, trace = absorb_missing(ident)
    profile = occurrences(out).counts
    used = set(profile)
    splits: List[MatrixSplitStep] = []
    for variable in sorted(profile):
        u, v = profile[variable]
        if (u, v) == (1, 1):
            continue
        flat = _fresh_indices(used, u * v)
        used.discard(variable)
        used.update(flat)
        rows = tuple(tuple(flat[i * v:(i + 1) * v]) for i in range(u))
        splits.append(MatrixSplitStep(variable, u, v, rows))
    lhs_builders, rhs_builders = {}, {}
    for step in splits:
        lhs_builders[step.variable], rhs_builders[step.variable] = _split_builders(step)
    if splits:
        out = Identity(_replace_occurrences(out.lhs, lhs_builders),
                       _replace_occurrences(out.rhs, rhs_builders))
    return out, BalanceTrace(trace.steps + tuple(splits))
