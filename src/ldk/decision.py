"""The end-to-end decision procedure.

``check_identity`` compiles an identity through balancing and the
term-to-graph construction into a PBG problem over Z_m and decides it by
exact linear algebra: the identity holds in every submodule lattice of a
Z_m-module iff the problem has a solution.  ``check_self_duality`` also
decides the dual identity and the dual problem, which must agree.

The independent oracles that cross-check this pipeline live in
:mod:`ldk.oracles`, which nothing here imports.
"""

from __future__ import annotations

from typing import Dict, NamedTuple

from .balance import BalanceTrace, one_balance
from .linsolve import SolutionReport, solve_problem
from .pbg import GroupSpec, PbgProblem, dual_problem
from .planegraph import DEFAULT_PATH_LIMIT, graph_of_term
from .terms import Identity, dual_identity, is_one_balanced


class DualityError(AssertionError):
    """A disagreement that would falsify the implementation, not the theorem."""


class Verdict(NamedTuple):
    original: Identity
    balanced: Identity
    trace: BalanceTrace
    modulus: int
    holds: bool
    witness: SolutionReport
    problem: PbgProblem


def build_problem(ident: Identity, modulus: int, b: int = 1) -> PbgProblem:
    """PBG problem of a 1-balanced identity: flow graph from the left term,
    control graph from the right term, edges matched by variable index."""
    if not is_one_balanced(ident):
        raise ValueError("build_problem needs a 1-balanced identity")
    return PbgProblem(flow=graph_of_term(ident.lhs),
                      control=graph_of_term(ident.rhs),
                      group=GroupSpec(modulus), b=b)


def check_identity(ident: Identity, modulus: int, b: int = 1,
                   mode: str = "facet_reduced",
                   path_limit: int = DEFAULT_PATH_LIMIT) -> Verdict:
    """Does ``ident`` hold in the submodule lattices of all Z_m-modules?

    Pipeline: balance, compile both sides to graphs, solve the resulting
    problem exactly; the identity holds iff the problem is solvable.  The
    default ``facet_reduced`` system never enumerates control paths;
    ``full`` does, and is kept as a reference.
    """
    balanced, trace = one_balance(ident)
    problem = build_problem(balanced, modulus, b)
    witness = solve_problem(problem, mode=mode, path_limit=path_limit)
    return Verdict(
        original=ident,
        balanced=balanced,
        trace=trace,
        modulus=modulus,
        holds=witness.solvable,
        witness=witness,
        problem=problem,
    )


class SelfDualityReport(NamedTuple):
    primal: Verdict
    dual: Verdict
    dual_problem_report: SolutionReport

    @property
    def flags(self) -> Dict[str, bool]:
        return {
            "identity_holds": self.primal.holds,
            "dual_identity_holds": self.dual.holds,
            "problem_solvable": self.primal.witness.solvable,
            "dual_problem_solvable": self.dual_problem_report.solvable,
        }


def check_self_duality(ident: Identity, modulus: int, b: int = 1) -> SelfDualityReport:
    """Check the identity, its dual, and the dual problem; all four
    verdicts must agree, otherwise the implementation is broken."""
    primal = check_identity(ident, modulus, b)
    dual = check_identity(dual_identity(ident), modulus, b)
    dual_report = solve_problem(dual_problem(primal.problem))
    report = SelfDualityReport(primal, dual, dual_report)
    if len(set(report.flags.values())) != 1:
        raise DualityError(f"self-duality verdicts disagree: {report.flags}")
    return report
