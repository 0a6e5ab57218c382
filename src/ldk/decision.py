"""End-to-end decision procedure and independent brute-force oracles.

``check_identity`` compiles an identity through balancing and the
term-to-graph construction into a PBG problem over Z_m and decides it by
exact linear algebra: the identity holds in every submodule lattice of a
Z_m-module iff the problem has a solution.

The oracles are deliberately separate routes: ``oracle_holds``
exhaustively evaluates an identity on a concrete subspace lattice of
F_m^d, and ``membership_via_contents`` re-derives term membership from
vertex-content systems; both exist to cross-check the pipeline, never to
replace it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import (TYPE_CHECKING, Dict, FrozenSet, Iterable, List, Mapping,
                    Optional, Sequence, Tuple)

from .balance import BalanceTrace, one_balance
from .linsolve import SolutionReport, solve_problem
from .pbg import GroupSpec, PbgProblem, dual_problem
from .planegraph import PlaneGraph, graph_of_term, sorted_vertices
from .terms import (
    Identity,
    Join,
    Meet,
    Term,
    Variable,
    dual_identity,
    is_one_balanced,
    variables,
)

if TYPE_CHECKING:  # numpy is imported on call, by the oracles only
    import numpy as np

Vector = Tuple[int, ...]
Basis = Tuple[Vector, ...]

# exhaustive oracle evaluation stays interactive below this many assignments
_ASSIGNMENT_CAP = 50_000_000


class OracleCapError(RuntimeError):
    pass


class DualityError(AssertionError):
    """A disagreement that would falsify the implementation, not the theorem."""


# ---------------------------------------------------------------------------
# linear algebra over F_m (m prime)

def _rref(rows: Iterable[Vector], dim: int, m: int) -> Basis:
    mat = [list(r) for r in rows if any(x % m for x in r)]
    rank = 0
    for col in range(dim):
        sel = next((i for i in range(rank, len(mat)) if mat[i][col] % m), None)
        if sel is None:
            continue
        mat[rank], mat[sel] = mat[sel], mat[rank]
        inv = pow(mat[rank][col] % m, -1, m)
        mat[rank] = [(x * inv) % m for x in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][col] % m:
                f = mat[i][col]
                mat[i] = [(x - f * y) % m for x, y in zip(mat[i], mat[rank])]
        rank += 1
        if rank == len(mat):
            break
    return tuple(tuple(row) for row in mat[:rank])


def _nullspace(rows: Basis, dim: int, m: int) -> Basis:
    reduced = _rref(rows, dim, m)
    pivots = [next(c for c in range(dim) if row[c]) for row in reduced]
    basis: List[Vector] = []
    for free in range(dim):
        if free in pivots:
            continue
        vec = [0] * dim
        vec[free] = 1
        for i, p in enumerate(pivots):
            vec[p] = (-reduced[i][free]) % m
        basis.append(tuple(vec))
    return tuple(basis)


def _span_set(basis: Basis, dim: int, m: int) -> FrozenSet[Vector]:
    vecs = {(0,) * dim}
    for row in basis:
        vecs = {tuple((x[i] + c * row[i]) % m for i in range(dim))
                for x in vecs for c in range(m)}
    return frozenset(vecs)


@dataclass
class SubspaceLattice:
    """All subspaces of F_m^d with join = sum and meet = intersection.

    Elements are canonical row-reduced bases, sorted by rank then rows, so
    element indices are stable.  Join stacks bases; meet intersects the
    solution sets of the two annihilator systems (kernel intersection).
    """

    prime: int
    dim: int
    elements: Tuple[Basis, ...]
    index: Dict[Basis, int]
    join_np: np.ndarray
    meet_np: np.ndarray
    leq_np: np.ndarray
    element_sets: Tuple[FrozenSet[Vector], ...]

    def __len__(self) -> int:
        return len(self.elements)

    def from_basis(self, rows: Iterable[Vector]) -> int:
        """Index of the subspace spanned by ``rows``."""
        return self.index[_rref(rows, self.dim, self.prime)]

    @property
    def zero(self) -> int:
        return self.index[()]

    @property
    def top(self) -> int:
        full = _rref([tuple(1 if i == j else 0 for j in range(self.dim))
                      for i in range(self.dim)], self.dim, self.prime)
        return self.index[full]

    def join(self, a: int, b: int) -> int:
        return int(self.join_np[a, b])

    def meet(self, a: int, b: int) -> int:
        return int(self.meet_np[a, b])

    def leq(self, a: int, b: int) -> bool:
        return bool(self.leq_np[a, b])


def _join_basis(a: Basis, b: Basis, dim: int, m: int) -> Basis:
    return _rref(a + b, dim, m)


def _meet_basis(a: Basis, b: Basis, dim: int, m: int) -> Basis:
    constraints = _nullspace(a, dim, m) + _nullspace(b, dim, m)
    return _rref(_nullspace(constraints, dim, m), dim, m)


@lru_cache(maxsize=None)
def subspace_lattice(m: int, d: int) -> SubspaceLattice:
    """Enumerate the subspace lattice of F_m^d (m in {2, 3, 5}, d <= 3)."""
    import numpy as np

    if m not in (2, 3, 5):
        raise ValueError(f"supported prime moduli are 2, 3, 5; got {m}")
    if d not in (1, 2, 3):
        raise ValueError(f"supported dimensions are 1..3; got {d}")
    nonzero = [v for v in itertools.product(range(m), repeat=d) if any(v)]
    seen = {(): None}
    frontier: List[Basis] = [()]
    while frontier:
        basis = frontier.pop()
        for vec in nonzero:
            grown = _rref(basis + (vec,), d, m)
            if grown not in seen:
                seen[grown] = None
                frontier.append(grown)
    elements = tuple(sorted(seen, key=lambda basis: (len(basis), basis)))
    index = {basis: i for i, basis in enumerate(elements)}
    size = len(elements)
    join_np = np.zeros((size, size), dtype=np.int16)
    meet_np = np.zeros((size, size), dtype=np.int16)
    leq_np = np.zeros((size, size), dtype=bool)
    for i, a in enumerate(elements):
        for j, b in enumerate(elements):
            join_np[i, j] = index[_join_basis(a, b, d, m)]
            meet_np[i, j] = index[_meet_basis(a, b, d, m)]
            leq_np[i, j] = _rref(b + a, d, m) == b
    sets = tuple(_span_set(basis, d, m) for basis in elements)
    return SubspaceLattice(m, d, elements, index, join_np, meet_np, leq_np, sets)


# ---------------------------------------------------------------------------
# exhaustive identity oracle

def oracle_holds(ident: Identity, lattice: SubspaceLattice,
                 var_cap: int = 5) -> bool:
    """Does ``ident`` hold under every assignment of lattice elements?

    Pure exhaustive evaluation via the lattice's operation tables,
    vectorized over the full assignment grid; entirely independent of the
    graph pipeline.
    """
    import numpy as np

    var_list = sorted(variables(ident.lhs) | variables(ident.rhs))
    k = len(var_list)
    if k > var_cap:
        raise OracleCapError(f"{k} variables exceed the oracle cap {var_cap}")
    size = len(lattice)
    if size ** k > _ASSIGNMENT_CAP:
        raise OracleCapError(
            f"{size}^{k} assignments exceed the oracle budget {_ASSIGNMENT_CAP}")
    axes = {}
    for pos, var in enumerate(var_list):
        shape = [1] * k
        shape[pos] = size
        axes[var] = np.arange(size, dtype=np.int16).reshape(shape)

    def evaluate(t: Term) -> np.ndarray:
        if isinstance(t, Variable):
            return axes[t.index]
        left = evaluate(t.left)
        right = evaluate(t.right)
        table = lattice.join_np if isinstance(t, Join) else lattice.meet_np
        return table[left, right]

    return bool(lattice.leq_np[evaluate(ident.lhs), evaluate(ident.rhs)].all())


# ---------------------------------------------------------------------------
# set-level term evaluation (used by the membership oracle and its tests)

def eval_term_on_spans(t: Term, spans: Mapping[int, FrozenSet[Vector]],
                       m: int) -> FrozenSet[Vector]:
    """Evaluate a term on concrete subspaces given as vector sets; the
    join of two subspaces is their elementwise sum."""
    if isinstance(t, Variable):
        return spans[t.index]
    left = eval_term_on_spans(t.left, spans, m)
    right = eval_term_on_spans(t.right, spans, m)
    if isinstance(t, Meet):
        return left & right
    return frozenset(tuple((x[i] + y[i]) % m for i in range(len(x)))
                     for x in left for y in right)


def _as_span(value, dim: int, m: int) -> FrozenSet[Vector]:
    if isinstance(value, (set, frozenset)):
        return frozenset(tuple(x % m for x in vec) for vec in value)
    basis = tuple(tuple(x % m for x in row) for row in value)
    return _span_set(basis, dim, m)


def membership_via_contents(g: PlaneGraph, m: int, d: int,
                            submodules: Mapping[int, object], u: Vector,
                            v: Vector) -> bool:
    """Decide ``v - u in p(B_1, ..., B_n)`` through systems of contents.

    Searches for a vertex labeling S of the term graph of ``p`` with
    S(source) = u, S(sink) = v, and S(head e_i) - S(tail e_i) in B_i for
    every edge.  ``submodules`` maps each edge index to a basis or a
    vector set over F_m^d.
    """
    if m not in (2, 3, 5):
        raise OracleCapError(f"supported prime moduli are 2, 3, 5; got {m}")
    if d > 2:
        raise OracleCapError("membership enumeration supports dimension <= 2")
    if len(g.vertices) > 5:
        raise OracleCapError("membership enumeration supports at most 5 vertices")
    spans = {idx: _as_span(submodules[idx], d, m) for idx in g.edge_indices}
    u = tuple(x % m for x in u)
    v = tuple(x % m for x in v)
    inner = [w for w in sorted_vertices(g) if w not in (g.source, g.sink)]
    all_vectors = list(itertools.product(range(m), repeat=d))
    edges = [(g.edges[idx], spans[idx]) for idx in g.edge_indices]
    for combo in itertools.product(all_vectors, repeat=len(inner)):
        contents = dict(zip(inner, combo))
        contents[g.source] = u
        contents[g.sink] = v
        if all(tuple((contents[e.head][i] - contents[e.tail][i]) % m
                     for i in range(d)) in span
               for e, span in edges):
            return True
    return False


# ---------------------------------------------------------------------------
# the decision pipeline

@dataclass
class Verdict:
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
                   path_limit: Optional[int] = None) -> Verdict:
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


@dataclass
class SelfDualityReport:
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
