"""Exact integer linear systems for PBG problems.

The constraints of a problem assemble into an integer matrix with entries
in {-1, 0, 1}; solvability over Z or Z_m is decided through the Smith
normal form, computed in exact arbitrary-precision arithmetic (Python
ints).  A brute-force enumerator over (Z_m)^n serves as the independent
oracle for the solver; it is the only user of numpy, imported on call.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .pbg import GroupSpec, PbgProblem, transp_content
from .planegraph import (DEFAULT_PATH_LIMIT, facet_sides, first_path, maximal_paths,
                         sorted_vertices)

DEFAULT_ENUM_CAP = 10 ** 6


class CapExceededError(RuntimeError):
    def __init__(self, total: int, cap: int):
        super().__init__(f"enumeration of {total} vectors exceeds the cap {cap}")
        self.total = total
        self.cap = cap


@dataclass(frozen=True)
class IntMatrix:
    rows: Tuple[Tuple[int, ...], ...]

    def __post_init__(self):
        widths = {len(r) for r in self.rows}
        if len(widths) > 1:
            raise ValueError("matrix rows must all have the same length")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "IntMatrix":
        return cls(tuple(tuple(int(x) for x in row) for row in rows))

    @property
    def shape(self) -> Tuple[int, int]:
        return (len(self.rows), len(self.rows[0]) if self.rows else 0)


def _matvec(rows: Sequence[Sequence[int]], vec: Sequence[int]) -> List[int]:
    return [sum(r[j] * vec[j] for j in range(len(vec))) for r in rows]


def smith_normal_form(M: IntMatrix) -> Tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Return unimodular U, V and diagonal D with U * M * V = D, the
    diagonal nonnegative with d1 | d2 | ...

    Pivoting is deterministic: smallest nonzero absolute value, ties by
    lowest row then lowest column.  The row-major search stops at the
    first unit entry, which that rule would pick anyway.
    """
    A = [list(row) for row in M.rows]
    nrows = len(A)
    ncols = len(A[0]) if A else 0
    U = [[1 if i == j else 0 for j in range(nrows)] for i in range(nrows)]
    V = [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)]

    def row_add(dst: int, src: int, q: int) -> None:
        A[dst] = [x + q * y for x, y in zip(A[dst], A[src])]
        U[dst] = [x + q * y for x, y in zip(U[dst], U[src])]

    def col_add(dst: int, src: int, q: int) -> None:
        for row in A:
            row[dst] += q * row[src]
        for row in V:
            row[dst] += q * row[src]

    def row_swap(i: int, j: int) -> None:
        if i != j:
            A[i], A[j] = A[j], A[i]
            U[i], U[j] = U[j], U[i]

    def col_swap(i: int, j: int) -> None:
        if i != j:
            for row in A:
                row[i], row[j] = row[j], row[i]
            for row in V:
                row[i], row[j] = row[j], row[i]

    def row_negate(i: int) -> None:
        A[i] = [-x for x in A[i]]
        U[i] = [-x for x in U[i]]

    def find_pivot(t: int) -> Optional[Tuple[int, int, int]]:
        pivot = None
        for i in range(t, nrows):
            row = A[i]
            for j in range(t, ncols):
                value = abs(row[j])
                if value and (pivot is None or value < pivot[0]):
                    pivot = (value, i, j)
                    if value == 1:
                        return pivot
        return pivot

    for t in range(min(nrows, ncols)):
        pivot = find_pivot(t)
        if pivot is None:
            break
        row_swap(t, pivot[1])
        col_swap(t, pivot[2])
        if A[t][t] < 0:
            row_negate(t)
        while True:
            dirty = False
            for i in range(t + 1, nrows):
                if A[i][t]:
                    q = A[i][t] // A[t][t]
                    if q:
                        row_add(i, t, -q)
                    if A[i][t]:  # 0 < remainder < pivot: adopt it as pivot
                        row_swap(t, i)
                        dirty = True
            for j in range(t + 1, ncols):
                if A[t][j]:
                    q = A[t][j] // A[t][t]
                    if q:
                        col_add(j, t, -q)
                    if A[t][j]:
                        col_swap(t, j)
                        dirty = True
            if dirty:
                continue
            # cross is clear; force the pivot to divide the rest of the block
            d = A[t][t]
            if d == 1:  # a unit divides every entry
                break
            offender = next(((i, j)
                             for i in range(t + 1, nrows)
                             for j in range(t + 1, ncols)
                             if A[i][j] % d), None)
            if offender is None:
                break
            row_add(t, offender[0], 1)
    return IntMatrix.from_rows(U), IntMatrix.from_rows(A), IntMatrix.from_rows(V)


@dataclass(frozen=True)
class SolutionReport:
    solvable: bool
    particular: Optional[Tuple[int, ...]]
    kernel_generators: Tuple[Tuple[int, ...], ...]
    snf_diagonal: Tuple[int, ...]
    modulus: int

    def to_json(self) -> dict:
        return {
            "solvable": self.solvable,
            "particular": list(self.particular) if self.particular is not None else None,
            "kernel_generators": [list(g) for g in self.kernel_generators],
            "snf_diagonal": list(self.snf_diagonal),
            "modulus": self.modulus,
        }


def solve(M: IntMatrix, rhs: Sequence[int], group: GroupSpec) -> SolutionReport:
    """Decide M x = rhs over Z (modulus 0) or Z_m via the Smith form.

    With U M V = D and rhs' = U rhs the system becomes D y = rhs'; over Z
    each nonzero d_i must divide rhs'_i, over Z_m each gcd(d_i, m) must
    divide rhs'_i, and zero rows need a zero right-hand side.  Kernel
    generators are the free columns of V plus, over Z_m, the columns
    scaled by m / gcd(d_i, m).
    """
    nrows, ncols = M.shape
    if len(rhs) != nrows:
        raise ValueError(f"right-hand side has length {len(rhs)}, expected {nrows}")
    U, D, V = smith_normal_form(M)
    rhs2 = _matvec(U.rows, list(rhs))
    diag = [D.rows[i][i] for i in range(min(nrows, ncols))]
    m = group.modulus
    y = [0] * ncols
    solvable = True
    for i in range(nrows):
        d = diag[i] if i < len(diag) else 0
        c = rhs2[i]
        if m == 0:
            if d == 0:
                if c != 0:
                    solvable = False
                    break
            else:
                if c % d:
                    solvable = False
                    break
                y[i] = c // d
        else:
            c %= m
            g = math.gcd(d, m)
            if c % g:
                solvable = False
                break
            if d:
                mm = m // g
                if mm > 1:
                    y[i] = (c // g) * pow((d // g) % mm, -1, mm) % mm
    particular = None
    if solvable:
        x = _matvec(V.rows, y)
        particular = tuple(group.reduce(value) for value in x)
    kernel: List[Tuple[int, ...]] = []
    for j in range(ncols):
        d = diag[j] if j < len(diag) else 0
        column = tuple(V.rows[r][j] for r in range(ncols))
        if d == 0:
            vec = tuple(group.reduce(value) for value in column)
            if m == 0 or any(vec):
                kernel.append(vec)
        elif m:
            g = math.gcd(d, m)
            scale = m // g
            if scale < m:
                vec = tuple((scale * value) % m for value in column)
                if any(vec):
                    kernel.append(vec)
    deduped: List[Tuple[int, ...]] = []
    for vec in kernel:
        if vec not in deduped:
            deduped.append(vec)
    return SolutionReport(
        solvable=solvable,
        particular=particular,
        kernel_generators=tuple(deduped),
        snf_diagonal=tuple(diag),
        modulus=m,
    )


# ---------------------------------------------------------------------------
# constraint assembly

def _coefficient_rows(problem: PbgProblem):
    """Per flow vertex v and edge index j: c[v][j] = [head = v] - [tail = v]."""
    flow = problem.flow
    indices = problem.edge_indices
    column = {idx: pos for pos, idx in enumerate(indices)}
    verts = sorted_vertices(flow)
    coeff: Dict[object, Dict[int, int]] = {v: {} for v in verts}
    for idx in indices:
        edge = flow.edges[idx]
        coeff[edge.head][idx] = coeff[edge.head].get(idx, 0) + 1
        coeff[edge.tail][idx] = coeff[edge.tail].get(idx, 0) - 1
    return verts, column, coeff


def _facet_blocks(problem: PbgProblem, transp: Dict[object, int]):
    """(signed edges, transport) per block: the first maximal control path
    with the transport targets, then each inner control facet with its
    left boundary counted +1 and its right boundary -1."""
    control = problem.control
    sides = facet_sides(control)
    yield [(idx, 1) for idx in first_path(control)], transp
    for facet in control.inner_facets:
        left, right = sides[facet]
        yield [(idx, 1) for idx in left] + [(idx, -1) for idx in right], {}


def assemble_system(problem: PbgProblem, mode: str = "full",
                    path_limit: int = DEFAULT_PATH_LIMIT) -> Tuple[IntMatrix, Tuple[int, ...]]:
    """Turn the path constraints into an integer system M a = rhs.

    ``full``: one row per (maximal control path, flow vertex), duplicates
    removed, paths in depth-first order and vertices in id order.
    ``facet_reduced``: one block of rows for the transport equations along
    the first maximal path, and one per inner control facet for "effect of
    the left boundary = effect of the right boundary".  A block has rows
    only for the flow vertices that one of its edges ends at or that carry
    transport, in id order, less the last: over all vertices a block's
    rows and right-hand sides sum to zero.  All-zero rows with a zero
    right-hand side and repeated (row, rhs) pairs are dropped.
    """
    verts, column, coeff = _coefficient_rows(problem)
    n = problem.n
    transp = {v: 0 for v in verts}
    transp[problem.flow.source] -= problem.b
    transp[problem.flow.sink] += problem.b

    rows: List[Tuple[int, ...]] = []
    rhs: List[int] = []
    seen = set()

    def keep(row: Tuple[int, ...], target: int) -> None:
        if (row, target) not in seen:
            seen.add((row, target))
            rows.append(row)
            rhs.append(target)

    if mode == "full":
        for path in maximal_paths(problem.control, limit=path_limit):
            for v in verts:
                row = [0] * n
                table = coeff[v]
                for j in path:
                    c = table.get(j)
                    if c:
                        row[column[j]] = c
                keep(tuple(row), transp[v])
    elif mode == "facet_reduced":
        order = {v: pos for pos, v in enumerate(verts)}
        flow_edges = problem.flow.edges
        for signed, targets in _facet_blocks(problem, transp):
            touched = {v: {} for v, target in targets.items() if target}
            for idx, sign in signed:
                edge, col = flow_edges[idx], column[idx]
                for v, c in ((edge.head, sign), (edge.tail, -sign)):
                    entries = touched.setdefault(v, {})
                    entries[col] = entries.get(col, 0) + c
            for v in sorted(touched, key=order.__getitem__)[:-1]:
                row = [0] * n
                for col, c in touched[v].items():
                    row[col] = c
                target = targets.get(v, 0)
                if target or any(row):
                    keep(tuple(row), target)
    else:
        raise ValueError(f"unknown assembly mode {mode!r}")
    return IntMatrix.from_rows(rows), tuple(rhs)


def solve_problem(problem: PbgProblem, mode: str = "facet_reduced",
                  path_limit: int = DEFAULT_PATH_LIMIT) -> SolutionReport:
    M, rhs = assemble_system(problem, mode=mode, path_limit=path_limit)
    return solve(M, rhs, problem.group)


def enumerate_solutions(problem: PbgProblem, cap: int = DEFAULT_ENUM_CAP,
                        path_limit: int = DEFAULT_PATH_LIMIT) -> List[Tuple[int, ...]]:
    """All solution vectors over Z_m (m >= 1) by brute force, in
    lexicographic order.

    Checks the defining path conditions directly and independently of the
    Smith-form solver; vectorized over blocks of candidate vectors.
    """
    import numpy as np

    m = problem.group.modulus
    if m < 1:
        raise ValueError("enumeration needs a finite modulus (m >= 1)")
    n = problem.n
    total = m ** n
    if total > cap:
        raise CapExceededError(total, cap)
    paths = maximal_paths(problem.control, limit=path_limit)
    verts, column, coeff = _coefficient_rows(problem)
    targets = transp_content(problem.flow, problem.group, problem.b)
    target_vec = np.array([targets.values[v] for v in verts], dtype=np.int64)
    matrices = []
    for path in paths:
        mat = np.zeros((len(verts), n), dtype=np.int64)
        for vi, v in enumerate(verts):
            for j in path:
                c = coeff[v].get(j)
                if c:
                    mat[vi, column[j]] = c
        matrices.append(mat)

    solutions: List[Tuple[int, ...]] = []
    iterator = itertools.product(range(m), repeat=n)
    block_size = 1 << 15
    while True:
        block = list(itertools.islice(iterator, block_size))
        if not block:
            break
        vectors = np.array(block, dtype=np.int64)
        good = np.ones(len(block), dtype=bool)
        for mat in matrices:
            effect = (vectors @ mat.T - target_vec) % m
            good &= ~effect.any(axis=1)
        for pos in np.flatnonzero(good):
            solutions.append(tuple(int(x) for x in vectors[pos]))
    return solutions
