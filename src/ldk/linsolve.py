"""Exact integer linear systems for PBG problems.

The constraints of a problem assemble into an integer matrix with entries
in {-1, 0, 1}; solvability over Z or Z_m is decided through the Smith
normal form, computed in exact arbitrary-precision arithmetic (Python
ints) over sparse rows and a column permutation, so that its work scales
with the nonzeros.  A brute-force enumerator over (Z_m)^n is the independent
oracle for the solver; it is the only user of numpy, imported on call.
"""

from __future__ import annotations

import itertools
import math
import operator
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .pbg import GroupSpec, PbgProblem, transp_content
from .planegraph import (DEFAULT_PATH_LIMIT, facet_sides, first_path, maximal_paths,
                         sorted_vertices)

DEFAULT_ENUM_CAP = 10 ** 6


class CapExceededError(RuntimeError):
    def __init__(self, total: int, cap: int):
        super().__init__(f"enumeration of {total} vectors exceeds the cap {cap}")
        self.total = total
        self.cap = cap


class IntMatrix:
    __slots__ = ("rows",)

    def __init__(self, rows: Tuple[Tuple[int, ...], ...]):
        if len(set(map(len, rows))) > 1:
            raise ValueError("matrix rows must all have the same length")
        self.rows = rows

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.rows == other.rows
        return NotImplemented

    def __hash__(self):
        return hash((self.rows,))

    def __repr__(self):
        return f"IntMatrix(rows={self.rows!r})"

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "IntMatrix":
        return cls(tuple(tuple(int(x) for x in row) for row in rows))

    @property
    def shape(self) -> Tuple[int, int]:
        return (len(self.rows), len(self.rows[0]) if self.rows else 0)


def smith_normal_form(M: IntMatrix) -> Tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Return unimodular U, V and diagonal D with U * M * V = D, the
    diagonal nonnegative with d1 | d2 | ...

    Pivoting is deterministic: smallest nonzero absolute value, ties by
    lowest row then lowest column.  The row-major search stops at the
    first unit entry, which that rule would pick anyway.

    Rows of M and U are sparse ``{column key: value}`` dicts, V is kept by
    columns, and a column swap only permutes ``col_at`` (position -> key)
    and ``pos`` (key -> position).  Rows at or below step t hold entries
    only at positions >= t, so every step reads and writes nonzeros only;
    U and V are made dense once, for the return value.
    """
    nrows, ncols = M.shape
    A = [dict(itertools.compress(enumerate(row), row)) for row in M.rows]
    U: List[Dict[int, int]] = [{i: 1} for i in range(nrows)]
    V = [[0] * k + [1] + [0] * (ncols - k - 1) for k in range(ncols)]  # V[key]: a column
    col_at = list(range(ncols))
    pos = list(range(ncols))

    def row_add(dst: int, src: int, q: int) -> None:
        _add_multiple(A[dst], A[src], q)
        _add_multiple(U[dst], U[src], q)

    def col_add(dst: int, src: int, q: int, holders: Sequence[int]) -> None:
        for i in holders:
            if src in A[i]:
                _add_multiple(A[i], {dst: A[i][src]}, q)
        V[dst] = [x + q * y for x, y in zip(V[dst], V[src])]

    def row_swap(i: int, j: int) -> None:
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]

    def col_swap(i: int, j: int) -> None:
        col_at[i], col_at[j] = col_at[j], col_at[i]
        pos[col_at[i]], pos[col_at[j]] = i, j

    def find_pivot(t: int) -> Optional[Tuple[int, int, int]]:
        pivot = None
        for i, row in enumerate(A[t:], t):
            if not row:
                continue
            value = min(map(abs, row.values()))
            if pivot is None or value < pivot[0]:
                pivot = (value, i, min(pos[k] for k, x in row.items() if abs(x) == value))
                if value == 1:
                    break
        return pivot

    def holding(t: int) -> List[int]:  # rows below t with a nonzero at position t
        key = col_at[t]
        return [i for i in range(t + 1, nrows) if key in A[i]]

    for t in range(min(nrows, ncols)):
        pivot = find_pivot(t)
        if pivot is None:
            break
        row_swap(t, pivot[1])
        col_swap(t, pivot[2])
        if A[t][col_at[t]] < 0:
            A[t] = {k: -x for k, x in A[t].items()}
            U[t] = {k: -x for k, x in U[t].items()}
        while True:
            # a row or column op at one index leaves the later ones as they were
            key = col_at[t]
            below = []  # rows under t that still hold the pivot column
            for i in holding(t):
                q = A[i][key] // A[t][key]
                if q:
                    row_add(i, t, -q)
                if A[i].get(key):  # 0 < remainder < pivot: adopt it as pivot
                    row_swap(t, i)
                    below.append(i)
            dirty = bool(below)
            for j in sorted(p for p in map(pos.__getitem__, A[t]) if p > t):
                key, src = col_at[j], col_at[t]
                q = A[t][key] // A[t][src]
                if q:
                    col_add(key, src, -q, [t] + below)
                if A[t].get(key):
                    col_swap(t, j)
                    below = holding(t)
                    dirty = True
            if dirty:
                continue
            # cross is clear; force the pivot to divide the rest of the block
            d = A[t][col_at[t]]
            if d == 1:  # a unit divides every entry
                break
            offender = next((i for i in range(t + 1, nrows)
                             if any(x % d for x in A[i].values())), None)
            if offender is None:
                break
            row_add(t, offender, 1)
    return (IntMatrix(_dense(U, range(nrows))), IntMatrix(_dense(A, pos)),
            IntMatrix(tuple(zip(*(V[k] for k in col_at)))))


def _add_multiple(target: Dict[int, int], source: Dict[int, int], q: int) -> None:
    """target += q * source, dropping the entries that become zero."""
    for k, x in source.items():
        value = target.get(k, 0) + q * x
        if value:
            target[k] = value
        else:
            del target[k]


def _dense(rows: Sequence[Dict[int, int]],
           place: Sequence[int]) -> Tuple[Tuple[int, ...], ...]:
    """Sparse rows as tuples, the entry of key k at position place[k]."""
    out = []
    for row in rows:
        dense = [0] * len(place)
        for k, x in row.items():
            dense[place[k]] = x
        out.append(tuple(dense))
    return tuple(out)


class SolutionReport(NamedTuple):
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
    rhs2 = [sum(map(operator.mul, row, rhs)) for row in U.rows]
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
        x = [sum(map(operator.mul, row, y)) for row in V.rows]
        particular = tuple(map(group.reduce, x))
    kernel: List[Tuple[int, ...]] = []
    for j, column in enumerate(zip(*V.rows)):
        d = diag[j] if j < len(diag) else 0
        if d == 0:
            vec = tuple(map(group.reduce, column))
            if m == 0 or any(vec):
                kernel.append(vec)
        elif m:
            g = math.gcd(d, m)
            scale = m // g
            if scale < m:
                vec = tuple((scale * value) % m for value in column)
                if any(vec):
                    kernel.append(vec)
    return SolutionReport(
        solvable=solvable,
        particular=particular,
        kernel_generators=tuple(dict.fromkeys(kernel)),
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
    return IntMatrix(tuple(rows)), tuple(rhs)


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
