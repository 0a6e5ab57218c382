import itertools
import random
from fractions import Fraction

import pytest

import ldk.linsolve
from conftest import random_balanced_identity
from ldk.decision import build_problem
from ldk.linsolve import (
    CapExceededError,
    IntMatrix,
    assemble_system,
    enumerate_solutions,
    smith_normal_form,
    solve,
    solve_problem,
)
from ldk.pbg import GroupSpec, dual_problem, is_solution, transpose_problem
from ldk.planegraph import validate
from ldk.terms import parse_identity

MEET_JOIN = parse_identity(r"x1 /\ x2 <= x1 \/ x2")[0]
IDENTITY_ID = parse_identity("x1 <= x1")[0]


def naive_matmul(a, b):
    rows = len(a)
    inner = len(b)
    cols = len(b[0]) if inner else 0
    return [[sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(cols)]
            for i in range(rows)]


def determinant(rows):
    # fraction-free enough for unimodularity checks
    mat = [[Fraction(x) for x in row] for row in rows]
    n = len(mat)
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if mat[r][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            mat[c], mat[piv] = mat[piv], mat[c]
            det = -det
        det *= mat[c][c]
        inv = 1 / mat[c][c]
        for r in range(c + 1, n):
            if mat[r][c]:
                f = mat[r][c] * inv
                mat[r] = [x - f * y for x, y in zip(mat[r], mat[c])]
    return det


def brute_solution_set(M, rhs, m, n):
    out = set()
    for vec in itertools.product(range(m), repeat=n):
        if all(sum(row[j] * vec[j] for j in range(n)) % m == target % m
               for row, target in zip(M.rows, rhs)):
            out.add(vec)
    return out


def _dense_snf(M):
    """The dense Smith normal form that the sparse one replaced, kept as
    its reference: the same pivot rule and the same sequence of row and
    column operations, on dense lists with U built as rows x rows."""
    A = [list(row) for row in M.rows]
    nrows = len(A)
    ncols = len(A[0]) if A else 0
    U = [[1 if i == j else 0 for j in range(nrows)] for i in range(nrows)]
    V = [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)]

    def row_add(dst, src, q):
        A[dst] = [x + q * y for x, y in zip(A[dst], A[src])]
        U[dst] = [x + q * y for x, y in zip(U[dst], U[src])]

    def col_add(dst, src, q):
        for row in A:
            row[dst] += q * row[src]
        for row in V:
            row[dst] += q * row[src]

    def row_swap(i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]

    def col_swap(i, j):
        for row in A + V:
            row[i], row[j] = row[j], row[i]

    def find_pivot(t):
        pivot = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                value = abs(A[i][j])
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
            A[t] = [-x for x in A[t]]
            U[t] = [-x for x in U[t]]
        while True:
            dirty = False
            for i in range(t + 1, nrows):
                if A[i][t]:
                    q = A[i][t] // A[t][t]
                    if q:
                        row_add(i, t, -q)
                    if A[i][t]:
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
            d = A[t][t]
            if d == 1:
                break
            offender = next(((i, j)
                             for i in range(t + 1, nrows)
                             for j in range(t + 1, ncols)
                             if A[i][j] % d), None)
            if offender is None:
                break
            row_add(t, offender[0], 1)
    return IntMatrix.from_rows(U), IntMatrix.from_rows(A), IntMatrix.from_rows(V)


def _random_matrix(rng, max_rows, max_cols, values):
    """Random entries from ``values``; about a third of the matrices get an
    all-zero row, and a third an all-zero column."""
    nrows, ncols = rng.randint(1, max_rows), rng.randint(1, max_cols)
    rows = [[rng.choice(values) for _ in range(ncols)] for _ in range(nrows)]
    if rng.random() < 0.35:
        rows[rng.randrange(nrows)] = [0] * ncols
    if rng.random() < 0.35:
        column = rng.randrange(ncols)
        for row in rows:
            row[column] = 0
    return rows


def _assert_unimodular_factorization(M, U, D, V):
    """U * M * V == D with det U and det V in {1, -1} (sympy's exact
    determinant over ZZ)."""
    from sympy.polys.domains import ZZ
    from sympy.polys.matrices import DomainMatrix

    assert naive_matmul(naive_matmul(U.rows, M.rows), V.rows) == \
        [list(r) for r in D.rows]
    for W in (U, V):
        assert DomainMatrix.from_list([list(r) for r in W.rows], ZZ).det() in (1, -1)


def test_assemble_meet_join_rows():
    problem = build_problem(MEET_JOIN, 0, 1)
    M, rhs = assemble_system(problem)
    assert M.rows == ((-1, -1), (1, 1))
    assert rhs == (-1, 1)


def test_assemble_identity_problem():
    problem = build_problem(IDENTITY_ID, 0, 1)
    M, rhs = assemble_system(problem)
    assert M.rows == ((-1,), (1,))
    assert rhs == (-1, 1)


def test_assembled_entries_are_small(balanced_corpus):
    for ident in balanced_corpus[:25]:
        problem = build_problem(ident, 0, 1)
        for mode in ("full", "facet_reduced"):
            M, _ = assemble_system(problem, mode=mode)
            assert all(x in (-1, 0, 1) for row in M.rows for x in row)


def test_snf_of_diag_2_3():
    U, D, V = smith_normal_form(IntMatrix.from_rows([[2, 0], [0, 3]]))
    assert D.rows == ((1, 0), (0, 6))
    assert naive_matmul(naive_matmul(U.rows, [[2, 0], [0, 3]]), V.rows) == \
        [list(r) for r in D.rows]


def test_snf_of_zero_matrix():
    M = IntMatrix.from_rows([[0, 0], [0, 0], [0, 0]])
    U, D, V = smith_normal_form(M)
    assert D.rows == M.rows
    assert U.rows == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert V.rows == ((1, 0), (0, 1))


def test_snf_random_sign_matrices():
    rng = random.Random(77)
    for _ in range(30):
        rows = [[rng.choice((-1, 0, 1)) for _ in range(8)] for _ in range(6)]
        M = IntMatrix.from_rows(rows)
        U, D, V = smith_normal_form(M)
        assert naive_matmul(naive_matmul(U.rows, rows), V.rows) == \
            [list(r) for r in D.rows]
        diag = [D.rows[i][i] for i in range(6)]
        assert all(d >= 0 for d in diag)
        for a, b in zip(diag, diag[1:]):
            assert (a == 0 and b == 0) or (a != 0 and b % a == 0)
        assert all(D.rows[i][j] == 0 for i in range(6) for j in range(8) if i != j)
        assert abs(determinant(U.rows)) == 1
        assert abs(determinant(V.rows)) == 1


def test_snf_diagonal_matches_sympy_invariant_factors():
    from sympy import Matrix
    from sympy.matrices.normalforms import invariant_factors
    from sympy.polys.domains import ZZ

    rng = random.Random(79)
    for _ in range(80):
        nrows, ncols = rng.randint(1, 12), rng.randint(1, 8)
        rows = [[rng.choice((-1, 0, 1)) for _ in range(ncols)]
                for _ in range(nrows)]
        _, D, _ = smith_normal_form(IntMatrix.from_rows(rows))
        diag = tuple(D.rows[i][i] for i in range(min(nrows, ncols)))
        expected = invariant_factors(Matrix(rows), domain=ZZ)
        assert diag == tuple(int(d) for d in expected), rows


def test_snf_matches_dense_reference():
    rng = random.Random(81)
    cases = [_random_matrix(rng, 12, 8, (-1, 0, 1)) for _ in range(300)]
    # beyond 6 x 6 the dense U entries of {-6..6} matrices run to
    # thousands of digits: the coefficient growth of plain elimination
    cases += [_random_matrix(rng, 6, 6, range(-6, 7)) for _ in range(300)]
    assert any(not any(row) for rows in cases for row in rows)
    assert any(not any(column) for rows in cases for column in zip(*rows))
    for rows in cases:
        M = IntMatrix.from_rows(rows)
        U, D, V = smith_normal_form(M)
        assert (U, D, V) == _dense_snf(M), rows
        _assert_unimodular_factorization(M, U, D, V)
    assert smith_normal_form(IntMatrix(())) == _dense_snf(IntMatrix(())) == \
        (IntMatrix(()), IntMatrix(()), IntMatrix(()))


def test_snf_matches_dense_reference_on_assembled_systems(balanced_corpus):
    for ident in balanced_corpus[:30]:
        primal = build_problem(ident, 0, 1)
        for problem in (primal, dual_problem(primal), transpose_problem(primal)):
            M, _ = assemble_system(problem, mode="facet_reduced")
            U, D, V = smith_normal_form(M)
            assert (U, D, V) == _dense_snf(M)
            _assert_unimodular_factorization(M, U, D, V)


def test_solve_factors_once_through_the_module_attribute(monkeypatch):
    # the benchmark counts factorizations by wrapping this attribute
    calls = []

    def counted(M):
        calls.append(M)
        return smith_normal_form(M)

    monkeypatch.setattr(ldk.linsolve, "smith_normal_form", counted)
    M = IntMatrix.from_rows([[1, 1, 0], [2, 0, 2], [0, 0, 0]])
    for m in (0, 2, 3, 4):
        calls.clear()
        solve(M, [1, 2, 0], GroupSpec(m))
        assert calls == [M]
    calls.clear()
    solve_problem(build_problem(MEET_JOIN, 0, 1))
    assert len(calls) == 1


def test_snf_is_deterministic():
    M = IntMatrix.from_rows([[3, 1, -4], [2, -6, 0]])
    assert smith_normal_form(M) == smith_normal_form(M)


def test_solve_sum_equation_over_z():
    report = solve(IntMatrix.from_rows([[1, 1]]), [1], GroupSpec(0))
    assert report.solvable and report.particular == (1, 0)
    assert report.snf_diagonal == (1,)
    (gen,) = report.kernel_generators
    assert gen in ((1, -1), (-1, 1))


def test_solve_doubling_equation():
    assert not solve(IntMatrix.from_rows([[2]]), [1], GroupSpec(0)).solvable
    report = solve(IntMatrix.from_rows([[2]]), [1], GroupSpec(3))
    assert report.solvable and report.particular == (2,)


def test_solve_trivial_group():
    report = solve(IntMatrix.from_rows([[2], [0]]), [1, 5], GroupSpec(1))
    assert report.solvable and report.particular == (0,)


def test_solve_dimension_mismatch():
    with pytest.raises(ValueError):
        solve(IntMatrix.from_rows([[1, 1]]), [1, 2], GroupSpec(0))


def test_solve_kernel_and_particular_are_solutions():
    rng = random.Random(78)
    for _ in range(15):
        ident = random_balanced_identity(rng, rng.randint(2, 6))
        for m in (0, 2, 3, 4, 6):
            problem = build_problem(ident, m, 1)
            M, rhs = assemble_system(problem)
            report = solve(M, rhs, problem.group)
            if not report.solvable:
                continue
            assert is_solution(problem, report.particular)
            for gen in report.kernel_generators:
                shifted = [p + g for p, g in zip(report.particular, gen)]
                assert is_solution(problem, shifted)


def test_enumerate_meet_join():
    assert enumerate_solutions(build_problem(MEET_JOIN, 2, 1)) == [(0, 1), (1, 0)]


def test_enumerate_trivial_group():
    assert enumerate_solutions(build_problem(MEET_JOIN, 1, 1)) == [(0, 0)]


def test_enumerate_identity_problem():
    assert enumerate_solutions(build_problem(IDENTITY_ID, 3, 1)) == [(1,)]


def test_enumerate_cap():
    problem = build_problem(MEET_JOIN, 5, 1)
    with pytest.raises(CapExceededError):
        enumerate_solutions(problem, cap=24)
    with pytest.raises(ValueError):
        enumerate_solutions(build_problem(MEET_JOIN, 0, 1))


def test_solve_agrees_with_enumeration(balanced_corpus):
    for ident in balanced_corpus[:30]:
        for m in (2, 3):
            problem = build_problem(ident, m, 1)
            if m ** problem.n > 10 ** 5:
                continue
            report = solve_problem(problem)
            found = enumerate_solutions(problem)
            assert report.solvable == bool(found)
            if report.solvable:
                assert report.particular in found


def test_facet_reduced_matches_full(balanced_corpus):
    for ident in balanced_corpus[:30]:
        for m in (2, 3):
            primal = build_problem(ident, m, 1)
            for problem in (primal, dual_problem(primal),
                            transpose_problem(primal)):
                # valid by construction, so nothing validates them at run time
                assert validate(problem.flow) == validate(problem.control) == []
                full = solve_problem(problem, mode="full")
                reduced = solve_problem(problem, mode="facet_reduced")
                assert full.solvable == reduced.solvable
                if m ** problem.n <= 10 ** 4:
                    M1, r1 = assemble_system(problem, mode="full")
                    M2, r2 = assemble_system(problem, mode="facet_reduced")
                    assert brute_solution_set(M1, r1, m, problem.n) == \
                        brute_solution_set(M2, r2, m, problem.n)


def test_facet_reduced_rows_are_pruned(balanced_corpus):
    for ident in balanced_corpus:
        M, rhs = assemble_system(build_problem(ident, 0, 1),
                                 mode="facet_reduced")
        pairs = list(zip(M.rows, rhs))
        # an all-zero row stays only as the unsolvable equation 0 = +-b
        assert all(any(row) or target for row, target in pairs)
        assert len(set(pairs)) == len(pairs)
