import itertools
import random
from fractions import Fraction

import pytest

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
    assert U.rows == IntMatrix.identity(3).rows
    assert V.rows == IntMatrix.identity(2).rows


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
