import random
from fractions import Fraction

import pytest

from twistlab import Matrix, Q, Z, kernel_basis, prime_field, smith_normal_form, solve
from twistlab.errors import CapacityError, TwistlabError
from twistlab.matrices import (
    determinant, image_basis, inverse, is_invertible, smith_diagonal,
)


def M(rows, ring=Z):
    return Matrix.from_int_rows(ring, rows)


def test_snf_small_example():
    snf = smith_normal_form(M([[2, 4], [6, 8]]))
    assert snf.diagonal == [2, 4]
    assert snf.U.mul(M([[2, 4], [6, 8]])).mul(snf.V) == snf.D


def test_snf_identity():
    snf = smith_normal_form(Matrix.identity(Z, 3))
    assert snf.D == Matrix.identity(Z, 3)
    assert snf.rank == 3


def test_snf_zero_matrix():
    A = Matrix.zeros(Z, 2, 3)
    snf = smith_normal_form(A)
    assert snf.rank == 0
    assert snf.D.is_zero()
    assert abs(determinant(snf.U)) == 1
    assert abs(determinant(snf.V)) == 1


def random_matrix(rng, ring, m, n, density):
    """An m x n matrix with entries in -9..9, each drawn with probability
    `density` and zero otherwise; at density 1 no coin is tossed."""
    A = Matrix.zeros(ring, m, n)
    for row in A.rows:
        for j in range(n):
            if density >= 1 or rng.random() < density:
                row[j] = ring.from_int(rng.randint(-9, 9))
    return A


@pytest.mark.parametrize(
    "ring, density",
    [
        pytest.param(Z, 1, id="Z-dense"),
        pytest.param(Z, 0.1, id="Z-sparse"),
        pytest.param(Q, 0.1, id="Q-sparse"),
        pytest.param(prime_field(5), 0.1, id="F5-sparse"),
        pytest.param(prime_field(2), 0.1, id="F2-sparse"),
    ],
)
def test_snf_random_unimodularity_and_divisibility(ring, density):
    rng = random.Random(12345)
    for _ in range(200):
        m = rng.randint(1, 12)
        n = rng.randint(1, 12)
        A = random_matrix(rng, ring, m, n, density)
        snf = smith_normal_form(A)
        assert snf.U.mul(A).mul(snf.V) == snf.D
        assert smith_diagonal(A) == (snf.diagonal, snf.rank)
        if ring == Z:
            assert abs(determinant(snf.U)) == 1
            assert abs(determinant(snf.V)) == 1
        assert snf.U.mul(snf.Uinv) == Matrix.identity(ring, m)
        assert snf.V.mul(snf.Vinv) == Matrix.identity(ring, n)
        diag = [d for d in snf.diagonal if not ring.is_zero(d)]
        assert len(diag) == snf.rank
        assert snf.diagonal[: snf.rank] == diag
        if ring == Z:
            assert all(d > 0 for d in diag)
            for a, b in zip(diag, diag[1:]):
                assert b % a == 0
        else:
            assert diag == [ring.one()] * snf.rank
        # off-diagonal zero
        for i in range(snf.D.nrows):
            for j in range(snf.D.ncols):
                if i != j:
                    assert ring.is_zero(snf.D.rows[i][j])


def test_snf_deterministic():
    rng = random.Random(99)
    A = M([[rng.randint(-9, 9) for _ in range(7)] for _ in range(5)])
    s1 = smith_normal_form(A)
    s2 = smith_normal_form(A.copy())
    assert s1.D == s2.D and s1.U == s2.U and s1.V == s2.V


def test_snf_over_fields():
    F5 = prime_field(5)
    A = Matrix.from_int_rows(F5, [[2, 4], [1, 2]])
    snf = smith_normal_form(A)
    assert snf.rank == 1
    assert snf.U.mul(A).mul(snf.V) == snf.D
    B = Matrix.from_int_rows(Q, [[2, 4], [6, 8]])
    sb = smith_normal_form(B)
    assert sb.rank == 2
    for s, ring in ((snf, F5), (sb, Q)):
        assert s.U.mul(s.Uinv) == Matrix.identity(ring, 2)
        assert s.V.mul(s.Vinv) == Matrix.identity(ring, 2)


def test_kernel_and_solve():
    A = M([[1, 2, 3], [2, 4, 6]])
    ker = kernel_basis(A)
    assert ker.ncols == 2
    assert A.mul(ker).is_zero()
    b = M([[3], [6]])
    x = solve(A, b)
    assert x is not None and A.mul(x) == b
    assert solve(M([[2]]), M([[3]])) is None  # no integral solution
    assert solve(Matrix.from_int_rows(Q, [[2]]), Matrix.from_int_rows(Q, [[3]])) is not None


def test_image_basis_spans_lattice():
    A = M([[2, 0], [0, 3], [2, 3]])
    B = image_basis(A)
    # every column of A is an integer combination of the basis and vice versa
    assert solve(B, A) is not None
    assert solve(A, B) is not None


def test_inverse_and_invertibility():
    A = M([[1, 2], [0, 1]])
    assert is_invertible(A)
    assert A.mul(inverse(A)) == Matrix.identity(Z, 2)
    assert not is_invertible(M([[2, 0], [0, 1]]))  # det 2 is not a unit in Z
    F7 = prime_field(7)
    B = Matrix.from_int_rows(F7, [[2, 0], [0, 1]])
    assert is_invertible(B)
    assert B.mul(inverse(B)) == Matrix.identity(F7, 2)


def test_empty_shapes():
    A = Matrix.zeros(Z, 0, 4)
    assert kernel_basis(A) == Matrix.identity(Z, 4)
    B = Matrix.zeros(Z, 4, 0)
    assert kernel_basis(B).ncols == 0
    assert smith_normal_form(A).rank == 0


def test_add_and_sub_reject_mismatched_shapes():
    A = M([[1, 2], [3, 4]])
    for B in (M([[1, 2, 3], [4, 5, 6]]), M([[1, 2]]), Matrix.zeros(Z, 0, 2)):
        with pytest.raises(TwistlabError):
            A.add(B)
        with pytest.raises(TwistlabError):
            A.sub(B)


def test_add_sub_and_hstack_reject_mismatched_rings():
    A = M([[1, 2], [3, 4]])
    B = M([[1, 0], [0, 1]], Q)
    for op in ("add", "sub", "hstack"):
        with pytest.raises(TwistlabError):
            getattr(A, op)(B)


def test_add_keeps_columns_of_empty_matrices():
    A = Matrix.zeros(Z, 0, 3)
    assert A.add(A).ncols == 3
    assert A.sub(A) == A


def test_mul_vec_rejects_a_vector_of_the_wrong_length():
    A = M([[1, 2], [3, 4]])
    assert A.mul_vec([1, 1]) == [3, 7]
    for vec in ([1], [1, 1, 1]):
        with pytest.raises(TwistlabError):
            A.mul_vec(vec)


def naive_mul(A, B):
    """Reference product: one ring sum over every k for every (i, j)."""
    rg = A.ring
    rows = []
    for i in range(A.nrows):
        row = []
        for j in range(B.ncols):
            acc = rg.zero()
            for k in range(A.ncols):
                acc = rg.add(acc, rg.mul(A.rows[i][k], B.rows[k][j]))
            row.append(acc)
        rows.append(row)
    return rows


@pytest.mark.parametrize("ring", [Z, Q, prime_field(5)], ids=str)
@pytest.mark.parametrize("density", [0.05, 0.5, 1])
def test_mul_and_mul_vec_match_the_naive_product(ring, density):
    rng = random.Random(2024)
    shapes = [(3, 0, 4), (0, 2, 3)] + [tuple(rng.randint(0, 9) for _ in range(3)) for _ in range(60)]
    for m, k, n in shapes:
        A = random_matrix(rng, ring, m, k, density)
        if ring == Q:
            A = A.scale(Fraction(1, rng.randint(1, 6)))
        B = random_matrix(rng, ring, k, n, density)
        P, ref = A.mul(B), naive_mul(A, B)
        assert (P.nrows, P.ncols) == (m, n)
        assert P.rows == ref
        if n:
            assert A.mul_vec(B.col(0)) == [row[0] for row in ref]


def test_column_of_no_entries_is_one_column():
    c = Matrix.column(Z, [])
    assert (c.nrows, c.ncols) == (0, 1)
    P = Matrix.zeros(Z, 2, 0).mul(c)
    assert P == Matrix.zeros(Z, 2, 1)


def test_capacity_bound():
    # 1 x 6000 passes a per-side bound of 20000, but its 6000 x 6000
    # V and V^-1 alone hold 7.2e7 entries.
    for n in (20001, 6000):
        with pytest.raises(CapacityError):
            smith_normal_form(Matrix.zeros(Z, 1, n))


def test_transform_free_capacity_bounds_the_matrix_alone(monkeypatch):
    assert smith_diagonal(Matrix.zeros(Z, 1, 6000)) == ([0], 0)
    monkeypatch.setattr("twistlab.matrices.MAX_SNF_ENTRIES", 110)
    assert smith_diagonal(Matrix.identity(Z, 10)) == ([1] * 10, 10)
    with pytest.raises(CapacityError):
        smith_diagonal(Matrix.zeros(Z, 10, 12))
