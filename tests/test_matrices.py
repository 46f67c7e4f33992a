import random

import pytest

from twistlab import Matrix, Q, Z, kernel_basis, prime_field, smith_normal_form, solve
from twistlab.errors import CapacityError, TwistlabError
from twistlab.matrices import determinant, image_basis, inverse, is_invertible


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


def test_snf_random_unimodularity_and_divisibility():
    rng = random.Random(12345)
    for _ in range(200):
        m = rng.randint(1, 12)
        n = rng.randint(1, 12)
        A = M([[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)])
        snf = smith_normal_form(A)
        assert snf.U.mul(A).mul(snf.V) == snf.D
        assert abs(determinant(snf.U)) == 1
        assert abs(determinant(snf.V)) == 1
        assert snf.U.mul(snf.Uinv) == Matrix.identity(Z, m)
        assert snf.V.mul(snf.Vinv) == Matrix.identity(Z, n)
        diag = [d for d in snf.diagonal if d != 0]
        assert all(d > 0 for d in diag)
        for a, b in zip(diag, diag[1:]):
            assert b % a == 0
        # off-diagonal zero
        for i in range(snf.D.nrows):
            for j in range(snf.D.ncols):
                if i != j:
                    assert snf.D.rows[i][j] == 0


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


def test_capacity_bound():
    # 1 x 6000 passes a per-side bound of 20000, but its 6000 x 6000
    # V and V^-1 alone hold 7.2e7 entries.
    for n in (20001, 6000):
        with pytest.raises(CapacityError):
            smith_normal_form(Matrix.zeros(Z, 1, n))
