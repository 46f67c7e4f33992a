import itertools
import random
import sys
import threading
from fractions import Fraction

import pytest

import twistlab as tl
from twistlab import Matrix, Q, Z, kernel_basis, prime_field, smith_normal_form, solve
from twistlab.errors import CapacityError, RingMismatchError, TwistlabError
from twistlab.matrices import (
    block_matrix, determinant, image_basis, inverse, is_invertible, smith_diagonal,
)

from conftest import (
    ALL_COMPLEXES, MANIFOLDS, load_complex, load_system, random_flat_system, random_unimodular,
)

CONTRACT_RINGS = [Z, Q, prime_field(2), prime_field(5)]


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
    rows = [[ring.from_int(rng.randint(-9, 9)) if density >= 1 or rng.random() < density
             else ring.zero() for _ in range(n)] for _ in range(m)]
    A = Matrix(ring, rows)
    A.ncols = n
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


def leibniz_determinant(A):
    """The determinant as the signed sum over all permutations, in A's ring."""
    rg, n = A.ring, A.nrows
    total = rg.zero()
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = rg.neg(rg.one()) if inversions % 2 else rg.one()
        for i, j in enumerate(perm):
            term = rg.mul(term, A.rows[i][j])
        total = rg.add(total, term)
    return total


@pytest.mark.parametrize("ring", CONTRACT_RINGS, ids=repr)
def test_determinant_matches_the_leibniz_expansion(ring):
    rng = random.Random(11)
    for n in range(5):
        for _ in range(60):
            # Mostly zeros, so that pivots vanish and rows swap, and many
            # matrices are singular; over Q some entries are not integers.
            rows = [[ring.from_int(rng.choice((0, 0, 0, 1, -1, 2, -3))) for _ in range(n)]
                    for _ in range(n)]
            if ring == Q:
                rows = [[x / rng.randint(1, 3) for x in row] for row in rows]
            A = Matrix(ring, rows)
            A.ncols = n
            det = leibniz_determinant(A)
            assert determinant(A) == det, (ring, rows)
            # is_invertible agrees with whether A X = I has a solution.
            assert is_invertible(A) == (solve(A, Matrix.identity(ring, n)) is not None)
            assert is_invertible(A) == ring.is_unit(det)


def test_empty_shapes():
    A = Matrix.zeros(Z, 0, 4)
    assert kernel_basis(A) == Matrix.identity(Z, 4)
    B = Matrix.zeros(Z, 4, 0)
    assert kernel_basis(B).ncols == 0
    assert smith_normal_form(A).rank == 0


@pytest.mark.parametrize("call, index", [
    (lambda A: A.select_cols([5]), 5),
    (lambda A: A.select_cols([0, -1]), -1),
    (lambda A: A.select_cols([1, 1, 2]), 2),
    (lambda A: A.select_rows([-1]), -1),
    (lambda A: A.select_rows([0, 2]), 2),
    (lambda A: A.submatrix([3], [0]), 3),
    (lambda A: A.col(5), 5),
    (lambda A: A.col(-1), -1),
    (lambda A: A.entry(5, 0), 5),
    (lambda A: A.entry(0, -1), -1),
], ids=["cols-5", "cols-neg", "repeated-cols", "rows-neg", "rows-2", "submatrix", "col-5",
        "col-neg", "entry-row", "entry-col"])
def test_index_misuse_raises_naming_the_index(call, index):
    A = M([[1, 2], [3, 4]])
    with pytest.raises(TwistlabError, match=f"index {index} out of range for a 2x2 matrix"):
        call(A)


def test_reads_in_range_are_unchanged():
    A = M([[1, 2], [3, 4]])
    assert A.select_cols([1, 1, 0]).rows == [[2, 2, 1], [4, 4, 3]]
    assert A.select_rows([1, 0]).rows == [[3, 4], [1, 2]]
    assert A.select_rows([]).nrows == 0 and A.select_cols(range(0)).ncols == 0
    assert (A.col(1), A.entry(1, 0)) == ([2, 4], 3)


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
    """Reference product, the dense loop `Matrix.mul` once was: one ring sum
    over every k for every (i, j), zeros included."""
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


def dense_is_zero(A):
    """Reference zero test, the loop `Matrix.is_zero` once was: the ring's
    test on every entry."""
    return all(A.ring.is_zero(x) for row in A.rows for x in row)


@pytest.mark.parametrize("ring", [Z, Q, prime_field(5), prime_field(2)], ids=str)
@pytest.mark.parametrize("density", [0.05, 0.5, 1])
def test_mul_and_mul_vec_match_the_naive_product(ring, density):
    rng = random.Random(2024)
    shapes = [(3, 0, 4), (0, 2, 3), (2, 3, 0)]
    shapes += [tuple(rng.randint(0, 9) for _ in range(3)) for _ in range(60)]
    for m, k, n in shapes:
        A = random_matrix(rng, ring, m, k, density)
        if ring == Q:
            A = A.scale(Fraction(1, rng.randint(1, 6)))
        B = random_matrix(rng, ring, k, n, density)
        P, ref = A.mul(B), naive_mul(A, B)
        assert (P.nrows, P.ncols) == (m, n)
        assert repr(P.rows) == repr(ref)
        for X in (A, B, P):
            assert X.is_zero() == dense_is_zero(X)
        if n:
            assert repr(A.mul_vec(B.col(0))) == repr([row[0] for row in ref])


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


# -- the dense elimination, kept as the reference for the SNF sweeps -------
#
# `dense_smith_normal_form` is the elimination `smith_normal_form` ran before
# its row operations skipped zeros: every row operation rebuilds the whole
# row, and every zero test asks the ring.  The pivots and operations are the
# same, so all five matrices must agree entry for entry, types included.


def _dense_pivot(D, t, m, n, rg):
    if rg.is_field:
        for i in range(t, m):
            for j in range(t, n):
                if not rg.is_zero(D[i][j]):
                    return i, j
        return None
    best = None
    for i in range(t, m):
        for j in range(t, n):
            a = D[i][j]
            if a != 0:
                if a in (1, -1):
                    return i, j
                if best is None or (abs(a), i, j) < best:
                    best = (abs(a), i, j)
    return None if best is None else best[1:]


def _dense_move_pivot(D, U, Ut, V, Vi, t, pi, pj):
    for rows, a, b in ((D, t, pi), (U, t, pi), (Ut, t, pi), (Vi, t, pj)):
        rows[a], rows[b] = rows[b], rows[a]
    for rows in (D, V):
        for row in rows:
            row[t], row[pj] = row[pj], row[t]


def _dense_column_sweep(D, V, t, j, c, rg):
    for rows in (D, V):
        for row in rows:
            if not rg.is_zero(row[t]):
                row[j] = rg.sub(row[j], rg.mul(c, row[t]))


def dense_smith_normal_form(A):
    """(U, D, V, Uinv, Vinv, rank) as row lists, by the dense sweeps."""
    rg, m, n = A.ring, A.nrows, A.ncols
    D = [row[:] for row in A.rows]
    U, Ut = Matrix.identity(rg, m).rows, Matrix.identity(rg, m).rows
    V, Vi = Matrix.identity(rg, n).rows, Matrix.identity(rg, n).rows
    t = 0
    while True:
        piv = _dense_pivot(D, t, m, n, rg)
        if piv is None:
            break
        _dense_move_pivot(D, U, Ut, V, Vi, t, *piv)
        if rg.is_field:
            p = D[t][t]
            inv = rg.inv(p)
            D[t] = [rg.mul(inv, x) for x in D[t]]
            U[t] = [rg.mul(inv, x) for x in U[t]]
            Ut[t] = [rg.mul(p, x) for x in Ut[t]]
            for i in range(m):
                if i != t and not rg.is_zero(D[i][t]):
                    c = D[i][t]
                    D[i] = [rg.sub(x, rg.mul(c, y)) for x, y in zip(D[i], D[t])]
                    U[i] = [rg.sub(x, rg.mul(c, y)) for x, y in zip(U[i], U[t])]
                    Ut[t] = [rg.add(x, rg.mul(c, y)) for x, y in zip(Ut[t], Ut[i])]
            for j in range(n):
                if j != t and not rg.is_zero(D[t][j]):
                    c = D[t][j]
                    _dense_column_sweep(D, V, t, j, c, rg)
                    Vi[t] = [rg.add(x, rg.mul(c, y)) for x, y in zip(Vi[t], Vi[j])]
            t += 1
            continue
        while True:
            if D[t][t] < 0:
                D[t], U[t], Ut[t] = ([-x for x in r] for r in (D[t], U[t], Ut[t]))
            d = D[t][t]
            dirty = False
            for i in range(t + 1, m):
                q = D[i][t] // d
                if q != 0:
                    D[i] = [x - q * y for x, y in zip(D[i], D[t])]
                    U[i] = [x - q * y for x, y in zip(U[i], U[t])]
                    Ut[t] = [x + q * y for x, y in zip(Ut[t], Ut[i])]
                dirty = dirty or D[i][t] != 0
            for j in range(t + 1, n):
                q = D[t][j] // d
                if q != 0:
                    _dense_column_sweep(D, V, t, j, q, rg)
                    Vi[t] = [x + q * y for x, y in zip(Vi[t], Vi[j])]
                dirty = dirty or D[t][j] != 0
            if dirty:
                _dense_move_pivot(D, U, Ut, V, Vi, t, *_dense_pivot(D, t, m, n, rg))
                continue
            d = D[t][t]
            offender = next(
                (i for i in range(t + 1, m) if any(D[i][j] % d for j in range(t + 1, n))),
                None,
            )
            if offender is None:
                break
            D[t] = [x + y for x, y in zip(D[t], D[offender])]
            U[t] = [x + y for x, y in zip(U[t], U[offender])]
            Ut[offender] = [x - y for x, y in zip(Ut[offender], Ut[t])]
        t += 1
    Uinv = [list(col) for col in zip(*Ut)] if m else []
    return U, D, V, Uinv, Vi, t


@pytest.mark.parametrize("ring", [Z, Q, prime_field(5), prime_field(2)], ids=str)
@pytest.mark.parametrize("density", [0.05, 0.2, 0.5, 1])
def test_snf_matches_the_dense_elimination(ring, density):
    rng = random.Random(31337)
    shapes = [(0, 4), (4, 0), (0, 0)]
    shapes += [(rng.randint(0, 9), rng.randint(0, 9)) for _ in range(80)]
    for m, n in shapes:
        A = random_matrix(rng, ring, m, n, density)
        if ring == Q:
            A = Matrix(Q, [[x / rng.randint(1, 6) for x in row] for row in A.rows]) if m else A
        ref = dense_smith_normal_form(A)
        snf = smith_normal_form(A)
        got = (snf.U.rows, snf.D.rows, snf.V.rows, snf.Uinv.rows, snf.Vinv.rows, snf.rank)
        assert repr(got) == repr(ref), (m, n)
        assert repr(smith_diagonal(A)) == repr((snf.diagonal, snf.rank))


# -- transforms built on first read, and applied without being built ---------
#
# `smith_normal_form` keeps logs of its row and column operations.  Each
# transform is built from its log when it is first read; the engine reads
# none, applying each log to the matrix it multiplies instead.  A 3 x 5
# matrix tells the transforms apart by the size of the build: U and U^-1 are
# 3 x 3, V and V^-1 are 5 x 5.

TRANSFORM_KEYS = {"U": (3, False), "Uinv": (3, True), "V": (5, False), "Vinv": (5, True)}


@pytest.fixture
def replays(monkeypatch):
    """The (size, inverse) of every transform built while the test runs."""
    made = []
    real = tl.matrices._transform

    def recording(rg, ops, n, inverse, transposed):
        made.append((n, inverse))
        return real(rg, ops, n, inverse, transposed)

    monkeypatch.setattr("twistlab.matrices._transform", recording)
    return made


def test_reading_a_transform_builds_it_once(replays):
    snf = smith_normal_form(M([[2, 4, 1, 0, 3], [6, 8, 0, 1, 5], [1, 0, 7, 2, 2]]))
    assert replays == []
    first = snf.V
    assert replays == [TRANSFORM_KEYS["V"]]
    assert snf.V is first
    assert replays == [TRANSFORM_KEYS["V"]]


def test_solvers_presentations_and_class_coordinates_build_no_transform(replays):
    A = M([[1, 2, 3, 4, 5], [2, 4, 6, 8, 10], [0, 1, 0, 1, 0]])
    assert A.mul(kernel_basis(A)).is_zero()
    B = M([[1], [2], [1]])
    assert A.mul(solve(A, B)) == B
    assert solve(image_basis(A), A) is not None
    K = load_complex("klein")
    G = random_flat_system("klein", 2, Z, random.Random(7))
    for C in (tl.chain_complex(K, G), tl.cochain_complex(K, G)):
        for k in range(K.dimension + 1):
            h = C.homology(k)
            assert C.class_coordinates(k, h.representatives) == Matrix.identity(Z, h.generators)
    assert replays == []


TRANSFORMS = ("U", "Uinv", "V", "Vinv")


@pytest.mark.parametrize("ring", CONTRACT_RINGS, ids=str)
@pytest.mark.parametrize("density", [0.3, 1])
def test_applying_a_transform_matches_multiplying_by_it(ring, density):
    rng = random.Random(8128)
    shapes = [(0, 4), (4, 0), (0, 0)]
    shapes += [(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(40)]
    for m, n in shapes:
        A = random_matrix(rng, ring, m, n, density)
        if ring == Q and m:
            A = Matrix(Q, [[x / rng.randint(1, 6) for x in row] for row in A.rows])
        for snf in (smith_normal_form(A), smith_normal_form(Matrix.zeros(ring, m, n))):
            for name in TRANSFORMS:
                T = getattr(snf, name)
                for cols in (0, rng.randint(1, 6)):
                    X = random_matrix(rng, ring, T.nrows, cols, density)
                    before = X.copy()
                    got = getattr(snf, name + "_mul")(X)
                    assert (got.nrows, got.ncols) == (T.nrows, cols)
                    assert repr(got.rows) == repr(T.mul(X).rows), (m, n, name)
                    assert X == before


def test_applying_a_transform_refuses_a_wrong_operand():
    snf = smith_normal_form(M([[2, 4, 1], [6, 8, 0]]))
    for name, n in (("U", 2), ("Uinv", 2), ("V", 3), ("Vinv", 3)):
        apply = getattr(snf, name + "_mul")
        for rows in (n - 1, n + 1):
            with pytest.raises(TwistlabError, match=f"shape mismatch {n}x{n} \\* {rows}x2"):
                apply(Matrix.zeros(Z, rows, 2))
        with pytest.raises(RingMismatchError):
            apply(Matrix.zeros(Q, n, 2))


@pytest.mark.parametrize("ring", CONTRACT_RINGS, ids=str)
def test_transforms_read_in_any_order_match_the_dense_elimination(ring, replays):
    rng = random.Random(2718)
    for density in (0.3, 1):
        A = random_matrix(rng, ring, 3, 5, density)
        if ring == Q:
            A = Matrix(Q, [[x / rng.randint(1, 6) for x in row] for row in A.rows])
        U, _, V, Uinv, Vinv, _ = dense_smith_normal_form(A)
        ref = {"U": U, "Uinv": Uinv, "V": V, "Vinv": Vinv}
        for order in itertools.permutations(ref):
            snf = smith_normal_form(A)
            replays.clear()
            for name in order:
                assert repr(getattr(snf, name).rows) == repr(ref[name]), (density, order)
            assert replays == [TRANSFORM_KEYS[name] for name in order]


def test_concurrent_first_reads_build_the_same_transforms():
    A = random_matrix(random.Random(161), Z, 12, 15, 0.4)
    U, _, V, Uinv, Vinv, _ = dense_smith_normal_form(A)
    ref = {"U": U, "Uinv": Uinv, "V": V, "Vinv": Vinv}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            snf = smith_normal_form(A)
            seen = [[] for _ in range(8)]

            def read(out, names):
                out.extend((name, getattr(snf, name)) for name in names)

            names = list(ref)
            threads = [threading.Thread(target=read, args=(out, names[k % 4:] + names[:k % 4]))
                       for k, out in enumerate(seen)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=10)
                assert not th.is_alive()
            for out in seen:
                assert len(out) == 4
                for name, got in out:
                    assert got.rows == ref[name] and got == getattr(snf, name), name
    finally:
        sys.setswitchinterval(interval)


# -- the sparse unit pass of smith_diagonal ----------------------------------
#
# `smith_diagonal` eliminates unit pivots on sparse rows and runs the dense
# elimination only on what is left; `smith_normal_form` runs the dense
# elimination alone, so its diagonal and rank are the reference, types included.


def _assert_diagonal_matches(A, where):
    snf = smith_normal_form(A)
    assert repr(smith_diagonal(A)) == repr((snf.diagonal, snf.rank)), where


def _shuffled(A, rng):
    rows, cols = list(range(A.nrows)), list(range(A.ncols))
    rng.shuffle(rows)
    rng.shuffle(cols)
    return A.submatrix(rows, cols)


def _remainder_shapes(monkeypatch):
    """The shapes of the dense remainders `smith_diagonal` hands on."""
    shapes = []
    real = tl.matrices._eliminate

    def recording(D, T, rg):
        shapes.append((len(D), len({j for row in D for j in row})))
        return real(D, T, rg)

    monkeypatch.setattr("twistlab.matrices._eliminate", recording)
    return shapes


def test_smith_diagonal_matches_on_every_fixture_differential(rng):
    for name in ALL_COMPLEXES:
        K = load_complex(name)
        for ring in CONTRACT_RINGS:
            systems = [tl.constant_system(K, d, ring) for d in (1, 2)]
            systems.append(random_flat_system(name, 2, ring, rng))
            for G in systems:
                for C in (tl.chain_complex(K, G), tl.cochain_complex(K, G)):
                    for k in C.degrees():
                        _assert_diagonal_matches(C.diff(k), (name, G.name, ring, k))


def test_smith_diagonal_matches_on_shuffled_bench_families():
    from inputs import klein_bottle, kuhn_torus, twisted_system

    families = [kuhn_torus(n, 2) for n in range(1, 6)]
    families += [klein_bottle(3, 3), klein_bottle(4, 4), kuhn_torus(1, 3), kuhn_torus(2, 3)]
    for gen in families:
        K = tl.parse_complex(gen.text())
        systems = [tl.constant_system(K, 1, ring) for ring in CONTRACT_RINGS]
        systems.append(tl.parse_system(
            twisted_system(gen, 2, "Z", random.Random(gen.name), "g").text(), K))
        for G in systems:
            C = tl.chain_complex(K, G)
            for k in C.degrees():
                for seed in range(3):
                    A = _shuffled(C.diff(k), random.Random(f"{gen.name}/{k}/{seed}"))
                    _assert_diagonal_matches(A, (gen.name, G.name, G.ring, k, seed))


def test_smith_diagonal_without_units_eliminates_nothing_sparsely(monkeypatch):
    rng = random.Random(4242)
    shapes = _remainder_shapes(monkeypatch)
    for density in (0.2, 0.6, 1):
        for _ in range(60):
            m, n = rng.randint(1, 9), rng.randint(1, 9)
            A = Matrix(Z, [[rng.choice((-1, 1)) * rng.randint(2, 9) if rng.random() < density
                            else 0 for _ in range(n)] for _ in range(m)])
            shapes.clear()
            smith_diagonal(A)
            assert shapes == [(sum(map(any, A.rows)), sum(map(any, zip(*A.rows))))], A.rows
            _assert_diagonal_matches(A, A.rows)


@pytest.mark.parametrize("ring", CONTRACT_RINGS, ids=str)
def test_smith_diagonal_of_unit_permutations_leaves_no_remainder(ring, monkeypatch):
    rng = random.Random(1729)
    units = [x for x in map(ring.from_int, range(-4, 5)) if ring.is_unit(x)]
    shapes = _remainder_shapes(monkeypatch)
    for _ in range(60):
        m, n = rng.randint(1, 9), rng.randint(1, 9)
        rows = [[ring.zero()] * n for _ in range(m)]
        for i, j in zip(rng.sample(range(m), min(m, n)), rng.sample(range(n), min(m, n))):
            a = rng.choice(units)
            rows[i][j] = a / rng.randint(1, 6) if ring == Q else a
        A = Matrix(ring, rows)
        shapes.clear()
        assert smith_diagonal(A) == ([ring.one()] * min(m, n), min(m, n))
        assert shapes == [(0, 0)], A.rows
        _assert_diagonal_matches(A, A.rows)


@pytest.mark.parametrize("ring", CONTRACT_RINGS, ids=str)
def test_smith_diagonal_of_empty_shapes(ring):
    for m, n in ((0, 0), (0, 5), (5, 0)):
        A = Matrix.zeros(ring, m, n)
        assert smith_diagonal(A) == ([], 0)
        _assert_diagonal_matches(A, (m, n))


# -- the ring contract behind the truthiness zero tests ----------------------


def _assert_zero_exactly_when_falsy(ring, values, where):
    for x in values:
        assert bool(x) == (not ring.is_zero(x)), (ring, x, where)


@pytest.mark.parametrize("ring", CONTRACT_RINGS, ids=str)
def test_ring_elements_are_zero_exactly_when_falsy(ring):
    values = [ring.zero(), ring.one()] + [ring.from_int(n) for n in range(-12, 13)]
    values += [ring.parse(t) for t in ("0", "-0", "7", "-10", "15")]
    if ring == Q:
        values += [ring.parse(t) for t in ("0/3", "-4/6", "5/5", "-3/9")]
    _assert_zero_exactly_when_falsy(ring, values, "built")
    results = [ring.neg(a) for a in values]
    for a in values:
        for b in values:
            results += [ring.add(a, b), ring.sub(a, b), ring.mul(a, b)]
            if ring.is_unit(b):
                results.append(ring.exact_div(a, b))
        if ring.is_unit(a):
            results.append(ring.inv(a))
    _assert_zero_exactly_when_falsy(ring, results, "arithmetic")


def _is_canonical(ring, x):
    if ring == Z:
        return type(x) is int
    if ring == Q:
        return type(x) is Fraction
    return type(x) is int and 0 <= x < ring.p


@pytest.mark.parametrize("ring", CONTRACT_RINGS, ids=str)
def test_ring_euclidean_structure(ring):
    # The elimination reads only these three methods to pick, normalize and
    # clear pivots, so they must hold on every element, units and zero included.
    rng = random.Random(2718)
    values = [ring.zero(), ring.one(), ring.from_int(-1)]
    for _ in range(300):
        a = rng.randint(-60, 60)
        values.append(ring.parse(f"{a}/{rng.randint(1, 9)}" if ring == Q else str(a)))
    results = []
    for _ in range(2000):
        a, b = rng.choice(values), rng.choice(values)
        if b:
            q, r = ring.divmod(a, b)
            assert ring.add(ring.mul(q, b), r) == a, (ring, a, b)
            assert not r or ring.size(r) < ring.size(b), (ring, a, b)
            results += [q, r]
    for a in values:
        if a:
            assert (ring.size(a) == 1) == ring.is_unit(a), (ring, a)
            assert ring.size(a) >= 1
            u = ring.normalizer(a)
            assert ring.is_unit(u)
            assert ring.mul(u, a) == (abs(a) if ring == Z else ring.one()), (ring, a)
            results.append(u)
    assert all(_is_canonical(ring, x) for x in values + results)
    _assert_zero_exactly_when_falsy(ring, results, "euclidean")


def test_differentials_on_the_fixtures_are_zero_exactly_when_falsy(rng):
    cases = [
        (name, random_flat_system(name, rank, ring, rng))
        for name in ALL_COMPLEXES
        for ring in CONTRACT_RINGS
        for rank in (1, 2)
    ]
    cases += [(name, tl.orientation_system(load_complex(name))) for name in MANIFOLDS]
    cases += [
        (name, load_system(sys_file, load_complex(name)))
        for name, sys_file in (("circle1", "minus1.sys"), ("circle3", "circle3_signs.sys"),
                               ("torus", "torus_ab.sys"))
    ]
    for name, G in cases:
        K = load_complex(name)
        for C in (tl.chain_complex(K, G), tl.cochain_complex(K, G)):
            for k in C.degrees():
                entries = [x for row in C.diff(k).rows for x in row]
                _assert_zero_exactly_when_falsy(G.ring, entries, (name, G.name, k))


# -- sparse rows against plain lists -------------------------------------------
#
# A `Matrix` holds each row as a dict of its nonzero entries; `.rows` is a dense
# copy.  Every structural operation must give, on that dense view, what the
# plain list computation gives, types included, and no row dict may hold a zero.


def assert_no_zero_stored(A, where=None):
    for row in A.entries:
        assert all(row.values()), (A.entries, where)
        assert all(0 <= j < A.ncols for j in row), (A.entries, where)
    assert len(A.entries) == A.nrows, where


def _dense_ref(ring, rows, ncols):
    A = Matrix(ring, rows)
    A.ncols = ncols
    return A


STRUCTURE_SHAPES = [(0, 0), (0, 4), (4, 0), (1, 1), (2, 5), (5, 2), (4, 4), (6, 3)]


@pytest.mark.parametrize("ring", CONTRACT_RINGS, ids=str)
@pytest.mark.parametrize("density", [0.2, 0.6, 1])
def test_structural_operations_match_plain_lists(ring, density):
    rng = random.Random(8086)
    F = ring.from_int
    for m, n in STRUCTURE_SHAPES:
        A, B = random_matrix(rng, ring, m, n, density), random_matrix(rng, ring, m, n, density)
        k = rng.randint(0, 3)
        C = random_matrix(rng, ring, m, k, density)
        a, b, c = A.rows, B.rows, C.rows
        x = F(rng.randint(-3, 3))
        ri = [rng.randrange(m) for _ in range(rng.randint(0, 5))] if m else []
        ci = [rng.randrange(n) for _ in range(rng.randint(0, 5))] if n else []
        cases = [
            (A.add(B), [[ring.add(p, q) for p, q in zip(r, s)] for r, s in zip(a, b)], n),
            (A.neg(), [[ring.neg(p) for p in r] for r in a], n),
            (A.sub(B), [[ring.sub(p, q) for p, q in zip(r, s)] for r, s in zip(a, b)], n),
            (A.scale(x), [[ring.mul(x, p) for p in r] for r in a], n),
            (A.transpose(), [[a[i][j] for i in range(m)] for j in range(n)], m),
            (A.hstack(C), [r + s for r, s in zip(a, c)], n + k),
            (A.submatrix(ri, ci), [[a[i][j] for j in ci] for i in ri], len(ci)),
            (A.select_rows(ri), [a[i] for i in ri], n),
            (A.select_cols(ci), [[r[j] for j in ci] for r in a], len(ci)),
            (block_matrix(ring, [[A, C], [None, A.select_cols(range(k)) if k <= n else None]],
                          [m, m], [n, k]),
             [r + s for r, s in zip(a, c)]
             + [[ring.zero()] * n + (r[:k] if k <= n else [ring.zero()] * k) for r in a], n + k),
            (A.add(A.neg()), [[ring.zero()] * n for _ in range(m)], n),
            (A.copy(), a, n),
        ]
        if ring == Z:
            for target in (Q, prime_field(2), prime_field(5)):
                cases.append((A.cast(target), [[target.from_int(p) for p in r] for r in a], n))
        for got, ref, ncols in cases:
            assert (got.nrows, got.ncols) == (len(ref), ncols), (m, n)
            assert repr(got.rows) == repr(ref), (m, n)
            assert_no_zero_stored(got, (m, n))
            assert got == _dense_ref(got.ring, ref, ncols)
            assert got.is_zero() == all(got.ring.is_zero(p) for r in ref for p in r)
        assert A.add(A.neg()).is_zero() and A.sub(A) == Matrix.zeros(ring, m, n)
        assert A == A.copy() and A.add(B) == B.add(A)
        assert (A == B) == (a == b)
        assert A != Matrix.zeros(ring, m, n + 1)
        assert_no_zero_stored(A)


@pytest.mark.parametrize("ring", CONTRACT_RINGS, ids=str)
def test_cancellation_stores_no_zero(ring):
    F = ring.from_int
    A = Matrix(ring, [[F(1), F(1)], [F(2), F(0)]])
    B = Matrix(ring, [[F(1)], [F(-1)]])
    P = A.mul(B)
    assert P.rows == [[ring.zero()], [F(2)]]
    assert_no_zero_stored(P)
    assert P.entries[0] == {} and A.add(A.neg()).entries == [{}, {}]
    if ring == prime_field(2):
        assert A.add(A).is_zero() and A.add(A).entries == [{}, {}]
    rng = random.Random(5)
    for _ in range(40):
        m, n = rng.randint(0, 7), rng.randint(0, 7)
        M = random_matrix(rng, ring, m, n, 0.5)
        snf = smith_normal_form(M)
        for X in (snf.U, snf.D, snf.V, snf.Uinv, snf.Vinv, M.mul(snf.V), snf.U.mul(M)):
            assert_no_zero_stored(X, (m, n))


@pytest.mark.parametrize(
    "ring, bad",
    [
        pytest.param(Z, [Fraction(1, 2), Fraction(2), 1.0, True, "1", None], id="Z"),
        pytest.param(Q, [1, 0, 0.5, True], id="Q"),
        pytest.param(prime_field(2), [2, -1, Fraction(1), True], id="F2"),
        pytest.param(prime_field(5), [5, -1, 7, Fraction(1), 1.0], id="F5"),
    ],
)
def test_public_constructor_rejects_entries_outside_the_ring(ring, bad):
    good = [ring.zero(), ring.one()]
    assert Matrix(ring, [good]).rows == [good]
    for x in bad:
        with pytest.raises(RingMismatchError):
            Matrix(ring, [good, [ring.one(), x]])
        with pytest.raises(RingMismatchError):
            Matrix.column(ring, [ring.one(), x])
    with pytest.raises(TwistlabError):
        Matrix(ring, [good, [ring.one()]])


def test_out_of_ring_entries_give_no_silently_wrong_answer():
    F5 = prime_field(5)
    with pytest.raises(RingMismatchError):
        Matrix(F5, [[5]])
    with pytest.raises(RingMismatchError):
        Matrix(Z, [[Fraction(1, 2), 1]])
    assert Matrix.from_int_rows(F5, [[5]]).is_zero()
    assert Matrix.from_int_rows(F5, [[5]]) == Matrix.zeros(F5, 1, 1)


@pytest.mark.parametrize("ring", CONTRACT_RINGS, ids=str)
def test_random_unimodular_is_not_the_identity(ring):
    for d in (2, 3):
        U = random_unimodular(ring, d, random.Random(20260810))
        assert U != Matrix.identity(ring, d)
        assert is_invertible(U)
        assert_no_zero_stored(U)
