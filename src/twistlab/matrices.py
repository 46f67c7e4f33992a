"""Dense exact matrices over Z, Q, or a prime field, and Smith normal form.

All homology computations reduce to the routines here.  One Euclidean
elimination serves every ring: the ring says how big an element is, how to
divide with remainder and which unit normalizes a pivot (see `Ring`).  Over
the integers it keeps unimodular transform matrices, so kernels, solutions
of linear systems, and quotient presentations are exact; over a field every
nonzero entry is a unit, every remainder is zero, and the same code is
Gaussian elimination.  `smith_normal_form` returns the diagonal with both
transforms and their inverses.  `smith_diagonal` returns only the diagonal
and the rank, which is all that ranks and invariant factors need: it first
eliminates unit pivots on sparse rows, picked by a Markowitz-style rule
(Dumas, Saunders and Villard, JSC 2001), and runs the same elimination,
without transforms, on the dense remainder.  A unit pivot splits off a 1 by
invertible row and column operations, so the Smith form, which is unique,
and with it the diagonal, is the one the dense elimination alone gives.

Storage is dense (a list of row lists), but the matrices that arise are
sparse: a boundary matrix of a rank-d local system has at most (k+1)*d^2
nonzeros per column.  So products visit only nonzero entries, and every row
and column operation of SNF updates, in place, only the positions where the
row or column being added is nonzero; adding zero would leave the entry as
it is.  Each product entry is still summed over the inner index in
increasing order, and the pivots and operations of `smith_normal_form` are
those of a dense sweep.

Entries are canonical ring elements (see `Ring`), so an entry is zero
exactly when it is falsy, and zero tests here read `not a` instead of
calling the ring.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import compress

from .errors import CapacityError, RingMismatchError, TwistlabError
from .rings import Ring, Z

# Bound on the entries an m x n SNF holds: D plus U, U^-1, V and V^-1 (D alone
# without transforms).  5e7 list slots are about 400 MB of pointers; desk-scale
# inputs stay far below it.
MAX_SNF_ENTRIES = 5 * 10**7


class Matrix:
    """Immutable-by-convention dense matrix with ring-tagged entries."""

    __slots__ = ("ring", "rows", "nrows", "ncols")

    def __init__(self, ring: Ring, rows: list[list]):
        self.ring = ring
        self.rows = rows
        self.nrows = len(rows)
        self.ncols = len(rows[0]) if rows else 0
        for r in rows:
            if len(r) != self.ncols:
                raise TwistlabError("ragged matrix rows")

    # -- constructors -------------------------------------------------

    @classmethod
    def zeros(cls, ring, nrows, ncols):
        z = ring.zero()
        m = cls(ring, [[z] * ncols for _ in range(nrows)])
        if nrows == 0:
            m.ncols = ncols
        return m

    @classmethod
    def identity(cls, ring, n):
        return cls(ring, _identity_rows(ring, n))

    @classmethod
    def from_int_rows(cls, ring, int_rows):
        return cls(ring, [[ring.from_int(x) for x in row] for row in int_rows])

    @classmethod
    def column(cls, ring, entries):
        m = cls(ring, [[e] for e in entries])
        m.ncols = 1
        return m

    # -- basic ops ----------------------------------------------------

    def copy(self):
        m = Matrix(self.ring, [row[:] for row in self.rows])
        m.ncols = self.ncols
        return m

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.ring == other.ring
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __hash__(self):
        raise TypeError("matrices are not hashable")

    def __repr__(self):
        return f"Matrix({self.ring}, {self.nrows}x{self.ncols})"

    def is_zero(self):
        return not any(map(any, self.rows))

    def col(self, j):
        return [row[j] for row in self.rows]

    def _require_ring(self, other, op):
        if self.ring != other.ring:
            raise RingMismatchError(f"ring mismatch in matrix {op}: {self.ring} vs {other.ring}")

    def mul(self, other: "Matrix") -> "Matrix":
        self._require_ring(other, "product")
        if self.ncols != other.nrows:
            raise TwistlabError(
                f"shape mismatch {self.nrows}x{self.ncols} * {other.nrows}x{other.ncols}"
            )
        rg = self.ring
        zero, add, mul = rg.zero(), rg.add, rg.mul
        n = other.ncols
        # Row k of `other` as its nonzero (j, b) pairs; each nonzero a = A[i][k]
        # adds a*b into out[i][j], in the same order over k as a dot product.
        bnz = [[(j, b) for j, b in enumerate(brow) if b] for brow in other.rows]
        out = []
        for arow in self.rows:
            row = [zero] * n
            for k, a in enumerate(arow):
                if a:
                    for j, b in bnz[k]:
                        row[j] = add(row[j], mul(a, b))
            out.append(row)
        m = Matrix(rg, out)
        m.ncols = n
        return m

    def mul_vec(self, vec: list) -> list:
        if len(vec) != self.ncols:
            raise TwistlabError(
                f"shape mismatch {self.nrows}x{self.ncols} * vector of length {len(vec)}"
            )
        rg = self.ring
        zero, add, mul = rg.zero(), rg.add, rg.mul
        nz = [(k, x) for k, x in enumerate(vec) if x]
        out = []
        for row in self.rows:
            acc = zero
            for k, x in nz:
                a = row[k]
                if a:
                    acc = add(acc, mul(a, x))
            out.append(acc)
        return out

    def add(self, other):
        self._require_ring(other, "sum")
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise TwistlabError(
                f"shape mismatch {self.nrows}x{self.ncols} + {other.nrows}x{other.ncols}"
            )
        rg = self.ring
        m = Matrix(
            rg,
            [
                [rg.add(a, b) for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.rows, other.rows)
            ],
        )
        m.ncols = self.ncols
        return m

    def neg(self):
        rg = self.ring
        m = Matrix(rg, [[rg.neg(a) for a in row] for row in self.rows])
        m.ncols = self.ncols
        return m

    def sub(self, other):
        return self.add(other.neg())

    def scale(self, c):
        rg = self.ring
        m = Matrix(rg, [[rg.mul(c, a) for a in row] for row in self.rows])
        m.ncols = self.ncols
        return m

    def transpose(self):
        if self.nrows == 0 or self.ncols == 0:
            return Matrix.zeros(self.ring, self.ncols, self.nrows)
        return Matrix(self.ring, [list(c) for c in zip(*self.rows)])

    def hstack(self, other):
        self._require_ring(other, "hstack")
        if self.nrows != other.nrows:
            raise TwistlabError("hstack row mismatch")
        m = Matrix(self.ring, [r1 + r2 for r1, r2 in zip(self.rows, other.rows)])
        m.ncols = self.ncols + other.ncols
        return m

    def submatrix(self, row_idx, col_idx):
        rows = [[self.rows[i][j] for j in col_idx] for i in row_idx]
        m = Matrix(self.ring, rows)
        m.ncols = len(col_idx)
        return m

    def select_cols(self, col_idx):
        return self.submatrix(range(self.nrows), col_idx)

    def select_rows(self, row_idx):
        return self.submatrix(row_idx, range(self.ncols))

    def cast(self, ring: Ring) -> "Matrix":
        """Re-read integer entries in another ring (Z -> Q or Z -> F_p)."""
        if self.ring == ring:
            return self
        if self.ring != Z:
            raise TwistlabError(f"can only cast integer matrices, not {self.ring}")
        m = Matrix(ring, [[ring.from_int(x) for x in row] for row in self.rows])
        m.ncols = self.ncols
        return m


def block_matrix(ring, blocks, row_dims, col_dims):
    """Assemble a matrix from a grid of optional blocks (None = zero block)."""
    total_r = sum(row_dims)
    total_c = sum(col_dims)
    out = Matrix.zeros(ring, total_r, total_c)
    r0 = 0
    for bi, rdim in enumerate(row_dims):
        c0 = 0
        for bj, cdim in enumerate(col_dims):
            blk = blocks[bi][bj]
            if blk is not None:
                if blk.nrows != rdim or blk.ncols != cdim:
                    raise TwistlabError("block shape mismatch")
                for i in range(rdim):
                    out.rows[r0 + i][c0 : c0 + cdim] = blk.rows[i][:]
            c0 += cdim
        r0 += rdim
    return out


# -- Smith normal form -----------------------------------------------


@dataclass
class SNF:
    """U * A * V = D with U, V invertible and D diagonal (divisibility chain
    over Z); Uinv and Vinv are the inverses of U and V."""

    U: Matrix
    D: Matrix
    V: Matrix
    Uinv: Matrix
    Vinv: Matrix
    rank: int

    @property
    def diagonal(self):
        return [
            self.D.rows[i][i] for i in range(min(self.D.nrows, self.D.ncols))
        ]

    def solve(self, B: Matrix):
        """Exact X with A X = B for the diagonalized A, or None if there is none."""
        rg = self.D.ring
        C = self.U.mul(B)
        diag = self.diagonal
        Y = Matrix.zeros(rg, self.D.ncols, B.ncols)
        for i in range(self.D.nrows):
            d = diag[i] if i < len(diag) else rg.zero()
            for j in range(B.ncols):
                c = C.rows[i][j]
                if c:
                    if not d:
                        return None
                    q, r = rg.divmod(c, d)
                    if r:
                        return None
                    Y.rows[i][j] = q
        return self.V.mul(Y)


def _find_pivot(rows, t, m, n, size):
    """The nonzero entry of least Euclidean size in the submatrix from (t, t),
    ties going to the lowest row, then column.  A unit (size 1) is least, so
    the first unit in row-major order is the answer and ends the scan; over a
    field that is the first nonzero entry."""
    best = None
    for i in range(t, m):
        ri = rows[i]
        for j in range(t, n):
            a = ri[j]
            if a:
                s = size(a)
                if s == 1:
                    return i, j
                if best is None or s < best[0]:
                    best = (s, i, j)
    return None if best is None else best[1:]


def _swap_rows(mat, i, j):
    if i != j:
        mat[i], mat[j] = mat[j], mat[i]


def _swap_cols(mat, i, j):
    if i != j:
        for row in mat:
            row[i], row[j] = row[j], row[i]


def _rows_with_nonzero(mat, t):
    """The rows of mat whose entry in column t is nonzero: the only rows a
    column operation col_j -= c * col_t changes.  A sweep over j != t leaves
    column t as it is, so one list serves the whole sweep."""
    return [row for row in mat if row[t]]


def _add_multiple(dst, src, c, op, mul):
    """The row operation dst[j] = op(dst[j], mul(c, src[j])), with op an
    addition or a subtraction, made in place at the positions where src is
    nonzero: elsewhere it would add zero."""
    for j, y in enumerate(src):
        if y:
            dst[j] = op(dst[j], mul(c, y))


def _scale(row, c, mul):
    """row[j] = mul(c, row[j]) in place at the nonzero positions."""
    for j, y in enumerate(row):
        if y:
            row[j] = mul(c, y)


def _move_pivot(D, T, t, pi, pj):
    """Swap the pivot at (pi, pj) to (t, t) in D and, when T holds the
    transforms (U, Ut = (U^-1)^T, V, Vi = V^-1), in them too."""
    _swap_rows(D, t, pi)
    _swap_cols(D, t, pj)
    if T:
        U, Ut, V, Vi = T
        _swap_rows(U, t, pi)
        _swap_rows(Ut, t, pi)
        _swap_cols(V, t, pj)
        _swap_rows(Vi, t, pj)


def _identity_rows(rg, n):
    one, zero = rg.one(), rg.zero()
    rows = [[zero] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = one
    return rows


def _check_capacity(m, n, entries):
    if entries > MAX_SNF_ENTRIES:
        raise CapacityError(
            f"diagonalizing a {m}x{n} matrix holds {entries} entries, over the "
            f"{MAX_SNF_ENTRIES}-entry bound"
        )


def smith_normal_form(A: Matrix) -> SNF:
    """Diagonalize A by invertible row/column operations.

    The pivot is the nonzero entry of least Euclidean size (ties: lowest
    row, then column), scaled by the ring's normalizing unit, and quotients
    are the ring's division with remainder.  Over Z that is the least
    absolute value, a positive pivot and floor division, and the final
    diagonal satisfies d_1 | d_2 | ... with d_i > 0.  Over fields the
    diagonal is 1,...,1,0,...  Output is deterministic for a fixed input.

    Each row operation on U is the inverse column operation on U^-1, kept
    transposed so that it is a row operation too; each column operation on V
    is the inverse row operation on V^-1.
    """
    m, n = A.nrows, A.ncols
    _check_capacity(m, n, m * n + 2 * m * m + 2 * n * n)
    rg = A.ring
    D = [row[:] for row in A.rows]
    U, Ut = _identity_rows(rg, m), _identity_rows(rg, m)
    V, Vi = _identity_rows(rg, n), _identity_rows(rg, n)
    rank = _eliminate(D, (U, Ut, V, Vi), m, n, rg)
    dD = Matrix(rg, D)
    dD.ncols = n
    Uinv = Matrix(rg, [list(c) for c in zip(*Ut)])
    return SNF(Matrix(rg, U), dD, Matrix(rg, V), Uinv, Matrix(rg, Vi), rank)


def smith_diagonal(A: Matrix) -> tuple[list, int]:
    """The diagonal of A's Smith normal form and its rank, without transforms.

    A sparse pass first eliminates unit pivots.  Rows are held as dicts of
    their nonzero entries, with the set of rows in each column, and a heap
    keyed on row length picks the next row; in it, the unit whose column is
    shortest is the pivot.  Subtracting multiples of the pivot row clears its
    column (the Schur-complement update: cancelled entries are deleted and
    fill-in joins its column's set), and the pivot row and column are
    dropped.  A row with no unit waits until an elimination changes it.
    Eliminating a unit is an invertible row and column operation that leaves
    diag(1, S), so A has the Smith form of S with one more 1 in front, and
    the invariant factors and rank are those the dense elimination finds.
    What is left, the nonzero rows and columns of S, goes densely through the
    elimination `smith_normal_form` runs, with no transforms.  Neither part
    ever holds more than the m x n entries of A.
    """
    m, n = A.nrows, A.ncols
    _check_capacity(m, n, m * n)
    rg = A.ring
    add, mul, size = rg.add, rg.mul, rg.size
    # compress walks the dense row in C and yields only the nonzero columns.
    rows = [{j: row[j] for j in compress(range(n), row)} for row in A.rows]
    cols = [set() for _ in range(n)]
    for i, row in enumerate(rows):
        for j in row:
            cols[j].add(i)
    heap = [(len(row), i) for i, row in enumerate(rows) if row]
    heapq.heapify(heap)
    units = 0
    while heap:
        length, p = heapq.heappop(heap)
        prow = rows[p]
        if length != len(prow):
            continue
        c = None
        for j, a in prow.items():
            if size(a) == 1 and (c is None or len(cols[j]) < len(cols[c])):
                c = j
        if c is None:
            continue
        # Row i gains -(b / a) * row p, b = row_i[c]; w = -a^-1 scales row p
        # once, so each updated entry is x + b * (w * y).
        w = rg.neg(rg.normalizer(prow.pop(c)))
        rows[p] = {}
        for j in prow:
            cols[j].discard(p)
        piv = [(j, mul(w, y)) for j, y in prow.items()]
        others, cols[c] = cols[c], set()
        others.discard(p)
        for i in others:
            row = rows[i]
            b = row.pop(c)
            for j, y in piv:
                x = row.get(j)
                if x is None:
                    row[j] = mul(b, y)
                    cols[j].add(i)
                else:
                    x = add(x, mul(b, y))
                    if x:
                        row[j] = x
                    else:
                        del row[j]
                        cols[j].discard(i)
            if row:
                heapq.heappush(heap, (len(row), i))
        units += 1
    zero = rg.zero()
    live = [j for j in range(n) if cols[j]]
    D = [[row.get(j, zero) for j in live] for row in rows if row]
    rank = _eliminate(D, None, len(D), len(live), rg)
    diag = [rg.one()] * units + [D[i][i] for i in range(rank)]
    return diag + [zero] * (min(m, n) - len(diag)), units + rank


def _eliminate(D, T, m, n, rg):
    """Diagonalize the rows D in place and return the rank; T is the tuple
    (U, Ut, V, Vi) of transforms to update alongside, or None.

    Rows above t and columns left of t are already zero in column t and row
    t, as every earlier pivot's row and column were cleared, so each sweep
    starts at t + 1.  A unit pivot (d == 1, always so over a field) divides
    with no call: the quotient is the entry.  A nonzero remainder, which only
    Z leaves, is smaller than the pivot and is picked as the next one.
    """
    U, Ut, V, Vi = T or (None,) * 4
    add, sub, mul, size, quo = rg.add, rg.sub, rg.mul, rg.size, rg.divmod
    t = 0
    while True:
        piv = _find_pivot(D, t, m, n, size)
        if piv is None:
            break
        _move_pivot(D, T, t, *piv)
        while True:
            u = rg.normalizer(D[t][t])
            if u != 1:
                _scale(D[t], u, mul)
                if T:
                    _scale(U[t], u, mul)
                    _scale(Ut[t], rg.inv(u), mul)
            d = D[t][t]
            dirty = False
            for i in range(t + 1, m):
                a = D[i][t]
                if a:
                    q = a if d == 1 else quo(a, d)[0]
                    if q:
                        _add_multiple(D[i], D[t], q, sub, mul)
                        if T:
                            _add_multiple(U[i], U[t], q, sub, mul)
                            _add_multiple(Ut[t], Ut[i], q, add, mul)
                    if D[i][t]:
                        dirty = True
            drows = _rows_with_nonzero(D, t)
            vrows = _rows_with_nonzero(V, t) if T else ()
            for j in range(t + 1, n):
                a = D[t][j]
                if a:
                    q = a if d == 1 else quo(a, d)[0]
                    if q:
                        for row in drows:
                            row[j] = sub(row[j], mul(q, row[t]))
                        for row in vrows:
                            row[j] = sub(row[j], mul(q, row[t]))
                        if T:
                            _add_multiple(Vi[t], Vi[j], q, add, mul)
                    if D[t][j]:
                        dirty = True
            if dirty:
                _move_pivot(D, T, t, *_find_pivot(D, t, m, n, size))
                continue
            # Row and column are clear; enforce divisibility into the rest,
            # which a unit pivot has already.
            if d == 1:
                break
            offender = next(
                (i for i in range(t + 1, m) if any(quo(x, d)[1] for x in D[i][t + 1:n])),
                None,
            )
            if offender is None:
                break
            one = rg.one()
            _add_multiple(D[t], D[offender], one, add, mul)
            if T:
                _add_multiple(U[t], U[offender], one, add, mul)
                _add_multiple(Ut[offender], Ut[t], one, sub, mul)
        t += 1
    return t


# -- derived solvers --------------------------------------------------


def kernel_basis(A: Matrix) -> Matrix:
    """Columns form a basis of ker(A); over Z they generate the integer kernel."""
    snf = smith_normal_form(A)
    idx = list(range(snf.rank, A.ncols))
    return snf.V.select_cols(idx)


def image_basis(A: Matrix) -> Matrix:
    """Columns form a basis of the column span (the image lattice over Z)."""
    snf = smith_normal_form(A)
    av = A.mul(snf.V)
    return av.select_cols(list(range(snf.rank)))


def solve(A: Matrix, B: Matrix):
    """Exact X with A X = B, or None when no solution exists in the ring."""
    if A.nrows != B.nrows:
        raise TwistlabError("solve shape mismatch")
    return smith_normal_form(A).solve(B)


def inverse(A: Matrix) -> Matrix:
    """Inverse of a square matrix invertible over its ring."""
    if A.nrows != A.ncols:
        raise TwistlabError("inverse of a non-square matrix")
    X = solve(A, Matrix.identity(A.ring, A.nrows))
    if X is None:
        raise TwistlabError("matrix is not invertible over its ring")
    return X


def determinant(A: Matrix):
    """Exact determinant by Bareiss fraction-free elimination, in the ring's
    operations: every division is exact, since the ring is an integral domain."""
    if A.nrows != A.ncols:
        raise TwistlabError("determinant of a non-square matrix")
    n = A.nrows
    rg = A.ring
    M = [row[:] for row in A.rows]
    det = prev = rg.one()
    for t in range(n):
        if not M[t][t]:
            piv = next((i for i in range(t + 1, n) if M[i][t]), None)
            if piv is None:
                return rg.zero()
            M[t], M[piv] = M[piv], M[t]
            det = rg.neg(det)
        p = M[t][t]
        for i in range(t + 1, n):
            a, row = M[i][t], M[i]
            for j in range(t + 1, n):
                row[j] = rg.exact_div(rg.sub(rg.mul(row[j], p), rg.mul(a, M[t][j])), prev)
        prev = p
    return rg.mul(det, prev)


def is_invertible(A: Matrix) -> bool:
    return A.nrows == A.ncols and A.ring.is_unit(determinant(A))
