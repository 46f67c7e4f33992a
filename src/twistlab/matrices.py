"""Sparse exact matrices over Z, Q, or a prime field, and Smith normal form.

All homology computations reduce to the routines here.  One Euclidean
elimination serves every ring: the ring says how big an element is, how to
divide with remainder and which unit normalizes a pivot (see `Ring`).  Over
the integers it keeps unimodular transform matrices, so kernels, solutions
of linear systems, and quotient presentations are exact; over a field every
nonzero entry is a unit, every remainder is zero, and the same code is
Gaussian elimination.  `smith_normal_form` returns the diagonal and the
logs of the elimination's row and column operations.  A caller multiplies
by a transform or inverse by running its log over the operand, never
forming the transform: the product form of the inverse (Dantzig and
Orchard-Hays, 1954), which takes "transforms only where they are needed"
(Dumas, Saunders and Villard, JSC 2001) one step further.  The transforms
themselves are built from their logs only when read, which the engine
never does.  `smith_diagonal` returns only the diagonal and the rank: it
first eliminates unit pivots, picked by a Markowitz-style rule (ibid.),
then runs the same elimination, without transforms, on the remainder.  The
Smith form is unique, so both give the same diagonal.

Storage is sparse, as the matrices that arise are: a boundary matrix of a
rank-d local system has at most (k+1)*d^2 nonzeros per column.  Row i is the
dict `entries[i]` from column to nonzero entry, and no dict holds a zero, so
products, sums, transposes and blocks cost time in the nonzeros.  The
elimination changes only the entries an operation reaches, deleting those
that cancel, and every operation a log applies is a row operation on its
operand (`apply_log`).  Its pivots and operations are those of a dense
sweep.  Row and column indices are checked: one out of range raises
`TwistlabError`.

Entries are canonical ring elements (see `Ring`), so an entry is zero
exactly when it is falsy, and zero tests here read `not a` instead of
calling the ring.  The public constructor checks that contract on dense
rows; the engine builds from row dicts with `Matrix.sparse`, unchecked.
"""

from __future__ import annotations

import heapq
from functools import cached_property

from .errors import CapacityError, RingMismatchError, TwistlabError
from .rings import Ring, Z

# Bound on the entries an m x n SNF may come to hold, if its fill is dense: D
# plus U, U^-1, V and V^-1 (D alone without transforms).  Desk-scale inputs
# stay far below it.
MAX_SNF_ENTRIES = 5 * 10**7


class Matrix:
    """Immutable-by-convention sparse matrix with ring-tagged entries: row i
    is `entries[i]`, a dict from column to nonzero entry."""

    __slots__ = ("ring", "entries", "nrows", "ncols")

    def __init__(self, ring: Ring, rows: list[list]):
        """The matrix of the dense row lists `rows`, each entry checked to be
        a canonical element of `ring`."""
        ncols = len(rows[0]) if rows else 0
        entries = []
        for row in rows:
            if len(row) != ncols:
                raise TwistlabError("ragged matrix rows")
            if not all(map(ring.is_element, row)):
                raise RingMismatchError(f"matrix row {row!r} holds an entry outside {ring}")
            entries.append({j: a for j, a in enumerate(row) if a})
        self.ring, self.entries, self.nrows, self.ncols = ring, entries, len(rows), ncols

    @property
    def rows(self) -> list[list]:
        """A dense copy: one list per row, zeros filled in."""
        z, n = self.ring.zero(), range(self.ncols)
        return [[row.get(j, z) for j in n] for row in self.entries]

    # -- constructors -------------------------------------------------

    @classmethod
    def sparse(cls, ring, entries, ncols):
        """The matrix whose rows are the dicts `entries`, taken as they are:
        they must hold only nonzero canonical entries in columns below ncols."""
        m = cls.__new__(cls)
        m.ring, m.entries, m.nrows, m.ncols = ring, entries, len(entries), ncols
        return m

    @classmethod
    def zeros(cls, ring, nrows, ncols):
        return cls.sparse(ring, [{} for _ in range(nrows)], ncols)

    @classmethod
    def identity(cls, ring, n):
        return cls.sparse(ring, _identity_rows(ring, n), n)

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
        return Matrix.sparse(self.ring, [dict(row) for row in self.entries], self.ncols)

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.ring == other.ring
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.entries == other.entries
        )

    def __hash__(self):
        raise TypeError("matrices are not hashable")

    def __repr__(self):
        return f"Matrix({self.ring}, {self.nrows}x{self.ncols})"

    def is_zero(self):
        return not any(self.entries)

    def entry(self, i, j):
        if not (0 <= i < self.nrows and 0 <= j < self.ncols):
            self._check_index("row", (i,), self.nrows)
            self._check_index("column", (j,), self.ncols)
        return self.entries[i].get(j) or self.ring.zero()

    def col(self, j):
        if not 0 <= j < self.ncols:
            self._check_index("column", (j,), self.ncols)
        z = self.ring.zero()
        return [row.get(j, z) for row in self.entries]

    def _check_index(self, what, idx, bound):
        """Raise, naming the first, if an index in idx lies outside range(bound)."""
        if idx and (min(idx) < 0 or max(idx) >= bound):
            bad = next(i for i in idx if not 0 <= i < bound)
            raise TwistlabError(f"{what} index {bad} out of range for a "
                                f"{self.nrows}x{self.ncols} matrix")

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
        brows = other.entries
        out = []
        # Each nonzero a = A[i][k] adds a * B[k][j] into out[i][j] for the
        # nonzeros of row k of B; the sums that cancel are dropped at the end.
        for arow in self.entries:
            row = {}
            for k, a in arow.items():
                for j, b in brows[k].items():
                    row[j] = add(row.get(j, zero), mul(a, b))
            if not all(row.values()):
                row = {j: x for j, x in row.items() if x}
            out.append(row)
        return Matrix.sparse(rg, out, other.ncols)

    def mul_vec(self, vec: list) -> list:
        if len(vec) != self.ncols:
            raise TwistlabError(
                f"shape mismatch {self.nrows}x{self.ncols} * vector of length {len(vec)}"
            )
        rg = self.ring
        zero, add, mul = rg.zero(), rg.add, rg.mul
        out = []
        for row in self.entries:
            acc = zero
            for k, a in row.items():
                x = vec[k]
                if x:
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
        out = [dict(row) for row in self.entries]
        for row, r2 in zip(out, other.entries):
            _add_multiple(row, r2, rg.one(), rg.add, rg.mul, rg.zero())
        return Matrix.sparse(rg, out, self.ncols)

    def _map(self, f, ring):
        """The matrix over ring of f(a) for each nonzero entry a, zeros dropped."""
        rows = [{j: x for j, a in row.items() if (x := f(a))} for row in self.entries]
        return Matrix.sparse(ring, rows, self.ncols)

    def neg(self):
        return self._map(self.ring.neg, self.ring)

    def sub(self, other):
        return self.add(other.neg())

    def scale(self, c):
        return self._map(lambda a: self.ring.mul(c, a), self.ring)

    def transpose(self):
        return Matrix.sparse(self.ring, _transpose(self.entries, self.ncols), self.nrows)

    def hstack(self, other):
        self._require_ring(other, "hstack")
        if self.nrows != other.nrows:
            raise TwistlabError("hstack row mismatch")
        n = self.ncols
        out = [r1 | {j + n: b for j, b in r2.items()} for r1, r2 in zip(self.entries, other.entries)]
        return Matrix.sparse(self.ring, out, n + other.ncols)

    def submatrix(self, row_idx, col_idx):
        self._check_index("row", row_idx, self.nrows)
        self._check_index("column", col_idx, self.ncols)
        where = {j: c for c, j in enumerate(col_idx)}
        if len(where) < len(col_idx):  # a repeated column: pick columns as rows
            return self.transpose().select_rows(col_idx).transpose().select_rows(row_idx)
        rows = [{where[j]: a for j, a in self.entries[i].items() if j in where} for i in row_idx]
        return Matrix.sparse(self.ring, rows, len(col_idx))

    def select_cols(self, col_idx):
        return self.submatrix(range(self.nrows), col_idx)

    def select_rows(self, row_idx):
        self._check_index("row", row_idx, self.nrows)
        return Matrix.sparse(self.ring, [dict(self.entries[i]) for i in row_idx], self.ncols)

    def cast(self, ring: Ring) -> "Matrix":
        """Re-read integer entries in another ring (Z -> Q or Z -> F_p)."""
        if self.ring == ring:
            return self
        if self.ring != Z:
            raise TwistlabError(f"can only cast integer matrices, not {self.ring}")
        return self._map(ring.from_int, ring)


def block_matrix(ring, blocks, row_dims, col_dims):
    """Assemble a matrix from a grid of optional blocks (None = zero block)."""
    out = []
    for bi, rdim in enumerate(row_dims):
        band = [{} for _ in range(rdim)]
        c0 = 0
        for bj, cdim in enumerate(col_dims):
            blk = blocks[bi][bj]
            if blk is not None:
                if blk.nrows != rdim or blk.ncols != cdim:
                    raise TwistlabError("block shape mismatch")
                for row, brow in zip(band, blk.entries):
                    for j, a in brow.items():
                        row[c0 + j] = a
            c0 += cdim
        out += band
    return Matrix.sparse(ring, out, sum(col_dims))


def _transpose(rows, ncols):
    cols = [{} for _ in range(ncols)]
    for i, row in enumerate(rows):
        for j, a in row.items():
            cols[j][i] = a
    return cols


# -- Smith normal form -----------------------------------------------


class SNF:
    """U * A * V = D with U, V invertible and D diagonal (divisibility chain
    over Z); Uinv and Vinv are the inverses of U and V.

    The elimination leaves D, the rank and two logs of its elementary
    operations, `row_ops` for the rows and `col_ops` for the columns.  The
    engine never forms a transform: `U_mul`, `Uinv_mul`, `V_mul` and
    `Vinv_mul` run a log over a copy of their operand (see `apply_log`).
    Each transform itself is that run over the identity, made the first
    time it is read and kept; building one twice gives the same matrix, so
    a concurrent first read is safe.
    """

    def __init__(self, D: Matrix, rank: int, row_ops: list, col_ops: list):
        self.D, self.rank = D, rank
        self.row_ops, self.col_ops = row_ops, col_ops

    @cached_property
    def U(self) -> Matrix:
        return _transform(self.D.ring, self.row_ops, self.D.nrows, False, False)

    @cached_property
    def Uinv(self) -> Matrix:
        return _transform(self.D.ring, self.row_ops, self.D.nrows, True, False)

    @cached_property
    def V(self) -> Matrix:
        return _transform(self.D.ring, self.col_ops, self.D.ncols, False, True)

    @cached_property
    def Vinv(self) -> Matrix:
        return _transform(self.D.ring, self.col_ops, self.D.ncols, True, True)

    def U_mul(self, X: Matrix) -> Matrix:
        """U * X, without forming U."""
        return self._mul(X, self.row_ops, self.D.nrows, False, False)

    def Uinv_mul(self, X: Matrix) -> Matrix:
        """U^-1 * X, without forming U^-1."""
        return self._mul(X, self.row_ops, self.D.nrows, True, False)

    def V_mul(self, X: Matrix) -> Matrix:
        """V * X, without forming V."""
        return self._mul(X, self.col_ops, self.D.ncols, False, True)

    def Vinv_mul(self, X: Matrix) -> Matrix:
        """V^-1 * X, without forming V^-1."""
        return self._mul(X, self.col_ops, self.D.ncols, True, True)

    def _mul(self, X, ops, n, inverse, transposed):
        self.D._require_ring(X, "product")
        if X.nrows != n:
            raise TwistlabError(f"shape mismatch {n}x{n} * {X.nrows}x{X.ncols}")
        rows = apply_log(X.ring, ops, [dict(row) for row in X.entries], inverse, transposed)
        return Matrix.sparse(X.ring, rows, X.ncols)

    @property
    def diagonal(self):
        zero = self.D.ring.zero()
        return [row.get(i, zero) for i, row in zip(range(self.D.ncols), self.D.entries)]

    def solve(self, B: Matrix):
        """Exact X with A X = B for the diagonalized A, or None if there is none."""
        rg = self.D.ring
        C = self.U_mul(B)
        diag = self.diagonal
        Y = [{} for _ in range(self.D.ncols)]
        for i, crow in enumerate(C.entries):
            d = diag[i] if i < len(diag) else rg.zero()
            for j, c in crow.items():
                if not d:
                    return None
                q, r = rg.divmod(c, d)
                if r:
                    return None
                Y[i][j] = q
        return self.V_mul(Matrix.sparse(rg, Y, B.ncols))


def apply_log(rg, ops, rows, inverse, transposed):
    """Left-multiply the row dicts `rows`, in place, by the transform the
    logged operations `ops` make, and return them.

    An entry (a, b, q) of a log is an elementary matrix E: a swap of rows a
    and b when q is None, a scaling of row a by the unit q when b is None,
    and rows[a] -= q * rows[b] otherwise.  The row log E_1 ... E_k makes
    U = E_k...E_1, and the column log, each column operation logged as the
    row operation of its transpose, makes V^T = E_k...E_1.  So U * X runs
    the log forward with each E as logged, U^-1 * X runs it backward with
    each E inverted (the scaling by q^-1, rows[a] += q * rows[b]), V * X
    backward with each E transposed (rows[b] -= q * rows[a]) and V^-1 * X
    forward with each E inverted and transposed (rows[b] += q * rows[a]); a
    swap is its own inverse and transpose.  With both flags false the column
    log gives V^T * X.
    """
    mul, zero = rg.mul, rg.zero()
    op = rg.add if inverse else rg.sub
    for a, b, q in reversed(ops) if inverse != transposed else ops:
        if q is None:
            rows[a], rows[b] = rows[b], rows[a]
        elif b is None:
            if rows[a]:
                _scale(rows[a], rg.inv(q) if inverse else q, mul)
        elif transposed:
            if rows[a]:
                _add_multiple(rows[b], rows[a], q, op, mul, zero)
        elif rows[b]:
            _add_multiple(rows[a], rows[b], q, op, mul, zero)
    return rows


def _transform(rg, ops, n, inverse, transposed):
    """The n x n transform (or inverse) the log `ops` makes: `apply_log` run
    over the identity."""
    return Matrix.sparse(rg, apply_log(rg, ops, _identity_rows(rg, n), inverse, transposed), n)


def _find_pivot(rows, t, size):
    """The nonzero entry of least Euclidean size in the rows from t, ties
    going to the lowest row, then column.  Those rows hold no column left of
    t.  A unit (size 1) is least, so the first row holding a unit gives the
    answer and ends the scan; over a field that is the first nonzero row."""
    best = None
    for i in range(t, len(rows)):
        row = rows[i]
        if row:
            s, j = min((size(a), j) for j, a in row.items())
            if s == 1:
                return i, j
            if best is None or s < best[0]:
                best = (s, i, j)
    return None if best is None else best[1:]


def _add_multiple(dst, src, c, op, mul, zero):
    """The row operation dst[j] = op(dst[j], mul(c, src[j])), with op an
    addition or a subtraction, made in place at the columns src holds: an
    entry that cancels is deleted.  c and src[j] are nonzero, and so, in an
    integral domain, is their product, so only an entry dst held can cancel."""
    for j, y in src.items():
        x = op(dst.get(j, zero), mul(c, y))
        if x:
            dst[j] = x
        else:
            del dst[j]


def _scale(row, c, mul):
    """row[j] = mul(c, row[j]) in place, for a unit c."""
    for j, y in row.items():
        row[j] = mul(c, y)


def _move_pivot(D, logs, t, pi, pj):
    """Swap the pivot at (pi, pj) to (t, t) in D and, when `logs` holds the
    row and column logs, log the swaps that move anything.  Rows above t
    hold no column from t on, so only the rows from t can hold the two
    columns swapped."""
    D[t], D[pi] = D[pi], D[t]
    if pj != t:
        for i in range(t, len(D)):
            row = D[i]
            a, b = row.pop(t, None), row.pop(pj, None)
            if b is not None:
                row[t] = b
            if a is not None:
                row[pj] = a
    if logs:
        if pi != t:
            logs[0].append((t, pi, None))
        if pj != t:
            logs[1].append((t, pj, None))


def _identity_rows(rg, n):
    one = rg.one()
    return [{i: one} for i in range(n)]


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

    The elimination logs its row and column operations instead of building
    the transforms; `SNF` builds each from its log when it is first read.
    """
    m, n = A.nrows, A.ncols
    _check_capacity(m, n, m * n + 2 * m * m + 2 * n * n)
    D = [dict(row) for row in A.entries]
    logs = ([], [])
    rank = _eliminate(D, logs, A.ring)
    return SNF(Matrix.sparse(A.ring, D, n), rank, *logs)


def smith_diagonal(A: Matrix) -> tuple[list, int]:
    """The diagonal of A's Smith normal form and its rank, without transforms.

    A first pass eliminates unit pivots.  It keeps the set of rows in each
    column, and a heap keyed on row length picks the next row; in it, the
    unit whose column is shortest is the pivot.  Subtracting multiples of the
    pivot row clears its column (the Schur-complement update: cancelled
    entries are deleted and fill-in joins its column's set), and the pivot
    row and column are dropped.  A row with no unit waits until an
    elimination changes it.  Eliminating a unit is an invertible row and
    column operation that leaves diag(1, S), so A has the Smith form of S
    with one more 1 in front, and the invariant factors and rank are those
    the elimination alone finds.  What is left, the nonzero rows of S, goes
    through the elimination `smith_normal_form` runs, with no transforms.
    Neither part ever holds more than the m x n entries of A.
    """
    m, n = A.nrows, A.ncols
    _check_capacity(m, n, m * n)
    rg = A.ring
    add, mul, size = rg.add, rg.mul, rg.size
    rows = [dict(row) for row in A.entries]
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
    D = [row for row in rows if row]
    rank = _eliminate(D, None, rg)
    diag = [rg.one()] * units + [D[i][i] for i in range(rank)]
    return diag + [rg.zero()] * (min(m, n) - len(diag)), units + rank


def _eliminate(D, logs, rg):
    """Diagonalize the row dicts D in place and return the rank; `logs` is
    the pair of lists the row and column operations are appended to (see
    `apply_log`), or None.

    Rows above t and columns left of t are already zero in column t and row
    t, as every earlier pivot's row and column were cleared, so each sweep
    runs over the rows below t and the columns right of t that hold an
    entry.  The column operations on D change only the rows that hold column
    t: row t and the rows whose remainder the row sweep left there.  A unit
    pivot (d == 1, always so over a field) divides with no call: the
    quotient is the entry.  A nonzero remainder, which only Z leaves, is
    smaller than the pivot and is picked as the next one.
    """
    rlog, clog = logs or (None, None)
    add, sub, mul, size, quo = rg.add, rg.sub, rg.mul, rg.size, rg.divmod
    zero, m, t = rg.zero(), len(D), 0
    while True:
        piv = _find_pivot(D, t, size)
        if piv is None:
            break
        _move_pivot(D, logs, t, *piv)
        while True:
            top = D[t]
            u = rg.normalizer(top[t])
            if u != 1:
                _scale(top, u, mul)
                if logs:
                    rlog.append((t, None, u))
            d = top[t]
            drows = [top]
            for i in range(t + 1, m):
                a = D[i].get(t)
                if a:
                    q = a if d == 1 else quo(a, d)[0]
                    if q:
                        _add_multiple(D[i], top, q, sub, mul, zero)
                        if logs:
                            rlog.append((i, t, q))
                    if t in D[i]:
                        drows.append(D[i])
            dirty = len(drows) > 1
            for j, a in [(j, a) for j, a in top.items() if j != t]:
                q = a if d == 1 else quo(a, d)[0]
                if q:
                    for row in drows:
                        x = sub(row.get(j, zero), mul(q, row[t]))
                        if x:
                            row[j] = x
                        else:
                            del row[j]
                    if logs:
                        clog.append((j, t, q))
                if j in top:
                    dirty = True
            if dirty:
                _move_pivot(D, logs, t, *_find_pivot(D, t, size))
                continue
            # Row and column are clear; enforce divisibility into the rest,
            # which a unit pivot has already.
            if d == 1:
                break
            offender = next(
                (i for i in range(t + 1, m) if any(quo(x, d)[1] for x in D[i].values())),
                None,
            )
            if offender is None:
                break
            _add_multiple(top, D[offender], rg.one(), add, mul, zero)
            if logs:
                rlog.append((t, offender, rg.neg(rg.one())))
        t += 1
    return t


# -- derived solvers --------------------------------------------------


def kernel_basis(A: Matrix) -> Matrix:
    """Columns form a basis of ker(A); over Z they generate the integer kernel:
    the columns r... of V, read as V applied to their selector."""
    snf = smith_normal_form(A)
    return snf.V_mul(Matrix.identity(A.ring, A.ncols).select_cols(range(snf.rank, A.ncols)))


def image_basis(A: Matrix) -> Matrix:
    """Columns form a basis of the column span (the image lattice over Z): the
    columns :r of A V, read as the transpose of the rows :r of V^T A^T."""
    snf = smith_normal_form(A)
    vt_at = apply_log(A.ring, snf.col_ops, _transpose(A.entries, A.ncols), False, False)
    return Matrix.sparse(A.ring, _transpose(vt_at[:snf.rank], A.nrows), snf.rank)


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
    operations: every division is exact, since the ring is an integral domain.
    Step t rebuilds each row below t on the columns right of t, the only
    ones later steps read."""
    if A.nrows != A.ncols:
        raise TwistlabError("determinant of a non-square matrix")
    n = A.nrows
    rg = A.ring
    zero, sub, mul, div = rg.zero(), rg.sub, rg.mul, rg.exact_div
    M = list(A.entries)
    det = prev = rg.one()
    for t in range(n):
        if t not in M[t]:
            piv = next((i for i in range(t + 1, n) if t in M[i]), None)
            if piv is None:
                return rg.zero()
            M[t], M[piv] = M[piv], M[t]
            det = rg.neg(det)
        top = M[t]
        p = top[t]
        for i in range(t + 1, n):
            row = M[i]
            a = row.get(t, zero)
            M[i] = {j: x for j in range(t + 1, n)
                    if (x := div(sub(mul(row.get(j, zero), p), mul(a, top.get(j, zero))), prev))}
        prev = p
    return rg.mul(det, prev)


def is_invertible(A: Matrix) -> bool:
    return A.nrows == A.ncols and A.ring.is_unit(determinant(A))
