"""Homology of finite free complexes as module presentations.

Over Z a homology group is presented by Smith normal form: a free rank, a
divisibility chain of invariant factors, and one representative cycle per
generator (torsion generators first, then free ones).  The code reads the
normalized SNF diagonal the same way over every ring: 1 means killed, 0 means
free, and any other entry d >= 2 is torsion, which only Z produces; over Q or
F_p every nonzero diagonal entry is 1, so only ranks remain.  Induced maps,
mapping cones, and exactness checking of assembled sequences all run through
these presentations.

A group alone (`FreeComplex.group`, and `is_acyclic` through it) needs only
ranks and invariant factors, so it reads one `smith_diagonal` per
differential, kept for every degree that differential touches: an
elimination of unit pivots, then a transform-free elimination of what is
left.
Representatives (`FreeComplex.homology`) take two SNFs per degree: one of its
differential, whose V holds the cycle basis and whose V^-1 gives cycle
coordinates, and one of the boundaries' cycle coordinates, whose U'^-1 gives
the generators.  No transform is formed: each is applied from its log to the
matrix it multiplies (`SNF.V_mul` and the like), and a degree keeps only the
differential's column log and the boundary SNF's row log.  Class coordinates
are computed a matrix at a time: V^-1, then U', applied to all columns of a
cycle matrix at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import RingMismatchError, TwistlabError
from .matrices import (
    SNF,
    Matrix,
    apply_log,
    block_matrix,
    kernel_basis,
    smith_diagonal,
    smith_normal_form,
    solve,
)
from .rings import Ring


class FreeComplex:
    """Finitely supported complex of free modules with exact differentials.

    direction 'chain': diffs[k] maps degree k to k-1.
    direction 'cochain': diffs[k] maps degree k to k+1.
    Every differential is checked, when the complex is built, to be over its
    ring, to be rank(target) x rank(k), and to square to zero.
    """

    def __init__(self, label: str, ring: Ring, direction: str,
                 ranks: dict[int, int], diffs: dict[int, Matrix]):
        if direction not in ("chain", "cochain"):
            raise TwistlabError(f"bad direction {direction!r}")
        self.label = label
        self.ring = ring
        self.direction = direction
        self._ranks = {k: r for k, r in ranks.items() if r > 0}
        for k, d in diffs.items():
            if d.ring != ring:
                raise RingMismatchError(f"{label}: differential at degree {k} is over "
                                        f"{d.ring}, not {ring}")
            shape = (self.rank(self._target_degree(k)), self.rank(k))
            if (d.nrows, d.ncols) != shape:
                raise TwistlabError(f"{label}: differential at degree {k} is "
                                    f"{d.nrows}x{d.ncols}, not {shape[0]}x{shape[1]}")
        self._diffs = diffs
        self._homology: dict[int, tuple] = {}
        self._diagonals: dict[int, tuple[list, int]] = {}
        self.assert_squares_zero()

    def rank(self, k: int) -> int:
        return self._ranks.get(k, 0)

    def degrees(self) -> list[int]:
        return sorted(self._ranks)

    def degree_span(self) -> list[int]:
        if not self._ranks:
            return []
        ks = self.degrees()
        return list(range(ks[0], ks[-1] + 1))

    def _target_degree(self, k: int) -> int:
        return k - 1 if self.direction == "chain" else k + 1

    def _source_degree(self, k: int) -> int:
        """The degree whose differential lands in degree k."""
        return k + 1 if self.direction == "chain" else k - 1

    def diff(self, k: int) -> Matrix:
        d = self._diffs.get(k)
        if d is None:
            d = Matrix.zeros(self.ring, self.rank(self._target_degree(k)), self.rank(k))
        return d

    def assert_squares_zero(self):
        for k in self.degrees():
            first = self.diff(k)
            second = self.diff(self._target_degree(k))
            if first.nrows and second.nrows:
                if not second.mul(first).is_zero():
                    raise TwistlabError(
                        f"{self.label}: differential does not square to zero at degree {k}"
                    )

    # -- homology -------------------------------------------------------

    def homology_ctx(self, k: int):
        if k not in self._homology:
            bd = self.diff(self._source_degree(k))
            self._homology[k] = presentation_of_quotient(smith_normal_form(self.diff(k)), bd)
        return self._homology[k]

    def _diagonal(self, k: int) -> tuple[list, int]:
        if k not in self._diagonals:
            self._diagonals[k] = smith_diagonal(self.diff(k))
        return self._diagonals[k]

    def group(self, k: int) -> "ModulePresentation":
        """The degree-k group without representatives: its rank is
        rank C_k - rank d_k - rank d_in, and its invariant factors are the
        diagonal entries of d_in, the differential into degree k, other
        than 1.  Relies on d.d = 0, checked when the complex is built."""
        if k in self._homology:
            return self._homology[k][0]
        _, r_out = self._diagonal(k)
        diag_in, r_in = self._diagonal(self._source_degree(k))
        invariants = tuple(d for d in diag_in[:r_in] if d != 1)
        return ModulePresentation(self.ring, self.rank(k) - r_out - r_in, invariants,
                                  self.rank(k))

    def homology(self, k: int) -> "ModulePresentation":
        return self.homology_ctx(k)[0]

    def class_coordinates(self, k: int, cycles: Matrix) -> Matrix:
        """Coordinates in the degree-k presentation of the classes of the
        columns of cycles, one column each: U' applied to rows r: of
        V^-1 . cycles, reduced modulo the orders of the kept generators."""
        _, ctx = self.homology_ctx(k)
        if not self.diff(k).mul(cycles).is_zero():
            raise TwistlabError(f"{self.label}: a column at degree {k} is not a cycle")
        coords = apply_log(self.ring, ctx.col_ops, [dict(row) for row in cycles.entries],
                           True, True)
        if any(coords[:ctx.r]):
            raise TwistlabError(f"{self.label}: a column at degree {k} is not in the cycle module")
        gamma = apply_log(self.ring, ctx.row_ops, coords[ctx.r:], False, False)
        rows = [
            {j: x for j, c in gamma[i].items() if (x := c % d)} if (d := ctx.orders[i])
            else gamma[i]
            for i in ctx.kept
        ]
        return Matrix.sparse(self.ring, rows, cycles.ncols)

    def is_acyclic(self) -> bool:
        return all(self.group(k).is_zero for k in self.degree_span())


@dataclass(frozen=True)
class ModulePresentation:
    """rank b, invariant factors d_1 | ... | d_t (each >= 2), representatives.

    Generator order is torsion first (matching the invariant factors), then
    free.  representatives, when present, holds one ambient column per
    generator.
    """

    ring: Ring
    rank: int
    invariants: tuple[int, ...]
    ambient_dim: int = 0
    representatives: Matrix | None = None

    def __post_init__(self):
        if self.rank < 0:
            raise TwistlabError(f"negative rank {self.rank}")
        for a, b in zip(self.invariants, self.invariants[1:]):
            if b % a != 0:
                raise TwistlabError(f"invariant factors {self.invariants} not a chain")
        if any(d < 2 for d in self.invariants):
            raise TwistlabError("invariant factors must be >= 2")
        if self.ring.is_field and self.invariants:
            raise TwistlabError("field presentations carry no torsion")

    @property
    def torsion_count(self) -> int:
        return len(self.invariants)

    @property
    def generators(self) -> int:
        return self.rank + len(self.invariants)

    @property
    def is_zero(self) -> bool:
        return self.generators == 0

    def isomorphic_to(self, other: "ModulePresentation") -> bool:
        return (
            self.ring == other.ring
            and self.rank == other.rank
            and self.invariants == other.invariants
        )

    def relation_orders(self) -> list:
        """Order of each generator: d_i for torsion, 0 for free."""
        return list(self.invariants) + [0] * self.rank

    def group_symbol(self) -> str:
        parts = []
        if self.rank:
            tok = self.ring.token
            base = "F_" + tok[1:] if tok.startswith("F") else tok
            parts.append(base if self.rank == 1 else f"{base}^{self.rank}")
        parts.extend(f"Z/{d}" for d in self.invariants)
        return " + ".join(parts) if parts else "0"


def zero_presentation(ring: Ring, ambient_dim: int = 0) -> ModulePresentation:
    return ModulePresentation(ring, 0, (), ambient_dim,
                              Matrix.zeros(ring, ambient_dim, 0))


@dataclass
class _QuotientContext:
    col_ops: list            # column log of the differential's SNF: V and V^-1
    r: int                   # its rank; rows r: of V^-1 . x are cycle coordinates
    row_ops: list            # row log of the boundary-coordinate SNF: U'
    orders: list             # padded diagonal: d_i (1 = killed, 0 = free)
    kept: list[int]          # generator indices surviving (d_i != 1)


def presentation_of_quotient(diff_snf: SNF, boundaries: Matrix):
    """Present ker(A) / span(boundaries) from the SNF U A V = D, of rank r, of
    a differential A.  The cycles are V[:, r:], the boundaries' coordinates Y
    in them are rows r: of V^-1 . boundaries (rows :r must vanish), and the
    generators are the cycles times the kept columns of U'^-1 from the SNF
    of Y: V . [0; U'^-1 . E], E selecting the kept columns.  No transform is
    formed; each is applied from its log."""
    ring = diff_snf.D.ring
    r = diff_snf.rank
    ambient = diff_snf.D.ncols
    z = ambient - r
    if z == 0:
        pres = zero_presentation(ring, ambient)
        return pres, _QuotientContext(diff_snf.col_ops, r, [], [], [])
    coords = diff_snf.Vinv_mul(boundaries)
    if any(coords.entries[:r]):
        raise TwistlabError("boundaries do not lie in the cycle module")
    snf = smith_normal_form(Matrix.sparse(ring, coords.entries[r:], coords.ncols))
    orders = snf.diagonal[:snf.rank] + [ring.zero()] * (z - snf.rank)
    kept = [i for i in range(z) if orders[i] != 1]
    invariants = tuple(orders[i] for i in kept if orders[i])
    gens = snf.Uinv_mul(Matrix.identity(ring, z).select_cols(kept))
    reps = diff_snf.V_mul(Matrix.sparse(ring, [{} for _ in range(r)] + gens.entries, len(kept)))
    pres = ModulePresentation(ring, len(kept) - len(invariants), invariants, ambient, reps)
    return pres, _QuotientContext(diff_snf.col_ops, r, snf.row_ops, orders, kept)


# -- chain maps -------------------------------------------------------


class ChainMapData:
    """Degree-preserving map of complexes commuting with differentials.

    sign = +1: d_target . F = F . d_source;  sign = -1: anticommutes.  The
    declared sign is verified degreewise at construction.
    """

    def __init__(self, label: str, source, target, mats: dict[int, Matrix],
                 sign: int = 1):
        if source.direction != target.direction:
            raise TwistlabError("chain map between complexes of mixed direction")
        if source.ring != target.ring:
            raise TwistlabError("chain map between complexes over different rings")
        if sign not in (1, -1):
            raise TwistlabError("sign rule must be +1 or -1")
        self.label = label
        self.source = source
        self.target = target
        self.sign = sign
        self._mats = mats
        self._verify()

    @property
    def ring(self):
        return self.source.ring

    @property
    def direction(self):
        return self.source.direction

    def matrix(self, k: int) -> Matrix:
        m = self._mats.get(k)
        if m is None:
            m = Matrix.zeros(self.ring, self.target.rank(k), self.source.rank(k))
        return m

    def _verify(self):
        degs = set(self.source.degree_span()) | set(self.target.degree_span())
        shift = -1 if self.direction == "chain" else 1
        for k in sorted(degs):
            m = self.matrix(k)
            if m.nrows != self.target.rank(k) or m.ncols != self.source.rank(k):
                raise TwistlabError(f"{self.label}: matrix shape wrong at degree {k}")
            lhs = self.target.diff(k).mul(m)
            rhs = self.matrix(k + shift).mul(self.source.diff(k))
            if self.sign == -1:
                rhs = rhs.neg()
            if lhs != rhs:
                raise TwistlabError(
                    f"{self.label}: does not commute with differentials at "
                    f"degree {k} under sign {self.sign:+d}"
                )


def induced_map_on_homology(F: ChainMapData, k: int) -> Matrix:
    """Matrix of the induced map between homology presentations at degree k."""
    src = F.source.homology(k)
    tgt = F.target.homology(k)
    out = F.target.class_coordinates(k, F.matrix(k).mul(src.representatives))
    # Torsion-order compatibility: order(source gen) must kill the image.
    src_orders = src.relation_orders()
    for di, row in zip(tgt.relation_orders(), out.entries):
        for j, x in row.items():
            v = src_orders[j] * x
            if (di == 0 and v != 0) or (di != 0 and v % di != 0):
                raise TwistlabError(
                    f"{F.label}: induced map ill-defined at degree {k}"
                )
    return out


def maps_equal_mod(target: ModulePresentation, A: Matrix, B: Matrix) -> bool:
    """Equality of presentation maps into target, entrywise modulo torsion."""
    if A.nrows != B.nrows or A.ncols != B.ncols:
        return False
    ring = target.ring
    zero = ring.zero()
    for d, arow, brow in zip(target.relation_orders(), A.entries, B.entries):
        for j in arow.keys() | brow.keys():
            r = ring.sub(arow.get(j, zero), brow.get(j, zero))
            if d:
                r = ring.divmod(r, d)[1]
            if r:
                return False
    return True


# -- mapping cone ------------------------------------------------------


def mapping_cone(F: ChainMapData) -> FreeComplex:
    """Cone(F) with the block differential matching F's recorded sign rule."""
    ring = F.ring
    S, T = F.source, F.target
    if F.direction == "chain":
        off = -1  # cone at k holds S_{k-1}
    else:
        off = 1   # cone at k holds S^{k+1}
    degs = sorted(set(T.degree_span()) | {k - off for k in S.degree_span()})
    ranks = {k: T.rank(k) + S.rank(k + off) for k in degs}
    sigma = -F.sign
    diffs = {}
    for k in degs:
        tgt_deg = k - 1 if F.direction == "chain" else k + 1
        r_t, r_s = T.rank(tgt_deg), S.rank(tgt_deg + off)
        c_t, c_s = T.rank(k), S.rank(k + off)
        inner = F.matrix(k + off)
        dS = S.diff(k + off)
        if sigma == -1:
            dS = dS.neg()
        diffs[k] = block_matrix(
            ring,
            [[T.diff(k), inner], [None, dS]],
            [r_t, r_s],
            [c_t, c_s],
        )
    return FreeComplex(f"cone({F.label})", ring, F.direction, ranks, diffs)


def is_quasi_iso(F: ChainMapData) -> bool:
    return mapping_cone(F).is_acyclic()


# -- exactness of assembled sequences ----------------------------------


@dataclass
class NodeCheck:
    label: str
    composite_zero: bool
    homology_zero: bool

    @property
    def exact(self) -> bool:
        return self.composite_zero and self.homology_zero


@dataclass
class ExactnessReport:
    nodes: list[NodeCheck] = field(default_factory=list)

    @property
    def all_exact(self) -> bool:
        return all(n.exact for n in self.nodes)


def _relations_matrix(ring: Ring, pres: ModulePresentation) -> Matrix:
    rows = [{i: ring.from_int(d)} for i, d in enumerate(pres.invariants)]
    rows += [{} for _ in range(pres.rank)]
    return Matrix.sparse(ring, rows, pres.torsion_count)


def exactness_check(modules: list[ModulePresentation],
                    maps: list[Matrix],
                    labels: list[str] | None = None) -> ExactnessReport:
    """Treat the sequence as a complex of f.g. modules; im = ker at each node.

    maps[i] sends modules[i] to modules[i+1] in presentation coordinates; the
    ends are implicitly extended by zero modules.  labels, when given, name
    the modules one each.
    """
    if len(maps) != len(modules) - 1:
        raise TwistlabError("need one map between each consecutive pair")
    if labels is not None and len(labels) != len(modules):
        raise TwistlabError(f"{len(labels)} labels for {len(modules)} modules")
    ring = modules[0].ring
    for x in modules + maps:
        if x.ring != ring:
            raise RingMismatchError(f"exact sequence over {ring} has a term over {x.ring}")
    for i, m in enumerate(maps):
        if m.nrows != modules[i + 1].generators or m.ncols != modules[i].generators:
            raise TwistlabError(f"map {i} has the wrong shape for its presentations")
    report = ExactnessReport()
    for i, M in enumerate(modules):
        label = labels[i] if labels else f"node {i}"
        g_m = M.generators
        f_in = maps[i - 1] if i > 0 else Matrix.zeros(ring, g_m, 0)
        if i < len(maps):
            g_out = maps[i]
            nxt = modules[i + 1]
        else:
            g_out = Matrix.zeros(ring, 0, g_m)
            nxt = zero_presentation(ring)
        comp_ok = True
        if i > 0 and i < len(maps):
            comp = g_out.mul(f_in)
            comp_ok = maps_equal_mod(
                nxt, comp, Matrix.zeros(ring, comp.nrows, comp.ncols)
            )

        # ker(g_out) as a sublattice of the generator module: x with
        # g_out(x) in the relation span of the next module.  L_gen is a basis
        # of it: the kernel columns are independent, and a combination that
        # vanishes on the first g_m rows is a kernel vector (0, y) with
        # R_next y = 0, so y = 0, R_next being diagonal with entries >= 2.
        R_next = _relations_matrix(ring, nxt)
        L_gen = kernel_basis(g_out.hstack(R_next)).select_rows(range(g_m))
        W = f_in.hstack(_relations_matrix(ring, M))
        Y = solve(L_gen, W)
        if Y is None:
            hom_zero = False
        else:
            diag, rank = smith_diagonal(Y)
            hom_zero = rank == L_gen.ncols and all(d == 1 for d in diag[:rank])
        report.nodes.append(NodeCheck(label, comp_ok, hom_zero))
    return report
