"""Twisted chain/cochain complexes, pairs, induced maps, and the cellular side.

The boundary of a fiber element g sitting over a k-simplex s is
T(g)*s_0 + sum_{i>=1} (-1)^i g*s_i, where T is the transport along the
[e_0, e_1] edge of s.  The coboundary carries the matching global sign:
(delta c)(s) = (-1)^k [ T^{-1} c(s_0) + sum_{i>=1} (-1)^i c(s_i) ].
Bases are ordered simplex-major in input file order, fiber coordinates inner.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import DeltaComplex, SubcomplexPair, face_path
from .errors import TwistlabError, ValidationError
from .homology import (
    ChainMapData,
    ExactnessReport,
    FreeComplex,
    Matrix,
    ModulePresentation,
    exactness_check,
    induced_map_on_homology,
)
from .maps import SimplicialMap

from .systems import LocalSystem, pullback_system


class TwistedComplex(FreeComplex):
    """Free complex with a remembered simplicial basis and coefficient system."""

    def __init__(self, label, base: DeltaComplex, system: LocalSystem,
                 direction: str, keep: frozenset | None):
        self.base = base
        self.system = system
        # The basis simplices of each degree, by position in the base and by name.
        self._basis = {k: [s for s, nm in enumerate(base.simplices(k)) if keep is None or nm in keep]
                       for k in range(base.dimension + 1)}
        self._basis_names = {k: tuple(map(base.simplices(k).__getitem__, at))
                             for k, at in self._basis.items()}
        ranks = {k: len(at) * system.rank for k, at in self._basis.items()}
        diffs = _diffs(base, system, self._basis, direction)
        super().__init__(label, system.ring, direction, ranks, diffs)

    def basis_names(self, k: int) -> tuple[str, ...]:
        return self._basis_names.get(k, ())

    def positions_of(self, k: int, names) -> list[int]:
        """Flat coordinate indices of the given simplices at degree k."""
        d = self.system.rank
        idx = {nm: i for i, nm in enumerate(self.basis_names(k))}
        out = []
        for nm in names:
            try:
                base = idx[nm] * d
            except KeyError:
                raise ValidationError(
                    f"{nm!r} is not a basis simplex of {self.label} in degree {k}"
                ) from None
            out.extend(range(base, base + d))
        return out


def _diffs(K, G, basis, direction):
    """Differentials keyed by source degree, on the k-simplices at positions
    basis[k].  Each such s (k >= 1) is visited once, unless no (k-1)-simplex is
    in the basis: a chain complex gets the block at (face i, s), T for i = 0
    and (-1)^i I otherwise; a cochain complex gets the block at (s, face i) of
    the degree k-1 coboundary, (-1)^(k-1) times T^-1 or (-1)^i I."""
    ring = G.ring
    d = G.rank
    cochain = direction == "cochain"
    transport = G.transport_inverse if cochain else G.transport
    edge_names = K.simplices(1)
    add = ring.add
    one = Matrix.identity(ring, d)
    minus_one = one.neg()
    minus_T = {}  # front edge position -> -T (or -T^-1), made when first needed
    diffs = {}
    for k in range(1, K.dimension + 1):
        faces_at, at = basis.get(k - 1, ()), basis.get(k, ())
        nf, ns = len(faces_at) * d, len(at) * d
        rows = [{} for _ in range(ns if cochain else nf)]
        flip = cochain and k % 2 == 0
        # Every layer C(K^k, K^{k-1}) keeps no face of its degree-k simplices.
        level = at if faces_at else ()
        if level:
            face_idx = dict(zip(faces_at, range(len(faces_at))))
            faces = list(zip(*[K.faces_along(k, (i,)) for i in range(k + 1)]))
            edges = K.faces_along(k, face_path(k, (0, 1)))
        for sj, s in enumerate(level):
            edge = edges[s]
            T = transport(edge_names[edge])
            for i, f in enumerate(faces[s]):
                fi = face_idx.get(f)
                if fi is None:
                    continue
                if i:
                    block = minus_one if (i % 2 == 1) != flip else one
                elif flip:
                    block = minus_T.get(edge)
                    if block is None:
                        block = minus_T[edge] = T.neg()
                else:
                    block = T
                r0, c0 = (sj * d, fi * d) if cochain else (fi * d, sj * d)
                for a, brow in enumerate(block.entries):
                    row = rows[r0 + a]
                    for b, x in brow.items():
                        y = row.get(c0 + b)
                        row[c0 + b] = x if y is None else add(y, x)
        # A simplex with two equal faces can cancel an entry.
        rows = [row if all(row.values()) else {j: x for j, x in row.items() if x} for row in rows]
        diffs[k - 1 if cochain else k] = Matrix.sparse(ring, rows, nf if cochain else ns)
    return diffs


def chain_complex(K: DeltaComplex, G: LocalSystem) -> TwistedComplex:
    _require_base(K, G)
    return TwistedComplex(f"C({K.name};{G.name})", K, G, "chain", None)


def cochain_complex(K: DeltaComplex, G: LocalSystem) -> TwistedComplex:
    _require_base(K, G)
    return TwistedComplex(f"C^({K.name};{G.name})", K, G, "cochain", None)


def _require_base(K, G):
    if not G.base.same_complex(K):
        raise ValidationError(
            f"system {G.name!r} lives on {G.base.name!r}, not {K.name!r}"
        )


def relative_complex(P: SubcomplexPair, G: LocalSystem, direction: str) -> TwistedComplex:
    """The chain or cochain complex of the pair, free on the non-member simplices."""
    _require_base(P.complex, G)
    members = P.member_set()
    keep = frozenset(nm for nm in P.complex.all_simplices() if nm not in members)
    prefix = "C" if direction == "chain" else "C^"
    return TwistedComplex(f"{prefix}({P.complex.name},L)", P.complex, G, direction, keep)


def _sub_complex(P: SubcomplexPair, G: LocalSystem, direction: str) -> TwistedComplex:
    """The absolute complex of the subcomplex, in parent coordinates."""
    return TwistedComplex(
        f"C({P.complex.name}|L)", P.complex, G, direction, frozenset(P.members)
    )


# -- induced maps of simplicial maps -----------------------------------


def induced_chain_map(f: SimplicialMap, G: LocalSystem):
    """(chain map with pullback coefficients, cochain pullback map)."""
    Gp = pullback_system(f, G)
    src = chain_complex(f.domain, Gp)
    tgt = chain_complex(f.codomain, G)
    d = G.rank
    ring = G.ring
    chain_mats = {}
    one = ring.one()
    for k in range(f.domain.dimension + 1):
        # Column cj * d + t holds a 1 in row ri * d + t, ri the position of the
        # image of source simplex cj in the codomain, whose order tgt's basis
        # keeps, unless the image is degenerate.
        cols = []
        for nm in src.basis_names(k):
            a = f.assignments[nm]
            ri = None if a.degenerate else f.codomain.index_of(a.image)
            cols += [{} if ri is None else {ri * d + t: one} for t in range(d)]
        chain_mats[k] = Matrix.sparse(ring, cols, tgt.rank(k)).transpose()
    chains = ChainMapData(f"{f.name}_*", src, tgt, chain_mats, 1)

    csrc = cochain_complex(f.codomain, G)
    ctgt = cochain_complex(f.domain, Gp)
    cochain_mats = {k: m.transpose() for k, m in chain_mats.items()}
    cochains = ChainMapData(f"{f.name}^#", csrc, ctgt, cochain_mats, 1)
    return chains, cochains


# -- long exact sequences ----------------------------------------------


@dataclass
class LesNode:
    label: str
    degree: int
    presentation: ModulePresentation


@dataclass
class LesFragment:
    variant: str
    nodes: list[LesNode]
    maps: list[Matrix]
    map_labels: list[str]
    complexes: dict

    def presentations(self):
        return [n.presentation for n in self.nodes]

    def exactness(self) -> ExactnessReport:
        return exactness_check(
            self.presentations(), self.maps, [n.label for n in self.nodes]
        )


def _split_positions(fullC, subC, relC, degrees):
    """The positions in fullC of the bases of subC and relC, checked in each
    degree to split fullC's basis."""
    sub_pos = {}
    rel_pos = {}
    for k in degrees:
        sub_pos[k] = fullC.positions_of(k, subC.basis_names(k))
        rel_pos[k] = fullC.positions_of(k, relC.basis_names(k))
        if sorted(sub_pos[k] + rel_pos[k]) != list(range(fullC.rank(k))):
            raise TwistlabError("sub/rel coordinates do not split the full basis")
    return sub_pos, rel_pos


def _coordinate_map(part, whole, pos, label, onto=False) -> ChainMapData:
    """The inclusion of part in whole, whose basis holds part's at the
    positions pos[k]; with onto, the projection of whole onto part, whose
    matrix in each degree is the transpose of the inclusion's."""
    ring = whole.ring
    mats = {}
    one = ring.one()
    for k in whole.degree_span():
        m = Matrix.sparse(ring, [{p: one} for p in pos[k]], whole.rank(k))
        mats[k] = m if onto else m.transpose()
    source, target = (whole, part) if onto else (part, whole)
    return ChainMapData(label, source, target, mats, 1)


def _connecting_map(fullC, reps, target, src_pos, tgt_pos, k) -> Matrix:
    """Snake-lemma connecting map on the classes whose representatives are the
    columns of reps, cycles of the quotient of fullC on its coordinates
    src_pos[k]: extend each by zero into fullC, apply its differential, and
    read the class of the image in target, one step along the differential.
    """
    j = fullC._target_degree(k)
    img = fullC.diff(k).select_cols(src_pos[k]).mul(reps)
    if not img.select_rows(src_pos[j]).is_zero():
        raise TwistlabError("connecting image does not lie in the target complex")
    return target.class_coordinates(j, img.select_rows(tgt_pos[j]))


def assemble_les(P: SubcomplexPair, G: LocalSystem, variant: str = "homology") -> LesFragment:
    """The long exact sequence of the pair, with all maps as presentation matrices.

    Both variants come from the short exact sequence 0 -> A -> C(K) -> B -> 0
    that splits C(K) along the simplices of L: A = C(L) and B = C(K,L) for
    homology, degrees running down; A = C^(K,L) and B = C^(L) for cohomology,
    degrees running up.  Each degree gives the nodes H(A), H(K) and H(B), the
    maps that the inclusion of A and the projection onto B induce, and, in
    every degree but the last, the connecting map H(B) -> H(A) one step along
    the differential.
    """
    if variant not in ("homology", "cohomology"):
        raise TwistlabError(f"unknown variant {variant!r}")
    K = P.complex
    direction = "chain" if variant == "homology" else "cochain"
    subC = _sub_complex(P, G, direction)
    fullC = TwistedComplex(f"C({K.name})", K, G, direction, None)
    relC = relative_complex(P, G, direction)
    sub_pos, rel_pos = _split_positions(fullC, subC, relC, range(K.dimension + 1))
    if direction == "chain":
        A, B, a_pos, b_pos, onto_label = subC, relC, sub_pos, rel_pos, "proj"
        mark, names, letter, degrees = "_", ("L", "K", "K,L"), "j", range(K.dimension, -1, -1)
    else:
        A, B, a_pos, b_pos, onto_label = relC, subC, rel_pos, sub_pos, "restr"
        mark, names, letter, degrees = "^", ("K,L", "K", "L"), "r", range(K.dimension + 1)
    into = _coordinate_map(A, fullC, a_pos, "incl")
    onto = _coordinate_map(B, fullC, b_pos, onto_label, onto=True)
    nodes: list[LesNode] = []
    maps: list[Matrix] = []
    labels: list[str] = []
    for k in degrees:
        for C, name in zip((A, fullC, B), names):
            nodes.append(LesNode(f"H{mark}{k}({name})", k, C.homology(k)))
        maps.append(induced_map_on_homology(into, k))
        maps.append(induced_map_on_homology(onto, k))
        labels += [f"i{mark}{k}", f"{letter}{mark}{k}"]
        if k != degrees[-1]:
            maps.append(_connecting_map(fullC, B.homology(k).representatives, A,
                                        b_pos, a_pos, k))
            labels.append(f"d{mark}{k}")
    return LesFragment(
        variant, nodes, maps, labels, {"sub": subC, "full": fullC, "rel": relC}
    )


# -- skeleton-triple cellular boundary ----------------------------------


class _Skeleta:
    """The skeleton filtration of K with the system G, every complex built on K.

    skeleton(k) is C(K^k), free on the simplices of dimension <= k, and
    layer(k) is C(K^k, K^{k-1}), free on the k-simplices with zero
    differential.  A layer's homology is itself with its canonical basis, so a
    layer is never asked for it: its basis names fix the positions of the
    k-cells in the skeleta.  top, when given, is C(K) and serves as the top
    skeleton.  Each complex is built the first time it is asked for, so the
    triples of consecutive degrees share the skeleton and the layer they both
    read.
    """

    def __init__(self, K: DeltaComplex, G: LocalSystem, top: TwistedComplex | None = None):
        self.K = K
        self.G = G
        self._skeleta = {} if top is None else {K.dimension: top}
        self._layers = {}

    def skeleton(self, k: int) -> TwistedComplex:
        S = self._skeleta.get(k)
        if S is None:
            K = self.K
            keep = frozenset(nm for j in range(k + 1) for nm in K.simplices(j))
            S = self._skeleta[k] = TwistedComplex(f"C({K.name}^{k})", K, self.G, "chain", keep)
        return S

    def layer(self, k: int) -> TwistedComplex:
        R = self._layers.get(k)
        if R is None:
            K = self.K
            R = self._layers[k] = TwistedComplex(
                f"C({K.name}^{k},{K.name}^{k - 1})", K, self.G, "chain",
                frozenset(K.simplices(k)),
            )
        return R


def cellular_boundary_via_triple(K: DeltaComplex, G: LocalSystem, n: int, *,
                                 skeleta: _Skeleta | None = None) -> Matrix:
    """The composite H_n(K^n, K^{n-1}) -> H_{n-1}(K^{n-1}) -> H_{n-1}(K^{n-1}, K^{n-2})
    expressed against the canonical bases of the skeleton pairs.

    The layers C(K^n, K^{n-1}) and C(K^{n-1}, K^{n-2}) have zero differential,
    so their homology is the free module on the cells with its canonical basis.
    The composite is therefore the snake-lemma connecting map of
    0 -> C(K^{n-1}) -> C(K^n) -> C(K^n, K^{n-1}) -> 0 on the n-cells, followed
    by the rows of H_{n-1}(K^{n-1})'s representatives at the (n-1)-cells, which
    is the map the quotient C(K^{n-1}) -> C(K^{n-1}, K^{n-2}) induces.  It
    reads the skeleta C(K^{n-1}) and C(K^n) and the bases of the two layers,
    never a layer's homology, and needs no sign: it equals the direct twisted
    boundary matrix entrywise.  `triple_checks` passes the filtration it shares
    between degrees; a direct call builds the four complexes it reads.
    """
    _require_base(K, G)
    if not (1 <= n <= K.dimension):
        raise TwistlabError(f"degree {n} out of range for {K.name!r}")
    if skeleta is None:
        skeleta = _Skeleta(K, G)
    lower, upper = skeleta.skeleton(n - 1), skeleta.skeleton(n)
    layer, lower_layer = skeleta.layer(n), skeleta.layer(n - 1)
    lower_pos, layer_pos = _split_positions(upper, lower, layer, range(n + 1))
    conn = _connecting_map(upper, Matrix.identity(G.ring, layer.rank(n)), lower,
                           layer_pos, lower_pos, n)
    cells = lower.positions_of(n - 1, lower_layer.basis_names(n - 1))
    return lower.homology(n - 1).representatives.select_rows(cells).mul(conn)


# -- full comparison report ---------------------------------------------


@dataclass
class SquareCheck:
    label: str
    ok: bool


@dataclass
class TripleCheck:
    degree: int
    ok: bool


def triple_checks(C: TwistedComplex) -> list[TripleCheck]:
    """Compare the skeleton-triple boundary with the direct boundary of C, the
    absolute chain complex of its base, in every positive degree.

    One skeleton filtration of K = C.base serves every degree, with C itself
    as its top skeleton: a d-dimensional K builds the skeleta C(K^0) ..
    C(K^{d-1}) and the layers C(K^k, K^{k-1}) for k = 0 .. d, 2d + 1 complexes,
    each once.  C must be the absolute chain complex, which the top skeleton
    is; a cochain or relative complex raises TwistlabError.
    """
    K = C.base
    if C.direction != "chain" or any(
        C.basis_names(k) != K.simplices(k) for k in range(K.dimension + 1)
    ):
        raise TwistlabError(
            f"the triple check needs the absolute chain complex of {K.name!r}, not {C.label}"
        )
    skeleta = _Skeleta(K, C.system, C)
    return [
        TripleCheck(n, cellular_boundary_via_triple(K, C.system, n, skeleta=skeleta) == C.diff(n))
        for n in range(1, K.dimension + 1)
    ]


@dataclass
class LesReport:
    pair: SubcomplexPair
    variant: str
    simplicial: LesFragment
    simplicial_exactness: ExactnessReport
    triples: list[TripleCheck]

    @property
    def all_triples_match(self) -> bool:
        return all(t.ok for t in self.triples)

    @property
    def squares(self) -> list[SquareCheck]:
        """One square per map of the sequence; each commutes exactly when the
        comparison is a chain isomorphism, i.e. when every triple matches."""
        return [SquareCheck(label, self.all_triples_match)
                for label in self.simplicial.map_labels]

    @property
    def all_squares_commute(self) -> bool:
        return all(s.ok for s in self.squares)

    @property
    def cellular_exact(self) -> bool:
        """Exactness of the cellular sequence, which is the simplicial one
        once the comparison is a chain isomorphism."""
        return self.all_triples_match and self.simplicial_exactness.all_exact

    @property
    def ok(self) -> bool:
        # The squares and cellular exactness follow from the triples.
        return self.cellular_exact


def compare_les(P: SubcomplexPair, G: LocalSystem, variant: str = "homology") -> LesReport:
    """Compare the simplicial long exact sequence of the pair with the cellular one.

    The cellular complex Gamma of K is free on the cells of K, with differential
    the skeleton-triple composite; Gamma of L and of (K, L) are its subcomplex
    and quotient on the cells of L and the cells off L.  So the comparison
    phi: C -> Gamma is the identity on canonical bases, and it is a map of short
    exact sequences exactly when it is a chain map of K: when every triple
    composite of K equals the direct boundary.  By naturality of the connecting
    map the triple composites of L and of (K, L) are submatrices of K's, as are
    their direct boundaries, so phi is then a chain isomorphism of all three
    complexes.  The cellular sequence is then the simplicial one: every square
    commutes and cellular exactness is simplicial exactness.  The only cellular
    computation left is the triple check, made against the absolute chain
    complex of K for both variants (the cochain complexes are its duals).
    """
    les = assemble_les(P, G, variant)
    direct = les.complexes["full"] if variant == "homology" else chain_complex(P.complex, G)
    return LesReport(P, variant, les, les.exactness(), triple_checks(direct))
