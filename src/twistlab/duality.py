"""Fundamental classes, the chain-level cap product, and the duality verdict.

Cap convention: capping a k-cochain c with a chain carried by an n-simplex s
evaluates c on the back face s|[e_{n-k},...,e_n], transports the value to the
fiber at s(e_0) along the inverse of the [e_0, e_{n-k}] edge transport,
tensors with the chain coefficient, and attaches the result to the front face
s|[e_0,...,e_{n-k}], all scaled by (-1)^{k(n-k)}.  With the coboundary sign
used in this package the resulting pairing satisfies

    d(c cap z) = -(dc cap z) + (-1)^k (c cap dz)

so capping with a cycle anticommutes with the differentials (sign rule -1).

Capping with a fixed chain is one matrix per degree, built in a single walk
over the chain's simplices: `cap_with_fundamental_class` uses these matrices
as its chain map, and `cap_product` applies one to a cochain.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .complexes import DeltaComplex, _propagate_signs, face_path, pseudomanifold_check
from .errors import TwistlabError, ValidationError
from .homology import ChainMapData, FreeComplex, ModulePresentation, is_quasi_iso
from .matrices import Matrix
from .rings import Z
from .systems import (
    LocalSystem,
    cast_system,
    is_trivializable,
    orientation_system,
    tensor_systems,
)
from .twisted import _diffs, _require_base, chain_complex

@dataclass
class FundamentalClass:
    """Unit-coefficient top cycle of a closed pseudomanifold, twisted by w."""

    complex: DeltaComplex
    system: LocalSystem  # rank-1 sign system over Z
    coefficients: dict[str, int]  # top simplex -> +-1

    @property
    def dimension(self) -> int:
        return self.complex.dimension

    def chain_vector(self, ring) -> list:
        top = self.complex.simplices(self.dimension)
        return [ring.from_int(self.coefficients[nm]) for nm in top]


def fundamental_class(K: DeltaComplex, w: LocalSystem) -> FundamentalClass:
    """Solve for +-1 coefficients making the top chain a cycle over w.

    Face i of a top simplex enters its boundary with coefficient (-1)^i, or
    w's sign on its front edge for i = 0.  Each (n-1)-simplex, with coface
    slots (s1, i1) and (s2, i2), ties mu(s2) = -coef(s1, i1) * coef(s2, i2) *
    mu(s1); `_propagate_signs` solves the ties from mu = 1 on the first top
    simplex, and they are consistent exactly when w is the orientation
    character.  The boundary of mu, summed face by face, then certifies the
    cycle; no chain complex is built.
    """
    report = pseudomanifold_check(K)
    if not report.closed_pseudomanifold or K.dimension < 1:
        raise ValidationError(f"{K.name!r} is not a closed pseudomanifold")
    if w.rank != 1 or w.ring != Z:
        raise ValidationError("fundamental class needs a rank-1 sign system over Z")
    _require_base(K, w)
    n = K.dimension
    top = K.simplices(n)
    width = n + 1

    # coef by coface slot p = width * s + i, with each front-edge sign read once
    # from w's transports, taken in K's edge order (w's base may list another).
    transports = list(map(w.transports.__getitem__, K.simplices(1)))
    rest = [-1 if i % 2 else 1 for i in range(1, width)]
    coef = [c for e in K.faces_along(n, face_path(n, (0, 1)))
            for c in (transports[e].entry(0, 0), *rest)]
    first, second, _ = K.coface_table()
    ties: list[list[tuple[int, int]]] = [[] for _ in top]
    for p, q in zip(first, second):
        s, t = p // width, q // width
        sign = -coef[p] * coef[q]
        ties[s].append((t, sign))
        ties[t].append((s, sign))
    unit = [0] * len(top)
    reached = _propagate_signs(0, ties, unit)
    if reached is not None and not any(
        coef[p] * unit[p // width] + coef[q] * unit[q // width]
        for p, q in zip(first, second)
    ):
        return FundamentalClass(K, w, {top[s]: unit[s] for s in reached})
    raise ValidationError(
        f"no unit-coefficient cycle on {K.name!r} for system {w.name!r}"
    )


def _cap_matrix(K: DeltaComplex, G: LocalSystem, H: LocalSystem, k: int, m: int,
                chain: list) -> Matrix:
    """The matrix of c -> c cap chain, from degree-k cochains in G to
    (m-k)-chains in G (x) H, built in one walk over the m-simplices."""
    if not (G.base.same_complex(K) and H.base.same_complex(K)):
        raise ValidationError("cap product needs systems on the same base complex")
    if G.ring != H.ring:
        raise TwistlabError("cap product needs systems over the same ring")
    if not (0 <= k <= m <= K.dimension):
        raise TwistlabError(f"cap degrees (k={k}, m={m}) out of range")
    ring = G.ring
    dG, dH = G.rank, H.rank
    m_simplices = K.simplices(m)
    if len(chain) != len(m_simplices) * dH:
        raise TwistlabError(
            f"cap product needs a chain of length {len(m_simplices) * dH}, not {len(chain)}"
        )
    # Each m-simplex's back face [e_{m-k}..e_m], front face [e_0..e_{m-k}] and
    # carry edge [e_0, e_{m-k}], a whole level per walk.
    backs = K.faces_along(m, face_path(m, tuple(range(m - k, m + 1))))
    fronts = K.faces_along(m, face_path(m, tuple(range(m - k + 1))))
    carries = K.faces_along(m, face_path(m, (0, m - k))) if m > k else None
    add, mul, zero = ring.add, ring.mul, ring.zero()
    rows = [{} for _ in range(len(K.simplices(m - k)) * dG * dH)]
    sign = -1 if (k * (m - k)) % 2 else 1
    ident = Matrix.identity(ring, dG)
    for si in range(len(m_simplices)):
        u = chain[si * dH : (si + 1) * dH]
        if not any(u):
            continue
        if sign == -1:
            u = [ring.neg(x) for x in u]
        # The block at (front face, back face) gains sign * (T^-1 (x) u).
        back = backs[si] * dG
        front = fronts[si] * dG * dH
        carry = G.transport_inverse(K.simplices(1)[carries[si]]) if m > k else ident
        for i, trow in enumerate(carry.entries):
            for j, uj in enumerate(u):
                if uj:
                    row = rows[front + i * dH + j]
                    for col, t in trow.items():
                        row[back + col] = add(row.get(back + col, zero), mul(t, uj))
    rows = [row if all(row.values()) else {j: x for j, x in row.items() if x} for row in rows]
    return Matrix.sparse(ring, rows, len(K.simplices(k)) * dG)


def cap_product(K: DeltaComplex, G: LocalSystem, H: LocalSystem, k: int,
                cochain: list, m: int, chain: list) -> list:
    """Cap a degree-k cochain (coefficients in G) with a degree-m chain
    (coefficients in H); the result is an (m-k)-chain with coefficients in
    the tensor system G (x) H."""
    mat = _cap_matrix(K, G, H, k, m, chain)
    if len(cochain) != mat.ncols:
        raise TwistlabError(
            f"cap product needs a cochain of length {mat.ncols}, not {len(cochain)}"
        )
    return mat.mul_vec(cochain)


def cap_with_fundamental_class(K: DeltaComplex, G: LocalSystem,
                               mu: FundamentalClass) -> ChainMapData:
    """The degree-reindexed map D_j: C^{n-j}(K;G) -> C_j(K;G(x)w), c -> c cap mu.

    Anticommutes with the differentials (sign rule -1) because mu is a cycle.
    """
    n = mu.dimension
    ring = G.ring
    w = cast_system(mu.system, ring)
    GH = tensor_systems(G, w)
    target = chain_complex(K, GH)
    # Degree j holds C^{n-j}, with the cochain differentials of K, built once.
    basis = {k: range(len(K.simplices(k))) for k in range(K.dimension + 1)}
    source = FreeComplex(
        f"C^({K.name};{G.name})[rev]", ring, "chain",
        {n - k: len(at) * G.rank for k, at in basis.items()},
        {n - k: d for k, d in _diffs(K, G, basis, "cochain").items()},
    )
    zvec = mu.chain_vector(ring)
    mats = {j: _cap_matrix(K, G, w, n - j, n, zvec) for j in range(n + 1)}
    return ChainMapData(f"cap({mu.complex.name})", source, target, mats, -1)


@dataclass
class DualityDegree:
    degree: int
    cohomology: ModulePresentation
    homology: ModulePresentation

    @property
    def groups_match(self) -> bool:
        return self.cohomology.isomorphic_to(self.homology)


@dataclass
class DualityReport:
    complex: DeltaComplex
    system: LocalSystem
    orientation: LocalSystem
    orientation_trivializable: bool
    fundamental: FundamentalClass
    degrees: list[DualityDegree] = field(default_factory=list)
    cap_quasi_iso: bool = False
    orientable_reading_agrees: bool | None = None

    @property
    def all_groups_match(self) -> bool:
        return all(d.groups_match for d in self.degrees)

    @property
    def ok(self) -> bool:
        return self.cap_quasi_iso and self.all_groups_match


def duality_report(K: DeltaComplex, G: LocalSystem) -> DualityReport:
    """Verify that capping with the twisted fundamental class is an
    isomorphism H^k(K;G) -> H_{n-k}(K;G(x)w) in every degree."""
    w = orientation_system(K)
    trivializable, _ = is_trivializable(w)
    mu = fundamental_class(K, w)
    cap = cap_with_fundamental_class(K, G, mu)
    n = K.dimension
    report = DualityReport(K, G, w, trivializable, mu)
    for k in range(n + 1):
        report.degrees.append(
            DualityDegree(k, cap.source.group(n - k), cap.target.group(n - k))
        )
    report.cap_quasi_iso = is_quasi_iso(cap)
    if trivializable:
        # When w is +1 on every edge, G (x) w has G's transports, and the cap
        # target is already the chain complex of G.
        same = cap.target.system.transports == G.transports
        plain = cap.target if same else chain_complex(K, G)
        report.orientable_reading_agrees = all(
            plain.group(j).isomorphic_to(cap.target.group(j))
            for j in range(n + 1)
        )
    return report
