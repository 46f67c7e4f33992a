"""Local coefficient systems as flat edge-transport data.

A system of rank d assigns an invertible d x d matrix to every edge, carrying
the fiber at the initial vertex sigma(e_0) to the fiber at the terminal vertex
sigma(e_1).  Flatness is the triangle condition
T_{face_0} * T_{face_2} = T_{face_1} on every 2-simplex; it is exactly what
makes the twisted boundary and coboundary square to zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from .complexes import (
    DeltaComplex,
    _content_lines,
    _propagate_signs,
    face_path,
    pseudomanifold_check,
)
from .errors import ParseError, RingMismatchError, TwistlabError, ValidationError
from .maps import SimplicialMap
from .matrices import Matrix, inverse, is_invertible
from .rings import Ring, Z, ring_from_token


class LocalSystem:
    """Flat transport data over a fixed base complex and ring."""

    def __init__(self, name: str, base: DeltaComplex, ring: Ring, rank: int,
                 transports: dict[str, Matrix]):
        if rank < 0:
            raise ValidationError("system rank must be >= 0")
        self.name = name
        self.base = base
        self.ring = ring
        self.rank = rank
        full = {}
        ident = Matrix.identity(ring, rank)
        for e in base.simplices(1):
            full[e] = transports.get(e, ident)
        for e in transports:
            if e not in full:
                raise ValidationError(f"system {name!r}: unknown edge {e!r}")
        self.transports = full
        # Keyed on a transport's entries: a constant system shares one
        # identity across every edge, so it is inverted once.
        self._inverses: dict[tuple, Matrix] = {}
        self._validate()

    def _validate(self):
        # Each transport object is checked once, and invertibility once per
        # value: a sign system shares one matrix per sign across its edges.
        checked = set()
        invertible = set()
        for e, T in self.transports.items():
            if id(T) in checked:
                continue
            checked.add(id(T))
            if T.nrows != self.rank or T.ncols != self.rank:
                raise ValidationError(
                    f"system {self.name!r}: transport on {e!r} is not "
                    f"{self.rank}x{self.rank}"
                )
            if T.ring != self.ring:
                raise RingMismatchError(
                    f"system {self.name!r}: transport on {e!r} is over {T.ring}"
                )
            key = _key(T)
            if key in invertible:
                continue
            if not is_invertible(T):
                raise ValidationError(
                    f"system {self.name!r}: transport on edge {e!r} is not "
                    f"invertible over {self.ring}"
                )
            invertible.add(key)
        # A constant or sign system shares one matrix per value, so flatness
        # is checked once per distinct triple of transport objects; the first
        # non-flat 2-simplex is still the one named.  The transports are in
        # edge order, so a face's position picks its transport.
        get = list(self.transports.values()).__getitem__
        triangles = self.base.simplices(2)
        cols = [map(get, self.base.faces_along(2, (i,))) for i in range(3)]
        flat = set()
        for t, t0, t1, t2 in zip(triangles, *cols):
            triple = (id(t0), id(t1), id(t2))
            if triple in flat:
                continue
            if t0.mul(t2) != t1:
                raise ValidationError(
                    f"system {self.name!r}: flatness fails on 2-simplex {t!r}"
                )
            flat.add(triple)

    def transport(self, edge: str) -> Matrix:
        try:
            return self.transports[edge]
        except KeyError:
            raise ValidationError(
                f"system {self.name!r}: no edge {edge!r} in {self.base.name!r}"
            ) from None

    def transport_inverse(self, edge: str) -> Matrix:
        T = self.transport(edge)
        key = _key(T)
        if key not in self._inverses:
            self._inverses[key] = inverse(T)
        return self._inverses[key]

    def __repr__(self):
        return f"LocalSystem({self.name!r}, rank {self.rank} over {self.ring})"


def _key(T: Matrix) -> tuple:
    """T's entries as a hashable value, the same for equal matrices."""
    return tuple([frozenset(row.items()) for row in T.entries])


@dataclass
class Gauge:
    """Per-vertex invertible change of fiber basis."""

    matrices: dict[str, Matrix]

    def at(self, vertex: str) -> Matrix:
        try:
            return self.matrices[vertex]
        except KeyError:
            raise ValidationError(f"gauge misses vertex {vertex!r}") from None


def constant_system(K: DeltaComplex, d: int, ring: Ring) -> LocalSystem:
    return LocalSystem(f"const{d}", K, ring, d, {})


def parse_system(text: str, K: DeltaComplex) -> LocalSystem:
    name = None
    ring = None
    rank = None
    transports: dict[str, Matrix] = {}
    for lineno, line in _content_lines(text):
        parts = line.split(None, 2)
        if parts[0] == "system":
            if name is not None:
                raise ParseError(
                    "expected a single 'system <name> over <Z|Q|Fp> rank <d>' header",
                    lineno,
                )
            fields = line.split()
            if len(fields) != 6 or fields[2] != "over" or fields[4] != "rank":
                raise ParseError(
                    "expected 'system <name> over <Z|Q|Fp> rank <d>'", lineno
                )
            name = fields[1]
            try:
                ring = ring_from_token(fields[3])
            except TwistlabError as exc:
                raise ParseError(str(exc), lineno) from None
            try:
                rank = int(fields[5])
            except ValueError:
                raise ParseError(f"bad rank {fields[5]!r}", lineno) from None
            if rank < 0:
                raise ParseError("system rank must be >= 0", lineno)
        elif parts[0] == "edge":
            if name is None:
                raise ParseError("edge line before the system header", lineno)
            if len(parts) != 3:
                raise ParseError("expected 'edge <name> <matrix>'", lineno)
            edge = parts[1]
            if edge not in K or K.dim_of(edge) != 1:
                raise ParseError(f"unknown edge {edge!r}", lineno)
            if edge in transports:
                raise ParseError(f"duplicate edge {edge!r}", lineno)
            transports[edge] = _parse_matrix(parts[2], ring, rank, lineno)
        else:
            raise ParseError(f"unknown directive {parts[0]!r}", lineno)
    if name is None:
        raise ParseError("missing 'system' header")
    return LocalSystem(name, K, ring, rank, transports)


def _parse_matrix(text: str, ring: Ring, rank: int, lineno: int) -> Matrix:
    body = text.replace(" ", "")
    if not (body.startswith("[[") and body.endswith("]]")):
        raise ParseError(f"bad matrix literal {text!r}", lineno)
    body = body[2:-2]
    rows = body.split("];[") if body else []
    if len(rows) != rank:
        raise ParseError(f"matrix needs {rank} rows", lineno)
    out = []
    for r in rows:
        entries = r.split(",") if r else []
        if len(entries) != rank:
            raise ParseError(f"matrix needs {rank} columns", lineno)
        try:
            out.append([ring.parse(e) for e in entries])
        except TwistlabError as exc:
            raise ParseError(str(exc), lineno) from None
    m = Matrix(ring, out)
    m.ncols = rank
    return m


def pullback_system(f: SimplicialMap, G: LocalSystem) -> LocalSystem:
    """Pull a system on the codomain of f back to its domain."""
    if not G.base.same_complex(f.codomain):
        raise RingMismatchError(
            f"system {G.name!r} lives on {G.base.name!r}, not on the codomain of {f.name!r}"
        )
    # The codomain's transports in its edge order, by name on a reordered copy.
    edges = f.codomain.simplices(1)
    along = (list(G.transports.values()) if G.base.simplices(1) == edges
             else list(map(G.transport, edges)))
    ident = Matrix.identity(G.ring, G.rank)
    transports = {e: ident if digits is not None else along[p]
                  for e, (p, digits) in zip(f.domain.simplices(1), f.images.get(1, ()))}
    return LocalSystem(f"{f.name}^*{G.name}", f.domain, G.ring, G.rank, transports)


def tensor_systems(G: LocalSystem, H: LocalSystem) -> LocalSystem:
    if not G.base.same_complex(H.base):
        raise RingMismatchError("tensor of systems over different bases")
    if G.ring != H.ring:
        raise RingMismatchError("tensor of systems over different rings")
    # One product per distinct pair of transport objects, shared by its edges:
    # a constant or sign system shares one matrix per value, and so does
    # their tensor, so its flatness is checked once per triple of values.
    products = {}
    transports = {}
    for e in G.base.simplices(1):
        A, B = G.transport(e), H.transport(e)
        key = id(A), id(B)
        if key not in products:
            products[key] = _kronecker(A, B)
        transports[e] = products[key]
    return LocalSystem(
        f"{G.name}(x){H.name}", G.base, G.ring, G.rank * H.rank, transports
    )


def _kronecker(A: Matrix, B: Matrix) -> Matrix:
    mul, n = A.ring.mul, B.ncols
    rows = [
        {aj * n + bj: mul(a, b) for aj, a in arow.items() for bj, b in brow.items()}
        for arow in A.entries for brow in B.entries
    ]
    return Matrix.sparse(A.ring, rows, A.ncols * n)


def gauge_transform(G: LocalSystem, s: Gauge) -> LocalSystem:
    """T'_e = s_head * T_e * s_tail^{-1}; an isomorphic system."""
    K = G.base
    for v in K.simplices(0):
        mat = s.matrices.get(v)
        if mat is None:
            raise ValidationError(f"gauge misses vertex {v!r}")
        if mat.nrows != G.rank or mat.ncols != G.rank or not is_invertible(mat):
            raise ValidationError(f"gauge entry at {v!r} is not invertible")
    transports = {}
    inv_cache = {v: inverse(s.matrices[v]) for v in K.simplices(0)}
    for e in K.simplices(1):
        tail, head = K.edge_ends(e)
        transports[e] = s.matrices[head].mul(G.transport(e)).mul(inv_cache[tail])
    return LocalSystem(f"{G.name}~", K, G.ring, G.rank, transports)


def cast_system(G: LocalSystem, ring: Ring) -> LocalSystem:
    """Re-read an integer system over Q or F_p (transports stay invertible)."""
    if G.ring == ring:
        return G
    # One cast per distinct transport object, shared by its edges as in G.
    casts = {}
    transports = {}
    for e, T in G.transports.items():
        if id(T) not in casts:
            casts[id(T)] = T.cast(ring)
        transports[e] = casts[id(T)]
    return LocalSystem(f"{G.name}@{ring.token}", G.base, ring, G.rank, transports)


# -- orientation character ---------------------------------------------


def _sign_matrices() -> dict[int, Matrix]:
    """[[1]] and [[-1]] over Z, each shared by every edge or vertex that
    carries it, as a constant system shares its identity."""
    return {v: Matrix.from_int_rows(Z, [[v]]) for v in (1, -1)}


def _signed_coface_key(i: int, j: int) -> int:
    """Orientation comparison across a shared face occupied as slots i and j."""
    return -((-1) ** (i + j))


def orientation_system(K: DeltaComplex) -> LocalSystem:
    """Rank-1 sign system recording whether transport preserves orientation.

    Each top simplex carries the orientation of its vertex order.  Signs are
    propagated over the star of each vertex point by `_propagate_signs`,
    rooted at the vertex's first corner and tracked corner by corner
    (simplex, vertex slot) so that self-glued models like the one-vertex torus
    work, then compared along each edge inside a common top simplex.  The
    vertices and edges of every top simplex are read in whole-table passes
    along face paths worked out once for the top dimension, so no vertex or
    edge rescans the top simplices.  Flatness
    of the result is asserted, not assumed: it fails exactly when the input is
    not a combinatorial manifold for this star-propagation algorithm.
    """
    report = pseudomanifold_check(K)
    n = K.dimension
    if not report.closed_pseudomanifold or n < 1:
        raise ValidationError(
            f"orientation system needs a closed pseudomanifold of dimension >= 1, "
            f"got {K.name!r}"
        )
    top = K.simplices(n)
    width = n + 1

    # Corners of a vertex point: (top simplex, vertex slot), numbered
    # width * (position of the simplex) + slot.  Two corners are glued when a
    # shared (n-1)-face matches the slots; the comparison sign says whether
    # the canonical orientations agree across that face.  The face opposite
    # slot i keeps the slots other than i, in order.  Every face has two
    # slots p = width * s + i in the coface table, so p - i is the first
    # corner of s.
    kept = [[m for m in range(width) if m != i] for i in range(width)]
    corner_edges: list[list[tuple[int, int]]] = [[] for _ in range(width * len(top))]
    first, second, _ = K.coface_table()
    for p1, p2 in zip(first, second):
        i1, i2 = p1 % width, p2 % width
        sign = _signed_coface_key(i1, i2)
        b1, b2 = p1 - i1, p2 - i2
        for m1, m2 in zip(kept[i1], kept[i2]):
            corner_edges[b1 + m1].append((b2 + m2, sign))
            corner_edges[b2 + m2].append((b1 + m1, sign))

    # Corners fill s-major, m-minor: corners[0] roots each vertex's sign
    # propagation, so that order fixes the printed signs.  corners_at and
    # spanning are indexed by vertex and edge position.
    vertices, edges = K.simplices(0), K.simplices(1)
    vertex_cols = [K.faces_along(n, face_path(n, (m,))) for m in range(width)]
    corners_at: list[list[int]] = [[] for _ in vertices]
    for c, v in enumerate(chain.from_iterable(zip(*vertex_cols))):
        corners_at[v].append(c)
    # The first (top simplex, slot pair) spanning each edge, in the same
    # order, numbered len(pairs) * (position of the simplex) + pair, or -1.
    pairs = [(a, b) for a in range(width) for b in range(a + 1, width)]
    edge_cols = [K.faces_along(n, face_path(n, pair)) for pair in pairs]
    spanning = [-1] * len(edges)
    for j, e in enumerate(chain.from_iterable(zip(*edge_cols))):
        if spanning[e] < 0:
            spanning[e] = j

    corner_sign = [0] * (width * len(top))
    for v, corners in zip(vertices, corners_at):
        if not corners:
            raise ValidationError(f"vertex {v!r} lies in no top simplex")
        star = _propagate_signs(corners[0], corner_edges, corner_sign)
        if star is None:
            raise ValidationError(
                f"input {K.name!r} is not a combinatorial manifold "
                f"for this algorithm (star of {v!r} is inconsistent)"
            )
        if len(star) != len(corners):
            raise ValidationError(
                f"star of vertex {v!r} is not connected through "
                f"{n - 1}-faces containing it"
            )

    transports = {}
    sign = _sign_matrices()
    for e, j in zip(edges, spanning):
        if j < 0:
            raise ValidationError(f"edge {e!r} lies in no top simplex")
        si, p = divmod(j, len(pairs))
        a, b = pairs[p]
        transports[e] = sign[corner_sign[width * si + a] * corner_sign[width * si + b]]
    try:
        return LocalSystem(f"w({K.name})", K, Z, 1, transports)
    except ValidationError:
        raise ValidationError(
            f"input {K.name!r} is not a combinatorial manifold for this algorithm"
        ) from None


def is_trivializable(G: LocalSystem):
    """Decide s_head = T_e * s_tail solvability for a rank-1 sign system.

    `_propagate_signs` labels each component of the 1-skeleton, over vertex
    positions, from its first vertex; a contradicting edge means no gauge
    exists.  Returns (flag, gauge):
    the witness gauge satisfies gauge_transform(G, gauge) == constant when
    flag is True.
    """
    if G.rank != 1 or G.ring != Z:
        raise ValidationError("trivializability test needs a rank-1 system over Z")
    signs = [T.entry(0, 0) for T in G.transports.values()]  # in edge order
    for e, t in zip(G.transports, signs):
        if t not in (1, -1):
            raise ValidationError(f"transport on {e!r} is not a sign")
    K = G.base
    vertices = K.simplices(0)
    edges: list[list[tuple[int, int]]] = [[] for _ in vertices]
    # Face 0 of an edge is its head and face 1 its tail, as vertex positions.
    for head, tail, t in zip(K.faces_along(1, (0,)), K.faces_along(1, (1,)), signs):
        edges[tail].append((head, t))
        edges[head].append((tail, t))
    s = [0] * len(vertices)
    reached: list[int] = []
    for root in range(len(vertices)):
        if not s[root]:
            component = _propagate_signs(root, edges, s)
            if component is None:
                return False, None
            reached += component
    sign = _sign_matrices()
    gauge = Gauge({vertices[v]: sign[s[v]] for v in reached})
    return True, gauge
