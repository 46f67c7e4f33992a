"""Seeded input generators for the twistlab benchmark.

Every generator takes its sizes as arguments and a ``random.Random`` for the
choices that may vary between runs: the listing order of simplices, the
per-vertex gauges, and through them which edges carry a twist.  The seed never
picks a size, so two seeds give jobs of the same shape and cost.

Families:

* Kuhn tori ``T_n`` (dimension 2) and ``T3_n`` (dimension 3).  A simplex is a
  base point of (Z/n)^dim plus a sequence of step vectors (disjoint nonempty
  sets of axes).  Faces come from the steps, not from vertex sets, so n = 1 and
  n = 2, where vertices repeat inside a simplex, stay legal Delta-complexes.
* Grid Klein bottles ``KB_n_m``: an n x m grid whose x-seam reverses y.  The
  seam reverses edges, so every simplex takes its vertex order from one
  global vertex numbering, which keeps the face identities consistent.
* Coefficient systems: a rank-1 sign system or a rank-2 system with holonomy
  ``HOLONOMY`` across a cut transverse to x, then conjugated by a seeded gauge.
* Meridian subcomplexes (a circle in the y direction) and covering maps
  T_{2n} -> T_n.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from functools import cached_property

AXES = "xyz"

# Holonomy of the rank-2 system across the cut: rotation by a quarter turn.
HOLONOMY = ((0, -1), (1, 0))

# Unimodular 2x2 matrices a gauge picks from; small entries keep the
# conjugated transports small, so the seed changes signs and placement but
# not the size of the numbers the elimination starts from.
GAUGE_CHOICES = (
    ((1, 0), (0, 1)),
    ((1, 1), (0, 1)),
    ((1, -1), (0, 1)),
    ((1, 0), (1, 1)),
    ((1, 0), (-1, 1)),
    ((0, 1), (1, 0)),
    ((-1, 0), (0, 1)),
    ((0, -1), (1, 0)),
)


@dataclass
class GenComplex:
    """A generated Delta-complex plus the facts the output checks rely on.

    ``simplices[k]`` lists ``(name, faces)``; ``cut[e]`` is +1 when edge e
    crosses the cut (a circle transverse to the x direction) going in the +x
    direction, -1 when it crosses going back, and absent otherwise.
    """

    name: str
    simplices: list[list[tuple[str, tuple[str, ...]]]]
    cut: dict[str, int]
    meridian: list[str]
    orientable: bool
    kind: str
    size: int
    order: dict[int, list[str]] = field(default_factory=dict)

    @property
    def dimension(self) -> int:
        return len(self.simplices) - 1

    def counts(self) -> tuple[int, ...]:
        return tuple(len(s) for s in self.simplices)

    def euler(self) -> int:
        return sum((-1) ** k * len(s) for k, s in enumerate(self.simplices))

    @cached_property
    def face_map(self) -> dict[str, tuple[str, ...]]:
        return {nm: f for level in self.simplices for nm, f in level}

    def edge_ends(self, edge: str) -> tuple[str, str]:
        """(tail, head) of an edge: face 1 is the initial vertex."""
        f = self.face_map[edge]
        return f[1], f[0]

    def shuffle(self, rng: random.Random) -> None:
        """Fix a seeded listing order within each dimension."""
        for k, level in enumerate(self.simplices):
            names = [nm for nm, _ in level]
            rng.shuffle(names)
            self.order[k] = names

    def text(self) -> str:
        faces = self.face_map
        lines = [f"complex {self.name}", f"dim {self.dimension}"]
        for k, level in enumerate(self.simplices):
            names = self.order.get(k) or [nm for nm, _ in level]
            for nm in names:
                lines.append(" ".join(["simplex", str(k), nm, *faces[nm]]))
        return "\n".join(lines) + "\n"


# -- Kuhn tori -----------------------------------------------------------


def _step_code(steps) -> str:
    return ".".join("".join(AXES[a] for a in sorted(s)) for s in steps)


def _kuhn_name(p, steps) -> str:
    coords = "_".join(str(c) for c in p)
    return f"{'vetf'[len(steps)]}{_step_code(steps)}_{coords}"


def _step_chains(dim: int, k: int):
    """Ordered sequences of k disjoint nonempty axis sets."""
    axes = range(dim)
    subsets = [
        frozenset(c) for r in range(1, dim + 1) for c in itertools.combinations(axes, r)
    ]
    for chain in itertools.product(subsets, repeat=k):
        used = set()
        ok = True
        for s in chain:
            if used & s:
                ok = False
                break
            used |= s
        if ok:
            yield chain


def _shift(p, s, n):
    return tuple((c + (1 if a in s else 0)) % n for a, c in enumerate(p))


def kuhn_torus(n: int, dim: int) -> GenComplex:
    """T_n (dim 2) or T3_n (dim 3): (Z/n)^dim with Kuhn's triangulation."""
    points = list(itertools.product(range(n), repeat=dim))
    simplices = []
    for k in range(dim + 1):
        level = []
        for steps in _step_chains(dim, k) if k else [()]:
            for p in points:
                if k == 0:
                    faces = ()
                elif k == 1:
                    faces = (_kuhn_name(_shift(p, steps[0], n), ()), _kuhn_name(p, ()))
                else:
                    fs = [_kuhn_name(_shift(p, steps[0], n), steps[1:])]
                    for i in range(1, k):
                        merged = steps[: i - 1] + (steps[i - 1] | steps[i],) + steps[i + 1 :]
                        fs.append(_kuhn_name(p, merged))
                    fs.append(_kuhn_name(p, steps[:-1]))
                    faces = tuple(fs)
                level.append((_kuhn_name(p, steps), faces))
        simplices.append(level)
    cut = {}
    meridian = []
    for steps in _step_chains(dim, 1):
        s = steps[0]
        for p in points:
            name = _kuhn_name(p, steps)
            if 0 in s and p[0] == n - 1:
                cut[name] = 1
            if s == frozenset({1}) and p[0] == 0 and all(c == 0 for c in p[2:]):
                meridian.append(name)
    name = f"T{n}" if dim == 2 else f"T3_{n}"
    return GenComplex(name, simplices, cut, meridian, True, "torus", n)


# -- grid Klein bottle -----------------------------------------------------


def klein_bottle(n: int, m: int) -> GenComplex:
    """n x m grid; (x, 0) ~ (x, m) and (0, y) ~ (n, m - y).  Needs n, m >= 3."""
    if n < 3 or m < 3:
        raise ValueError("grid Klein bottle needs n, m >= 3")

    def vid(x, y):
        if x == n:
            x, y = 0, m - y
        return x * m + y % m

    def ename(a, b):
        return f"e{a}_{b}"

    tris = []
    cut = {}
    for i in range(n):
        for j in range(m):
            a, b, c, d = (i, j), (i + 1, j), (i + 1, j + 1), (i, j + 1)
            for tri in ((a, b, c), (a, c, d)):
                tris.append(tuple(sorted(vid(*q) for q in tri)))
                if i != 0:
                    continue
                # The cut runs between x = 0 and x = 1, inside column 0.
                for q, r in itertools.combinations(tri, 2):
                    if q[0] != r[0]:
                        u, w = vid(*q), vid(*r)
                        lo, hi = min(u, w), max(u, w)
                        cut[ename(lo, hi)] = 1 if vid(*(q if q[0] == 0 else r)) == lo else -1
    if len(set(tris)) != len(tris):
        raise ValueError("grid too small: triangles repeat")
    edges = sorted({(t[a], t[b]) for t in tris for a, b in ((0, 1), (0, 2), (1, 2))})
    verts = sorted({v for t in tris for v in t})
    simplices = [
        [(f"v{v}", ()) for v in verts],
        [(ename(a, b), (f"v{b}", f"v{a}")) for a, b in edges],
        [
            (f"t{a}_{b}_{c}", (ename(b, c), ename(a, c), ename(a, b)))
            for a, b, c in sorted(tris)
        ],
    ]
    meridian = [ename(*sorted((vid(1, j), vid(1, j + 1)))) for j in range(m)]
    return GenComplex(f"KB{n}_{m}", simplices, cut, meridian, False, "klein", n)


# -- coefficient systems -----------------------------------------------------


def _mat_mul(A, B):
    return tuple(
        tuple(sum(A[i][t] * B[t][j] for t in range(len(B))) for j in range(len(B[0])))
        for i in range(len(A))
    )


def _inv2(A):
    """Inverse of a unimodular 2x2 integer matrix."""
    (a, b), (c, d) = A
    det = a * d - b * c
    if det not in (1, -1):
        raise ValueError("gauge matrix is not unimodular")
    return ((d * det, -b * det), (-c * det, a * det))


@dataclass
class GenSystem:
    name: str
    ring: str
    rank: int
    transports: dict[str, tuple[tuple[int, ...], ...]]

    def text(self) -> str:
        lines = [f"system {self.name} over {self.ring} rank {self.rank}"]
        for e, T in self.transports.items():
            body = "];[".join(",".join(str(x) for x in row) for row in T)
            lines.append(f"edge {e} [[{body}]]")
        return "\n".join(lines) + "\n"


def twisted_system(K: GenComplex, rank: int, ring: str, rng: random.Random,
                   name: str) -> GenSystem:
    """Holonomy -1 (rank 1) or HOLONOMY (rank 2) across the cut, gauged by rng.

    T'_e = g_head T_e g_tail^{-1}, so the twisted edges and the entries vary
    with the seed while the isomorphism class, and so every group, does not.
    """
    if rank == 1:
        hol = ((-1,),)
        choices = (((1,),), ((-1,),))
    elif rank == 2:
        hol = HOLONOMY
        choices = GAUGE_CHOICES
    else:
        raise ValueError("rank must be 1 or 2")
    hol_inv = hol if rank == 1 else _inv2(hol)
    ident = tuple(tuple(int(i == j) for j in range(rank)) for i in range(rank))
    gauge = {nm: rng.choice(choices) for nm, _ in K.simplices[0]}
    transports = {}
    for e, _ in K.simplices[1]:
        tail, head = K.edge_ends(e)
        direction = K.cut.get(e, 0)
        T = hol if direction == 1 else hol_inv if direction == -1 else ident
        g_tail_inv = _inv2(gauge[tail]) if rank == 2 else gauge[tail]
        T = _mat_mul(_mat_mul(gauge[head], T), g_tail_inv)
        if T != ident:
            transports[e] = T
    return GenSystem(name, ring, rank, transports)


# -- subcomplexes and maps ---------------------------------------------------


def meridian_text(K: GenComplex) -> str:
    return "sub meridian\n" + "".join(f"member {e}\n" for e in K.meridian)


def covering_map_text(dom: GenComplex, cod: GenComplex) -> str:
    """The covering T_{2n} -> T_n reducing every coordinate mod n."""
    n = cod.size
    lines = [f"map cover from {dom.name} to {cod.name}"]
    for level in dom.simplices:
        for nm, _ in level:
            head, coords = nm.split("_", 1)
            image = "_".join(str(int(c) % n) for c in coords.split("_"))
            lines.append(f"send {nm} {head}_{image}")
    return "\n".join(lines) + "\n"


def free_symbol(ring: str, rank: int) -> str:
    """The CLI's symbol for a free module: '0', 'Z', 'Q^2', 'F_3^3', ..."""
    base = ring if ring in ("Z", "Q") else "F_" + ring[1:]
    return "0" if rank == 0 else base if rank == 1 else f"{base}^{rank}"


def closed_form_groups(kind: str, dim: int, ring: str, cohomology: bool) -> list[str]:
    """Untwisted absolute groups of T_n, T3_n and Klein bottles, as symbols.

    Independent of the library: these are the textbook answers.
    """
    if kind == "torus":
        return [free_symbol(ring, r) for r in ([1, 2, 1] if dim == 2 else [1, 3, 3, 1])]
    # Klein bottle: H_* = Z, Z + Z/2, 0 and H^* = Z, Z, Z/2 over Z.
    if ring == "Z":
        return ["Z", "Z", "Z/2"] if cohomology else ["Z", "Z + Z/2", "0"]
    ranks = [1, 2, 1] if ring == "F2" else [1, 1, 0]
    return [free_symbol(ring, r) for r in ranks]
