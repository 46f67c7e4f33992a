"""Search for a two-tetrahedron Delta-complex model of RP^3.

Enumerates the 105 perfect matchings of the eight face slots of two
tetrahedra, derives the forced edge/vertex identifications from the face
identities, and keeps the complexes that are closed orientable pseudomanifolds
with H_* = (Z, Z/2, 0, Z) and vertex links of Euler characteristic 2.
"""

import itertools
import sys

sys.path.insert(0, "src")

from twistlab import (
    Z,
    constant_system,
    chain_complex,
    euler_characteristic,
    is_trivializable,
    orientation_system,
    parse_complex,
    pseudomanifold_check,
)
from twistlab.complexes import face_path
from twistlab.errors import TwistlabError


class UnionFind:
    def __init__(self):
        self.parent = {}

    def find(self, x):
        self.parent.setdefault(x, x)
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


def matchings(slots):
    if not slots:
        yield []
        return
    first = slots[0]
    for k in range(1, len(slots)):
        rest = slots[1:k] + slots[k + 1 :]
        for m in matchings(rest):
            yield [(first, slots[k])] + m


def build_candidate(matching):
    # triangle id per face slot
    tri_of = {}
    for t, pair in enumerate(matching):
        for slot in pair:
            tri_of[slot] = t

    tet_faces = {T: [tri_of[(T, i)] for i in range(4)] for T in (0, 1)}

    # edge classes from tetra face identities
    uf_e = UnionFind()
    for T in (0, 1):
        f = tet_faces[T]
        for j in range(4):
            for i in range(j):
                uf_e.union((f[j], i), (f[i], j - 1))
    edge_slots = [(t, i) for t in range(4) for i in range(3)]
    edge_class = {s: uf_e.find(s) for s in edge_slots}
    edge_ids = sorted(set(edge_class.values()))
    edge_index = {c: k for k, c in enumerate(edge_ids)}
    tri_edges = {t: [edge_index[edge_class[(t, i)]] for i in range(3)] for t in range(4)}

    # vertex classes from triangle face identities
    uf_v = UnionFind()
    for t in range(4):
        e = tri_edges[t]
        for j in range(3):
            for i in range(j):
                uf_v.union((e[j], i), (e[i], j - 1))
    vertex_slots = [(e, i) for e in range(len(edge_ids)) for i in range(2)]
    vclass = {s: uf_v.find(s) for s in vertex_slots}
    vids = sorted(set(vclass.values()))
    vindex = {c: k for k, c in enumerate(vids)}
    edge_verts = {
        e: [vindex[vclass[(e, 0)]], vindex[vclass[(e, 1)]]]
        for e in range(len(edge_ids))
    }

    lines = ["complex rp3", "dim 3"]
    lines += [f"simplex 0 p{v}" for v in range(len(vids))]
    lines += [f"simplex 1 e{e} p{edge_verts[e][0]} p{edge_verts[e][1]}"
              for e in range(len(edge_ids))]
    lines += [f"simplex 2 t{t} " + " ".join(f"e{i}" for i in tri_edges[t]) for t in range(4)]
    lines += [f"simplex 3 {nm} " + " ".join(f"t{i}" for i in tet_faces[T])
              for T, nm in ((0, "A"), (1, "B"))]
    # parse_complex checks the face identities too: a gluing that fails them
    # raises a TwistlabError.
    return parse_complex("\n".join(lines) + "\n")


def link_euler(K, v):
    """The Euler characteristic of the link of the vertex at position v."""
    def corners(k):
        # How often v is vertex e_m of a k-simplex, over every m.
        return sum(K.faces_along(k, face_path(k, (m,))).count(v) for m in range(k + 1))

    return corners(1) - corners(2) + corners(3)


def main():
    slots = [(T, i) for T in (0, 1) for i in range(4)]
    found = []
    for mi, matching in enumerate(matchings(slots)):
        try:
            K = build_candidate(matching)
        except TwistlabError:
            continue
        rep = pseudomanifold_check(K)
        if not rep.closed_pseudomanifold:
            continue
        if euler_characteristic(K) != 0:
            continue
        C = chain_complex(K, constant_system(K, 1, Z))
        hs = [C.homology(k) for k in range(4)]
        groups = [(h.rank, h.invariants) for h in hs]
        if groups != [(1, ()), (0, (2,)), (0, ()), (1, ())]:
            continue
        try:
            w = orientation_system(K)
        except TwistlabError:
            continue
        triv, _ = is_trivializable(w)
        if not triv:
            continue
        links = [link_euler(K, v) for v in range(len(K.simplices(0)))]
        if any(x != 2 for x in links):
            continue
        found.append((mi, matching, K))
        print(f"match {mi}: counts={K.counts()} links={links}")
        for nm in K.all_simplices():
            print("   ", K.dim_of(nm), nm, K.faces(nm))
    print(f"total candidates: {len(found)}")


if __name__ == "__main__":
    main()
