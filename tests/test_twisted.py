import random
import re

import pytest

import twistlab as tl
from twistlab import twisted
from twistlab.cli import run_cli
from twistlab.errors import TwistlabError, ValidationError
from twistlab.matrices import Matrix

from conftest import (
    fixture_text,
    identity_map,
    load_complex,
    load_subcomplex,
    load_system,
    random_flat_system,
    random_gauge,
    reference_validate_map,
    skeleton_pair,
    subcomplex_as_complex,
)

RINGS = [tl.Z, tl.Q, tl.prime_field(5)]


def test_circle_boundary_matrices():
    K = load_complex("circle1")
    minus = load_system("minus1.sys", K)
    const = tl.constant_system(K, 1, tl.Z)
    assert tl.chain_complex(K, minus).diff(1).rows == [[-2]]
    assert tl.chain_complex(K, const).diff(1).rows == [[0]]
    assert tl.cochain_complex(K, minus).diff(0).rows == [[-2]]
    assert tl.cochain_complex(K, const).diff(0).rows == [[0]]


def test_disk_boundary_signs():
    K = load_complex("disk")
    C = tl.chain_complex(K, tl.constant_system(K, 1, tl.Z))
    # edges in file order a, b, c; faces of T are (a, b, c)
    assert C.diff(2).rows == [[1], [-1], [1]]
    D = tl.cochain_complex(K, tl.constant_system(K, 1, tl.Z))
    # coboundary at degree 1 carries the printed global sign (-1)^1
    assert D.diff(1) == C.diff(2).transpose().neg()


def test_basis_order_simplex_major():
    K = load_complex("circle1")
    G = tl.constant_system(K, 3, tl.Z)
    C = tl.chain_complex(K, G)
    assert C.rank(0) == 3 and C.rank(1) == 3
    assert C.basis_names(1) == ("a",)


def test_split_positions_read_the_basis_positions():
    # Rank 2 on the torus with L = {v, b}: the fiber coordinate t over the
    # simplex at position p of the full basis is 2p + t.
    K = load_complex("torus")
    G = tl.constant_system(K, 2, tl.Z)
    P = tl.subcomplex(K, ["b"])
    assert P.positions == ((0,), (1,), ())
    full = tl.chain_complex(K, G)
    sub, rel = twisted._sub_complex(P, G, "chain"), tl.relative_complex(P, G, "chain")
    assert rel._basis == ((), (0, 2), (0, 1)) and sub.basis_names(1) == ("b",)
    sub_pos, rel_pos = twisted._split_positions(full, sub, rel, range(3))
    assert sub_pos == {0: [0, 1], 1: [2, 3], 2: []}
    assert rel_pos == {0: [], 1: [0, 1, 4, 5], 2: [0, 1, 2, 3]}
    # Bases that overlap, miss a simplex or sit in a smaller complex do not split.
    for whole, a, b in ((full, sub, sub), (full, sub, full), (full, rel, rel), (rel, sub, rel)):
        with pytest.raises(TwistlabError, match="do not split the full basis"):
            twisted._split_positions(whole, a, b, range(3))


def test_squared_zero_randomized(rng):
    # flatness forces both composites to vanish exactly
    for name in ["torus", "klein", "rp2", "rp3"]:
        K = load_complex(name)
        for ring in RINGS:
            for rank in (1, 2, 3):
                G = random_flat_system(name, rank, ring, rng)
                C = tl.chain_complex(K, G)
                D = tl.cochain_complex(K, G)
                for k in C.degrees():
                    assert C.diff(k - 1).mul(C.diff(k)).is_zero()
                    assert D.diff(k).mul(D.diff(k - 1)).is_zero()


def test_relative_ranks():
    D = load_complex("disk")
    P = load_subcomplex("disk_boundary.sub", D)
    G = tl.constant_system(D, 1, tl.Z)
    chain = tl.relative_complex(P, G, "chain")
    cochain = tl.relative_complex(P, G, "cochain")
    assert [chain.rank(k) for k in range(3)] == [0, 0, 1]
    assert [cochain.rank(k) for k in range(3)] == [0, 0, 1]

    T = load_complex("torus")
    PT = tl.subcomplex(T, ["a"])
    chain_t = tl.relative_complex(PT, tl.constant_system(T, 1, tl.Z), "chain")
    assert [chain_t.rank(k) for k in range(3)] == [0, 2, 2]


def test_relative_equals_absolute_for_empty_sub():
    K = load_complex("torus")
    G = load_system("torus_ab.sys", K)
    P = tl.subcomplex(K, [])
    chain = tl.relative_complex(P, G, "chain")
    full = tl.chain_complex(K, G)
    for k in range(3):
        assert chain.diff(k) == full.diff(k)


def test_euler_invariant_over_q(rng):
    # alternating sum of twisted Betti numbers = rank * euler characteristic
    for name in ["circle3", "disk", "sphere2", "torus", "klein", "rp2", "rp3"]:
        K = load_complex(name)
        chi = tl.euler_characteristic(K)
        for rank in (1, 2, 3):
            G = random_flat_system(name, rank, tl.Q, rng)
            C = tl.chain_complex(K, G)
            total = sum(
                (-1) ** k * C.homology(k).rank for k in range(K.dimension + 1)
            )
            assert total == rank * chi, name


def test_gauge_invariance_of_presentations(rng):
    for name in ["torus", "klein", "rp2"]:
        K = load_complex(name)
        for ring in RINGS:
            G = random_flat_system(name, 2, ring, rng)
            Gs = tl.gauge_transform(G, random_gauge(K, ring, 2, rng))
            A = tl.chain_complex(K, G)
            B = tl.chain_complex(K, Gs)
            for k in range(K.dimension + 1):
                assert A.homology(k).isomorphic_to(B.homology(k))


def test_constant_reduction_matches_classical():
    classical = {
        "circle1": ["Z", "Z"],
        "sphere2": ["Z", "0", "Z"],
        "torus": ["Z", "Z^2", "Z"],
        "klein": ["Z", "Z + Z/2", "0"],
        "rp2": ["Z", "Z/2", "0"],
        "rp3": ["Z", "Z/2", "0", "Z"],
    }
    for name, groups in classical.items():
        K = load_complex(name)
        C = tl.chain_complex(K, tl.constant_system(K, 1, tl.Z))
        assert [C.homology(k).group_symbol() for k in range(K.dimension + 1)] == groups


def test_induced_map_examples():
    C3, C1 = load_complex("circle3"), load_complex("circle1")
    f = tl.parse_map(fixture_text("wrap.map"), C3, C1)
    G = tl.constant_system(C1, 1, tl.Z)
    chains, cochains = tl.induced_chain_map(f, G)
    assert chains.matrix(1).rows == [[1, 1, 1]]
    h1 = tl.induced_map_on_homology(chains, 1)
    assert h1.rows in ([[1]], [[-1]])  # generator to generator
    assert tl.is_quasi_iso(chains) and tl.is_quasi_iso(cochains)

    disk, point = load_complex("disk"), load_complex("point")
    g = tl.parse_map(fixture_text("collapse.map"), disk, point)
    ch, co = tl.induced_chain_map(g, tl.constant_system(point, 1, tl.Z))
    assert ch.matrix(1).is_zero() and ch.matrix(2).is_zero()
    assert tl.is_quasi_iso(ch) and tl.is_quasi_iso(co)


def test_inclusion_kills_circle_class():
    D = load_complex("disk")
    P = load_subcomplex("disk_boundary.sub", D)
    G = tl.constant_system(D, 1, tl.Z)
    frag = tl.assemble_les(P, G, "homology")
    # the map i_1: H_1(L) -> H_1(K) is the zero map out of Z
    idx = frag.map_labels.index("i_1")
    assert frag.maps[idx].nrows == 0 and frag.maps[idx].ncols == 1


def test_les_connecting_disk_pair():
    D = load_complex("disk")
    P = load_subcomplex("disk_boundary.sub", D)
    G = tl.constant_system(D, 1, tl.Z)
    frag = tl.assemble_les(P, G, "homology")
    idx = frag.map_labels.index("d_2")
    assert frag.maps[idx].rows in ([[1]], [[-1]])
    assert frag.exactness().all_exact


def test_les_rank_zero_system():
    D = load_complex("disk")
    P = load_subcomplex("disk_boundary.sub", D)
    G = tl.constant_system(D, 0, tl.Z)
    frag = tl.assemble_les(P, G, "homology")
    assert all(n.presentation.is_zero for n in frag.nodes)
    assert frag.exactness().all_exact


def test_les_torus_vertex_cohomology():
    T = load_complex("torus")
    P = load_subcomplex("torus_vertex.sub", T)
    G = tl.constant_system(T, 1, tl.Z)
    frag = tl.assemble_les(P, G, "cohomology")
    assert frag.exactness().all_exact
    labels = {n.label: n.presentation.group_symbol() for n in frag.nodes}
    assert labels["H^1(K)"] == "Z^2"


def test_les_exactness_grid(rng):
    pairs = [
        ("disk", "disk_boundary.sub"),
        ("torus", "torus_vertex.sub"),
        ("klein", "klein_circle.sub"),
        ("rp2", "rp2_circle.sub"),
    ]
    for cname, subname in pairs:
        K = load_complex(cname)
        P = load_subcomplex(subname, K)
        systems = [tl.constant_system(K, 1, tl.Z), random_flat_system(cname, 2, tl.Z, rng)]
        if tl.pseudomanifold_check(K).closed_pseudomanifold:
            systems.append(tl.orientation_system(K))
        for G in systems:
            for variant in ("homology", "cohomology"):
                frag = tl.assemble_les(P, G, variant)
                assert frag.exactness().all_exact, (cname, G.name, variant)


def test_cellular_boundary_triple_calibration():
    # the calibration instance: circle with holonomy -1 must give (-2)
    K = load_complex("circle1")
    G = load_system("minus1.sys", K)
    assert tl.cellular_boundary_via_triple(K, G, 1).rows == [[-2]]


def test_cellular_boundary_triple_all_fixtures(rng):
    for name in ["circle3", "sphere2", "torus", "klein", "rp2", "rp3"]:
        K = load_complex(name)
        for G in [
            tl.constant_system(K, 1, tl.Z),
            random_flat_system(name, 2, tl.Z, rng),
        ]:
            C = tl.chain_complex(K, G)
            for n in range(1, K.dimension + 1):
                assert tl.cellular_boundary_via_triple(K, G, n) == C.diff(n), (name, n)


def test_cellular_boundary_rank_zero():
    K = load_complex("sphere2")
    G = tl.constant_system(K, 0, tl.Z)
    M = tl.cellular_boundary_via_triple(K, G, 2)
    assert M.nrows == 0 and M.ncols == 0


def test_cellular_boundary_triple_rejects_a_system_on_another_complex():
    # The edge names of torus_ab.sys are edges of the Klein bottle too.
    K = load_complex("klein")
    G = load_system("torus_ab.sys", load_complex("torus"))
    with pytest.raises(ValidationError, match="lives on 'torus', not 'klein'"):
        tl.cellular_boundary_via_triple(K, G, 1)
    with pytest.raises(ValidationError):
        tl.chain_complex(K, G)
    for n in (0, 3):
        with pytest.raises(TwistlabError, match=f"degree {n} out of range for 'klein'"):
            tl.cellular_boundary_via_triple(K, tl.constant_system(K, 1, tl.Z), n)


def test_triple_checks_refuses_what_it_cannot_check():
    # A cochain complex or a relative complex is not the top of the skeleton
    # filtration, so the triples cannot be compared with its differentials.
    K = load_complex("torus")
    G = tl.constant_system(K, 1, tl.Z)
    for C in (
        tl.cochain_complex(K, G),
        tl.relative_complex(load_subcomplex("torus_vertex.sub", K), G, "chain"),
    ):
        with pytest.raises(TwistlabError, match=re.escape(f"of 'torus', not {C.label}")):
            twisted.triple_checks(C)
    assert all(t.ok for t in twisted.triple_checks(tl.chain_complex(K, G)))


def _every_position(K, dims):
    """The basis of every simplex of K in the dimensions dims."""
    return tuple(tuple(range(len(K.simplices(k)))) if k in dims else ()
                 for k in range(K.dimension + 1))


def reference_triple(K, G, n):
    """The composite as it was computed from a copy of K^n, with G restricted
    to the copy: the complexes of the pair (K^n, K^{n-1}) and the layer on
    the (n-1)-cells, all built on the copy."""
    Kn = subcomplex_as_complex(skeleton_pair(K, n), f"{K.name}@{n}")
    Gn = tl.LocalSystem(f"{G.name}|{Kn.name}", Kn, G.ring, G.rank,
                        {e: G.transport(e) for e in Kn.simplices(1)})
    subC = tl.TwistedComplex("sub", Kn, Gn, "chain", _every_position(Kn, range(n)))
    fullC = tl.TwistedComplex("full", Kn, Gn, "chain", None)
    relC = tl.TwistedComplex("rel", Kn, Gn, "chain", _every_position(Kn, (n,)))
    # Kn's (n-1)-simplices are in subC, its n-simplices in relC, all in fullC's order.
    sub_pos, rel_pos = range(fullC.rank(n - 1)), range(fullC.rank(n))
    img = fullC.diff(n).select_cols(rel_pos).mul(relC.homology(n).representatives)
    conn = subC.class_coordinates(n - 1, img.select_rows(sub_pos))
    psi = relC.class_coordinates(n, Matrix.identity(G.ring, relC.rank(n)))
    relC1 = tl.TwistedComplex("rel1", Kn, Gn, "chain", _every_position(Kn, (n - 1,)))
    mats = {}
    for k in subC.degree_span():
        # relC1's basis is subC's in degree n - 1 and empty in every other.
        rows = [[G.ring.zero()] * subC.rank(k) for _ in range(relC1.rank(k))]
        for i in range(relC1.rank(k)):
            rows[i][i] = G.ring.one()
        m = Matrix(G.ring, rows)
        m.ncols = subC.rank(k)
        mats[k] = m
    quot = tl.ChainMapData("quot", subC, relC1, mats, 1)
    q_ind = tl.induced_map_on_homology(quot, n - 1)
    phi = relC1.homology(n - 1).representatives
    return phi.mul(q_ind).mul(conn).mul(psi)


TRIPLE_RINGS = [tl.Z, tl.Q, tl.prime_field(2), tl.prime_field(3)]


def _fixture_triple_cases(rng):
    for name in ["circle1", "circle3", "disk", "sphere2", "torus", "klein", "rp2", "rp3"]:
        K = load_complex(name)
        for ring in TRIPLE_RINGS:
            for rank in (0, 1, 2):
                yield f"{name} {ring.token} r{rank}", K, random_flat_system(name, rank, ring, rng)


def _bench_triple_cases():
    from inputs import klein_bottle, kuhn_torus, twisted_system

    families = [kuhn_torus(1, 2), kuhn_torus(2, 2), kuhn_torus(3, 2), klein_bottle(3, 3),
                kuhn_torus(1, 3)]
    for gen in families:
        for seed in range(3):
            gen.shuffle(random.Random(f"triple/{seed}/{gen.name}"))
            K = tl.parse_complex(gen.text())
            for i, ring in enumerate(TRIPLE_RINGS):
                yield f"{gen.name} shuffle {seed} {ring.token} r0", K, tl.constant_system(K, 0, ring)
                for rank in (1, 2):
                    text = twisted_system(gen, rank, ring.token,
                                          random.Random(f"{seed}/{i}/{rank}"), "g").text()
                    yield f"{gen.name} shuffle {seed} {ring.token} r{rank}", K, tl.parse_system(text, K)


def test_triple_filtration_matches_the_copy_based_composite(rng):
    cases = list(_fixture_triple_cases(rng)) + list(_bench_triple_cases())
    assert {K.dimension for _, K, _ in cases} == {1, 2, 3}
    for label, K, G in cases:
        C = tl.chain_complex(K, G)
        checks = twisted.triple_checks(C)
        assert [t.degree for t in checks] == list(range(1, K.dimension + 1)), label
        for t in checks:
            ref = reference_triple(K, G, t.degree)
            assert tl.cellular_boundary_via_triple(K, G, t.degree) == ref, (label, t.degree)
            assert t.ok == (ref == C.diff(t.degree)), (label, t.degree)
        assert all(t.ok for t in checks), label


def test_triple_checks_builds_each_skeleton_and_layer_once(monkeypatch):
    # A d-dimensional K builds the skeleta C(K^0) .. C(K^{d-1}) and the layers
    # C(K^k, K^{k-1}) for k = 0 .. d: 2d + 1 complexes, C itself serving as
    # the top skeleton.  Only the layer on the vertices repeats a skeleton.
    builds = []
    init = twisted.TwistedComplex.__init__

    def counting_init(self, label, base, system, direction, keep):
        builds.append(keep)
        init(self, label, base, system, direction, keep)

    monkeypatch.setattr(twisted.TwistedComplex, "__init__", counting_init)
    for name in ["circle1", "torus", "rp3"]:
        K = load_complex(name)
        C = tl.chain_complex(K, load_system("torus_ab.sys", K) if name == "torus"
                             else tl.constant_system(K, 1, tl.Z))
        builds.clear()
        assert all(t.ok for t in twisted.triple_checks(C)), name
        d = K.dimension
        assert len(builds) == 2 * d + 1, name
        skeleta = [_every_position(K, range(k + 1)) for k in range(d)]
        layers = [_every_position(K, (k,)) for k in range(d + 1)]
        assert sorted(builds) == sorted(skeleta + layers), name
        builds.clear()
        tl.cellular_boundary_via_triple(K, C.system, d)
        assert len(builds) == 4, name


def test_triple_checks_ask_no_layer_for_its_homology(monkeypatch):
    # A layer C(K^k, K^{k-1}) has zero differential, so its homology is the
    # free module on the k-cells with its canonical basis: the composite reads
    # the layers' bases only.
    asked = []
    homology_ctx = tl.FreeComplex.homology_ctx

    def recording(self, k):
        asked.append(self.label)
        return homology_ctx(self, k)

    monkeypatch.setattr(tl.FreeComplex, "homology_ctx", recording)
    for name, system in [("rp3", None), ("torus", "torus_ab.sys")]:
        K = load_complex(name)
        C = tl.chain_complex(K, tl.constant_system(K, 1, tl.Z) if system is None
                             else load_system(system, K))
        asked.clear()
        assert all(t.ok for t in twisted.triple_checks(C)), name
        assert asked, name
        layers = [f"C({name}^{k},{name}^{k - 1})" for k in range(K.dimension + 1)]
        assert not set(asked) & set(layers), name


def test_compare_les_absolute_degenerates():
    K = load_complex("torus")
    P = tl.subcomplex(K, [])
    rep = tl.compare_les(P, tl.constant_system(K, 1, tl.Z), "homology")
    assert rep.ok


def test_compare_les_fails_when_the_triple_sign_is_wrong(monkeypatch):
    # The squares and cellular exactness rest on the triple check, so a triple
    # composite of the wrong sign must fail all of them, not just the triples.
    # Negating the connecting map flips every composite; in the simplicial
    # sequence it keeps every image and kernel, so that stays exact.
    connecting_map = twisted._connecting_map
    monkeypatch.setattr(twisted, "_connecting_map", lambda *a: connecting_map(*a).neg())
    D = load_complex("disk")
    P = load_subcomplex("disk_boundary.sub", D)
    rep = tl.compare_les(P, tl.constant_system(D, 1, tl.Z), "homology")
    assert rep.triples and not any(t.ok for t in rep.triples)
    assert rep.squares and not any(s.ok for s in rep.squares)
    assert rep.simplicial_exactness.all_exact
    assert not rep.cellular_exact and not rep.ok
    status, text = run_cli(["les", "fixtures/disk.cx", "--sub", "fixtures/disk_boundary.sub"])
    assert status == 1
    lines = text.splitlines()
    for verdict in ("SIMPLICIAL EXACTNESS OK", "CELLULAR EXACTNESS FAIL", "SQUARES FAIL",
                    "LES FAIL"):
        assert verdict in lines
    checks = [line for line in lines if line.startswith(("square ", "cellular boundary "))]
    assert len(checks) == 10 and all(line.endswith(": FAIL") for line in checks)


def test_compare_les_klein_orientation_pair():
    K = load_complex("klein")
    P = load_subcomplex("klein_circle.sub", K)
    w = tl.orientation_system(K)
    rep = tl.compare_les(P, w, "homology")
    assert rep.ok


def test_homotopy_invariance_instances(rng):
    # collapse disk -> point and the circle wrap induce isos for all systems
    disk, point = load_complex("disk"), load_complex("point")
    C3, C1 = load_complex("circle3"), load_complex("circle1")
    collapse = tl.parse_map(fixture_text("collapse.map"), disk, point)
    wrap = tl.parse_map(fixture_text("wrap.map"), C3, C1)
    for ring in RINGS:
        for rank in (1, 2):
            Gp = tl.constant_system(point, rank, ring)
            ch, co = tl.induced_chain_map(collapse, Gp)
            assert tl.is_quasi_iso(ch) and tl.is_quasi_iso(co)
            Gc = random_flat_system("circle1", rank, ring, rng)
            ch2, co2 = tl.induced_chain_map(wrap, Gc)
            assert tl.is_quasi_iso(ch2) and tl.is_quasi_iso(co2)


def test_simplicial_map_validation_errors():
    C3, C1 = load_complex("circle3"), load_complex("circle1")
    # missing simplices
    with pytest.raises(ValidationError):
        tl.SimplicialMap("bad", C3, C1, {"v1": tl.maps.Assignment("v", None)})


def test_map_face_compatibility_enforced():
    from twistlab.maps import Assignment, SimplicialMap

    D, P = load_complex("disk"), load_complex("point")
    a = {nm: Assignment("p", None if D.dim_of(nm) == 0 else tuple([0] * (D.dim_of(nm) + 1)))
         for nm in D.all_simplices()}
    m = SimplicialMap("ok", D, P, a)
    assert m.images[2] == [(0, (0, 0, 0))]
    bad = dict(a)
    bad["T"] = Assignment("p", (0, 0))
    with pytest.raises(ValidationError):
        SimplicialMap("bad", D, P, bad)


def _edited(name, changes):
    """The assignments of a fixture map with some entries replaced, or
    removed where the change is None."""
    dom, cod = {"collapse": ("disk", "point"), "wrap": ("circle3", "circle1")}[name]
    D, C = load_complex(dom), load_complex(cod)
    a = dict(tl.parse_map(fixture_text(f"{name}.map"), D, C).assignments)
    for nm, change in changes.items():
        if change is None:
            del a[nm]
        else:
            a[nm] = tl.maps.Assignment(*change)
    return D, C, a


@pytest.mark.parametrize("name, codomain, changes, message", [
    ("wrap", None, {"v2": None, "a": ("nope", None)}, "map 'm' misses simplex 'v2'"),
    ("wrap", None, {"a": ("nope", None), "b": ("v", None)}, "map 'm': unknown image 'nope'"),
    ("wrap", None, {"a": ("v", None), "c": ("nope", None)},
     "map 'm': 'a' sent to 'v' of different dimension"),
    ("collapse", None, {"a": ("p", (0, 0, 0))}, "map 'm': bad collapse record on 'a'"),
    ("collapse", None, {"v": ("p", (0,))}, "map 'm': bad collapse record on 'v'"),
    ("collapse", None, {"T": ("p", (0, 1, 0))},
     "map 'm': surjection on 'T' is not monotone onto"),
    ("wrap", None, {"a": ("v", (1, 0))}, "map 'm': surjection on 'a' is not monotone onto"),
    # Every per-simplex check runs before the first face check.
    ("wrap", None, {"v1": ("v", (0,)), "b": ("v", (0, 0))},
     "map 'm': bad collapse record on 'v1'"),
    ("wrap", None, {"b": ("v", (0, 0)), "c": ("v", None)},
     "map 'm': 'c' sent to 'v' of different dimension"),
    ("wrap", "circle3", {"v1": ("v2", None), "v2": ("v1", None), "a": ("a", None),
                         "b": ("b", None), "c": ("c", None), "v3": ("v3", None)},
     "map 'm': face 0 of 'a' maps to Assignment(image='v1', surjection=None) "
     "but the parent forces Assignment(image='v2', surjection=None)"),
    # Simplex-major, then face index: face 1 of a (v2 v1) fails before
    # face 0 of b (v3 v2).
    ("wrap", "circle3", {"v1": ("v3", None), "v2": ("v2", None), "v3": ("v1", None),
                         "a": ("a", None), "b": ("b", None), "c": ("c", None)},
     "map 'm': face 1 of 'a' maps to Assignment(image='v3', surjection=None) "
     "but the parent forces Assignment(image='v1', surjection=None)"),
    ("wrap", "circle3", {"v1": ("v1", None), "v2": ("v2", None), "v3": ("v3", None),
                         "a": ("a", None), "b": ("b", None), "c": ("v1", (0, 0))},
     "map 'm': face 0 of 'c' maps to Assignment(image='v3', surjection=None) "
     "but the parent forces Assignment(image='v1', surjection=None)"),
], ids=["missing", "unknown_image", "wrong_dimension", "long_collapse", "collapsed_vertex",
        "non_monotone", "onto_too_much", "first_of_two_records", "dimension_after_collapse",
        "face_of_a_sent_edge", "first_face_wins", "face_of_a_collapsed_edge"])
def test_map_validation_names_the_first_fault(name, codomain, changes, message):
    D, C, a = _edited(name, changes)
    if codomain is not None:
        C = load_complex(codomain)
    with pytest.raises(ValidationError) as got:
        tl.SimplicialMap("m", D, C, a)
    assert str(got.value) == message


def test_map_validation_names_a_collapse_that_drops_a_vertex():
    # disk -> circle1 with T collapsed by 001: dropping slot 2 loses vertex 1
    # of the image edge, so face 2 must go to that edge's face 1, collapsed.
    D, C1 = load_complex("disk"), load_complex("circle1")
    A = tl.maps.Assignment
    a = {"u": A("v", None), "v": A("v", None), "w": A("v", None),
         "a": A("a", None), "b": A("a", None), "c": A("a", None), "T": A("a", (0, 0, 1))}
    with pytest.raises(ValidationError) as got:
        tl.SimplicialMap("m", D, C1, a)
    assert str(got.value) == (
        "map 'm': face 2 of 'T' maps to Assignment(image='a', surjection=None) "
        "but the parent forces Assignment(image='v', surjection=(0, 0))")
    a["c"] = A("v", (0, 0))
    assert tl.SimplicialMap("m", D, C1, a).images[2] == [(0, (0, 0, 1))]


# What a map's verdict can say, one kind of fault each.
KINDS = ("accepted", "misses", "unknown image", "different dimension", "bad collapse",
         "not monotone", "parent forces")


def _verdict(check):
    try:
        check()
    except ValidationError as exc:
        return str(exc)
    return "accepted"


def _mutants(dom, cod, assignments, rng, count=None):
    """Single-assignment changes of a map: one simplex's record dropped,
    renamed, sent elsewhere or collapsed with random digits, on every simplex
    or on count of them drawn at random."""
    A = tl.maps.Assignment
    names = list(dom.all_simplices())
    targets = names if count is None else [rng.choice(names) for _ in range(count)]
    by_dim = [cod.simplices(j) for j in range(cod.dimension + 1)]
    for nm in targets:
        k = dom.dim_of(nm)
        a = assignments[nm]
        j = rng.randrange(len(by_dim))
        length = k + 1 if rng.random() < 0.7 else rng.randint(1, k + 2)
        digits = [rng.randint(0, max(j, 1)) for _ in range(length)]
        for change in (None, A("nope", None), A(rng.choice(by_dim[j]), None),
                       A(rng.choice(by_dim[j]), tuple(sorted(digits))),
                       A(rng.choice(by_dim[j]), tuple(digits)),
                       A(a.image, tuple(sorted(digits))),
                       A(a.image, None if a.surjection else tuple(range(k + 1)))):
            b = dict(assignments)
            if change is None:
                del b[nm]
            else:
                b[nm] = change
            yield b


def test_map_validation_matches_the_name_walk():
    # Every single-assignment mutant of the collapse fixture and of the covers
    # T4 -> T2 (each simplex) and T16 -> T8 (a sample) is accepted or refused
    # with the name walk's verdict and message.
    from inputs import covering_map_text, kuhn_torus

    rng = random.Random(34)
    disk, point = load_complex("disk"), load_complex("point")
    maps = [(disk, point, tl.parse_map(fixture_text("collapse.map"), disk, point), None)]
    for n, count in ((2, None), (8, 40)):
        big, small = kuhn_torus(2 * n, 2), kuhn_torus(n, 2)
        D, C = tl.parse_complex(big.text()), tl.parse_complex(small.text())
        maps.append((D, C, tl.parse_map(covering_map_text(big, small), D, C), count))
    verdicts = set()
    for D, C, f, count in maps:
        for b in _mutants(D, C, f.assignments, rng, count):
            want = _verdict(lambda: reference_validate_map("m", D, C, b))
            assert _verdict(lambda: tl.SimplicialMap("m", D, C, b)) == want, want
            verdicts.update(kind for kind in KINDS if kind in want)
    assert verdicts == set(KINDS)


def test_sphere2_rank2_rational_dims():
    K = load_complex("sphere2")
    C = tl.chain_complex(K, tl.constant_system(K, 2, tl.Q))
    assert [C.homology(k).rank for k in range(3)] == [2, 0, 2]


def test_identity_map_induces_identity_matrices():
    K = load_complex("torus")
    G = load_system("torus_ab.sys", K)
    chains, cochains = tl.induced_chain_map(identity_map(K), G)
    for k in range(3):
        assert chains.matrix(k) == Matrix.identity(tl.Z, chains.source.rank(k))
        assert cochains.matrix(k) == Matrix.identity(tl.Z, cochains.source.rank(k))
    for k in range(3):
        h = tl.induced_map_on_homology(chains, k)
        n = chains.source.homology(k).generators
        assert h == Matrix.identity(tl.Z, n)


def test_cellular_via_phi_torus_absolute():
    # The cellular side of the absolute torus with the rank-2 system torus_ab:
    # the degree-2 triple composite is the direct boundary, and the comparison
    # through the empty subcomplex reports the triple as matching.
    K = load_complex("torus")
    G = load_system("torus_ab.sys", K)
    P = tl.subcomplex(K, [])
    assert tl.cellular_boundary_via_triple(K, G, 2) == tl.chain_complex(K, G).diff(2)
    rep = tl.compare_les(P, G, "homology")
    assert [t.ok for t in rep.triples if t.degree == 2] == [True]
    assert rep.ok
