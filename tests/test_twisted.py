import pytest

import twistlab as tl
from twistlab.cli import run_cli
from twistlab.errors import ValidationError
from twistlab.matrices import Matrix

from conftest import (
    load_complex,
    load_subcomplex,
    load_system,
    random_flat_system,
    random_gauge,
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


def test_positions_of_names_a_simplex_outside_the_basis():
    K = load_complex("torus")
    C = tl.chain_complex(K, tl.constant_system(K, 2, tl.Z))
    assert C.positions_of(1, ["b", "a"]) == [2, 3, 0, 1]
    for name in ("nope", "v", "U"):
        with pytest.raises(ValidationError, match=f"'{name}' is not a basis simplex .* degree 1"):
            C.positions_of(1, [name])


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
    f = tl.parse_map(open("fixtures/wrap.map").read(), C3, C1)
    G = tl.constant_system(C1, 1, tl.Z)
    chains, cochains = tl.induced_chain_map(f, G)
    assert chains.matrix(1).rows == [[1, 1, 1]]
    h1 = tl.induced_map_on_homology(chains, 1)
    assert h1.rows in ([[1]], [[-1]])  # generator to generator
    assert tl.is_quasi_iso(chains) and tl.is_quasi_iso(cochains)

    disk, point = load_complex("disk"), load_complex("point")
    g = tl.parse_map(open("fixtures/collapse.map").read(), disk, point)
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


def test_compare_les_absolute_degenerates():
    K = load_complex("torus")
    P = tl.subcomplex(K, [])
    rep = tl.compare_les(P, tl.constant_system(K, 1, tl.Z), "homology")
    assert rep.ok


def test_compare_les_fails_when_the_triple_sign_is_wrong(monkeypatch):
    # The squares and cellular exactness rest on the triple check, so a wrong
    # calibration must fail all of them, not just the triples.
    from twistlab import twisted

    monkeypatch.setattr(twisted, "CELLULAR_TRIPLE_SIGN", -1)
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
    for verdict in ("CELLULAR EXACTNESS FAIL", "SQUARES FAIL", "LES FAIL"):
        assert verdict in lines


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
    collapse = tl.parse_map(open("fixtures/collapse.map").read(), disk, point)
    wrap = tl.parse_map(open("fixtures/wrap.map").read(), C3, C1)
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
    assert m.assignments["T"].degenerate
    bad = dict(a)
    bad["T"] = Assignment("p", (0, 0))
    with pytest.raises(ValidationError):
        SimplicialMap("bad", D, P, bad)


def test_sphere2_rank2_rational_dims():
    K = load_complex("sphere2")
    C = tl.chain_complex(K, tl.constant_system(K, 2, tl.Q))
    assert [C.homology(k).rank for k in range(3)] == [2, 0, 2]


def test_identity_map_induces_identity_matrices():
    K = load_complex("torus")
    G = load_system("torus_ab.sys", K)
    chains, cochains = tl.induced_chain_map(tl.identity_map(K), G)
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
