"""Independent cross-checks of the exact engine.

These avoid the Smith-normal-form code path wherever a classical alternative
characterization exists: determinant divisors for the diagonal, field
dimension counts against integer presentations, and duality between chain and
cochain computations for constant coefficients.
"""

import random
from itertools import combinations
from math import gcd

import twistlab as tl
from twistlab.homology import ChainMapData
from twistlab.matrices import Matrix, determinant, smith_normal_form

from conftest import (
    ALL_COMPLEXES,
    fixture_text,
    load_complex,
    load_subcomplex,
    load_system,
    random_flat_system,
)


def minor_gcd(A, k):
    """gcd of all k x k minors, via brute-force determinant expansion."""
    best = 0
    for rows in combinations(range(A.nrows), k):
        for cols in combinations(range(A.ncols), k):
            sub = A.submatrix(rows, cols)
            best = gcd(best, abs(determinant(sub)))
    return best


def test_snf_diagonal_matches_determinant_divisors():
    rng = random.Random(271828)
    for _ in range(60):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        A = Matrix.from_int_rows(
            tl.Z, [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
        )
        snf = smith_normal_form(A)
        diag = [d for d in snf.diagonal if d != 0]
        prev = 1
        for k in range(1, min(m, n) + 1):
            g = minor_gcd(A, k)
            if k <= len(diag):
                assert g == prev * diag[k - 1], (A.rows, k)
                prev = g
            else:
                assert g == 0


def _field_dim(K, G, ring, k):
    C = tl.chain_complex(K, tl.cast_system(G, ring) if G.ring != ring else G)
    return C.homology(k).rank


def test_field_dimensions_match_integer_presentations():
    # dim_{F_p} H_k = b_k + t_k(p) + t_{k-1}(p), with t_k(p) counting the
    # invariant factors of H_k divisible by p; this exercises only the field
    # elimination on one side and the integer diagonalization on the other.
    rng = random.Random(31415)
    for name in ALL_COMPLEXES:
        K = load_complex(name)
        systems = [tl.constant_system(K, 1, tl.Z), random_flat_system(name, 2, tl.Z, rng)]
        for G in systems:
            CZ = tl.chain_complex(K, G)
            pres = [CZ.homology(k) for k in range(K.dimension + 2)]
            for p in (2, 3, 5):
                Fp = tl.prime_field(p)
                for k in range(K.dimension + 1):
                    t_k = sum(1 for d in pres[k].invariants if d % p == 0)
                    t_prev = (
                        sum(1 for d in pres[k - 1].invariants if d % p == 0)
                        if k > 0
                        else 0
                    )
                    expected = pres[k].rank + t_k + t_prev
                    assert _field_dim(K, G, Fp, k) == expected, (name, G.name, p, k)
                    # rationals see only the free rank
                    assert _field_dim(K, G, tl.Q, k) == pres[k].rank


def test_constant_cohomology_against_homology():
    # For constant integer coefficients the cochain computation must agree
    # with free/torsion bookkeeping from the chain side: H^k has the free rank
    # of H_k and the torsion of H_{k-1}.
    for name in ALL_COMPLEXES:
        K = load_complex(name)
        G = tl.constant_system(K, 1, tl.Z)
        CZ = tl.chain_complex(K, G)
        DZ = tl.cochain_complex(K, G)
        for k in range(K.dimension + 1):
            hk = CZ.homology(k)
            hk1 = CZ.homology(k - 1) if k > 0 else None
            ck = DZ.homology(k)
            assert ck.rank == hk.rank, (name, k)
            assert ck.invariants == (hk1.invariants if hk1 else ()), (name, k)


def test_twisted_circle_cohomology_breaks_naive_duality():
    # with local coefficients there is no universal-coefficient shortcut: the
    # twisted circle puts torsion in H_0 and H^1 instead
    K = load_complex("circle1")
    G = load_system("minus1.sys", K)
    C = tl.chain_complex(K, G)
    D = tl.cochain_complex(K, G)
    assert C.homology(0).invariants == (2,)
    assert D.homology(1).invariants == (2,)
    assert C.homology(1).is_zero and D.homology(0).is_zero


def _assert_group_path_matches(build):
    """group(k) on one fresh complex against homology(k) on another, for
    every degree from one below the complex to one above it."""
    C, D = build(), build()
    span = C.degree_span() or [0]
    for k in range(span[0] - 1, span[-1] + 2):
        g, h = C.group(k), D.homology(k)
        assert g.isomorphic_to(h), (C.label, k, g, h)
        assert g.ambient_dim == h.ambient_dim, (C.label, k)
        assert g.representatives is None
        assert D.group(k) is h


_SUBS = {"disk": "disk_boundary.sub", "torus": "torus_vertex.sub",
         "klein": "klein_circle.sub", "rp2": "rp2_circle.sub"}
_SYSTEM_FILES = {"circle1": "minus1.sys", "torus": "torus_ab.sys",
                 "circle3": "circle3_signs.sys"}


def test_group_path_matches_presented_homology_on_every_fixture():
    # Ranks and invariant factors from the transform-free diagonals against
    # the presentation built from transformed SNFs, absolute and relative.
    rng = random.Random(161803)
    for name in ALL_COMPLEXES:
        K = load_complex(name)
        systems = [tl.constant_system(K, 1, ring)
                   for ring in (tl.Z, tl.Q, tl.prime_field(2), tl.prime_field(5))]
        systems += [random_flat_system(name, 2, ring, rng)
                    for ring in (tl.Z, tl.prime_field(5))]
        if name in _SYSTEM_FILES:
            systems.append(load_system(_SYSTEM_FILES[name], K))
        pair = load_subcomplex(_SUBS[name], K) if name in _SUBS else None
        for G in systems:
            _assert_group_path_matches(lambda: tl.chain_complex(K, G))
            _assert_group_path_matches(lambda: tl.cochain_complex(K, G))
            for direction in ("chain", "cochain") if pair else ():
                _assert_group_path_matches(
                    lambda: tl.relative_complex(pair, G, direction))


def test_group_path_matches_presented_homology_on_mapping_cones():
    rng = random.Random(141421)
    disk, point = load_complex("disk"), load_complex("point")
    C3, C1 = load_complex("circle3"), load_complex("circle1")
    collapse = tl.parse_map(fixture_text("collapse.map"), disk, point)
    wrap = tl.parse_map(fixture_text("wrap.map"), C3, C1)
    maps = []
    for G in (tl.constant_system(C1, 1, tl.Z), load_system("minus1.sys", C1),
              tl.constant_system(C1, 2, tl.prime_field(3)),
              random_flat_system("circle1", 2, tl.Q, rng)):
        maps.extend(tl.induced_chain_map(wrap, G))
    for ring in (tl.Z, tl.prime_field(5)):
        maps.extend(tl.induced_chain_map(collapse, tl.constant_system(point, 2, ring)))
    T = load_complex("torus")
    for K, G in ((T, tl.constant_system(T, 1, tl.Z)), (C1, load_system("minus1.sys", C1))):
        for C in (tl.chain_complex(K, G), tl.cochain_complex(K, G)):
            ranks = {k: C.rank(k) for k in C.degrees()}
            maps.append(ChainMapData(
                "id", C, C, {k: Matrix.identity(tl.Z, r) for k, r in ranks.items()}, 1))
            maps.append(ChainMapData(
                "zero", C, C, {k: Matrix.zeros(tl.Z, r, r) for k, r in ranks.items()}, 1))
    for name in ("rp2", "torus"):
        K = load_complex(name)
        mu = tl.fundamental_class(K, tl.orientation_system(K))
        maps.append(tl.cap_with_fundamental_class(K, tl.constant_system(K, 1, tl.Z), mu))
    for F in maps:
        _assert_group_path_matches(lambda: tl.mapping_cone(F))


def test_group_path_matches_closed_forms_and_presentations_at_scale():
    # T8 and KB8_8 (64 vertices, 192 edges, 128 triangles): the group path
    # against the textbook groups in both directions over Z, Q and F_2, and
    # against presented homology, which costs ten times more, in the chain
    # direction.
    from inputs import closed_form_groups, klein_bottle, kuhn_torus, twisted_system

    for gen in (kuhn_torus(8, 2), klein_bottle(8, 8)):
        K = tl.parse_complex(gen.text())
        for ring in ("Z", "Q", "F2"):
            G = tl.constant_system(K, 1, tl.ring_from_token(ring))
            for cochain in (False, True):
                build = tl.cochain_complex if cochain else tl.chain_complex
                C = build(K, G)
                got = [C.group(k).group_symbol() for k in range(3)]
                assert got == closed_form_groups(gen.kind, 2, ring, cochain), (gen.name, ring)
                if not cochain:
                    _assert_group_path_matches(lambda: build(K, G))
    # Holonomy a quarter turn R around x: H_0 = Z^2 / (R - I) = Z/2 as
    # det(R - I) = 2, H_2 = ker(R - I) = 0, and H_1 = Z/2 by Kunneth.
    gen = kuhn_torus(8, 2)
    K = tl.parse_complex(gen.text())
    G = tl.parse_system(twisted_system(gen, 2, "Z", random.Random(8), "rot").text(), K)
    C = tl.chain_complex(K, G)
    assert [C.group(k).group_symbol() for k in range(3)] == ["Z/2", "Z/2", "0"]
    _assert_group_path_matches(lambda: tl.chain_complex(K, G))
