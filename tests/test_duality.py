import dataclasses
import random
from collections import Counter

import pytest

import twistlab as tl
from twistlab.errors import TwistlabError, ValidationError

from conftest import (
    MANIFOLDS,
    fixture_text,
    load_complex,
    load_system,
    random_flat_system,
    range_face,
    sign_systems_of,
    subset_face,
)
from inputs import covering_map_text, klein_bottle, kuhn_torus, twisted_system


def test_fundamental_class_sphere():
    K = load_complex("sphere2")
    w = tl.orientation_system(K)
    mu = tl.fundamental_class(K, w)
    assert set(mu.coefficients.values()) <= {1, -1}
    C = tl.chain_complex(K, w)
    assert all(x == 0 for x in C.diff(2).mul_vec(mu.chain_vector(tl.Z)))


def test_fundamental_class_unique_up_to_sign():
    # flipping the seed sign gives the only other solution; the solver pins +1
    K = load_complex("torus")
    w = tl.orientation_system(K)
    mu = tl.fundamental_class(K, w)
    first = K.simplices(2)[0]
    assert mu.coefficients[first] == 1


def test_fundamental_class_rp2_needs_twist():
    K = load_complex("rp2")
    mu = tl.fundamental_class(K, tl.orientation_system(K))
    assert set(mu.coefficients.values()) <= {1, -1}
    with pytest.raises(ValidationError, match="no unit-coefficient cycle"):
        tl.fundamental_class(K, tl.constant_system(K, 1, tl.Z))


def test_fundamental_class_rejects_a_system_on_another_base():
    # klein has the torus's edge names, so its transports resolve on the torus;
    # the error must name the base, not a failed cycle
    T, Kb = load_complex("torus"), load_complex("klein")
    with pytest.raises(ValidationError, match="lives on 'klein', not 'torus'"):
        tl.fundamental_class(T, tl.orientation_system(Kb))


def test_orientation_and_fundamental_class_make_one_manifold_check(monkeypatch):
    calls = []
    check = tl.complexes._check_pseudomanifold
    monkeypatch.setattr(
        tl.complexes, "_check_pseudomanifold", lambda K: calls.append(K.name) or check(K)
    )
    # A freshly parsed complex: the shared fixtures may hold their report already.
    K = tl.parse_complex(fixture_text("rp2.cx"))
    tl.fundamental_class(K, tl.orientation_system(K))
    assert calls == ["rp2"]
    report = tl.pseudomanifold_check(K)
    assert calls == ["rp2"] and report.closed_pseudomanifold
    with pytest.raises(dataclasses.FrozenInstanceError):
        report.pure = False


def test_fundamental_class_certificate_is_live(monkeypatch):
    # With the propagation's own contradiction test switched off, the boundary
    # sum must still reject the untwisted class of rp2; and no chain complex
    # is built on the way.
    from twistlab import duality, twisted

    calls = []

    def propagate_without_contradictions(root, edges, label):
        calls.append(root)
        label[root] = 1
        queue = [root]
        for a in queue:
            for b, sign in edges[a]:
                if not label[b]:
                    label[b] = sign * label[a]
                    queue.append(b)
        return queue

    builds = []
    build = twisted.TwistedComplex.__init__

    def counting_build(self, *args, **kwargs):
        builds.append(args[0])
        build(self, *args, **kwargs)

    monkeypatch.setattr(duality, "_propagate_signs", propagate_without_contradictions)
    monkeypatch.setattr(twisted.TwistedComplex, "__init__", counting_build)
    K = load_complex("rp2")
    w = tl.orientation_system(K)
    assert set(tl.fundamental_class(K, w).coefficients.values()) <= {1, -1}
    with pytest.raises(ValidationError, match="no unit-coefficient cycle"):
        tl.fundamental_class(K, tl.constant_system(K, 1, tl.Z))
    assert len(calls) == 2
    assert builds == []


def test_cap_with_unit_cochain_is_identity():
    K = load_complex("sphere2")
    ring = tl.Z
    G = tl.constant_system(K, 1, ring)
    H = tl.constant_system(K, 1, ring)
    unit = [ring.one()] * len(K.simplices(0))
    z = [ring.from_int(x) for x in (1, -2, 3, 0)]
    out = tl.cap_product(K, G, H, 0, unit, 2, z)
    assert out == z


def test_cap_evaluation_pairing_on_circle():
    K = load_complex("circle1")
    G = tl.constant_system(K, 1, tl.Z)
    out = tl.cap_product(K, G, G, 1, [1], 1, [1])
    assert out in ([1], [-1])


def test_cap_rank_zero_gives_zero():
    K = load_complex("circle1")
    G0 = tl.constant_system(K, 0, tl.Z)
    H = tl.constant_system(K, 1, tl.Z)
    out = tl.cap_product(K, G0, H, 1, [], 1, [1])
    assert out == []


def test_cap_rejects_a_cochain_or_chain_of_the_wrong_length():
    K = load_complex("torus")
    G = tl.constant_system(K, 1, tl.Z)
    assert len(K.simplices(1)) == 3 and len(K.simplices(2)) == 2
    tl.cap_product(K, G, G, 1, [1, 0, 0], 2, [1, -1])
    for cochain, chain in (([1], [1, -1]), ([1, 0, 0], [1])):
        with pytest.raises(TwistlabError, match="length"):
            tl.cap_product(K, G, G, 1, cochain, 2, chain)


def per_simplex_cap(K, G, H, k, cochain, m, chain):
    """Reference cap product: one walk over the m-simplices per cochain,
    carrying the cochain's value on each back face to the front vertex and
    tensoring it with the chain coefficient."""
    ring = G.ring
    dG, dH = G.rank, H.rank
    out_idx = {nm: i for i, nm in enumerate(K.simplices(m - k))}
    k_idx = {nm: i for i, nm in enumerate(K.simplices(k))}
    out = [ring.zero()] * (len(out_idx) * dG * dH)
    sign = -1 if (k * (m - k)) % 2 else 1
    for si, nm in enumerate(K.simplices(m)):
        u = chain[si * dH : (si + 1) * dH]
        back = k_idx[range_face(K, nm, m - k, m)]
        cval = cochain[back * dG : (back + 1) * dG]
        if m > k:
            cval = G.transport_inverse(subset_face(K, nm, (0, m - k))).mul_vec(cval)
        base = out_idx[range_face(K, nm, 0, m - k)] * dG * dH
        for t, x in enumerate([ring.mul(a, b) for a in cval for b in u]):
            out[base + t] = ring.add(out[base + t], x if sign == 1 else ring.neg(x))
    return out


def _random_entries(ring, n, rng):
    # Half zeros, so whole chain blocks vanish; fractions over Q.
    out = []
    for _ in range(n):
        x = ring.from_int(rng.choice((0, 0, 0, 1, -1, 2, -3)))
        out.append(ring.exact_div(x, ring.from_int(rng.randint(1, 3))) if ring == tl.Q else x)
    return out


@pytest.mark.parametrize("ring", [tl.Z, tl.Q, tl.prime_field(5)], ids=str)
def test_cap_matches_the_per_simplex_reference(ring, rng):
    for name in MANIFOLDS:
        K = load_complex(name)
        n = K.dimension
        mu = tl.fundamental_class(K, tl.orientation_system(K))
        w = tl.cast_system(mu.system, ring)
        zvec = mu.chain_vector(ring)
        for rank in (1, 2):
            G = random_flat_system(name, rank, ring, rng)
            H = random_flat_system(name, 3 - rank, ring, rng)
            for k in range(n + 1):
                for m in range(k, n + 1):
                    c = _random_entries(ring, len(K.simplices(k)) * G.rank, rng)
                    z = _random_entries(ring, len(K.simplices(m)) * H.rank, rng)
                    assert tl.cap_product(K, G, H, k, c, m, z) == per_simplex_cap(
                        K, G, H, k, c, m, z
                    ), (name, rank, k, m)
            cap = tl.cap_with_fundamental_class(K, G, mu)
            for j in range(n + 1):
                width = len(K.simplices(n - j)) * rank
                cols = []
                for col in range(width):
                    unit = [ring.zero()] * width
                    unit[col] = ring.one()
                    cols.append(per_simplex_cap(K, G, w, n - j, unit, n, zvec))
                mat = cap.matrix(j)
                assert (mat.nrows, mat.ncols) == (len(K.simplices(j)) * rank, width)
                assert mat.rows == [[c[i] for c in cols] for i in range(mat.nrows)], (
                    name, rank, j,
                )


def test_system_on_a_different_complex_of_the_same_name_is_rejected():
    G = load_system("minus1.sys", load_complex("circle1"))
    impostor = tl.parse_complex(
        fixture_text("circle3.cx").replace("complex circle3", "complex circle1")
    )
    with pytest.raises(ValidationError):
        tl.chain_complex(impostor, G)
    with pytest.raises(ValidationError):
        tl.cap_product(impostor, G, G, 0, [1, 1, 1], 1, [1, 1, 1])


def _random_vec(ring, n, rng):
    return [ring.from_int(rng.randint(-3, 3)) for _ in range(n)]


# Calibrated Leibniz signs of the cap product: s1 is degree-independent, s2
# depends only on the cochain degree k.
CAP_LEIBNIZ_S1 = -1


def cap_leibniz_s2(k: int) -> int:
    return -1 if k % 2 else 1


def test_cap_leibniz_calibrated_signs(rng):
    # d(c cap z) = s1 (dc cap z) + s2(k) (c cap dz) across fixtures and twists
    for name in ["sphere2", "torus", "klein", "rp2", "rp3"]:
        K = load_complex(name)
        n = K.dimension
        for G, H in [
            (tl.constant_system(K, 1, tl.Z), tl.constant_system(K, 1, tl.Z)),
            (random_flat_system(name, 1, tl.Z, rng), random_flat_system(name, 1, tl.Z, rng)),
            (random_flat_system(name, 2, tl.Z, rng), random_flat_system(name, 1, tl.Z, rng)),
        ]:
            GH = tl.tensor_systems(G, H)
            co = tl.cochain_complex(K, G)
            chH = tl.chain_complex(K, H)
            chGH = tl.chain_complex(K, GH)
            for k in range(0, n):
                for m in range(k + 1, n + 1):
                    c = _random_vec(tl.Z, co.rank(k), rng)
                    z = _random_vec(tl.Z, chH.rank(m), rng)
                    lhs = chGH.diff(m - k).mul_vec(
                        tl.cap_product(K, G, H, k, c, m, z)
                    )
                    dc = co.diff(k).mul_vec(c)
                    dz = chH.diff(m).mul_vec(z)
                    t1 = tl.cap_product(K, G, H, k + 1, dc, m, z)
                    t2 = tl.cap_product(K, G, H, k, c, m - 1, dz)
                    s2 = cap_leibniz_s2(k)
                    rhs = [
                        CAP_LEIBNIZ_S1 * a + s2 * b for a, b in zip(t1, t2)
                    ]
                    assert lhs == rhs, (name, k, m)


def test_cap_chain_map_anticommutes():
    K = load_complex("torus")
    G = tl.constant_system(K, 1, tl.Z)
    mu = tl.fundamental_class(K, tl.orientation_system(K))
    cap = tl.cap_with_fundamental_class(K, G, mu)
    assert cap.sign == -1  # verified at construction


def test_circle_duality_matrices():
    K = load_complex("circle1")
    G = tl.constant_system(K, 1, tl.Z)
    mu = tl.fundamental_class(K, tl.orientation_system(K))
    cap = tl.cap_with_fundamental_class(K, G, mu)
    for j in (0, 1):
        m = tl.induced_map_on_homology(cap, j)
        assert m.rows in ([[1]], [[-1]])


def test_torus_h1_duality_determinant():
    K = load_complex("torus")
    G = tl.constant_system(K, 1, tl.Z)
    mu = tl.fundamental_class(K, tl.orientation_system(K))
    cap = tl.cap_with_fundamental_class(K, G, mu)
    m = tl.induced_map_on_homology(cap, 1)
    from twistlab.matrices import determinant

    assert abs(determinant(m)) == 1


def test_duality_reports_headline_instances():
    rp2 = load_complex("rp2")
    rep = tl.duality_report(rp2, tl.constant_system(rp2, 1, tl.Z))
    assert rep.ok
    by_deg = {d.degree: d for d in rep.degrees}
    assert by_deg[2].cohomology.group_symbol() == "Z/2"
    assert by_deg[2].homology.group_symbol() == "Z/2"
    assert by_deg[0].cohomology.group_symbol() == "Z"
    assert by_deg[0].homology.group_symbol() == "Z"

    torus = load_complex("torus")
    rep2 = tl.duality_report(torus, load_system("torus_ab.sys", torus))
    assert rep2.ok
    groups = [d.cohomology.group_symbol() for d in rep2.degrees]
    assert groups == ["0", "Z/2", "Z/2"]


def test_duality_rank2_f5():
    K = load_complex("rp3")
    rep = tl.duality_report(K, tl.constant_system(K, 2, tl.prime_field(5)))
    assert rep.ok


def test_duality_orientable_reading():
    for name in ["sphere2", "torus", "rp3"]:
        K = load_complex(name)
        rep = tl.duality_report(K, tl.constant_system(K, 1, tl.Z))
        assert rep.orientation_trivializable
        assert rep.orientable_reading_agrees
    rep = tl.duality_report(load_complex("klein"),
                            tl.constant_system(load_complex("klein"), 1, tl.Z))
    assert not rep.orientation_trivializable
    assert rep.orientable_reading_agrees is None


def test_duality_checks_each_differential_once(monkeypatch):
    checked = []
    real = tl.FreeComplex.assert_squares_zero

    def recording(C):
        checked.append(C)  # holding C keeps the ids of its matrices unique
        return real(C)

    monkeypatch.setattr(tl.FreeComplex, "assert_squares_zero", recording)
    for name in MANIFOLDS:
        K = load_complex(name)
        for ring in (tl.Z, tl.prime_field(2)):
            checked.clear()
            assert tl.duality_report(K, tl.constant_system(K, 2, ring)).ok
            checks = Counter(id(d) for C in checked for d in C._diffs.values())
            assert max(checks.values()) == 1, (name, ring)


def test_duality_builds_each_twisted_complex_once(monkeypatch):
    # Keyed on content, as the benchmark counts duplicate builds: when w is +1
    # on every edge (the circles, torus, rp3) the cap target is the chain
    # complex of G.
    built = []
    real = tl.TwistedComplex.__init__

    def recording(self, label, base, system, direction, keep):
        transports = tuple((e, tuple(map(tuple, T.rows)))
                           for e, T in sorted(system.transports.items()))
        built.append((transports, direction, keep))
        real(self, label, base, system, direction, keep)

    monkeypatch.setattr(tl.TwistedComplex, "__init__", recording)
    for name in MANIFOLDS:
        K = load_complex(name)
        for G in (tl.constant_system(K, 1, tl.Z), tl.constant_system(K, 2, tl.Q)):
            built.clear()
            rep = tl.duality_report(K, G)
            assert rep.ok and rep.orientable_reading_agrees is not False
            assert len(built) == len(set(built)), (name, G.name)


def test_duality_sign_system_grid():
    for name in MANIFOLDS:
        K = load_complex(name)
        for s in sign_systems_of(name):
            rep = tl.duality_report(K, s)
            assert rep.ok, (name, s.name)


def test_cap_naturality_under_rotation():
    # orientation-preserving self-map cyclically permuting the edges of a
    # cyclically oriented triangle circle: rot_* . cap . rot^# = cap
    from twistlab.homology import maps_equal_mod

    text = (
        "complex cycle3\ndim 1\n"
        "simplex 0 v1\nsimplex 0 v2\nsimplex 0 v3\n"
        "simplex 1 a v2 v1\nsimplex 1 b v3 v2\nsimplex 1 c v1 v3\n"
    )
    C = tl.parse_complex(text)
    rot = tl.parse_map(
        "map rot from cycle3 to cycle3\n"
        "send v1 v2\nsend v2 v3\nsend v3 v1\n"
        "send a b\nsend b c\nsend c a\n",
        C,
        C,
    )
    G = tl.constant_system(C, 1, tl.Z)
    w = tl.orientation_system(C)
    mu = tl.fundamental_class(C, w)
    # the rotation carries the fundamental cycle to itself on the nose
    rotated = {rot.assignments[nm].image: v for nm, v in mu.coefficients.items()}
    assert rotated == mu.coefficients
    cap = tl.cap_with_fundamental_class(C, G, mu)
    chains, cochains = tl.induced_chain_map(rot, tl.tensor_systems(G, tl.cast_system(w, tl.Z)))
    _, co_g = tl.induced_chain_map(rot, G)
    for j in (0, 1):
        k = 1 - j
        lhs = (
            tl.induced_map_on_homology(chains, j)
            .mul(tl.induced_map_on_homology(cap, j))
            .mul(tl.induced_map_on_homology(co_g, k))
        )
        rhs = tl.induced_map_on_homology(cap, j)
        assert maps_equal_mod(cap.target.homology(j), lhs, rhs), j


def test_fundamental_class_precondition():
    with pytest.raises(ValidationError):
        tl.fundamental_class(load_complex("disk"),
                             tl.constant_system(load_complex("disk"), 1, tl.Z))


def test_cap_map_rank_zero_system():
    K = load_complex("circle1")
    G0 = tl.constant_system(K, 0, tl.Z)
    mu = tl.fundamental_class(K, tl.orientation_system(K))
    cap = tl.cap_with_fundamental_class(K, G0, mu)
    assert cap.sign == -1
    for j in (0, 1):
        assert cap.matrix(j).nrows == 0 and cap.matrix(j).ncols == 0
    assert tl.is_quasi_iso(cap)  # zero complexes on both sides


def test_fundamental_class_solution_space_rank_one():
    # exhaust all +-1 coefficient patterns: exactly the two global signs work
    from itertools import product as iproduct

    for name in ["sphere2", "torus", "klein", "rp2", "rp3"]:
        K = load_complex(name)
        w = tl.orientation_system(K)
        C = tl.chain_complex(K, w)
        n = K.dimension
        top = K.simplices(n)
        solutions = []
        for signs in iproduct((1, -1), repeat=len(top)):
            vec = [tl.Z.from_int(s) for s in signs]
            if all(x == 0 for x in C.diff(n).mul_vec(vec)):
                solutions.append(signs)
        assert len(solutions) == 2, name
        assert solutions[0] == tuple(-s for s in solutions[1])


def test_systems_on_a_reordered_copy_are_read_by_edge_name():
    # same_complex accepts a system whose base lists K's simplices in another
    # order; its transports must still meet K's edges by name, not by position.
    gen = klein_bottle(4, 3)
    K = tl.parse_complex(gen.text())
    text = twisted_system(gen, 2, "Z", random.Random(7), "g").text()
    gen.shuffle(random.Random(7))
    K2 = tl.parse_complex(gen.text())
    assert K.same_complex(K2) and K.simplices(1) != K2.simplices(1)
    G, G2 = tl.parse_system(text, K), tl.parse_system(text, K2)
    w = tl.orientation_system(K)
    w2 = tl.LocalSystem(w.name, K2, tl.Z, 1, w.transports)
    for build in (tl.chain_complex, tl.cochain_complex):
        C, C2 = build(K, G), build(K, G2)
        assert all(C.diff(k) == C2.diff(k) for k in range(-1, 3))
    mu, mu2 = tl.fundamental_class(K, w), tl.fundamental_class(K, w2)
    assert mu.coefficients == mu2.coefficients
    cap, cap2 = (tl.cap_with_fundamental_class(K, S, mu) for S in (G, G2))
    assert all(cap.matrix(j) == cap2.matrix(j) for j in range(3))
    # Both long exact sequences of K and its meridian, whose positions are K's.
    P = tl.subcomplex(K, gen.meridian)
    for variant in ("homology", "cohomology"):
        les, les2 = (tl.assemble_les(P, S, variant) for S in (G, G2))
        assert les.presentations() == les2.presentations() and les.maps == les2.maps
        assert les.exactness().all_exact
    # The cover T4 -> T2 with a system on a reordered copy of T2: the pullback
    # and the induced maps cross to it by edge name.
    big, small = kuhn_torus(4, 2), kuhn_torus(2, 2)
    D, C = tl.parse_complex(big.text()), tl.parse_complex(small.text())
    f = tl.parse_map(covering_map_text(big, small), D, C)
    text = twisted_system(small, 2, "Z", random.Random(7), "h").text()
    small.shuffle(random.Random(7))
    C2 = tl.parse_complex(small.text())
    assert C.same_complex(C2) and C.simplices(1) != C2.simplices(1)
    H, H2 = tl.parse_system(text, C), tl.parse_system(text, C2)
    assert tl.pullback_system(f, H).transports == tl.pullback_system(f, H2).transports
    for ind, ind2 in zip(tl.induced_chain_map(f, H), tl.induced_chain_map(f, H2)):
        assert ind.source.homology(1) == ind2.source.homology(1)
        for k in range(3):
            assert ind.matrix(k) == ind2.matrix(k)
            assert tl.induced_map_on_homology(ind, k) == tl.induced_map_on_homology(ind2, k)
