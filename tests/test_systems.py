import random

import pytest

import twistlab as tl
from twistlab.errors import ParseError, RingMismatchError, ValidationError
from twistlab.maps import Assignment, SimplicialMap

from conftest import (
    ALL_COMPLEXES,
    MANIFOLDS,
    ORIENTABLE,
    cofaces,
    fixture_text,
    front_edge,
    identity_map,
    load_complex,
    load_system,
    random_flat_system,
    random_gauge,
    sign_systems_of,
    subset_face,
    vertex,
)
from inputs import klein_bottle, kuhn_torus


def compose(g: SimplicialMap, f: SimplicialMap) -> SimplicialMap:
    """g after f."""
    if not f.codomain.same_complex(g.domain):
        raise ValidationError("composition domain/codomain mismatch")
    assignments = {}
    for nm in f.domain.all_simplices():
        a = f.assignments[nm]
        b = g.assignments[a.image]
        if a.surjection is None and b.surjection is None:
            assignments[nm] = Assignment(b.image, None)
        elif a.surjection is None:
            assignments[nm] = b
        else:
            if b.surjection is None:
                comp = a.surjection
            else:
                comp = tuple(b.surjection[x] for x in a.surjection)
            if comp == tuple(range(len(comp))):
                assignments[nm] = Assignment(b.image, None)
            else:
                assignments[nm] = Assignment(b.image, comp)
    return SimplicialMap(f"{g.name}*{f.name}", f.domain, g.codomain, assignments)


def test_parse_minus1():
    K = load_complex("circle1")
    G = load_system("minus1.sys", K)
    assert G.rank == 1 and G.ring == tl.Z
    assert G.transport("a").rows == [[-1]]


def test_parse_defaults_to_identity():
    K = load_complex("torus")
    G = tl.parse_system("system c over Z rank 2\n", K)
    for e in K.simplices(1):
        assert G.transport(e) == tl.Matrix.identity(tl.Z, 2)


def test_flatness_violation_names_triangle():
    K = load_complex("torus")
    text = "system bad over Z rank 1\nedge a [[-1]]\n"
    with pytest.raises(ValidationError, match="flatness fails on 2-simplex"):
        tl.parse_system(text, K)


def test_noninvertible_transport_names_edge():
    K = load_complex("circle1")
    with pytest.raises(ValidationError, match="edge 'a'"):
        tl.parse_system("system bad over Z rank 1\nedge a [[2]]\n", K)


@pytest.mark.parametrize("text, message", [
    ("system a over Z rank 1\nsystem b over Q rank 1\nedge a [[1]]\n",
     "line 2: expected a single 'system <name> over <Z|Q|Fp> rank <d>' header"),
    ("system a over Z rank 1\nedge a [[1]]\nsystem b over Z rank 2\nedge b [[1,0];[0,1]]\n",
     "line 3: expected a single 'system <name> over <Z|Q|Fp> rank <d>' header"),
    ("edge a [[1]]\nsystem a over Z rank 1\n", "line 1: edge line before the system header"),
    ("system a over Z rank x\nedge a [[1]]\n", "line 1: bad rank 'x'"),
    ("system a over Z rank -1\nedge a [[1]]\n", "line 1: system rank must be >= 0"),
    ("system a over Z rank -1\n", "line 1: system rank must be >= 0"),
], ids=["second_header", "header_after_edges", "edge_before_header", "bad_rank",
        "negative_rank", "negative_rank_without_edges"])
def test_a_system_takes_exactly_one_header_first(text, message):
    with pytest.raises(ParseError) as got:
        tl.parse_system(text, load_complex("torus"))
    assert str(got.value) == message


@pytest.mark.parametrize("text, message", [
    ("map wrap from circle3 to circle1\nmap other from circle3 to circle1\n",
     "line 2: expected a single 'map <name> from <K> to <L>' header"),
    ("map wrap from circle3 to circle1\nsend v1 v\nmap wrap from circle3 to circle1\n",
     "line 3: expected a single 'map <name> from <K> to <L>' header"),
    ("send v1 v\nmap wrap from circle3 to circle1\n", "line 1: send line before the map header"),
    ("collapse a v 00\nmap wrap from circle3 to circle1\n",
     "line 1: collapse line before the map header"),
], ids=["second_header", "repeated_header", "send_before_header", "collapse_before_header"])
def test_a_map_takes_exactly_one_header_first(text, message):
    with pytest.raises(ParseError) as got:
        tl.parse_map(text, load_complex("circle3"), load_complex("circle1"))
    assert str(got.value) == message


@pytest.mark.parametrize("fixture, domain, codomain, extra, message", [
    ("wrap.map", "circle3", "circle1", "send a a", "line 8: duplicate assignment of 'a'"),
    ("collapse.map", "disk", "point", "collapse a p 00",
     "line 9: duplicate assignment of 'a'"),
    ("collapse.map", "disk", "point", "send T p", "line 9: duplicate assignment of 'T'"),
], ids=["send", "collapse", "send_after_collapse"])
def test_a_map_assigns_each_simplex_once(fixture, domain, codomain, extra, message):
    text = fixture_text(fixture) + extra + "\n"
    with pytest.raises(ParseError) as got:
        tl.parse_map(text, load_complex(domain), load_complex(codomain))
    assert str(got.value) == message


def test_unknown_edge():
    K = load_complex("circle1")
    with pytest.raises(ParseError, match="unknown edge"):
        tl.parse_system("system bad over Z rank 1\nedge zz [[1]]\n", K)


def test_transport_of_an_unknown_edge_names_it():
    G = tl.constant_system(load_complex("torus"), 1, tl.Z)
    with pytest.raises(ValidationError, match="no edge 'nope'"):
        G.transport("nope")


def test_transport_inverse_of_an_unknown_edge_names_it():
    G = tl.constant_system(load_complex("torus"), 1, tl.Z)
    with pytest.raises(ValidationError, match="no edge 'nope'"):
        G.transport_inverse("nope")


def test_transports_are_checked_and_inverted_once_per_distinct_value(rng, monkeypatch):
    from twistlab import systems

    checked, inverted = [], []
    real_check, real_inverse = systems.is_invertible, systems.inverse

    def counting_check(T):
        checked.append(tuple(map(tuple, T.rows)))
        return real_check(T)

    def counting_inverse(T):
        inverted.append(tuple(map(tuple, T.rows)))
        return real_inverse(T)

    cases = [load_system(f, load_complex(name)) for name, f in
             (("circle1", "minus1.sys"), ("circle3", "circle3_signs.sys"), ("torus", "torus_ab.sys"))]
    cases += [tl.constant_system(load_complex("torus"), 2, tl.Z)]
    cases += [random_flat_system(name, 2, ring, rng) for name in ALL_COMPLEXES
              for ring in (tl.Z, tl.Q, tl.prime_field(2), tl.prime_field(5))]
    monkeypatch.setattr(systems, "is_invertible", counting_check)
    monkeypatch.setattr(systems, "inverse", counting_inverse)
    for G in cases:
        edges = G.base.simplices(1)
        distinct = {tuple(map(tuple, G.transport(e).rows)) for e in edges}
        checked.clear()
        H = tl.LocalSystem(G.name, G.base, G.ring, G.rank, G.transports)
        assert sorted(checked) == sorted(distinct), G
        assert not inverted, G
        ident = tl.Matrix.identity(G.ring, G.rank)
        for e in edges:
            assert H.transport(e).mul(H.transport_inverse(e)) == ident, (G, e)
            assert H.transport_inverse(e).mul(H.transport(e)) == ident, (G, e)
        assert sorted(inverted) == sorted(distinct), G
        inverted.clear()


def test_a_repeated_singular_transport_names_its_first_edge():
    K = load_complex("circle3")
    first, second = K.simplices(1)[:2]
    text = f"system bad over Z rank 1\nedge {second} [[2]]\nedge {first} [[2]]\n"
    with pytest.raises(ValidationError, match=f"edge {first!r}"):
        tl.parse_system(text, K)


def test_rational_entries():
    K = load_complex("circle1")
    G = tl.parse_system("system q over Q rank 1\nedge a [[2/3]]\n", K)
    assert G.ring == tl.Q


def test_rank_zero_system():
    K = load_complex("circle1")
    G = tl.constant_system(K, 0, tl.Z)
    C = tl.chain_complex(K, G)
    assert C.rank(0) == 0 and C.rank(1) == 0
    assert C.homology(0).is_zero and C.homology(1).is_zero


def test_pullback_identity_and_collapse():
    K = load_complex("torus")
    G = load_system("torus_ab.sys", K)
    ident = identity_map(K)
    P = tl.pullback_system(ident, G)
    for e in K.simplices(1):
        assert P.transport(e) == G.transport(e)

    disk, point = load_complex("disk"), load_complex("point")
    f = tl.parse_map(fixture_text("collapse.map"), disk, point)
    Gp = tl.constant_system(point, 2, tl.Q)
    back = tl.pullback_system(f, Gp)
    for e in disk.simplices(1):
        assert back.transport(e) == tl.Matrix.identity(tl.Q, 2)


def test_pullback_wrap_gives_minus_one_everywhere():
    C3, C1 = load_complex("circle3"), load_complex("circle1")
    f = tl.parse_map(fixture_text("wrap.map"), C3, C1)
    G = load_system("minus1.sys", C1)
    back = tl.pullback_system(f, G)
    for e in C3.simplices(1):
        assert back.transport(e).rows == [[-1]]


def test_pullback_of_composite_is_composite_of_pullbacks():
    C3, C1 = load_complex("circle3"), load_complex("circle1")
    f = tl.parse_map(fixture_text("wrap.map"), C3, C1)
    ident = identity_map(C1)
    g = compose(ident, f)
    G = load_system("minus1.sys", C1)
    once = tl.pullback_system(g, G)
    twice = tl.pullback_system(f, tl.pullback_system(ident, G))
    for e in C3.simplices(1):
        assert once.transport(e) == twice.transport(e)


def test_tensor_unit_and_signs():
    C1 = load_complex("circle1")
    G = load_system("minus1.sys", C1)
    unit = tl.constant_system(C1, 1, tl.Z)
    assert tl.tensor_systems(G, unit).transport("a") == G.transport("a")
    sq = tl.tensor_systems(G, G)
    assert sq.transport("a").rows == [[1]]
    two = tl.tensor_systems(tl.constant_system(C1, 2, tl.Z), G)
    assert two.rank == 2
    assert two.transport("a") == tl.Matrix.identity(tl.Z, 2).neg()


def test_tensor_mismatch():
    C1, T = load_complex("circle1"), load_complex("torus")
    with pytest.raises(RingMismatchError):
        tl.tensor_systems(tl.constant_system(C1, 1, tl.Z), tl.constant_system(T, 1, tl.Z))
    with pytest.raises(RingMismatchError):
        tl.tensor_systems(
            tl.constant_system(C1, 1, tl.Z), tl.constant_system(C1, 1, tl.Q)
        )


def test_gauge_three_cycle():
    C3 = load_complex("circle3")
    G = tl.constant_system(C3, 1, tl.Z)
    s = tl.Gauge(
        {
            "v1": tl.Matrix.from_int_rows(tl.Z, [[1]]),
            "v2": tl.Matrix.from_int_rows(tl.Z, [[-1]]),
            "v3": tl.Matrix.from_int_rows(tl.Z, [[1]]),
        }
    )
    Gs = tl.gauge_transform(G, s)
    vals = {e: Gs.transport(e).rows[0][0] for e in C3.simplices(1)}
    assert vals == {"a": -1, "b": -1, "c": 1}
    flag, _ = tl.is_trivializable(Gs)
    assert flag


def test_gauge_then_inverse_gauge_restores(rng):
    T = load_complex("torus")
    G = load_system("torus_ab.sys", T)
    s = random_gauge(T, tl.Z, 1, rng)
    from twistlab.matrices import inverse

    sinv = tl.Gauge({v: inverse(m) for v, m in s.matrices.items()})
    back = tl.gauge_transform(tl.gauge_transform(G, s), sinv)
    for e in T.simplices(1):
        assert back.transport(e) == G.transport(e)


def test_identity_gauge_is_noop():
    T = load_complex("torus")
    G = load_system("torus_ab.sys", T)
    s = tl.Gauge({v: tl.Matrix.identity(tl.Z, 1) for v in T.simplices(0)})
    Gs = tl.gauge_transform(G, s)
    for e in T.simplices(1):
        assert Gs.transport(e) == G.transport(e)


def test_orientation_fixture_table():
    for name in MANIFOLDS:
        w = tl.orientation_system(load_complex(name))
        flag, gauge = tl.is_trivializable(w)
        assert flag == ORIENTABLE[name], name
        if flag:
            const = tl.gauge_transform(w, gauge)
            for e in load_complex(name).simplices(1):
                assert const.transport(e).rows == [[1]]


def test_orientation_requires_closed():
    with pytest.raises(ValidationError):
        tl.orientation_system(load_complex("disk"))


def test_is_trivializable_examples():
    C1 = load_complex("circle1")
    flag, gauge = tl.is_trivializable(tl.constant_system(C1, 1, tl.Z))
    assert flag and gauge.at("v").rows == [[1]]
    with pytest.raises(ValidationError, match="'nope'"):
        gauge.at("nope")
    flag2, g2 = tl.is_trivializable(load_system("minus1.sys", C1))
    assert not flag2 and g2 is None

    C3 = load_complex("circle3")
    flag3, _ = tl.is_trivializable(load_system("circle3_signs.sys", C3))
    assert flag3


def test_sign_system_enumeration_counts():
    # circle1: both signs; torus: a,b free with c forced
    assert len(sign_systems_of("circle1")) == 2
    assert len(sign_systems_of("torus")) == 4
    assert len(sign_systems_of("klein")) == 4
    assert len(sign_systems_of("rp2")) == 4
    assert len(sign_systems_of("rp3")) == 4


def test_random_flat_systems_are_flat(rng):
    # flatness is validated inside the constructor; spot-check transports vary
    for name in ["torus", "rp2"]:
        G = random_flat_system(name, 2, tl.Z, rng)
        assert G.rank == 2
        K = load_complex(name)
        f = K.faces(K.simplices(2)[0])
        assert G.transport(f[0]).mul(G.transport(f[2])) == G.transport(f[1])


def test_pullback_base_mismatch():
    C3, C1 = load_complex("circle3"), load_complex("circle1")
    f = tl.parse_map(fixture_text("wrap.map"), C3, C1)
    wrong = tl.constant_system(C3, 1, tl.Z)
    with pytest.raises(RingMismatchError):
        tl.pullback_system(f, wrong)


def _minus1_and_impostor():
    # minus1.sys lives on circle1; circle3 renamed circle1 has edges a, b, c.
    impostor = tl.parse_complex(
        fixture_text("circle3.cx").replace("complex circle3", "complex circle1")
    )
    return load_system("minus1.sys", load_complex("circle1")), impostor


def test_tensor_base_of_the_same_name_is_rejected():
    G, impostor = _minus1_and_impostor()
    with pytest.raises(RingMismatchError):
        tl.tensor_systems(tl.constant_system(impostor, 1, tl.Z), G)


def test_pullback_base_of_the_same_name_is_rejected():
    G, impostor = _minus1_and_impostor()
    with pytest.raises(RingMismatchError):
        tl.pullback_system(identity_map(impostor), G)


def test_compose_through_a_complex_of_the_same_name_is_rejected():
    G, impostor = _minus1_and_impostor()
    with pytest.raises(ValidationError):
        compose(identity_map(G.base), identity_map(impostor))


def test_tensor_of_flat_is_flat_and_rank_multiplies(rng):
    T = load_complex("torus")
    A = random_flat_system("torus", 2, tl.Z, rng)
    B = random_flat_system("torus", 3, tl.Z, rng)
    AB = tl.tensor_systems(A, B)  # constructor re-validates flatness
    assert AB.rank == 6


def quadratic_orientation_signs(K) -> dict:
    """Reference orientation character: each vertex's corners and each edge's
    spanning simplex found by rescanning every top simplex, as a dict of
    edge -> sign."""
    n = K.dimension
    top = K.simplices(n)
    corner_edges = {(s, m): [] for s in top for m in range(n + 1)}
    for f, slots in cofaces(K, n - 1).items():
        (s1, i1), (s2, i2) = slots
        sign = -((-1) ** (i1 + i2))
        for mf in range(n):
            c1 = (s1, mf + 1 if i1 <= mf else mf)
            c2 = (s2, mf + 1 if i2 <= mf else mf)
            corner_edges[c1].append((c2, sign))
            corner_edges[c2].append((c1, sign))
    corner_sign = {}
    for v in K.simplices(0):
        corners = [(s, m) for s in top for m in range(n + 1) if vertex(K, s, m) == v]
        local = {corners[0]: 1}
        queue = [corners[0]]
        while queue:
            cur = queue.pop(0)
            for other, sg in corner_edges[cur]:
                if other not in local:
                    local[other] = local[cur] * sg
                    queue.append(other)
        corner_sign.update(local)
    signs = {}
    for e in K.simplices(1):
        s, a, b = next(
            (s, a, b) for s in top for a in range(n + 1) for b in range(a + 1, n + 1)
            if subset_face(K, s, (a, b)) == e
        )
        signs[e] = corner_sign[(s, a)] * corner_sign[(s, b)]
    return signs


def _generated_orientation_inputs():
    from inputs import klein_bottle, kuhn_torus

    for make, args in ((kuhn_torus, (4, 2)), (klein_bottle, (4, 4)), (kuhn_torus, (2, 3))):
        for seed in range(3):
            G = make(*args)
            G.shuffle(random.Random(f"orientation/{seed}"))
            yield f"{G.name} shuffle {seed}", tl.parse_complex(G.text())


def test_orientation_matches_the_quadratic_scan():
    cases = [(name, load_complex(name)) for name in MANIFOLDS]
    cases += list(_generated_orientation_inputs())
    for label, K in cases:
        w = tl.orientation_system(K)
        got = {e: T.rows for e, T in w.transports.items()}
        assert got == {e: [[x]] for e, x in quadratic_orientation_signs(K).items()}, label


# Reference copies of the searches that pseudomanifold_check, is_trivializable
# and fundamental_class ran before they shared one sign propagation: a
# depth-first search over sorted neighbour sets, a breadth-first search that
# checks every edge afterwards, and a breadth-first search certified by the
# top differential of the whole chain complex.


def reference_pseudomanifold_check(K):
    n = K.dimension
    if n < 0:
        return tl.ManifoldReport(n, False, False, False)
    top = K.simplices(n)
    reached = set(top)
    for k in range(n, 0, -1):
        for nm in K.simplices(k):
            if nm in reached:
                reached.update(K.faces(nm))
    pure = all(nm in reached for nm in K.all_simplices())
    two = True
    adj = {nm: set() for nm in top}
    if n >= 1:
        for slots in cofaces(K, n - 1).values():
            if len(slots) != 2:
                two = False
            if len(slots) == 2:
                a, b = slots[0][0], slots[1][0]
                adj[a].add(b)
                adj[b].add(a)
    connected = bool(top)
    if top:
        seen = {top[0]}
        stack = [top[0]]
        while stack:
            cur = stack.pop()
            for nb in sorted(adj[cur]):
                if nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        connected = len(seen) == len(top)
    return tl.ManifoldReport(n, pure, two, connected)


def reference_is_trivializable(G):
    K = G.base
    s = {}
    edges_at = {v: [] for v in K.simplices(0)}
    for e in K.simplices(1):
        tail, head = K.edge_ends(e)
        edges_at[tail].append(e)
        edges_at[head].append(e)
    for root in K.simplices(0):
        if root in s:
            continue
        s[root] = 1
        queue = [root]
        while queue:
            cur = queue.pop(0)
            for e in edges_at[cur]:
                tail, head = K.edge_ends(e)
                t = G.transport(e).rows[0][0]
                if tail in s and head not in s:
                    s[head] = t * s[tail]
                    queue.append(head)
                elif head in s and tail not in s:
                    s[tail] = t * s[head]
                    queue.append(tail)
    for e in K.simplices(1):
        tail, head = K.edge_ends(e)
        if s[head] != G.transport(e).rows[0][0] * s[tail]:
            return False, None
    return True, tl.Gauge({v: tl.Matrix.from_int_rows(tl.Z, [[s[v]]]) for v in s})


def reference_fundamental_class(K, w):
    if not reference_pseudomanifold_check(K).closed_pseudomanifold or K.dimension < 1:
        raise ValidationError(f"{K.name!r} is not a closed pseudomanifold")
    n = K.dimension
    top = K.simplices(n)
    no_cycle = f"no unit-coefficient cycle on {K.name!r} for system {w.name!r}"

    def coef(simplex, face_index):
        if face_index == 0:
            return w.transport(front_edge(K, simplex)).rows[0][0]
        return -1 if face_index % 2 else 1

    unit = {top[0]: 1}
    queue = [top[0]]
    incident = {s: [] for s in top}
    for (s1, i1), (s2, i2) in cofaces(K, n - 1).values():
        incident[s1].append((s2, coef(s1, i1), coef(s2, i2)))
        incident[s2].append((s1, coef(s2, i2), coef(s1, i1)))
    while queue:
        cur = queue.pop(0)
        for other, c_cur, c_other in incident[cur]:
            want = -c_cur * unit[cur] * c_other
            if other == cur:
                if c_cur != -c_other:
                    raise ValidationError(no_cycle)
                continue
            if other in unit:
                if unit[other] != want:
                    raise ValidationError(no_cycle)
            else:
                unit[other] = want
                queue.append(other)
    if len(unit) != len(top):
        raise ValidationError(f"top simplices of {K.name!r} are not dual-connected")
    C = tl.chain_complex(K, w)
    if any(C.diff(n).mul_vec([unit[nm] for nm in top])):
        raise ValidationError(no_cycle)
    return tl.FundamentalClass(K, w, unit)


def _class_or_error(fundamental_class, K, w):
    try:
        return list(fundamental_class(K, w).coefficients.items())
    except ValidationError as exc:
        return str(exc)


def _gauge_items(result):
    flag, gauge = result
    return flag, None if gauge is None else list(gauge.matrices.items())


def test_sign_propagation_matches_the_reference_loops():
    fixtures = [(name, load_complex(name)) for name in ALL_COMPLEXES]
    manifolds = [(name, load_complex(name)) for name in MANIFOLDS]
    manifolds += list(_generated_orientation_inputs())
    for label, K in fixtures + manifolds:
        assert tl.pseudomanifold_check(K) == reference_pseudomanifold_check(K), label
    systems = [
        (label, K, G)
        for label, K in manifolds
        for G in (tl.orientation_system(K), tl.constant_system(K, 1, tl.Z))
    ]
    systems += [(name, K, G) for name, K in fixtures for G in sign_systems_of(name)]
    for label, K, G in systems:
        where = f"{label} {G.name}"
        assert _gauge_items(tl.is_trivializable(G)) == _gauge_items(
            reference_is_trivializable(G)
        ), where
        assert _class_or_error(tl.fundamental_class, K, G) == _class_or_error(
            reference_fundamental_class, K, G
        ), where


# -- flatness is checked once per distinct triple of transports --------------


def _count_products(monkeypatch):
    calls = []
    mul = tl.Matrix.mul

    def counting(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(tl.Matrix, "mul", counting)
    return calls


def test_a_constant_system_checks_flatness_once(monkeypatch):
    K = tl.parse_complex(kuhn_torus(24, 2).text())
    calls = _count_products(monkeypatch)
    tl.constant_system(K, 1, tl.Z)
    # One triple of transports, (I, I, I), over all 1152 triangles.
    assert (len(K.simplices(2)), len(calls)) == (1152, 1)


def test_an_orientation_system_checks_at_most_eight_triples(monkeypatch):
    K = tl.parse_complex(klein_bottle(12, 12).text())
    calls = _count_products(monkeypatch)
    w = tl.orientation_system(K)
    assert not tl.is_trivializable(w)[0]
    assert 1 <= len(calls) <= 8


def test_tensor_and_cast_share_one_transport_per_value(monkeypatch):
    # w is -1 on some edges of a Klein bottle and +1 on the others, so G (x) w
    # for a constant G takes two values; each is one object shared by its
    # edges, and flatness costs one product per triple of those objects.
    K = tl.parse_complex(klein_bottle(12, 12).text())
    w = tl.orientation_system(K)
    G = tl.constant_system(K, 2, tl.Z)
    calls = _count_products(monkeypatch)
    Gw = tl.tensor_systems(G, w)
    assert 1 <= len(calls) <= 8
    minus = tl.Matrix.identity(tl.Z, 2).neg()
    for e in K.simplices(1):
        assert Gw.transport(e) == (minus if w.transport(e).entry(0, 0) == -1
                                   else tl.Matrix.identity(tl.Z, 2))
    for S in (Gw, tl.cast_system(w, tl.Q), tl.cast_system(Gw, tl.prime_field(3))):
        assert len({id(T) for T in S.transports.values()}) == 2


def test_the_first_non_flat_triangle_is_named_after_flat_ones(monkeypatch):
    # A fan of four triangles T_i = [c, p_i, p_{i+1}].  Only T3 has the edge
    # c -> p4 (its face 1), so -1 there and the shared identity elsewhere
    # leave T0..T2 flat and T3, whose triple differs from theirs in face 1
    # alone, not flat.
    text = ("complex fan\ndim 2\nsimplex 0 c\n"
            + "".join(f"simplex 0 p{i}\n" for i in range(5))
            + "".join(f"simplex 1 s{i} p{i} c\n" for i in range(5))
            + "".join(f"simplex 1 r{i} p{i + 1} p{i}\n" for i in range(4))
            + "".join(f"simplex 2 T{i} r{i} s{i + 1} s{i}\n" for i in range(4)))
    K = tl.parse_complex(text)
    minus = tl.Matrix.from_int_rows(tl.Z, [[-1]])
    calls = _count_products(monkeypatch)
    with pytest.raises(ValidationError) as got:
        tl.LocalSystem("s", K, tl.Z, 1, {"s4": minus})
    assert str(got.value) == "system 's': flatness fails on 2-simplex 'T3'"
    assert len(calls) == 2
