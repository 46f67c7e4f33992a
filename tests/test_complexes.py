import pytest

import twistlab as tl
from twistlab.errors import CapacityError, ParseError, ValidationError

from conftest import ALL_COMPLEXES, MANIFOLDS, fixture_text, load_complex


def test_parse_circle1():
    K = load_complex("circle1")
    assert K.counts() == (1, 1)
    assert K.edge_ends("a") == ("v", "v")


def test_parse_torus_counts():
    K = load_complex("torus")
    assert K.counts() == (1, 3, 2)
    assert tl.validate_complex(K).ok


def test_faces_of_an_unknown_simplex_names_it():
    with pytest.raises(ValidationError, match="no simplex 'nope'"):
        load_complex("torus").faces("nope")


@pytest.mark.parametrize("call, message", [
    (lambda K: K.dim_of("nope"), "no simplex 'nope'"),
    (lambda K: K.face("nope", 0), "no simplex 'nope'"),
    (lambda K: K.index_of("nope"), "no simplex 'nope'"),
    (lambda K: K.range_face("nope", 0, 0), "no simplex 'nope'"),
    (lambda K: K.subset_face("nope", (0,)), "no simplex 'nope'"),
    (lambda K: K.vertex("nope", 0), "no simplex 'nope'"),
    (lambda K: K.vertices("nope"), "no simplex 'nope'"),
    (lambda K: K.front_edge("nope"), "no simplex 'nope'"),
    (lambda K: K.face("U", 7), "simplex 'U' of complex 'torus' has no face 7"),
], ids=["dim_of", "face", "index_of", "range_face", "subset_face", "vertex",
        "vertices", "front_edge", "face_index"])
def test_accessors_name_a_missing_simplex_or_face(call, message):
    with pytest.raises(ValidationError, match=message):
        call(load_complex("torus"))


def test_unknown_face_reference():
    text = "complex bad\ndim 1\nsimplex 0 v\nsimplex 1 a v q\n"
    with pytest.raises(ValidationError, match="unknown face 'q'"):
        tl.parse_complex(text)


def test_syntax_error_carries_line_number():
    text = "complex bad\ndim 1\nsimplex x\n"
    with pytest.raises(ParseError, match="line 3"):
        tl.parse_complex(text)


def test_face_identity_violation_names_simplex():
    with pytest.raises(ValidationError, match="face identity fails on 'T'"):
        tl.parse_complex(fixture_text("broken.cx"))


def test_validate_reports_every_fixture_clean():
    for name in ALL_COMPLEXES:
        assert tl.validate_complex(load_complex(name)).ok, name


def test_validate_face_identity_exhaustive():
    for name in ALL_COMPLEXES:
        K = load_complex(name)
        for k in range(2, K.dimension + 1):
            for nm in K.simplices(k):
                for j in range(1, k + 1):
                    for i in range(j):
                        assert K.face(K.face(nm, j), i) == K.face(K.face(nm, i), j - 1)


def test_vertex_table():
    K = load_complex("disk")
    assert K.vertices("T") == ("u", "v", "w")
    assert K.vertices("a") == ("v", "w")
    assert K.front_edge("T") == "c"
    assert K.subset_face("T", (0, 2)) == "b"


def test_dimension_cap():
    text = "complex big\ndim 9\n"
    with pytest.raises(CapacityError):
        tl.parse_complex(text)


def test_subcomplex_closure():
    D = load_complex("disk")
    P = tl.subcomplex(D, ["a", "b", "c"])
    assert set(P.members) == {"a", "b", "c", "u", "v", "w"}
    assert P.closure_added
    # idempotent
    P2 = tl.subcomplex(D, P.members)
    assert set(P2.members) == set(P.members)
    assert not P2.closure_added


def test_subcomplex_empty_and_unknown():
    K = load_complex("torus")
    assert tl.subcomplex(K, []).members == ()
    with pytest.raises(ValidationError):
        tl.subcomplex(K, ["nope"])
    P = tl.subcomplex(K, ["a"])
    assert set(P.members) == {"a", "v"}


def test_face_closedness_always():
    K = load_complex("rp3")
    P = tl.subcomplex(K, ["t2"])
    members = set(P.members)
    for nm in P.members:
        for f in K.faces(nm):
            assert f in members


def test_pseudomanifold_fixtures():
    for name in MANIFOLDS:
        rep = tl.pseudomanifold_check(load_complex(name))
        assert rep.closed_pseudomanifold, name
    disk = tl.pseudomanifold_check(load_complex("disk"))
    assert not disk.closed_pseudomanifold
    assert disk.pure and not disk.two_cofaces


def test_sphere2_manifold_report():
    rep = tl.pseudomanifold_check(load_complex("sphere2"))
    assert rep.dimension == 2
    assert rep.closed_pseudomanifold


def test_disjoint_union_of_circles():
    text = (
        "complex two_circles\ndim 1\n"
        "simplex 0 v\nsimplex 0 w\n"
        "simplex 1 a v v\nsimplex 1 b w w\n"
    )
    K = tl.parse_complex(text)
    rep = tl.pseudomanifold_check(K)
    assert rep.two_cofaces and rep.pure
    assert not rep.dual_connected
    assert not rep.closed_pseudomanifold
    # euler characteristic is additive over disjoint union
    assert tl.euler_characteristic(K) == 2 * tl.euler_characteristic(load_complex("circle1"))


def test_euler_characteristic_values():
    assert tl.euler_characteristic(load_complex("sphere2")) == 2
    assert tl.euler_characteristic(load_complex("torus")) == 0
    assert tl.euler_characteristic(load_complex("rp2")) == 1
    assert tl.euler_characteristic(load_complex("rp3")) == 0


def test_skeleton_pair_and_materialization():
    from twistlab.complexes import skeleton_pair, subcomplex_as_complex

    K = load_complex("sphere2")
    P = skeleton_pair(K, 1)
    assert all(K.dim_of(nm) <= 1 for nm in P.members)
    sub = subcomplex_as_complex(P, "skel1")
    assert sub.counts() == (4, 6)


def test_validate_report_names_offending_simplex():
    entries = [
        (0, "x", ()),
        (0, "y", ()),
        (0, "z", ()),
        (1, "e1", ("y", "x")),
        (1, "e2", ("z", "x")),
        (1, "e3", ("z", "y")),
        (2, "T", ("e1", "e2", "e3")),
    ]
    K = tl.build_complex("bad", entries)
    report = tl.validate_complex(K)
    assert not report.ok
    assert all("'T'" in v for v in report.violations)
