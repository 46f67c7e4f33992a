import ast
import random
from dataclasses import dataclass
from itertools import chain, combinations
from pathlib import Path

import pytest

import twistlab as tl
from twistlab import complexes
from twistlab.complexes import face_path
from twistlab.errors import CapacityError, ParseError, TwistlabError, ValidationError

from conftest import (
    ALL_COMPLEXES,
    FIXTURES,
    MANIFOLDS,
    ROOT,
    build_complex,
    cofaces,
    fixture_text,
    load_complex,
    range_face,
    skeleton_pair,
    subcomplex_as_complex,
    subset_face,
)
from inputs import klein_bottle, kuhn_torus

MALFORMED = Path(__file__).resolve().parent / "malformed"


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
    # The next five walk the paths of the per-simplex walks they are named after.
    (lambda K: K.faces_along(["nope"], face_path(2, (1, 2))), "no simplex 'nope'"),
    (lambda K: K.faces_along(["nope"], face_path(2, (0, 2))), "no simplex 'nope'"),
    (lambda K: K.faces_along(["nope"], face_path(2, (0,))), "no simplex 'nope'"),
    (lambda K: [K.faces_along(["nope"], face_path(2, (m,))) for m in range(3)],
     "no simplex 'nope'"),
    (lambda K: K.faces_along(["nope"], face_path(2, (0, 1))), "no simplex 'nope'"),
    (lambda K: K.face("U", 7), "simplex 'U' of complex 'torus' has no face 7"),
    (lambda K: K.face("U", -1), "simplex 'U' of complex 'torus' has no face -1"),
    (lambda K: K.edge_ends("nope"), "no simplex 'nope'"),
    (lambda K: K.edge_ends("U"), "simplex 'U' of complex 'torus' is not an edge"),
    (lambda K: K.edge_ends("v"), "simplex 'v' of complex 'torus' is not an edge"),
    (lambda K: K.faces_along(["U", "nope"], (0,)), "no simplex 'nope'"),
    (lambda K: K.faces_along(["L", "U"], (5,)), "simplex 'L' of complex 'torus' has no face 5"),
    (lambda K: K.faces_along(K.simplices(0), (0,)),
     "simplex 'v' of complex 'torus' has no face 0"),
    (lambda K: K.faces_along(["U"], (2, 0, 0)), "simplex 'v' of complex 'torus' has no face 0"),
    (lambda K: K.faces_along(["U"], (-1,)), "simplex 'U' of complex 'torus' has no face -1"),
    (lambda K: K.faces_along(["U", "nope"], ()), "no simplex 'nope'"),
], ids=["dim_of", "face", "index_of", "range_face", "subset_face", "vertex",
        "vertices", "front_edge", "face_index", "negative_face_index", "edge_ends",
        "edge_ends_of_a_triangle", "edge_ends_of_a_vertex", "faces_along",
        "faces_along_face_index", "faces_along_of_a_vertex", "faces_along_past_a_vertex",
        "faces_along_negative_face_index", "faces_along_empty_path"])
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
    assert [K.faces_along(["T"], face_path(2, (m,))) for m in range(3)] == [["u"], ["v"], ["w"]]
    assert [K.faces_along(["a"], face_path(1, (m,))) for m in range(2)] == [["v"], ["w"]]
    assert K.faces_along(["T"], face_path(2, (0, 1))) == ["c"]
    assert K.faces_along(["T"], face_path(2, (0, 2))) == ["b"]


@pytest.mark.parametrize("keep", [(0, 5), (-1, 1), (3,), ()],
                         ids=["index_5", "index_-1", "index_3", "empty"])
def test_subset_face_rejects_bad_vertex_indices(keep):
    # The reference walk checks its vertex indices; U is a triangle, so they
    # are 0, 1 and 2.
    with pytest.raises(TwistlabError, match=r"bad vertex indices .* on 'U'"):
        subset_face(load_complex("torus"), "U", keep)


def _walk_complexes():
    yield from ((name, load_complex(name)) for name in ALL_COMPLEXES)
    # n = 1 and 2 repeat vertices inside a simplex.
    for G in (kuhn_torus(1, 2), kuhn_torus(3, 2), klein_bottle(3, 3), kuhn_torus(1, 3),
              kuhn_torus(2, 3)):
        G.shuffle(random.Random(G.name))
        yield G.name, tl.parse_complex(G.text())


def _walk_mismatches(walk):
    """The (complex, d, keep) cases, over every d >= 1 and every nonempty keep,
    where walk(K, the d-simplices, face_path(d, keep)) is not the per-simplex
    walk's answer: subset_face, and range_face too where keep is a range."""
    bad = []
    for label, K in _walk_complexes():
        for d in range(1, K.dimension + 1):
            level = K.simplices(d)
            for keep in chain.from_iterable(combinations(range(d + 1), r)
                                            for r in range(1, d + 2)):
                wants = [[subset_face(K, nm, keep) for nm in level]]
                if keep == tuple(range(keep[0], keep[-1] + 1)):
                    wants.append([range_face(K, nm, keep[0], keep[-1]) for nm in level])
                try:
                    got = walk(K, level, face_path(d, keep))
                except ValidationError:
                    got = None
                if any(got != want for want in wants):
                    bad.append((label, d, keep))
    return bad


def test_faces_along_matches_the_per_simplex_walks():
    assert _walk_mismatches(lambda K, names, path: K.faces_along(names, path)) == []


@pytest.mark.parametrize("walk", [
    lambda K, names, path: K.faces_along(names, path[::-1]),
    lambda K, names, path: K.faces_along(names, path[:-1]),
], ids=["reversed_path", "last_step_dropped"])
def test_the_walk_comparison_catches_a_wrong_walk(walk):
    assert _walk_mismatches(walk)


def test_only_complexes_reads_the_face_tables():
    tables = {"_faces", "_index", "_by_dim", "_cofaces"}
    readers = set()
    for path in sorted((ROOT / "src" / "twistlab").glob("*.py")):
        if path.name == "complexes.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in tables:
                readers.add(f"{path.name}:{node.lineno} .{node.attr}")
    assert not readers, sorted(readers)


def test_coface_table_runs_the_check_it_needs():
    for name in MANIFOLDS:
        text = fixture_text(f"{name}.cx")
        checked = tl.parse_complex(text)
        tl.pseudomanifold_check(checked)
        assert tl.parse_complex(text).coface_table() == checked._cofaces, name
    assert tl.parse_complex("complex e\ndim 0\n").coface_table() == ([], [], [])


def test_build_complex_says_a_vertex_takes_no_faces():
    with pytest.raises(ValidationError, match="vertex 'v' takes no faces"):
        build_complex("x", [(0, "v", ("w",))])
    # parse_complex stops at the line instead.
    with pytest.raises(ParseError, match="line 4: vertices take no faces"):
        tl.parse_complex("complex x\ndim 0\nsimplex 0 w\nsimplex 0 v w\n")


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


@pytest.mark.parametrize("text, message", [
    ("member v\n", "line 1: member line before the sub header"),
    ("sub a\nmember v\nsub b\n", "line 3: expected a single 'sub <name>' header"),
    ("# nothing\n", "missing 'sub <name>' header"),
], ids=["no_header", "second_header", "empty"])
def test_a_subcomplex_takes_exactly_one_header_first(text, message):
    with pytest.raises(ParseError) as got:
        tl.parse_subcomplex(text, load_complex("torus"))
    assert str(got.value) == message


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
    K = build_complex("bad", entries)
    report = tl.validate_complex(K)
    assert not report.ok
    assert all("'T'" in v for v in report.violations)


# -- reference: one Simplex object per simplex, as DeltaComplex stored them ----
#
# DeltaComplex holds face tables filled in one pass.  These are the
# Simplex-based build, storage, face-identity check, parser and purity and
# dual-connectivity walks that the tables replaced, kept only as references.


@dataclass(frozen=True)
class RefSimplex:
    name: str
    dim: int
    faces: tuple[str, ...]


class RefComplex:
    def __init__(self, name, simplices):
        self.name = name
        self._simplices = {}
        by_dim = {}
        for s in simplices:
            if s.name in self._simplices:
                raise ValidationError(f"duplicate simplex name {s.name!r}")
            self._simplices[s.name] = s
            by_dim.setdefault(s.dim, []).append(s.name)
        self._by_dim = {k: tuple(v) for k, v in by_dim.items()}
        self.dimension = max(self._by_dim) if self._by_dim else -1
        self._index = {
            nm: i for k in self._by_dim for i, nm in enumerate(self._by_dim[k])
        }

    def simplices(self, k):
        return self._by_dim.get(k, ())

    def all_simplices(self):
        for k in sorted(self._by_dim):
            yield from self._by_dim[k]

    def same_complex(self, other):
        return self is other or self._simplices == other._simplices

    def dim_of(self, name):
        return self._simplices[name].dim

    def faces(self, name):
        return self._simplices[name].faces

    def face(self, name, i):
        return self._simplices[name].faces[i]

    def index_of(self, name):
        return self._index[name]

    def counts(self):
        return tuple(len(self.simplices(k)) for k in range(self.dimension + 1))

    def cofaces(self, k):
        out = {nm: [] for nm in self.simplices(k)}
        for nm in self.simplices(k + 1):
            for i, f in enumerate(self.faces(nm)):
                out[f].append((nm, i))
        return out


def ref_build_complex(name, entries):
    simplices = []
    seen = {}
    for dim, nm, faces in entries:
        if dim < 0:
            raise ValidationError(f"negative dimension for {nm!r}")
        if dim > complexes.MAX_DIMENSION:
            raise CapacityError(
                f"simplex {nm!r} has dimension {dim} > cap {complexes.MAX_DIMENSION}"
            )
        if len(faces) != (dim + 1 if dim >= 1 else 0):
            raise ValidationError(f"simplex {nm!r} needs {dim + 1} faces")
        for f in faces:
            if seen.get(f) != dim - 1:
                raise ValidationError(f"unknown face {f!r} of simplex {nm!r}")
        if nm in seen:
            raise ValidationError(f"duplicate simplex name {nm!r}")
        seen[nm] = dim
        simplices.append(RefSimplex(nm, dim, tuple(faces)))
        if len(simplices) > complexes.MAX_SIMPLICES:
            raise CapacityError(f"more than {complexes.MAX_SIMPLICES} simplices")
    return RefComplex(name, simplices)


def ref_violations(K):
    out = []
    for k in range(2, K.dimension + 1):
        for nm in K.simplices(k):
            faces = K.faces(nm)
            for j in range(1, k + 1):
                for i in range(j):
                    left = K.face(faces[j], i)
                    right = K.face(faces[i], j - 1)
                    if left != right:
                        out.append(
                            f"face identity fails on {nm!r} at (i={i}, j={j}): "
                            f"face_{i}(face_{j}) = {left!r} but "
                            f"face_{j - 1}(face_{i}) = {right!r}"
                        )
    return out


def ref_manifold_report(K):
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
        for slots in K.cofaces(n - 1).values():
            if len(slots) != 2:
                two = False
                continue
            a, b = slots[0][0], slots[1][0]
            adj[a].add(b)
            adj[b].add(a)
    # Depth first from the last top simplex: a walk of its own, not the library's.
    seen = set(top[-1:])
    stack = list(seen)
    while stack:
        for nb in adj[stack.pop()] - seen:
            seen.add(nb)
            stack.append(nb)
    connected = bool(top) and len(seen) == len(top)
    return tl.ManifoldReport(n, pure, two, connected)


def assert_same_coface_table(K, R):
    """K's coface table, built by its pseudomanifold check, holds the first two
    slots and the slot count of each (n-1)-simplex in R's cofaces, by position."""
    n = R.dimension
    first, second, count = K._cofaces
    width = n + 1
    slot = [[width * R.index_of(s) + i for s, i in slots]
            for slots in R.cofaces(n - 1).values()]
    assert count == [len(ps) for ps in slot]
    assert first == [ps[0] if ps else -1 for ps in slot]
    assert second == [ps[1] if len(ps) > 1 else -1 for ps in slot]


def ref_parse_complex(text):
    name = None
    declared_dim = None
    entries = []
    last_dim = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "complex":
            if len(parts) != 2 or name is not None:
                raise ParseError("expected a single 'complex <name>' header", lineno)
            name = parts[1]
        elif parts[0] == "dim":
            if len(parts) != 2 or name is None:
                raise ParseError("'dim <n>' must follow the complex header", lineno)
            try:
                declared_dim = int(parts[1])
            except ValueError:
                raise ParseError(f"bad dimension {parts[1]!r}", lineno) from None
            if declared_dim > complexes.MAX_DIMENSION:
                raise CapacityError(
                    f"declared dimension {declared_dim} > cap {complexes.MAX_DIMENSION}"
                )
        elif parts[0] == "simplex":
            if name is None or declared_dim is None:
                raise ParseError("simplex line before headers", lineno)
            if len(parts) < 3:
                raise ParseError("expected 'simplex <k> <name> <faces...>'", lineno)
            try:
                k = int(parts[1])
            except ValueError:
                raise ParseError(f"bad simplex dimension {parts[1]!r}", lineno) from None
            nm = parts[2]
            faces = tuple(parts[3:])
            if k > declared_dim:
                raise ParseError(
                    f"simplex {nm!r} exceeds declared dimension {declared_dim}", lineno
                )
            if k < last_dim:
                raise ParseError("simplices must appear in ascending dimension", lineno)
            last_dim = k
            if k >= 1 and len(faces) != k + 1:
                raise ParseError(
                    f"simplex {nm!r} of dimension {k} needs {k + 1} faces", lineno
                )
            if k == 0 and faces:
                raise ParseError("vertices take no faces", lineno)
            entries.append((k, nm, faces))
        else:
            raise ParseError(f"unknown directive {parts[0]!r}", lineno)
    if name is None:
        raise ParseError("missing 'complex <name>' header")
    K = ref_build_complex(name, entries)
    violations = ref_violations(K)
    if violations:
        raise ValidationError("; ".join(violations))
    return K


def entries_of(text):
    """The (dimension, name, faces) entries of a well-formed document, in order."""
    out = []
    for line in text.splitlines():
        parts = line.split("#", 1)[0].split()
        if parts and parts[0] == "simplex":
            out.append((int(parts[1]), parts[2], tuple(parts[3:])))
    return out


def assert_same_tables(K, R):
    assert (K.name, K.dimension, K.counts()) == (R.name, R.dimension, R.counts())
    for k in range(-1, K.dimension + 2):
        assert K.simplices(k) == R.simplices(k)
        assert cofaces(K, k) == R.cofaces(k)
    names = list(R.all_simplices())
    assert list(K.all_simplices()) == names
    for nm in names:
        assert nm in K
        assert (K.dim_of(nm), K.faces(nm), K.index_of(nm)) == (
            R.dim_of(nm), R.faces(nm), R.index_of(nm))
    assert tl.validate_complex(K).violations == ref_violations(R)
    assert complexes._check_pseudomanifold(K) == ref_manifold_report(R)
    if R.dimension >= 0:
        assert_same_coface_table(K, R)


def assert_each_name_held_once(K):
    """Every face entry is the very name object its dimension lists, so the
    distinct strings reachable from K's tables are exactly its simplices."""
    for k in range(1, K.dimension + 1):
        below = set(map(id, K.simplices(k - 1)))
        assert all(id(f) in below for nm in K.simplices(k) for f in K.faces(nm))
    held = set(map(id, chain(K._faces, chain.from_iterable(K._faces.values()),
                             K.all_simplices(), K._index)))
    assert len(held) == sum(K.counts())


def _bench_texts():
    # Small members of each benchmark family, n = 1 and 2 included: there
    # vertices repeat inside a simplex.
    families = [kuhn_torus(1, 2), kuhn_torus(2, 2), kuhn_torus(3, 2),
                kuhn_torus(1, 3), kuhn_torus(2, 3), klein_bottle(3, 3), klein_bottle(4, 3)]
    for G in families:
        for seed in (0, 1, 2):
            G.shuffle(random.Random(f"{seed}/{G.name}"))
            yield f"{G.name}/seed{seed}", G.text()


# Well-formed complexes that are not closed pseudomanifolds in various ways.
IMPURE = {
    "disk_and_point": "complex dp\ndim 2\nsimplex 0 u\nsimplex 0 v\nsimplex 0 w\n"
    "simplex 0 p\nsimplex 1 a w v\nsimplex 1 b w u\nsimplex 1 c v u\n"
    "simplex 2 T a b c\n",
    "circle_with_whisker": "complex cw\ndim 1\nsimplex 0 v\nsimplex 0 w\n"
    "simplex 1 a v v\nsimplex 1 b w v\n",
    "two_points": "complex pp\ndim 0\nsimplex 0 v\nsimplex 0 w\n",
    "empty": "complex nothing\ndim 0\n",
    # Pure, but the edge uv has three cofaces and every other edge one, so no
    # two top simplices are joined.
    "three_sheets": "complex ts\ndim 2\nsimplex 0 u\nsimplex 0 v\n"
    + "".join(f"simplex 0 {x}\n" for x in "xyz")
    + "simplex 1 uv v u\n"
    + "".join(f"simplex 1 v{x} {x} v\nsimplex 1 u{x} {x} u\n" for x in "xyz")
    + "".join(f"simplex 2 T{x} v{x} u{x} uv\n" for x in "xyz"),
    # Two cofaces on every edge, and two components in the dual graph.
    "two_spheres": "complex ss\ndim 2\n" + "".join(
        " ".join(parts[:2] + [nm + copy for nm in parts[2:]]) + "\n"
        for parts in map(str.split, fixture_text("sphere2.cx").splitlines())
        if parts[:1] == ["simplex"] for copy in "12"),
}


@pytest.mark.parametrize("name, two_cofaces", [("three_sheets", False), ("two_spheres", True)])
def test_pure_complexes_whose_dual_graph_falls_apart(name, two_cofaces):
    assert tl.pseudomanifold_check(tl.parse_complex(IMPURE[name])) == tl.ManifoldReport(
        2, True, two_cofaces, False)


def _all_texts():
    for name in ALL_COMPLEXES:
        yield name, fixture_text(f"{name}.cx")
    yield "impure.cx", (MALFORMED / "impure.cx").read_text()
    yield from IMPURE.items()
    yield from _bench_texts()


@pytest.mark.parametrize("text", [pytest.param(t, id=label) for label, t in _all_texts()])
def test_face_tables_match_the_simplex_reference(text):
    K = tl.parse_complex(text)
    R = ref_parse_complex(text)
    assert_same_tables(K, R)
    assert_each_name_held_once(K)
    assert_same_tables(build_complex(K.name, entries_of(text)),
                       ref_build_complex(R.name, entries_of(text)))


def test_face_identity_violations_match_the_reference_on_built_complexes():
    # build_complex leaves the identities to validate_complex, so a broken
    # gluing builds, and both checks must list the same violations in order.
    for text in [fixture_text("broken.cx"), (MALFORMED / "face_identities.cx").read_text()]:
        K = build_complex("b", entries_of(text))
        R = ref_build_complex("b", entries_of(text))
        assert tl.validate_complex(K).violations == ref_violations(R) != []
        assert_same_tables(K, R)


def test_same_complex_agrees_with_the_reference():
    built = []
    for _, text in _bench_texts():
        built.append((tl.parse_complex(text), ref_parse_complex(text)))
    torus = entries_of(fixture_text("torus.cx"))
    # The same names with one triangle's faces permuted: a different complex.
    swapped = [(d, nm, tuple(reversed(f)) if nm == "U" else f) for d, nm, f in torus]
    for entries in (torus, swapped):
        built.append((build_complex("torus", entries), ref_build_complex("torus", entries)))
    verdicts = set()
    for K1, R1 in built:
        for K2, R2 in built:
            assert K1.same_complex(K2) == R1.same_complex(R2)
            verdicts.add(K1.same_complex(K2) and K1 is not K2)
    # Shuffled copies are the same complex, other families are not.
    assert verdicts == {True, False}


@pytest.mark.parametrize("path", sorted(MALFORMED.glob("*.cx")), ids=lambda p: p.stem)
def test_malformed_documents_fail_like_the_reference(path):
    text = path.read_text()
    try:
        ref = ref_parse_complex(text)
    except TwistlabError as exc:
        with pytest.raises(type(exc)) as got:
            tl.parse_complex(text)
        assert str(got.value) == str(exc)
    else:
        assert_same_tables(tl.parse_complex(text), ref)


def document(entries, name="x"):
    """The .cx text of (dimension, name, faces) entries, declaring their
    largest dimension (at least 0)."""
    top = max([0] + [d for d, _, _ in entries])
    lines = [f"complex {name}", f"dim {top}"]
    lines += [" ".join(["simplex", str(d), nm, *faces]) for d, nm, faces in entries]
    return "\n".join(lines) + "\n"


# The errors the complex's tables raise, each from the document of its entries.
# parse_complex raises the ones a simplex line can reach in its tables (an
# unknown face, a duplicate name, more than MAX_SIMPLICES simplices); a
# negative or too large dimension and a wrong face count stop at a line first.
@pytest.mark.parametrize("entries, message", [
    ([(-1, "v", ())], "line 3: simplices must appear in ascending dimension"),
    ([(9, "v", ())], "declared dimension 9 > cap 8"),
    ([(0, "v", ()), (1, "a", ("v",))], "line 4: simplex 'a' of dimension 1 needs 2 faces"),
    ([(0, "v", ()), (1, "a", ("v", "q"))], "unknown face 'q' of simplex 'a'"),
    ([(0, "v", ()), (1, "a", ("v", "v")), (2, "T", ("a", "a", "v"))],
     "unknown face 'v' of simplex 'T'"),
    ([(0, "v", ()), (0, "v", ())], "duplicate simplex name 'v'"),
    ([(0, "v", ()), (1, "a", ("v", "v")), (1, "a", ("v", "v"))],
     "duplicate simplex name 'a'"),
    ([(0, "v", ()), (0, "w", ()), (1, "a", ("v", "v")), (1, "b", ("w", "w"))],
     "more than 3 simplices"),
], ids=["negative", "dimension_cap", "face_count", "unknown_face", "face_dimension",
        "duplicate_vertex", "duplicate_edge", "capacity"])
def test_build_errors_match_the_reference(entries, message, monkeypatch):
    monkeypatch.setattr(complexes, "MAX_SIMPLICES", 3)
    text = document(entries)
    with pytest.raises(TwistlabError) as ref:
        ref_parse_complex(text)
    with pytest.raises(type(ref.value)) as got:
        tl.parse_complex(text)
    assert type(got.value) is type(ref.value)
    assert str(got.value) == str(ref.value) == message


# -- differential mutation test: parse_complex against ref_parse_complex -------


def _mutant(lines, rng):
    """lines with one seeded single-line change."""
    out = list(lines)
    simplex_at = [i for i, line in enumerate(out) if line.split()[:1] == ["simplex"]]
    names = [out[i].split()[2] for i in simplex_at if len(out[i].split()) > 2]
    op = rng.randrange(8)
    i = rng.randrange(len(out)) if out else 0
    if op == 0 and out:
        del out[i]
    elif op == 1 and out:
        out.insert(i, out[i])
    elif op == 2 and len(out) > 1:
        j = rng.randrange(len(out))
        out[i], out[j] = out[j], out[i]
    elif op == 3 and out:
        # Change a dimension: a simplex's, or the declared one.
        dims = simplex_at + [j for j, line in enumerate(out) if line.startswith("dim")]
        if dims:
            j = rng.choice(dims)
            parts = out[j].split()
            if len(parts) > 1:
                parts[1] = rng.choice(["0", "1", "2", "3", "-1", "9", "x"])
                out[j] = " ".join(parts)
    elif op == 4 and simplex_at:
        # Rename a face: to another simplex (maybe of the wrong dimension) or to
        # a name that no simplex has.
        j = rng.choice(simplex_at)
        parts = out[j].split()
        if len(parts) > 3:
            parts[rng.randrange(3, len(parts))] = rng.choice(names + ["q"])
            out[j] = " ".join(parts)
    elif op == 5 and out:
        out[i] += " " + rng.choice(["extra", "v", "0"])
    elif op == 6:
        out.insert(i, rng.choice(["# a comment", "   # indented comment"]))
        if out[-1:] and rng.randrange(2):
            out[-1] += "  # trailing comment"
    else:
        out.insert(i, rng.choice(["", "   ", "\t"]))
    return "\n".join(out) + "\n"


def assert_parses_like_the_reference(text):
    try:
        ref = ref_parse_complex(text)
    except TwistlabError as exc:
        with pytest.raises(TwistlabError) as got:
            tl.parse_complex(text)
        assert (type(got.value), str(got.value)) == (type(exc), str(exc))
    else:
        assert_same_tables(tl.parse_complex(text), ref)


def _mutation_inputs():
    for path in sorted(FIXTURES.glob("*.cx")) + sorted(MALFORMED.glob("*.cx")):
        yield path.name, path.read_text()
    yield from _bench_texts()


@pytest.mark.parametrize("text", [pytest.param(t, id=label) for label, t in _mutation_inputs()])
def test_parse_complex_matches_the_reference_under_mutation(text, monkeypatch):
    rng = random.Random(f"mutants/{text}")
    lines = text.splitlines()
    count = sum(line.split()[:1] == ["simplex"] for line in lines)
    full = complexes.MAX_SIMPLICES
    for m in range(24):
        # Every fourth mutant runs one simplex short of the capacity cap.
        cap = max(1, count - 1) if m % 4 == 3 else full
        monkeypatch.setattr(complexes, "MAX_SIMPLICES", cap)
        assert_parses_like_the_reference(_mutant(lines, rng))
