import random
import sys
from pathlib import Path

import pytest

import twistlab as tl
from twistlab import complexes
from twistlab.errors import CapacityError, TwistlabError, ValidationError
from twistlab.maps import Assignment

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"

# The benchmark's input generators and output checks, read by some tests;
# nothing here writes under bench/.
BENCH = ROOT / "bench"
if str(BENCH) not in sys.path:
    sys.path.append(str(BENCH))

ALL_COMPLEXES = [
    "point",
    "circle1",
    "circle3",
    "disk",
    "sphere2",
    "torus",
    "klein",
    "rp2",
    "rp3",
]

# closed pseudomanifold fixtures, i.e. the duality test bed
MANIFOLDS = ["circle1", "circle3", "sphere2", "torus", "klein", "rp2", "rp3"]

ORIENTABLE = {"circle1": True, "circle3": True, "sphere2": True, "torus": True,
              "klein": False, "rp2": False, "rp3": True}

_cache: dict[str, tl.DeltaComplex] = {}
_sign_cache: dict[str, list] = {}


def fixture_text(name: str) -> str:
    return (FIXTURES / name).read_text()


def load_complex(name: str) -> tl.DeltaComplex:
    if name not in _cache:
        _cache[name] = tl.parse_complex(fixture_text(f"{name}.cx"))
    return _cache[name]


def load_system(filename: str, K: tl.DeltaComplex) -> tl.LocalSystem:
    return tl.parse_system(fixture_text(filename), K)


def load_subcomplex(filename: str, K: tl.DeltaComplex) -> tl.SubcomplexPair:
    return tl.parse_subcomplex(fixture_text(filename), K)


def skeleton_pair(K: tl.DeltaComplex, n: int) -> tl.SubcomplexPair:
    """(K, K^n): the subcomplex of all simplices of dimension <= n."""
    names = [nm for k in range(min(n, K.dimension) + 1) for nm in K.simplices(k)]
    return tl.subcomplex(K, names)


def subcomplex_as_complex(P: tl.SubcomplexPair, new_name: str) -> tl.DeltaComplex:
    """Materialize the subcomplex as a DeltaComplex (names and order kept)."""
    K = P.complex
    entries = [(K.dim_of(nm), nm, K.faces(nm)) for nm in P.members]
    return build_complex(new_name, entries)


def cofaces(K: tl.DeltaComplex, k: int) -> dict[str, list[tuple[str, int]]]:
    """For each k-simplex of K, the (simplex, face-index) slots it bounds."""
    out = {nm: [] for nm in K.simplices(k)}
    for nm in K.simplices(k + 1):
        for i, f in enumerate(K.faces(nm)):
            out[f].append((nm, i))
    return out


# The per-simplex face walks, one simplex and one face map at a time: the
# reference that DeltaComplex.faces_along, the library's one walk, is checked
# against.


def range_face(K: tl.DeltaComplex, name: str, a: int, b: int) -> str:
    """The face of name spanned by vertices e_a..e_b (iterated face maps)."""
    d = K.dim_of(name)
    if not (0 <= a <= b <= d):
        raise TwistlabError(f"bad vertex range [{a}, {b}] on {name!r}")
    cur = name
    for i in range(d, b, -1):
        cur = K.faces(cur)[i]
    for _ in range(a):
        cur = K.faces(cur)[0]
    return cur


def subset_face(K: tl.DeltaComplex, name: str, keep) -> str:
    """The face of name spanned by a nonempty set of vertex indices."""
    d = K.dim_of(name)
    keep_set = set(keep)
    if not keep_set or min(keep_set) < 0 or max(keep_set) > d:
        raise TwistlabError(f"bad vertex indices {sorted(keep_set)} on {name!r}")
    cur = name
    # Going down, face i of the current face still drops original vertex i.
    for i in range(d, -1, -1):
        if i not in keep_set:
            cur = K.faces(cur)[i]
    return cur


def vertex(K: tl.DeltaComplex, name: str, m: int) -> str:
    return range_face(K, name, m, m)


def front_edge(K: tl.DeltaComplex, name: str) -> str:
    """The [e_0, e_1] edge of a simplex of dimension >= 1."""
    return range_face(K, name, 0, 1)


# The name walks that `subcomplex` and `SimplicialMap` once made, one simplex,
# one face and one name at a time: the references that the positional walks
# are checked against.


def reference_subcomplex(K: tl.DeltaComplex, names) -> tuple[str, ...]:
    """The face closure of names, in K's order, or the error for the first
    name that is not in K."""
    for nm in names:
        if nm not in K:
            raise ValidationError(f"unknown simplex {nm!r} in subcomplex")
    closed = set()
    stack = list(names)
    while stack:
        nm = stack.pop()
        if nm in closed:
            continue
        closed.add(nm)
        stack.extend(K.faces(nm))
    return tuple(nm for nm in K.all_simplices() if nm in closed)


def _reference_face_assignment(cod: tl.DeltaComplex, a: Assignment, i: int) -> Assignment:
    """The assignment that a forces on face i of its simplex."""
    if a.surjection is None:
        return Assignment(cod.face(a.image, i), None)
    digits = a.surjection
    sub = digits[:i] + digits[i + 1:]
    img = a.image
    mdim = cod.dim_of(img)
    hit = set(sub)
    missing = [v for v in range(mdim + 1) if v not in hit]
    if missing:
        # Monotone surjections lose at most one value when one slot is dropped.
        val = missing[0]
        img = cod.face(img, val)
        sub = tuple(x if x < val else x - 1 for x in sub)
    if sub == tuple(range(len(sub))):
        return Assignment(img, None)
    return Assignment(img, sub)


def reference_validate_map(name: str, dom: tl.DeltaComplex, cod: tl.DeltaComplex,
                           assignments: dict) -> None:
    """Raise the first fault of the map as a ValidationError: every simplex's
    own record first, in dom's order, then face compatibility."""
    for nm in dom.all_simplices():
        if nm not in assignments:
            raise ValidationError(f"map {name!r} misses simplex {nm!r}")
        a = assignments[nm]
        k = dom.dim_of(nm)
        if a.image not in cod:
            raise ValidationError(f"map {name!r}: unknown image {a.image!r}")
        mdim = cod.dim_of(a.image)
        if a.surjection is None:
            if mdim != k:
                raise ValidationError(
                    f"map {name!r}: {nm!r} sent to {a.image!r} of different dimension")
        else:
            digits = a.surjection
            if len(digits) != k + 1 or mdim >= k:
                raise ValidationError(f"map {name!r}: bad collapse record on {nm!r}")
            if any(y - x not in (0, 1) for x, y in zip(digits, digits[1:])) or (
                    digits[0] != 0 or digits[-1] != mdim):
                raise ValidationError(f"map {name!r}: surjection on {nm!r} is not monotone onto")
    for nm in dom.all_simplices():
        for i, face in enumerate(dom.faces(nm)):
            expected = _reference_face_assignment(cod, assignments[nm], i)
            actual = assignments[face]
            if expected != actual:
                raise ValidationError(
                    f"map {name!r}: face {i} of {nm!r} maps to {actual} "
                    f"but the parent forces {expected}")


def build_complex(name: str, entries) -> tl.DeltaComplex:
    """A complex from (dimension, name, faces) entries, each checked for its
    dimension, face count, faces and name, with the face identities left
    unchecked: how tests build a complex that fails them.  Faces are given by
    name and stored, as `parse_complex` stores them, as positions among the
    simplices of the dimension below, each simplex's position and dimension
    packed in one int of its index."""
    faces_of, dims, by_dim, index, position = {}, {}, {}, {}, {}
    for dim, nm, faces in entries:
        if dim < 0:
            raise ValidationError(f"negative dimension for {nm!r}")
        if dim > complexes.MAX_DIMENSION:
            raise CapacityError(
                f"simplex {nm!r} has dimension {dim} > cap {complexes.MAX_DIMENSION}")
        if dim == 0:
            if faces:
                raise ValidationError(f"vertex {nm!r} takes no faces")
        elif len(faces) != dim + 1:
            raise ValidationError(f"simplex {nm!r} needs {dim + 1} faces")
        for f in faces:
            if dims.get(f) != dim - 1:
                raise ValidationError(f"unknown face {f!r} of simplex {nm!r}")
        if nm in dims:
            raise ValidationError(f"duplicate simplex name {nm!r}")
        dims[nm] = dim
        faces_of.setdefault(dim, []).append(tuple(position[f] for f in faces))
        level = by_dim.setdefault(dim, [])
        position[nm] = len(level)
        index[nm] = len(level) * complexes._DIMS + dim
        level.append(nm)
        if len(dims) > complexes.MAX_SIMPLICES:
            raise CapacityError(f"more than {complexes.MAX_SIMPLICES} simplices")
    return tl.DeltaComplex(name, faces_of, {k: tuple(v) for k, v in by_dim.items()}, index)


def identity_map(K: tl.DeltaComplex) -> tl.SimplicialMap:
    assignments = {nm: Assignment(nm, None) for nm in K.all_simplices()}
    return tl.SimplicialMap("id", K, K, assignments)


def sign_systems(K: tl.DeltaComplex) -> list[tl.LocalSystem]:
    """All flat rank-1 systems over Z with +-1 transports, in edge order."""
    edges = K.simplices(1)
    if len(edges) > 12:
        raise TwistlabError("sign-system enumeration capped at 12 edges")
    out = []
    # [[1]] and [[-1]], each shared by every edge that carries it.
    sign = {v: tl.Matrix.from_int_rows(tl.Z, [[v]]) for v in (1, -1)}
    for mask in range(2 ** len(edges)):
        vals = [1 if (mask >> i) & 1 == 0 else -1 for i in range(len(edges))]
        transports = {e: sign[v] for e, v in zip(edges, vals)}
        try:
            out.append(tl.LocalSystem(f"signs{mask}", K, tl.Z, 1, transports))
        except ValidationError:
            continue
    return out


def sign_systems_of(name: str) -> list:
    if name not in _sign_cache:
        _sign_cache[name] = sign_systems(load_complex(name))
    return _sign_cache[name]


def random_unimodular(ring, d: int, rng: random.Random) -> tl.Matrix:
    """Random invertible matrix built from elementary operations on the
    rows of the identity."""
    rows = tl.Matrix.identity(ring, d).rows
    for _ in range(3 * d):
        op = rng.randrange(3)
        i, j = rng.randrange(d), rng.randrange(d)
        if op == 0 and i != j:
            c = ring.from_int(rng.randint(-2, 2))
            rows[i] = [ring.add(a, ring.mul(c, b)) for a, b in zip(rows[i], rows[j])]
        elif op == 1:
            rows[i] = [ring.neg(a) for a in rows[i]]
        elif op == 2 and i != j:
            rows[i], rows[j] = rows[j], rows[i]
    m = tl.Matrix(ring, rows)
    m.ncols = d
    return m


def random_gauge(K, ring, d: int, rng: random.Random) -> tl.Gauge:
    return tl.Gauge({v: random_unimodular(ring, d, rng) for v in K.simplices(0)})


def random_flat_system(name: str, rank: int, ring, rng: random.Random) -> tl.LocalSystem:
    """Random gauge of (constant rank-d) tensor (random flat sign system)."""
    K = load_complex(name)
    core = tl.constant_system(K, rank, ring)
    signs = sign_systems_of(name)
    if signs and rank >= 1:
        s = signs[rng.randrange(len(signs))]
        core = tl.tensor_systems(core, tl.cast_system(s, ring))
    if rank == 0:
        return core
    return tl.gauge_transform(core, random_gauge(K, ring, rank, rng))


@pytest.fixture
def rng():
    return random.Random(20260810)
