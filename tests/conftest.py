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
    members = P.member_set()
    entries = [
        (K.dim_of(nm), nm, K.faces(nm)) for nm in K.all_simplices() if nm in members
    ]
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


def build_complex(name: str, entries) -> tl.DeltaComplex:
    """A complex from (dimension, name, faces) entries, each checked for its
    dimension, face count, faces and name, with the face identities left
    unchecked: how tests build a complex that fails them.  Each face entry is
    the object given, not its simplex's own name as `parse_complex` stores."""
    faces_of, dims, by_dim, index = {}, {}, {}, {}
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
        faces_of[nm] = tuple(faces)
        level = by_dim.setdefault(dim, [])
        index[nm] = len(level)
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
