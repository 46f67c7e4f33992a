"""Finite Delta-complexes: named ordered simplices glued along face maps.

A k-simplex stores its k+1 faces as positions among the (k-1)-simplices, face
i being the one opposite vertex e_i; a position, a simplex's place in its
dimension in input order, is the one coordinate of every table and matrix.
Repeated-vertex gluings are allowed, so one-vertex models of the torus, Klein
bottle, etc. are valid inputs.  `parse_complex` fills the tables in one pass
over the document's lines, and only this module reads them: elsewhere faces
are walked a whole dimension at a time with `DeltaComplex.faces_along` along a
`face_path`, and cofaces are read from `DeltaComplex.coface_table`.  Names
stay at the edges: the parsers, messages and accessors that take a name.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from itertools import chain
from operator import itemgetter

from .errors import CapacityError, ParseError, ValidationError

MAX_DIMENSION = 8
MAX_SIMPLICES = 100000
_DIMS = MAX_DIMENSION + 1  # `_index` packs a simplex as position * _DIMS + dimension


class DeltaComplex:
    """Validated immutable complex; simplex order follows the input order.

    Its tables, filled by `parse_complex`: dimension -> names in input order
    (`_by_dim`), name -> position within its dimension and that dimension,
    packed in one int (`_index`, read through `locate`), and
    dimension k -> each k-simplex's face tuple as positions among the
    (k-1)-simplices, empty for a vertex (`_faces`).  `faces_along` is the one
    walk down the face maps, a whole dimension at a time.
    `pseudomanifold_check` adds the coface table of the top dimension
    (`_cofaces`, read through `coface_table`)."""

    def __init__(self, name: str, faces: dict, by_dim: dict, index: dict):
        self.name = name
        self._faces = faces
        self._by_dim = by_dim
        self._index = index
        self.dimension = max(by_dim) if by_dim else -1
        self._manifold_report: ManifoldReport | None = None
        self._cofaces: tuple[list[int], list[int], list[int]] | None = None

    # -- structure access ----------------------------------------------

    def simplices(self, k: int) -> tuple[str, ...]:
        return self._by_dim.get(k, ())

    def all_simplices(self):
        for k in sorted(self._by_dim):
            yield from self._by_dim[k]

    def __contains__(self, name):
        return name in self._index

    def same_complex(self, other: "DeltaComplex") -> bool:
        """Whether other is this complex or has the same simplices, by name, each
        with the same faces, by name (which fixes every dimension: k + 1 faces
        for k >= 1, none for a vertex), in whatever order either lists them."""
        return self is other or (self._index.keys() == other._index.keys() and all(
            self.faces(nm) == other.faces(nm) for nm in self._index))

    # Accessors catch a missing name rather than test first, so a hit costs
    # nothing; a face index is tested, as Python reads a negative one from
    # the end.

    def _no_simplex(self, name: str) -> ValidationError:
        return ValidationError(f"complex {self.name!r} has no simplex {name!r}")

    def locate(self, name: str) -> tuple[int, int]:
        """(position, dimension) of a simplex: where a name crosses to positions."""
        try:
            return divmod(self._index[name], _DIMS)
        except KeyError:
            raise self._no_simplex(name) from None

    def dim_of(self, name: str) -> int:
        return self.locate(name)[1]

    def faces(self, name: str) -> tuple[str, ...]:
        i, k = self.locate(name)
        # k + 1 >= 2 faces name a tuple; a vertex has none.
        return itemgetter(*self._faces[k][i])(self._by_dim[k - 1]) if k else ()

    def face(self, name: str, i: int) -> str:
        faces = self.faces(name)
        if not 0 <= i < len(faces):
            raise ValidationError(f"simplex {name!r} of complex {self.name!r} has no face {i}")
        return faces[i]

    def index_of(self, name: str) -> int:
        return self.locate(name)[0]

    def counts(self) -> tuple[int, ...]:
        return tuple(len(self.simplices(k)) for k in range(self.dimension + 1))

    def faces_along(self, k: int, path: tuple[int, ...]) -> list[int]:
        """For each k-simplex, by position, the position of the face reached by
        taking face path[0], then face path[1] of that, and so on: one pass
        over a face table per step.  With path = `face_path(k, keep)`, entry s
        is the face of the k-simplex at position s spanned by its vertices e_i,
        i in keep: its vertex e_m for keep = (m,), its front edge for (0, 1).
        An empty path gives the k-simplices' own positions."""
        if len(path) > max(k, 0):
            raise ValidationError(
                f"a {k}-simplex of complex {self.name!r} has no face path {tuple(path)}")
        out = None
        for d, i in zip(range(k, 0, -1), path):
            if not 0 <= i <= d:
                raise ValidationError(f"a {d}-simplex of complex {self.name!r} has no face {i}")
            level = self._faces.get(d, ())  # none above the top dimension
            out = list(map(itemgetter(i), level if out is None else map(level.__getitem__, out)))
        return list(range(len(self.simplices(k)))) if out is None else out

    def coface_table(self) -> tuple[list[int], list[int], list[int]]:
        """The coface table of the top dimension n, which `pseudomanifold_check`
        builds and keeps (run here if it has not been): for each (n-1)-simplex
        position f, its first and second slots p = (n+1)*s + i (face i of the
        top simplex at position s), -1 where none, and its slot count."""
        if self._cofaces is None:
            pseudomanifold_check(self)
        return self._cofaces

    def edge_ends(self, edge: str) -> tuple[str, str]:
        """(tail, head) = (sigma(e_0), sigma(e_1)) of a 1-simplex."""
        f = self.faces(edge)
        if len(f) != 2:
            raise ValidationError(f"simplex {edge!r} of complex {self.name!r} is not an edge")
        return f[1], f[0]


@cache
def face_path(d: int, keep) -> tuple[int, ...]:
    """The face indices that lead from a d-simplex to its face on the vertex
    indices in keep (a hashable container): `K.faces_along(d, path)` walks it
    for every d-simplex at once.  Going down, face i of the current face still
    drops original vertex i.  Worked out once per dimension and vertex set."""
    return tuple(i for i in range(d, -1, -1) if i not in keep)


@dataclass
class ValidationReport:
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_complex(K: DeltaComplex) -> ValidationReport:
    """Check the face identities face_i(face_j(s)) = face_{j-1}(face_i(s)), i < j.

    Each dimension is checked in whole-table passes, one per identity; only a
    dimension where one fails is walked simplex by simplex, to list its
    violations, by name, in order."""
    report = ValidationReport()
    for k in range(2, K.dimension + 1):
        level = K._faces[k]
        get = K._faces[k - 1].__getitem__
        # Every face of a k-simplex is a (k-1)-simplex with k faces, so
        # column j holds the face tuple of face j of each k-simplex.
        cols = [list(map(get, map(itemgetter(j), level))) for j in range(k + 1)]
        if all(list(map(itemgetter(i), cols[j])) == list(map(itemgetter(j - 1), cols[i]))
               for j in range(1, k + 1) for i in range(j)):
            continue
        for nm, faces in zip(K.simplices(k), level):
            ff = list(map(get, faces))
            for j in range(1, k + 1):
                for i in range(j):
                    left, right = ff[j][i], ff[i][j - 1]
                    if left != right:
                        report.violations.append(
                            f"face identity fails on {nm!r} at (i={i}, j={j}): "
                            f"face_{i}(face_{j}) = {K.simplices(k - 2)[left]!r} but "
                            f"face_{j - 1}(face_{i}) = {K.simplices(k - 2)[right]!r}")
    return report


# -- parsing -----------------------------------------------------------


def _content_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip() if "#" in raw else raw.strip()
        if line:
            yield lineno, line


def parse_complex(text: str) -> DeltaComplex:
    """Parse and fully validate a complex document, in one pass from its lines
    to its tables.

    A table error (an unknown face, a duplicate name, more than MAX_SIMPLICES
    simplices) is kept from the first simplex that causes it and raised once
    every line has parsed, so a syntax error on a later line still wins; the
    tables stop filling at that simplex."""
    name = None
    declared_dim = None
    last_dim = 0
    index: dict[str, int] = {}
    by_dim: dict[int, list[str]] = {}
    faces_by_dim: dict[int, list[tuple[int, ...]]] = {}
    table_error = None
    level_dim = None
    k_token = None
    room = MAX_SIMPLICES
    # Each line is popped, so released once read, up to a "\n" that none holds.
    lines = text.splitlines()
    lines.append("\n")
    lines.reverse()
    for lineno, raw in enumerate(iter(lines.pop, "\n"), start=1):
        if "#" in raw:
            raw = raw.split("#", 1)[0]
        parts = raw.split()
        if not parts:
            continue
        if parts[0] == "simplex":
            if name is None or declared_dim is None:
                raise ParseError("simplex line before headers", lineno)
            if len(parts) < 3:
                raise ParseError("expected 'simplex <k> <name> <faces...>'", lineno)
            if parts[1] != k_token:
                # Dimensions ascend, so the token rarely changes.
                try:
                    k = int(parts[1])
                except ValueError:
                    raise ParseError(f"bad simplex dimension {parts[1]!r}", lineno) from None
                k_token = parts[1]
            nm = parts[2]
            if k > declared_dim:
                raise ParseError(f"simplex {nm!r} exceeds declared dimension {declared_dim}",
                                 lineno)
            if k < last_dim:
                raise ParseError("simplices must appear in ascending dimension", lineno)
            last_dim = k
            if k >= 1 and len(parts) != k + 4:
                raise ParseError(f"simplex {nm!r} of dimension {k} needs {k + 1} faces", lineno)
            if k == 0 and len(parts) > 3:
                raise ParseError("vertices take no faces", lineno)
            if table_error is not None:
                continue
            if k != level_dim:
                # Dimensions ascend, so every (k-1)-simplex is already listed;
                # each maps to its position, and k + 1 >= 2 of them to a tuple.
                level_dim = k
                level = by_dim[k] = []
                table = faces_by_dim[k] = []
                names = by_dim.get(k - 1, ())
                below = dict(zip(names, range(len(names))))
            try:
                faces = itemgetter(*parts[3:])(below) if k else ()
            except KeyError as exc:
                table_error = ValidationError(f"unknown face {exc.args[0]!r} of simplex {nm!r}")
                continue
            if nm in index:
                table_error = ValidationError(f"duplicate simplex name {nm!r}")
            else:
                index[nm] = len(level) * _DIMS + k
                level.append(nm)
                table.append(faces)
                if len(index) > room:
                    table_error = CapacityError(f"more than {room} simplices")
        elif parts[0] == "complex":
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
            if declared_dim > MAX_DIMENSION:
                raise CapacityError(f"declared dimension {declared_dim} > cap {MAX_DIMENSION}")
        else:
            raise ParseError(f"unknown directive {parts[0]!r}", lineno)
    if name is None:
        raise ParseError("missing 'complex <name>' header")
    if table_error is not None:
        raise table_error
    K = DeltaComplex(name, faces_by_dim, {k: tuple(v) for k, v in by_dim.items()}, index)
    report = validate_complex(K)
    if not report.ok:
        raise ValidationError("; ".join(report.violations))
    return K


# -- subcomplexes ------------------------------------------------------


@dataclass
class SubcomplexPair:
    """A complex together with a face-closed subset of its simplices, held as
    one sorted tuple of positions per dimension, 0 .. the complex's dimension."""

    complex: DeltaComplex
    positions: tuple[tuple[int, ...], ...]

    @property
    def members(self) -> tuple[str, ...]:
        """The member simplices' names, in the complex's order."""
        return tuple(chain.from_iterable(
            map(self.complex.simplices(k).__getitem__, at) for k, at in enumerate(self.positions)))


def subcomplex(K: DeltaComplex, names) -> SubcomplexPair:
    """The subcomplex of K that names span: their closure under faces, taken a
    dimension at a time from the top down, one face column per face index."""
    marked = [set() for _ in range(K.dimension + 1)]
    for nm in names:
        try:
            i, k = K.locate(nm)
        except ValidationError:
            raise ValidationError(f"unknown simplex {nm!r} in subcomplex") from None
        marked[k].add(i)
    for k in range(K.dimension, 0, -1):
        if marked[k]:
            for i in range(k + 1):
                marked[k - 1].update(map(K.faces_along(k, (i,)).__getitem__, marked[k]))
    return SubcomplexPair(K, tuple(tuple(sorted(at)) for at in marked))


def parse_subcomplex(text: str, K: DeltaComplex) -> SubcomplexPair:
    name = None
    names = []
    for lineno, line in _content_lines(text):
        parts = line.split()
        if parts[0] == "sub":
            if name is not None:
                raise ParseError("expected a single 'sub <name>' header", lineno)
            if len(parts) != 2:
                raise ParseError("expected 'sub <name>'", lineno)
            name = parts[1]
        elif parts[0] == "member":
            if name is None:
                raise ParseError("member line before the sub header", lineno)
            if len(parts) != 2:
                raise ParseError("expected 'member <simplex-name>'", lineno)
            if parts[1] not in K:
                raise ParseError(f"unknown simplex {parts[1]!r}", lineno)
            names.append(parts[1])
        else:
            raise ParseError(f"unknown directive {parts[0]!r}", lineno)
    if name is None:
        raise ParseError("missing 'sub <name>' header")
    return subcomplex(K, names)


# -- pseudomanifold recognition ---------------------------------------


@dataclass(frozen=True)
class ManifoldReport:
    dimension: int
    pure: bool
    two_cofaces: bool
    dual_connected: bool

    @property
    def closed_pseudomanifold(self) -> bool:
        return self.pure and self.two_cofaces and self.dual_connected


def _propagate_signs(root: int, edges, label: list[int]) -> list[int] | None:
    """Sign labels on the component of root, found breadth first and written
    into label, where 0 marks an id not yet reached: label[root] = 1 and
    label[b] = sign * label[a] for each (b, sign) in edges[a].  Returns the
    component's ids in the order reached, or None when an edge contradicts the
    labels."""
    label[root] = 1
    queue = [root]
    for a in queue:
        here = label[a]
        for b, sign in edges[a]:
            want = sign * here
            there = label[b]
            if not there:
                label[b] = want
                queue.append(b)
            elif there != want:
                return None
    return queue


def pseudomanifold_check(K: DeltaComplex) -> ManifoldReport:
    """Purity, two cofaces on every (n-1)-simplex, and dual connectivity: the
    top simplices are one component when joined across faces with two cofaces.

    The complex is immutable, so the report is computed once and kept on it,
    next to the coface table the check builds (`DeltaComplex.coface_table`)."""
    if K._manifold_report is None:
        K._manifold_report = _check_pseudomanifold(K)
    return K._manifold_report


def _check_pseudomanifold(K: DeltaComplex) -> ManifoldReport:
    n = K.dimension
    if n < 0:
        K._cofaces = ([], [], [])  # no (n-1)-simplices
        return ManifoldReport(n, False, False, False)
    top = K.simplices(n)
    width = n + 1

    # The coface table, filled slot by slot in the order p = width * s + i.
    at = list(chain.from_iterable(K._faces[n]))
    size = len(K.simplices(n - 1))
    first, second, count = [-1] * size, [-1] * size, [0] * size
    for p, f in enumerate(at):
        c = count[f]
        if c == 0:
            first[f] = p
        elif c == 1:
            second[f] = p
        count[f] = c + 1
    K._cofaces = (first, second, count)

    # Purity: every simplex is an iterated face of a top simplex, that is,
    # every k-simplex below the top is a face of some (k+1)-simplex.  The faces
    # of (k+1)-simplices are k-simplices, so counting them is enough; the
    # table counts them for k = n - 1.
    pure = 0 not in count and all(
        len(set(chain.from_iterable(K._faces[k + 1]))) == len(K.simplices(k))
        for k in range(n - 1))
    two = count.count(2) == size

    # Dual connectivity needs no signs: an unsigned walk over top-simplex positions
    # across each two-slot face, slot p to the other (at n = 0, `at` is empty).
    connected = False
    if top:
        seen = [False] * len(top)
        seen[0] = True
        queue = [0]
        for s in queue:
            p = width * s
            for f in at[p:p + width]:
                if count[f] == 2:
                    t = (first[f] + second[f] - p) // width
                    if not seen[t]:
                        seen[t] = True
                        queue.append(t)
                p += 1
        connected = len(queue) == len(top)
    return ManifoldReport(n, pure, two, connected)


def euler_characteristic(K: DeltaComplex) -> int:
    return sum((-1) ** k * count for k, count in enumerate(K.counts()))
