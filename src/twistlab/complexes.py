"""Finite Delta-complexes: named ordered simplices glued along face maps.

A k-simplex stores the names of its k+1 faces, face i being the (k-1)-simplex
opposite vertex e_i.  Repeated-vertex gluings are allowed, so one-vertex
models of the torus, Klein bottle, etc. are valid inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import CapacityError, ParseError, TwistlabError, ValidationError

MAX_DIMENSION = 8
MAX_SIMPLICES = 100000


@dataclass(frozen=True)
class Simplex:
    name: str
    dim: int
    faces: tuple[str, ...]


class DeltaComplex:
    """Validated immutable complex; simplex order follows the input order."""

    def __init__(self, name: str, simplices: list[Simplex]):
        self.name = name
        self._simplices: dict[str, Simplex] = {}
        by_dim: dict[int, list[str]] = {}
        for s in simplices:
            if s.name in self._simplices:
                raise ValidationError(f"duplicate simplex name {s.name!r}")
            self._simplices[s.name] = s
            by_dim.setdefault(s.dim, []).append(s.name)
        self._by_dim = {k: tuple(v) for k, v in by_dim.items()}
        self.dimension = max(self._by_dim) if self._by_dim else -1
        # Position of each simplex within its dimension (fixes matrix bases).
        self._index = {
            nm: i for k in self._by_dim for i, nm in enumerate(self._by_dim[k])
        }
        self._manifold_report: ManifoldReport | None = None

    # -- structure access ----------------------------------------------

    def simplices(self, k: int) -> tuple[str, ...]:
        return self._by_dim.get(k, ())

    def all_simplices(self):
        for k in sorted(self._by_dim):
            yield from self._by_dim[k]

    def __contains__(self, name):
        return name in self._simplices

    def same_complex(self, other: "DeltaComplex") -> bool:
        """Whether other is this complex or has the same simplices and faces."""
        return self is other or self._simplices == other._simplices

    # Accessors catch the miss rather than test first, so a hit costs nothing.

    def _no_simplex(self, name: str) -> ValidationError:
        return ValidationError(f"complex {self.name!r} has no simplex {name!r}")

    def dim_of(self, name: str) -> int:
        try:
            return self._simplices[name].dim
        except KeyError:
            raise self._no_simplex(name) from None

    def faces(self, name: str) -> tuple[str, ...]:
        try:
            return self._simplices[name].faces
        except KeyError:
            raise self._no_simplex(name) from None

    def face(self, name: str, i: int) -> str:
        try:
            return self._simplices[name].faces[i]
        except KeyError:
            raise self._no_simplex(name) from None
        except IndexError:
            raise ValidationError(
                f"simplex {name!r} of complex {self.name!r} has no face {i}"
            ) from None

    def index_of(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise self._no_simplex(name) from None

    def counts(self) -> tuple[int, ...]:
        return tuple(len(self.simplices(k)) for k in range(self.dimension + 1))

    def range_face(self, name: str, a: int, b: int) -> str:
        """The face spanned by vertices e_a..e_b (iterated face maps)."""
        cur = name
        d = self.dim_of(name)
        if not (0 <= a <= b <= d):
            raise TwistlabError(f"bad vertex range [{a}, {b}] on {name!r}")
        while d > b:
            cur = self.face(cur, d)
            d -= 1
        for _ in range(a):
            cur = self.face(cur, 0)
        return cur

    def subset_face(self, name: str, keep) -> str:
        """The face spanned by an arbitrary set of vertex indices."""
        keep_set = set(keep)
        cur = name
        present = list(range(self.dim_of(name) + 1))
        i = len(present) - 1
        while i >= 0:
            if present[i] not in keep_set:
                cur = self.face(cur, i)
                present.pop(i)
            i -= 1
        return cur

    def vertex(self, name: str, m: int) -> str:
        return self.range_face(name, m, m)

    def vertices(self, name: str) -> tuple[str, ...]:
        return tuple(self.vertex(name, m) for m in range(self.dim_of(name) + 1))

    def front_edge(self, name: str) -> str:
        """The [e_0, e_1] edge of a simplex of dimension >= 1."""
        return self.range_face(name, 0, 1)

    def edge_ends(self, edge: str) -> tuple[str, str]:
        """(tail, head) = (sigma(e_0), sigma(e_1)) of a 1-simplex."""
        f = self.faces(edge)
        return f[1], f[0]

    # -- derived data ----------------------------------------------------

    def cofaces(self, k: int) -> dict[str, list[tuple[str, int]]]:
        """For each k-simplex, the (simplex, face-index) slots it bounds."""
        out = {nm: [] for nm in self.simplices(k)}
        for nm in self.simplices(k + 1):
            for i, f in enumerate(self.faces(nm)):
                out[f].append((nm, i))
        return out


def build_complex(name: str, entries: list[tuple[int, str, tuple[str, ...]]]) -> DeltaComplex:
    """Construct without face-identity validation (see validate_complex)."""
    simplices = []
    seen: dict[str, int] = {}
    for dim, nm, faces in entries:
        if dim < 0:
            raise ValidationError(f"negative dimension for {nm!r}")
        if dim > MAX_DIMENSION:
            raise CapacityError(
                f"simplex {nm!r} has dimension {dim} > cap {MAX_DIMENSION}"
            )
        if len(faces) != (dim + 1 if dim >= 1 else 0):
            raise ValidationError(f"simplex {nm!r} needs {dim + 1} faces")
        for f in faces:
            if seen.get(f) != dim - 1:
                raise ValidationError(f"unknown face {f!r} of simplex {nm!r}")
        if nm in seen:
            raise ValidationError(f"duplicate simplex name {nm!r}")
        seen[nm] = dim
        simplices.append(Simplex(nm, dim, tuple(faces)))
        if len(simplices) > MAX_SIMPLICES:
            raise CapacityError(f"more than {MAX_SIMPLICES} simplices")
    return DeltaComplex(name, simplices)


@dataclass
class ValidationReport:
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_complex(K: DeltaComplex) -> ValidationReport:
    """Check the face identities face_i(face_j(s)) = face_{j-1}(face_i(s)), i < j."""
    report = ValidationReport()
    for k in range(2, K.dimension + 1):
        for nm in K.simplices(k):
            faces = K.faces(nm)
            for j in range(1, k + 1):
                for i in range(j):
                    left = K.face(faces[j], i)
                    right = K.face(faces[i], j - 1)
                    if left != right:
                        report.violations.append(
                            f"face identity fails on {nm!r} at (i={i}, j={j}): "
                            f"face_{i}(face_{j}) = {left!r} but "
                            f"face_{j - 1}(face_{i}) = {right!r}"
                        )
    return report


# -- parsing -----------------------------------------------------------


def _content_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def parse_complex(text: str) -> DeltaComplex:
    """Parse and fully validate a complex document."""
    name = None
    declared_dim = None
    entries = []
    last_dim = 0
    for lineno, line in _content_lines(text):
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
            if declared_dim > MAX_DIMENSION:
                raise CapacityError(
                    f"declared dimension {declared_dim} > cap {MAX_DIMENSION}"
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
    K = build_complex(name, entries)
    report = validate_complex(K)
    if not report.ok:
        raise ValidationError("; ".join(report.violations))
    return K


# -- subcomplexes ------------------------------------------------------


@dataclass
class SubcomplexPair:
    """A complex together with a face-closed subset of its simplices."""

    complex: DeltaComplex
    members: tuple[str, ...]
    closure_added: bool

    def member_set(self) -> frozenset:
        return frozenset(self.members)


def subcomplex(K: DeltaComplex, names) -> SubcomplexPair:
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
    added = len(closed) > len(set(names))
    ordered = tuple(nm for nm in K.all_simplices() if nm in closed)
    return SubcomplexPair(K, ordered, added)


def parse_subcomplex(text: str, K: DeltaComplex) -> SubcomplexPair:
    names = []
    for lineno, line in _content_lines(text):
        parts = line.split()
        if parts[0] == "sub":
            if len(parts) != 2:
                raise ParseError("expected 'sub <name>'", lineno)
        elif parts[0] == "member":
            if len(parts) != 2:
                raise ParseError("expected 'member <simplex-name>'", lineno)
            if parts[1] not in K:
                raise ParseError(f"unknown simplex {parts[1]!r}", lineno)
            names.append(parts[1])
        else:
            raise ParseError(f"unknown directive {parts[0]!r}", lineno)
    return subcomplex(K, names)


def skeleton_pair(K: DeltaComplex, n: int) -> SubcomplexPair:
    """(K, K^n): the subcomplex of all simplices of dimension <= n."""
    names = [nm for k in range(min(n, K.dimension) + 1) for nm in K.simplices(k)]
    return subcomplex(K, names)


def subcomplex_as_complex(P: SubcomplexPair, new_name: str) -> DeltaComplex:
    """Materialize the subcomplex as a DeltaComplex (names and order kept)."""
    K = P.complex
    members = P.member_set()
    entries = [
        (K.dim_of(nm), nm, K.faces(nm)) for nm in K.all_simplices() if nm in members
    ]
    return build_complex(new_name, entries)


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


def _propagate_signs(root, edges) -> dict | None:
    """Sign labels on the component of root, found breadth first: label[root] = 1
    and label[b] = sign * label[a] for each (b, sign) in edges[a].  None when an
    edge contradicts the labels."""
    label = {root: 1}
    queue = [root]
    for a in queue:
        for b, sign in edges[a]:
            want = sign * label[a]
            if b not in label:
                label[b] = want
                queue.append(b)
            elif label[b] != want:
                return None
    return label


def pseudomanifold_check(K: DeltaComplex) -> ManifoldReport:
    """Purity, two cofaces on every (n-1)-simplex, and dual connectivity: the
    top simplices are one component when joined across faces with two cofaces.

    The complex is immutable, so the report is computed once and kept on it."""
    if K._manifold_report is None:
        K._manifold_report = _check_pseudomanifold(K)
    return K._manifold_report


def _check_pseudomanifold(K: DeltaComplex) -> ManifoldReport:
    n = K.dimension
    if n < 0:
        return ManifoldReport(n, False, False, False)
    top = K.simplices(n)

    # Purity: every simplex is an iterated face of a top simplex.
    reached = set(top)
    for k in range(n, 0, -1):
        for nm in K.simplices(k):
            if nm in reached:
                reached.update(K.faces(nm))
    pure = all(nm in reached for nm in K.all_simplices())

    two = True
    adj: dict[str, list] = {nm: [] for nm in top}
    if n >= 1:
        for slots in K.cofaces(n - 1).values():
            if len(slots) != 2:
                two = False
                continue
            a, b = slots[0][0], slots[1][0]
            adj[a].append((b, 1))
            adj[b].append((a, 1))
    connected = bool(top) and len(_propagate_signs(top[0], adj)) == len(top)
    return ManifoldReport(n, pure, two, connected)


def euler_characteristic(K: DeltaComplex) -> int:
    return sum(
        (-1) ** k * len(K.simplices(k)) for k in range(K.dimension + 1)
    )
