"""Simplicial maps between Delta-complexes, with degeneracy (collapse) records.

Each simplex either maps to a same-dimension simplex (order-preserving on
vertices) or collapses onto a lower-dimensional one via a monotone vertex
surjection, stored as a digit tuple.  A map is given by name, an `Assignment`
per simplex, which the constructor turns once into `images`: per dimension k,
for each k-simplex by position, its image's position among the codomain's
simplices of that image's dimension, and its surjection (None: nondegenerate).
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import DeltaComplex, _content_lines
from .errors import ParseError, ValidationError


@dataclass(frozen=True)
class Assignment:
    image: str
    surjection: tuple[int, ...] | None  # None = nondegenerate


class SimplicialMap:
    def __init__(self, name, domain: DeltaComplex, codomain: DeltaComplex, assignments):
        self.name = name
        self.domain = domain
        self.codomain = codomain
        self.assignments: dict[str, Assignment] = assignments
        self.images: dict[int, list[tuple[int, tuple[int, ...] | None]]] = {}
        _validate_map(self)


def _validate_map(m: SimplicialMap):
    """Fill m.images, checking each simplex's own record in the domain's
    order, then check a dimension at a time that face i of each k-simplex has
    the record that the simplex's record forces.  The first fault in that
    order, simplex by simplex and face by face, is raised."""
    dom, cod, given = m.domain, m.codomain, m.assignments
    for k in range(dom.dimension + 1):
        m.images[k] = level = []
        for nm in dom.simplices(k):
            a = given.get(nm)
            if a is None:
                raise ValidationError(f"map {m.name!r} misses simplex {nm!r}")
            try:
                p, mdim = cod.locate(a.image)
            except ValidationError:
                raise ValidationError(f"map {m.name!r}: unknown image {a.image!r}") from None
            digits = a.surjection
            if digits is None:
                if mdim != k:
                    raise ValidationError(
                        f"map {m.name!r}: {nm!r} sent to {a.image!r} of different dimension")
            elif len(digits) != k + 1 or mdim >= k:
                raise ValidationError(f"map {m.name!r}: bad collapse record on {nm!r}")
            elif any(y - x not in (0, 1) for x, y in zip(digits, digits[1:])) or (
                    digits[0] != 0 or digits[-1] != mdim):
                raise ValidationError(f"map {m.name!r}: surjection on {nm!r} is not monotone onto")
            level.append((p, digits))
    # Face i of every codomain d-simplex; no image has a dimension above dom's.
    cols = {(d, i): cod.faces_along(d, (i,))
            for d in range(1, min(dom.dimension, cod.dimension) + 1) for i in range(d + 1)}
    for k in range(1, dom.dimension + 1):
        faces = [dom.faces_along(k, (i,)) for i in range(k + 1)]
        held = [list(map(m.images[k - 1].__getitem__, f)) for f in faces]
        forced = [_forced(cols, k, i, m.images[k]) for i in range(k + 1)]
        if forced != held:
            s, i = min((s, i) for i, (f, h) in enumerate(zip(forced, held))
                       for s, (x, y) in enumerate(zip(f, h)) if x != y)
            p, sub = forced[i][s]
            expected = Assignment(cod.simplices(k - 1 if sub is None else sub[-1])[p], sub)
            raise ValidationError(
                f"map {m.name!r}: face {i} of {dom.simplices(k)[s]!r} maps to "
                f"{given[dom.simplices(k - 1)[faces[i][s]]]} but the parent forces {expected}")


def _forced(cols, k, i, level):
    """The (image position, surjection) that each record of level, the
    k-simplices' table, forces on the simplex's face i."""
    col = cols.get((k, i))
    out = []
    for p, digits in level:
        if digits is None:
            out.append((col[p], None))
            continue
        val = digits[i]
        sub = digits[:i] + digits[i + 1:]
        if val not in sub:
            # A monotone surjection loses at most the value in the dropped
            # slot: the image drops to its face opposite that vertex.
            p = cols[digits[-1], val][p]
            sub = tuple(x if x < val else x - 1 for x in sub)
        out.append((p, None if sub == tuple(range(len(sub))) else sub))
    return out


def parse_map(text: str, domain: DeltaComplex, codomain: DeltaComplex) -> SimplicialMap:
    name = None
    assignments = {}
    for lineno, line in _content_lines(text):
        parts = line.split()
        if parts[0] == "map":
            if name is not None:
                raise ParseError("expected a single 'map <name> from <K> to <L>' header",
                                 lineno)
            if len(parts) != 6 or parts[2] != "from" or parts[4] != "to":
                raise ParseError("expected 'map <name> from <K> to <L>'", lineno)
            name = parts[1]
            if parts[3] != domain.name or parts[5] != codomain.name:
                raise ParseError(
                    f"map header names {parts[3]!r}->{parts[5]!r} do not match "
                    f"the supplied complexes {domain.name!r}->{codomain.name!r}",
                    lineno,
                )
        elif name is None and parts[0] in ("send", "collapse"):
            raise ParseError(f"{parts[0]} line before the map header", lineno)
        elif parts[0] == "send":
            if len(parts) != 3:
                raise ParseError("expected 'send <simplex> <image>'", lineno)
            _require_unassigned(parts[1], domain, assignments, lineno)
            assignments[parts[1]] = Assignment(parts[2], None)
        elif parts[0] == "collapse":
            if len(parts) != 4:
                raise ParseError(
                    "expected 'collapse <simplex> <image> <digits>'", lineno
                )
            _require_unassigned(parts[1], domain, assignments, lineno)
            if not parts[3].isdigit():
                raise ParseError(f"bad surjection digits {parts[3]!r}", lineno)
            digits = tuple(int(c) for c in parts[3])
            assignments[parts[1]] = Assignment(parts[2], digits)
        else:
            raise ParseError(f"unknown directive {parts[0]!r}", lineno)
    if name is None:
        raise ParseError("missing 'map' header")
    return SimplicialMap(name, domain, codomain, assignments)


def _require_unassigned(nm, domain, assignments, lineno):
    if nm not in domain:
        raise ParseError(f"unknown simplex {nm!r}", lineno)
    if nm in assignments:
        raise ParseError(f"duplicate assignment of {nm!r}", lineno)
