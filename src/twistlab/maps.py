"""Simplicial maps between Delta-complexes, with degeneracy (collapse) records.

Each simplex either maps to a same-dimension simplex (order-preserving on
vertices) or collapses onto a lower-dimensional one via a monotone vertex
surjection, stored as a digit tuple.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import DeltaComplex, _content_lines
from .errors import ParseError, ValidationError


@dataclass(frozen=True)
class Assignment:
    image: str
    surjection: tuple[int, ...] | None  # None = nondegenerate

    @property
    def degenerate(self) -> bool:
        return self.surjection is not None


class SimplicialMap:
    def __init__(self, name, domain: DeltaComplex, codomain: DeltaComplex, assignments):
        self.name = name
        self.domain = domain
        self.codomain = codomain
        self.assignments: dict[str, Assignment] = assignments
        _validate_map(self)


def _face_assignment(m: SimplicialMap, name: str, i: int) -> Assignment:
    """Assignment forced on face_i(name) by the assignment of name."""
    a = m.assignments[name]
    if a.surjection is None:
        return Assignment(m.codomain.face(a.image, i), None)
    digits = a.surjection
    sub = digits[:i] + digits[i + 1 :]
    img = a.image
    mdim = m.codomain.dim_of(img)
    hit = set(sub)
    missing = [v for v in range(mdim + 1) if v not in hit]
    if missing:
        # Monotone surjections lose at most one value when one slot is dropped.
        val = missing[0]
        img = m.codomain.face(img, val)
        sub = tuple(x if x < val else x - 1 for x in sub)
        mdim -= 1
    if sub == tuple(range(len(sub))):
        return Assignment(img, None)
    return Assignment(img, sub)


def _validate_map(m: SimplicialMap):
    dom, cod = m.domain, m.codomain
    for nm in dom.all_simplices():
        if nm not in m.assignments:
            raise ValidationError(f"map {m.name!r} misses simplex {nm!r}")
        a = m.assignments[nm]
        k = dom.dim_of(nm)
        if a.image not in cod:
            raise ValidationError(f"map {m.name!r}: unknown image {a.image!r}")
        mdim = cod.dim_of(a.image)
        if a.surjection is None:
            if mdim != k:
                raise ValidationError(
                    f"map {m.name!r}: {nm!r} sent to {a.image!r} of different dimension"
                )
        else:
            digits = a.surjection
            if len(digits) != k + 1 or mdim >= k:
                raise ValidationError(f"map {m.name!r}: bad collapse record on {nm!r}")
            if any(b - a_ not in (0, 1) for a_, b in zip(digits, digits[1:])) or (
                digits[0] != 0 or digits[-1] != mdim
            ):
                raise ValidationError(
                    f"map {m.name!r}: surjection on {nm!r} is not monotone onto"
                )
    # Face compatibility: the stored assignment of each face must match the
    # assignment derived from its cofaces.
    for nm in dom.all_simplices():
        k = dom.dim_of(nm)
        for i in range(k + 1 if k >= 1 else 0):
            expected = _face_assignment(m, nm, i)
            actual = m.assignments[dom.face(nm, i)]
            if expected != actual:
                raise ValidationError(
                    f"map {m.name!r}: face {i} of {nm!r} maps to {actual} "
                    f"but the parent forces {expected}"
                )


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
