"""Exact coefficient rings: integers, rationals, and prime fields.

Ring elements are plain Python values (int, Fraction, int residue); the ring
object supplies arithmetic and its Euclidean structure, so matrix and
homology code can stay ring-generic.
"""

from __future__ import annotations

import operator
from fractions import Fraction

from .errors import TwistlabError


class Ring:
    """Arithmetic interface for an exact commutative ring.

    Contract: every element is canonical, an `int` over Z, a `Fraction` over
    Q, and an `int` residue in [0, p) over F_p.  Elements come only from
    `from_int`, `parse` and the ring's arithmetic, which all return canonical
    values.  So an element is zero exactly when it is falsy, and `not a` is
    the zero test that matrix code uses in place of `is_zero`.

    Every ring here is Euclidean, and that is all Smith normal form asks of
    it: `size` measures a nonzero element and is 1 exactly on the units,
    `divmod(a, b)` returns (q, r) with a = q*b + r and r zero or of smaller
    size than b, and `normalizer(a)` is the unit u for which u*a is the
    canonical associate of a nonzero a.  Over Z these are abs, floor
    division and the sign (u*a = |a|); over a field every nonzero element
    has size 1, the remainder is always zero, and u*a = 1.
    """

    token: str
    is_field: bool

    def zero(self):
        return self.from_int(0)

    def one(self):
        return self.from_int(1)

    def from_int(self, n: int):
        raise NotImplementedError

    def is_element(self, a) -> bool:
        """Whether a is a canonical element of this ring."""
        raise NotImplementedError

    def add(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def is_zero(self, a) -> bool:
        raise NotImplementedError

    def is_unit(self, a) -> bool:
        raise NotImplementedError

    def inv(self, a):
        """Inverse of a unit."""
        raise NotImplementedError

    def size(self, a) -> int:
        """Euclidean size of a nonzero element; 1 exactly for the units."""
        raise NotImplementedError

    def divmod(self, a, b):
        """(q, r) with a = q*b + r and r zero or smaller in size than b != 0."""
        raise NotImplementedError

    def normalizer(self, a):
        """The unit u that makes u*a the canonical associate of a nonzero a."""
        raise NotImplementedError

    def exact_div(self, a, b):
        """a / b when b divides a exactly; raises otherwise."""
        if not b:
            raise TwistlabError(f"division by zero in {self.token}")
        q, r = self.divmod(a, b)
        if r:
            raise TwistlabError(f"{b} does not divide {a} in {self.token}")
        return q

    def parse(self, text: str):
        raise NotImplementedError

    def __repr__(self):
        return self.token

    def __eq__(self, other):
        return isinstance(other, Ring) and self.token == other.token

    def __hash__(self):
        return hash(self.token)


class IntegerRing(Ring):
    token = "Z"
    is_field = False

    add = staticmethod(operator.add)
    sub = staticmethod(operator.sub)
    mul = staticmethod(operator.mul)
    neg = staticmethod(operator.neg)
    size = staticmethod(abs)
    divmod = staticmethod(divmod)

    def from_int(self, n):
        return int(n)

    def is_element(self, a):
        return type(a) is int

    def is_zero(self, a):
        return a == 0

    def is_unit(self, a):
        return a in (1, -1)

    def inv(self, a):
        if a not in (1, -1):
            raise TwistlabError(f"{a} is not a unit in Z")
        return a

    def normalizer(self, a):
        return 1 if a > 0 else -1

    def parse(self, text):
        try:
            return int(text)
        except ValueError:
            raise TwistlabError(f"bad integer {text!r}") from None


class RationalField(Ring):
    token = "Q"
    is_field = True

    def from_int(self, n):
        return Fraction(n)

    def is_element(self, a):
        return type(a) is Fraction

    add = staticmethod(operator.add)
    sub = staticmethod(operator.sub)
    mul = staticmethod(operator.mul)
    neg = staticmethod(operator.neg)

    def is_zero(self, a):
        return a == 0

    def is_unit(self, a):
        return a != 0

    def inv(self, a):
        if a == 0:
            raise TwistlabError("0 is not a unit in Q")
        return 1 / Fraction(a)

    def size(self, a):
        return 1

    def divmod(self, a, b):
        return a / b, Fraction(0)

    def normalizer(self, a):
        return self.inv(a)

    def parse(self, text):
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError):
            raise TwistlabError(f"bad rational {text!r}") from None


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


class PrimeField(Ring):
    is_field = True

    def __init__(self, p: int):
        if p >= 2**31:
            raise TwistlabError(f"prime field order {p} exceeds 2^31")
        if not _is_prime(p):
            raise TwistlabError(f"{p} is not prime")
        self.p = p
        self.token = f"F{p}"

    def from_int(self, n):
        return n % self.p

    def is_element(self, a):
        return type(a) is int and 0 <= a < self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def is_zero(self, a):
        return a % self.p == 0

    def is_unit(self, a):
        return a % self.p != 0

    def inv(self, a):
        if a % self.p == 0:
            raise TwistlabError(f"0 is not a unit in {self.token}")
        return pow(a, -1, self.p)

    def size(self, a):
        return 1

    def divmod(self, a, b):
        return self.mul(a, self.inv(b)), 0

    def normalizer(self, a):
        return self.inv(a)

    def parse(self, text):
        try:
            return int(text) % self.p
        except ValueError:
            raise TwistlabError(f"bad element {text!r} for {self.token}") from None


Z = IntegerRing()
Q = RationalField()

_PRIME_FIELDS: dict[int, PrimeField] = {}


def prime_field(p: int) -> PrimeField:
    if p not in _PRIME_FIELDS:
        _PRIME_FIELDS[p] = PrimeField(p)
    return _PRIME_FIELDS[p]


def ring_from_token(token: str) -> Ring:
    """Resolve Z, Q, or F<p> (e.g. F5) from its textual name."""
    token = token.strip()
    if token == "Z":
        return Z
    if token == "Q":
        return Q
    digits = token[1:]
    # ASCII only: str.isdigit() also accepts superscripts, which int() refuses.
    if token.startswith("F") and digits.isascii() and digits.isdigit():
        return prime_field(int(digits))
    raise TwistlabError(f"unsupported coefficient ring {token!r} (use Z, Q, or F<p>)")
