"""Exact arithmetic in Q(sqrt d) for the benchmark's output checks.

An element is ``(a + b*sqrt(d)) / c`` with integers ``a, b`` and ``c > 0``
in lowest terms.  Signs and floors use ``math.isqrt`` only, so this module
shares no code with the package it checks and imports nothing from it.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction


class QF:
    """Element ``(a + b*sqrt(d)) / c`` of Q(sqrt d), d > 1 squarefree."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: int, b: int, c: int, d: int):
        if c == 0:
            raise ZeroDivisionError("zero denominator")
        if c < 0:
            a, b, c = -a, -b, -c
        g = math.gcd(math.gcd(a, b), c)
        self.a, self.b, self.c, self.d = a // g, b // g, c // g, d

    @classmethod
    def rational(cls, q, d: int) -> "QF":
        q = Fraction(q)
        return cls(q.numerator, 0, q.denominator, d)

    def _lift(self, other) -> "QF":
        if isinstance(other, QF):
            if other.d != self.d:
                raise ValueError("field mismatch")
            return other
        return QF.rational(other, self.d)

    def __add__(self, other):
        o = self._lift(other)
        return QF(self.a * o.c + o.a * self.c, self.b * o.c + o.b * self.c,
                  self.c * o.c, self.d)

    __radd__ = __add__

    def __neg__(self):
        return QF(-self.a, -self.b, self.c, self.d)

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __rsub__(self, other):
        return self._lift(other) - self

    def __mul__(self, other):
        o = self._lift(other)
        return QF(self.a * o.a + self.d * self.b * o.b,
                  self.a * o.b + self.b * o.a, self.c * o.c, self.d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        # 1 / ((a + b r) / c) = c (a - b r) / (a^2 - d b^2)
        norm = o.a * o.a - o.d * o.b * o.b
        return self * QF(o.c * o.a, -o.c * o.b, norm, self.d)

    def __eq__(self, other) -> bool:
        try:
            o = self._lift(other)
        except (TypeError, ValueError):
            return NotImplemented
        return (self.a, self.b, self.c) == (o.a, o.b, o.c)

    def __hash__(self) -> int:
        return hash((self.a, self.b, self.c, self.d))

    def floor(self) -> int:
        """floor((a + b sqrt d) / c) = (a + floor(b sqrt d)) // c."""
        r = math.isqrt(self.b * self.b * self.d)
        if self.b < 0:
            r = -r - 1
        return (self.a + r) // self.c

    def frac(self) -> "QF":
        return self - self.floor()

    def sign(self) -> int:
        if self == 0:
            return 0
        return -1 if self.floor() < 0 else 1

    def __lt__(self, other) -> bool:
        return (self - other).sign() < 0

    def __le__(self, other) -> bool:
        return (self - other).sign() <= 0

    def __gt__(self, other) -> bool:
        return (self - other).sign() > 0

    def __ge__(self, other) -> bool:
        return (self - other).sign() >= 0

    def scaled_floor(self, bits: int) -> int:
        """floor(x * 2**bits), exact."""
        return QF(self.a << bits, self.b << bits, self.c, self.d).floor()

    def __float__(self) -> float:
        return float(Fraction(self.scaled_floor(80), 1 << 80))

    def __repr__(self) -> str:
        return f"({self.a}{self.b:+d}*sqrt{self.d})/{self.c}"


def _sqrt(d: int) -> QF:
    return QF(0, 1, 1, d)


SQRT5 = _sqrt(5)
PHI = (1 + SQRT5) * Fraction(1, 2)          # the golden ratio
INV_PHI = PHI - 1
INV_PHI2 = 2 - PHI
INV_PHI3 = 2 * PHI - 3


_SCALAR = re.compile(r"([+-]?\d+(?:/\d+)?)(?:([+-]\d+(?:/\d+)?)\*l)?")


def parse_golden(text: str) -> QF:
    """Parse the textual scalars the orbit dumps carry.

    The forms are a rational ``p/q`` and ``a+b*l`` / ``a-b*l`` with rational
    ``a, b``, where ``l`` is the golden ratio (quadratic context ``1,-1``).
    """
    m = _SCALAR.fullmatch(text)
    if m is None:
        raise ValueError(f"cannot parse scalar {text!r}")
    value = QF.rational(Fraction(m.group(1)), 5)
    if m.group(2) is not None:
        value = value + Fraction(m.group(2)) * PHI
    return value
