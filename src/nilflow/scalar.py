"""Exact arithmetic in real quadratic fields.

A field element is ``a + b*l`` where ``l`` is the larger root of
``X^2 - T*X + D`` for integers ``T``, ``D`` with positive, non-square
discriminant.  Everything here is exact: signs, floors and comparisons are
decided by integer square roots, never by floating point.  Floats only
appear through :meth:`QuadraticNumber.to_float`, which returns the correctly
rounded double and a bound on its error.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

_new = object.__new__
_gcd = math.gcd


def _rational_sum(name: str):
    """``Rational.__add__``, ``__sub__`` or ``__rsub__``, in one frame."""
    neg, rev, fallback = name != "__add__", name == "__rsub__", getattr(Fraction, name)

    def op(a, b):
        tb = type(b)
        na, d = a._numerator, a._denominator
        if tb is Rational or tb is Fraction:
            nb, db = b._numerator, b._denominator
            if neg:
                nb = -nb
            if db == d:  # one gcd
                n = na + nb
                g = _gcd(n, d)
                if g != 1:
                    n, d = n // g, d // g
            else:  # Knuth, TAOCP 4.5.1, as in Fraction._add
                g = _gcd(d, db)
                if g == 1:
                    n, d = na * db + d * nb, d * db
                else:
                    s = d // g
                    n = na * (db // g) + nb * s
                    g2 = _gcd(n, g)
                    n, d = (n, s * db) if g2 == 1 else (n // g2, s * (db // g2))
        elif tb is int or tb is bool:  # gcd(na + b*d, d) = gcd(na, d) = 1
            n = na - b * d if neg else na + b * d
        else:
            return fallback(a, b)
        x = _new(Rational)
        x._numerator, x._denominator = -n if rev else n, d
        return x

    op.__name__, op.__qualname__ = name, "Rational." + name
    return op


def _rational_product(name: str):
    """``Rational.__mul__``, ``__truediv__`` or ``__rtruediv__``, in one frame."""
    div, rev, fallback = name != "__mul__", name == "__rtruediv__", getattr(Fraction, name)

    def op(a, b):
        tb = type(b)
        if tb is Rational or tb is Fraction:
            nb, db = b._numerator, b._denominator
        elif tb is int or tb is bool:
            nb, db = b, 1
        else:
            return fallback(a, b)
        na, da = a._numerator, a._denominator
        if rev:
            na, da, nb, db = nb, db, na, da
        if div:  # times db/nb, with a positive denominator
            if nb > 0:
                nb, db = db, nb
            elif nb < 0:
                nb, db = -db, -nb
            else:
                return fallback(a, b)  # raises ZeroDivisionError
        # the two cross gcds of lowest-terms factors
        g = _gcd(na, db)
        if g != 1:
            na, db = na // g, db // g
        g = _gcd(nb, da)
        if g != 1:
            nb, da = nb // g, da // g
        x = _new(Rational)
        x._numerator, x._denominator = na * nb, da * db
        return x

    op.__name__, op.__qualname__ = name, "Rational." + name
    return op


class Rational(Fraction):
    """A ``Fraction`` whose exact arithmetic works directly on its two integers.

    ``+ - * /``, unary minus, ``==``, integer powers and ``math.floor`` with
    an ``int``, ``bool`` or ``Fraction`` partner return a ``Rational`` in
    lowest terms, computed in the operator's own frame: one gcd for a sum
    over a common denominator, else Knuth's two (TAOCP 4.5.1, as in
    ``Fraction``), and the two cross gcds for a product or quotient, with no
    ``numbers``-ABC dispatch and no re-normalising constructor.  Every other
    partner (float, complex, :class:`QuadraticNumber`, foreign numbers) and
    every other operation is ``Fraction``'s own, so mixed arithmetic,
    hashing, ordering, ``str`` and ``repr`` (``Fraction(n, d)``) are the
    stdlib's.  Instances keep the inherited ``_numerator``/``_denominator``
    slots and add none.
    """

    __slots__ = ()

    __add__ = __radd__ = _rational_sum("__add__")
    __sub__ = _rational_sum("__sub__")
    __rsub__ = _rational_sum("__rsub__")
    __mul__ = __rmul__ = _rational_product("__mul__")
    __truediv__ = _rational_product("__truediv__")
    __rtruediv__ = _rational_product("__rtruediv__")

    def __neg__(a):
        x = _new(Rational)
        x._numerator, x._denominator = -a._numerator, a._denominator
        return x

    def __pow__(a, b):
        if type(b) is not int:
            return Fraction.__pow__(a, b)
        na, da = a._numerator, a._denominator
        if b >= 0:
            return _coprime(na ** b, da ** b)
        if na > 0:
            return _coprime(da ** -b, na ** -b)
        if na < 0:
            return _coprime((-da) ** -b, (-na) ** -b)
        return Fraction.__pow__(a, b)  # raises ZeroDivisionError

    def __eq__(a, b):
        tb = type(b)
        if tb is Rational or tb is Fraction:
            return a._numerator == b._numerator and a._denominator == b._denominator
        if tb is int:
            return a._numerator == b and a._denominator == 1
        return Fraction.__eq__(a, b)

    # defining __eq__ clears the inherited hash
    __hash__ = Fraction.__hash__

    def __floor__(a):
        return a._numerator // a._denominator

    def __repr__(self):
        return f"Fraction({self._numerator}, {self._denominator})"


def _coprime(n: int, d: int) -> Rational:
    """``n/d`` for coprime integers with ``d > 0``, no normalisation."""
    x = _new(Rational)
    x._numerator, x._denominator = n, d
    return x


def _rational(n: int, d: int = 1) -> Rational:
    """The rational ``n/d`` of two integers in lowest terms.

    The one constructor of the package's rationals; ``n`` may be a bool, and
    a zero ``d`` raises ``ZeroDivisionError`` as ``Fraction(n, 0)`` does.
    """
    if d == 1:
        return _coprime(int(n), 1)
    if d == 0:
        raise ZeroDivisionError(f"Fraction({n}, 0)")
    g = _gcd(n, d)
    if d < 0:
        g = -g
    return _coprime(n // g, d // g)


class ParseError(ValueError):
    """Malformed textual input; ``position`` is the offending index if known."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class QuadraticContext:
    """The field Q(l) for l = (T + sqrt(T^2 - 4D)) / 2, the larger root.

    Rejects perfect-square discriminants: rational roots belong in plain
    ``Fraction`` arithmetic, and irrationality is what keeps ``sign`` and
    ``floor`` total.
    """

    # _root = (m, floor(sqrt(disc) * 2^m)), grown on demand by to_float
    __slots__ = ("trace", "det", "disc", "_root")

    def __init__(self, trace: int, det: int):
        if not isinstance(trace, int) or not isinstance(det, int):
            raise ValueError("context coefficients must be integers")
        disc = trace * trace - 4 * det
        if disc <= 0:
            raise ValueError(f"discriminant {disc} is not positive")
        root = math.isqrt(disc)
        if root * root == disc:
            raise ValueError(f"discriminant {disc} is a perfect square")
        self.trace, self.det, self.disc = trace, det, disc
        self._root = (0, root)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, QuadraticContext)
                and (self.trace, self.det) == (other.trace, other.det))

    def __hash__(self) -> int:
        return hash((self.trace, self.det))

    def __repr__(self) -> str:
        return f"QuadraticContext({self.trace}, {self.det})"

    @property
    def lam(self) -> "QuadraticNumber":
        """The distinguished root as a field element."""
        return QuadraticNumber(0, 1, self)


def _sign_parts(A: int, B: int, trace: int, disc: int) -> int:
    """Sign of ``A + B*l`` in the field of ``trace`` and ``disc``.

    With ``P = 2A + B*trace`` the element is ``(P + B*sqrt(disc))/2``;
    ``sqrt(disc)`` is irrational, so the comparison of ``B^2 disc`` with
    ``P^2`` never ties.  The one sign of the package: ``QuadraticNumber``'s
    comparisons and the orbit kernels call it.
    """
    if B == 0:
        return (A > 0) - (A < 0)
    sb = 1 if B > 0 else -1
    P = 2 * A + B * trace
    if P == 0 or (P > 0) == (B > 0):
        return sb
    return sb if B * B * disc > P * P else -sb


def _floor_parts(A: int, B: int, d: int, trace: int, disc: int) -> int:
    """``floor((A + B*l)/d)`` for ``d > 0``, from one integer square root.

    ``(P + B*sqrt(disc))/2d`` lies strictly between ``(P + r)/2d`` and
    ``(P + r + 1)/2d`` for ``B > 0``, with ``r = isqrt(B^2 disc)``, and
    mirrored for ``B < 0``.  The one floor of the package:
    ``QuadraticNumber.floor`` and the orbit kernels call it.
    """
    if B == 0:
        return A // d
    P, r = 2 * A + B * trace, math.isqrt(B * B * disc)
    return (P + r) // (2 * d) if B > 0 else (P - r - 1) // (2 * d)


def _float_parts(A: int, B: int, d: int, ctx: "QuadraticContext") -> float:
    """The correctly rounded double of ``(A + B*l)/d`` for ``d > 0``, in or
    out of lowest terms; ``QuadraticNumber.to_float`` and the orbit writer
    call it.

    For ``B != 0``, with ``P = 2A + B*trace`` and ``S = floor(sqrt(disc) *
    2^m)`` from the context, the value times ``D = 2d << m`` lies strictly
    between ``N = (P << m) + B*S`` and ``N + B``.  ``int / int`` rounds
    correctly and rounding is monotone, so equal quotients at both ends
    certify the double; the value is irrational, hence never a rounding
    boundary, and doubling ``m`` ends the loop.  Overflow raises
    ``OverflowError``.
    """
    if B == 0:
        return A / d
    P, den = 2 * A + B * ctx.trace, 2 * d
    m = 64 + B.bit_length() + den.bit_length()
    while True:
        M, S = ctx._root
        if M < m:
            S = math.isqrt(ctx.disc << 2 * m)
            ctx._root = (m, S)
        else:
            S >>= M - m
        N, D = (P << m) + B * S, den << m
        v = N / D
        if v == (N + B) / D:
            return v
        m *= 2


def _text_parts(A: int, B: int, d: int, ctx: "QuadraticContext | None" = None) -> str:
    """The text of ``(A + B*l)/d`` for ``d > 0``, in or out of lowest terms:
    ``a`` when ``B == 0``, else ``a+b*l`` or ``a-|b|*l``, with ``a`` and
    ``|b|`` as ``str(Fraction)`` writes them, so equal values print alike
    whatever their type; ``QuadraticNumber.__str__`` and the orbit writer
    call it.  The text uses only ``0-9 / + - * l``; ``ctx`` is not read, so
    the orbit writer calls this and ``_float_parts`` alike."""
    g = _gcd(A, d)
    a = str(A // g) if g == d else f"{A // g}/{d // g}"
    if B == 0:
        return a
    sign = "+"
    if B < 0:
        sign, B = "-", -B
    h = _gcd(B, d)
    b = str(B // h) if h == d else f"{B // h}/{d // h}"
    return f"{a}{sign}{b}*l"


def _field(A: int, B: int, d: int, ctx: "QuadraticContext") -> "QuadraticNumber":
    """The element ``(A + B*l)/d`` of ``ctx`` for ``d > 0``, in lowest terms by one gcd."""
    g = _gcd(A, B, d)
    x = _new(QuadraticNumber)
    x.A, x.B, x.d, x.ctx = (A, B, d, ctx) if g == 1 else (A // g, B // g, d // g, ctx)
    return x


def _one_context(constants) -> "QuadraticContext":
    """The field of ``constants``, which must all be ``QuadraticNumber``s of one
    context: the orbit kernels take their map's constants only from a field."""
    ctx = None
    for x in constants:
        if type(x) is not QuadraticNumber or not (ctx is None or x.ctx is ctx or x.ctx == ctx):
            raise TypeError("an orbit kernel needs field constants of one context, "
                            f"got {type(x).__name__} {x!r}")
        ctx = ctx or x.ctx
    return ctx


def _triple(x, ctx: "QuadraticContext") -> tuple[int, int, int]:
    """``(A, B, d)`` with ``x = (A + B*l)/d``, for ``x`` a rational or an
    element of ``ctx``; anything else is a TypeError."""
    if type(x) is QuadraticNumber and (x.ctx is ctx or x.ctx == ctx):
        return x.A, x.B, x.d
    if isinstance(x, (int, Fraction)):
        return x.numerator, 0, x.denominator
    raise TypeError(f"expected a rational or an element of {ctx!r}, got {x!r}")


def _over(t: tuple[int, int, int], D: int) -> tuple[int, int]:
    """The numerators of the triple ``t`` over a multiple ``D`` of its denominator."""
    A, B, d = t
    return A * (D // d), B * (D // d)


def _additive(name: str):
    """``QuadraticNumber.__add__``, ``__sub__`` or ``__rsub__``, in one frame."""
    neg, rev = name != "__add__", name == "__rsub__"

    def op(self, other):
        t = type(other)
        d = self.d
        if t is int:  # gcd(A + n*d, B, d) = gcd(A, B, d) = 1
            A, B = self.A + (-other if neg else other) * d, self.B
        else:
            if t is QuadraticNumber and other.ctx is self.ctx:
                A2, B2, d2 = other.A, other.B, other.d
            elif t is Rational or t is Fraction:
                A2, B2, d2 = other._numerator, 0, other._denominator
            elif (o := self._parts(other)) is None:
                return NotImplemented
            else:
                A2, B2, d2 = o
            if neg:
                A2, B2 = -A2, -B2
            if d2 == d:
                A, B = self.A + A2, self.B + B2
            else:
                A, B, d = self.A * d2 + A2 * d, self.B * d2 + B2 * d, d * d2
            g = _gcd(A, B, d)
            if g != 1:
                A, B, d = A // g, B // g, d // g
        x = _new(QuadraticNumber)
        x.A, x.B, x.d, x.ctx = (-A, -B, d, self.ctx) if rev else (A, B, d, self.ctx)
        return x

    op.__name__, op.__qualname__ = name, "QuadraticNumber." + name
    return op


class QuadraticNumber:
    """Exact element ``a + b*l`` of a quadratic field.

    Stored as integers ``(A + B*l)/d`` with ``d > 0`` and
    ``gcd(A, B, d) = 1``, so equal elements have equal triples.  ``a`` and
    ``b`` are the rational coordinates, computed on demand.  With
    ``P = 2A + B*T`` the element is ``(P + B*sqrt(disc)) / 2d``; sign, floor
    and float export are decided on that form.
    """

    __slots__ = ("A", "B", "d", "ctx")

    def __init__(self, a, b, ctx: QuadraticContext):
        if type(a) is int and type(b) is int:
            self.A, self.B, self.d = a, b, 1
        elif isinstance(a, (int, Fraction)) and isinstance(b, (int, Fraction)):
            q, s = a.denominator, b.denominator
            d = q * s // math.gcd(q, s)
            # lowest-terms coordinates give gcd(A, B, d) = 1 over their lcm
            self.A, self.B, self.d = a.numerator * (d // q), b.numerator * (d // s), d
        else:
            raise TypeError("expected rationals, got "
                            f"{type(a).__name__}, {type(b).__name__}")
        self.ctx = ctx

    @property
    def a(self) -> Rational:
        return _rational(self.A, self.d)

    @property
    def b(self) -> Rational:
        return _rational(self.B, self.d)

    def _parts(self, other) -> "tuple[int, int, int] | None":
        """``other`` as a lowest-terms triple in this field; None for foreign types."""
        if isinstance(other, QuadraticNumber):
            if other.ctx is self.ctx or other.ctx == self.ctx:
                return other.A, other.B, other.d
            raise ValueError(f"context mismatch: {self.ctx!r} vs {other.ctx!r}")
        if isinstance(other, (int, Fraction)):
            return other.numerator, 0, other.denominator
        return None

    # -- ring/field operations ------------------------------------------
    # One frame for a same-context, int or Rational partner; a result takes
    # a gcd only where its lowest terms are not already known.

    __add__ = __radd__ = _additive("__add__")
    __sub__ = _additive("__sub__")
    __rsub__ = _additive("__rsub__")

    def __neg__(self):
        x = _new(QuadraticNumber)
        x.A, x.B, x.d, x.ctx = -self.A, -self.B, self.d, self.ctx
        return x

    def __mul__(self, other):
        t = type(other)
        ctx = self.ctx
        if t is int:  # with g = gcd(n, d): gcd(A*n/g, B*n/g, d/g) | gcd(A, B, d)
            g = _gcd(other, self.d)
            n = other // g
            A, B, d = self.A * n, self.B * n, self.d // g
        else:
            if t is QuadraticNumber and other.ctx is ctx:
                A2, B2, d2 = other.A, other.B, other.d
            elif t is Rational or t is Fraction:
                A2, B2, d2 = other._numerator, 0, other._denominator
            elif (o := self._parts(other)) is None:
                return NotImplemented
            else:
                A2, B2, d2 = o
            # (A1 + B1 l)(A2 + B2 l) with l^2 = T l - D
            A1, B1 = self.A, self.B
            bb = B1 * B2
            A, B = A1 * A2 - ctx.det * bb, A1 * B2 + B1 * A2 + ctx.trace * bb
            d = self.d * d2
            g = _gcd(A, B, d)
            if g != 1:
                A, B, d = A // g, B // g, d // g
        x = _new(QuadraticNumber)
        x.A, x.B, x.d, x.ctx = A, B, d, ctx
        return x

    __rmul__ = __mul__

    def __truediv__(self, other):
        t = type(other)
        if t is QuadraticNumber and other.ctx is self.ctx:
            A2, B2, d2 = other.A, other.B, other.d
        elif t is int:
            A2, B2, d2 = other, 0, 1
        elif t is Rational or t is Fraction:
            A2, B2, d2 = other._numerator, 0, other._denominator
        elif (o := self._parts(other)) is None:
            return NotImplemented
        else:
            A2, B2, d2 = o
        A1, B1, ctx = self.A, self.B, self.ctx
        if B2 == 0:  # x / (n/q) = (A1 q + B1 q l) / (d n)
            if A2 == 0:
                raise ZeroDivisionError("division by zero in quadratic field")
            A, B, d = A1 * d2, B1 * d2, self.d * A2
        else:
            # x/y = x conj(y) / N(y): (A1 + B1 l)(C - B2 l) with C = A2 + B2 T;
            # N(y) != 0 for irrational y
            T, D = ctx.trace, ctx.det
            C, bb = A2 + B2 * T, B1 * B2
            A, B = (A1 * C + D * bb) * d2, (B1 * C - A1 * B2 - T * bb) * d2
            d = self.d * (A2 * A2 + A2 * B2 * T + B2 * B2 * D)
        if d < 0:
            A, B, d = -A, -B, -d
        g = _gcd(A, B, d)
        x = _new(QuadraticNumber)
        x.A, x.B, x.d, x.ctx = A // g, B // g, d // g, ctx
        return x

    def __rtruediv__(self, other):
        o = (other, 0, 1) if type(other) is int else self._parts(other)
        if o is None:
            return NotImplemented
        x = _new(QuadraticNumber)
        x.A, x.B, x.d, x.ctx = *o, self.ctx
        return x / self

    def conjugate(self) -> "QuadraticNumber":
        """Ring automorphism a + b*l -> (a + b*T) - b*l; lowest terms stay."""
        x = _new(QuadraticNumber)
        x.A, x.B, x.d, x.ctx = self.A + self.B * self.ctx.trace, -self.B, self.d, self.ctx
        return x

    def field_norm(self) -> Rational:
        """N(a + b*l) = a^2 + a*b*T + b^2*D, zero only for the zero element."""
        A, B = self.A, self.B
        return _rational(A * A + A * B * self.ctx.trace + B * B * self.ctx.det,
                         self.d * self.d)

    # -- order structure --------------------------------------------------

    def sign(self) -> int:
        """Exact sign under the distinguished-root embedding."""
        return self._cmp(0)

    def __bool__(self) -> bool:
        return self.A != 0 or self.B != 0

    def __eq__(self, other) -> bool:
        t = type(other)
        if t is QuadraticNumber and other.ctx is self.ctx:
            return self.A == other.A and self.B == other.B and self.d == other.d
        if t is int:
            return self.A == other and self.B == 0 and self.d == 1
        if t is Rational or t is Fraction:
            return (self.A, self.B, self.d) == (other._numerator, 0, other._denominator)
        try:
            o = self._parts(other)
        except ValueError:
            return False
        return NotImplemented if o is None else (self.A, self.B, self.d) == o

    def __hash__(self) -> int:
        if self.B == 0:
            return hash(self.a)
        # (A, B, d) is unique for each element, so equal elements hash equally
        return hash((self.A, self.B, self.d, self.ctx.trace, self.ctx.det))

    def _cmp(self, other) -> int:
        """Sign of ``self - other`` from the cross-multiplied numerator, no gcd."""
        t = type(other)
        if t is QuadraticNumber and other.ctx is self.ctx:
            A2, B2, d2 = other.A, other.B, other.d
        elif t is int:
            A2, B2, d2 = other, 0, 1
        elif t is Rational or t is Fraction:
            A2, B2, d2 = other._numerator, 0, other._denominator
        elif (o := self._parts(other)) is None:
            return (self - other).sign()  # foreign types raise TypeError there
        else:
            A2, B2, d2 = o
        d, ctx = self.d, self.ctx
        if d2 == d:
            return _sign_parts(self.A - A2, self.B - B2, ctx.trace, ctx.disc)
        return _sign_parts(self.A * d2 - A2 * d, self.B * d2 - B2 * d, ctx.trace, ctx.disc)

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    # -- floor / float export ---------------------------------------------

    def floor(self) -> int:
        ctx = self.ctx
        return _floor_parts(self.A, self.B, self.d, ctx.trace, ctx.disc)

    def __floor__(self) -> int:
        # by name, so that math.floor follows a replaced floor
        return self.floor()

    def __ceil__(self) -> int:
        # through floor by name, as __floor__; with B != 0 the element is
        # irrational, so never an integer
        n = self.floor()
        return n if self.B == 0 and n * self.d == self.A else n + 1

    def to_float(self) -> tuple[float, float]:
        """Correctly rounded double (``_float_parts``) and the bound
        ``|v| * 2^-53`` on its error.  Overflow raises ``OverflowError``."""
        v = _float_parts(self.A, self.B, self.d, self.ctx)
        return v, abs(v) * 2.0 ** -53

    def __float__(self) -> float:
        return self.to_float()[0]

    # -- text ---------------------------------------------------------------

    def __str__(self) -> str:
        return _text_parts(self.A, self.B, self.d)

    def __repr__(self) -> str:
        return f"QuadraticNumber({self.a!r}, {self.b!r}, {self.ctx!r})"


# The golden field: l = (1 + sqrt(5)) / 2.
GOLDEN = QuadraticContext(1, -1)


def floor_mod1(x):
    """Split ``x = n + r`` with integer ``n`` and ``r`` in [0, 1), exactly."""
    if type(x) is QuadraticNumber:
        n = x.floor()
        return n, (x - n if n else x)
    x = _rational(x) if isinstance(x, int) else x
    n = math.floor(x)
    return n, x - n


_RATIONAL_RE = re.compile(r"[+-]?\d+(/\d+)?")
_UNSIGNED_RE = re.compile(r"\d+(/\d+)?")


def _token_rational(token: str) -> Rational:
    """A token matched by ``_RATIONAL_RE`` or ``_UNSIGNED_RE`` as a rational."""
    num, _, den = token.partition("/")
    return _rational(int(num), int(den) if den else 1)


def parse_rational(text: str, offset: int = 0) -> Rational:
    token = text.strip()
    if not _RATIONAL_RE.fullmatch(token):
        raise ParseError(f"bad rational {token!r}", offset)
    return _token_rational(token)


def parse_scalar(text: str, ctx: QuadraticContext | None = None):
    """Parse 'p/q' or 'a+b*l' (also 'l', '-l', 'b*l').

    Returns a :class:`Rational` when no ``l`` term is present, otherwise a
    ``QuadraticNumber`` in ``ctx``.
    """
    s = text.replace(" ", "")
    if not s:
        raise ParseError("empty scalar", 0)
    if "l" not in s:
        return parse_rational(s)
    if ctx is None:
        raise ParseError(f"{text!r} needs a quadratic context")
    a = b = _rational(0)
    pos = 0
    while pos < len(s):
        sign = 1
        if s[pos] == "+":
            pos += 1
        elif s[pos] == "-":
            sign = -1
            pos += 1
        m = _UNSIGNED_RE.match(s, pos)
        if m:
            coeff = _token_rational(m.group(0))
            pos = m.end()
        else:
            coeff = _rational(1)
        if pos < len(s) and s[pos] == "*":
            if m is None:
                raise ParseError("'*' without a coefficient", pos)
            pos += 1
            if pos >= len(s) or s[pos] != "l":
                raise ParseError("expected 'l' after '*'", pos)
        if pos < len(s) and s[pos] == "l":
            pos += 1
            b += sign * coeff
        elif m is not None:
            a += sign * coeff
        else:
            raise ParseError(f"cannot parse scalar near index {pos}", pos)
    return QuadraticNumber(a, b, ctx)
