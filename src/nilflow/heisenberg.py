"""The Heisenberg group H3 and its Lie algebra over generic scalars.

Points are upper triangular unipotent matrices written ``[x, y, z]`` with the
law ``[x,y,z] * [x',y',z'] = [x+x', y+y', z+z'+x*y']``.  A scalar is anything
with ``+ - * /`` and ``==``, and with ``math.floor`` where a coset is reduced:
``Fraction``, :class:`~nilflow.scalar.QuadraticNumber` or ``float``; integers
are promoted to :class:`~nilflow.scalar.Rational` so that halving and floors
stay exact.  Results of the law are built by ``_point`` and ``_vector`` from
coordinates that are already promoted.
"""

from __future__ import annotations

import itertools
import math

from .scalar import (
    ParseError,
    QuadraticContext,
    _field,
    _floor_parts,
    _one_context,
    _over,
    _rational,
    _triple,
    parse_scalar,
)


_new = object.__new__


def _promote(v):
    if isinstance(v, int):
        return _rational(v)
    return v


class GroupPoint:
    """Group element [x, y, z]."""

    __slots__ = ("x", "y", "z")

    def __init__(self, x, y, z):
        self.x = _promote(x)
        self.y = _promote(y)
        self.z = _promote(z)

    @staticmethod
    def identity() -> "GroupPoint":
        return GroupPoint(0, 0, 0)

    def __mul__(self, other: "GroupPoint") -> "GroupPoint":
        if not isinstance(other, GroupPoint):
            return NotImplemented
        x, ox = self.x, other.x
        # equal types cannot mix float and exact; test only unequal ones
        if type(x) is not type(ox) and isinstance(x, float) is not isinstance(ox, float):
            raise TypeError("cannot mix float and exact scalars")
        return _point(x + ox, self.y + other.y, self.z + other.z + x * other.y)

    def inverse(self) -> "GroupPoint":
        return _point(-self.x, -self.y, self.x * self.y - self.z)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GroupPoint):
            return NotImplemented
        return self.x == other.x and self.y == other.y and self.z == other.z

    def __hash__(self) -> int:
        return hash((self.x, self.y, self.z))

    def __str__(self) -> str:
        return f"[{self.x}, {self.y}, {self.z}]"

    def __repr__(self) -> str:
        return f"GroupPoint({self.x!r}, {self.y!r}, {self.z!r})"


class AlgebraVector:
    """Lie-algebra element (alpha, beta, gamma)."""

    __slots__ = ("alpha", "beta", "gamma")

    def __init__(self, alpha, beta, gamma):
        self.alpha = _promote(alpha)
        self.beta = _promote(beta)
        self.gamma = _promote(gamma)

    def scale(self, t) -> "AlgebraVector":
        return _vector(self.alpha * t, self.beta * t, self.gamma * t)

    def __add__(self, other: "AlgebraVector") -> "AlgebraVector":
        return _vector(self.alpha + other.alpha, self.beta + other.beta,
                       self.gamma + other.gamma)

    def __eq__(self, other) -> bool:
        if not isinstance(other, AlgebraVector):
            return NotImplemented
        return (
            self.alpha == other.alpha
            and self.beta == other.beta
            and self.gamma == other.gamma
        )

    def __hash__(self) -> int:
        return hash((self.alpha, self.beta, self.gamma))

    def __repr__(self) -> str:
        return f"AlgebraVector({self.alpha!r}, {self.beta!r}, {self.gamma!r})"


def _point(x, y, z) -> GroupPoint:
    """A group point of promoted coordinates, such as a result of the law."""
    g = _new(GroupPoint)
    g.x, g.y, g.z = x, y, z
    return g


def _vector(alpha, beta, gamma) -> AlgebraVector:
    """An algebra vector of promoted coordinates."""
    v = _new(AlgebraVector)
    v.alpha, v.beta, v.gamma = alpha, beta, gamma
    return v


class LatticePoint:
    """Element [n, m, p] of the integer lattice."""

    __slots__ = ("n", "m", "p")

    def __init__(self, n: int, m: int, p: int):
        if not all(isinstance(v, int) for v in (n, m, p)):
            raise TypeError("lattice coordinates must be integers")
        self.n = n
        self.m = m
        self.p = p

    def to_group(self) -> GroupPoint:
        return GroupPoint(self.n, self.m, self.p)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LatticePoint):
            return NotImplemented
        return (self.n, self.m, self.p) == (other.n, other.m, other.p)

    def __hash__(self) -> int:
        return hash((self.n, self.m, self.p))

    def __repr__(self) -> str:
        return f"LatticePoint({self.n}, {self.m}, {self.p})"


class NilPoint:
    """Canonical coset representative in [0,1)^3 plus the reducing witness."""

    __slots__ = ("rep", "witness")

    def __init__(self, rep: GroupPoint, witness: LatticePoint):
        self.rep = rep
        self.witness = witness

    def __eq__(self, other) -> bool:
        if not isinstance(other, NilPoint):
            return NotImplemented
        return self.rep == other.rep

    def __hash__(self) -> int:
        return hash(self.rep)

    def __repr__(self) -> str:
        return f"NilPoint({self.rep!r}, {self.witness!r})"


def commutator(a: GroupPoint, b: GroupPoint) -> GroupPoint:
    return a * b * a.inverse() * b.inverse()


def exp_point(v: AlgebraVector) -> GroupPoint:
    return _point(v.alpha, v.beta, v.gamma + v.alpha * v.beta / 2)


def log_point(g: GroupPoint) -> AlgebraVector:
    return _vector(g.x, g.y, g.z - g.x * g.y / 2)


def bracket(u: AlgebraVector, v: AlgebraVector) -> AlgebraVector:
    """Lie bracket (0, 0, (alpha*beta' - alpha'*beta) / 2)."""
    c = (u.alpha * v.beta - v.alpha * u.beta) / 2
    zero = c - c
    return AlgebraVector(zero, zero, c)


def norm4(g: GroupPoint):
    """Fourth power of the group norm; kept exact by avoiding the root."""
    s = g.x * g.x + g.y * g.y
    w = g.z - g.x * g.y / 2
    return s * s + w * w


def dist(a: GroupPoint, b: GroupPoint) -> float:
    return float(norm4(a.inverse() * b)) ** 0.25


def flow(v: AlgebraVector, t, g: GroupPoint) -> GroupPoint:
    """Left action of the one-parameter subgroup exp(t*v)."""
    return exp_point(v.scale(t)) * g


def translate(v: AlgebraVector, g: GroupPoint) -> GroupPoint:
    return exp_point(v) * g


def central_flow(t, g: GroupPoint) -> GroupPoint:
    return GroupPoint(g.x, g.y, g.z + t)


def dilate(t, g: GroupPoint) -> GroupPoint:
    """Grading automorphism [x, y, z] -> [t*x, t*y, t^2*z]."""
    return _point(g.x * t, g.y * t, g.z * t * t)


def canonicalize(g: GroupPoint) -> NilPoint:
    """Reduce to the fundamental cube: find w in the lattice with g*w in [0,1)^3."""
    n = -math.floor(g.x)
    m = -math.floor(g.y)
    z1 = g.z + g.x * m
    p = -math.floor(z1)
    w = _new(LatticePoint)  # three ints from the floors
    w.n, w.m, w.p = n, m, p
    return NilPoint(_point(g.x + n, g.y + m, z1 + p), w)


def _translation_parts(step: GroupPoint, start: GroupPoint, n: int):
    """The integer kernel of :func:`translation_orbit`: ``(ctx, (Dx, Dy,
    Dz), parts)``, where ``parts`` yields ``(X1, X2, Y1, Y2, Z1, Z2)`` for
    rows 0 .. n, row 0 being ``canonicalize(start).rep``: x ``= (X1 +
    X2*l)/Dx`` and so on, not in lowest terms.

    The denominators are fixed for the whole orbit: x over the lcm ``Dx`` of
    the x-denominators of step and start, y likewise, z over one that also
    holds ``step.x * y`` and ``g.x * m``.  A step is integer sums, one field
    product by ``step.x`` and three floors by the scalar layer's
    ``_floor_parts``.  ``step`` must have field coordinates of one context
    and the start rationals or elements of it, else TypeError; the check
    runs when the function is called, before any row.
    """
    ctx = _one_context((step.x, step.y, step.z))
    rep = canonicalize(start).rep
    a, b, c = (_triple(v, ctx) for v in (step.x, step.y, step.z))
    x, y, z = (_triple(v, ctx) for v in (rep.x, rep.y, rep.z))
    Dx, Dy = math.lcm(x[2], a[2]), math.lcm(y[2], b[2])
    Dz = math.lcm(z[2], c[2], a[2] * Dy, Dx)
    T, disc = ctx.trace, ctx.disc
    (a1, a2), (b1, b2), (c1, c2) = _over(a, Dx), _over(b, Dy), _over(c, Dz)
    # step.x * y over Dz is (p1 + p2 l)(Y1 + Y2 l) with l^2 = T l - det
    f = Dz // (a[2] * Dy)
    p1, p2 = a[0] * f, a[1] * f
    r, q, e = ctx.det * p2, p1 + T * p2, Dz // Dx

    def parts():
        (X1, X2), (Y1, Y2), (Z1, Z2) = _over(x, Dx), _over(y, Dy), _over(z, Dz)
        yield X1, X2, Y1, Y2, Z1, Z2
        for _ in range(n):
            # g = step * rep, then canonicalize(g) with its floors n, m, p
            gx1, gx2, gy1, gy2 = X1 + a1, X2 + a2, Y1 + b1, Y2 + b2
            Z1, Z2 = Z1 + c1 + p1 * Y1 - r * Y2, Z2 + c2 + q * Y2 + p2 * Y1
            m = _floor_parts(gy1, gy2, Dy, T, disc)
            X1, X2 = gx1 - _floor_parts(gx1, gx2, Dx, T, disc) * Dx, gx2
            Y1, Y2 = gy1 - m * Dy, gy2
            if m:
                Z1, Z2 = Z1 - gx1 * m * e, Z2 - gx2 * m * e
            Z1 -= _floor_parts(Z1, Z2, Dz, T, disc) * Dz
            yield X1, X2, Y1, Y2, Z1, Z2

    return ctx, (Dx, Dy, Dz), parts()


def translation_orbit(step: GroupPoint, start: GroupPoint, n: int):
    """The canonical representatives of the cosets of start, step * start,
    ..., step^n * start: the orbit of the niltranslation by ``step``.

    Row 0 is ``canonicalize(start).rep``, whose coordinates keep the types
    of the start's.  Each later row is ``canonicalize(step * rep)`` of the
    row before, computed on integers by :func:`_translation_parts` and
    returned as three field elements in lowest terms, one gcd each.  Its
    checks run when this function is called, before any row.
    """
    ctx, (Dx, Dy, Dz), parts = _translation_parts(step, start, n)
    next(parts)  # row 0 is returned as the start's representative
    return itertools.chain((canonicalize(start).rep,), (
        _point(_field(X1, X2, Dx, ctx), _field(Y1, Y2, Dy, ctx), _field(Z1, Z2, Dz, ctx))
        for X1, X2, Y1, Y2, Z1, Z2 in parts))


def coset_eq(a: GroupPoint, b: GroupPoint) -> bool:
    """Same right coset modulo the integer lattice."""
    return canonicalize(a).rep == canonicalize(b).rep


def flow_exchange_holds(u: AlgebraVector, v: AlgebraVector, t, s, g: GroupPoint) -> bool:
    """Exchange rule for two flows.

    Swapping the order of Phi_u^t and Phi_v^s costs a central correction with
    exponent (beta*alpha' - beta'*alpha) * t * s; the central flow itself
    commutes with everything.
    """
    delta = u.beta * v.alpha - v.beta * u.alpha
    lhs = flow(v, s, flow(u, t, g))
    rhs = flow(u, t, flow(v, s, central_flow(delta * t * s, g)))
    return lhs == rhs


def parse_group_point(text: str, ctx: QuadraticContext | None = None) -> GroupPoint:
    """Parse '[x, y, z]' with scalar syntax from the scalar module."""
    s = text.strip()
    if not (s.startswith("[") and s.endswith("]")):
        raise ParseError(f"expected '[x, y, z]', got {text!r}")
    parts = s[1:-1].split(",")
    if len(parts) != 3:
        raise ParseError(f"expected three coordinates in {text!r}")
    return GroupPoint(*(parse_scalar(p, ctx) for p in parts))
