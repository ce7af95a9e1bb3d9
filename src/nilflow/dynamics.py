"""Dynamics on the torus and on flow sections.

Four families of experiments live here:

* the two-branch strip maps over the golden rotation, their first-return
  maps and the exact renormalization conjugacy with transfer parameter
  a = -phi^3;
* the first-return map of the expanding eigenflow to the section along the
  contracting eigendirection, a two-interval exchange in the section
  parameter, with its self-induction check;
* the diagonal section {x + y in Z}, whose return map is a niltranslation
  with constant return time 1, and the exact conjugacy of its chart map
  with the golden skew product on the 2-torus;
* the plane regions and piecewise maps of the counterexample construction,
  plus conjugation-by-central-shift checks and Weyl-sum diagnostics.

Everything except the Weyl sums is exact; mismatches are reported with
witnesses rather than rounded away.  Only the Weyl sums use numpy, and they
import it when called, so the exact maps start without it.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import NamedTuple

from .factorization import (
    EigenData,
    eigen_data,
    factor,
    flow_of,
    gamma_from_integers,
    surface_quadric,
)
from .freegroup import FIBONACCI
from .heisenberg import (
    AlgebraVector,
    GroupPoint,
    exp_point,
    flow,
)
from .scalar import (
    GOLDEN,
    QuadraticNumber,
    _field,
    _floor_parts,
    _one_context,
    _over,
    _rational,
    _sign_parts,
    _triple,
    floor_mod1,
)

HALF = _rational(1, 2)

# Golden-field constants: PHI is the distinguished root, so PHI = phi.
PHI = GOLDEN.lam
INV_PHI = PHI - 1            # 1/phi
INV_PHI2 = 2 - PHI           # 1/phi^2
INV_PHI4 = 5 - 3 * PHI       # 1/phi^4
HALF_INV_PHI3 = PHI - _rational(3, 2)   # 1/(2 phi^3)
PHI2 = PHI + 1
PHI3 = 2 * PHI + 1


def _in_field(x, ctx, error: str) -> QuadraticNumber:
    """Promote a rational to the field ``ctx``; ``error`` if ``x`` lies in another."""
    if isinstance(x, QuadraticNumber):
        if x.ctx is not ctx and x.ctx != ctx:
            raise ValueError(error)
        return x
    if not isinstance(x, (int, Fraction)):
        x = Fraction(x)  # floats and decimal strings convert exactly
    return QuadraticNumber(x, 0, ctx)


def golden(x):
    """Promote a rational to the golden field."""
    return _in_field(x, GOLDEN, "expected a golden-field scalar")


# ---------------------------------------------------------------------------
# piecewise torus maps


class Branch(NamedTuple):
    """On u in [lo, hi): u += du and v += a1 u + a0, v mod 1."""

    lo: object
    hi: object
    du: object
    a1: object
    a0: object

    def poly(self, u):
        return self.a1 * u + self.a0


class PiecewiseTorusMap:
    """Fibered map over an exchange of the subintervals of its base [lo, hi).

    The base is read off the sorted branches; the fiber is reduced mod 1
    into [fiber_lo, fiber_lo + 1).  The v-update is exact and affine in u,
    a class closed under composition and inversion.
    The constructor certifies that the branches partition [lo, hi) and that
    every branch image lies in it, so a step never reduces u.
    """

    def __init__(self, branches: list[Branch], fiber_lo=0):
        self.branches = sorted(branches, key=lambda b: b.lo)
        self.fiber_lo = fiber_lo
        if not self.branches:
            raise ValueError("empty branch list")
        self.lo, self.hi = self.branches[0].lo, self.branches[-1].hi
        for left, right in zip(self.branches, self.branches[1:]):
            if left.hi != right.lo:
                raise ValueError("branch domains do not partition the base interval")
        for b in self.branches:
            if not (b.lo < b.hi and self.lo <= b.lo + b.du and b.hi + b.du <= self.hi):
                raise ValueError(f"branch image leaves [{self.lo}, {self.hi})")

    def _index(self, u) -> int:
        if self.lo <= u:
            for i, b in enumerate(self.branches):
                if u < b.hi:
                    return i
        raise ValueError(f"no branch contains u = {u}")

    def branch_at(self, u) -> Branch:
        return self.branches[self._index(u)]

    def step_coords(self, u, v):
        """(i, u', v', k): branch i maps (u, v) to (u', v' + k), v' in the fiber
        window; v may lie outside it, as the fiber update is defined mod 1."""
        i = self._index(u)
        b = self.branches[i]
        k, w = self.wrap(v + b.poly(u))
        return i, u + b.du, w, k

    # the same function under a second name, which a tracer can wrap alone
    step_with_floors = step_coords

    def wrap(self, w):
        """(k, w - k) for the integer k that takes w into the fiber window."""
        k = math.floor(w - self.fiber_lo if self.fiber_lo else w)
        return k, (w - k if k else w)

    def _integer_rows(self, ctx, du: int = 1, dv: int = 1):
        """The branch data on integers, for u over a multiple ``Du`` of
        ``du`` and v over a multiple ``Dv`` of ``dv``: ``(Du, Dv, F, rows)``.

        ``Du`` is the lcm of ``du`` and the denominators of the breakpoints
        and translations, ``Dv`` of ``dv``, ``fiber_lo``, each ``a0`` and
        each ``a1`` times ``Du``; ``F`` is ``fiber_lo`` over ``Dv``.  A row
        holds a branch's ``hi`` and ``du`` over ``Du``, then ``p1, p2, q, r``
        such that ``a1 * u`` over ``Dv`` is ``(p1*U1 - r*U2, q*U2 + p2*U1)``
        for u ``= (U1 + U2*l)/Du`` (``(p1 + p2 l)(U1 + U2 l)`` with
        ``l^2 = T l - det``), then ``a0`` over ``Dv``.  The branch data must
        be elements of ``ctx`` and ``fiber_lo`` a rational or one.
        """
        T = ctx.trace
        fl = _triple(self.fiber_lo, ctx)
        Du = math.lcm(du, *(c.d for b in self.branches for c in (b.hi, b.du)))
        Dv = math.lcm(dv, fl[2], *(b.a0.d for b in self.branches),
                      *(b.a1.d * Du for b in self.branches))
        rows = []
        for b in self.branches:
            f = Dv // (b.a1.d * Du)
            p1, p2 = b.a1.A * f, b.a1.B * f
            rows.append((*_over(_triple(b.hi, ctx), Du), *_over(_triple(b.du, ctx), Du),
                         p1, p2, p1 + T * p2, ctx.det * p2, *_over(_triple(b.a0, ctx), Dv)))
        return Du, Dv, _over(fl, Dv), rows

    def _orbit_parts(self, u, v, n: int):
        """The integer kernel of :meth:`orbit`: ``(ctx, (Du, Dv), parts)``,
        where ``parts`` yields ``(U1, U2, V1, V2)`` for each of the points
        (u, v), T(u, v), ..., T^n(u, v): u ``= (U1 + U2*l)/Du`` and
        v ``= (V1 + V2*l)/Dv``, over denominators fixed for the whole orbit
        (:meth:`_integer_rows`) and not in lowest terms.

        v is held less ``fiber_lo``.  A step is one sign test per
        breakpoint passed, one field product by ``a1`` and one floor, by the
        scalar layer's ``_sign_parts`` and ``_floor_parts``.  The branch
        data must be field elements of one context, else TypeError; u, v and
        ``fiber_lo`` may be rationals as well.  u must lie in the base
        (ValueError); v may lie outside the fiber window.  The checks run
        when the method is called, before any point.
        """
        ctx = _one_context(c for b in self.branches for c in (b.lo, b.hi, b.du, b.a1, b.a0))
        u0, v0 = _triple(u, ctx), _triple(v, ctx)
        self._index(u)
        T, disc = ctx.trace, ctx.disc
        Du, Dv, (F1, F2), (*inner, last) = self._integer_rows(ctx, u0[2], v0[2])

        def parts():
            (U1, U2), (V1, V2) = _over(u0, Du), _over(v0, Dv)
            V1, V2 = V1 - F1, V2 - F2
            for _ in range(n):
                yield U1, U2, V1 + F1, V2 + F2
                for row in inner:
                    if _sign_parts(U1 - row[0], U2 - row[1], T, disc) < 0:
                        break
                else:
                    row = last
                _, _, e1, e2, p1, p2, q, r, c1, c2 = row
                V1, V2 = V1 + p1 * U1 - r * U2 + c1, V2 + q * U2 + p2 * U1 + c2
                V1 -= _floor_parts(V1, V2, Dv, T, disc) * Dv
                U1, U2 = U1 + e1, U2 + e2
            yield U1, U2, V1 + F1, V2 + F2

        return ctx, (Du, Dv), parts()

    def orbit(self, u, v, n: int):
        """The points (u, v), T(u, v), ..., T^n(u, v) of this map T, each a
        pair of field elements in lowest terms: :meth:`_orbit_parts`, one
        gcd per coordinate.  Its checks run when this method is called."""
        ctx, (Du, Dv), parts = self._orbit_parts(u, v, n)
        return ((_field(U1, U2, Du, ctx), _field(V1, V2, Dv, ctx))
                for U1, U2, V1, V2 in parts)

    def _follow(self, b1: Branch):
        """The piece b1 followed by this map: b1 cut where its image meets a
        breakpoint, each part composed with the branch it lands in."""
        c = b1.du
        for b2 in self.branches:
            lo = max(b1.lo, b2.lo - c)
            hi = min(b1.hi, b2.hi - c)
            if lo < hi:
                yield Branch(lo, hi, du=c + b2.du, a1=b1.a1 + b2.a1,
                             a0=b1.a0 + b2.a1 * c + b2.a0)

    def compose(self, other: "PiecewiseTorusMap") -> "PiecewiseTorusMap":
        """self after other."""
        return PiecewiseTorusMap([b for b1 in other.branches for b in self._follow(b1)],
                                 self.fiber_lo)

    def invert(self) -> "PiecewiseTorusMap":
        return PiecewiseTorusMap([
            Branch(b.lo + b.du, b.hi + b.du, du=-b.du, a1=-b.a1, a0=b.a1 * b.du - b.a0)
            for b in self.branches], self.fiber_lo)

    def induce(self, lo, hi) -> tuple["PiecewiseTorusMap", tuple[int, ...]]:
        """The first return to [lo, hi), and the return count of each branch.

        Branch refinement: the identity on [lo, hi) is followed through the
        map, each piece cut where its image straddles lo or hi, and a piece
        is done once its image lies in [lo, hi).  The first return of an
        exchange to an interval is again a finite exchange (Keane, Math. Z.
        141 (1975)), so this ends; ``invert`` certifies the exchange.
        """
        self.invert()
        if not self.lo <= lo < hi <= self.hi:
            raise ValueError(f"[{lo}, {hi}) is not a nonempty subinterval of the base")
        zero = lo - lo
        pending, done, n = [Branch(lo, hi, zero, zero, zero)], [], 0
        while pending:
            n, moving, pending, landed = n + 1, pending, [], []
            for piece in (q for p in moving for q in self._follow(p)):
                a, b = lo - piece.du, hi - piece.du   # the image is in [lo, hi) on [a, b)
                for x, y, out in ((piece.lo, a, pending), (a, b, landed),
                                  (b, piece.hi, pending)):
                    x, y = max(piece.lo, x), min(piece.hi, y)
                    if x < y:
                        out.append(piece._replace(lo=x, hi=y))
            done += [(p, n) for p in landed]
        done.sort(key=lambda item: item[0].lo)
        return (PiecewiseTorusMap([b for b, _ in done], self.fiber_lo),
                tuple(k for _, k in done))


def _affine_branch(lo, hi, lift) -> Branch:
    """The branch on [lo, hi) of a fibered map, from three exact evaluations.

    ``lift(s)`` is the image of (s, 0) with the fiber not reduced mod 1.  The
    fiber is a polynomial of degree at most 2 in s, so three points of
    [lo, hi) fix it; the s^2 terms must cancel, which is certified here.
    """
    h = (hi - lo) / 4
    (u0, w0), (_, w1), (_, w2) = (lift(s) for s in (lo, lo + h, lo + 2 * h))
    if w2 - 2 * w1 + w0 != 0:
        raise ArithmeticError("map is not affine in the fiber")
    a1 = (w1 - w0) / h
    return Branch(lo, hi, u0 - lo, a1, w0 - a1 * lo)


def strip_family(s, theta) -> PiecewiseTorusMap:
    """The two-branch strip map on [0,1)^2 with breakpoint 1/phi^2."""
    s = golden(s)
    theta = golden(theta)
    return PiecewiseTorusMap([
        Branch(golden(0), INV_PHI2, du=INV_PHI, a1=-PHI, a0=theta - INV_PHI + (s + 1) * PHI),
        Branch(INV_PHI2, golden(1), du=-INV_PHI2, a1=-INV_PHI, a0=theta + (s + 1) * INV_PHI),
    ])


# ---------------------------------------------------------------------------
# renormalization of the strip family


def renormalization_check(s, s_prime, theta) -> dict:
    """Exact conjugacy of the induced strip map with a renormalized member.

    The transfer is (u, v) -> (phi^2 u, a u^2 + b u + v) with a = -phi^3;
    the induced map on [0, 1/phi^2) transported by it must coincide
    pointwise with the strip map at the renormalized angle
    theta' = phi^2 theta + phi^2 (s+1) - (s'+1).
    """
    s, s_prime, theta = golden(s), golden(s_prime), golden(theta)
    a = -PHI3
    b = PHI2 * theta + PHI * (s + 1) + PHI2 * (s_prime + 1) - PHI
    theta_prime = PHI2 * theta + PHI2 * (s + 1) - (s_prime + 1)
    induced, _ = strip_family(s, theta).induce(golden(0), INV_PHI2)
    target = strip_family(s_prime, theta_prime)
    us = [_rational(i, 101) for i in range(101)] + [INV_PHI2, INV_PHI4, INV_PHI]
    failures = []
    for i, u in enumerate(us):
        u, v = golden(u), golden(_rational(i % 3, 3))
        w = u / PHI2   # down by the transfer, step the induced map, and back up
        _, x, y, _ = induced.step_coords(w, v - a * w * w - b * w)
        lhs = (PHI2 * x, floor_mod1(a * x * x + b * x + y)[1])
        rhs = target.step_coords(u, v)[1:3]
        if lhs != rhs:
            failures.append({"witness": (str(u), str(v)),
                             "lhs": tuple(map(str, lhs)),
                             "rhs": tuple(map(str, rhs))})
    return {
        "a": str(a),
        "b": str(b),
        "theta_prime": str(theta_prime),
        "theta_prime_float": float(theta_prime),
        "checked": len(us),
        "failures": failures,
        "passed": not failures,
    }


# psi is the fiber increment of the golden strip map
GOLDEN_STRIP = strip_family(-1, 0)
_GOLDEN_RETURN, _GOLDEN_COUNTS = GOLDEN_STRIP.induce(golden(0), INV_PHI2)


def strip_return_count(u) -> int:
    """Return count of the golden strip map into [0, 1/phi^2) from (u, 0)."""
    return _GOLDEN_COUNTS[_GOLDEN_RETURN._index(golden(u))]


def psi_value(y):
    """Fiber increment of the golden strip map at y in [0, 1)."""
    y = golden(y)
    return GOLDEN_STRIP.branch_at(y).poly(y)


def psi_identity_check() -> dict:
    """Values, boundary jump and the coboundary identity for psi.

    psi is read off the branches of ``GOLDEN_STRIP``.  The identity uses
    p(y) = -y^2/2 - y/2 and the corrected constant -1/(2 phi^3), at the 100
    points i/100; the variant with the opposite constant sign is evaluated
    alongside and reported, not asserted.
    """
    n_points = 100
    p = lambda y: -y * y / 2 - y / 2
    first, second = GOLDEN_STRIP.branches
    psi0, psi1 = first.poly(first.lo), second.poly(second.hi)
    jump = first.poly(first.hi) - second.poly(second.lo)   # left minus right at 1/phi^2
    corrected_failures = []
    opposite_sign_failures = 0
    for i in range(n_points):
        y = golden(_rational(i, n_points))
        shifted = floor_mod1(y - INV_PHI2)[1]
        base = p(shifted) - p(y) - y
        if psi_value(y) != base - HALF_INV_PHI3:
            corrected_failures.append(str(y))
        if psi_value(y) != base + HALF_INV_PHI3:
            opposite_sign_failures += 1
    return {
        "psi0": str(psi0),
        "psi1": str(psi1),
        "jump_left_minus_right": str(jump),
        "values_match": psi0 == -INV_PHI and psi1 == -INV_PHI,
        "jump_is_minus_one": jump == -1,
        "identity_failures": corrected_failures,
        "opposite_sign_failures": opposite_sign_failures,
        "checked": n_points,
        "passed": (not corrected_failures) and psi0 == -INV_PHI
        and psi1 == -INV_PHI and jump == -1,
    }


# ---------------------------------------------------------------------------
# the section along the contracting eigendirection


class SectionPoint(NamedTuple):
    """Section chart: parameter s along the contracting line, central offset
    zoff from the invariant surface, zoff in [-1/2, 1/2)."""

    s: QuadraticNumber
    zoff: QuadraticNumber


class ReturnRecord(NamedTuple):
    """A return to the section: the start flowed for ``time``, times the
    lattice element ``lattice`` = (n, m, p), is the group point of ``point``."""

    point: SectionPoint
    time: QuadraticNumber
    lattice: tuple


class SigmaSection:
    """Transversal of the expanding flow along the contracting direction.

    A chart point (s, w) is the group element over s*(alpha_p, beta_p) at
    central offset w from the surface.  The first-return map is a
    two-interval exchange in s with translations {s_a, s_b} and return
    times {t_a, t_b}.  ``table`` holds it, on [s_a, 0) and [0, s_b) with
    fiber window [-1/2, 1/2), derived once from the flow geometry; branch i
    returns at time and lattice offset (n, m) ``_returns[i]``.  :meth:`_step`
    and :meth:`replay` flow the group point as oracles.
    """

    def __init__(self, data: EigenData):
        self.data = d = data
        self.quadric = surface_quadric(data)
        self.vec = flow_of(data, "lam")
        zero = data.zero()
        # the branch rule, (time, translation, lattice offset (n, m)) of the
        # return from s, indexed by s >= 0
        self._rule = ((d.t_b, d.s_b, (0, -1)), (d.t_a, d.s_a, (-1, 0)))
        self.table = PiecewiseTorusMap(
            [_affine_branch(lo, hi, lambda s: self._flight(s, 0)[:2])
             for lo, hi in ((d.s_a, zero), (zero, d.s_b))], -HALF)
        self._returns = tuple((t, nm) for t, _, nm in self._rule)
        self._rho, self._sigma, self._inv_sb = d.t_a / d.t_b, d.s_a / d.s_b, 1 / d.s_b
        ctx = zero.ctx
        Du, Dv, F, rows = self.table._integer_rows(ctx)
        self._integers = (ctx, Du, Dv, F, _over(_triple(self.table.lo, ctx), Du), rows)

    def contains(self, p: SectionPoint) -> bool:
        return self.data.s_a <= p.s < self.data.s_b and self.table.wrap(p.zoff)[0] == 0

    def point(self, s, zoff) -> SectionPoint:
        p = SectionPoint(golden_like(s, self.data), golden_like(zoff, self.data))
        if not self.contains(p):
            raise ValueError("not a valid section point")
        return p

    def to_group(self, p: SectionPoint) -> GroupPoint:
        x = self.data.alpha_p * p.s
        y = self.data.beta_p * p.s
        return GroupPoint(x, y, self.quadric.evaluate(x, y) + p.zoff)

    def from_group(self, g: GroupPoint) -> SectionPoint:
        s = g.x / self.data.alpha_p
        if g.y != self.data.beta_p * s:
            raise ValueError("point is not on the section line")
        return SectionPoint(s, g.z - self.quadric.evaluate(g.x, g.y))

    def _flow_offset(self, s, zoff, t, u, n, m):
        """Flow the chart point (s, zoff) for time t; the central offset from
        the surface of the landing over parameter u, lattice-corrected by
        (n, m) and not reduced mod 1."""
        d, q = self.data, self.quadric
        x, y = d.alpha_p * s, d.beta_p * s
        g1 = flow(self.vec, t, GroupPoint(x, y, q.evaluate(x, y) + zoff))
        x2, y2 = d.alpha_p * u, d.beta_p * u
        if g1.x + n != x2 or g1.y + m != y2:
            raise AssertionError("lattice correction does not close the step")
        return g1.z + g1.x * m - q.evaluate(x2, y2)

    def _flight(self, s, zoff):
        """One return by flowing the group point, (u, unreduced offset, t,
        (n, m)); valid for s in [s_a, s_b] (closed right end)."""
        t, shift, nm = self._rule[s >= 0]
        u = s + shift
        return u, self._flow_offset(s, zoff, t, u, *nm), t, nm

    def _step(self, s, zoff) -> ReturnRecord:
        u, w, t, nm = self._flight(s, zoff)
        k, z = self.table.wrap(w)
        return ReturnRecord(SectionPoint(u, z), t, (*nm, -k))

    def return_map(self, p: SectionPoint) -> ReturnRecord:
        """One step of ``table``, whose certificate keeps the image in the
        section: ``step_coords`` on integers, in this one frame.

        With s ``= (A + B*l)/ds`` and the offset ``= (C + E*l)/dz``, the
        step runs over ``Du*ds`` and ``Dv*ds*dz``, ``Du`` and ``Dv`` the
        denominators of the table's integer rows (prepared once, in the
        constructor): the window test and the reduction are one floor each,
        a breakpoint one sign, and only the image's two coordinates become
        field elements.  The errors are those of the window test and of
        ``step_coords``.
        """
        ctx, Du, Dv, (F1, F2), (L1, L2), rows = self._integers
        T, disc = ctx.trace, ctx.disc
        s, z = p.s, p.zoff
        (A, B, ds), (C, E, dz) = _triple(s, ctx), _triple(z, ctx)
        # the offset less fiber_lo, over Dv*dz, must have floor 0
        V1, V2 = C * Dv - F1 * dz, E * Dv - F2 * dz
        if _floor_parts(V1, V2, Dv * dz, T, disc):
            raise ValueError("not a valid section point")
        U1, U2 = A * Du, B * Du
        for i, row in enumerate(rows):
            if _sign_parts(U1 - row[0] * ds, U2 - row[1] * ds, T, disc) < 0:
                break
        else:
            i = None
        if i is None or (i == 0 and _sign_parts(U1 - L1 * ds, U2 - L2 * ds, T, disc) < 0):
            raise ValueError(f"no branch contains u = {s}")
        _, _, e1, e2, p1, p2, q, r, c1, c2 = row
        # w - fiber_lo = v - fiber_lo + a1*u + a0 over Dv*ds*dz
        W1 = (V1 + c1 * dz) * ds + (p1 * A - r * B) * Du * dz
        W2 = (V2 + c2 * dz) * ds + (q * B + p2 * A) * Du * dz
        D = Dv * ds * dz
        k = _floor_parts(W1, W2, D, T, disc)
        t, (n, m) = self._returns[i]
        u = _field(U1 + e1 * ds, U2 + e2 * ds, Du * ds, ctx)
        z = _field(W1 - k * D + F1 * ds * dz, W2 + F2 * ds * dz, D, ctx)
        return ReturnRecord(SectionPoint(u, z), t, (n, m, -k))

    def replay(self, start: SectionPoint, record: ReturnRecord) -> bool:
        g = flow(self.vec, record.time, self.to_group(start))
        return g * GroupPoint(*record.lattice) == self.to_group(record.point)

    def _crossing_rows(self, s, ns):
        """Each row n of ns with the range of m where the crossing comes at
        t > 0 and s_a <= u <= s_b, decided by floors: the line through (n, m)
        is met at t = n t_a + m t_b and parameter u = s + n s_a + m s_b, with
        t_b, s_b > 0 (eigen_data)."""
        v = s * self._inv_sb                    # (s + n s_a) / s_b at n = 0
        for n in ns:
            vn = v + n * self._sigma
            yield n, range(max((-n * self._rho).floor() + 1, -(vn - self._sigma).floor()),
                           (1 - vn).floor() + 1)

    def _crossing_step(self, s, zoff) -> ReturnRecord:
        """First crossing of the CLOSED segment [s_a, s_b], any lattice offset.

        The half-open section never contains the line point at parameter
        s_b, but the automorphism image of the section can (exactly when
        lam' * s_a = s_b), so induction iterations must see crossings there
        as well.  The branch landing seeds the search; in each row n the
        earliest admissible crossing is the smallest m of its range, since t
        grows with m.  Eliminating m from 0 < t < t_br and s_a <= u <= s_b
        with Delta = t_a s_b - t_b s_a = -1/delta > 0 leaves
        alpha_p (s - s_b) < n < alpha t_br + alpha_p (s - s_a), as
        t_b / Delta = alpha_p and s_b / Delta = alpha.
        """
        d = self.data
        t_br, shift, (n, m) = self._rule[s >= 0]
        # best holds the plane offset, the lattice offset negated: the
        # position at the crossing is u*(a_p, b_p) + (plane offset)
        best = (t_br, s + shift, (-n, -m))
        ns = range((d.alpha_p * (s - d.s_b)).floor() + 1,
                   -(d.alpha_p * (d.s_a - s) - d.alpha * t_br).floor())
        for n, ms in self._crossing_rows(s, ns):
            if ms and (t := n * d.t_a + ms[0] * d.t_b) < best[0]:
                best = (t, s + n * d.s_a + ms[0] * d.s_b, (n, ms[0]))
        t, u, (n, m) = best
        k, z = self.table.wrap(self._flow_offset(s, zoff, t, u, -n, -m))
        return ReturnRecord(SectionPoint(u, z), t, (-n, -m, -k))

    def early_crossing_audit(self, p: SectionPoint) -> dict:
        """Certify the step time is the first crossing of the section line.

        Solves every lattice translate (n, m) with |n|, |m| <= 4 for the exact
        crossing time of the planar flow line and reports any hit with a
        smaller positive time and parameter inside [s_a, s_b).
        """
        d = self.data
        t_branch = self._rule[p.s >= 0][0]
        early = []
        found_return = False
        for n, ms in self._crossing_rows(p.s, range(-4, 5)):
            for m in range(max(-4, ms.start), min(5, ms.stop)):
                t = n * d.t_a + m * d.t_b
                if p.s + n * d.s_a + m * d.s_b < d.s_b:
                    if t < t_branch:
                        early.append({"n": n, "m": m, "t": str(t)})
                    found_return = found_return or t == t_branch
        return {
            "early_crossings": early,
            "return_seen_in_window": found_return,
            "passed": not early and found_return,
        }


def golden_like(x, data: EigenData) -> QuadraticNumber:
    return _in_field(x, data.context, "wrong field for this eigen data")


def section_samples(data: EigenData, count: int, seed: int = 11) -> list[SectionPoint]:
    """Deterministic exact sample points of the section."""
    rng = random.Random(seed)
    width = data.s_b - data.s_a
    pts = [
        SectionPoint(data.s_a, golden_like(0, data)),
        # exact s = 0 sample exercises the branch boundary
        SectionPoint(golden_like(0, data), golden_like(_rational(1, 3), data)),
    ]
    while len(pts) < count:
        r = _rational(rng.randrange(0, 997), 997)
        w = _rational(rng.randrange(-498, 499), 998)
        pts.append(SectionPoint(data.s_a + width * r, golden_like(w, data)))
    return pts[:count]


def iet_orbit_check(data: EigenData, iterates: int) -> dict:
    """Iterate the section return from (0, 0); certify IET structure along the orbit."""
    section = SigmaSection(data)
    p = SectionPoint(golden_like(0, data), golden_like(0, data))
    translations = set()
    times = set()
    for _ in range(iterates):
        rec = section.return_map(p)
        translations.add(rec.point.s - p.s)
        times.add(rec.time)
        p = rec.point
    expected_tr = {data.s_a, data.s_b}
    expected_t = {data.t_a, data.t_b}
    return {
        "iterates": iterates,
        "translations_ok": translations <= expected_tr,
        "times_ok": times <= expected_t,
        "both_branches_seen": translations == expected_tr,
        "passed": translations <= expected_tr and times <= expected_t,
    }


def self_induction_check(
    data: EigenData, samples: list[SectionPoint] | int = 100, seed: int = 23,
) -> dict:
    """Exact check that conjugating the induced map undoes the automorphism.

    For each sample q the pullback of the first return to the automorphism
    image of the section, started from the pushforward of q, must equal
    T(q) for lam > 0 and T^-1(q) for lam < 0, where T is the return map.
    Membership in the image section is tested exactly by pulling candidate
    hits back.  The automorphism turns a return time t into |lam| t, so the
    search sums the exact crossing times and stops at the first crossing
    that reaches |lam| t without a hit, with t the return time from q to
    T(q), or from T^-1(q) to q.
    """
    section = SigmaSection(data)
    d = data
    det = d.endo.det_m()
    lam, inverse = (d.lam, None) if d.lam > 0 else (-d.lam, section.table.invert())
    if isinstance(samples, int):
        samples = section_samples(data, samples, seed=seed)
    # Image endpoints must stay inside the closed section parameter range.
    image_ends = (d.lam_prime * d.s_a, d.lam_prime * d.s_b)
    containment = d.s_a <= min(image_ends) and max(image_ends) <= d.s_b
    failures = []
    for q in samples:
        if inverse is None:
            rec = section.return_map(q)
            rhs, due = rec.point, lam * rec.time
        else:
            rhs = SectionPoint(*inverse.step_coords(q.s, q.zoff)[1:3])
            due = lam * section.return_map(rhs).time
        s_cur = d.lam_prime * q.s
        w_cur = section.table.wrap(det * q.zoff)[1]
        elapsed, hit = 0, None
        while hit is None and elapsed < due and d.s_a <= s_cur <= d.s_b:
            hop = section._crossing_step(s_cur, w_cur)
            s_cur, w_cur, elapsed = hop.point.s, hop.point.zoff, elapsed + hop.time
            back = s_cur / d.lam_prime
            if d.s_a <= back < d.s_b:
                hit = (back, section.table.wrap(det * w_cur)[1])
        witness = {"witness": str(q.s), "zoff": str(q.zoff)}
        if hit is None:
            failures.append({**witness, "reason": "no return found"})
            continue
        if hit[0] != rhs.s or hit[1] != rhs.zoff:
            failures.append({
                **witness,
                "lhs": (str(hit[0]), str(hit[1])),
                "rhs": (str(rhs.s), str(rhs.zoff)),
            })
    return {
        "samples": len(samples),
        "containment": containment,
        "failures": failures,
        "passed": containment and not failures,
    }


# ---------------------------------------------------------------------------
# diagonal section and the torus chart


class DiagonalSection:
    """The transversal {x + y in Z} charted by representatives [X, 1-X, Z].

    The expanding flow with alpha + beta = 1 advances x + y at unit speed,
    so the return time is exactly 1 and the return map is the left
    translation by exp(alpha, beta, gamma).  ``table`` holds its chart map,
    x -> x + a_i and z -> z + p_i x + q_i mod 1 on two branches of [0, 1),
    derived once from the group product that :meth:`step` keeps as oracle.
    """

    def __init__(self, data: EigenData, n: int | None = None, m: int | None = None):
        self.data = data
        if n is None:
            n, m = data.endo.e, data.endo.f
        self.offsets = (n, m)
        self.gamma = gamma_from_integers(
            data.endo, data.lam, data.alpha, data.beta, n, m
        )
        self.vec = AlgebraVector(data.alpha, data.beta, self.gamma)
        self.translation = exp_point(self.vec)
        zero = data.zero()
        edge = 1 - floor_mod1(data.alpha)[1]   # x + alpha crosses an integer at x = edge

        def lift(x):
            return self._lift(self.translation * self.chart_point(x, zero))
        self.table = PiecewiseTorusMap([_affine_branch(zero, edge, lift),
                                        _affine_branch(edge, zero + 1, lift)])

    def _lift(self, g: GroupPoint):
        """Chart coordinates of g with the fiber coordinate not reduced mod 1."""
        k, r = floor_mod1(g.x + g.y)
        if r != 0:
            raise ValueError("point is not on the diagonal section")
        n = -math.floor(g.x)
        return g.x + n, g.z + g.x * (1 - k - n)

    def chart(self, g: GroupPoint):
        x, z1 = self._lift(g)
        return x, z1 - math.floor(z1)

    def chart_point(self, x, z) -> GroupPoint:
        return GroupPoint(x, 1 - x, z)

    def step(self, x, z):
        return self.chart(self.translation * self.chart_point(x, z))

    def return_time_audit(self, x, z) -> bool:
        """No diagonal crossing strictly between consecutive integer times."""
        g = self.chart_point(x, z)
        for tau in (_rational(1, 3), _rational(2, 5), _rational(9, 10)):
            h = flow(self.vec, golden_like(tau, self.data), g)
            if floor_mod1(h.x + h.y)[1] == 0:
                return False
        h = flow(self.vec, golden_like(1, self.data), g)
        return self.chart(h) == self.step(x, z)

    def time_to_diagonal(self, s):
        return -(self.data.alpha_p + self.data.beta_p) * s

    def from_sigma(self, section: SigmaSection, p: SectionPoint):
        """The flow-time bijection from the eigendirection section."""
        g = section.to_group(p)
        return self.chart(flow(section.vec, self.time_to_diagonal(p.s), g))

    def inequality_audit(self) -> dict:
        """The no-early-crossing inequalities behind the section bijection."""
        d = self.data
        ssum = d.alpha_p + d.beta_p
        conds = {}
        if ssum < 0:
            conds["t_at_s_b < t_b"] = -(ssum * d.s_b) < d.t_b
            conds["-t_at_s_a < t_b"] = ssum * d.s_a < d.t_b
        else:
            conds["t_at_s_a < t_a"] = -(ssum * d.s_a) < d.t_a
            conds["-t_at_mid < t_a"] = ssum * (d.s_a + d.s_b) < d.t_a
            conds["-t_at_s_b < t_b"] = ssum * d.s_b < d.t_b
        return {
            "case": "a_p + b_p < 0" if ssum < 0 else "a_p + b_p > 0",
            "conditions": {k: bool(v) for k, v in conds.items()},
            "passed": all(conds.values()),
        }


def sigma_diagonal_conjugacy_check(
    data: EigenData, samples: list[SectionPoint] | int = 50, seed: int = 5
) -> dict:
    """psi . T_Sigma = T_chart . psi for the flow-time bijection psi."""
    section = SigmaSection(data)
    diag = DiagonalSection(data)
    if isinstance(samples, int):
        samples = section_samples(data, samples, seed=seed)
    failures = []
    for q in samples:
        lhs = diag.from_sigma(section, section.return_map(q).point)
        rhs = diag.step(*diag.from_sigma(section, q))
        if lhs != rhs:
            failures.append({"s": str(q.s), "zoff": str(q.zoff)})
    return {"samples": len(samples), "failures": failures, "passed": not failures}


# ---------------------------------------------------------------------------
# the golden chart map versus the torus skew product


def golden_skew_step(u, v):
    """The golden skew product (y, z) -> (y + 1/phi^2, z + y - 1/(2 phi^3)),
    well defined mod 1, so the inputs need not be reduced."""
    u, v = golden(u), golden(v)
    return floor_mod1(u + INV_PHI2)[1], floor_mod1(v + u - HALF_INV_PHI3)[1]


# The golden skew product as a table: the rotation by 1/phi^2, cut where it
# wraps, under the fiber increment u - 1/(2 phi^3).
GOLDEN_SKEW = PiecewiseTorusMap([
    Branch(golden(0), INV_PHI, du=INV_PHI2, a1=golden(1), a0=-HALF_INV_PHI3),
    Branch(INV_PHI, golden(1), du=INV_PHI2 - 1, a1=golden(1), a0=-HALF_INV_PHI3),
])


def fibonacci_chart_equivalence(seed: int = 41) -> dict:
    """Exact conjugacy of the diagonal chart map with the golden skew product.

    The conjugacy h(x, z) = (eps x, b2 z + w2 x^2 + w1 x) mod 1 is affine in
    z but quadratic in the base coordinate, as the coboundary structure of
    the induced maps dictates.  On branch i the chart map is x -> x + a_i,
    z -> z + p_i x + q_i, read from exact evaluations; h intertwines it with
    the skew product iff eps a_i = 1/phi^2 mod 1, b2 p_i + 2 w2 a_i = eps and
    b2 q_i + w2 a_i^2 + w1 a_i + 1/(2 phi^3) is an integer.  The last
    condition fixes w1 uniquely, since a_0 - a_1 = 1 and a_1 is irrational.
    a_i, p_i, q_i are the branches of ``DiagonalSection.table``.  The
    solution is then verified on 100 random exact points.
    """
    n_verify = 100
    data = eigen_data(factor(FIBONACCI))
    diag = DiagonalSection(data, 0, 0)
    zero = golden(0)
    fail = {"found": False, "passed": False}
    (a0, p0, q0), (a1, p1, q1) = ((b.du, b.a1, b.a0) for b in diag.table.branches)
    eps = 1 if floor_mod1(a0 - INV_PHI2)[1] == 0 else -1
    det = 2 * (p0 * a1 - p1 * a0)
    b2, w2 = 2 * eps * (a1 - a0) / det, eps * (p0 - p1) / det
    if b2 * b2 != 1:
        return {**fail, "residuals": f"fiber sign b2 = {b2}, not +-1"}
    b2 = b2.sign()
    r0, r1 = (b2 * q + w2 * a * a + HALF_INV_PHI3 for a, q in ((a0, q0), (a1, q1)))
    # w1 = k - (r0 - r1) for an integer k, and r1 + w1 a1 must be an integer
    k = ((r0 - r1) * a1 - r1).b / a1.b
    w1 = k - (r0 - r1)
    if k.denominator != 1 or floor_mod1(r1 + w1 * a1)[1] != 0:
        return {**fail, "residuals": "no w1 makes the fiber constants integral"}

    def h(x, z):
        return floor_mod1(eps * x)[1], floor_mod1(b2 * z + w2 * x * x + w1 * x)[1]

    rng = random.Random(seed)
    for _ in range(n_verify):
        x = golden(_rational(rng.randrange(0, 9973), 9973))
        z = golden(_rational(rng.randrange(0, 9973), 9973))
        if h(*diag.step(x, z)) != golden_skew_step(*h(x, z)):
            return {**fail, "residuals": f"h . T_chart != T_skew . h at "
                                         f"({x}, {z})"}
    return {
        "found": True,
        "eps": eps,
        "b2": b2,
        "c1": str(zero),
        "w2": str(w2),
        "w1": str(w1),
        "c2": "0 (free fiber rotation)",
        "verified_points": n_verify,
        "rotation_chart": str(data.alpha),
        "rotation_target": str(data.beta),
        "passed": True,
    }


# ---------------------------------------------------------------------------
# plane counterexample suite


class RegionCoeffs(NamedTuple):
    """Quadratic region boundaries p, q = p + q1 x + q0, r = p + r1 x + r0."""

    p2: QuadraticNumber
    p1: QuadraticNumber
    p0: QuadraticNumber
    q1: QuadraticNumber
    q0: QuadraticNumber
    r1: QuadraticNumber
    r0: QuadraticNumber

    @staticmethod
    def default_coeffs() -> "RegionCoeffs":
        return RegionCoeffs(
            p2=PHI2 / 2, p1=-PHI / 2, p0=-INV_PHI,
            q1=PHI2, q0=golden(_rational(3, 2)),
            r1=-PHI2, r0=golden(1) + HALF_INV_PHI3,
        )

    def p(self, x):
        return self.p2 * x * x + self.p1 * x + self.p0

    def q(self, x):
        return self.p(x) + self.q1 * x + self.q0

    def r(self, x):
        return self.p(x) + self.r1 * x + self.r0


def t_phi_affine(x, y):
    """The skew translation on the plane, before any torus reduction."""
    return x + INV_PHI2, y + x - HALF_INV_PHI3


def in_d1(c: RegionCoeffs, x, y) -> bool:
    px = c.p(x)
    return px < y <= px + 1 and y <= c.q(x) and y <= c.r(x) - 1


def in_d2(c: RegionCoeffs, x, y) -> bool:
    px = c.p(x)
    return px < y <= px + 1 and c.r(x) - 1 < y <= c.r(x)


def r1_prime(x, y):
    return x + INV_PHI2, y


def r2_prime(x, y):
    return x + INV_PHI2 - 1, y + PHI2 * x - HALF_INV_PHI3


def affine_identity_check(seed: int = 3) -> dict:
    """psi_bar . R'_1^n . R'_2 . psi_bar^{-1} = T_phi + (n-2, 0), exactly."""
    n_points = 100
    rng = random.Random(seed)
    failures = []
    for _ in range(n_points):
        x = golden(_rational(rng.randrange(-2000, 2000), 997))
        y = golden(_rational(rng.randrange(-2000, 2000), 997))
        for n in range(4):
            u, v = x / PHI2, y
            u, v = r2_prime(u, v)
            for _ in range(n):
                u, v = r1_prime(u, v)
            lhs = (PHI2 * u, v)
            tx, ty = t_phi_affine(x, y)
            rhs = (tx + (n - 2), ty)
            if lhs[0] != rhs[0] or lhs[1] != rhs[1]:
                failures.append({"n": n, "x": str(x), "y": str(y)})
    return {"checked": 4 * n_points, "failures": failures, "passed": not failures}


def region_invariance_audit() -> dict:
    """Does R = T_phi (minus (1,0) on D_2) map D into D?  Reported, not asserted.

    The points are the origin and, over x = k/21 for |k| <= 10, the heights
    p(x) + j/9 for j = 1 .. 8.  With the default coefficients spot checks
    are expected to fail; the audit records the counts and a witness.
    """
    c = RegionCoeffs.default_coeffs()
    inside = 0
    stayed = 0
    witnesses = []
    points = [(golden(0), golden(0))]
    for i in range(-10, 11):
        x = golden(_rational(i, 21))
        for j in range(1, 9):
            points.append((x, c.p(x) + _rational(j, 9)))
    for x, y in points:
        if in_d1(c, x, y):
            image = t_phi_affine(x, y)
        elif in_d2(c, x, y):
            tx, ty = t_phi_affine(x, y)
            image = (tx - 1, ty)
        else:
            continue
        inside += 1
        if in_d1(c, *image) or in_d2(c, *image):
            stayed += 1
        elif len(witnesses) < 5:
            witnesses.append({
                "x": str(x), "y": str(y),
                "image": (str(image[0]), str(image[1])),
            })
    return {
        "points_in_D": inside,
        "stayed_in_D": stayed,
        "invariance_failures": inside - stayed,
        "witnesses": witnesses,
        "invariant": inside == stayed,
    }


def rprime_return_audit(seed: int = 13) -> dict:
    """First return of R' to D_2': count the R'_1 powers, expect {0, 1, 2, 3}.

    D_1' and D_2' are D_1 and D_2 with p = 0; 60 samples of D_2' are
    followed for at most 12 powers.
    """
    c = RegionCoeffs.default_coeffs()
    flat = c._replace(p2=0, p1=0, p0=0)
    rng = random.Random(seed)
    counts: dict[int, int] = {}
    escapes = 0
    bad = []
    for _ in range(60):
        y = golden(_rational(rng.randrange(1, 997), 997))
        lo = (c.r0 - 1 - y) / (-c.r1)
        width = 1 / (-c.r1)
        x = lo + width * _rational(rng.randrange(1, 997), 997)
        if not in_d2(flat, x, y):
            escapes += 1
            continue
        u, v = r2_prime(x, y)
        n = 0
        while n <= 12:
            if in_d2(flat, u, v):
                counts[n] = counts.get(n, 0) + 1
                if n > 3:
                    bad.append(n)
                break
            if not in_d1(flat, u, v):
                escapes += 1
                break
            u, v = r1_prime(u, v)
            n += 1
        else:
            escapes += 1
    return {
        "samples": 60,
        "histogram": {str(k): v for k, v in sorted(counts.items())},
        "escapes": escapes,
        "counts_in_range": not bad,
        "passed": not bad,
    }


def counterexample_suite(seed: int = 3) -> dict:
    c = RegionCoeffs.default_coeffs()
    return {
        "affine_identity": affine_identity_check(seed),
        "region_invariance": region_invariance_audit(),
        "return_counts": rprime_return_audit(seed),
        "origin_in_D2": in_d2(c, golden(0), golden(0)),
        "p0": str(c.p(golden(0))),
        "r0": str(c.r(golden(0))),
    }


# ---------------------------------------------------------------------------
# conjugation by central shears


def central_shift_conjugation_holds(x0, g: GroupPoint, y: GroupPoint) -> bool:
    """C_x . T_g = T_{g(x)} . C_x with g(x) shifting the center by x*g.y."""
    cx = GroupPoint(x0, 0, 0)
    g_shift = GroupPoint(g.x, g.y, g.z + x0 * g.y)
    return cx * (g * y) == g_shift * (cx * y)


def gamma_zero(data: EigenData) -> QuadraticNumber:
    """Central coefficient -(alpha*A*C + beta*B*D) / (2 lam - 2 det)."""
    e = data.endo
    return -(data.alpha * (e.a * e.c) + data.beta * (e.b * e.d)) / (
        2 * data.lam - 2 * e.det_m()
    )


def nonresonance_report(data: EigenData, x0) -> dict:
    """Exact check that gamma_zero + beta*x0 avoids the shifted-gamma grid."""
    grid = 10
    gamma = gamma_zero(data)
    x0 = golden_like(x0, data)
    value = gamma + data.beta * x0
    hits = []
    for n in range(-grid, grid + 1):
        for m in range(-grid, grid + 1):
            if value == gamma_from_integers(
                data.endo, data.lam, data.alpha, data.beta, n, m
            ):
                hits.append((n, m))
    return {
        "x0": str(x0),
        "gamma": str(gamma),
        "grid": grid,
        "resonances": hits,
        "nonresonant": not hits,
    }


def conjugation_suite(data: EigenData, x0, seed: int = 9) -> dict:
    rng = random.Random(seed)
    failures = []
    for _ in range(100):
        def rnd():
            return _rational(rng.randrange(-2000, 2001), 1009)
        g = GroupPoint(rnd(), rnd(), rnd())
        y = GroupPoint(rnd(), rnd(), rnd())
        x = rnd()
        if not central_shift_conjugation_holds(x, g, y):
            failures.append({"x": str(x), "g": str(g), "y": str(y)})
    return {
        "conjugation_failures": failures,
        "gamma0": str(gamma_zero(data)),
        "nonresonance": nonresonance_report(data, x0),
        "passed": not failures,
    }


# ---------------------------------------------------------------------------
# Weyl sums


def half_grid(radius: int) -> list[tuple[int, int]]:
    """One character of each pair +-(p, q) with 0 < max(|p|, |q|) <= radius:
    q > 0, or q = 0 < p.  |S(-p, -q)| = |S(p, q)|, so a pair has one modulus."""
    return [(p, q) for q in range(radius + 1)
            for p in range(-radius if q else 1, radius + 1)]


# the most memory the Weyl block kernel may hold at once, in bytes: N is
# capped at about 1.1e12 for radius 3, and the radius at 722 even at N = 1
WEYL_MEMORY_BUDGET = 2 << 30


class WeylSizeError(ValueError):
    """A Weyl-sum size whose block kernel would pass ``WEYL_MEMORY_BUDGET``:
    N, or the radius if ``by_radius`` (no N is accepted at it)."""

    def __init__(self, message: str, by_radius: bool):
        super().__init__(message)
        self.by_radius = by_radius


def _block_bytes(n: int, r: int) -> int:
    """An upper bound on the bytes :func:`_block_moduli` holds at radius r
    with C and m at most n: five power tables of r + 1 rows, per q up to
    2r + 1 rows of b, a and t and three FFT rows of length at most
    2^(bits of 2n - 2), the kernel's FFT, the float phase rows, 1 KiB for
    each of the (2r + 1)^2 characters in the grid and the tables and report
    keyed by them, and 4 MiB for what grows with neither."""
    size = 1 << (2 * n - 2).bit_length()
    return (16 * (5 * (r + 1) * n + (2 * r + 1) * (4 * n + 3 * size) + size)
            + 64 * n + 1024 * (2 * r + 1) ** 2 + (4 << 20))


def _largest_n(r: int) -> int:
    """The largest N whose default blocks fit the budget at radius r: N fits
    iff C = ceil(sqrt N) does, so it is C^2 for the largest such C, and 0
    when the characters alone pass the budget."""
    lo, hi = 0, 1
    while _block_bytes(hi, r) <= WEYL_MEMORY_BUDGET:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if _block_bytes(mid, r) <= WEYL_MEMORY_BUDGET else (lo, mid)
    return lo * lo


def _blocks(n_iter: int, r: int) -> tuple[int, int]:
    """(C, m) of :func:`_block_moduli` at radius r, C = ceil(sqrt N) and
    m = ceil(N/C) <= C; WeylSizeError past the budget."""
    if n_iter < 1:
        raise ValueError(f"n_iter must be positive, got {n_iter}")
    c = math.isqrt(n_iter - 1) + 1
    m = -(-n_iter // c)
    if _block_bytes(c, r) > WEYL_MEMORY_BUDGET:
        largest = _largest_n(r)
        raise WeylSizeError(
            f"N = {n_iter} needs about {_block_bytes(c, r) / 2 ** 30:.1f} GiB "
            f"in the Weyl block kernel, over its budget of {WEYL_MEMORY_BUDGET >> 30} GiB; "
            + (f"the largest accepted N at radius {r} is {largest}" if largest
               else f"no N is accepted at radius {r}"), by_radius=not largest)
    return c, m


def _mod1(x):
    """x - floor(x), in place on a float array: the same doubles as
    ``np.remainder(x, 1.0)`` (both are the exact x - floor(x), rounded once),
    at a fraction of its cost."""
    import numpy as np
    return np.subtract(x, np.floor(x), out=x)


def _turns(*terms):
    """The sum of n gamma mod 1 over the terms (gamma, n), gamma exact and n
    an array of integers held as doubles, 0 <= n < 2^53, each to about an
    ulp whatever n.

    gamma is reduced mod 1 exactly and cut into pieces of t = max(1, 53 - b)
    bits, b the bits of max n: the j-th piece is a multiple of 2^-jt below
    2^-(j-1)t, so n times it and its fractional part are exact.  Pieces are
    taken until n times the rest of gamma is below 1/2, which then adds
    rounded once, and the total is reduced mod 1 between pieces.  Below
    n = 2^26 one piece suffices.
    """
    import numpy as np
    total = 0.0
    for gamma, n in terms:
        rest = floor_mod1(gamma)[1]
        b = int(np.max(n)).bit_length()
        if b > 53:
            raise ValueError(f"n = {int(np.max(n))} is 2^53 or more, past the exact "
                             "integers of a double")
        t = s = max(1, 53 - b)
        while True:
            k = math.floor(rest * (1 << s))
            rest = rest - _rational(k, 1 << s)
            whole = n * (k / (1 << s))
            total = total + (whole - np.floor(whole))
            if s > b:  # n rest < 2^(b - s) <= 1/2
                break
            total = _mod1(total)
            s += t
        total = total + n * float(rest)
    return _mod1(total)


def _block_moduli(chars, n_iter: int, rows) -> dict:
    """|S_N|/N of each character over orbit points k = iC + j < N, in blocks.

    The block length is C = ceil(sqrt N), and there are m = ceil(N/C) <= C
    blocks.  ``rows(C, m)`` gives, mod 1, the phases x_j, y_j of the first
    block's points (j < C), the shifts X_i, Y_i of block i < m, and the
    chirp h n^2 (n < C) or None for h = 0:
    point iC + j is (x_j + X_i, y_j + Y_i + 2 h i j).  So
    S(p, q) = sum_i A_i T_i with A_i = e(p X_i + q Y_i),
    T_i = sum_j B_j e(2 q h i j) and B_j = e(p x_j + q y_j).  By
    2ij = i^2 + j^2 - (i - j)^2, T_i = w_i sum_j B_j w_j conj(w_(i-j)) with
    w_n = e(q h n^2): one FFT convolution of length at least m + C - 1 gives
    every T_i (Bluestein's chirp-z transform).  Without a chirp, or at
    q = 0, every full block has T_i = sum_j B_j and no FFT runs.  The last
    block, full or not, is summed directly.

    Each row takes one complex exponential per point; the harmonics are its
    powers and their conjugates, and |S(-p, -q)| = |S(p, q)|, so characters
    are taken with q >= 0 and grouped by q.
    """
    import numpy as np
    r = max([1] + [max(abs(p), abs(q)) for p, q in chars])
    c, m = _blocks(n_iter, r)
    tail = n_iter - (m - 1) * c  # points of the last block

    def powers(phase):  # e(k t) for k = 0 .. r
        out = np.empty((r + 1, len(phase)), dtype=np.complex128)
        out[0], out[1] = 1.0, np.exp(2j * np.pi * phase)
        for k in range(2, r + 1):
            np.multiply(out[k - 1], out[1], out=out[k])
        return out

    *phases, chirp = rows(c, m)
    x, y, sx, sy = map(powers, phases)
    w = None if chirp is None else powers(chirp)
    def half(pq):  # the one of (p, q) and (-p, -q) that is computed
        p, q = pq
        return pq if q > 0 or (q == 0 and p >= 0) else (-p, -q)
    groups: dict[int, set] = {}
    for p, q in map(half, chars):
        groups.setdefault(q, set()).add(p)
    moduli = {}
    for q, ps in groups.items():
        ps = sorted(ps)
        b = np.array([x[p] if p >= 0 else x[-p].conj() for p in ps]) * y[q]
        a = np.array([sx[p] if p >= 0 else sx[-p].conj() for p in ps]) * sy[q]
        if w is None or q == 0:
            t = np.repeat(b.sum(axis=1, keepdims=True), m, axis=1)
            t[:, -1] = b[:, :tail].sum(axis=1)
        else:
            wq = w[q]
            b *= wq[:c]
            size = 1 << (m + c - 2).bit_length()
            kernel = np.zeros(size, dtype=np.complex128)
            kernel[:m], kernel[size - c + 1:] = wq[:m].conj(), wq[c - 1:0:-1].conj()
            t = np.fft.ifft(np.fft.fft(b, size) * np.fft.fft(kernel))[:, :m]
            t[:, -1] = (b[:, :tail] * wq[abs(m - 1 - np.arange(tail))].conj()).sum(axis=1)
            t *= wq[:m]
        for p, s in zip(ps, (a * t).sum(axis=1)):
            moduli[p, q] = float(abs(s)) / n_iter
    return {pq: moduli[half(pq)] for pq in chars}


def weyl_sums_skew_exact(chars, n_iter: int) -> dict:
    """Birkhoff averages along the exact golden skew product orbit from (0, 0).

    The oracle of :func:`weyl_sums_skew_product`: the orbit is iterated
    exactly in Q(sqrt 5), slow next to the closed forms, and each character
    is summed directly over its correctly rounded float points, one complex
    exponential per point, so it shares no code with the block kernel.
    """
    import numpy as np
    if n_iter < 1:
        raise ValueError(f"n_iter must be positive, got {n_iter}")
    u, v, pts = golden(0), golden(0), []
    for _ in range(n_iter):
        pts.append((float(u), float(v)))
        u, v = golden_skew_step(u, v)
    x, y = np.array(pts).T
    return {(p, q): abs(np.exp(2j * np.pi * (p * x + q * y)).sum()) / n_iter
            for p, q in chars}


def _skew_shifts(k0: int):
    """(E, D) in [0, 1)^2, exact in Q(sqrt 5), with u_{k0+j} = u_j + E and
    v_{k0+j} = v_j + D + j E mod 1 on the golden skew product orbit from
    (0, 0).

    From the closed forms u_k = k/phi^2 and
    v_k = k(k-1)/(2 phi^2) - k/(2 phi^3): E = u_k0 and D = v_k0, and the
    cross term j k0/phi^2 of v_{k0+j} is j E.
    """
    return (floor_mod1(k0 * INV_PHI2)[1],
            floor_mod1(k0 * (k0 - 1) // 2 * INV_PHI2 - k0 * HALF_INV_PHI3)[1])


def weyl_sums_skew_product(chars, n_iter: int) -> dict:
    """Birkhoff averages of characters along the golden skew product orbit
    from (0, 0).

    With blocks of C points and (E, D) = :func:`_skew_shifts` (C), block i
    starts at E_i = i E and D_i = i D + C (i choose 2) E, and its point j is
    (u_j + E_i, v_j + D_i + i j E): a chirp h = E/2 for
    :func:`_block_moduli`.  Every phase row is a sum of n gamma mod 1 with
    gamma exact (:func:`_turns`), so each errs by about 2^-52 turns.
    """
    import numpy as np

    def rows(c, m):
        e, d = _skew_shifts(c)
        j, i = np.arange(c, dtype=np.float64), np.arange(m, dtype=np.float64)
        return (_turns((INV_PHI2, j)),
                _turns((-HALF_INV_PHI3, j), (INV_PHI2, j * (j - 1) / 2)),
                _turns((e, i)),
                _turns((d, i), (c * e, i * (i - 1) / 2)),
                _turns((e / 2, j * j)))
    return _block_moduli(chars, n_iter, rows)


def off_field_step(disc: int) -> float:
    """sqrt(m) for the smallest squarefree m >= 2 with sqrt(m) outside Q(sqrt(disc)).

    sqrt(m) lies in the field exactly when disc = m * k^2 for an integer k,
    which at most one of m = 2 and m = 3 can satisfy.
    """
    half = disc // 2
    return math.sqrt(3 if disc % 2 == 0 and math.isqrt(half) ** 2 == half else 2)


def weyl_sums_nilflow(data: EigenData, chars, n_iter: int) -> dict:
    """Birkhoff averages of base characters along a sampled nilflow orbit.

    The sampling step is always :func:`off_field_step` of the field (sqrt(2)
    for Q(sqrt 5), sqrt(3) for Q(sqrt 2)), outside the field of the
    eigenvector entries, so that 1, step*alpha and step*beta are rationally
    independent.  Sample k sits at k (step alpha, step beta) mod 1, with
    step the double and alpha, beta exact, so with blocks of C points
    block i is the first block translated by i C (step alpha, step beta):
    no chirp, and :func:`_block_moduli` runs no FFT.
    """
    import numpy as np
    step = _rational(*off_field_step(data.context.disc).as_integer_ratio())
    gx, gy = step * data.alpha, step * data.beta

    def rows(c, m):
        j, i = np.arange(c, dtype=np.float64), np.arange(m, dtype=np.float64)
        return _turns((gx, j)), _turns((gy, j)), _turns((c * gx, i)), _turns((c * gy, i)), None
    return _block_moduli(chars, n_iter, rows)


def equidistribution_report(kind: str, n_iter: int, radius: int = 3,
                            threshold: float = 0.05,
                            data: EigenData | None = None) -> dict:
    """Weyl-sum table, rerun at 10 N before a failure is declared: N is
    checked against the memory budget before any sum, 10 N once the table
    at N asks for the rerun.  The kernel sums one character of each pair
    (:func:`half_grid`), whose modulus is written under "p,q" and "-p,-q"."""
    if radius < 1:
        raise ValueError(f"radius must be positive, got {radius}")
    _blocks(n_iter, radius)  # sizes checked before the grid is built
    chars = half_grid(radius)

    def run(n):
        if kind == "skew":
            return weyl_sums_skew_product(chars, n)
        if kind == "nilflow":
            d = data if data is not None else eigen_data(factor(FIBONACCI))
            return weyl_sums_nilflow(d, chars, n)
        raise ValueError(f"unknown orbit kind {kind!r}")

    table = run(n_iter)
    escalated = bool(max(table.values()) >= threshold)
    if escalated:
        try:
            _blocks(10 * n_iter, radius)
        except WeylSizeError:
            raise WeylSizeError(
                f"the x10 rerun of N = {n_iter}, which a modulus at or over the threshold "
                f"{threshold} asks for, is over the Weyl block kernel's memory budget of "
                f"{WEYL_MEMORY_BUDGET >> 30} GiB; the largest N whose rerun fits at radius "
                f"{radius} is {_largest_n(radius) // 10}", by_radius=False) from None
        n_iter *= 10
        table = run(n_iter)
    worst = max(table.values())
    return {
        "kind": kind,
        "n_iter": n_iter,
        "escalated": escalated,
        "threshold": threshold,
        "worst_modulus": float(worst),
        "moduli": {f"{s * p},{s * q}": m for (p, q), m in table.items() for s in (1, -1)},
        "passed": bool(worst < threshold),
    }
