"""Dynamics on the torus: the fibered-map kernel and the strip family.

* the two-branch strip maps over the golden rotation, their first-return
  maps and the exact renormalization conjugacy with transfer parameter
  a = -phi^3.

The other experiments live in their own modules, and every name they
define is re-exported here: the Sigma-section and the diagonal chart in
:mod:`nilflow.sections`, the plane counterexample in :mod:`nilflow.plane`
and the Weyl sums in :mod:`nilflow.weyl`.  Everything except the Weyl sums
is exact; mismatches are reported with witnesses rather than rounded away.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

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
# re-exports: every name this module held before the sections, the plane
# suite and the Weyl sums moved out, imports of the moved code included.
# Those modules import the kernel above, so this block comes last.

import random  # noqa: E402

from .factorization import (  # noqa: E402
    EigenData,
    eigen_data,
    factor,
    flow_of,
    gamma_from_integers,
    surface_quadric,
)
from .freegroup import FIBONACCI  # noqa: E402
from .heisenberg import (  # noqa: E402
    AlgebraVector,
    GroupPoint,
    exp_point,
    flow,
)
from .sections import (  # noqa: E402
    DiagonalSection,
    GOLDEN_SKEW,
    ReturnRecord,
    SectionPoint,
    SigmaSection,
    fibonacci_chart_equivalence,
    golden_like,
    golden_skew_step,
    iet_orbit_check,
    section_samples,
    self_induction_check,
    sigma_diagonal_conjugacy_check,
)
from .plane import (  # noqa: E402
    RegionCoeffs,
    affine_identity_check,
    central_shift_conjugation_holds,
    conjugation_suite,
    counterexample_suite,
    gamma_zero,
    in_d1,
    in_d2,
    nonresonance_report,
    r1_prime,
    r2_prime,
    region_invariance_audit,
    rprime_return_audit,
    t_phi_affine,
)
from .weyl import (  # noqa: E402
    WEYL_MEMORY_BUDGET,
    WeylSizeError,
    _block_bytes,
    _block_moduli,
    _blocks,
    _largest_n,
    _mod1,
    _skew_shifts,
    _turns,
    equidistribution_report,
    half_grid,
    off_field_step,
    weyl_sums_nilflow,
    weyl_sums_skew_exact,
    weyl_sums_skew_product,
)
