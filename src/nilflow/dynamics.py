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

import itertools
import math
import random
from dataclasses import dataclass, replace
from fractions import Fraction

from .factorization import (
    EigenData,
    SurfaceQuadric,
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
    _rational,
    floor_mod1,
    scalar_float,
    scalar_floor,
    scalar_str,
)

HALF = _rational(1, 2)

# Golden-field constants: PHI is the distinguished root, so PHI = phi.
PHI = GOLDEN.lam
INV_PHI = PHI - 1            # 1/phi
INV_PHI2 = 2 - PHI           # 1/phi^2
INV_PHI3 = 2 * PHI - 3       # 1/phi^3
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


class TorusPoint2:
    """Point of the 2-torus with coordinates reduced to [0, 1) exactly."""

    __slots__ = ("u", "v")

    def __init__(self, u, v):
        self.u = floor_mod1(u)[1]
        self.v = floor_mod1(v)[1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, TorusPoint2):
            return NotImplemented
        return self.u == other.u and self.v == other.v

    def __hash__(self) -> int:
        return hash((self.u, self.v))

    def __repr__(self) -> str:
        return f"TorusPoint2({scalar_str(self.u)}, {scalar_str(self.v)})"


@dataclass(frozen=True)
class Branch:
    """On u in [lo, hi): u += du and v += a2 u^2 + a1 u + a0, v mod 1."""

    lo: object
    hi: object
    du: object
    a2: object
    a1: object
    a0: object

    def poly(self, u):
        if self.a2:
            return self.a2 * u * u + self.a1 * u + self.a0
        return self.a1 * u + self.a0


class PiecewiseTorusMap:
    """Fibered map over an exchange of the subintervals of its base [lo, hi).

    The base is read off the sorted branches; the fiber is reduced mod 1
    into [fiber_lo, fiber_lo + 1).  The v-update is an exact polynomial of
    degree at most two in u, a class closed under composition and inversion.
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
                raise ValueError(f"branch image leaves [{scalar_str(self.lo)}, "
                                 f"{scalar_str(self.hi)})")

    def _index(self, u) -> int:
        if self.lo <= u:
            for i, b in enumerate(self.branches):
                if u < b.hi:
                    return i
        raise ValueError(f"no branch contains u = {scalar_str(u)}")

    def branch_at(self, u) -> Branch:
        return self.branches[self._index(u)]

    def step_coords(self, u, v):
        """(i, u', v', k): branch i maps (u, v) to (u', v' + k), v' in the fiber
        window; v may lie outside it, as the fiber update is defined mod 1."""
        i = self._index(u)
        b = self.branches[i]
        w = v + b.poly(u)
        k = scalar_floor(w - self.fiber_lo if self.fiber_lo else w)
        return i, u + b.du, (w - k if k else w), k

    def step_with_floors(self, p: TorusPoint2) -> tuple[TorusPoint2, int]:
        _, u, v, k = self.step_coords(p.u, p.v)
        out = TorusPoint2.__new__(TorusPoint2)
        out.u, out.v = u, v
        return out, k

    def __call__(self, p: TorusPoint2) -> TorusPoint2:
        return self.step_with_floors(p)[0]

    def _follow(self, b1: Branch):
        """The piece b1 followed by this map: b1 cut where its image meets a
        breakpoint, each part composed with the branch it lands in."""
        c = b1.du
        for b2 in self.branches:
            lo = max(b1.lo, b2.lo - c)
            hi = min(b1.hi, b2.hi - c)
            if lo < hi:
                yield Branch(
                    lo, hi,
                    du=c + b2.du,
                    a2=b1.a2 + b2.a2,
                    a1=b1.a1 + 2 * b2.a2 * c + b2.a1,
                    a0=b1.a0 + b2.a2 * c * c + b2.a1 * c + b2.a0,
                )

    def compose(self, other: "PiecewiseTorusMap") -> "PiecewiseTorusMap":
        """self after other."""
        return PiecewiseTorusMap([b for b1 in other.branches for b in self._follow(b1)],
                                 self.fiber_lo)

    def invert(self) -> "PiecewiseTorusMap":
        return PiecewiseTorusMap([
            Branch(b.lo + b.du, b.hi + b.du, du=-b.du, a2=-b.a2,
                   a1=2 * b.a2 * b.du - b.a1, a0=(b.a1 - b.a2 * b.du) * b.du - b.a0)
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
            raise ValueError(f"[{scalar_str(lo)}, {scalar_str(hi)}) is not a "
                             f"nonempty subinterval of the base")
        zero = lo - lo
        pending, done, n = [Branch(lo, hi, zero, zero, zero, zero)], [], 0
        while pending:
            n, moving, pending, landed = n + 1, pending, [], []
            for piece in (q for p in moving for q in self._follow(p)):
                a, b = lo - piece.du, hi - piece.du   # the image is in [lo, hi) on [a, b)
                for x, y, out in ((piece.lo, a, pending), (a, b, landed),
                                  (b, piece.hi, pending)):
                    x, y = max(piece.lo, x), min(piece.hi, y)
                    if x < y:
                        out.append(replace(piece, lo=x, hi=y))
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
    a2 = w2 - 2 * w1 + w0
    if a2 != 0:
        raise ArithmeticError("map is not affine in the fiber")
    a1 = (w1 - w0) / h
    return Branch(lo, hi, u0 - lo, a2, a1, w0 - a1 * lo)


def strip_family(s, theta) -> PiecewiseTorusMap:
    """The two-branch strip map on [0,1)^2 with breakpoint 1/phi^2."""
    s = golden(s)
    theta = golden(theta)
    zero = golden(0)
    return PiecewiseTorusMap([
        Branch(zero, INV_PHI2, du=INV_PHI,
               a2=zero, a1=-PHI, a0=theta - INV_PHI + (s + 1) * PHI),
        Branch(INV_PHI2, golden(1), du=-INV_PHI2,
               a2=zero, a1=-INV_PHI, a0=theta + (s + 1) * INV_PHI),
    ])


@dataclass(frozen=True)
class ReturnRecord:
    """First-return data; lattice_word replays the reduction steps exactly."""

    point: object
    time: object
    lattice_word: tuple


# ---------------------------------------------------------------------------
# renormalization of the strip family


def renormalization_check(s, s_prime, theta, n_points: int = 101) -> dict:
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

    def transfer(p: TorusPoint2) -> TorusPoint2:
        return TorusPoint2(PHI2 * p.u, a * p.u * p.u + b * p.u + p.v)

    def transfer_inv(p: TorusPoint2) -> TorusPoint2:
        w = p.u / PHI2
        return TorusPoint2(w, p.v - a * w * w - b * w)

    us = [_rational(i, n_points) for i in range(n_points)]
    us.extend([INV_PHI2, INV_PHI4, INV_PHI])
    failures = []
    for i, u in enumerate(us):
        pt = TorusPoint2(golden(u), golden(_rational(i % 3, 3)))
        down = transfer_inv(pt)
        lhs = transfer(induced(down))
        rhs = target(pt)
        if lhs != rhs:
            failures.append({
                "witness": (scalar_str(pt.u), scalar_str(pt.v)),
                "lhs": (scalar_str(lhs.u), scalar_str(lhs.v)),
                "rhs": (scalar_str(rhs.u), scalar_str(rhs.v)),
            })
    return {
        "a": scalar_str(a),
        "b": scalar_str(b),
        "theta_prime": scalar_str(theta_prime),
        "theta_prime_float": scalar_float(theta_prime),
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


def psi_identity_check(n_points: int = 100) -> dict:
    """Values, boundary jump and the coboundary identity for psi.

    psi is read off the branches of ``GOLDEN_STRIP``.  The identity uses
    p(y) = -y^2/2 - y/2 and the corrected constant -1/(2 phi^3); the variant
    with the opposite constant sign is evaluated alongside and reported,
    not asserted.
    """
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
            corrected_failures.append(scalar_str(y))
        if psi_value(y) != base + HALF_INV_PHI3:
            opposite_sign_failures += 1
    return {
        "psi0": scalar_str(psi0),
        "psi1": scalar_str(psi1),
        "jump_left_minus_right": scalar_str(jump),
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


@dataclass(frozen=True)
class SectionPoint:
    """Section chart: parameter s along the contracting line, central offset
    zoff from the invariant surface, zoff in [-1/2, 1/2)."""

    s: QuadraticNumber
    zoff: QuadraticNumber


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

    def __init__(self, data: EigenData, quadric: SurfaceQuadric | None = None):
        self.data = d = data
        self.quadric = quadric if quadric is not None else surface_quadric(data)
        self.vec = flow_of(data, "lam")
        zero = data.zero()
        self.table = PiecewiseTorusMap(
            [_affine_branch(lo, hi, lambda s: self._flight(s, 0)[:2])
             for lo, hi in ((d.s_a, zero), (zero, d.s_b))], -HALF)
        self._returns = ((d.t_b, (0, -1)), (d.t_a, (-1, 0)))
        self._rho, self._sigma, self._inv_sb = d.t_a / d.t_b, d.s_a / d.s_b, 1 / d.s_b

    def contains(self, p: SectionPoint) -> bool:
        return self.data.s_a <= p.s < self.data.s_b and -HALF <= p.zoff < HALF

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
        d = self.data
        if s >= 0:
            t, u, nm = d.t_a, s + d.s_a, (-1, 0)
        else:
            t, u, nm = d.t_b, s + d.s_b, (0, -1)
        return u, self._flow_offset(s, zoff, t, u, *nm), t, nm

    def _step(self, s, zoff):
        return _reduced(*self._flight(s, zoff))

    def return_map(self, p: SectionPoint) -> ReturnRecord:
        """One step of ``table``, whose certificate keeps the image in the section."""
        if not -HALF <= p.zoff < HALF:
            raise ValueError("not a valid section point")
        i, s, zoff, k = self.table.step_coords(p.s, p.zoff)
        t, nm = self._returns[i]
        return ReturnRecord(SectionPoint(s, zoff), t, ((*nm, -k),))

    def replay(self, start: SectionPoint, record: ReturnRecord) -> bool:
        g = flow(self.vec, record.time, self.to_group(start))
        for lat in record.lattice_word:
            g = g * GroupPoint(*lat)
        return g == self.to_group(record.point)

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

    def _crossing_step(self, s, zoff):
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
        if s >= 0:
            t_br, shift, offset = d.t_a, d.s_a, (1, 0)
        else:
            t_br, shift, offset = d.t_b, d.s_b, (0, 1)
        # (n, m) is the plane offset: position at the crossing = u*(a_p, b_p) + (n, m)
        best = (t_br, s + shift, offset)
        ns = range((d.alpha_p * (s - d.s_b)).floor() + 1,
                   -(d.alpha_p * (d.s_a - s) - d.alpha * t_br).floor())
        for n, ms in self._crossing_rows(s, ns):
            if ms and (t := n * d.t_a + ms[0] * d.t_b) < best[0]:
                best = (t, s + n * d.s_a + ms[0] * d.s_b, (n, ms[0]))
        t, u, (n, m) = best
        return _reduced(u, self._flow_offset(s, zoff, t, u, -n, -m), t, (-n, -m))

    def early_crossing_audit(self, p: SectionPoint, window: int = 4) -> dict:
        """Certify the step time is the first crossing of the section line.

        Solves every lattice translate in the window for the exact crossing
        time of the planar flow line and reports any hit with a smaller
        positive time and parameter inside [s_a, s_b).
        """
        d = self.data
        t_branch = d.t_a if p.s >= 0 else d.t_b
        early = []
        found_return = False
        for n, ms in self._crossing_rows(p.s, range(-window, window + 1)):
            for m in range(max(-window, ms.start), min(window + 1, ms.stop)):
                t = n * d.t_a + m * d.t_b
                if p.s + n * d.s_a + m * d.s_b < d.s_b:
                    if t < t_branch:
                        early.append({"n": n, "m": m, "t": scalar_str(t)})
                    found_return = found_return or t == t_branch
        return {
            "early_crossings": early,
            "return_seen_in_window": found_return,
            "passed": not early and found_return,
        }


def _reduced(u, w, t, nm):
    """The point over u with w reduced into [-1/2, 1/2) by pc, t, (n, m, pc)."""
    pc = -(w + HALF).floor()
    return SectionPoint(u, w + pc), t, (*nm, pc)


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


def iet_orbit_check(data: EigenData, iterates: int, start=None) -> dict:
    """Iterate the section return; certify IET structure along the orbit."""
    section = SigmaSection(data)
    p = start if start is not None else SectionPoint(
        golden_like(0, data), golden_like(0, data)
    )
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
    data: EigenData, samples: list[SectionPoint] | int = 100,
    seed: int = 23, max_iter: int | None = None,
) -> dict:
    """Exact check that conjugating the induced map undoes the automorphism.

    For each sample q the return map image T(q) must equal the pullback of
    the first return to the automorphism image of the section started from
    the pushforward of q.  Membership in the image section is tested exactly
    by pulling candidate hits back.  The automorphism turns the return time
    t(q) into |lam| t(q), so the search sums the exact crossing times and
    stops at the first crossing that reaches |lam| t(q) without a hit;
    ``max_iter``, if given, also caps the number of crossings.
    """
    section = SigmaSection(data)
    d = data
    det = d.endo.det_m()
    lam = d.lam if d.lam > 0 else -d.lam
    if isinstance(samples, int):
        samples = section_samples(data, samples, seed=seed)
    # Image endpoints must stay inside the closed section parameter range.
    image_ends = (d.lam_prime * d.s_a, d.lam_prime * d.s_b)
    containment = d.s_a <= min(image_ends) and max(image_ends) <= d.s_b
    failures = []
    for q in samples:
        rec = section.return_map(q)
        rhs, due = rec.point, lam * rec.time
        s_cur = d.lam_prime * q.s
        w_cur = floor_mod1(det * q.zoff + HALF)[1] - HALF
        elapsed = 0
        hit = None
        for _ in range(max_iter) if max_iter is not None else itertools.count():
            if not d.s_a <= s_cur <= d.s_b:
                break
            point, t, _ = section._crossing_step(s_cur, w_cur)
            s_cur, w_cur, elapsed = point.s, point.zoff, elapsed + t
            back = s_cur / d.lam_prime
            if d.s_a <= back < d.s_b:
                hit = (back, floor_mod1(det * w_cur + HALF)[1] - HALF)
                break
            if elapsed >= due:
                break
        witness = {"witness": scalar_str(q.s), "zoff": scalar_str(q.zoff)}
        if hit is None:
            failures.append({**witness, "reason": "no return found"})
            continue
        if hit[0] != rhs.s or hit[1] != rhs.zoff:
            failures.append({
                **witness,
                "lhs": (scalar_str(hit[0]), scalar_str(hit[1])),
                "rhs": (scalar_str(rhs.s), scalar_str(rhs.zoff)),
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
        n = -scalar_floor(g.x)
        return g.x + n, g.z + g.x * (1 - k - n)

    def chart(self, g: GroupPoint):
        x, z1 = self._lift(g)
        return x, z1 - scalar_floor(z1)

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
            failures.append({"s": scalar_str(q.s), "zoff": scalar_str(q.zoff)})
    return {"samples": len(samples), "failures": failures, "passed": not failures}


# ---------------------------------------------------------------------------
# the golden chart map versus the torus skew product


def golden_skew_step(u, v):
    """The golden skew product (y, z) -> (y + 1/phi^2, z + y - 1/(2 phi^3)),
    well defined mod 1, so the inputs need not be reduced."""
    u, v = golden(u), golden(v)
    return floor_mod1(u + INV_PHI2)[1], floor_mod1(v + u - HALF_INV_PHI3)[1]


def fibonacci_chart_equivalence(n_verify: int = 100, seed: int = 41) -> dict:
    """Exact conjugacy of the diagonal chart map with the golden skew product.

    The conjugacy h(x, z) = (eps x, b2 z + w2 x^2 + w1 x) mod 1 is affine in
    z but quadratic in the base coordinate, as the coboundary structure of
    the induced maps dictates.  On branch i the chart map is x -> x + a_i,
    z -> z + p_i x + q_i, read from exact evaluations; h intertwines it with
    the skew product iff eps a_i = 1/phi^2 mod 1, b2 p_i + 2 w2 a_i = eps and
    b2 q_i + w2 a_i^2 + w1 a_i + 1/(2 phi^3) is an integer.  The last
    condition fixes w1 uniquely, since a_0 - a_1 = 1 and a_1 is irrational.
    a_i, p_i, q_i are the branches of ``DiagonalSection.table``.  The
    solution is then verified on n_verify random exact points.
    """
    data = eigen_data(factor(FIBONACCI))
    diag = DiagonalSection(data, 0, 0)
    zero = golden(0)
    fail = {"found": False, "passed": False}
    (a0, p0, q0), (a1, p1, q1) = ((b.du, b.a1, b.a0) for b in diag.table.branches)
    eps = 1 if floor_mod1(a0 - INV_PHI2)[1] == 0 else -1
    det = 2 * (p0 * a1 - p1 * a0)
    b2, w2 = 2 * eps * (a1 - a0) / det, eps * (p0 - p1) / det
    if b2 * b2 != 1:
        return {**fail, "residuals": f"fiber sign b2 = {scalar_str(b2)}, not +-1"}
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
                                         f"({scalar_str(x)}, {scalar_str(z)})"}
    return {
        "found": True,
        "eps": eps,
        "b2": b2,
        "c1": scalar_str(zero),
        "w2": scalar_str(w2),
        "w1": scalar_str(w1),
        "c2": "0 (free fiber rotation)",
        "verified_points": n_verify,
        "rotation_chart": scalar_str(data.alpha),
        "rotation_target": scalar_str(data.beta),
        "passed": True,
    }


# ---------------------------------------------------------------------------
# plane counterexample suite


@dataclass(frozen=True)
class RegionCoeffs:
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


def in_d1_prime(c: RegionCoeffs, x, y) -> bool:
    return 0 < y <= 1 and y <= c.q1 * x + c.q0 and y <= c.r1 * x + c.r0 - 1


def in_d2_prime(c: RegionCoeffs, x, y) -> bool:
    return 0 < y <= 1 and c.r1 * x + c.r0 - 1 < y <= c.r1 * x + c.r0


def r1_prime(x, y):
    return x + INV_PHI2, y


def r2_prime(x, y):
    return x + INV_PHI2 - 1, y + PHI2 * x - HALF_INV_PHI3


def affine_identity_check(n_points: int = 100, seed: int = 3) -> dict:
    """psi_bar . R'_1^n . R'_2 . psi_bar^{-1} = T_phi + (n-2, 0), exactly."""
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
                failures.append({"n": n, "x": scalar_str(x), "y": scalar_str(y)})
    return {"checked": 4 * n_points, "failures": failures, "passed": not failures}


def region_invariance_audit(coeffs: RegionCoeffs | None = None,
                            n_x: int = 21, n_y: int = 8) -> dict:
    """Does R = T_phi (minus (1,0) on D_2) map D into D?  Reported, not asserted.

    With the default coefficients spot checks are expected to fail; the
    audit records the counts and a witness.
    """
    c = coeffs if coeffs is not None else RegionCoeffs.default_coeffs()
    inside = 0
    stayed = 0
    witnesses = []
    points = [(golden(0), golden(0))]
    for i in range(n_x):
        x = golden(_rational(i - n_x // 2, n_x))
        for j in range(1, n_y + 1):
            points.append((x, c.p(x) + _rational(j, n_y + 1)))
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
                "x": scalar_str(x), "y": scalar_str(y),
                "image": (scalar_str(image[0]), scalar_str(image[1])),
            })
    return {
        "points_in_D": inside,
        "stayed_in_D": stayed,
        "invariance_failures": inside - stayed,
        "witnesses": witnesses,
        "invariant": inside == stayed,
    }


def rprime_return_audit(coeffs: RegionCoeffs | None = None,
                        n_samples: int = 60, seed: int = 13,
                        max_steps: int = 12) -> dict:
    """First return of R' to D_2': count the R'_1 powers, expect {0, 1, 2, 3}."""
    c = coeffs if coeffs is not None else RegionCoeffs.default_coeffs()
    rng = random.Random(seed)
    counts: dict[int, int] = {}
    escapes = 0
    bad = []
    for _ in range(n_samples):
        y = golden(_rational(rng.randrange(1, 997), 997))
        lo = (c.r0 - 1 - y) / (-c.r1)
        width = 1 / (-c.r1)
        x = lo + width * _rational(rng.randrange(1, 997), 997)
        if not in_d2_prime(c, x, y):
            escapes += 1
            continue
        u, v = r2_prime(x, y)
        n = 0
        while n <= max_steps:
            if in_d2_prime(c, u, v):
                counts[n] = counts.get(n, 0) + 1
                if n > 3:
                    bad.append(n)
                break
            if not in_d1_prime(c, u, v):
                escapes += 1
                break
            u, v = r1_prime(u, v)
            n += 1
        else:
            escapes += 1
    return {
        "samples": n_samples,
        "histogram": {str(k): v for k, v in sorted(counts.items())},
        "escapes": escapes,
        "counts_in_range": not bad,
        "passed": not bad,
    }


def counterexample_suite(coeffs: RegionCoeffs | None = None,
                         n_points: int = 100, seed: int = 3) -> dict:
    c = coeffs if coeffs is not None else RegionCoeffs.default_coeffs()
    return {
        "affine_identity": affine_identity_check(n_points=n_points, seed=seed),
        "region_invariance": region_invariance_audit(c),
        "return_counts": rprime_return_audit(c, seed=seed),
        "origin_in_D2": in_d2(c, golden(0), golden(0)),
        "p0": scalar_str(c.p(golden(0))),
        "r0": scalar_str(c.r(golden(0))),
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


def nonresonance_report(data: EigenData, x0, grid: int = 10,
                        gamma: QuadraticNumber | None = None) -> dict:
    """Exact check that gamma + beta*x0 avoids the shifted-gamma grid."""
    if gamma is None:
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
        "x0": scalar_str(x0),
        "gamma": scalar_str(gamma),
        "grid": grid,
        "resonances": hits,
        "nonresonant": not hits,
    }


def conjugation_suite(data: EigenData, x0, samples: int = 100, seed: int = 9,
                      grid: int = 10) -> dict:
    rng = random.Random(seed)
    failures = []
    for _ in range(samples):
        def rnd():
            return _rational(rng.randrange(-2000, 2001), 1009)
        g = GroupPoint(rnd(), rnd(), rnd())
        y = GroupPoint(rnd(), rnd(), rnd())
        x = rnd()
        if not central_shift_conjugation_holds(x, g, y):
            failures.append({"x": str(x), "g": str(g), "y": str(y)})
    return {
        "conjugation_failures": failures,
        "gamma0": scalar_str(gamma_zero(data)),
        "nonresonance": nonresonance_report(data, x0, grid=grid),
        "passed": not failures,
    }


# ---------------------------------------------------------------------------
# Weyl sums


def character_grid(radius: int = 3) -> list[tuple[int, int]]:
    return [(p, q) for p in range(-radius, radius + 1)
            for q in range(-radius, radius + 1) if (p, q) != (0, 0)]


def _mod1(x):
    """x - floor(x) in place on a float array: the same doubles as
    ``np.remainder(x, 1.0)`` (both are the exact x - floor(x), rounded once),
    at a fraction of its cost."""
    import numpy as np
    return np.subtract(x, np.floor(x), out=x)


def _trig_rows(t, rows, scratch) -> None:
    """rows[k] = cos 2 pi k t and rows[r + 1 + k] = sin 2 pi k t for k = 0 .. r
    (r >= 1): one cos and one sin at k = 1, then :func:`_angle_addition`."""
    import numpy as np
    r = len(rows) // 2 - 1
    rows[0], rows[r + 1] = 1.0, 0.0
    np.multiply(t, 2 * np.pi, out=scratch)
    np.cos(scratch, out=rows[1])
    np.sin(scratch, out=rows[r + 2])
    _angle_addition(rows, scratch)


def _angle_sum(ca, sa, cb, sb, c, s, scratch) -> None:
    """c, s = cos and sin of a + b, from those of a and of b."""
    import numpy as np
    np.multiply(ca, cb, out=c)
    c -= np.multiply(sa, sb, out=scratch)
    np.multiply(sa, cb, out=s)
    s += np.multiply(ca, sb, out=scratch)


def _angle_addition(rows, scratch) -> None:
    """The rows k = 2 .. r of :func:`_trig_rows` from its rows k = 0, 1."""
    r = len(rows) // 2 - 1
    c, s = rows[:r + 1], rows[r + 1:]
    for k in range(2, r + 1):
        _angle_sum(c[k - 1], s[k - 1], c[1], s[1], c[k], s[k], scratch)


def _chirp_rows(drift: float, k1, rows, b: int, scratch) -> None:
    """The rows of :func:`_trig_rows` at t_j + j drift, j < n, into rows[:, :n],
    from k1 = (cos 2 pi t_j, sin 2 pi t_j), j < n.

    e(t_j + j drift) is e(t_j) times the chirp e(j drift), and over
    j = i b + l the chirp is e(i b drift) e(l drift): two products of an
    (m, 2) and a (2, b) matrix, m = ceil(n/b), so n points take m + b cos and
    sin.  The chirp is built in the k = 0 rows (``rows`` has at least m b
    columns), which then get back their 1 and 0.
    """
    import numpy as np
    r = len(rows) // 2 - 1
    n = k1.shape[1]
    m = -(-n // b)
    hi = np.multiply(np.arange(0, m * b, b), 2 * np.pi * drift)
    lo = np.multiply(np.arange(b), 2 * np.pi * drift)
    ch, sh, lo = np.cos(hi), np.sin(hi), np.stack([np.cos(lo), np.sin(lo)])
    cc, cs = rows[0, :m * b].reshape(m, b), rows[r + 1, :m * b].reshape(m, b)
    np.matmul(np.stack([ch, -sh], axis=1), lo, out=cc)  # cos 2 pi j drift
    np.matmul(np.stack([sh, ch], axis=1), lo, out=cs)   # sin 2 pi j drift
    _angle_sum(k1[0], k1[1], rows[0, :n], rows[r + 1, :n], rows[1, :n],
               rows[r + 2, :n], scratch[:n])
    rows[0], rows[r + 1] = 1.0, 0.0
    _angle_addition(rows[:, :n], scratch[:n])


def _rotation(delta: float, r: int):
    """R(delta) with R @ (rows of t) = rows of t + delta, by angle addition."""
    import numpy as np
    angle = 2 * np.pi * np.arange(r + 1) * delta
    c, s, m = np.cos(angle), np.sin(angle), r + 1
    rot = np.zeros((2 * m, 2 * m))
    rot[:m, m:] = -0.0  # the signed zeros of a block -diag(s)
    diag = np.einsum("aibi->abi", rot.reshape(2, m, 2, m))  # of block (a, b)
    diag[0, 0] = diag[1, 1] = c
    diag[0, 1], diag[1, 0] = -s, s
    return rot


def _birkhoff_moduli(chars, n_iter: int, chunk: int, first, turn=None) -> dict:
    """|S_N|/N of each character over orbit points 0 .. N-1, in chunks.

    ``first(n)`` gives the first chunk's n points as two float arrays, and
    ``turn(k0)`` every later chunk as ((dx, ex), (dy, ey)): for each
    coordinate t_{k0+j} = t_j + d + j e mod 1, with t_j the first chunk's
    points.  The cos and sin rows of both coordinates give one real Gram
    matrix per chunk, summed into G = [[CC, CS], [SC, SS]] with CS[a, b] the
    sum of cos 2 pi a x sin 2 pi b y.  For p = sp a, q = sq b (sp, sq = +-1):
    e(p x + q y) = CC - sp sq SS + i (sp SC + sq CS) at [a, b].

    Only the first chunk takes cos and sin at its points, whose arrays go
    once their rows exist.  Chunk k0 adds R(dx) G_n R(dy)^T, :func:`_rotation`
    R(d) adding d.  When neither coordinate drifts, G_n is the first chunk's
    Gram matrix over n points; otherwise it is the product of the rows, a
    drifting coordinate's rows being :func:`_chirp_rows` of its first k = 1
    rows.  A coordinate drifts in every later chunk or in none.  Given d and
    e each rounded once, the phase of turned point j errs by its first-chunk
    point's error plus at most j |err e| + |err d| and the rounding of j e:
    about chunk 2^-52 turns per harmonic, never growing across chunks.  With
    no later chunk (chunk >= N) ``turn`` is never called.
    """
    import numpy as np
    for name, size in (("n_iter", n_iter), ("chunk", chunk)):
        if size < 1:
            raise ValueError(f"{name} must be positive, got {size}")
    r = max([1] + [max(abs(p), abs(q)) for p, q in chars])
    width = min(chunk, n_iter)
    b = math.isqrt(width - 1) + 1  # the chirp's blocks: j = i b + l
    x, y = first(width)  # before the rows, so its temporaries never meet them
    rows = np.empty((2, 2 * r + 2, -(-width // b) * b))
    scratch = np.empty(rows.shape[2])
    _trig_rows(x, rows[0, :, :width], scratch[:width])
    _trig_rows(y, rows[1, :, :width], scratch[:width])
    del x, y
    grams = {width: rows[0, :, :width] @ rows[1, :, :width].T}  # G_n, no drift
    k1 = [None, None]  # a drifting coordinate's first k = 1 rows
    total = grams[width].copy()
    for k0 in range(chunk, n_iter, chunk):
        n = min(chunk, n_iter - k0)
        (dx, ex), (dy, ey) = turn(k0)
        if not (ex or ey):
            if n not in grams:
                grams[n] = rows[0, :, :n] @ rows[1, :, :n].T
            gram = grams[n]
        else:
            for i, e in enumerate((ex, ey)):
                if e:
                    if k1[i] is None:
                        k1[i] = rows[i, [1, r + 2], :width]
                    _chirp_rows(e, k1[i][:, :n], rows[i], b, scratch)
            gram = rows[0, :, :n] @ rows[1, :, :n].T
        total += _rotation(dx, r) @ gram @ _rotation(dy, r).T
    cc, cs = total[:r + 1, :r + 1], total[:r + 1, r + 1:]
    sc, ss = total[r + 1:, :r + 1], total[r + 1:, r + 1:]
    moduli = {}
    for p, q in chars:
        a, b, sp, sq = abs(p), abs(q), -1 if p < 0 else 1, -1 if q < 0 else 1
        moduli[p, q] = math.hypot(cc[a, b] - sp * sq * ss[a, b],
                                  sp * sc[a, b] + sq * cs[a, b]) / n_iter
    return moduli


def weyl_sums_skew_exact(chars, n_iter: int) -> dict:
    """Birkhoff averages along the exact golden skew product orbit from (0, 0).

    The oracle of :func:`weyl_sums_skew_product`: the orbit is iterated
    exactly in Q(sqrt 5), slow next to the closed forms, and its correctly
    rounded float points are summed as one chunk, so cos and sin run at
    every point and nothing is turned.
    """
    import numpy as np
    u, v, pts = golden(0), golden(0), []
    for _ in range(n_iter):
        pts.append((scalar_float(u), scalar_float(v)))
        u, v = golden_skew_step(u, v)
    return _birkhoff_moduli(chars, n_iter, n_iter, lambda n: np.array(pts).T)


def _skew_shifts(u0, k0: int):
    """(E, D) in [0, 1)^2, exact in Q(sqrt 5), with u_{k0+j} = u_j + E and
    v_{k0+j} = v_j + D + j E mod 1 on every golden skew product orbit with
    base start u0.

    From the closed forms u_k = u0 + k/phi^2 and
    v_k = v0 + k u0 + k(k-1)/(2 phi^2) - k/(2 phi^3): E = u_k0 - u_0 and
    D = v_k0 - v_0, and the cross term j k0/phi^2 of v_{k0+j} is j E.
    """
    return (floor_mod1(k0 * INV_PHI2)[1],
            floor_mod1(k0 * u0 + k0 * (k0 - 1) // 2 * INV_PHI2
                       - k0 * HALF_INV_PHI3)[1])


def weyl_sums_skew_product(chars, n_iter: int, u0: float = 0.0, v0: float = 0.0,
                           chunk: int = 1 << 14) -> dict:
    """Birkhoff averages of characters along the golden skew product orbit.

    The first chunk starts from (u0, v0) reduced mod 1 exactly in Q(sqrt 5)
    and exported as correctly rounded doubles: the base steps by the float
    1/phi^2 and the fiber is a float cumulative sum.  Chunk k0 is the first
    chunk turned: u by E and v by D + j E at its point j (:func:`_skew_shifts`),
    each decided afresh in Q(sqrt 5) from k0 and rounded once, never
    accumulated.  So the base rows are the first chunk's, the fiber rows are
    the first chunk's times the chirp e(j E), and no cos or sin runs over a
    chunk after the first.  The phase of turned fiber point j errs by its
    first-chunk point's error plus at most j |err E| + |err D| and the
    rounding of j E: about chunk 2^-52 turns per harmonic.
    """
    import numpy as np
    u0, v0 = floor_mod1(golden(u0))[1], floor_mod1(golden(v0))[1]

    def first(n):
        u = _mod1(scalar_float(u0) + np.arange(n) * float(INV_PHI2))
        w = u - float(HALF_INV_PHI3)
        return u, _mod1(scalar_float(v0) + np.cumsum(w) - w)

    def turn(k0):
        e, d = map(scalar_float, _skew_shifts(u0, k0))
        return (e, 0.0), (d, e)
    return _birkhoff_moduli(chars, n_iter, chunk, first, turn)


def off_field_step(disc: int) -> float:
    """sqrt(m) for the smallest squarefree m >= 2 with sqrt(m) outside Q(sqrt(disc)).

    sqrt(m) lies in the field exactly when disc = m * k^2 for an integer k,
    which at most one of m = 2 and m = 3 can satisfy.
    """
    half = disc // 2
    return math.sqrt(3 if disc % 2 == 0 and math.isqrt(half) ** 2 == half else 2)


def weyl_sums_nilflow(data: EigenData, chars, n_iter: int,
                      chunk: int = 1 << 14) -> dict:
    """Birkhoff averages of base characters along a sampled nilflow orbit.

    The sampling step is always :func:`off_field_step` of the field (sqrt(2)
    for Q(sqrt 5), sqrt(3) for Q(sqrt 2)), outside the field of the
    eigenvector entries, so that 1, step*alpha and step*beta are rationally
    independent.  Orbit positions come from the closed flow formula.  Both
    coordinates are translations: chunk k0 is the first chunk turned by
    (k0 step alpha, k0 step beta) mod 1, each computed afresh as the float
    point k0 (never accumulated), so a chunk costs one rotation of the first
    chunk's Gram matrix and no cos or sin over its points.
    """
    import numpy as np
    step = off_field_step(data.context.disc)
    alpha, beta = scalar_float(data.alpha), scalar_float(data.beta)

    def first(n):
        t = np.arange(n, dtype=np.float64) * step
        return _mod1(t * alpha), _mod1(t * beta)
    return _birkhoff_moduli(chars, n_iter, chunk, first, lambda k0: (
        ((k0 * step * alpha) % 1.0, 0.0), ((k0 * step * beta) % 1.0, 0.0)))


def equidistribution_report(kind: str, n_iter: int, radius: int = 3,
                            threshold: float = 0.05,
                            data: EigenData | None = None,
                            escalation: int = 10) -> dict:
    """Weyl-sum table with automatic escalation before declaring failure."""
    if radius < 1:
        raise ValueError(f"radius must be positive, got {radius}")
    chars = character_grid(radius)

    def run(n):
        if kind == "skew":
            return weyl_sums_skew_product(chars, n)
        if kind == "nilflow":
            d = data if data is not None else eigen_data(factor(FIBONACCI))
            return weyl_sums_nilflow(d, chars, n)
        raise ValueError(f"unknown orbit kind {kind!r}")

    table = run(n_iter)
    escalated = escalation > 1 and bool(max(table.values()) >= threshold)
    if escalated:
        table = run(n_iter * escalation)
    worst = max(table.values())
    return {
        "kind": kind,
        "n_iter": n_iter * (escalation if escalated else 1),
        "escalated": escalated,
        "threshold": threshold,
        "worst_modulus": float(worst),
        "moduli": {f"{p},{q}": float(m) for (p, q), m in table.items()},
        "passed": bool(worst < threshold),
    }
