"""Sections of the expanding eigenflow and their charts.

* the first-return map of the expanding eigenflow to the section along the
  contracting eigendirection, a two-interval exchange in the section
  parameter, with its self-induction check;
* the diagonal section {x + y in Z}, whose return map is a niltranslation
  with constant return time 1, and the exact conjugacy of its chart map
  with the golden skew product on the 2-torus.

Everything here is exact; mismatches are reported with witnesses rather
than rounded away.
"""

from __future__ import annotations

import math
import random
from typing import NamedTuple

from .dynamics import (
    HALF,
    HALF_INV_PHI3,
    INV_PHI,
    INV_PHI2,
    Branch,
    PiecewiseTorusMap,
    _affine_branch,
    _in_field,
    golden,
)
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
    QuadraticNumber,
    _field,
    _floor_parts,
    _over,
    _rational,
    _sign_parts,
    _triple,
    floor_mod1,
)


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
