"""The plane regions and piecewise maps of the counterexample construction,
plus conjugation-by-central-shift checks.

Everything here is exact; mismatches are reported with witnesses rather
than rounded away.
"""

from __future__ import annotations

import random
from typing import NamedTuple

from .dynamics import HALF_INV_PHI3, INV_PHI, INV_PHI2, PHI, PHI2, golden
from .factorization import EigenData, gamma_from_integers
from .heisenberg import GroupPoint
from .scalar import QuadraticNumber, _rational
from .sections import golden_like


# ---------------------------------------------------------------------------
# plane counterexample suite


class RegionCoeffs(NamedTuple):
    """Quadratic region boundaries p, q = p + q1 x + q0, r = p + r1 x + r0;
    ``q`` and ``r`` take the value px = p(x)."""

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

    def q(self, x, px):
        return px + self.q1 * x + self.q0

    def r(self, x, px):
        return px + self.r1 * x + self.r0


def t_phi_affine(x, y):
    """The skew translation on the plane, before any torus reduction."""
    return x + INV_PHI2, y + x - HALF_INV_PHI3


def in_d1(c: RegionCoeffs, x, y) -> bool:
    px = c.p(x)
    return px < y <= px + 1 and y <= c.q(x, px) and y <= c.r(x, px) - 1


def in_d2(c: RegionCoeffs, x, y) -> bool:
    px = c.p(x)
    if not px < y <= px + 1:
        return False
    rx = c.r(x, px)
    return rx - 1 < y <= rx


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
    p0 = c.p(golden(0))
    return {
        "affine_identity": affine_identity_check(seed),
        "region_invariance": region_invariance_audit(),
        "return_counts": rprime_return_audit(seed),
        "origin_in_D2": in_d2(c, golden(0), golden(0)),
        "p0": str(p0),
        "r0": str(c.r(golden(0), p0)),
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
