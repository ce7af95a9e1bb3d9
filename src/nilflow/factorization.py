"""Lattice automorphisms attached to substitutions, and their eigen geometry.

A substitution sigma induces an endomorphism of the Heisenberg lattice whose
general shape is

    [x, y, z] -> [a x + b y, c x + d y, det z + P(x, y)],
    P(x, y) = (a c / 2) x (x - 1) + (b d / 2) y (y - 1) + b c x y + e x + f y,

with integers (a, b, c, d, e, f).  For hyperbolic unimodular matrices this
module computes exact eigenvectors over the quadratic field, the central
coefficient gamma that makes the eigenflow conjugate the automorphism into a
time change, the invariant surface quadric and the section geometry used by
the first-return maps.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .freegroup import GENERATOR_SUBSTITUTIONS, Endomorphism, broken_line
from .heisenberg import AlgebraVector, GroupPoint, flow
from .scalar import GOLDEN, QuadraticContext, QuadraticNumber, _rational


class HypothesisError(ValueError):
    """The matrix fails the hyperbolic unimodular hypothesis."""


class EigenSignError(ValueError):
    """Eigenvector signs do not match the supported section conventions."""


class DecompositionError(RuntimeError):
    """Generator decomposition failed its recomposition check."""


def _int_of(value) -> int:
    f = Fraction(value)
    if f.denominator != 1:
        raise ValueError(f"expected an integer, got {f}")
    return f.numerator


class HeisenbergEndo:
    """Lattice endomorphism with matrix [[a, b], [c, d]] and central data e, f."""

    __slots__ = ("a", "b", "c", "d", "e", "f")

    def __init__(self, a: int, b: int, c: int, d: int, e: int, f: int):
        for v in (a, b, c, d, e, f):
            if not isinstance(v, int):
                raise TypeError("endomorphism coefficients must be integers")
        self.a, self.b, self.c, self.d = a, b, c, d
        self.e, self.f = e, f

    @staticmethod
    def identity() -> "HeisenbergEndo":
        return HeisenbergEndo(1, 0, 0, 1, 0, 0)

    def det_m(self) -> int:
        return self.a * self.d - self.b * self.c

    def trace_m(self) -> int:
        return self.a + self.d

    def matrix(self) -> tuple[tuple[int, int], tuple[int, int]]:
        return ((self.a, self.b), (self.c, self.d))

    def central_poly(self, x, y):
        """P(x, y), the inhomogeneous part of the z action, in the Horner form
        x (ac/2 (x - 1) + bc y + e) + y (bd/2 (y - 1) + f): 11 operations."""
        return (x * (_rational(self.a * self.c, 2) * (x - 1) + self.b * self.c * y + self.e)
                + y * (_rational(self.b * self.d, 2) * (y - 1) + self.f))

    def apply(self, g: GroupPoint) -> GroupPoint:
        return GroupPoint(
            self.a * g.x + self.b * g.y,
            self.c * g.x + self.d * g.y,
            self.det_m() * g.z + self.central_poly(g.x, g.y),
        )

    __call__ = apply

    def _central_int(self, x: int, y: int) -> int:
        """P(x, y) at a lattice point, in integers: x(x - 1)/2 is exact."""
        return (self.a * self.c * (x * (x - 1) // 2)
                + self.b * self.d * (y * (y - 1) // 2)
                + self.b * self.c * x * y + self.e * x + self.f * y)

    def compose(self, other: "HeisenbergEndo") -> "HeisenbergEndo":
        """self after other; the central data are the z-images of the generators."""
        det = self.det_m()
        return HeisenbergEndo(
            self.a * other.a + self.b * other.c, self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c, self.c * other.b + self.d * other.d,
            det * other.e + self._central_int(other.a, other.c),
            det * other.f + self._central_int(other.b, other.d),
        )

    def invert(self) -> "HeisenbergEndo":
        det = self.det_m()
        if det not in (1, -1):
            raise ValueError("endomorphism is not invertible over the lattice")
        na, nb, nc, nd = det * self.d, -det * self.b, -det * self.c, det * self.a
        # Central parts solve L(L^{-1}(n_a)) = n_a and likewise for n_b.
        return HeisenbergEndo(na, nb, nc, nd, -det * self._central_int(na, nc),
                              -det * self._central_int(nb, nd))

    def _key(self) -> tuple[int, ...]:
        return (self.a, self.b, self.c, self.d, self.e, self.f)

    def __eq__(self, other) -> bool:
        if not isinstance(other, HeisenbergEndo):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"HeisenbergEndo{self._key()}"


def factor(sub: Endomorphism) -> HeisenbergEndo:
    """Image of a substitution in the lattice endomorphisms.

    The generator images are computed as exact products in the group; the
    closed form above is then validated against them on a few lattice points
    that exercise the quadratic terms.
    """
    na = broken_line(sub.image_a)[-1]
    nb = broken_line(sub.image_b)[-1]
    endo = HeisenbergEndo(*map(_int_of, (na.x, nb.x, na.y, nb.y, na.z, nb.z)))
    ga, gb = GroupPoint(1, 0, 0), GroupPoint(0, 1, 0)
    probes = [
        (ga, na),
        (gb, nb),
        (ga * gb, na * nb),
        (ga * ga * gb, na * na * nb),
        (gb * ga.inverse(), nb * na.inverse()),
    ]
    for point, expected in probes:
        if endo.apply(point) != expected:
            raise AssertionError(
                f"closed form disagrees with generator products at {point}"
            )
    return endo


# ---------------------------------------------------------------------------
# generator decomposition


def _generator_endos() -> dict[str, HeisenbergEndo]:
    return {name: factor(sub) for name, sub in GENERATOR_SUBSTITUTIONS.items()}


GENERATOR_ENDOS = _generator_endos()


def endo_power(base: HeisenbergEndo, k: int) -> HeisenbergEndo:
    """base^k by binary powering: O(log |k|) compositions."""
    if k < 0:
        base, k = base.invert(), -k
    out = HeisenbergEndo.identity()
    while k:
        if k & 1:
            out = out.compose(base)
        base, k = base.compose(base), k >> 1
    return out


def recompose(word: list[tuple[str, int]]) -> HeisenbergEndo:
    """Fold a word of (generator name, exponent) pairs, leftmost outermost."""
    out = HeisenbergEndo.identity()
    for name, k in word:
        out = out.compose(endo_power(GENERATOR_ENDOS[name], k))
    return out


def decompose(endo: HeisenbergEndo) -> list[tuple[str, int]]:
    """Write a lattice automorphism as a word in the six generators.

    Euclidean row reduction by s1/s3 powers brings the matrix to the
    identity (one s2 factor fixes a negative determinant first); the central
    residue is then a power of s5 and s6.  The result is always verified by
    recomposition.
    """
    if endo.det_m() not in (1, -1):
        raise ValueError("only automorphisms (|det| = 1) decompose")
    ops: list[tuple[str, int]] = []
    cur = endo

    def lmul(name: str, k: int) -> None:
        nonlocal cur
        if k == 0:
            return
        cur = endo_power(GENERATOR_ENDOS[name], k).compose(cur)
        ops.append((name, k))

    if cur.det_m() == -1:
        lmul("s2", -1)
    # s3^k : row1 += k*row2, s1^k : row2 += k*row1.
    while cur.c != 0:
        if cur.a != 0:
            lmul("s1", -(cur.c // cur.a))
        if cur.c == 0:
            break
        lmul("s3", -(cur.a // cur.c))
        if cur.a == 0:
            lmul("s3", 1)
            lmul("s1", -1)
            break
    if cur.a == -1:
        # Multiply by -identity, realized as ((s3^-1)(s1)(s3^-1))^2.
        for _ in range(2):
            lmul("s3", -1)
            lmul("s1", 1)
            lmul("s3", -1)
    lmul("s3", -cur.b)
    if cur.matrix() != ((1, 0), (0, 1)):
        raise DecompositionError(f"matrix reduction failed: {cur!r}")

    word = [(name, -k) for name, k in ops]
    if cur.e:
        word.append(("s5", cur.e))
    if cur.f:
        word.append(("s6", -cur.f))
    check = recompose(word)
    if check != endo:
        raise DecompositionError(
            f"recomposition check failed: got {check!r}, want {endo!r}"
        )
    return word


# ---------------------------------------------------------------------------
# hypothesis and eigen data


class HypothesisReport(NamedTuple):
    passed: bool
    failures: tuple[str, ...]
    det: int
    context: QuadraticContext | None = None
    lam: QuadraticNumber | None = None
    lam_prime: QuadraticNumber | None = None


# one context per field, GOLDEN for Q(sqrt 5), so that eigen data and the
# golden constants multiply by the same-context route of QuadraticNumber
_CONTEXTS = {(GOLDEN.trace, GOLDEN.det): GOLDEN}


def _context(trace: int, det: int) -> QuadraticContext:
    ctx = _CONTEXTS.get((trace, det))
    if ctx is None:
        ctx = _CONTEXTS[trace, det] = QuadraticContext(trace, det)
    return ctx


def check_hypothesis_H(endo: HeisenbergEndo) -> HypothesisReport:
    """Hyperbolicity report: unimodular, real irrational eigenvalues, |lam| > 1.

    The returned ``lam`` is the dominant eigenvalue expressed in a context
    whose distinguished root is the larger one; when the trace is negative
    the dominant root is the negated root of the mirrored polynomial.
    """
    det = endo.det_m()
    failures = []
    if det not in (1, -1):
        failures.append(f"matrix is not unimodular (det = {det})")
        return HypothesisReport(False, tuple(failures), det)
    tr = endo.trace_m()
    disc = tr * tr - 4 * det
    if disc <= 0:
        failures.append(f"no two distinct real eigenvalues (disc = {disc})")
        return HypothesisReport(False, tuple(failures), det)
    root = None
    try:
        if tr > 0:
            ctx = _context(tr, det)
            root = ctx.lam
        elif tr < 0:
            ctx = _context(-tr, det)
            root = QuadraticNumber(0, -1, ctx)
        else:
            failures.append("zero trace gives |lam| = |lam'|")
    except ValueError as exc:
        failures.append(str(exc))
    if failures:
        return HypothesisReport(False, tuple(failures), det)
    lam_prime = tr - root
    if not (root > 1 or root < -1):
        failures.append("dominant eigenvalue has modulus <= 1")
    if not (-1 < lam_prime < 1):
        failures.append("second eigenvalue has modulus >= 1")
    if failures:
        return HypothesisReport(False, tuple(failures), det)
    return HypothesisReport(True, (), det, root.ctx, root, lam_prime)


def gamma_from_integers(
    endo: HeisenbergEndo, lam, alpha, beta, n: int, m: int
) -> QuadraticNumber:
    """Central coefficient for the eigenflow of (alpha, beta), offsets (n, m).

    Solves  gamma * (lam - det) = alpha*(n - AC/2) + beta*(m - BD/2).
    """
    det = endo.det_m()
    denom = lam - det
    if not denom:
        raise ValueError("eigenvalue equals the determinant")
    ac = _rational(endo.a * endo.c, 2)
    bd = _rational(endo.b * endo.d, 2)
    return (alpha * (n - ac) + beta * (m - bd)) / denom


class EigenData(NamedTuple):
    """Exact eigen geometry of a hyperbolic unimodular lattice automorphism.

    (alpha, beta) is the expanding eigenvector normalized by alpha+beta = 1;
    (alpha_p, beta_p) spans the contracting direction with alpha_p > 0 and
    beta_p < 0 (unnormalized; all derived section data is invariant under
    positive rescaling).  t_a, t_b are the two return times of the expanding
    flow to the section line, s_a < 0 < s_b its endpoints in the contracting
    parameter.
    """

    endo: HeisenbergEndo
    context: QuadraticContext
    lam: QuadraticNumber
    lam_prime: QuadraticNumber
    alpha: QuadraticNumber
    beta: QuadraticNumber
    alpha_p: QuadraticNumber
    beta_p: QuadraticNumber
    gamma: QuadraticNumber
    gamma_p: QuadraticNumber
    delta: QuadraticNumber
    t_a: QuadraticNumber
    t_b: QuadraticNumber
    s_a: QuadraticNumber
    s_b: QuadraticNumber

    def zero(self) -> QuadraticNumber:
        return QuadraticNumber(0, 0, self.context)


def eigen_data(endo: HeisenbergEndo) -> EigenData:
    report = check_hypothesis_H(endo)
    if not report.passed:
        raise HypothesisError("; ".join(report.failures))
    lam, lam_p = report.lam, report.lam_prime
    A, B, C, D = endo.a, endo.b, endo.c, endo.d

    if B != 0:
        alpha = B / (B + lam - A)
    elif C != 0:
        alpha = (lam - D) / (C + lam - D)
    else:
        # Diagonal matrices have a square discriminant; unreachable past (H).
        raise HypothesisError("diagonal matrix cannot satisfy the hypothesis")
    beta = 1 - alpha
    _assert_eigvec(endo, lam, alpha, beta)
    if not (alpha > 0 and beta > 0):
        raise EigenSignError(
            "expanding eigenvector is not positive; swap a generator with its"
            " inverse to fix the orientation"
        )

    if B != 0:
        alpha_p, beta_p = QuadraticNumber(B, 0, lam.ctx), lam_p - A
    else:
        alpha_p, beta_p = lam_p - D, QuadraticNumber(C, 0, lam.ctx)
    if alpha_p < 0:
        alpha_p, beta_p = -alpha_p, -beta_p
    _assert_eigvec(endo, lam_p, alpha_p, beta_p)
    if not beta_p < 0:
        raise EigenSignError(
            "contracting eigenvector has no sign change; the section"
            " construction needs alpha_p * beta_p < 0"
        )

    delta = alpha * beta_p - alpha_p * beta
    if not delta < 0:
        raise EigenSignError("expected a negative eigenvector determinant")
    t_a = beta_p / delta
    t_b = -alpha_p / delta
    s_a = (t_a * alpha - 1) / alpha_p
    s_b = t_b * alpha / alpha_p
    # Parallelism identities defining t_a, t_b, and the closed forms for the
    # section endpoints; explicit raises, so they also hold under python -O.
    for holds, identity in (
        ((t_a * alpha - 1) * beta_p == t_a * beta * alpha_p,
         "(t_a*alpha - 1)*beta' == t_a*beta*alpha'"),
        (t_b * alpha * beta_p == (t_b * beta - 1) * alpha_p,
         "t_b*alpha*beta' == (t_b*beta - 1)*alpha'"),
        (s_a == beta / delta and s_b == -alpha / delta,
         "s_a == beta/Delta and s_b == -alpha/Delta"),
    ):
        if not holds:
            raise ArithmeticError(f"eigen_data identity failed: {identity}")
    if not (t_a > 0 and t_b > 0 and s_a < 0 and s_b > 0):
        raise EigenSignError("expected t_a, t_b > 0 and s_a < 0 < s_b")

    gamma = gamma_from_integers(endo, lam, alpha, beta, endo.e, endo.f)
    gamma_p = gamma_from_integers(endo, lam_p, alpha_p, beta_p, endo.e, endo.f)
    return EigenData(
        endo, lam.ctx, lam, lam_p, alpha, beta, alpha_p, beta_p,
        gamma, gamma_p, delta, t_a, t_b, s_a, s_b,
    )


def _assert_eigvec(endo, value, u, v) -> None:
    if endo.a * u + endo.b * v != value * u or endo.c * u + endo.d * v != value * v:
        raise AssertionError("eigenvector equation failed")


def gamma_of(endo: HeisenbergEndo, which: str = "lam") -> QuadraticNumber:
    """Gamma of the eigenflow attached to the endomorphism's own offsets."""
    return flow_of(eigen_data(endo), which).gamma


def flow_of(data: EigenData, which: str = "lam") -> AlgebraVector:
    if which == "lam":
        return AlgebraVector(data.alpha, data.beta, data.gamma)
    if which == "lam_prime":
        return AlgebraVector(data.alpha_p, data.beta_p, data.gamma_p)
    raise ValueError("which must be 'lam' or 'lam_prime'")


def conjugation_identity_holds(
    endo: HeisenbergEndo, vec: AlgebraVector, factor_, t, g: GroupPoint
) -> bool:
    """Exact check of  endo . Phi^t = Phi^(factor*t) . endo  at (t, g)."""
    lhs = endo.apply(flow(vec, t, g))
    rhs = flow(vec, factor_ * t, endo.apply(g))
    return lhs == rhs


# ---------------------------------------------------------------------------
# invariant surface and tile


class SurfaceQuadric(NamedTuple):
    """z = Q(x, y) carving the flow-generated surface out of the group."""

    qxx: QuadraticNumber
    qxy: QuadraticNumber
    qyy: QuadraticNumber
    qx: QuadraticNumber
    qy: QuadraticNumber
    q0: QuadraticNumber

    def evaluate(self, x, y):
        # Horner form: 5 products
        return ((self.qxx * x + self.qxy * y + self.qx) * x
                + (self.qyy * y + self.qy) * y + self.q0)


def xy_of_ts(data: EigenData, t, s):
    return (data.alpha * t + data.alpha_p * s, data.beta * t + data.beta_p * s)


# (data, its z_of_ts coefficients) of the last call, replaced as one tuple; the
# key is the object itself, so a new or _replace'd EigenData never reads them
_z_coeffs: tuple = (None, None)


def z_of_ts(data: EigenData, t, s):
    """Central coordinate of Phi_lam^t . Phi_lam'^s applied to the identity:
    gamma' s + alpha' beta' s^2/2 + alpha beta' s t + gamma t + alpha beta t^2/2.

    The three products alpha' beta'/2, alpha beta' and alpha beta/2 are formed
    once per ``data`` object, so a call takes 9 operations.
    """
    global _z_coeffs
    key, coeffs = _z_coeffs
    if key is not data:
        a, bp = data.alpha, data.beta_p
        coeffs = (data.alpha_p * bp / 2, a * bp, a * data.beta / 2)
        _z_coeffs = (data, coeffs)
    half_apbp, abp, half_ab = coeffs
    return ((data.gamma_p + half_apbp * s + abp * t) * s
            + (data.gamma + half_ab * t) * t)


def ts_of_xy(data: EigenData, x, y):
    t = (data.beta_p * x - data.alpha_p * y) / data.delta
    s = (data.alpha * y - data.beta * x) / data.delta
    return t, s


def surface_quadric(data: EigenData) -> SurfaceQuadric:
    """Exact coefficients of Q from the flow parameterization of the surface."""
    p1 = data.beta_p / data.delta
    p2 = -data.alpha_p / data.delta
    q1 = -data.beta / data.delta
    q2 = data.alpha / data.delta
    apbp2 = data.alpha_p * data.beta_p / 2
    abp = data.alpha * data.beta_p
    ab2 = data.alpha * data.beta / 2
    quadric = SurfaceQuadric(
        qxx=apbp2 * q1 * q1 + abp * q1 * p1 + ab2 * p1 * p1,
        qxy=data.alpha_p * data.beta_p * q1 * q2 + abp * (q1 * p2 + q2 * p1)
        + data.alpha * data.beta * p1 * p2,
        qyy=apbp2 * q2 * q2 + abp * q2 * p2 + ab2 * p2 * p2,
        qx=data.gamma_p * q1 + data.gamma * p1,
        qy=data.gamma_p * q2 + data.gamma * p2,
        q0=data.zero(),
    )
    return quadric


def tile_membership(data: EigenData, quadric: SurfaceQuadric, g: GroupPoint) -> str:
    """Classify a point against the tile: 'D_a', 'D_b' or 'outside'."""
    t, s = ts_of_xy(data, g.x, g.y)
    zoff = g.z - quadric.evaluate(g.x, g.y)
    half = _rational(1, 2)
    if not (-half <= zoff < half):
        return "outside"
    if data.s_a <= s < 0 and 0 <= t < data.t_b:
        return "D_a"
    if 0 <= s < data.s_b and 0 <= t < data.t_a:
        return "D_b"
    return "outside"
