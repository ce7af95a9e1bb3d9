
import json
import math
import random
import re
import time
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nilflow.scalar import (
    GOLDEN,
    ParseError,
    QuadraticContext,
    QuadraticNumber,
    Rational,
    _float_parts,
    _rational,
    _text_parts,
    floor_mod1,
    parse_scalar,
)

LAM = GOLDEN.lam

CONTEXTS = [GOLDEN, QuadraticContext(3, 1), QuadraticContext(2, -1),
            QuadraticContext(4, -3)]


def qn(a, b, ctx=GOLDEN):
    return QuadraticNumber(Fraction(a), Fraction(b), ctx)


def mp_value(x: QuadraticNumber):
    t, d = x.ctx.trace, x.ctx.det
    root = (t + mpmath.sqrt(t * t - 4 * d)) / 2
    return mpmath.mpf(x.a.numerator) / x.a.denominator + (
        mpmath.mpf(x.b.numerator) / x.b.denominator
    ) * root


def test_context_rejects_square_discriminant():
    with pytest.raises(ValueError):
        QuadraticContext(3, 2)  # disc 1
    with pytest.raises(ValueError):
        QuadraticContext(2, 1)  # disc 0
    with pytest.raises(ValueError):
        QuadraticContext(0, 1)  # disc negative


def test_defining_relation():
    assert LAM * LAM == 1 + LAM


def test_division_by_golden():
    assert 1 / LAM == LAM - 1


def test_conjugation():
    assert LAM.conjugate() == 1 - LAM
    x = qn(Fraction(3, 2), Fraction(-5, 7))
    y = qn(Fraction(-2, 3), Fraction(1, 4))
    assert (x * y).conjugate() == x.conjugate() * y.conjugate()
    assert x * x.conjugate() == x.field_norm()


def test_division_errors():
    with pytest.raises(ZeroDivisionError):
        LAM / qn(0, 0)
    other = QuadraticContext(2, -1)
    with pytest.raises(ValueError):
        LAM + other.lam


def test_sign_examples():
    assert (2 * LAM - 3).sign() == 1
    assert qn(0, 0).sign() == 0
    assert (1 - LAM).sign() == -1


def test_sign_multiplicative():
    rng = random.Random(5)
    for ctx in CONTEXTS:
        for _ in range(250):
            x = QuadraticNumber(Fraction(rng.randrange(-9, 10)),
                                Fraction(rng.randrange(-9, 10)), ctx)
            y = QuadraticNumber(Fraction(rng.randrange(-9, 10)),
                                Fraction(rng.randrange(-9, 10)), ctx)
            assert (x * y).sign() == x.sign() * y.sign()


def test_floor_examples():
    assert LAM.floor() == 1
    assert math.floor(LAM) == 1 and floor_mod1(LAM)[1] == LAM - 1
    assert (-LAM).floor() == -2
    assert floor_mod1(Fraction(3, 2)) == (1, Fraction(1, 2))


def test_ceil_is_exact(monkeypatch):
    # far past a double's 53 bits, where a ceiling of float(q) is off
    for q in (LAM * 10**30, -LAM * 10**30, LAM * 10**30 + Fraction(1, 3)):
        assert math.ceil(q) == q.floor() + 1
    assert math.ceil(LAM * 10**30) == 1618033988749894848204586834366
    # rationals in the field: an integer is its own ceiling
    for a in (Fraction(7, 3), Fraction(-7, 3), Fraction(6, 3), Fraction(-6, 3),
              Fraction(0), Fraction(10**30 + 1, 10**15)):
        assert math.ceil(qn(a, 0)) == math.ceil(a)
    # through floor by name, so a replaced floor sees it
    calls = []
    floor = QuadraticNumber.floor
    monkeypatch.setattr(QuadraticNumber, "floor", lambda self: calls.append(1) or floor(self))
    assert math.ceil(LAM) == 2 and calls == [1]


def test_floor_bracketing():
    rng = random.Random(6)
    for ctx in CONTEXTS:
        for _ in range(200):
            x = QuadraticNumber(Fraction(rng.randrange(-400, 400), 37),
                                Fraction(rng.randrange(-400, 400), 41), ctx)
            n = x.floor()
            assert (x - n).sign() >= 0
            assert (x - (n + 1)).sign() < 0


def test_to_float_certified():
    v, err = LAM.to_float()
    assert abs(v - 1.618033988749895) < 1e-15
    assert err < 1e-15
    assert qn(0, 0).to_float() == (0.0, 0.0)
    v2, _ = (2 - LAM).to_float()
    assert abs(v2 - 0.3819660113) < 1e-9


def test_to_float_against_mpmath():
    mpmath.mp.dps = 60
    rng = random.Random(7)
    for ctx in CONTEXTS:
        for _ in range(50):
            x = QuadraticNumber(Fraction(rng.randrange(-500, 500), 13),
                                Fraction(rng.randrange(-500, 500), 17), ctx)
            v, err = x.to_float()
            assert abs(mp_value(x) - v) <= err


def test_field_axioms_random():
    rng = random.Random(8)
    for ctx in CONTEXTS:
        for _ in range(1000):
            def r():
                return QuadraticNumber(Fraction(rng.randrange(-50, 51), 7),
                                       Fraction(rng.randrange(-50, 51), 5), ctx)
            x, y, z = r(), r(), r()
            assert (x + y) + z == x + (y + z)
            assert x * y == y * x
            assert x * (y + z) == x * y + x * z
            if x.sign() != 0:
                assert x * (1 / x) == 1


@settings(max_examples=150)
@given(
    a1=st.integers(-30, 30), b1=st.integers(-30, 30),
    a2=st.integers(-30, 30), b2=st.integers(-30, 30),
)
def test_multiplication_matches_mpmath_sign(a1, b1, a2, b2):
    x, y = qn(a1, b1), qn(a2, b2)
    z = x * y
    approx = float(x) * float(y)
    if abs(approx) > 1e-6:
        assert z.sign() == (1 if approx > 0 else -1)


@settings(max_examples=300)
@given(A=st.one_of(st.just(0), st.integers(-10 ** 22, 10 ** 22)),
       B=st.one_of(st.just(0), st.integers(-10 ** 22, 10 ** 22)),
       d=st.one_of(st.just(1), st.integers(1, 10 ** 22)),
       ctx=st.sampled_from(CONTEXTS))
def test_str_matches_fraction_coordinates(A, B, d, ctx):
    x = QuadraticNumber(Fraction(A, d), Fraction(B, d), ctx)
    a, b = Fraction(A, d), Fraction(B, d)
    assert str(x) == (str(a) if b == 0 else f"{a}+{b}*l" if b > 0 else f"{a}-{-b}*l")
    assert str(x) == (str(x.a) if x.b == 0 else f"{x.a}+{x.b}*l" if x.b > 0
                      else f"{x.a}-{-x.b}*l")


@pytest.mark.parametrize("ctx", [GOLDEN, QuadraticContext(0, -2), QuadraticContext(1, -3)])
def test_text_and_float_parts_out_of_lowest_terms(ctx):
    # the orbit writer's text and float of (A + B*l)/d from any multiple
    # k*(A, B, d), against str(Fraction) coordinates and mpmath at 60 digits
    rng, big = random.Random(27), 10 ** 22
    triples = [(0, 0, 1), (0, 5, 3), (7, 0, 1), (-7, 0, 4), (3, -1, 1), (-5, -7, 3),
               (big, -(big + 1), 7), (-3 * big - 1, big + 9, big + 7), (1, 1, big - 1)]
    triples += [(rng.randint(-big, big), rng.randint(-big, big), rng.randint(1, big))
                for _ in range(40)]
    for A, B, d in triples:
        x = QuadraticNumber(Fraction(A, d), Fraction(B, d), ctx)
        a, b = Fraction(A, d), Fraction(B, d)
        text = str(a) if b == 0 else f"{a}+{b}*l" if b > 0 else f"{a}-{-b}*l"
        with mpmath.workdps(60):
            root = (ctx.trace + mpmath.sqrt(ctx.disc)) / 2
            value = float(mpmath.mpf(A) / d + mpmath.mpf(B) / d * root)
        for k in (1, 2, 6, big + 9):
            assert _text_parts(k * A, k * B, k * d) == str(x) == text, (A, B, d, k)
            assert _float_parts(k * A, k * B, k * d, ctx) == float(x) == value, (A, B, d, k)
    assert type(_float_parts(6, 0, 4, ctx)) is float and _float_parts(6, 0, 4, ctx) == 1.5


_INTS = st.integers(min_value=-(1 << 80), max_value=1 << 80)


@settings(max_examples=500, deadline=None)
@given(A=_INTS, B=_INTS, d=st.integers(min_value=1, max_value=1 << 80))
@example(A=0, B=0, d=1)
@example(A=-(1 << 70), B=6, d=4)
def test_texts_need_no_json_escaping(A, B, d):
    # the JSONL orbit writer puts each text between quotes unescaped
    text = _text_parts(A, B, d)
    assert re.fullmatch(r"-?\d+(/\d+)?([+-]\d+(/\d+)?\*l)?", text), text
    assert json.dumps(text) == '"' + text + '"'


@pytest.mark.parametrize("ctx", [GOLDEN, QuadraticContext(0, -2), QuadraticContext(1, -3)])
def test_equal_values_print_alike_whatever_their_type(ctx):
    # a field element with zero l-part, a Rational and a Fraction of one
    # value have one text, and parse_scalar reads every text back
    big = 10 ** 22
    for A, d in [(0, 1), (4, 5), (-4, 5), (7, 1), (-7, 4), (big, 7), (-3 * big - 1, big + 7),
                 (1, big - 1), (-big, 1)]:
        x = QuadraticNumber(Fraction(A, d), 0, ctx)
        text = str(Fraction(A, d))
        for k in (1, 2, 6, big + 9):
            assert _text_parts(k * A, 0, k * d) == str(x) == str(_rational(A, d)) == text, (A, d, k)
        for y in (x, x + ctx.lam, x - Fraction(3, 7) * ctx.lam, x + big * ctx.lam):
            assert parse_scalar(str(y), ctx) == y, str(y)


def test_parse_round_trip():
    for text in ["3/2-1*l", "0+1*l", "-5/7+2/3*l", "l", "-l", "4"]:
        value = parse_scalar(text, GOLDEN)
        if isinstance(value, QuadraticNumber):
            assert parse_scalar(str(value), GOLDEN) == value
    assert parse_scalar("2/3") == Fraction(2, 3)
    with pytest.raises(ParseError):
        parse_scalar("", GOLDEN)
    with pytest.raises(ParseError):
        parse_scalar("2**l", GOLDEN)
    with pytest.raises(ParseError):
        parse_scalar("l", None)


def test_ordering_is_exact_near_ties():
    # 2 - lam versus 1/phi^2: equal, so neither strict inequality holds
    x = 2 - LAM
    y = (LAM - 1) * (LAM - 1)
    assert x == y
    assert not x < y and not x > y
    # lam against close rationals from its convergents
    assert LAM > Fraction(987, 610)
    assert LAM < Fraction(1597, 987)


def test_comparisons_match_sign_of_difference():
    # comparisons take the sign of the cross-multiplied numerator, never the
    # reduced difference; both must agree on every pair
    rng = random.Random(12)

    def rand_rational():
        return Fraction(rng.randrange(-60, 61), rng.choice([1, 2, 3, 6, 7, 10, 97]))

    for ctx in (GOLDEN, QuadraticContext(2, -1)):
        for _ in range(400):
            x = QuadraticNumber(rand_rational(), rand_rational(), ctx)
            y = rng.choice([
                QuadraticNumber(rand_rational(), rand_rational(), ctx),
                QuadraticNumber(rand_rational(), 0, ctx),
                rand_rational(),
                rng.randrange(-20, 21),
                x,
            ])
            want = (x - y).sign()
            assert (x < y, x <= y, x > y, x >= y) == (
                want < 0, want <= 0, want > 0, want >= 0)
            assert (y < x, y >= x) == (want > 0, want <= 0)
    with pytest.raises(TypeError):
        LAM < 1.5
    with pytest.raises(ValueError):
        LAM < QuadraticContext(2, -1).lam


def _mp_floor(x: QuadraticNumber) -> int:
    return int(mpmath.floor(mp_value(x)))


def test_integer_triple_is_canonical():
    x = qn(Fraction(1, 2), Fraction(1, 3))
    assert (x.A, x.B, x.d) == (3, 2, 6)
    assert x.a == Fraction(1, 2) and x.b == Fraction(1, 3)
    y = qn(Fraction(5, 6), Fraction(2, 3)) - qn(Fraction(1, 3), Fraction(1, 3))
    assert (y.A, y.B, y.d) == (3, 2, 6) and y == x and hash(y) == hash(x)
    z = qn(Fraction(1, 2), Fraction(1, 3), QuadraticContext(1, -1))  # equal, not identical, field
    assert z == x and hash(z) == hash(x)
    assert hash(qn(3, 0)) == hash(3) and qn(Fraction(3, 4), 0) == Fraction(3, 4)
    assert hash(qn(Fraction(3, 4), 0)) == hash(Fraction(3, 4))
    assert (x - x).A == 0 and (x - x).d == 1


def test_floor_huge_coefficient_is_exact_and_fast():
    mpmath.mp.dps = 60
    x = QuadraticNumber(3, 10**20 + 1, GOLDEN)
    start = time.perf_counter()
    n = x.floor()
    elapsed = time.perf_counter() - start
    assert n == _mp_floor(x)
    assert elapsed < 0.05


def test_floor_and_float_beyond_double_range():
    mpmath.mp.dps = 500
    x = QuadraticNumber(3, 10**400, GOLDEN)
    assert x.floor() == _mp_floor(x)
    assert (x - x.floor()).sign() >= 0 and (x - x.floor() - 1).sign() < 0
    y = QuadraticNumber(3, 10**200, GOLDEN)
    assert y.to_float()[0] == float(mp_value(y))


def _random_elements(rng, ctx, count, max_bits):
    for _ in range(count):
        bits = rng.randrange(1, max_bits + 1)

        def coeff():
            num = rng.getrandbits(bits) * rng.choice((-1, 1))
            return Fraction(num, rng.getrandbits(rng.randrange(bits + 1)) + 1)

        yield QuadraticNumber(coeff(), coeff(), ctx)


def _near_rational_elements(ctx, count):
    """p - q*l for the continued-fraction convergents p/q of l: values near 0."""
    p0, q0, p1, q1 = 1, 0, ctx.lam.floor(), 1
    x = ctx.lam
    for _ in range(count):
        yield QuadraticNumber(p1, -q1, ctx)
        yield QuadraticNumber(Fraction(-p1, 7), Fraction(q1, 7), ctx)
        x = 1 / (x - x.floor())
        a = x.floor()
        p0, q0, p1, q1 = p1, q1, a * p1 + p0, a * q1 + q0


def test_sign_and_floor_match_mpmath_at_height_200():
    mpmath.mp.dps = 300
    rng = random.Random(11)
    for ctx in CONTEXTS:
        elements = [*_random_elements(rng, ctx, 300, 200),
                    *_near_rational_elements(ctx, 60)]
        for x in elements:
            v = mp_value(x)
            assert x.sign() == mpmath.sign(v)
            assert x.floor() == int(mpmath.floor(v))


def test_to_float_is_correctly_rounded():
    mpmath.mp.dps = 300
    rng = random.Random(12)
    for known in CONTEXTS:
        # a fresh context, and the small values first: nothing computed
        # earlier may sharpen the result
        ctx = QuadraticContext(known.trace, known.det)
        elements = [*_near_rational_elements(ctx, 60),
                    *_random_elements(rng, ctx, 300, 200)]
        for x in elements:
            v, err = x.to_float()
            assert v == float(mp_value(x))
            assert abs(mp_value(x) - v) <= err


def test_to_float_does_not_depend_on_earlier_calls():
    ctx = QuadraticContext(1, -1)  # a fresh context, nothing cached on it
    rng = random.Random(13)
    values = [QuadraticNumber(Fraction(rng.randrange(-10**6, 10**6), 97),
                              Fraction(rng.randrange(1, 10**6), 89), ctx)
              for _ in range(200)]
    first = [x.to_float() for x in values]
    m = ctx._root[0]
    for x in _random_elements(rng, ctx, 100, 300):   # coefficients of up to 300 bits
        x.to_float()
    assert ctx._root[0] > m   # the cached root of the discriminant grew
    assert [x.to_float() for x in values] == first


# -- certified float export --------------------------------------------------

FLOAT_CONTEXTS = [*CONTEXTS, QuadraticContext(10 ** 12, 7)]  # disc = 10^24 - 28


def _mp_exact(x: QuadraticNumber):
    """(A + B*l) / d in mpmath at the working precision."""
    t, d = x.ctx.trace, x.ctx.det
    root = (t + mpmath.sqrt(mpmath.mpf(t * t - 4 * d))) / 2
    return (x.A + x.B * root) / x.d


@settings(max_examples=300, deadline=None)
@given(B=st.integers(-2 ** 600, 2 ** 600).filter(bool),
       A=st.integers(-2 ** 600, 2 ** 600), d=st.integers(1, 2 ** 600),
       offset=st.integers(-3, 3), near=st.booleans(),
       ctx=st.sampled_from(FLOAT_CONTEXTS))
def test_to_float_matches_mpmath_at_400_digits(B, A, d, offset, near, ctx):
    if near:  # A = -round(B*l) + offset: up to 600 bits cancel
        A = offset - QuadraticNumber(Fraction(1, 2), B, ctx).floor()
    x = QuadraticNumber(Fraction(A, d), Fraction(B, d), ctx)
    v, err = x.to_float()
    with mpmath.workdps(400):
        exact = _mp_exact(x)
        assert v == float(exact)
        assert abs(exact - v) <= err


@pytest.mark.parametrize("n", [300, 301])
def test_to_float_doubles_its_precision_near_a_rounding_boundary(n):
    # F(n+1) - F(n)*phi = (-1/phi)^n, about 2^-208: x lies that close to
    # the midpoint c = 1 + 2^-53 of two doubles, far inside the first
    # interval of width about 2^-174, so the ends disagree at the first m
    f0, f1 = 0, 1
    for _ in range(n):
        f0, f1 = f1, f0 + f1
    ctx = QuadraticContext(1, -1)  # fresh: its cache shows the m used
    c = Fraction(2 ** 53 + 1, 2 ** 53)
    x = QuadraticNumber(c + f1, Fraction(-f0), ctx)
    first_m = 64 + x.B.bit_length() + (2 * x.d).bit_length()
    v, _ = x.to_float()
    assert ctx._root[0] >= 2 * first_m
    # n even: x above the midpoint, n odd: below
    assert v == (1 + 2.0 ** -52 if n % 2 == 0 else 1.0)
    with mpmath.workdps(400):
        assert v == float(_mp_exact(x))


@settings(max_examples=200, deadline=None)
@given(A=st.integers(-2 ** 60, 2 ** 60), B=st.integers(-2 ** 60, 2 ** 60).filter(bool),
       d=st.integers(2 ** 900, 2 ** 1000), ctx=st.sampled_from(FLOAT_CONTEXTS))
def test_to_float_of_tiny_values(A, B, d, ctx):
    # A and B*l of one sign (l > 0 here): |x| >= l/d stays a normal double
    A = abs(A) if B > 0 else -abs(A)
    x = QuadraticNumber(Fraction(A, d), Fraction(B, d), ctx)
    v, err = x.to_float()
    with mpmath.workdps(400):
        exact = _mp_exact(x)
        assert v == float(exact) and v != 0
        assert abs(exact - v) <= err


def test_to_float_overflow_raises():
    for x in (QuadraticNumber(0, 2 ** 1100, GOLDEN), QuadraticNumber(1, -2 ** 1024, GOLDEN),
              QuadraticNumber(Fraction(2 ** 1030, 3), 1, GOLDEN)):
        with pytest.raises(OverflowError):
            x.to_float()
    big = QuadraticNumber(0, 2 ** 1020, GOLDEN)  # about 1.618 * 2^1020: finite
    with mpmath.workdps(400):
        assert big.to_float()[0] == float(_mp_exact(big))


# -- operator x partner matrix ---------------------------------------------
# Every operator and its reflected form, against an oracle on the Fraction
# coordinates a, b, for each partner type the operators dispatch on.

HUGE = 10 ** 22


class SubQuadratic(QuadraticNumber):
    __slots__ = ()


def _oracle_sign(u: Fraction, v: Fraction, ctx) -> int:
    """Sign of u + v*l from 2u + vT + v*sqrt(disc), on Fractions."""
    if v == 0:
        return (u > 0) - (u < 0)
    p, sv = 2 * u + v * ctx.trace, 1 if v > 0 else -1
    if p == 0 or (p > 0) == (v > 0):
        return sv
    return sv if v * v * ctx.disc > p * p else -sv


def _coords(y, ctx):
    """Oracle coordinates of a partner: (a, b) as Fractions."""
    if isinstance(y, QuadraticNumber):
        return Fraction(y.A, y.d), Fraction(y.B, y.d)
    return Fraction(y), Fraction(0)


def _oracle(op: str, x, y, ctx):
    (a, b), (c, e) = _coords(x, ctx), _coords(y, ctx)
    T, D = ctx.trace, ctx.det
    if op == "+":
        return a + c, b + e
    if op == "-":
        return a - c, b - e
    if op == "*":
        return a * c - D * b * e, a * e + b * c + T * b * e
    # x / y = x * conj(y) / N(y), conj(c + e l) = (c + e T) - e l
    n = c * c + c * e * T + e * e * D
    return (a * (c + e * T) + D * b * e) / n, (b * (c + e * T) - a * e - T * b * e) / n


def _assert_canonical(z, ctx, want):
    assert type(z) is QuadraticNumber and z.ctx is ctx
    assert z.d > 0 and math.gcd(z.A, z.B, z.d) == 1
    assert (Fraction(z.A, z.d), Fraction(z.B, z.d)) == want


def _oracle_floor(x, ctx) -> int:
    a, b = _coords(x, ctx)
    with mpmath.workdps(120):  # a guess, corrected by exact signs
        n = int(mpmath.floor(mp_value(x)))
    while _oracle_sign(a - n, b, ctx) < 0:
        n -= 1
    while _oracle_sign(a - n - 1, b, ctx) >= 0:
        n += 1
    return n


huge = st.integers(-HUGE, HUGE)
huge_d = st.one_of(st.just(1), st.integers(1, HUGE))
PARTNERS = ["same_d", "other_d", "int", "bool", "Rational", "Fraction",
            "equal_context", "subclass"]


def _partner(kind, x, A2, B2, d2):
    ctx = x.ctx
    if kind == "same_d":  # gcd(A2*d + 1, B2, d) = 1 keeps d exactly
        y = QuadraticNumber(Fraction(A2 * x.d + 1, x.d), Fraction(B2, x.d), ctx)
        assert y.d == x.d
        return y
    if kind == "other_d":
        return QuadraticNumber(Fraction(A2, d2), Fraction(B2, d2), ctx)
    if kind == "int":
        return A2
    if kind == "bool":
        return A2 % 2 == 0
    if kind == "Rational":
        return _rational(A2, d2)
    if kind == "Fraction":
        return Fraction(A2, d2)
    if kind == "equal_context":
        twin = QuadraticContext(ctx.trace, ctx.det)
        assert twin == ctx and twin is not ctx
        return QuadraticNumber(Fraction(A2, d2), Fraction(B2, d2), twin)
    y = QuadraticNumber(Fraction(A2, d2), Fraction(B2, d2), ctx)
    z = SubQuadratic.__new__(SubQuadratic)
    z.A, z.B, z.d, z.ctx = y.A, y.B, y.d, y.ctx
    return z


@settings(max_examples=400, deadline=None)
@given(A=huge, B=huge, d=huge_d, A2=huge, B2=huge, d2=huge_d,
       ctx=st.sampled_from(CONTEXTS), kind=st.sampled_from(PARTNERS))
@example(A=1, B=1, d=6, A2=4, B2=0, d2=1, ctx=GOLDEN, kind="int")  # gcd(n, d) = 2
@example(A=1, B=1, d=6, A2=3, B2=0, d2=4, ctx=GOLDEN, kind="Rational")
@example(A=1, B=1, d=6, A2=1, B2=5, d2=6, ctx=GOLDEN, kind="same_d")  # sum reduces
@example(A=1, B=-1, d=6, A2=1, B2=3, d2=4, ctx=GOLDEN, kind="other_d")
# int and rational divisors: negative, 10^22-sized and zero
@example(A=5, B=-3, d=7, A2=-HUGE, B2=0, d2=1, ctx=GOLDEN, kind="int")
@example(A=-HUGE, B=HUGE, d=HUGE - 1, A2=-HUGE + 1, B2=0, d2=HUGE,
         ctx=CONTEXTS[1], kind="Rational")
@example(A=HUGE, B=-1, d=6, A2=-3, B2=0, d2=HUGE, ctx=CONTEXTS[2], kind="Fraction")
@example(A=4, B=6, d=9, A2=-6, B2=0, d2=1, ctx=CONTEXTS[3], kind="int")  # gcd(4q, 6q, 9n) = 3
@example(A=1, B=1, d=6, A2=0, B2=0, d2=1, ctx=GOLDEN, kind="int")
@example(A=1, B=1, d=6, A2=0, B2=0, d2=5, ctx=GOLDEN, kind="Rational")
@example(A=1, B=1, d=6, A2=1, B2=0, d2=1, ctx=GOLDEN, kind="bool")  # False
def test_operator_partner_matrix(A, B, d, A2, B2, d2, ctx, kind):
    x = QuadraticNumber(Fraction(A, d), Fraction(B, d), ctx)
    y = _partner(kind, x, A2, B2, d2)
    _assert_canonical(x + y, ctx, _oracle("+", x, y, ctx))
    _assert_canonical(x.__radd__(y), ctx, _oracle("+", y, x, ctx))
    _assert_canonical(x - y, ctx, _oracle("-", x, y, ctx))
    _assert_canonical(x.__rsub__(y), ctx, _oracle("-", y, x, ctx))
    _assert_canonical(x * y, ctx, _oracle("*", x, y, ctx))
    _assert_canonical(x.__rmul__(y), ctx, _oracle("*", y, x, ctx))
    _assert_canonical(-x, ctx, (-Fraction(A, d), -Fraction(B, d)))
    _assert_canonical(x.conjugate(), ctx,
                      (Fraction(A, d) + Fraction(B, d) * ctx.trace, -Fraction(B, d)))
    if kind not in ("equal_context", "subclass"):  # these partners own their result
        _assert_canonical(y + x, ctx, _oracle("+", y, x, ctx))
        _assert_canonical(y - x, ctx, _oracle("-", y, x, ctx))
        _assert_canonical(y * x, ctx, _oracle("*", y, x, ctx))
    if _coords(y, ctx) != (0, 0):
        _assert_canonical(x / y, ctx, _oracle("/", x, y, ctx))
    else:
        with pytest.raises(ZeroDivisionError):
            x / y
    if x:
        _assert_canonical(x.__rtruediv__(y), ctx, _oracle("/", y, x, ctx))
    else:
        with pytest.raises(ZeroDivisionError):
            x.__rtruediv__(y)
    (a, b), (c, e) = _coords(x, ctx), _coords(y, ctx)
    want = _oracle_sign(a - c, b - e, ctx)
    assert (x < y, x <= y, x > y, x >= y) == (want < 0, want <= 0, want > 0, want >= 0)
    assert (x == y) == (want == 0) == ((a, b) == (c, e))
    assert (x != y) == (want != 0)
    assert x.sign() == _oracle_sign(a, b, ctx)
    twin = QuadraticNumber(c, e, ctx)  # y's value in x's field
    assert twin == y and not twin != y and twin <= y and not twin < y
    near = QuadraticNumber(Fraction(c.numerator, c.denominator + 1), e, ctx)
    assert (near == y) == (c.numerator == 0)


@settings(max_examples=200, deadline=None)
@given(A=huge, B=huge, d=huge_d, ctx=st.sampled_from(CONTEXTS),
       kind=st.sampled_from(PARTNERS))
def test_floor_and_float_helpers_on_every_partner(A, B, d, ctx, kind):
    x = QuadraticNumber(Fraction(A, d), Fraction(B, d), ctx)
    for v in (x, _partner(kind, x, A, B, d)):
        n, r = floor_mod1(v)
        want = _oracle_floor(v, ctx) if isinstance(v, QuadraticNumber) else (
            math.floor(Fraction(v)))
        assert math.floor(v) == n == want and type(n) is int
        assert 0 <= r < 1 and r + n == v
        if isinstance(v, QuadraticNumber):
            assert v.floor() == n
            assert type(r) is QuadraticNumber and math.gcd(r.A, r.B, r.d) == 1
            assert float(v) == v.to_float()[0]
            with mpmath.workdps(120):
                assert float(v) == pytest.approx(float(mp_value(v)), rel=2 ** -50)


def test_operator_errors_across_fields_and_with_floats():
    x, z = qn(Fraction(3, 7), Fraction(-2, 5)), QuadraticContext(2, -1).lam
    for op in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
               "__truediv__", "__rtruediv__"):
        with pytest.raises(ValueError):
            getattr(x, op)(z)
        assert getattr(x, op)(1.5) is NotImplemented
    for f in (lambda: x + z, lambda: z + x, lambda: x - z, lambda: z - x,
              lambda: x * z, lambda: z * x, lambda: x / z, lambda: z / x):
        with pytest.raises(ValueError):
            f()
    for f in (lambda: x + 1.5, lambda: 1.5 + x, lambda: x - 1.5, lambda: 1.5 - x,
              lambda: x * 1.5, lambda: 1.5 * x, lambda: x / 1.5, lambda: 1.5 / x,
              lambda: x < 1.5, lambda: 1.5 <= x):
        with pytest.raises(TypeError):
            f()
    assert (x == z) is False and (z == x) is False and x != z
    assert x.__eq__(1.5) is NotImplemented and (x == 1.5) is False


class _FractionSubclass(Fraction):
    __slots__ = ()


_FRACTIONS = st.fractions(max_denominator=10 ** 30)
_COORDINATES = st.one_of(
    st.integers(-10 ** 30, 10 ** 30),
    st.booleans(),
    _FRACTIONS,
    _FRACTIONS.map(lambda f: _rational(f.numerator, f.denominator)),
    _FRACTIONS.map(lambda f: _FractionSubclass(f.numerator, f.denominator)),
)


@settings(max_examples=400)
@given(a=_COORDINATES, b=_COORDINATES, ctx=st.sampled_from(CONTEXTS))
def test_constructor_reads_coordinates_into_the_lowest_terms_triple(a, b, ctx):
    # the constructor reads an int, bool, Rational, Fraction or Fraction
    # subclass from its slots; the field's own + and * are the generic route
    x = QuadraticNumber(a, b, ctx)
    y = ctx.lam * Fraction(b) + Fraction(a)
    assert (x.A, x.B, x.d) == (y.A, y.B, y.d)
    assert all(type(v) is int for v in (x.A, x.B, x.d))
    assert x.d > 0 and math.gcd(x.A, x.B, x.d) == 1
    assert x.ctx is ctx and x.a == a and x.b == b and type(x.a) is Rational
