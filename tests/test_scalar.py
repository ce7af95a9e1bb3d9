
import random
import time
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilflow.scalar import (
    GOLDEN,
    ParseError,
    QuadraticContext,
    QuadraticNumber,
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
    assert LAM.frac() == LAM - 1
    assert (-LAM).floor() == -2
    assert floor_mod1(Fraction(3, 2)) == (1, Fraction(1, 2))


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


def test_to_float_precision_floor():
    with pytest.raises(ValueError):
        LAM.to_float(precision=16)


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
    assert str(x) == (f"{a}+{b}*l" if b >= 0 else f"{a}-{-b}*l")
    assert str(x) == (f"{x.a}+{x.b}*l" if x.b >= 0 else f"{x.a}-{-x.b}*l")


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
    for precision in (32, 40, 53, 120, 400):
        for x in _random_elements(rng, ctx, 20, 300):
            x.to_float(precision)
    assert [x.to_float() for x in values] == first
    assert [x.to_float(precision=40) for x in values] == first
