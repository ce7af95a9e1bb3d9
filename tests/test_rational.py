import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rational_agreement
from nilflow.heisenberg import GroupPoint
from nilflow.scalar import (
    GOLDEN,
    QuadraticContext,
    QuadraticNumber,
    Rational,
    floor_mod1,
    parse_rational,
    parse_scalar,
)

BIG = 10 ** 22
QUADRATIC = (GOLDEN.lam, QuadraticNumber(Fraction(1, 3), 0, GOLDEN),
             QuadraticNumber(-2, 5, QuadraticContext(3, 1)))

ints = st.one_of(st.sampled_from([0, 1, -1]), st.integers(-BIG, BIG))
fractions = st.builds(
    Fraction, ints,
    st.one_of(st.just(1), st.integers(1, BIG), st.integers(-BIG, -1)))
partners = st.one_of(
    ints, st.booleans(), fractions,
    st.floats(allow_nan=True, allow_infinity=True), st.sampled_from(QUADRATIC))


def test_fraction_layout():
    # Rational writes these two slots directly and adds none of its own
    assert Fraction.__slots__ == ("_numerator", "_denominator")
    assert Rational.__slots__ == ()
    assert not hasattr(Rational(1, 2), "__dict__")


@settings(max_examples=300, deadline=None)
@given(fractions, partners)
def test_rational_agrees_with_fraction(x, y):
    rational_agreement.agree(Rational, x, y)


def test_rational_agrees_with_fraction_on_random_pairs():
    # random pairs, each also over a shared denominator, then the edge pairs
    assert rational_agreement.run(Rational, QUADRATIC, cases=500, seed=1) == 500


@settings(max_examples=200, deadline=None)
@given(fractions, st.one_of(ints, st.booleans(), fractions))
def test_exact_arithmetic_stays_rational(x, y):
    r = Rational(x.numerator, x.denominator)
    results = [r + y, y + r, r - y, y - r, r * y, y * r, -r, r ** 3]
    if y:
        results += [r / y]
    if r:
        results += [y / r, r ** -2, r ** -3]
    for value in results:
        assert type(value) is Rational
        assert math.gcd(value.numerator, value.denominator) == 1
        assert value.denominator > 0


@pytest.mark.parametrize("x", [Rational(7, 3), Rational(-7, 3), Rational(BIG, 3),
                               Rational(-BIG - 1, 1)])
def test_floor_hash_repr_str(x):
    f = Fraction(x.numerator, x.denominator)
    assert math.floor(x) == math.floor(f)
    assert hash(x) == hash(f) and {x: 1}[f] == 1
    assert repr(x) == repr(f) and str(x) == str(f)


def test_zero_division_matches_fraction():
    for a, b in [(Rational(1, 2), 0), (Rational(1, 2), Rational(0)), (1, Rational(0)),
                 (Rational(3), Fraction(0)), (Rational(-1, 2), False), (True, Rational(0)),
                 (Fraction(3, 7), Rational(0)), (Rational(0), Rational(0))]:
        with pytest.raises(ZeroDivisionError) as got:
            a / b
        with pytest.raises(ZeroDivisionError) as want:
            Fraction(a) / Fraction(b)
        assert str(got.value) == str(want.value)
    with pytest.raises(ZeroDivisionError):
        Rational(0) ** -1


def test_package_rationals_are_rational():
    assert type(parse_rational("-6/4")) is Rational and parse_rational("-6/4") == Fraction(-3, 2)
    assert type(parse_scalar("2/3")) is Rational
    x = parse_scalar("1/2-3/4*l", GOLDEN)
    assert type(x.a) is Rational and type(x.b) is Rational
    assert type(x.field_norm()) is Rational
    g = GroupPoint(1, Fraction(1, 3), True) * GroupPoint(0, 2, Fraction(5, 7))
    assert all(type(c) is Rational for c in (g.x, g.y, g.z))
    assert type(floor_mod1(5)[1]) is Rational
    with pytest.raises(ZeroDivisionError):
        parse_rational("1/0")
