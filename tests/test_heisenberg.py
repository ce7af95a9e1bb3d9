import random
from fractions import Fraction

import numpy
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nilflow.factorization import eigen_data, factor, flow_of
from nilflow.freegroup import FIBONACCI, parse_substitution
from nilflow.heisenberg import (
    AlgebraVector,
    GroupPoint,
    LatticePoint,
    bracket,
    canonicalize,
    central_flow,
    commutator,
    coset_eq,
    dilate,
    dist,
    exp_point,
    flow,
    flow_exchange_holds,
    log_point,
    norm4,
    parse_group_point,
    translate,
    translation_orbit,
)
from nilflow.scalar import GOLDEN, QuadraticContext, QuadraticNumber, Rational, parse_scalar

LAM = GOLDEN.lam


def rand_point(rng):
    def r():
        return Fraction(rng.randrange(-200, 201), 53)
    return GroupPoint(r(), r(), r())


def rand_vector(rng):
    def r():
        return Fraction(rng.randrange(-200, 201), 59)
    return AlgebraVector(r(), r(), r())


def test_group_law_examples():
    assert GroupPoint(1, 0, 0) * GroupPoint(0, 1, 0) == GroupPoint(1, 1, 1)
    assert GroupPoint(1, 2, 3).inverse() == GroupPoint(-1, -2, -1)
    assert commutator(GroupPoint(1, 0, 0), GroupPoint(0, 1, 0)) == GroupPoint(0, 0, 1)


def test_central_commutators_trivial():
    center = GroupPoint(0, 0, Fraction(5, 3))
    assert commutator(center, GroupPoint(2, -1, 7)) == GroupPoint.identity()


def test_exp_log():
    assert exp_point(AlgebraVector(1, 1, 0)) == GroupPoint(1, 1, Fraction(1, 2))
    assert log_point(GroupPoint(1, 1, 1)) == AlgebraVector(1, 1, Fraction(1, 2))
    assert exp_point(AlgebraVector(0, 0, Fraction(7, 2))) == GroupPoint(0, 0, Fraction(7, 2))
    rng = random.Random(1)
    for _ in range(300):
        v = rand_vector(rng)
        assert log_point(exp_point(v)) == v
        g = rand_point(rng)
        assert exp_point(log_point(g)) == g


def test_bracket_and_bch():
    assert bracket(AlgebraVector(1, 0, 0), AlgebraVector(0, 1, 0)) == AlgebraVector(
        0, 0, Fraction(1, 2)
    )
    v = AlgebraVector(Fraction(2, 3), -1, 5)
    assert bracket(v, v) == AlgebraVector(0, 0, 0)
    u, w = AlgebraVector(1, 0, 0), AlgebraVector(0, 1, 0)
    assert exp_point(u + w) * exp_point(bracket(u, w)) == GroupPoint(1, 1, 1)
    rng = random.Random(2)
    for _ in range(200):
        a, b = rand_vector(rng), rand_vector(rng)
        assert exp_point(a + b) * exp_point(bracket(a, b)) == exp_point(a) * exp_point(b)


def test_norm_examples():
    assert norm4(GroupPoint(0, 0, 1)) == 1
    assert norm4(GroupPoint(1, 1, Fraction(1, 2))) == 4
    assert norm4(GroupPoint(1, 2, 3)) == 29
    assert norm4(GroupPoint(1, 2, 3).inverse()) == 29


def test_norm_symmetry_and_triangle():
    rng = random.Random(3)
    for _ in range(300):
        a, b, c = rand_point(rng), rand_point(rng), rand_point(rng)
        assert norm4(a) == norm4(a.inverse())
        assert dist(a, c) <= dist(a, b) + dist(b, c) + 1e-9


def test_fibonacci_flow_time_one():
    data = eigen_data(factor(FIBONACCI))
    v = flow_of(data, "lam")
    g = flow(v, 1, GroupPoint(0, 0, 0))
    assert g == GroupPoint(LAM - 1, 2 - LAM, 2 * LAM - 3)  # [1/phi, 1/phi^2, 1/phi^3]


def test_flow_one_parameter_group():
    rng = random.Random(4)
    for _ in range(100):
        v, g = rand_vector(rng), rand_point(rng)
        t = Fraction(rng.randrange(-50, 51), 7)
        s = Fraction(rng.randrange(-50, 51), 11)
        assert flow(v, t, flow(v, s, g)) == flow(v, t + s, g)
        assert flow(v, 0, g) == g
    v, g = rand_vector(rng), rand_point(rng)
    assert translate(v, g) == flow(v, 1, g)


def test_flow_exchange_and_centrality():
    rng = random.Random(5)
    for _ in range(100):
        u, v, g = rand_vector(rng), rand_vector(rng), rand_point(rng)
        t = Fraction(rng.randrange(-40, 41), 13)
        s = Fraction(rng.randrange(-40, 41), 17)
        assert flow_exchange_holds(u, v, t, s, g)
        assert central_flow(s, flow(u, t, g)) == flow(u, t, central_flow(s, g))


def test_flow_norm_scaling():
    # along the one-parameter subgroup through g, the fourth-power norm obeys
    # norm4 = t^4 (x^2+y^2)^2 + t^2 (z - xy/2)^2
    rng = random.Random(11)
    for _ in range(100):
        g = rand_point(rng)
        t = Fraction(rng.randrange(-30, 31), 7)
        value = norm4(flow(log_point(g), t, GroupPoint.identity()))
        planar = g.x * g.x + g.y * g.y
        central = g.z - g.x * g.y / 2
        assert value == t ** 4 * planar * planar + t ** 2 * central * central


def test_dilate():
    assert dilate(2, GroupPoint(1, 1, 1)) == GroupPoint(2, 2, 4)
    assert norm4(dilate(3, GroupPoint(1, 2, 3))) == 81 * 29
    g = GroupPoint(Fraction(1, 3), -2, Fraction(5, 7))
    assert dilate(1, g) == g
    rng = random.Random(6)
    for _ in range(100):
        t = Fraction(rng.randrange(-20, 21), 3)
        h = rand_point(rng)
        assert norm4(dilate(t, h)) == t ** 4 * norm4(h)


def test_canonicalize_example():
    np = canonicalize(GroupPoint(Fraction(3, 2), Fraction(-1, 4), 2))
    assert np.rep == GroupPoint(Fraction(1, 2), Fraction(3, 4), Fraction(1, 2))
    assert np.witness == LatticePoint(-1, 1, -3)


def test_canonicalize_properties():
    assert canonicalize(GroupPoint(0, 0, 0)).rep == GroupPoint(0, 0, 0)
    assert coset_eq(GroupPoint(0, 0, 0), GroupPoint(1, 1, 1))
    rng = random.Random(7)
    for _ in range(200):
        g = rand_point(rng)
        np = canonicalize(g)
        # witness identity and idempotence
        assert g * np.witness.to_group() == np.rep
        assert canonicalize(np.rep).rep == np.rep
        gamma = GroupPoint(rng.randrange(-5, 6), rng.randrange(-5, 6),
                           rng.randrange(-5, 6))
        assert canonicalize(g * gamma).rep == np.rep


def test_scalar_kind_mixing_rejected():
    with pytest.raises(TypeError):
        GroupPoint(0.5, 0, 0) * GroupPoint(Fraction(1, 2), 0, 0)
    for a, b in [(GroupPoint(0.5, 0, 0), GroupPoint(1, 0, 0)),
                 (GroupPoint(1, 0, 0), GroupPoint(0.5, 0, 0)),
                 (GroupPoint(LAM, 0, 0), GroupPoint(0.5, 0, 0))]:
        with pytest.raises(TypeError) as got:
            a * b
        assert str(got.value) == "cannot mix float and exact scalars"
    assert GroupPoint(0.5, 0, 0) * GroupPoint(0.25, 1.0, 0) == GroupPoint(0.75, 1.0, 0.5)


@given(value=st.floats(-1e6, 1e6), as_numpy=st.booleans(), float_first=st.booleans(),
       exact=st.sampled_from([3, Fraction(-2, 7), Rational(5, 9), LAM, LAM - LAM]))
def test_float_and_exact_x_never_mix_in_either_order(value, as_numpy, float_first, exact):
    # the guard looks only at x-coordinates of unequal types
    inexact = GroupPoint(numpy.float64(value) if as_numpy else value, 0.5, 0.25)
    a, b = inexact, GroupPoint(exact, 1, 0)
    if not float_first:
        a, b = b, a
    with pytest.raises(TypeError, match="cannot mix float and exact scalars"):
        a * b
    # floats of two types do mix, both ways
    other = GroupPoint(0.5 if as_numpy else numpy.float64(0.5), 1.0, 0.0)
    assert (inexact * other).x == value + 0.5 == (other * inexact).x


def test_law_results_from_int_inputs_hold_rationals():
    # results of the law skip promotion, so none may come out as an int
    g, h, v = GroupPoint(1, 2, 3), GroupPoint(-4, 0, 5), AlgebraVector(1, -2, 3)
    points = [g * h, g.inverse(), exp_point(v), dilate(2, g), dilate(Fraction(1, 2), g),
              canonicalize(GroupPoint(-3, 7, 2)).rep, flow(v, 3, g), translate(v, g),
              commutator(g, h), GroupPoint.identity() * GroupPoint.identity()]
    for p in points:
        assert all(type(c) is Rational for c in (p.x, p.y, p.z)), repr(p)
    for w in (log_point(g), v.scale(2), v.scale(0), v + v, v + AlgebraVector(0, 0, 0)):
        assert all(type(c) is Rational for c in (w.alpha, w.beta, w.gamma)), repr(w)
    q = GroupPoint(LAM, 1, 0) * GroupPoint(1, LAM, 2)
    assert type(q.x) is QuadraticNumber and type(q.z) is QuadraticNumber
    assert type(q.y) is QuadraticNumber


def test_canonicalize_witness_holds_ints():
    for g in (GroupPoint(Fraction(7, 2), Fraction(-9, 4), 5), GroupPoint(0, 0, 0),
              GroupPoint(LAM, -LAM, 3 * LAM)):
        w = canonicalize(g).witness
        assert all(type(c) is int for c in (w.n, w.m, w.p)), repr(w)
        assert g * w.to_group() == canonicalize(g).rep
    w = canonicalize(GroupPoint(2.5, -0.25, 7.0)).witness
    assert (type(w.n), type(w.m), type(w.p)) == (int, int, int)
    assert w == LatticePoint(-2, 1, -9)  # z + x m = 9.5


def test_parse_group_point():
    g = parse_group_point("[3/2, -1/4, 2]")
    assert g == GroupPoint(Fraction(3, 2), Fraction(-1, 4), 2)
    h = parse_group_point("[l, 1-1*l, 0]", GOLDEN)
    assert h.x == LAM


# -- the niltranslation orbit kernel ------------------------------------------


def translation_oracle(step, start, n):
    """canonicalize(step * rep) of the row before, by the group law."""
    rows, point = [], start
    for _ in range(n + 1):
        rep = canonicalize(point).rep
        rows.append(rep)
        point = step * rep
    return rows


def assert_same_rows(got, want):
    """Row by row: the same type, value, text and float of every coordinate."""
    got = list(got)
    assert len(got) == len(want)
    for k, (g, w) in enumerate(zip(got, want)):
        for a, b in ((g.x, w.x), (g.y, w.y), (g.z, w.z)):
            assert type(a) is type(b) and a == b, (k, a, b)
            assert str(a) == str(b) and float(a) == float(b), (k, a, b)


def _data(sub):
    return eigen_data(factor(parse_substitution(sub)))


BIG = 10 ** 22
STARTS = {
    "rational": "[1/3, 2/7, -1/5]",
    "quadratic": "[1/3+l, 2/7-3*l, -1/5+5/7*l]",
    "mixed": "[1/3+l, 2/7, -1/5]",
    "huge": f"[{BIG + 7}/{3 * BIG + 1}+{BIG}/{BIG + 9}*l, -{5 * BIG + 3}/{BIG - 1},"
            f" {BIG + 1}/{7 * BIG + 13}-{3 * BIG}*l]",
}


@pytest.mark.parametrize("sub", ["a->ab;b->a", "a->aab;b->a", "a->abb;b->ab"])
@pytest.mark.parametrize("start", list(STARTS))
def test_translation_orbit_matches_the_group_law(sub, start):
    data = _data(sub)
    step = exp_point(flow_of(data, "lam"))
    point = parse_group_point(STARTS[start], data.context)
    assert_same_rows(translation_orbit(step, point, 300), translation_oracle(step, point, 300))


@pytest.mark.parametrize("dt", ["1/2", "5", "2/5-l", f"{BIG}/7+{BIG + 1}/{BIG + 3}*l"])
@pytest.mark.parametrize("start", list(STARTS))
def test_sampled_flow_orbit_matches_the_group_law(dt, start):
    # one left translation by the time-dt flow per step, from the time-0
    # flow of the start, whose coordinates are all field elements
    data = _data("a->ab;b->a")
    vec, dt = flow_of(data, "lam"), parse_scalar(dt, data.context)
    point = flow(vec, dt - dt, parse_group_point(STARTS[start], data.context))
    step = exp_point(vec.scale(dt))
    assert_same_rows(translation_orbit(step, point, 200), translation_oracle(step, point, 200))


@pytest.mark.parametrize("seed", range(4))
def test_translation_orbit_of_any_field_step(seed):
    # steps with denominators in every coordinate, not only eigenflows
    rng = random.Random(seed)

    def q(den):
        return Fraction(rng.randrange(-5 * den, 5 * den), den)

    ctx = QuadraticContext(*[(1, -1), (3, 1), (2, -1), (5, 3)][seed])
    step = GroupPoint(*(QuadraticNumber(q(rng.choice([3, 7, 12])), q(rng.choice([5, 11])), ctx)
                        for _ in range(3)))
    start = GroupPoint(q(9), QuadraticNumber(q(4), q(13), ctx), q(25))
    assert_same_rows(translation_orbit(step, start, 300), translation_oracle(step, start, 300))


def test_translation_orbit_row_zero_keeps_the_start_types():
    data = _data("a->aab;b->a")
    point = parse_group_point(STARTS["mixed"], data.context)
    first, second = list(translation_orbit(exp_point(flow_of(data, "lam")), point, 1))
    assert (type(first.x), type(first.y), type(first.z)) == (
        QuadraticNumber, Rational, QuadraticNumber)
    assert str(first.z) == "4/5" == str(Fraction(4, 5))
    assert all(type(c) is QuadraticNumber for c in (second.x, second.y, second.z))


@pytest.mark.parametrize("sampled", [False, True])
def test_translation_orbit_at_ten_thousand_iterates(sampled):
    # the default CLI orbits: from [0, 0, 0], step exp(v) or exp(v/2)
    vec = flow_of(eigen_data(factor(FIBONACCI)), "lam")
    dt = GOLDEN.lam - GOLDEN.lam + Fraction(1, 2)
    step = exp_point(vec.scale(dt)) if sampled else exp_point(vec)
    point = flow(vec, dt - dt, GroupPoint(0, 0, 0)) if sampled else GroupPoint(0, 0, 0)
    assert_same_rows(translation_orbit(step, point, 10_000),
                     translation_oracle(step, point, 10_000))


def test_translation_orbit_needs_a_field_step():
    data = eigen_data(factor(FIBONACCI))
    step = exp_point(flow_of(data, "lam"))
    other = QuadraticContext(3, 1).lam
    for bad in (GroupPoint(Fraction(1, 3), Fraction(1, 5), 0),
                GroupPoint(0.5, 0.25, 0.0),
                GroupPoint(step.x, step.y, other)):
        with pytest.raises(TypeError):
            translation_orbit(bad, GroupPoint(0, 0, 0), 5)
    with pytest.raises(TypeError):  # a start in another field
        translation_orbit(step, GroupPoint(other, 0, 0), 5)
    with pytest.raises(TypeError):  # floats do not mix with exact scalars
        translation_orbit(step, GroupPoint(0.5, 0.25, 0.0), 5)
