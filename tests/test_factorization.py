import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilflow.factorization import (
    GENERATOR_ENDOS,
    EigenSignError,
    HeisenbergEndo,
    check_hypothesis_H,
    conjugation_identity_holds,
    decompose,
    eigen_data,
    endo_power,
    factor,
    flow_of,
    gamma_from_integers,
    gamma_of,
    recompose,
    surface_quadric,
    tile_membership,
    ts_of_xy,
    xy_of_ts,
    z_of_ts,
)
from nilflow.freegroup import FIBONACCI, GENERATOR_SUBSTITUTIONS, parse_substitution
from nilflow.heisenberg import AlgebraVector, GroupPoint
from nilflow.scalar import GOLDEN, QuadraticNumber

LAM = GOLDEN.lam
FIB_ENDO = factor(FIBONACCI)
FIB_DATA = eigen_data(FIB_ENDO)


def qn(a, b, ctx=GOLDEN):
    return QuadraticNumber(Fraction(a), Fraction(b), ctx)


def rand_in(rng, ctx):
    return QuadraticNumber(Fraction(rng.randrange(-100, 101), 29),
                           Fraction(rng.randrange(-100, 101), 31), ctx)


# -- factor ------------------------------------------------------------------


def test_factor_fibonacci_matches_closed_form():
    assert FIB_ENDO == HeisenbergEndo(1, 1, 1, 0, 1, 0)
    # z-row: -z + x(x+1)/2 + xy
    rng = random.Random(0)
    for _ in range(50):
        x, y = rng.randrange(-9, 10), rng.randrange(-9, 10)
        z = Fraction(rng.randrange(-9, 10), 7)
        image = FIB_ENDO.apply(GroupPoint(x, y, z))
        assert image.z == -z + Fraction(x * (x + 1), 2) + x * y


def test_factor_s5_central_image():
    assert GENERATOR_ENDOS["s5"].apply(GroupPoint(1, 0, 0)) == GroupPoint(1, 0, 1)


def test_factor_identity():
    ident = parse_substitution("a->a;b->b")
    assert factor(ident) == HeisenbergEndo.identity()


def test_factor_is_functorial():
    rng = random.Random(1)
    names = list(GENERATOR_SUBSTITUTIONS)
    for _ in range(40):
        a = GENERATOR_SUBSTITUTIONS[rng.choice(names)]
        b = GENERATOR_SUBSTITUTIONS[rng.choice(names)]
        assert factor(a.compose(b)) == factor(a).compose(factor(b))


def test_central_generator_scaling():
    for endo in [FIB_ENDO, *GENERATOR_ENDOS.values()]:
        assert endo.apply(GroupPoint(0, 0, 1)) == GroupPoint(0, 0, endo.det_m())


# -- endo algebra ------------------------------------------------------------


def test_endo_apply_example():
    assert FIB_ENDO.apply(GroupPoint(1, 1, 1)) == GroupPoint(2, 1, 1)
    assert FIB_ENDO.apply(GroupPoint(0, 0, 0)) == GroupPoint(0, 0, 0)


def test_endo_is_homomorphism():
    rng = random.Random(2)
    for _ in range(100):
        g = GroupPoint(rng.randrange(-9, 10), rng.randrange(-9, 10),
                       rng.randrange(-9, 10))
        h = GroupPoint(rng.randrange(-9, 10), rng.randrange(-9, 10),
                       rng.randrange(-9, 10))
        assert FIB_ENDO.apply(g * h) == FIB_ENDO.apply(g) * FIB_ENDO.apply(h)


def test_endo_invert():
    rng = random.Random(3)
    inv = FIB_ENDO.invert()
    assert inv.compose(FIB_ENDO) == HeisenbergEndo.identity()
    assert FIB_ENDO.compose(inv) == HeisenbergEndo.identity()
    for _ in range(100):
        g = GroupPoint(Fraction(rng.randrange(-50, 51), 7),
                       Fraction(rng.randrange(-50, 51), 9),
                       Fraction(rng.randrange(-50, 51), 11))
        assert inv.apply(FIB_ENDO.apply(g)) == g
    with pytest.raises(ValueError):
        HeisenbergEndo(2, 0, 0, 1, 0, 0).invert()


# -- hypothesis --------------------------------------------------------------


def test_hypothesis_examples():
    rep = check_hypothesis_H(FIB_ENDO)
    assert rep.passed and rep.lam == LAM
    parabolic = check_hypothesis_H(HeisenbergEndo(1, 1, 0, 1, 0, 0))
    assert not parabolic.passed
    rep2 = check_hypothesis_H(HeisenbergEndo(2, 1, 1, 1, 0, 0))
    assert rep2.passed
    # lam = (3 + sqrt 5)/2 is 1 + phi in the trace-3 context
    assert rep2.context.trace == 3 and rep2.context.det == 1
    assert rep2.lam == rep2.context.lam
    not_unimodular = check_hypothesis_H(HeisenbergEndo(2, 0, 0, 1, 0, 0))
    assert not not_unimodular.passed


def test_hypothesis_negative_trace_dominant_root():
    endo = HeisenbergEndo(0, 1, 1, -3, 0, 0)  # trace -3, det -1
    rep = check_hypothesis_H(endo)
    assert rep.passed
    assert rep.lam < -1
    assert -1 < rep.lam_prime < 1
    # eigen equation for the dominant value via the alpha formula
    alpha = endo.b / (endo.b + rep.lam - endo.a)
    beta = 1 - alpha
    assert endo.a * alpha + endo.b * beta == rep.lam * alpha
    # conjugation still holds even though the section conventions do not
    gamma = gamma_from_integers(endo, rep.lam, alpha, beta, endo.e, endo.f)
    vec = AlgebraVector(alpha, beta, gamma)
    rng = random.Random(4)
    for _ in range(30):
        t = rand_in(rng, rep.context)
        g = GroupPoint(rand_in(rng, rep.context), rand_in(rng, rep.context),
                       rand_in(rng, rep.context))
        assert conjugation_identity_holds(endo, vec, rep.lam, t, g)
    with pytest.raises(EigenSignError):
        eigen_data(endo)


def test_eigen_sign_error_for_matching_sign_pattern():
    # [[3,-1],[1,0]] passes (H) but both eigenvectors sit in one quadrant
    endo = HeisenbergEndo(3, -1, 1, 0, 0, 0)
    assert check_hypothesis_H(endo).passed
    with pytest.raises(EigenSignError):
        eigen_data(endo)


# -- eigen data --------------------------------------------------------------


def test_eigen_values_fibonacci():
    d = FIB_DATA
    assert d.alpha == LAM - 1 and d.beta == 2 - LAM
    assert d.t_a == (3 * LAM + 1) / 5
    assert d.t_b == (LAM + 2) / 5
    assert d.alpha_p == qn(1, 0) and d.beta_p == -LAM
    assert d.delta == LAM - 3
    assert d.s_a == (LAM - 3) / 5
    assert d.s_b == (2 * LAM - 1) / 5
    assert abs(float(d.t_a) - 1.17082) < 1e-5
    assert abs(float(d.t_b) - 0.72361) < 1e-5
    assert abs(float(d.delta) - (-1.382)) < 1e-3
    assert abs(float(d.s_a) - (-0.2764)) < 1e-4
    assert abs(float(d.s_b) - 0.4472) < 1e-4


def test_eigen_data_share_one_context_per_field():
    # so products of eigen data with golden constants take the same-context route
    assert FIB_DATA.context is GOLDEN and FIB_DATA.lam.ctx is GOLDEN
    aab = parse_substitution("a->aab;b->a")
    first, second = eigen_data(factor(aab)), eigen_data(factor(aab))
    assert first.context is second.context and first.context is not GOLDEN


def test_parallelism_identities():
    d = FIB_DATA
    assert (d.t_a * d.alpha - 1) * d.beta_p == d.t_a * d.beta * d.alpha_p
    assert d.t_b * d.alpha * d.beta_p == (d.t_b * d.beta - 1) * d.alpha_p


def test_scale_invariance_of_section_data():
    # rescaling the contracting eigenvector must not move t_a, t_b
    d = FIB_DATA
    scale = Fraction(7, 3)
    alpha_p, beta_p = scale * d.alpha_p, scale * d.beta_p
    delta = d.alpha * beta_p - alpha_p * d.beta
    assert beta_p / delta == d.t_a
    assert -alpha_p / delta == d.t_b


def test_gamma_values():
    assert FIB_DATA.gamma == LAM - Fraction(3, 2)
    assert gamma_of(FIB_ENDO, "lam") == LAM - Fraction(3, 2)
    # rescaled contracting eigenvector (1/phi^2, -1/phi)
    scaled = gamma_from_integers(FIB_ENDO, FIB_DATA.lam_prime,
                                 2 - LAM, 1 - LAM, 1, 0)
    assert scaled == Fraction(1, 2)
    # arbitrary central offsets (n, m) = (0, 0)
    assert gamma_from_integers(FIB_ENDO, LAM, FIB_DATA.alpha, FIB_DATA.beta,
                               0, 0) == Fraction(3, 2) - LAM
    with pytest.raises(ValueError):
        gamma_from_integers(HeisenbergEndo(2, 1, 1, 1, 0, 0),
                            QuadraticNumber(1, 0, GOLDEN), qn(1, 0), qn(0, 0),
                            0, 0)


def test_flow_conjugation_fibonacci():
    vec = flow_of(FIB_DATA, "lam")
    assert vec == AlgebraVector(LAM - 1, 2 - LAM, LAM - Fraction(3, 2))
    ident = GroupPoint(0, 0, 0)
    assert conjugation_identity_holds(FIB_ENDO, vec, LAM, qn(1, 0), ident)
    assert conjugation_identity_holds(FIB_ENDO, vec, LAM, qn(0, 0), ident)
    vec_p = flow_of(FIB_DATA, "lam_prime")
    assert conjugation_identity_holds(
        FIB_ENDO, vec_p, FIB_DATA.lam_prime, qn(1, 0), ident
    )
    rng = random.Random(5)
    for _ in range(100):
        t = rand_in(rng, GOLDEN)
        g = GroupPoint(rand_in(rng, GOLDEN), rand_in(rng, GOLDEN),
                       rand_in(rng, GOLDEN))
        assert conjugation_identity_holds(FIB_ENDO, vec, LAM, t, g)


def test_gamma_is_unique():
    # any other central coefficient breaks the conjugation identity
    vec = AlgebraVector(FIB_DATA.alpha, FIB_DATA.beta,
                        FIB_DATA.gamma + Fraction(1, 97))
    assert not conjugation_identity_holds(
        FIB_ENDO, vec, LAM, qn(1, 0), GroupPoint(0, 0, 0)
    )


# -- surface and tile ---------------------------------------------------------


def test_surface_quadric_examples():
    q = surface_quadric(FIB_DATA)
    zero = qn(0, 0)
    assert q.evaluate(zero, zero) == 0
    assert q.evaluate(LAM - 1, 2 - LAM) == 2 * LAM - 3          # 1/phi^3
    assert q.evaluate(qn(1, 0), -LAM) == Fraction(1, 2)


def test_surface_identity_random():
    q = surface_quadric(FIB_DATA)
    rng = random.Random(6)
    for _ in range(1000):
        t, s = rand_in(rng, GOLDEN), rand_in(rng, GOLDEN)
        x, y = xy_of_ts(FIB_DATA, t, s)
        assert q.evaluate(x, y) == z_of_ts(FIB_DATA, t, s)
    for _ in range(100):
        x, y = rand_in(rng, GOLDEN), rand_in(rng, GOLDEN)
        t, s = ts_of_xy(FIB_DATA, x, y)
        xx, yy = xy_of_ts(FIB_DATA, t, s)
        assert (xx, yy) == (x, y)


def test_automorphism_action_on_surface():
    q = surface_quadric(FIB_DATA)
    rng = random.Random(7)
    for _ in range(200):
        t, s = rand_in(rng, GOLDEN), rand_in(rng, GOLDEN)
        x, y = xy_of_ts(FIB_DATA, t, s)
        g = GroupPoint(x, y, q.evaluate(x, y))
        x2, y2 = xy_of_ts(FIB_DATA, FIB_DATA.lam * t, FIB_DATA.lam_prime * s)
        assert FIB_ENDO.apply(g) == GroupPoint(x2, y2, q.evaluate(x2, y2))


def test_tile_membership():
    q = surface_quadric(FIB_DATA)
    zero = qn(0, 0)
    assert tile_membership(FIB_DATA, q, GroupPoint(zero, zero, zero)) == "D_b"
    t, s = FIB_DATA.t_a / 2, FIB_DATA.s_a / 2
    x, y = xy_of_ts(FIB_DATA, t, s)
    on_surface = GroupPoint(x, y, q.evaluate(x, y))
    assert tile_membership(FIB_DATA, q, on_surface) == "D_a"
    above = GroupPoint(zero, zero, qn(1, 0))
    assert tile_membership(FIB_DATA, q, above) == "outside"


# -- decomposition -----------------------------------------------------------


def test_decompose_identity():
    assert decompose(HeisenbergEndo.identity()) == []


def test_decompose_examples():
    word = decompose(FIB_ENDO)
    assert recompose(word) == FIB_ENDO
    combo = GENERATOR_ENDOS["s1"].compose(GENERATOR_ENDOS["s3"])
    assert recompose(decompose(combo)) == combo


def test_decompose_random_roundtrip():
    rng = random.Random(8)
    names = list(GENERATOR_ENDOS)
    for _ in range(50):
        word = [(rng.choice(names), rng.choice([-1, 1]))
                for _ in range(rng.randrange(1, 11))]
        endo = recompose(word)
        again = decompose(endo)
        rebuilt = recompose(again) if again else HeisenbergEndo.identity()
        assert rebuilt == endo


def test_decompose_rejects_non_automorphism():
    with pytest.raises(ValueError):
        decompose(HeisenbergEndo(2, 0, 0, 1, 0, 0))


def test_endo_power():
    s5 = GENERATOR_ENDOS["s5"]
    assert endo_power(s5, 4) == HeisenbergEndo(1, 0, 0, 1, 4, 0)
    assert endo_power(s5, -2) == HeisenbergEndo(1, 0, 0, 1, -2, 0)


def test_endo_power_equals_repeated_compose():
    for name, gen in GENERATOR_ENDOS.items():
        for sign, base in ((1, gen), (-1, gen.invert())):
            out = HeisenbergEndo.identity()
            for k in range(21):
                assert endo_power(gen, sign * k) == out, (name, sign * k)
                out = out.compose(base)


def test_decompose_at_height_10_22():
    big = 10 ** 22
    shear = HeisenbergEndo(1, big, 0, 1, 0, 0)
    assert decompose(shear) == [("s3", big)]
    word = [("s1", big + 3), ("s3", -big), ("s5", 7), ("s2", -1), ("s6", big - 1),
            ("s4", 1), ("s1", -(big // 3))]
    endo = recompose(word)
    assert max(abs(v) for row in endo.matrix() for v in row) > big
    for target in (shear, endo, endo.invert()):
        start = time.perf_counter()
        again = decompose(target)
        assert recompose(again) == target
        assert time.perf_counter() - start < 1.0


# -- the closed-form algebra against the group law ---------------------------


def _int(value) -> int:
    value = Fraction(value)
    assert value.denominator == 1
    return value.numerator


def compose_by_apply(g: HeisenbergEndo, h: HeisenbergEndo) -> HeisenbergEndo:
    """g after h, its central data read off images of the lattice generators."""
    (a, b), (c, d) = g.matrix()
    (p, q), (r, s) = h.matrix()
    na = g.apply(h.apply(GroupPoint(1, 0, 0)))
    nb = g.apply(h.apply(GroupPoint(0, 1, 0)))
    return HeisenbergEndo(a * p + b * r, a * q + b * s, c * p + d * r, c * q + d * s,
                          _int(na.z), _int(nb.z))


def invert_by_apply(g: HeisenbergEndo) -> HeisenbergEndo:
    """The inverse whose generator images g maps back to the generators."""
    det = g.det_m()
    na, nb, nc, nd = det * g.d, -det * g.b, -det * g.c, det * g.a
    return HeisenbergEndo(na, nb, nc, nd, -det * _int(g.central_poly(na, nc)),
                          -det * _int(g.central_poly(nb, nd)))


HEIGHT = st.integers(-10 ** 22, 10 ** 22)


@st.composite
def endos(draw, unimodular: bool = False):
    if unimodular:
        # shear . lower shear . optional reflection: det is 1 or -1
        p, q, sign = draw(HEIGHT), draw(HEIGHT), draw(st.sampled_from([1, -1]))
        a, b, c, d = 1 + p * q, sign * p, q, sign
    else:
        a, b, c, d = (draw(HEIGHT) for _ in range(4))
    return HeisenbergEndo(a, b, c, d, draw(HEIGHT), draw(HEIGHT))


@settings(max_examples=200, deadline=None)
@given(g=endos(), h=endos())
def test_compose_equals_group_law_route(g, h):
    assert g.compose(h) == compose_by_apply(g, h)


@settings(max_examples=200, deadline=None)
@given(g=endos(unimodular=True), h=endos(unimodular=True))
def test_invert_equals_group_law_route(g, h):
    assert g.det_m() in (1, -1)
    inv = g.invert()
    assert inv == invert_by_apply(g)
    assert inv.compose(g) == g.compose(inv) == HeisenbergEndo.identity()
    point = GroupPoint(Fraction(3, 7), -2, Fraction(-5, 11))
    assert inv.apply(g.apply(point)) == point
    assert compose_by_apply(g, h).invert() == h.invert().compose(inv)


def test_package_has_no_assert_statements():
    # invariants must survive python -O, which strips assert statements
    import ast
    from pathlib import Path

    import nilflow

    found = []
    for path in sorted(Path(nilflow.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []
