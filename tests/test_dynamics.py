import random
from fractions import Fraction
from functools import partial

import pytest

from nilflow.dynamics import (
    HALF_INV_PHI3,
    INV_PHI,
    INV_PHI2,
    INV_PHI4,
    PHI,
    PHI2,
    Branch,
    DiagonalSection,
    PiecewiseTorusMap,
    RegionCoeffs,
    SectionPoint,
    SigmaSection,
    TorusPoint2,
    affine_identity_check,
    central_shift_conjugation_holds,
    counterexample_suite,
    equidistribution_report,
    fibonacci_chart_equivalence,
    gamma_zero,
    golden,
    golden_like,
    iet_orbit_check,
    in_d2,
    nonresonance_report,
    golden_skew_step,
    psi_identity_check,
    region_invariance_audit,
    renormalization_check,
    section_samples,
    self_induction_check,
    sigma_diagonal_conjugacy_check,
    strip_family,
    strip_return_count,
)
from nilflow.factorization import eigen_data, factor
from nilflow.freegroup import FIBONACCI, parse_substitution
from nilflow.heisenberg import GroupPoint, flow
from nilflow.scalar import GOLDEN, QuadraticNumber, floor_mod1, parse_scalar
from nilflow.verification import random_hyperbolic_data

FIB_DATA = eigen_data(factor(FIBONACCI))


# -- strip maps ---------------------------------------------------------------


def test_strip_family_example():
    m = strip_family(-1, 0)
    image = m(TorusPoint2(golden(0), golden(0)))
    assert image.u == INV_PHI and image.v == INV_PHI2


def test_strip_breakpoint_exact():
    m = strip_family(-1, 0)
    assert m.branches[0].hi == INV_PHI2 == 2 - PHI
    assert m.branches[1].lo == INV_PHI2


def test_strip_preserves_fibers():
    # shear form: u-image independent of v, v-update has unit Jacobian
    m = strip_family(Fraction(1, 3), Fraction(2, 7))
    for i in range(10):
        u = golden(Fraction(i, 10))
        v1, v2 = golden(Fraction(1, 3)), golden(Fraction(2, 3))
        p1 = m(TorusPoint2(u, v1))
        p2 = m(TorusPoint2(u, v2))
        assert p1.u == p2.u
        assert (p1.v - v1) == (p2.v - v2) or (p1.v - v1) - (p2.v - v2) in (-1, 1)


def test_return_counts():
    assert strip_return_count(Fraction(1, 10)) == 2
    assert strip_return_count(Fraction(1, 5)) == 3
    eps = Fraction(1, 10 ** 6)
    assert strip_return_count(INV_PHI4 - eps) == 2
    assert strip_return_count(INV_PHI4) == 3
    assert strip_return_count(INV_PHI4 + eps) == 3
    rng = random.Random(0)
    for _ in range(100):
        u = Fraction(rng.randrange(0, 1000), 2618)
        if golden(u) >= INV_PHI2:
            continue
        expected = 2 if golden(u) < INV_PHI4 else 3
        assert strip_return_count(u) == expected


def _first_landing(table, lo, hi, u, v):
    """The oracle for ``induce``: step the base table until u lands in [lo, hi)."""
    for n in range(1, 10_000):
        _, u, v, _ = table.step_coords(u, v)
        if lo <= u < hi:
            return n, u, v
    raise AssertionError("no return within 10 000 steps")


def _assert_induce_matches_stepping(table, lo, hi, fibers, count=20, seed=0):
    induced, counts = table.induce(lo, hi)
    assert (induced.lo, induced.hi, induced.fiber_lo) == (lo, hi, table.fiber_lo)
    assert len(counts) == len(induced.branches)
    rng = random.Random(seed)
    points = [(b.lo, fibers[i % len(fibers)]) for i, b in enumerate(induced.branches)]
    points += [(lo + (hi - lo) * Fraction(rng.randrange(0, 997), 997),
                fibers[rng.randrange(len(fibers))]) for _ in range(count)]
    for u, v in points:
        n, u1, v1 = _first_landing(table, lo, hi, u, v)
        i, u2, v2, _ = induced.step_coords(u, v)
        assert (u2, v2, counts[i]) == (u1, v1, n), (u, v)
    return induced, counts


@pytest.mark.parametrize("s, theta", [(-1, 0), (Fraction(1, 3), Fraction(2, 7)),
                                      (Fraction(-5, 4), Fraction(1, 2))])
def test_induce_strip_matches_stepping(s, theta):
    m = strip_family(s, theta)
    fibers = [golden(0), golden(Fraction(1, 3)), golden(Fraction(5, 7))]
    _, counts = _assert_induce_matches_stepping(m, golden(0), INV_PHI2, fibers)
    assert sorted(set(counts)) == [2, 3]
    _assert_induce_matches_stepping(m, golden(Fraction(1, 5)), golden(Fraction(3, 4)), fibers)


def test_induce_on_the_whole_base_is_one_step():
    m = strip_family(Fraction(1, 3), Fraction(2, 7))
    induced, counts = m.induce(m.lo, m.hi)
    assert induced.branches == m.branches and counts == (1, 1)


def test_induce_errors():
    m = strip_family(-1, 0)
    zero, half = golden(0), golden(Fraction(1, 2))
    for lo, hi in ((half, half), (half, golden(Fraction(1, 3))),
                   (golden(Fraction(-1, 10)), half), (zero, golden(2))):
        with pytest.raises(ValueError, match="subinterval"):
            m.induce(lo, hi)
    # both branches land in [0, 1/2): a table, but not an exchange
    q = Fraction(1, 2)
    squash = PiecewiseTorusMap([Branch(0, q, 0, 0, 0, 0), Branch(q, 1, -q, 0, 0, 0)])
    with pytest.raises(ValueError, match="partition"):
        squash.induce(0, q)
    with pytest.raises(ValueError, match="no branch"):
        strip_return_count(INV_PHI2)


def test_piecewise_compose_and_invert():
    m = strip_family(Fraction(-5, 4), Fraction(1, 2))
    m2 = m.compose(m)
    inv = m.invert()
    rng = random.Random(1)
    for _ in range(60):
        p = TorusPoint2(golden(Fraction(rng.randrange(0, 997), 997)),
                        golden(Fraction(rng.randrange(0, 997), 997)))
        assert m2(p) == m(m(p))
        assert inv(m(p)) == p
        assert m(inv(p)) == p
    # composition and inversion stay in the class: partitions were validated
    assert m2.branches[0].lo == 0 and m2.branches[-1].hi == 1


def test_piecewise_map_certificate():
    zero, half, one = golden(0), golden(Fraction(1, 2)), golden(1)

    def shift(lo, hi, du):
        return Branch(lo, hi, du, zero, zero, zero)
    with pytest.raises(ValueError, match="empty"):
        PiecewiseTorusMap([])
    with pytest.raises(ValueError, match="partition"):
        PiecewiseTorusMap([shift(zero, golden(Fraction(1, 3)), zero),
                           shift(half, one, zero)])
    # a rotation of the circle as one branch wraps, so it is two branches here
    with pytest.raises(ValueError, match="leaves"):
        PiecewiseTorusMap([shift(zero, one, half)])
    q = Fraction(1, 2)
    rotation = PiecewiseTorusMap([Branch(0, q, q, 0, 0, q), Branch(q, 1, -q, 0, 1, 0)])
    assert (rotation.lo, rotation.hi) == (0, 1)
    step = rotation.step_coords          # a rational table steps as well
    assert step(Fraction(1, 4), Fraction(3, 4)) == (0, Fraction(3, 4), Fraction(1, 4), 1)
    assert step(Fraction(3, 4), Fraction(3, 4)) == (1, Fraction(1, 4), q, 1)
    m = strip_family(-1, 0)
    for u in (golden(Fraction(-1, 10 ** 9)), one, golden(2)):
        with pytest.raises(ValueError, match="no branch"):
            m.branch_at(u)


def test_renormalization_fixed_point_parameters():
    r = renormalization_check(-1, -1, 0)
    assert r["passed"]
    assert r["theta_prime"] == "0+0*l"
    assert r["b"] == "0-1*l"   # -phi
    assert r["a"] == "-1-2*l"  # -phi^3
    r2 = renormalization_check(-1, -1, 1)
    assert r2["passed"]
    assert r2["theta_prime"] == "1+1*l"  # phi^2


def test_renormalization_random_triples():
    rng = random.Random(2)
    for _ in range(5):
        s = Fraction(rng.randrange(-20, 20), 9)
        sp = Fraction(rng.randrange(-20, 20), 11)
        th = Fraction(rng.randrange(-20, 20), 13)
        assert renormalization_check(s, sp, th, n_points=41)["passed"]


def test_psi_identity():
    rep = psi_identity_check(100)
    assert rep["passed"]
    assert rep["psi0"] == "1-1*l"                 # -1/phi
    assert rep["jump_left_minus_right"] == "-1+0*l"
    assert rep["opposite_sign_failures"] == 100      # plus sign never matches
    assert rep["identity_failures"] == []


def test_psi_halfway_value():
    from nilflow.dynamics import psi_value
    assert psi_value(Fraction(1, 2)) == -(PHI - 1) / 2  # -1/(2 phi)


# -- sigma section ------------------------------------------------------------


def test_sigma_return_examples():
    section = SigmaSection(FIB_DATA)
    rec = section.return_map(SectionPoint(golden(0), golden(0)))
    assert rec.time == FIB_DATA.t_a
    assert rec.point.s == FIB_DATA.s_a
    assert abs(float(rec.point.s) - (-0.2764)) < 1e-4
    rec2 = section.return_map(SectionPoint(golden(Fraction(-1, 10)), golden(0)))
    assert rec2.time == FIB_DATA.t_b
    assert rec2.point.s == golden(Fraction(-1, 10)) + FIB_DATA.s_b
    assert abs(float(rec2.point.s) - 0.3472) < 1e-4


def test_sigma_starting_point_validation():
    section = SigmaSection(FIB_DATA)
    with pytest.raises(ValueError):
        section.return_map(SectionPoint(FIB_DATA.s_b, golden(0)))


def test_sigma_orbit_structure():
    rep = iet_orbit_check(FIB_DATA, 2000)
    assert rep["passed"] and rep["both_branches_seen"]


def test_sigma_replay_and_first_return_audit():
    section = SigmaSection(FIB_DATA)
    for q in section_samples(FIB_DATA, 25, seed=3):
        rec = section.return_map(q)
        assert section.replay(q, rec)
        assert section.early_crossing_audit(q)["passed"]


def test_sigma_group_reconstruction():
    section = SigmaSection(FIB_DATA)
    for q in section_samples(FIB_DATA, 10, seed=4):
        g = section.to_group(q)
        assert section.from_group(g) == q


SECTION_DATA = [FIB_DATA] + random_hyperbolic_data(random.Random(1), 8)


def test_sigma_table_equals_flow_geometry():
    for data in SECTION_DATA:
        section = SigmaSection(data)
        lo, hi = section.table.branches
        assert (lo.lo, lo.hi, lo.du) == (data.s_a, 0, data.s_b)
        assert (hi.lo, hi.hi, hi.du) == (0, data.s_b, data.s_a)
        assert [t for t, _ in section._returns] == [data.t_b, data.t_a]
        assert lo.a2 == 0 and hi.a2 == 0 and section.table.fiber_lo == Fraction(-1, 2)
        samples = section_samples(data, 40, seed=13)
        assert samples[0].s == data.s_a and samples[1].s == 0
        # the largest parameter section_samples can draw below s_b
        top = data.s_a + (data.s_b - data.s_a) * Fraction(996, 997)
        samples.append(SectionPoint(top, golden_like(Fraction(-1, 2), data)))
        for q in samples:
            rec = section.return_map(q)
            point, t, lat = section._step(q.s, q.zoff)
            assert (rec.point, rec.time, rec.lattice_word) == (point, t, (lat,))
            assert section.replay(q, rec)


TABLE_DATA = SECTION_DATA + [eigen_data(factor(parse_substitution(sub)))
                             for sub in ("a->abb;b->ab", "a->AB;b->A")]


def test_sigma_table_invert_and_compose():
    for data in TABLE_DATA:
        section = SigmaSection(data)
        table = section.table
        inverse, twice = table.invert(), table.compose(table)
        identity = inverse.compose(table)
        for q in section_samples(data, 20, seed=7):
            p = section.return_map(q).point
            p2 = section.return_map(p).point
            assert inverse.step_coords(p.s, p.zoff)[1:3] == (q.s, q.zoff)
            assert twice.step_coords(q.s, q.zoff)[1:3] == (p2.s, p2.zoff)
            assert identity.step_coords(q.s, q.zoff)[1:3] == (q.s, q.zoff)


def test_induce_sigma_tables_match_stepping():
    for data in TABLE_DATA:
        table = SigmaSection(data).table
        fibers = [golden_like(Fraction(-1, 2), data), golden_like(Fraction(2, 9), data)]
        # one interval ends at the branch point 0, one is the image of the section
        _assert_induce_matches_stepping(table, data.s_a, data.zero(), fibers, count=8)
        image = sorted((data.lam_prime * data.s_a, data.lam_prime * data.s_b))
        _assert_induce_matches_stepping(table, *image, fibers, count=8)


def test_diagonal_table_equals_group_product_step():
    rng = random.Random(17)
    for data in TABLE_DATA:
        for diag in (DiagonalSection(data), DiagonalSection(data, 0, 0)):
            third = golden_like(Fraction(1, 3), data)
            points = [(b.lo, third) for b in diag.table.branches]
            points += [(golden_like(Fraction(rng.randrange(0, 9973), 9973), data),
                        golden_like(Fraction(rng.randrange(0, 9973), 9973), data))
                       for _ in range(10)]
            for x, z in points:
                assert diag.table.step_coords(x, z)[1:3] == diag.step(x, z)


def test_sigma_table_derivation_guards(monkeypatch):
    section = SigmaSection(FIB_DATA)
    d = FIB_DATA
    with pytest.raises(AssertionError, match="does not close"):
        section._flow_offset(golden(0), 0, d.t_a, d.s_a, 0, 0)
    flow_offset = SigmaSection._flow_offset

    def curved(self, s, zoff, t, u, n, m):
        return flow_offset(self, s, zoff, t, u, n, m) + s * s
    monkeypatch.setattr(SigmaSection, "_flow_offset", curved)
    with pytest.raises(ArithmeticError, match="not affine"):
        SigmaSection(FIB_DATA)


def _scan_crossing_step(section, s, zoff):
    """The (2w+1)^2 lattice window scan that the per-row solve replaced."""
    d = section.data
    if s >= 0:
        t_br, shift, offset = d.t_a, d.s_a, (1, 0)
    else:
        t_br, shift, offset = d.t_b, d.s_b, (0, 1)
    best = (t_br, s + shift, offset)
    x0, y0 = d.alpha_p * s, d.beta_p * s
    span = max(
        abs(float(x0)) + abs(float(d.alpha * t_br)),
        abs(float(y0)) + abs(float(d.beta * t_br)),
        abs(float(d.alpha_p * d.s_a)), abs(float(d.alpha_p * d.s_b)),
        abs(float(d.beta_p * d.s_a)), abs(float(d.beta_p * d.s_b)),
    )
    w = int(span) + 2
    for n in range(-w, w + 1):
        for m in range(-w, w + 1):
            t = (d.beta_p * (n - x0) - d.alpha_p * (m - y0)) / d.delta
            u = (d.beta * (n - x0) - d.alpha * (m - y0)) / d.delta
            if 0 < t < best[0] and d.s_a <= u <= d.s_b:
                best = (t, u, (n, m))
    t, u, (n, m) = best
    g = GroupPoint(x0, y0, section.quadric.evaluate(x0, y0) + zoff)
    g1 = flow(section.vec, t, g)
    x2, y2 = d.alpha_p * u, d.beta_p * u
    assert g1.x - n == x2 and g1.y - m == y2
    wz = g1.z + g1.x * (-m) - section.quadric.evaluate(x2, y2)
    pc = -(wz + Fraction(1, 2)).floor()
    return SectionPoint(u, wz + pc), t, (-n, -m, pc)


def _scan_early_crossings(section, p, window=4):
    """The window scan of early_crossing_audit before the per-row solve."""
    d = section.data
    x0, y0 = d.alpha_p * p.s, d.beta_p * p.s
    t_branch = d.t_a if p.s >= 0 else d.t_b
    early, found = [], False
    for n in range(-window, window + 1):
        for m in range(-window, window + 1):
            t = (d.beta_p * (n - x0) - d.alpha_p * (m - y0)) / d.delta
            u = (d.beta * (n - x0) - d.alpha * (m - y0)) / d.delta
            if not d.s_a <= u < d.s_b:
                continue
            if 0 < t < t_branch:
                early.append({"n": n, "m": m, "t": str(t)})
            found = found or t == t_branch
    return {"early_crossings": early, "return_seen_in_window": found,
            "passed": not early and found}


def test_crossing_solve_equals_window_scan(monkeypatch):
    visited = []
    solve = SigmaSection._crossing_step

    def recording(self, s, zoff):
        result = solve(self, s, zoff)
        visited.append((self, s, zoff, result))
        return result
    monkeypatch.setattr(SigmaSection, "_crossing_step", recording)
    closed_end = 0
    for data in SECTION_DATA:
        del visited[:]
        assert self_induction_check(data, samples=12, seed=7)["passed"]
        assert visited
        for section, s, zoff, result in visited:
            assert result == _scan_crossing_step(section, s, zoff)
            closed_end += s == data.s_b
        # the audit, also off the section where early crossings exist
        section = visited[0][0]
        points = section_samples(data, 6, seed=2) + [
            SectionPoint(k * data.s_b, golden_like(0, data)) for k in (2, 5, -3)]
        for p in points:
            assert section.early_crossing_audit(p) == _scan_early_crossings(section, p)
        assert not all(section.early_crossing_audit(p)["passed"] for p in points)
    # lam' * s_a = s_b for one automorphism: the closed right end is visited
    assert closed_end


def test_sigma_section_computes_no_float(monkeypatch):
    def no_float(self, precision=53):
        raise AssertionError("float export in the exact core")
    monkeypatch.setattr(QuadraticNumber, "to_float", no_float)
    for data in SECTION_DATA[:2]:
        SigmaSection(data)
        assert self_induction_check(data, samples=6, seed=7)["passed"]


def test_self_induction_fibonacci():
    rep = self_induction_check(FIB_DATA, samples=40, seed=5)
    assert rep["containment"] and rep["passed"]


def test_self_induction_boundary_sample():
    # s = 0 exercises the branch boundary; s_a the left endpoint
    pts = [SectionPoint(golden(0), golden(0)),
           SectionPoint(FIB_DATA.s_a, golden(Fraction(1, 5)))]
    rep = self_induction_check(FIB_DATA, samples=pts)
    assert rep["passed"]


def test_self_induction_random_automorphisms():
    rng = random.Random(6)
    for data in random_hyperbolic_data(rng, 5, max_len=5):
        assert self_induction_check(data, samples=10, seed=7)["passed"]


@pytest.mark.parametrize("k", [420, 500])
def test_self_induction_long_returns(k):
    # an induced return of a->a^k b;b->a needs about k crossings; a fixed
    # cap of 400 reported "no return found" on this self-induced system
    data = eigen_data(factor(parse_substitution("a->" + "a" * k + "b;b->a")))
    rep = self_induction_check(data, samples=4)
    assert rep["passed"], rep["failures"][:1]


def test_self_induction_stops_at_the_predicted_time(monkeypatch):
    # a crossing solve that never lands in lam' * Sigma: each sample must give
    # up once the crossing times reach |lam| times its return time (about k
    # crossings), not after a cap of about k^2 crossings
    k = 420
    data = eigen_data(factor(parse_substitution("a->" + "a" * k + "b;b->a")))
    real = SigmaSection._crossing_step
    calls = []
    outside = data.s_b - (data.s_b - data.lam_prime * data.s_b) / 2

    def never_lands(self, s, zoff):
        calls.append(s)
        point, t, lat = real(self, s, zoff)
        back = point.s / data.lam_prime
        if data.s_a <= back < data.s_b:
            point = SectionPoint(outside, point.zoff)
        return point, t, lat

    monkeypatch.setattr(SigmaSection, "_crossing_step", never_lands)
    rep = self_induction_check(data, samples=1)
    assert [f["reason"] for f in rep["failures"]] == ["no return found"]
    assert 0 < len(calls) <= 2 * k


def test_self_induction_max_iter_override():
    rep = self_induction_check(FIB_DATA, samples=12, seed=5, max_iter=1)
    assert not rep["passed"]
    failure = rep["failures"][0]
    assert failure["reason"] == "no return found"
    point = SectionPoint(*(parse_scalar(failure[k], GOLDEN) for k in ("witness", "zoff")))
    assert self_induction_check(FIB_DATA, samples=[point])["passed"]


# -- diagonal section ---------------------------------------------------------


def test_diagonal_gamma_and_translation():
    diag = DiagonalSection(FIB_DATA, 0, 0)
    assert diag.gamma == Fraction(3, 2) - PHI
    g = diag.translation
    assert g == GroupPoint(PHI - 1, 2 - PHI, golden(0))
    assert g.x + g.y == 1


def test_diagonal_chart_round_trip():
    diag = DiagonalSection(FIB_DATA)
    rng = random.Random(8)
    for _ in range(50):
        x = golden(Fraction(rng.randrange(0, 997), 997))
        z = golden(Fraction(rng.randrange(0, 997), 997))
        assert diag.chart(diag.chart_point(x, z)) == (x, z)
    with pytest.raises(ValueError):
        diag.chart(GroupPoint(golden(Fraction(1, 3)), golden(0), golden(0)))


def test_diagonal_return_time_one():
    diag = DiagonalSection(FIB_DATA)
    rng = random.Random(9)
    for _ in range(20):
        x = golden(Fraction(rng.randrange(0, 997), 997))
        z = golden(Fraction(rng.randrange(0, 997), 997))
        assert diag.return_time_audit(x, z)


def test_time_to_diagonal():
    diag = DiagonalSection(FIB_DATA)
    assert diag.time_to_diagonal(golden(0)) == 0
    # t(s) = -(alpha_p + beta_p) s with alpha_p + beta_p = 1 - phi
    assert diag.time_to_diagonal(golden(1)) == PHI - 1


def test_inequality_audit():
    rep = DiagonalSection(FIB_DATA).inequality_audit()
    assert rep["passed"] and rep["case"] == "a_p + b_p < 0"


def test_sigma_diagonal_conjugacy():
    assert sigma_diagonal_conjugacy_check(FIB_DATA, samples=30)["passed"]


# -- chart equivalence --------------------------------------------------------


def test_golden_skew_step_at_origin():
    u, v = golden_skew_step(0, 0)
    assert u == 2 - PHI                      # 1/phi^2
    assert v == Fraction(5, 2) - PHI         # 1 - 1/(2 phi^3)


def test_golden_skew_step_needs_no_reduced_input():
    rng = random.Random(4)
    for _ in range(20):
        u = floor_mod1(rng.randrange(1, 10 ** 6) * INV_PHI)[1]
        v = floor_mod1(rng.randrange(1, 10 ** 6) * INV_PHI2)[1]
        step = golden_skew_step(u, v)
        assert golden_skew_step(u + 3, v - 2) == step == golden_skew_step(u - 5, v + 1)


def test_golden_skew_orbit_closed_form():
    u, v = golden(0), golden(0)
    for k in range(2000):
        assert u == floor_mod1(k * INV_PHI2)[1]
        assert v == floor_mod1(k * (k - 1) // 2 * INV_PHI2 - k * HALF_INV_PHI3)[1]
        u, v = golden_skew_step(u, v)


def test_skew_chunks_are_the_first_chunk_turned_and_chirped():
    from nilflow.dynamics import _skew_shifts

    def integral(x):
        return floor_mod1(x)[1] == 0

    for start in ((0, 0), (Fraction(1, 4), Fraction(1, 2)),
                  (Fraction(1, 8), Fraction(3, 4))):
        u0, v0 = golden(start[0]), golden(start[1])
        walk = [(u0, v0)]  # small indices by stepping
        while len(walk) < 2000:
            walk.append(golden_skew_step(*walk[-1]))

        def point(k):  # large ones by the closed forms
            if k < len(walk):
                return walk[k]
            return (floor_mod1(u0 + k * INV_PHI2)[1],
                    floor_mod1(v0 + k * u0 + k * (k - 1) // 2 * INV_PHI2
                               - k * HALF_INV_PHI3)[1])

        for k0 in (1, 1000, 1 << 14, 61 << 14):
            e, d = _skew_shifts(u0, k0)
            uk, vk = point(k0)
            assert integral(e - (uk - u0)) and integral(d - (vk - v0)), k0
            for j in (0, 1, 577, (1 << 14) - 1):
                u, v = point(k0 + j)
                uj, vj = point(j)
                assert integral(u - uj - (uk - u0)), (start, k0, j)
                assert integral(v - vj - (vk - v0) - j * (uk - u0)), (start, k0, j)
                assert integral(v - vj - d - j * e), (start, k0, j)


def test_chart_equivalence():
    rep = fibonacci_chart_equivalence(n_verify=100)
    assert rep["passed"] and rep["found"]
    assert rep["eps"] == -1 and rep["b2"] == 1
    assert rep["w2"] == "1/2+0*l" and rep["w1"] == "-1/2+0*l"


def test_chart_conjugacy_at_the_branch_points(monkeypatch):
    # the random check never draws the branch points x = 0 and x = 1 - alpha
    rep = fibonacci_chart_equivalence(n_verify=10)
    eps, b2 = rep["eps"], rep["b2"]
    w2, w1 = (parse_scalar(rep[k], GOLDEN) for k in ("w2", "w1"))

    def h(x, z):
        return floor_mod1(eps * x)[1], floor_mod1(b2 * z + w2 * x * x + w1 * x)[1]
    diag = DiagonalSection(FIB_DATA, 0, 0)
    for x in (golden(0), 1 - FIB_DATA.alpha):
        for z in (golden(0), golden(Fraction(1, 3)), INV_PHI):
            assert h(*diag.step(x, z)) == golden_skew_step(*h(x, z))
    # a chart map with a constant fiber offset is not conjugate to the skew
    step = DiagonalSection.step

    def shifted(self, x, z):
        x1, z1 = step(self, x, z)
        return x1, floor_mod1(z1 + Fraction(1, 7))[1]
    monkeypatch.setattr(DiagonalSection, "step", shifted)
    rep = fibonacci_chart_equivalence(n_verify=100)
    assert not rep["found"] and not rep["passed"]


# -- plane suite --------------------------------------------------------------


def test_affine_identity_spot_values():
    # n = 2 at the origin gives T_phi(0,0) itself
    x = y = golden(0)
    u, v = x / PHI2, y
    from nilflow.dynamics import r1_prime, r2_prime
    u, v = r2_prime(u, v)
    for _ in range(2):
        u, v = r1_prime(u, v)
    assert (PHI2 * u, v) == (2 - PHI, Fraction(3, 2) - PHI)
    # n = 0: first coordinate is -phi
    u2, v2 = r2_prime(golden(0), golden(0))
    assert PHI2 * u2 == -PHI


def test_affine_identity_random():
    assert affine_identity_check(100, seed=10)["passed"]


def test_origin_in_d2():
    c = RegionCoeffs.default_coeffs()
    assert in_d2(c, golden(0), golden(0))
    assert c.p(golden(0)) == 1 - PHI          # -1/phi
    assert c.r(golden(0)) == Fraction(1, 2)


def test_region_invariance_documented():
    rep = region_invariance_audit()
    assert rep["points_in_D"] > 0
    assert rep["invariance_failures"] >= 0
    assert rep["points_in_D"] == rep["stayed_in_D"] + rep["invariance_failures"]
    # the default coefficients are expected to fail; the audit documents it
    assert not rep["invariant"]
    assert rep["witnesses"]


def test_counterexample_suite_shape():
    rep = counterexample_suite(n_points=20, seed=11)
    assert rep["affine_identity"]["passed"]
    assert rep["origin_in_D2"]
    assert "histogram" in rep["return_counts"]


def test_counterexample_suite_coefficients_are_data():
    # the affine identity is region-independent, so overriding the region
    # coefficients only changes the audits
    base = RegionCoeffs.default_coeffs()
    alt = RegionCoeffs(base.p2, base.p1, base.p0, base.q1, base.q0,
                       base.r1, base.r0 + Fraction(1, 10))
    rep = counterexample_suite(alt, n_points=10, seed=12)
    assert rep["affine_identity"]["passed"]
    assert rep["r0"] != "1/2+0*l"


def test_cx_conjugation_example():
    g = GroupPoint(Fraction(1, 2), Fraction(1, 3), 0)
    assert central_shift_conjugation_holds(Fraction(1), g, GroupPoint(0, 0, 0))
    value = GroupPoint(1, 0, 0) * g
    assert value == GroupPoint(Fraction(3, 2), Fraction(1, 3), Fraction(1, 3))
    assert central_shift_conjugation_holds(Fraction(0), g, GroupPoint(2, 3, 4))


def test_gamma_zero_and_nonresonance():
    assert gamma_zero(FIB_DATA) == Fraction(3, 2) - PHI
    rep = nonresonance_report(FIB_DATA, Fraction(1, 3), grid=8)
    assert rep["nonresonant"]
    rep0 = nonresonance_report(FIB_DATA, 0, grid=2)
    assert rep0["resonances"] == [(0, 0)]


# -- Weyl sums ----------------------------------------------------------------


def test_equidistribution_small():
    rep = equidistribution_report("skew", 50_000, radius=2, threshold=0.1,
                                  escalation=1)
    assert rep["passed"]
    rep2 = equidistribution_report("nilflow", 50_000, radius=2, threshold=0.1,
                                   escalation=1)
    assert rep2["passed"]


def test_nilflow_step_lies_outside_the_field():
    from nilflow.dynamics import off_field_step
    assert off_field_step(5) == 2 ** 0.5  # Fibonacci: Q(sqrt 5)
    assert off_field_step(8) == 3 ** 0.5  # a->aab;b->a: Q(sqrt 2)
    assert off_field_step(18) == 3 ** 0.5 and off_field_step(12) == 2 ** 0.5
    data = eigen_data(factor(parse_substitution("a->aab;b->a")))
    assert data.context.disc == 8
    rep = equidistribution_report("nilflow", 10**5, data=data, escalation=1)
    assert rep["passed"], rep["worst_modulus"]


def test_zero_character_is_one():
    from nilflow.dynamics import weyl_sums_skew_product
    table = weyl_sums_skew_product([(0, 0)], 1000)
    assert abs(table[(0, 0)] - 1.0) < 1e-12


def test_exact_orbit_agrees_with_closed_form():
    from nilflow.dynamics import weyl_sums_skew_exact, weyl_sums_skew_product
    chars = [(1, 0), (0, 1), (2, -1)]
    exact = weyl_sums_skew_exact(chars, 2000)
    fast = weyl_sums_skew_product(chars, 2000)
    for pq in chars:
        assert abs(exact[pq] - fast[pq]) < 1e-9



NON_GRID = [(0, 0), (3, -1), (-2, 0), (1, 3)]


def _direct_moduli(chars, x, y):
    """|S_N|/N by one complex exponential per character over all samples."""
    import numpy as np
    return {(p, q): abs(np.exp(2j * np.pi * (p * x + q * y)).sum()) / len(x)
            for p, q in chars}


def _exact_skew_orbit(u0, v0, n):
    import numpy as np
    from nilflow.scalar import scalar_float
    u, v, pts = golden(Fraction(u0)), golden(Fraction(v0)), []
    for _ in range(n):
        pts.append((scalar_float(u), scalar_float(v)))
        u, v = golden_skew_step(u, v)
    return np.array(pts).T


def test_weyl_kernel_matches_direct_exponential_sums():
    from nilflow.dynamics import character_grid
    # every sign pattern of the grid, (0, 0), and a set off the grid
    for chars in (NON_GRID, character_grid(3) + [(0, 0)]):
        _check_weyl_kernel_against_direct_sums(chars)


def _check_weyl_kernel_against_direct_sums(chars):
    import numpy as np
    from nilflow.dynamics import (
        off_field_step, weyl_sums_nilflow, weyl_sums_skew_exact,
        weyl_sums_skew_product,
    )
    from nilflow.scalar import scalar_float

    alpha, beta = scalar_float(FIB_DATA.alpha), scalar_float(FIB_DATA.beta)
    # one chunk; then the chunks at 1000, 2000 and 3000 turned from the first,
    # the last a 500-point tail (at 1009, 2018 and 3027, a 473-point tail)
    for n, chunk in ((3000, 1 << 14), (3500, 1000), (3500, 1009)):
        t = np.arange(n) * off_field_step(5)
        want = _direct_moduli(chars, (t * alpha) % 1.0, (t * beta) % 1.0)
        got = weyl_sums_nilflow(FIB_DATA, chars, n, chunk=chunk)
        assert set(got) == set(chars)
        for pq in chars:
            assert abs(got[pq] - want[pq]) < 1e-12, (n, pq)
    # chunks of 1000 or 1009 turn the first chunk at k0 = 1000, 2000 (and
    # 3000), the fiber by a chirp over blocks of 32, which divide neither;
    # the default chunk turns two chunks of 2^14 and a 577-point tail
    for n, chunk in ((3000, 1000), (3500, 1000), (3500, 1009),
                     (2 * (1 << 14) + 577, 1 << 14)):
        for u0, v0 in ((0.0, 0.0), (0.25, 0.5)):
            want = _direct_moduli(chars, *_exact_skew_orbit(u0, v0, n))
            fast = weyl_sums_skew_product(chars, n, u0=u0, v0=v0, chunk=chunk)
            for pq in chars:
                assert abs(fast[pq] - want[pq]) < 1e-9, (n, chunk, u0, v0, pq)
    # the oracle sums one chunk, beyond 2^14 too
    for n in (3000, (1 << 14) + 577):
        want = _direct_moduli(chars, *_exact_skew_orbit(0, 0, n))
        exact = weyl_sums_skew_exact(chars, n)
        for pq in chars:
            assert abs(exact[pq] - want[pq]) < 1e-12, (n, pq)
    nilflow = partial(weyl_sums_nilflow, FIB_DATA)
    for run in (weyl_sums_skew_product, nilflow, weyl_sums_skew_exact):
        with pytest.raises(ValueError, match="n_iter must be positive"):
            run(chars, 0)
    for run in (weyl_sums_skew_product, nilflow):
        with pytest.raises(ValueError, match="chunk must be positive"):
            run(chars, 3000, chunk=0)
    with pytest.raises(ValueError, match="radius must be positive"):
        equidistribution_report("skew", 3000, radius=0)


def test_no_cos_or_sin_runs_over_a_turned_chunk(monkeypatch):
    import numpy as np
    from nilflow.dynamics import (
        character_grid, weyl_sums_nilflow, weyl_sums_skew_product,
    )
    counted = [0]

    def counting(ufunc):
        def call(x, *args, **kwargs):
            counted[0] += np.size(x)
            return ufunc(x, *args, **kwargs)
        return call
    monkeypatch.setattr(np, "cos", counting(np.cos))
    monkeypatch.setattr(np, "sin", counting(np.sin))
    # cos and sin at each point of the first chunk, both coordinates; after
    # it only the chirps (2 sqrt chunk per chunk) and the rotations, where
    # refilling one coordinate of one later chunk would cost 2 * 2^14
    n, first = 10**6, 4 * (1 << 14)
    for run in (weyl_sums_skew_product, partial(weyl_sums_nilflow, FIB_DATA)):
        counted[0] = 0
        run(character_grid(3), n)
        assert first <= counted[0] < first + n // 16, counted[0]


def test_mod1_is_np_remainder_bit_for_bit():
    import numpy as np
    from nilflow.dynamics import _mod1
    rng = np.random.default_rng(5)
    x = np.concatenate([
        rng.uniform(-4, 4, 1000), rng.uniform(-1e6, 1e6, 1000),
        1e6 + rng.uniform(-1, 1, 100), np.nextafter(1e6, [0, 2e6]),
        [-1e-20, 1e-20, -0.0, 0.0, -1.0, -3.0, -1e6, 1e6, 0.5, -0.5,
         np.nextafter(0.0, -1.0), np.nextafter(-1.0, 0.0), np.nextafter(1.0, 0.0)],
    ])
    want = np.remainder(x, 1.0)
    got = _mod1(x.copy())
    assert got.tobytes() == want.tobytes()
    assert _mod1(x) is x


def test_weyl_sums_do_not_depend_on_the_chunk():
    from nilflow.dynamics import (
        character_grid, weyl_sums_nilflow, weyl_sums_skew_product,
    )
    chars, n = character_grid(3), 100_003
    pairs = [
        (weyl_sums_skew_product(chars, n, chunk=1 << 10),
         weyl_sums_skew_product(chars, n)),
        (weyl_sums_skew_product(chars, n, u0=0.125, v0=0.75, chunk=1 << 10),
         weyl_sums_skew_product(chars, n, u0=0.125, v0=0.75)),
        (weyl_sums_nilflow(FIB_DATA, chars, n, chunk=1 << 10),
         weyl_sums_nilflow(FIB_DATA, chars, n)),
    ]
    for small, default in pairs:
        assert max(abs(small[pq] - default[pq]) for pq in chars) < 1e-10


def test_nilflow_weyl_sums_match_the_geometric_series():
    mpmath = pytest.importorskip("mpmath")
    from nilflow.dynamics import character_grid, weyl_sums_nilflow
    # Fibonacci in Q(sqrt 5) with step sqrt 2, and a->aab;b->a in Q(sqrt 2)
    # with step sqrt 3: the first chunk, 60 chunks turned from it and a turned
    # 576-point tail
    aab = eigen_data(factor(parse_substitution("a->aab;b->a")))
    for data, n, m in ((FIB_DATA, 10**5, 2), (aab, 10**6, 3)):
        table = weyl_sums_nilflow(data, character_grid(3), n)
        with mpmath.workdps(40):
            ctx = data.context
            lam = (ctx.trace + mpmath.sqrt(ctx.disc)) / 2

            def real(x):  # a + b*l in Q(l)
                return (mpmath.mpf(x.a.numerator) / x.a.denominator
                        + mpmath.mpf(x.b.numerator) / x.b.denominator * lam)

            alpha, beta = real(data.alpha), real(data.beta)
            for (p, q), got in table.items():
                theta = mpmath.sqrt(m) * (p * alpha + q * beta)
                want = abs(mpmath.sin(mpmath.pi * n * theta)
                           / (n * mpmath.sin(mpmath.pi * theta)))
                assert abs(got - float(want)) < 1e-9, (data.context, p, q)


def test_skew_weyl_sums_stay_small_in_memory():
    import tracemalloc
    from nilflow.dynamics import (
        character_grid, weyl_sums_nilflow, weyl_sums_skew_product,
    )
    chars = character_grid(3)
    for run in (lambda: weyl_sums_skew_product(chars, 10**6),
                lambda: weyl_sums_nilflow(FIB_DATA, chars, 10**6)):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20, peak
