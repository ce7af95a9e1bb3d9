"""Failure witnesses of the verify battery: present and exact when a case
fails, absent (so the report bytes are unchanged) when every case passes."""

import json
import random
from fractions import Fraction

from nilflow import verification as ver
from nilflow.factorization import (
    eigen_data,
    factor,
    recompose,
    surface_quadric,
    xy_of_ts,
)
from nilflow.dynamics import SectionPoint
from nilflow.freegroup import FIBONACCI, fixed_point_prefix, parse_substitution
from nilflow.heisenberg import AlgebraVector, GroupPoint, exp_point, log_point
from nilflow.scalar import GOLDEN, parse_scalar


def test_passing_checks_carry_no_witness():
    assert ver.check_group_suite(0).details == {"cases": 1000, "failures": 0}
    assert ver.check_flow_exchange(1).details == {"cases": 100, "failures": 0}
    assert ver.check_surface(4).details == {
        "cases": 1000, "failures": 0, "action_failures": 0}
    assert ver.check_decompose(11).details == {"cases": 25, "failures": 0}


def test_group_suite_witness(monkeypatch):
    monkeypatch.setattr(ver, "log_point", lambda g: AlgebraVector(0, 0, 0))
    result = ver.check_group_suite(0)
    witness = result.details["witness"]
    assert not result.passed and result.details["failures"] == 1000
    assert witness["law"] == "exp/log round trip"
    u = AlgebraVector(*(Fraction(x) for x in witness["u"].strip("()").split(", ")))
    assert u != AlgebraVector(0, 0, 0) and log_point(exp_point(u)) == u


def test_flow_exchange_witness(monkeypatch):
    monkeypatch.setattr(ver, "flow_exchange_holds", lambda *args: False)
    result = ver.check_flow_exchange(1)
    assert not result.passed and result.details["failures"] == 100
    witness = result.details["witness"]
    assert witness["law"] == "flow exchange"
    assert set(witness) == {"law", "u", "v", "t", "s", "g"}
    assert Fraction(witness["t"]) and witness["g"].startswith("[")


def test_surface_witness(monkeypatch):
    z_of_ts = ver.z_of_ts
    monkeypatch.setattr(ver, "z_of_ts", lambda data, t, s: z_of_ts(data, t, s) + 1)
    result = ver.check_surface(4)
    assert not result.passed
    assert (result.details["failures"], result.details["action_failures"]) == (1000, 0)
    witness = result.details["witness"]
    assert witness["law"] == "surface identity"
    # the witness is exact: it reproduces the failure
    data = eigen_data(factor(FIBONACCI))
    t, s = (parse_scalar(witness[k], GOLDEN) for k in ("t", "s"))
    x, y = xy_of_ts(data, t, s)
    assert surface_quadric(data).evaluate(x, y) == z_of_ts(data, t, s)
    assert surface_quadric(data).evaluate(x, y) != ver.z_of_ts(data, t, s)


def test_decompose_witness(monkeypatch):
    def broken(endo):
        raise ValueError("no factorization")
    monkeypatch.setattr(ver, "decompose", broken)
    result = ver.check_decompose(11)
    assert not result.passed and result.details["failures"] == 25
    witness = result.details["witness"]
    assert witness["law"] == "decompose raised"
    assert witness["error"] == "ValueError: no factorization"
    recompose([tuple(step) for step in witness["word"]])  # a valid generator word

    monkeypatch.setattr(ver, "decompose", lambda endo: [])
    witness = ver.check_decompose(11).details["witness"]
    assert witness["law"] == "recompose(decompose(endo)) == endo"


def test_self_induction_witness(monkeypatch):
    check = ver.dyn.self_induction_check
    assert "witness" not in ver.check_self_induction(7).details
    # a crossing solve that never lands in lam' * Sigma: a genuine failure
    real = ver.dyn.SigmaSection._crossing_step

    def never_lands(self, s, zoff):
        hop = real(self, s, zoff)
        d = self.data
        off = d.s_b + (d.s_b - d.s_a)   # outside the segment, and off lam' * Sigma
        return hop._replace(point=SectionPoint(off, hop.point.zoff))
    with monkeypatch.context() as patch:
        patch.setattr(ver.dyn.SigmaSection, "_crossing_step", never_lands)
        result = ver.check_self_induction(7)
    assert not result.passed and result.details["fibonacci"] is False
    witness = result.details["witness"]
    assert witness["law"] == "T = Lambda^-1 . (T induced on lam' Sigma) . Lambda"
    assert witness["automorphism"] == repr(factor(FIBONACCI))
    failure = witness["failure"]
    assert failure["reason"] == "no return found"
    point = SectionPoint(*(parse_scalar(failure[k], GOLDEN) for k in ("witness", "zoff")))
    assert check(eigen_data(factor(FIBONACCI)), samples=[point])["passed"]
    json.dumps(result.details)


def test_broken_line_oracles_match_the_numpy_formulas():
    import numpy as np

    rng = random.Random(3)
    for word in (fixed_point_prefix(FIBONACCI, 10_000),
                 "".join(rng.choice("ab") for _ in range(3000))):
        arr = np.frombuffer(word.encode(), dtype=np.uint8)
        is_a = (arr == ord("a")).astype(np.int64)
        a_before = np.concatenate([[0], np.cumsum(is_a)[:-1]])
        contrib = (arr == ord("b")).astype(np.int64) * a_before
        assert ver.inversion_count_oracle(word) == np.concatenate(
            [[0], np.cumsum(contrib)]).tolist()
        for k in (257, 1000, 1024):
            a = np.frombuffer(word[:k].encode(), dtype=np.uint8)
            pairs = np.triu(np.outer(a == ord("a"), a == ord("b")), k=1)
            assert ver.pair_count_oracle(word[:k]) == int(pairs.sum())
    word = fixed_point_prefix(FIBONACCI, 100_000)
    arr = np.frombuffer(word.encode(), dtype=np.uint8)
    a_k = np.concatenate([[0], np.cumsum(arr == ord("a"))]).astype(np.float64)
    b_k = np.concatenate([[0], np.cumsum(arr == ord("b"))]).astype(np.float64)
    k = np.arange(len(word) + 1, dtype=np.float64)
    phi = (1 + 5 ** 0.5) / 2
    sup = max(np.abs(a_k - k / phi).max(), np.abs(b_k - k / phi ** 2).max())
    result = ver.check_broken_line(10_000, 100_000)
    assert result.passed and result.details["projection_sup"] == float(sup)


def _projection_sup_per_letter(word):
    """The projection sup and its first k at 2, evaluated at every letter."""
    phi = (1 + 5 ** 0.5) / 2
    phi2 = phi ** 2
    a = b = 0
    sup, first = 0.0, None
    for k, letter in enumerate(word, 1):
        if letter == "a":
            a += 1
        else:
            b += 1
        da, db = abs(a - k / phi), abs(b - k / phi2)
        if da > sup or db > sup:
            sup = max(sup, da, db)
            if sup >= 2 and first is None:
                first = (k, a, b)
    return sup, first


def test_projection_sup_at_run_ends_is_the_per_letter_sup():
    # the deviations are evaluated at the ends of runs only; the double and
    # the first k at 2 are those of the loop over every letter
    for sub, n in [(FIBONACCI, 10 ** 3), (FIBONACCI, 10 ** 4), (FIBONACCI, 10 ** 5),
                   (parse_substitution("a->aab;b->a"), 10 ** 4),
                   (parse_substitution("a->abb;b->ab"), 10 ** 3)]:
        word = fixed_point_prefix(sub, n)
        for m in (n, n - 1, n - 2):
            assert ver._projection_sup(word[:m]) == _projection_sup_per_letter(word[:m])
    # words whose sup reaches 2: at a run's end, inside a run of a's or of
    # b's, at the last letter, or never; and random words
    synthetic = ["", "a", "b", "a" * 6, "a" * 40, "b" * 9, "abaababaab" + "a" * 12 + "b",
                 "ab" * 50 + "b" * 7 + "a", "aab" * 30 + "aaaaaab", "bbbbaaaa", "aaaaab"]
    rng = random.Random(17)
    synthetic += ["".join(rng.choice("aab" if i % 2 else "abb") for _ in range(rng.randrange(60)))
                  for i in range(400)]
    hits = 0
    for word in synthetic:
        expected = _projection_sup_per_letter(word)
        assert ver._projection_sup(word) == expected, word
        hits += expected[1] is not None
    assert hits > 100


def test_broken_line_witness(monkeypatch):
    assert "witness" not in ver.check_broken_line(2000, 20_000).details
    counts = ver.broken_line_counts

    def one_wrong(word, k=700):
        out = counts(word)
        if len(out) > k:
            a, b, c = out[k]
            out[k] = (a, b, c + 1)
        return out
    monkeypatch.setattr(ver, "broken_line_counts", one_wrong)
    details = ver.check_broken_line(2000, 20_000).details
    assert not details["counts_ok"] and details["spot_checks_ok"]
    c = counts(fixed_point_prefix(FIBONACCI, 700))[700][2]
    assert details["witness"] == {"law": "c_k equals the inversion count",
                                  "k": 700, "c_k": c + 1, "oracle": c}

    # an oracle that agrees with the wrong count leaves the spot check to catch it
    monkeypatch.setattr(ver, "broken_line_counts", lambda w: one_wrong(w, 1000))
    monkeypatch.setattr(ver, "inversion_count_oracle",
                        lambda w: [c for _, _, c in one_wrong(w, 1000)])
    result = ver.check_broken_line(2000, 20_000)
    assert not result.passed and result.details["counts_ok"]
    c = counts(fixed_point_prefix(FIBONACCI, 1000))[1000][2]
    assert result.details["witness"] == {"law": "c_k equals the pair count",
                                         "k": 1000, "c_k": c + 1, "pairs": c}

    # a word of a's alone leaves the line: |6 - 6/phi| > 2 first
    monkeypatch.undo()
    monkeypatch.setattr(ver, "fixed_point_prefix", lambda sub, n: "a" * n)
    result = ver.check_broken_line(100, 1000)  # fewer counts than the spot checks
    assert not result.passed and result.details["projection_sup"] >= 2
    assert result.details["witness"] == {"law": "projection within 2 of the line",
                                         "k": 6, "a_k": 6, "b_k": 0}
    json.dumps(result.details)


def test_diagonal_witness(monkeypatch):
    dyn = ver.dyn
    assert "witness" not in ver.check_diagonal(8).details
    data = eigen_data(factor(FIBONACCI))
    diag = dyn.DiagonalSection(data)
    audit = dyn.DiagonalSection.return_time_audit

    def right_half_fails(self, x, z):
        return x < Fraction(1, 2) and audit(self, x, z)
    monkeypatch.setattr(dyn.DiagonalSection, "return_time_audit", right_half_fails)
    result = ver.check_diagonal(8)
    assert not result.passed and not result.details["return_time_one"]
    witness = result.details["witness"]
    assert witness["law"] == "return time one"
    # the witness is exact: it reproduces the failure
    x, z = (parse_scalar(witness[k], GOLDEN) for k in ("x", "z"))
    assert not right_half_fails(diag, x, z) and audit(diag, x, z)

    monkeypatch.undo()
    return_map = dyn.SigmaSection.return_map

    def upper_half_stays(self, p):  # no return at all where zoff >= 0
        return dyn.ReturnRecord(p, 0, (0, 0, 0)) if p.zoff >= 0 else return_map(self, p)
    monkeypatch.setattr(dyn.SigmaSection, "return_map", upper_half_stays)
    result = ver.check_diagonal(8)
    assert not result.passed and result.details["return_time_one"]
    witness = result.details["witness"]
    assert witness["law"] == "psi . T_Sigma = T_chart . psi"
    point = SectionPoint(*(parse_scalar(witness[k], GOLDEN) for k in ("s", "zoff")))
    assert point.zoff >= 0
    assert not dyn.sigma_diagonal_conjugacy_check(data, samples=[point])["passed"]
    monkeypatch.undo()
    assert dyn.sigma_diagonal_conjugacy_check(data, samples=[point])["passed"]
    json.dumps(result.details)


def _group_point(text):
    return GroupPoint(*(Fraction(c) for c in text.strip("[]").split(", ")))


def test_plane_suite_witness(monkeypatch):
    dyn = ver.dyn
    assert "witness" not in ver.check_plane_suite(10).details
    t_phi = dyn.t_phi_affine

    def upper_half_off(x, y):
        tx, ty = t_phi(x, y)
        return tx, ty + (y > 0)
    monkeypatch.setattr(dyn, "t_phi_affine", upper_half_off)
    result = ver.check_plane_suite(10)
    assert not result.passed and not result.details["affine_identity"]
    witness = result.details["witness"]
    assert witness["law"] == "psi_bar . R'_1^n . R'_2 . psi_bar^{-1} = T_phi + (n-2, 0)"
    # the witness is exact: it reproduces the failure
    n = witness["n"]
    x, y = (parse_scalar(witness[k], GOLDEN) for k in ("x", "y"))
    u, v = dyn.r2_prime(x / dyn.PHI2, y)
    for _ in range(n):
        u, v = dyn.r1_prime(u, v)
    (tx, ty), (ox, oy) = t_phi(x, y), upper_half_off(x, y)
    assert (dyn.PHI2 * u, v) == (tx + (n - 2), ty)
    assert (dyn.PHI2 * u, v) != (ox + (n - 2), oy)

    monkeypatch.undo()
    holds = dyn.central_shift_conjugation_holds

    def upper_half_fails(x, g, y):  # depends on y, which the witness must carry
        return y.z <= 0 and holds(x, g, y)
    monkeypatch.setattr(dyn, "central_shift_conjugation_holds", upper_half_fails)
    result = ver.check_plane_suite(10)
    assert not result.passed and not result.details["cx_conjugation"]
    witness = result.details["witness"]
    assert witness["law"] == "C_x . T_g = T_g(x) . C_x"
    x, g, y = Fraction(witness["x"]), _group_point(witness["g"]), _group_point(witness["y"])
    assert not upper_half_fails(x, g, y) and holds(x, g, y)
    json.dumps(result.details)


def test_strip_witness(monkeypatch):
    dyn = ver.dyn
    assert "witness" not in ver.check_strip(5).details
    count = dyn.strip_return_count

    def miscounts_above_a_tenth(u):
        return count(u) + (u > Fraction(1, 10))
    monkeypatch.setattr(dyn, "strip_return_count", miscounts_above_a_tenth)
    result = ver.check_strip(5)
    assert not result.passed and not result.details["counts_ok"]
    witness = result.details["witness"]
    assert set(witness) == {"law", "u", "n", "expected"}
    assert witness["law"] == "return count"
    # the witness is exact: it reproduces the failure
    u = Fraction(witness["u"])
    assert u > Fraction(1, 10) and witness["n"] == miscounts_above_a_tenth(u)
    assert witness["expected"] == count(u) != witness["n"]
    json.dumps(result.details)

    # a wrong transfer coefficient a = -phi^3 - 1: the renormalization fails for real
    monkeypatch.undo()
    monkeypatch.setattr(dyn, "PHI3", dyn.PHI3 + 1)
    result = ver.check_strip(5)
    assert not result.passed and result.details["counts_ok"]
    assert not all(result.details["renormalization"])
    witness = result.details["witness"]
    assert witness["law"] == "induced strip map = renormalized strip map"
    triple = (witness["s"], witness["s_prime"], witness["theta"])
    report = dyn.renormalization_check(*(Fraction(x) for x in triple))
    first = report["failures"][0]
    assert witness["failure"] == {k: list(v) for k, v in first.items()}
    monkeypatch.undo()
    assert dyn.renormalization_check(*(Fraction(x) for x in triple))["passed"]
    json.dumps(result.details)

    # psi off by one on the upper half of the fiber: the coboundary identity fails
    psi = dyn.psi_value
    monkeypatch.setattr(dyn, "psi_value", lambda y: psi(y) + (y > Fraction(1, 2)))
    result = ver.check_strip(5)
    assert not result.passed and result.details["counts_ok"]
    assert all(result.details["renormalization"]) and not result.details["psi"]["passed"]
    witness = result.details["witness"]
    assert witness["law"] == "psi(y) = p(y - 1/phi^2) - p(y) - y - 1/(2 phi^3)"
    assert parse_scalar(witness["y"], GOLDEN) > Fraction(1, 2)
    json.dumps(result.details)

    # the values psi0, psi1 or the jump, with every identity holding
    monkeypatch.undo()
    check = dyn.psi_identity_check
    monkeypatch.setattr(dyn, "psi_identity_check",
                        lambda: {**check(), "psi0": "0", "passed": False})
    witness = ver.check_strip(5).details["witness"]
    assert witness == {"law": "psi0 = psi1 = -1/phi and the jump at 1/phi^2 is -1",
                       "psi0": "0", "psi1": "1-1*l", "jump_left_minus_right": "-1"}


def test_table_draws_follow_the_randrange_stream():
    # rng.choice of the 801-entry table and rng.randrange(-400, 401) consume
    # the generator alike, so the battery's cases are those of randrange
    for seed in (0, 1, 7, 2**40 + 3):
        table, ref = random.Random(seed), random.Random(seed)

        def expected():
            return Fraction(ref.randrange(-400, 401), 97)

        for _ in range(200):
            assert ver._rand_fraction(table) == expected()
            g = ver._rand_point(table)
            assert (g.x, g.y, g.z) == (expected(), expected(), expected())
            v = ver._rand_vector(table)
            assert (v.alpha, v.beta, v.gamma) == (expected(), expected(), expected())
        assert table.random() == ref.random()
