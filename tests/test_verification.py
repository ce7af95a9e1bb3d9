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
from nilflow.freegroup import FIBONACCI, fixed_point_prefix
from nilflow.heisenberg import AlgebraVector, GroupPoint, exp_point, log_point
from nilflow.scalar import GOLDEN, parse_scalar


def test_passing_checks_carry_no_witness():
    assert ver.check_group_suite(0, cases=5).details == {"cases": 5, "failures": 0}
    assert ver.check_flow_exchange(1, cases=5).details == {"cases": 5, "failures": 0}
    assert ver.check_surface(4, cases=5).details == {
        "cases": 5, "failures": 0, "action_failures": 0}
    assert ver.check_decompose(11, cases=5).details == {"cases": 5, "failures": 0}


def test_group_suite_witness(monkeypatch):
    monkeypatch.setattr(ver, "log_point", lambda g: AlgebraVector(0, 0, 0))
    result = ver.check_group_suite(0, cases=5)
    witness = result.details["witness"]
    assert not result.passed and result.details["failures"] == 5
    assert witness["law"] == "exp/log round trip"
    u = AlgebraVector(*(Fraction(x) for x in witness["u"].strip("()").split(", ")))
    assert u != AlgebraVector(0, 0, 0) and log_point(exp_point(u)) == u


def test_flow_exchange_witness(monkeypatch):
    monkeypatch.setattr(ver, "flow_exchange_holds", lambda *args: False)
    result = ver.check_flow_exchange(1, cases=4)
    assert not result.passed and result.details["failures"] == 4
    witness = result.details["witness"]
    assert witness["law"] == "flow exchange"
    assert set(witness) == {"law", "u", "v", "t", "s", "g"}
    assert Fraction(witness["t"]) and witness["g"].startswith("[")


def test_surface_witness(monkeypatch):
    z_of_ts = ver.z_of_ts
    monkeypatch.setattr(ver, "z_of_ts", lambda data, t, s: z_of_ts(data, t, s) + 1)
    result = ver.check_surface(4, cases=3)
    assert not result.passed
    assert (result.details["failures"], result.details["action_failures"]) == (3, 0)
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
    result = ver.check_decompose(11, cases=3)
    assert not result.passed and result.details["failures"] == 3
    witness = result.details["witness"]
    assert witness["law"] == "decompose raised"
    assert witness["error"] == "ValueError: no factorization"
    recompose([tuple(step) for step in witness["word"]])  # a valid generator word

    monkeypatch.setattr(ver, "decompose", lambda endo: [])
    witness = ver.check_decompose(11, cases=3).details["witness"]
    assert witness["law"] == "recompose(decompose(endo)) == endo"


def test_self_induction_witness(monkeypatch):
    check = ver.dyn.self_induction_check
    assert "witness" not in ver.check_self_induction(7, samples=6, autos=1).details
    # a cap of one crossing misses the longer returns: a genuine failure
    monkeypatch.setattr(ver.dyn, "self_induction_check",
                        lambda data, **kw: check(data, max_iter=1, **kw))
    result = ver.check_self_induction(7, samples=6, autos=1)
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
    assert "witness" not in ver.check_diagonal(8, samples=4).details
    data = eigen_data(factor(FIBONACCI))
    diag = dyn.DiagonalSection(data)
    audit = dyn.DiagonalSection.return_time_audit

    def right_half_fails(self, x, z):
        return x < Fraction(1, 2) and audit(self, x, z)
    monkeypatch.setattr(dyn.DiagonalSection, "return_time_audit", right_half_fails)
    result = ver.check_diagonal(8, samples=4)
    assert not result.passed and not result.details["return_time_one"]
    witness = result.details["witness"]
    assert witness["law"] == "return time one"
    # the witness is exact: it reproduces the failure
    x, z = (parse_scalar(witness[k], GOLDEN) for k in ("x", "z"))
    assert not right_half_fails(diag, x, z) and audit(diag, x, z)

    monkeypatch.undo()
    return_map = dyn.SigmaSection.return_map

    def upper_half_stays(self, p):  # no return at all where zoff >= 0
        return dyn.ReturnRecord(p, 0, ()) if p.zoff >= 0 else return_map(self, p)
    monkeypatch.setattr(dyn.SigmaSection, "return_map", upper_half_stays)
    result = ver.check_diagonal(8, samples=4)
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
    assert "witness" not in ver.check_plane_suite(10, samples=5).details
    t_phi = dyn.t_phi_affine

    def upper_half_off(x, y):
        tx, ty = t_phi(x, y)
        return tx, ty + (y > 0)
    monkeypatch.setattr(dyn, "t_phi_affine", upper_half_off)
    result = ver.check_plane_suite(10, samples=5)
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
    result = ver.check_plane_suite(10, samples=5)
    assert not result.passed and not result.details["cx_conjugation"]
    witness = result.details["witness"]
    assert witness["law"] == "C_x . T_g = T_g(x) . C_x"
    x, g, y = Fraction(witness["x"]), _group_point(witness["g"]), _group_point(witness["y"])
    assert not upper_half_fails(x, g, y) and holds(x, g, y)
    json.dumps(result.details)
