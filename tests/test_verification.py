"""Failure witnesses of the verify battery: present and exact when a case
fails, absent (so the report bytes are unchanged) when every case passes."""

import json
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
from nilflow.freegroup import FIBONACCI
from nilflow.heisenberg import AlgebraVector, exp_point, log_point
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
