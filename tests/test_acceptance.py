"""Acceptance criteria, one test per criterion.

Exact checks carry zero tolerance; float checks state theirs inline.  Each
test prints a one-line PASS record (run with ``pytest -s`` to see them all).
Sizes and time bounds are the contractual ones, not scaled-down smoke
values.
"""

import random
import time
from fractions import Fraction

from nilflow import dynamics as dyn
from nilflow import verification as ver
from nilflow.cli import main as cli_main
from nilflow.factorization import (
    GENERATOR_ENDOS,
    HeisenbergEndo,
    decompose,
    eigen_data,
    factor,
    recompose,
)
from nilflow.freegroup import FIBONACCI
from nilflow.scalar import GOLDEN

SEED = 2026
LAM = GOLDEN.lam
FIB = eigen_data(factor(FIBONACCI))


def report(num: int, text: str, elapsed: float | None = None) -> None:
    timing = f" [{elapsed:.1f}s]" if elapsed is not None else ""
    print(f"PASS criterion {num}: {text}{timing}")


def test_criterion_01_group_algebra_suite():
    start = time.time()
    result = ver.check_group_suite(SEED)
    elapsed = time.time() - start
    assert result.passed, result.details
    assert elapsed < 5.0
    report(1, "group/algebra suite, 1000 random exact cases, zero failures",
           elapsed)


def test_criterion_02_flow_exchange():
    result = ver.check_flow_exchange(SEED)
    assert result.passed, result.details
    report(2, "flow exchange with central exponent delta*t*s, 100 exact cases")


def test_criterion_03_factorization():
    result = ver.check_factorization(SEED)
    assert result.passed, result.details
    report(3, "golden z-row coefficients, closed form vs products on 50 "
              "random substitutions, central scaling by det")


def test_criterion_04_eigenflow_conjugation():
    start = time.time()
    result = ver.check_eigenflow_conjugation(SEED)
    elapsed = time.time() - start
    assert result.passed, result.details
    assert elapsed < 10.0
    report(4, "gamma = lam - 3/2, scaled gamma' = 1/2, conjugation exact for "
              "the golden case and 10 random hyperbolic automorphisms", elapsed)


def test_criterion_05_strip_induction():
    result = ver.check_strip(SEED)
    assert result.passed, result.details
    report(5, "return counts 2/3 on the exact subintervals, renormalization "
              "with a = -phi^3 for 5 triples x >=100 points, psi values and "
              "corrected-sign identity")


def test_criterion_06_section_pipeline():
    start = time.time()
    orbit = dyn.iet_orbit_check(FIB, 10_000)
    assert orbit["passed"] and orbit["both_branches_seen"], orbit
    induction = dyn.self_induction_check(FIB, samples=100, seed=SEED)
    assert induction["passed"], induction
    diag = dyn.DiagonalSection(FIB)
    rng = random.Random(SEED)
    for _ in range(25):
        x = dyn.golden(Fraction(rng.randrange(0, 997), 997))
        z = dyn.golden(Fraction(rng.randrange(0, 997), 997))
        assert diag.return_time_audit(x, z)
    conj = dyn.sigma_diagonal_conjugacy_check(FIB, samples=50, seed=SEED)
    assert conj["passed"], conj
    audit = diag.inequality_audit()
    assert audit["passed"], audit
    elapsed = time.time() - start
    assert elapsed < 60.0
    report(6, "two-interval exchange over 10^4 iterates, self-induction on "
              "100 samples, diagonal return time 1 with exact niltranslation, "
              "crossing inequalities", elapsed)


def test_criterion_07_chart_conjugacy():
    result = dyn.fibonacci_chart_equivalence(seed=SEED)
    assert result["passed"], result
    report(7, "exact conjugacy of the diagonal chart map with the golden "
              "skew product, verified on 100 exact points "
              f"(fiber change {result['w2']} x^2 + {result['w1']} x)")


def test_criterion_08_plane_suite():
    identity = dyn.affine_identity_check(seed=SEED)
    assert identity["passed"], identity
    conj = dyn.conjugation_suite(FIB, Fraction(1, 3), seed=SEED)
    assert conj["passed"], conj
    assert dyn.gamma_zero(FIB) == Fraction(3, 2) - LAM
    invariance = dyn.region_invariance_audit()
    # report produced and outcome documented; the default coefficients
    # failing invariance is the expected outcome, not a hidden one
    assert invariance["points_in_D"] == (
        invariance["stayed_in_D"] + invariance["invariance_failures"]
    )
    assert invariance["invariance_failures"] == 0 or invariance["witnesses"]
    returns = dyn.rprime_return_audit(seed=SEED)
    assert returns["counts_in_range"], returns
    report(8, "affine identity exact for n in 0..3 on 100 points, central "
              "shear conjugation on 100 samples, gamma_0 = 3/2 - lam, region "
              f"audit documented ({invariance['invariance_failures']} "
              f"invariance failures, {returns['escapes']} escapes reported)")


def test_criterion_09_equidistribution():
    start = time.time()
    skew = dyn.equidistribution_report("skew", 1_000_000, radius=3,
                                       threshold=0.05)
    nil = dyn.equidistribution_report("nilflow", 1_000_000, radius=3,
                                      threshold=0.05, data=FIB)
    elapsed = time.time() - start
    assert skew["passed"], skew["worst_modulus"]
    assert nil["passed"], nil["worst_modulus"]
    assert elapsed < 120.0
    report(9, "all Weyl sums with 0 < max(|p|,|q|) <= 3 below 0.05 at N=10^6 "
              f"(skew worst {skew['worst_modulus']:.2e}, nilflow worst "
              f"{nil['worst_modulus']:.2e})", elapsed)


def test_criterion_10_broken_line():
    result = ver.check_broken_line(k_counts=10_000, k_proj=100_000)
    assert result.passed, result.details
    report(10, "pair counts match the definitional oracle for k <= 10^4, "
               "corrected projection sup norm "
               f"{result.details['projection_sup']:.3f} < 2 for k <= 10^5")


def test_criterion_11_decomposition():
    rng = random.Random(SEED)
    names = list(GENERATOR_ENDOS)
    for _ in range(50):
        word = [(rng.choice(names), rng.choice([-1, 1]))
                for _ in range(rng.randrange(1, 11))]
        endo = recompose(word)
        again = decompose(endo)
        rebuilt = recompose(again) if again else HeisenbergEndo.identity()
        assert rebuilt == endo
    report(11, "decompose-then-recompose exact for 50 automorphisms of up to "
               "10 random generator factors")


def test_criterion_12_determinism(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli_main(["verify", "--seed", "11", "--out", str(out1)]) == 0
    assert cli_main(["verify", "--seed", "11", "--out", str(out2)]) == 0
    b1 = (out1 / "verify-report.json").read_bytes()
    b2 = (out2 / "verify-report.json").read_bytes()
    assert b1 == b2
    report(12, "two verify runs with equal seeds emit byte-identical reports")
