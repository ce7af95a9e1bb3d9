"""Agreement of ``nilflow.scalar.Rational`` with ``fractions.Fraction``.

:func:`agree` runs every arithmetic, comparison and conversion operator on
a ``Rational`` and on the equal ``Fraction``, with the partner on either
side, and asserts identical outcomes: the same value and kind of result, or
the same exception type.  ``tests/test_rational.py`` drives it with
hypothesis.  This file needs only the standard library, so an interpreter
without pytest, hypothesis or numpy can run it directly:

    python tests/rational_agreement.py [cases]

which loads ``src/nilflow/scalar.py`` by path (that module imports only the
standard library) and checks random pairs with entries up to 10^22, each
also against a partner over its own denominator, then :func:`edge_pairs`.
"""

from __future__ import annotations

import copy
import importlib.util
import math
import operator
import pickle
import random
import sys
from fractions import Fraction
from pathlib import Path

BINARY = (operator.add, operator.sub, operator.mul, operator.truediv,
          operator.floordiv, operator.mod, divmod,
          operator.eq, operator.ne, operator.lt, operator.le, operator.gt, operator.ge)
UNARY = (operator.neg, operator.pos, abs, math.floor, math.ceil, math.trunc,
         round, int, bool, float, hash, str, repr)
SMALL = 8  # bound on exponents and on bases raised to a rational power


def outcome(fn, *args):
    """What ``fn(*args)`` gives, in a form comparable across the two types."""
    try:
        value = fn(*args)
    except Exception as exc:  # noqa: BLE001  (the exception type is the outcome)
        return ("raises", type(exc))
    return _shape(value)


def _shape(value):
    if isinstance(value, Fraction):
        return ("rational", value.numerator, value.denominator)
    if isinstance(value, tuple):
        return tuple(_shape(v) for v in value)
    if isinstance(value, float) and math.isnan(value):
        return ("float", "nan")
    if type(value).__name__ == "QuadraticNumber":
        return ("quadratic", value.A, value.B, value.d, value.ctx)
    return (type(value).__name__, value)


def agree(rational_type, x: Fraction, y) -> None:
    """Every operator on ``rational_type(x)`` matches ``Fraction`` with partner ``y``.

    A ``Fraction`` partner is also tried as a ``rational_type``.  Powers are
    only taken where both base and exponent are small.
    """
    r, f = _same(rational_type, x), Fraction(x)
    assert type(r) is rational_type and r == f
    partners = [y]
    if type(y) is Fraction:
        partners.append(_same(rational_type, y))
    for p in partners:
        for op in BINARY:
            expect = outcome(op, f, y)
            assert outcome(op, r, p) == expect, (op, x, y, type(p))
            expect = outcome(op, y, f)
            assert outcome(op, p, r) == expect, (op, y, x, type(p))
        if _small(y):
            assert outcome(pow, r, p) == outcome(pow, f, y), (x, y)
        if _small(x):
            assert outcome(pow, p, r) == outcome(pow, y, f), (y, x)
    for op in UNARY:
        assert outcome(op, r) == outcome(op, f), (op, x)
    for back in (pickle.loads(pickle.dumps(r)), copy.copy(r), copy.deepcopy(r)):
        assert type(back) is rational_type and back == f


def _same(rational_type, x: Fraction):
    return rational_type(x.numerator, x.denominator)


def _small(y) -> bool:
    if isinstance(y, bool) or not isinstance(y, (int, float, Fraction)):
        return True  # the exponent is rejected before any power is taken
    if isinstance(y, float):
        return not math.isfinite(y) or abs(y) <= SMALL
    return abs(y.numerator) <= SMALL


def random_partner(rng: random.Random, bits: int, quadratic=()):
    """An int, bool, Fraction, float or one of ``quadratic``, zero often."""
    kind = rng.randrange(6 if quadratic else 5)
    if kind == 0:
        return rng.choice((0, 1, -1, rng.randrange(-2 ** bits, 2 ** bits)))
    if kind == 1:
        return rng.choice((True, False))
    if kind == 2:
        return random_fraction(rng, bits)
    if kind == 3:
        return rng.choice((0.0, -0.5, 2.5, 1e300, float("inf"), float("nan"),
                           rng.uniform(-10, 10)))
    return rng.choice(quadratic)


def random_fraction(rng: random.Random, bits: int) -> Fraction:
    bits = rng.choice((2, 8, bits))
    num = rng.choice((0, rng.randrange(-2 ** bits, 2 ** bits)))
    return Fraction(num, rng.choice((1, rng.randrange(1, 2 ** bits), -rng.randrange(1, 9))))


def edge_pairs() -> list[tuple[Fraction, object]]:
    """Pairs at each branch of the one-frame kernel, in both orders through
    :func:`agree`: common denominators whose sum or difference cancels to
    lowest terms, to an integer or to zero; int and bool partners; negative
    and zero divisors; and entries of 10^22."""
    big = 10 ** 22
    xs = [Fraction(5, 12), Fraction(-5, 12), Fraction(7, 12), Fraction(0), Fraction(3),
          Fraction(-1), Fraction(big + 1, big), Fraction(-big, 7), Fraction(big, 3)]
    ys = [Fraction(7, 12), Fraction(-5, 12), Fraction(1, 12), Fraction(5, 12),
          Fraction(big - 1, big), Fraction(-big - 1, big), Fraction(big, 7), Fraction(-3, 7),
          Fraction(-2, 3), Fraction(0), Fraction(-1), 0, 1, -1, -6, 12, big, -big, 3 * big,
          True, False]
    return [(x, y) for x in xs for y in ys]


def run(rational_type, quadratic=(), cases: int = 3000, seed: int = 0) -> int:
    """Check ``cases`` random pairs with entries up to 10^22, each also with a
    partner over the same denominator, then :func:`edge_pairs`; returns ``cases``."""
    rng = random.Random(seed)
    bits = (10 ** 22).bit_length()
    for _ in range(cases):
        x = random_fraction(rng, bits)
        agree(rational_type, x, random_partner(rng, bits, quadratic))
        agree(rational_type, x, Fraction(rng.randrange(-2 ** bits, 2 ** bits), x.denominator))
    for x, y in edge_pairs():
        agree(rational_type, x, y)
    return cases


def main(argv) -> int:
    path = Path(__file__).resolve().parent.parent / "src" / "nilflow" / "scalar.py"
    spec = importlib.util.spec_from_file_location("scalar", path)
    scalar = importlib.util.module_from_spec(spec)
    sys.modules["scalar"] = scalar  # pickle finds the class by module name
    spec.loader.exec_module(scalar)
    assert Fraction.__slots__ == ("_numerator", "_denominator")
    quadratic = (scalar.GOLDEN.lam, scalar.QuadraticNumber(Fraction(1, 3), 0, scalar.GOLDEN))
    cases = run(scalar.Rational, quadratic, cases=int(argv[1]) if len(argv) > 1 else 3000)
    print(f"Rational agrees with Fraction on {cases} random pairs "
          f"(Python {sys.version.split()[0]})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
