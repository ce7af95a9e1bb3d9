import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilflow.freegroup import (
    FIBONACCI,
    GENERATOR_SUBSTITUTIONS,
    broken_line,
    broken_line_counts,
    concat,
    fixed_point_pieces,
    fixed_point_prefix,
    invert_word,
    iter_broken_line_counts,
    parse_substitution,
    reduce_word,
)
from nilflow.heisenberg import GroupPoint
from nilflow.scalar import ParseError

words = st.text(alphabet="abAB", max_size=24)


def test_parse_examples():
    assert parse_substitution("a->ab;b->a") == FIBONACCI
    s5 = parse_substitution("a->Bab;b->b")
    assert s5 == GENERATOR_SUBSTITUTIONS["s5"]
    with pytest.raises(ParseError):
        parse_substitution("a->aB;b->")
    with pytest.raises(ParseError):
        parse_substitution("a->ab")
    with pytest.raises(ParseError):
        parse_substitution("a->axb;b->a")


def test_word_ops_examples():
    assert reduce_word("abB") == "a"
    assert invert_word("ab") == "BA"
    assert concat("ab", "BA") == ""


@settings(max_examples=200)
@given(words)
def test_reduce_idempotent(w):
    r = reduce_word(w)
    assert reduce_word(r) == r
    inv = invert_word(w)
    assert concat(r, inv) == ""


@settings(max_examples=200)
@given(words, words)
def test_reduce_subadditive(u, v):
    assert len(concat(u, v)) <= len(reduce_word(u)) + len(reduce_word(v))


def test_apply_examples():
    assert FIBONACCI.apply("ab") == "aba"
    assert GENERATOR_SUBSTITUTIONS["s5"].apply("a") == "Bab"


@settings(max_examples=100)
@given(words, words)
def test_apply_is_homomorphism(u, v):
    sigma = GENERATOR_SUBSTITUTIONS["s2"]
    assert sigma.apply(concat(u, v)) == concat(sigma.apply(u), sigma.apply(v))


@settings(max_examples=100)
@given(words, words)
def test_apply_preserves_commutators(u, v):
    sigma = parse_substitution("a->Bab;b->ba")
    comm = concat(concat(u, v), concat(invert_word(u), invert_word(v)))
    image = concat(
        concat(sigma.apply(u), sigma.apply(v)),
        concat(invert_word(sigma.apply(u)), invert_word(sigma.apply(v))),
    )
    assert sigma.apply(comm) == image


def test_compose_respects_application():
    rng = random.Random(1)
    names = list(GENERATOR_SUBSTITUTIONS)
    for _ in range(50):
        a = GENERATOR_SUBSTITUTIONS[rng.choice(names)]
        b = GENERATOR_SUBSTITUTIONS[rng.choice(names)]
        w = "".join(rng.choice("abAB") for _ in range(rng.randrange(0, 12)))
        assert a.compose(b).apply(w) == a.apply(b.apply(w))


def test_fixed_point():
    assert fixed_point_prefix(FIBONACCI, 8) == "abaababa"
    assert fixed_point_prefix(FIBONACCI, 1) == "a"
    assert fixed_point_prefix(FIBONACCI, 13).count("a") == 8
    with pytest.raises(ValueError):
        fixed_point_prefix(GENERATOR_SUBSTITUTIONS["s5"], 5)  # not positive
    with pytest.raises(ValueError):
        fixed_point_prefix(parse_substitution("a->b;b->ab"), 5)  # not prolongable


def _apply_by_letters(endo, word):
    """The letterwise image, freely reduced: the route for signed words."""
    images = {"a": endo.image_a, "b": endo.image_b,
              "A": invert_word(endo.image_a), "B": invert_word(endo.image_b)}
    return reduce_word("".join(images[c] for c in word))


PROLONGABLE = [
    *(f"a->{'a' * k}b;b->a" for k in (1, 2, 3, 4, 6, 10, 20, 35, 50)),
    *(f"a->ab{'a' * k};b->ab" for k in (1, 2, 3, 4, 6, 10, 20, 35, 50)),
    "a->abb;b->ab", "a->abaab;b->ab",
]


@pytest.mark.parametrize("text", PROLONGABLE)
def test_fixed_point_prefix_matches_the_letterwise_route(text):
    endo = parse_substitution(text)
    word = "a"
    while len(word) < 5000:
        word = _apply_by_letters(endo, word)
    assert fixed_point_prefix(endo, 5000) == word[:5000]


@pytest.mark.parametrize("text", ["a->ab;b->a", "a->aab;b->a", f"a->{'a' * 420}b;b->a"])
def test_fixed_point_pieces_are_the_prefix(text):
    endo = parse_substitution(text)
    for n in (1, 2, len(endo.image_a), 10**4):
        pieces = list(fixed_point_pieces(endo, n))
        assert all(pieces) and "".join(pieces) == fixed_point_prefix(endo, n), n
        assert list(iter_broken_line_counts(iter(pieces))) == broken_line_counts(
            fixed_point_prefix(endo, n)), n


def test_fixed_point_pieces_of_a_fixed_letter():
    # a->ab;b->b has the fixed point ab^(n-1), sigma^k(a) = ab^k: the walk is
    # n - 4096 levels deep, and b is not walked down any of them
    endo = parse_substitution("a->ab;b->b")
    assert "".join(fixed_point_pieces(endo, 20_000)) == "a" + "b" * 19_999


def test_fixed_point_pieces_refuse_when_called():
    # the errors of fixed_point_prefix, before any piece is asked for
    with pytest.raises(ValueError, match="positive"):
        fixed_point_pieces(GENERATOR_SUBSTITUTIONS["s5"], 5)
    with pytest.raises(ValueError, match="prolongable"):
        fixed_point_pieces(parse_substitution("a->b;b->ab"), 5)
    with pytest.raises(ValueError, match="positive"):
        list(iter_broken_line_counts(iter(["ab", "aB"])))


def test_apply_checks_letters_of_a_positive_substitution():
    for word in ("abx", "xab", "a b"):
        with pytest.raises(ParseError):
            FIBONACCI.apply(word)
    assert FIBONACCI.apply("aAb") == _apply_by_letters(FIBONACCI, "aAb") == "a"


def test_fixed_point_is_fixed():
    w = fixed_point_prefix(FIBONACCI, 200)
    assert FIBONACCI.apply(w)[:200] == w


def test_broken_line_examples():
    assert broken_line("a")[1] == GroupPoint(1, 0, 0)
    assert broken_line("ab")[2] == GroupPoint(1, 1, 1)
    assert broken_line_counts("abaab")[-1] == (3, 2, 4)


def test_broken_line_counts_match_group_law():
    word = fixed_point_prefix(FIBONACCI, 300)
    points = broken_line(word)
    counts = broken_line_counts(word)
    for p, (a, b, c) in zip(points, counts):
        assert p == GroupPoint(a, b, c)


def test_broken_line_counts_brute_force():
    word = fixed_point_prefix(FIBONACCI, 120)
    counts = broken_line_counts(word)
    for k in range(0, 121, 17):
        brute = sum(
            1
            for i in range(k)
            for j in range(i + 1, k)
            if word[i] == "a" and word[j] == "b"
        )
        assert counts[k][2] == brute


def test_broken_line_counts_reject_signed_words():
    with pytest.raises(ValueError):
        broken_line_counts("aB")
