"""Words on two generators and their substitutions.

Words are strings over ``a b A B`` (uppercase marks inverse letters) kept
freely reduced.  A substitution is determined by the images of ``a`` and
``b``; applying one to a word and composing two of them are letterwise
operations followed by free reduction.
"""

from __future__ import annotations

from .heisenberg import GroupPoint
from .scalar import ParseError

ALPHABET = "abAB"

_GENERATOR_POINTS = {
    "a": GroupPoint(1, 0, 0),
    "b": GroupPoint(0, 1, 0),
    "A": GroupPoint(1, 0, 0).inverse(),
    "B": GroupPoint(0, 1, 0).inverse(),
}


def _check_letters(word: str) -> None:
    for i, c in enumerate(word):
        if c not in ALPHABET:
            raise ParseError(f"invalid letter {c!r}", i)


def reduce_word(word: str) -> str:
    """Freely reduce; cancellation is confluent so one stack pass suffices."""
    _check_letters(word)
    out: list[str] = []
    for c in word:
        if out and out[-1] == c.swapcase():
            out.pop()
        else:
            out.append(c)
    return "".join(out)


def invert_word(word: str) -> str:
    return reduce_word(word)[::-1].swapcase()


def concat(u: str, v: str) -> str:
    return reduce_word(u + v)


class Endomorphism:
    """Substitution a -> image_a, b -> image_b on the free group F2."""

    __slots__ = ("image_a", "image_b", "name")

    def __init__(self, image_a: str, image_b: str, name: str | None = None):
        self.image_a = reduce_word(image_a)
        self.image_b = reduce_word(image_b)
        self.name = name
        if not self.image_a or not self.image_b:
            raise ParseError("substitution images must be nonempty after reduction")

    def apply(self, word: str) -> str:
        a, b = self.image_a, self.image_b
        if not (word.strip("ab") or a.strip("ab") or b.strip("ab")):
            # positive images of a positive word: nothing can cancel
            return word.translate({ord("a"): a, ord("b"): b})
        images = {
            "a": a,
            "b": b,
            "A": invert_word(a),
            "B": invert_word(b),
        }
        out: list[str] = []
        for c in reduce_word(word):
            for d in images[c]:
                if out and out[-1] == d.swapcase():
                    out.pop()
                else:
                    out.append(d)
        return "".join(out)

    __call__ = apply

    def compose(self, other: "Endomorphism") -> "Endomorphism":
        """self after other: (self.compose(other))(w) = self(other(w))."""
        return Endomorphism(self.apply(other.image_a), self.apply(other.image_b))

    def is_positive(self) -> bool:
        return self.image_a.islower() and self.image_b.islower()

    def __eq__(self, other) -> bool:
        if not isinstance(other, Endomorphism):
            return NotImplemented
        return self.image_a == other.image_a and self.image_b == other.image_b

    def __hash__(self) -> int:
        return hash((self.image_a, self.image_b))

    def __str__(self) -> str:
        return f"a->{self.image_a};b->{self.image_b}"

    def __repr__(self) -> str:
        tag = f", name={self.name!r}" if self.name else ""
        return f"Endomorphism({self.image_a!r}, {self.image_b!r}{tag})"


def parse_substitution(text: str) -> Endomorphism:
    """Parse the grammar 'a->WORD;b->WORD' (uppercase = inverse letters)."""
    s = text.replace(" ", "")
    parts = s.split(";")
    if len(parts) != 2:
        raise ParseError(f"expected 'a->...;b->...', got {text!r}")
    images = {}
    pos = 0
    for part, gen in zip(parts, "ab"):
        prefix = f"{gen}->"
        if not part.startswith(prefix):
            raise ParseError(f"expected {prefix!r}", pos)
        image = part[len(prefix):]
        if not image:
            raise ParseError(f"empty image for {gen!r}", pos + len(prefix))
        for i, c in enumerate(image):
            if c not in ALPHABET:
                raise ParseError(f"invalid letter {c!r}", pos + len(prefix) + i)
        images[gen] = image
        pos += len(part) + 1
    return Endomorphism(images["a"], images["b"], name=text)


def _check_prolongable(endo: Endomorphism) -> None:
    if not endo.is_positive():
        raise ValueError("fixed point requires a positive substitution")
    if not endo.image_a.startswith("a") or len(endo.image_a) < 2:
        raise ValueError("substitution is not prolongable from 'a'")


def fixed_point_prefix(endo: Endomorphism, n: int) -> str:
    """Length-n prefix of the fixed infinite word of a prolongable substitution."""
    _check_prolongable(endo)
    word = "a"
    while len(word) < n:
        word = endo.apply(word)
    return word[:n]


# images sigma^k(c) up to this many letters are written out whole
_PIECE = 1 << 12


def fixed_point_pieces(endo: Endomorphism, n: int):
    """The prefix of :func:`fixed_point_prefix` as an iterator of nonempty
    pieces, generated depth first without the whole word.

    sigma^k(a) is a prefix of sigma^(k+1)(a), so the first n letters are
    those of sigma^(L+m)(a), with m the fewest levels that give n letters.
    The images sigma^L(c) are written out whole, L as deep as keeps them at
    most 4096 letters; the letters of sigma^m(a) are walked with a stack of
    one position per level (a string iterator), and each yields its image.
    A letter that sigma fixes is its own image at every level, so it is not
    walked down.  The errors of :func:`fixed_point_prefix` are raised when
    the function is called.
    """
    _check_prolongable(endo)

    def pieces():
        images = {"a": endo.image_a, "b": endo.image_b}
        (aa, ab), (ba, bb) = ((w.count("a"), w.count("b")) for w in images.values())
        blocks = {"a": "a", "b": "b"}  # sigma^L(c)
        # the length of sigma(w) is read off the letter counts of w
        while max(w.count("a") * (aa + ab) + w.count("b") * (ba + bb)
                  for w in blocks.values()) <= _PIECE:
            blocks = {c: endo.apply(w) for c, w in blocks.items()}
        la, lb, m = len(blocks["a"]), len(blocks["b"]), 0
        while la < n:  # la, lb: the lengths of sigma^(L+m)(a), sigma^(L+m)(b)
            la, lb, m = aa * la + ab * lb, ba * la + bb * lb, m + 1
        left, stack = n, [iter("a")]
        while left > 0:
            c = next(stack[-1], None)
            if c is None:
                stack.pop()
            elif len(stack) <= m and images[c] != c:  # a fixed letter is not walked
                stack.append(iter(images[c]))
            else:
                piece = blocks[c][:left]
                left -= len(piece)
                yield piece

    return pieces()


def broken_line(word: str) -> list[GroupPoint]:
    """Partial products x_0 = 1, x_{k+1} = x_k * n_{u_{k+1}} along the word."""
    word = reduce_word(word)
    points = [GroupPoint.identity()]
    cur = points[0]
    for c in word:
        cur = cur * _GENERATOR_POINTS[c]
        points.append(cur)
    return points


def iter_broken_line_counts(word):
    """(a_k, b_k, c_k) for k = 0 .. len(word) of a positive word, one at a
    time: letter counts and a-before-b pairs.

    Integer fast path of :func:`broken_line`; for positive words the group
    coordinates of x_k are exactly these counts.  ``word`` is a string, or
    an iterator of nonempty pieces of one (:func:`fixed_point_pieces`).  A
    signed word is a ValueError, raised when the function is called; a
    signed piece, when it is reached.
    """
    if isinstance(word, str):
        if not word.islower():
            raise ValueError("counts interpretation requires a positive word")
        word = (word,)

    def counts():
        a = b = c = 0
        yield a, b, c
        for piece in word:
            if not piece.islower():
                raise ValueError("counts interpretation requires a positive word")
            for ch in piece:
                if ch == "a":
                    a += 1
                else:
                    b += 1
                    c += a
                yield a, b, c

    return counts()


def broken_line_counts(word: str) -> list[tuple[int, int, int]]:
    """The list of :func:`iter_broken_line_counts`."""
    return list(iter_broken_line_counts(word))


FIBONACCI = parse_substitution("a->ab;b->a")

# The six generator substitutions whose factorizations generate the lattice
# automorphism group.
GENERATOR_SUBSTITUTIONS = {
    "s1": parse_substitution("a->ab;b->b"),
    "s2": parse_substitution("a->ab;b->a"),
    "s3": parse_substitution("a->a;b->ba"),
    "s4": parse_substitution("a->b;b->ab"),
    "s5": parse_substitution("a->Bab;b->b"),
    "s6": parse_substitution("a->a;b->Aba"),
}
