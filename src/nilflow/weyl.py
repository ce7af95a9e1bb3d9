"""Weyl-sum diagnostics of the golden skew product and the nilflow.

The Weyl sums are the only floating-point experiment of the package.  Only
they use numpy, and they import it when called, so the exact maps start
without it.
"""

from __future__ import annotations

import math

from .dynamics import HALF_INV_PHI3, INV_PHI2, golden
from .factorization import EigenData, eigen_data, factor
from .freegroup import FIBONACCI
from .scalar import _rational, floor_mod1
from .sections import golden_skew_step


# ---------------------------------------------------------------------------
# Weyl sums


def half_grid(radius: int) -> list[tuple[int, int]]:
    """One character of each pair +-(p, q) with 0 < max(|p|, |q|) <= radius:
    q > 0, or q = 0 < p.  |S(-p, -q)| = |S(p, q)|, so a pair has one modulus."""
    return [(p, q) for q in range(radius + 1)
            for p in range(-radius if q else 1, radius + 1)]


# the most memory the Weyl block kernel may hold at once, in bytes: N is
# capped at about 1.1e12 for radius 3, and the radius at 722 even at N = 1
WEYL_MEMORY_BUDGET = 2 << 30


class WeylSizeError(ValueError):
    """A Weyl-sum size whose block kernel would pass ``WEYL_MEMORY_BUDGET``:
    N, or the radius if ``by_radius`` (no N is accepted at it)."""

    def __init__(self, message: str, by_radius: bool):
        super().__init__(message)
        self.by_radius = by_radius


def _block_bytes(n: int, r: int) -> int:
    """An upper bound on the bytes :func:`_block_moduli` holds at radius r
    with C and m at most n: five power tables of r + 1 rows, per q up to
    2r + 1 rows of b, a and t and three FFT rows of length at most
    2^(bits of 2n - 2), the kernel's FFT, the float phase rows, 1 KiB for
    each of the (2r + 1)^2 characters in the grid and the tables and report
    keyed by them, and 4 MiB for what grows with neither."""
    size = 1 << (2 * n - 2).bit_length()
    return (16 * (5 * (r + 1) * n + (2 * r + 1) * (4 * n + 3 * size) + size)
            + 64 * n + 1024 * (2 * r + 1) ** 2 + (4 << 20))


def _largest_n(r: int) -> int:
    """The largest N whose default blocks fit the budget at radius r: N fits
    iff C = ceil(sqrt N) does, so it is C^2 for the largest such C, and 0
    when the characters alone pass the budget."""
    lo, hi = 0, 1
    while _block_bytes(hi, r) <= WEYL_MEMORY_BUDGET:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if _block_bytes(mid, r) <= WEYL_MEMORY_BUDGET else (lo, mid)
    return lo * lo


def _blocks(n_iter: int, r: int) -> tuple[int, int]:
    """(C, m) of :func:`_block_moduli` at radius r, C = ceil(sqrt N) and
    m = ceil(N/C) <= C; WeylSizeError past the budget."""
    if n_iter < 1:
        raise ValueError(f"n_iter must be positive, got {n_iter}")
    c = math.isqrt(n_iter - 1) + 1
    m = -(-n_iter // c)
    if _block_bytes(c, r) > WEYL_MEMORY_BUDGET:
        largest = _largest_n(r)
        raise WeylSizeError(
            f"N = {n_iter} needs about {_block_bytes(c, r) / 2 ** 30:.1f} GiB "
            f"in the Weyl block kernel, over its budget of {WEYL_MEMORY_BUDGET >> 30} GiB; "
            + (f"the largest accepted N at radius {r} is {largest}" if largest
               else f"no N is accepted at radius {r}"), by_radius=not largest)
    return c, m


def _mod1(x):
    """x - floor(x), in place on a float array: the same doubles as
    ``np.remainder(x, 1.0)`` (both are the exact x - floor(x), rounded once),
    at a fraction of its cost."""
    import numpy as np
    return np.subtract(x, np.floor(x), out=x)


def _turns(*terms):
    """The sum of n gamma mod 1 over the terms (gamma, n), gamma exact and n
    an array of integers held as doubles, 0 <= n < 2^53, each to about an
    ulp whatever n.

    gamma is reduced mod 1 exactly and cut into pieces of t = max(1, 53 - b)
    bits, b the bits of max n: the j-th piece is a multiple of 2^-jt below
    2^-(j-1)t, so n times it and its fractional part are exact.  Pieces are
    taken until n times the rest of gamma is below 1/2, which then adds
    rounded once, and the total is reduced mod 1 between pieces.  Below
    n = 2^26 one piece suffices.
    """
    import numpy as np
    total = 0.0
    for gamma, n in terms:
        rest = floor_mod1(gamma)[1]
        b = int(np.max(n)).bit_length()
        if b > 53:
            raise ValueError(f"n = {int(np.max(n))} is 2^53 or more, past the exact "
                             "integers of a double")
        t = s = max(1, 53 - b)
        while True:
            k = math.floor(rest * (1 << s))
            rest = rest - _rational(k, 1 << s)
            whole = n * (k / (1 << s))
            total = total + (whole - np.floor(whole))
            if s > b:  # n rest < 2^(b - s) <= 1/2
                break
            total = _mod1(total)
            s += t
        total = total + n * float(rest)
    return _mod1(total)


def _block_moduli(chars, n_iter: int, rows) -> dict:
    """|S_N|/N of each character over orbit points k = iC + j < N, in blocks.

    The block length is C = ceil(sqrt N), and there are m = ceil(N/C) <= C
    blocks.  ``rows(C, m)`` gives, mod 1, the phases x_j, y_j of the first
    block's points (j < C), the shifts X_i, Y_i of block i < m, and the
    chirp h n^2 (n < C) or None for h = 0:
    point iC + j is (x_j + X_i, y_j + Y_i + 2 h i j).  So
    S(p, q) = sum_i A_i T_i with A_i = e(p X_i + q Y_i),
    T_i = sum_j B_j e(2 q h i j) and B_j = e(p x_j + q y_j).  By
    2ij = i^2 + j^2 - (i - j)^2, T_i = w_i sum_j B_j w_j conj(w_(i-j)) with
    w_n = e(q h n^2): one FFT convolution of length at least m + C - 1 gives
    every T_i (Bluestein's chirp-z transform).  Without a chirp, or at
    q = 0, every full block has T_i = sum_j B_j and no FFT runs.  The last
    block, full or not, is summed directly.

    Each row takes one complex exponential per point; the harmonics are its
    powers and their conjugates, and |S(-p, -q)| = |S(p, q)|, so characters
    are taken with q >= 0 and grouped by q.
    """
    import numpy as np
    r = max([1] + [max(abs(p), abs(q)) for p, q in chars])
    c, m = _blocks(n_iter, r)
    tail = n_iter - (m - 1) * c  # points of the last block

    def powers(phase):  # e(k t) for k = 0 .. r
        out = np.empty((r + 1, len(phase)), dtype=np.complex128)
        out[0], out[1] = 1.0, np.exp(2j * np.pi * phase)
        for k in range(2, r + 1):
            np.multiply(out[k - 1], out[1], out=out[k])
        return out

    *phases, chirp = rows(c, m)
    x, y, sx, sy = map(powers, phases)
    w = None if chirp is None else powers(chirp)
    def half(pq):  # the one of (p, q) and (-p, -q) that is computed
        p, q = pq
        return pq if q > 0 or (q == 0 and p >= 0) else (-p, -q)
    groups: dict[int, set] = {}
    for p, q in map(half, chars):
        groups.setdefault(q, set()).add(p)
    moduli = {}
    for q, ps in groups.items():
        ps = sorted(ps)
        b = np.array([x[p] if p >= 0 else x[-p].conj() for p in ps]) * y[q]
        a = np.array([sx[p] if p >= 0 else sx[-p].conj() for p in ps]) * sy[q]
        if w is None or q == 0:
            t = np.repeat(b.sum(axis=1, keepdims=True), m, axis=1)
            t[:, -1] = b[:, :tail].sum(axis=1)
        else:
            wq = w[q]
            b *= wq[:c]
            size = 1 << (m + c - 2).bit_length()
            kernel = np.zeros(size, dtype=np.complex128)
            kernel[:m], kernel[size - c + 1:] = wq[:m].conj(), wq[c - 1:0:-1].conj()
            t = np.fft.ifft(np.fft.fft(b, size) * np.fft.fft(kernel))[:, :m]
            t[:, -1] = (b[:, :tail] * wq[abs(m - 1 - np.arange(tail))].conj()).sum(axis=1)
            t *= wq[:m]
        for p, s in zip(ps, (a * t).sum(axis=1)):
            moduli[p, q] = float(abs(s)) / n_iter
    return {pq: moduli[half(pq)] for pq in chars}


def weyl_sums_skew_exact(chars, n_iter: int) -> dict:
    """Birkhoff averages along the exact golden skew product orbit from (0, 0).

    The oracle of :func:`weyl_sums_skew_product`: the orbit is iterated
    exactly in Q(sqrt 5), slow next to the closed forms, and each character
    is summed directly over its correctly rounded float points, one complex
    exponential per point, so it shares no code with the block kernel.
    """
    import numpy as np
    if n_iter < 1:
        raise ValueError(f"n_iter must be positive, got {n_iter}")
    u, v, pts = golden(0), golden(0), []
    for _ in range(n_iter):
        pts.append((float(u), float(v)))
        u, v = golden_skew_step(u, v)
    x, y = np.array(pts).T
    return {(p, q): abs(np.exp(2j * np.pi * (p * x + q * y)).sum()) / n_iter
            for p, q in chars}


def _skew_shifts(k0: int):
    """(E, D) in [0, 1)^2, exact in Q(sqrt 5), with u_{k0+j} = u_j + E and
    v_{k0+j} = v_j + D + j E mod 1 on the golden skew product orbit from
    (0, 0).

    From the closed forms u_k = k/phi^2 and
    v_k = k(k-1)/(2 phi^2) - k/(2 phi^3): E = u_k0 and D = v_k0, and the
    cross term j k0/phi^2 of v_{k0+j} is j E.
    """
    return (floor_mod1(k0 * INV_PHI2)[1],
            floor_mod1(k0 * (k0 - 1) // 2 * INV_PHI2 - k0 * HALF_INV_PHI3)[1])


def weyl_sums_skew_product(chars, n_iter: int) -> dict:
    """Birkhoff averages of characters along the golden skew product orbit
    from (0, 0).

    With blocks of C points and (E, D) = :func:`_skew_shifts` (C), block i
    starts at E_i = i E and D_i = i D + C (i choose 2) E, and its point j is
    (u_j + E_i, v_j + D_i + i j E): a chirp h = E/2 for
    :func:`_block_moduli`.  Every phase row is a sum of n gamma mod 1 with
    gamma exact (:func:`_turns`), so each errs by about 2^-52 turns.
    """
    import numpy as np

    def rows(c, m):
        e, d = _skew_shifts(c)
        j, i = np.arange(c, dtype=np.float64), np.arange(m, dtype=np.float64)
        return (_turns((INV_PHI2, j)),
                _turns((-HALF_INV_PHI3, j), (INV_PHI2, j * (j - 1) / 2)),
                _turns((e, i)),
                _turns((d, i), (c * e, i * (i - 1) / 2)),
                _turns((e / 2, j * j)))
    return _block_moduli(chars, n_iter, rows)


def off_field_step(disc: int) -> float:
    """sqrt(m) for the smallest squarefree m >= 2 with sqrt(m) outside Q(sqrt(disc)).

    sqrt(m) lies in the field exactly when disc = m * k^2 for an integer k,
    which at most one of m = 2 and m = 3 can satisfy.
    """
    half = disc // 2
    return math.sqrt(3 if disc % 2 == 0 and math.isqrt(half) ** 2 == half else 2)


def weyl_sums_nilflow(data: EigenData, chars, n_iter: int) -> dict:
    """Birkhoff averages of base characters along a sampled nilflow orbit.

    The sampling step is always :func:`off_field_step` of the field (sqrt(2)
    for Q(sqrt 5), sqrt(3) for Q(sqrt 2)), outside the field of the
    eigenvector entries, so that 1, step*alpha and step*beta are rationally
    independent.  Sample k sits at k (step alpha, step beta) mod 1, with
    step the double and alpha, beta exact, so with blocks of C points
    block i is the first block translated by i C (step alpha, step beta):
    no chirp, and :func:`_block_moduli` runs no FFT.
    """
    import numpy as np
    step = _rational(*off_field_step(data.context.disc).as_integer_ratio())
    gx, gy = step * data.alpha, step * data.beta

    def rows(c, m):
        j, i = np.arange(c, dtype=np.float64), np.arange(m, dtype=np.float64)
        return _turns((gx, j)), _turns((gy, j)), _turns((c * gx, i)), _turns((c * gy, i)), None
    return _block_moduli(chars, n_iter, rows)


def equidistribution_report(kind: str, n_iter: int, radius: int = 3,
                            threshold: float = 0.05,
                            data: EigenData | None = None) -> dict:
    """Weyl-sum table, rerun at 10 N before a failure is declared: N is
    checked against the memory budget before any sum, 10 N once the table
    at N asks for the rerun.  The kernel sums one character of each pair
    (:func:`half_grid`), whose modulus is written under "p,q" and "-p,-q"."""
    if radius < 1:
        raise ValueError(f"radius must be positive, got {radius}")
    _blocks(n_iter, radius)  # sizes checked before the grid is built
    chars = half_grid(radius)

    def run(n):
        if kind == "skew":
            return weyl_sums_skew_product(chars, n)
        if kind == "nilflow":
            d = data if data is not None else eigen_data(factor(FIBONACCI))
            return weyl_sums_nilflow(d, chars, n)
        raise ValueError(f"unknown orbit kind {kind!r}")

    table = run(n_iter)
    escalated = bool(max(table.values()) >= threshold)
    if escalated:
        try:
            _blocks(10 * n_iter, radius)
        except WeylSizeError:
            raise WeylSizeError(
                f"the x10 rerun of N = {n_iter}, which a modulus at or over the threshold "
                f"{threshold} asks for, is over the Weyl block kernel's memory budget of "
                f"{WEYL_MEMORY_BUDGET >> 30} GiB; the largest N whose rerun fits at radius "
                f"{radius} is {_largest_n(radius) // 10}", by_radius=False) from None
        n_iter *= 10
        table = run(n_iter)
    worst = max(table.values())
    return {
        "kind": kind,
        "n_iter": n_iter,
        "escalated": escalated,
        "threshold": threshold,
        "worst_modulus": float(worst),
        "moduli": {f"{s * p},{s * q}": m for (p, q), m in table.items() for s in (1, -1)},
        "passed": bool(worst < threshold),
    }
