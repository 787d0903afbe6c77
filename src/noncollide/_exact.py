"""Exact arithmetic helpers shared by the counting modules.

Everything here works over Python big integers and ``fractions.Fraction``;
no floating point. Determinants use fraction-free (Bareiss) elimination so
integer matrices stay integer all the way through.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from typing import Sequence

import numpy as np

ExactNumber = int | Fraction

DEFAULT_ENUMERATION_CAP = 10**7


class EnumerationCapError(RuntimeError):
    """Raised when a brute-force operation would exceed its tuple budget."""


def to_fraction(value: int | Fraction | str) -> Fraction:
    """``Fraction(value)`` of a value read from outside the program. Every
    refusal is a ValueError that names the value: a zero denominator
    (``"1/0"``), an infinite float or a value of another type would
    otherwise raise ZeroDivisionError, OverflowError or TypeError."""
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError, OverflowError, TypeError) as exc:
        raise ValueError(f"cannot read {value!r} as a rational: {exc}") from None


def det_bareiss(matrix: Sequence[Sequence[ExactNumber]]) -> ExactNumber:
    """Exact determinant of a square matrix of ints / Fractions.

    Uses Bareiss' fraction-free elimination: every division performed is
    exact, so an all-integer input yields an int with no intermediate
    rationals and no overflow. Any other input divides by Fractions: an int
    entry beside a Fraction one never meets true division, which would
    give a float.
    """
    n = len(matrix)
    if n == 0:
        return 1
    a = [list(row) for row in matrix]
    for row in a:
        if len(row) != n:
            raise ValueError("determinant requires a square matrix")
    # isinstance(v, int) for every entry v, tested once per distinct type
    integral = all(issubclass(t, int) for t in set(map(type, chain.from_iterable(a))))
    sign = 1
    # the first step's quotients by Fraction(1) are Fractions, so every later
    # pivot is one too
    prev = 1 if integral else Fraction(1)
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = a[i][j] * pivot - a[i][k] * a[k][j]
                # exact by Bareiss' identity
                a[i][j] = num // prev if integral else num / prev
            a[i][k] = 0
        prev = pivot
    return sign * a[n - 1][n - 1]


def rand_below(rng: np.random.Generator, n: int) -> int:
    """Uniform integer in [0, n) for arbitrarily large n.

    Draws blocks of random bits and rejects out-of-range values, so the
    result is exactly uniform (needed when categorical weights are exact
    rationals with huge denominators). Each 32-bit word is one scalar draw:
    the same stream as one batched draw of all words, without building an
    array for the usual one-word case.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    if n == 1:
        return 0
    bits = n.bit_length()
    words = (bits + 31) // 32
    while True:
        x = 0
        for _ in range(words):
            x = (x << 32) | int(rng.integers(0, 1 << 32, dtype=np.uint64))
        x >>= words * 32 - bits
        if x < n:
            return x


def sample_categorical_exact(
    rng: np.random.Generator, weights: Sequence[int]
) -> int:
    """Index drawn with probability weights[i] / sum(weights), exactly."""
    total = sum(weights)
    if total <= 0:
        raise ValueError("weights must have positive sum")
    u = rand_below(rng, total)
    acc = 0
    for i, w in enumerate(weights):
        acc += w
        if u < acc:
            return i
    raise AssertionError("unreachable: weights exhausted")
