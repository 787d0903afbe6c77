"""Vicious-walker counting and exact sampling of the conditioned law.

The walk count M_N(T, y | x) between strictly increasing even starting
positions x and endpoints y is the binomial determinant
det[ C(T, (T + x_i - y_j)/2) ]; entries with odd argument or an argument
outside [0, T] are zero. Exact samplers for the law conditioned on no
collision through time T are built from these counts (one-step Doob
transform), with rejection sampling kept as an oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from ._exact import (
    DEFAULT_ENUMERATION_CAP,
    EnumerationCapError,
    det_bareiss,
    sample_categorical_exact,
)
from .combinat import WalkRecord, canonical_start, endpoints_to_partition
from .diffusion import chamber_constants, vandermonde_h
from .schur import principal_specialization


class RetryCapError(RuntimeError):
    pass


def _check_start(x: Sequence[int]) -> tuple[int, ...]:
    x = tuple(int(v) for v in x)
    for v in x:
        if v % 2 != 0:
            raise ValueError(f"start position {v} is odd")
    for a, b in zip(x, x[1:]):
        if a >= b:
            raise ValueError("start not strictly increasing")
    return x


# For the diffusion-scaling comparison the horizon is ~L^2 and a single
# math.comb costs seconds; successive entries of the same row are derived
# from a cached neighbour by exact ratio steps instead.
_COMB_ROW_THRESHOLD = 4096
_COMB_WALK_LIMIT = 10_000
_comb_rows: dict[int, dict[int, int]] = {}


def _comb(n: int, k: int) -> int:
    if n < _COMB_ROW_THRESHOLD:
        return math.comb(n, k)
    row = _comb_rows.setdefault(n, {})
    value = row.get(k)
    if value is not None:
        return value
    if row:
        k0 = min(row, key=lambda kk: abs(kk - k))
        if abs(k0 - k) <= _COMB_WALK_LIMIT:
            value = row[k0]
            while k0 < k:
                value = value * (n - k0) // (k0 + 1)
                k0 += 1
            while k0 > k:
                value = value * k0 // (n - k0 + 1)
                k0 -= 1
    if value is None:
        value = math.comb(n, k)
    row[k] = value
    return value


def _binom_entry(horizon: int, x: int, y: int) -> int:
    num = horizon + x - y
    if num % 2 != 0:
        return 0
    k = num // 2
    if not 0 <= k <= horizon:
        return 0
    return _comb(horizon, k)


def count_vicious(x: Sequence[int], y: Sequence[int], horizon: int) -> int:
    """Number of nonintersecting walk realizations x -> y in T steps."""
    x = tuple(int(v) for v in x)
    y = tuple(int(v) for v in y)
    if len(x) != len(y):
        raise ValueError("start and end must have the same number of walkers")
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    matrix = [[_binom_entry(horizon, xi, yj) for yj in y] for xi in x]
    return det_bareiss(matrix)


def count_canonical(y: Sequence[int], n_walkers: int, horizon: int) -> int:
    """Walk count from the canonical start 0, 2, ..., 2(N-1).

    Raises on parity violation (endpoints must be reachable walker-wise);
    agrees with the tableau-counting route
    principal_specialization(endpoints_to_partition(y, T), T).
    """
    y = tuple(int(v) for v in y)
    if len(y) != n_walkers:
        raise ValueError(f"expected {n_walkers} endpoints, got {len(y)}")
    x0 = canonical_start(n_walkers)
    for i, (xi, yi) in enumerate(zip(x0, y)):
        if (horizon + xi - yi) % 2 != 0:
            raise ValueError(
                f"parity violation at walker {i + 1}: cannot reach {yi} "
                f"from {xi} in {horizon} steps"
            )
    return count_vicious(x0, y, horizon)


def enumerate_vicious(
    x: Sequence[int],
    y: Sequence[int],
    horizon: int,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> list[WalkRecord]:
    """Brute-force oracle: every nonintersecting step matrix x -> y."""
    y = tuple(int(v) for v in y)
    return [w for w in iter_nonintersecting(x, horizon, cap) if w.endpoints() == y]


def iter_nonintersecting(
    x: Sequence[int], horizon: int, cap: int = DEFAULT_ENUMERATION_CAP
) -> Iterator[WalkRecord]:
    """All nonintersecting walks from x over the horizon, any endpoint."""
    x = _check_start(x)
    n = len(x)
    if (2**n) ** horizon > cap:
        raise EnumerationCapError(f"2^(N*T) = 2^{n * horizon} exceeds cap {cap}")
    moves = _feasible_moves(n)
    steps: list[tuple[int, ...]] = []

    def rec(pos: tuple[int, ...]) -> Iterator[WalkRecord]:
        if len(steps) == horizon:
            yield WalkRecord(x, tuple(zip(*steps)) if steps else ((),) * n)
            return
        for mv in moves:
            nxt = tuple(p + d for p, d in zip(pos, mv))
            if all(a < b for a, b in zip(nxt, nxt[1:])):
                steps.append(mv)
                yield from rec(nxt)
                steps.pop()

    yield from rec(x)


def _feasible_moves(n: int) -> list[tuple[int, ...]]:
    out: list[tuple[int, ...]] = []
    for mask in range(2**n):
        out.append(tuple(1 if mask & (1 << i) else -1 for i in range(n)))
    return out


@dataclass(frozen=True)
class CountTable:
    """Endpoint-resolved walk counts and their exact normalizations.

    ``counts[y]`` is M_N(T, y | x); ``normalized[y]`` is the probability
    2^(-N*T) * M_N that an unconditioned walk survives and ends at y. The
    sum of ``normalized`` over endpoints is the survival probability.
    """

    start: tuple[int, ...]
    horizon: int
    counts: dict[tuple[int, ...], int]
    normalized: dict[tuple[int, ...], Fraction]

    @property
    def survival_probability(self) -> Fraction:
        return sum(self.normalized.values(), Fraction(0))

    @property
    def total_count(self) -> int:
        return sum(self.counts.values())


def _reachable_endpoints(x: tuple[int, ...], s: int) -> Iterator[tuple[int, ...]]:
    """Strictly increasing endpoint candidates walker-wise reachable in s steps.

    All coordinates share the parity of s (starts are even), so strict
    increase forces gaps of at least 2.
    """
    n = len(x)

    def rec(i: int, prev: int | None) -> Iterator[tuple[int, ...]]:
        if i == n:
            yield ()
            return
        lo = x[i] - s if prev is None else max(x[i] - s, prev + 2)
        for yi in range(lo, x[i] + s + 1, 2):
            for rest in rec(i + 1, yi):
                yield (yi,) + rest

    yield from rec(0, None)


def count_table(x: Sequence[int], horizon: int) -> CountTable:
    """Exact endpoint law of the surviving walks from x."""
    x = _check_start(x)
    n = len(x)
    counts: dict[tuple[int, ...], int] = {}
    denom = 2 ** (n * horizon)
    for y in _reachable_endpoints(x, horizon):
        m = count_vicious(x, y, horizon)
        if m:
            counts[y] = m
    normalized = {y: Fraction(m, denom) for y, m in counts.items()}
    return CountTable(x, horizon, counts, normalized)


class SurvivalCounts:
    """Memoized survivor counts W(a, s) = sum_y M_N(s, y | a), the sum of
    the binomial determinants over the reachable endpoint set.

    Grows while sampling, then read-mostly; one instance may be shared by
    samplers drawing from the same conditioned family.
    """

    def __init__(self) -> None:
        self._cache: dict[tuple[tuple[int, ...], int], int] = {}

    def __call__(self, a: tuple[int, ...], s: int) -> int:
        key = (a, s)
        got = self._cache.get(key)
        if got is None:
            got = sum(
                count_vicious(a, y, s) for y in _reachable_endpoints(a, s)
            )
            self._cache[key] = got
        return got


def sample_conditioned(
    x: Sequence[int],
    horizon: int,
    rng: np.random.Generator,
    counts: SurvivalCounts | None = None,
) -> WalkRecord:
    """Exact draw from the law conditioned on no collision through time T.

    One-step Doob transform: from state a with s steps left, a move to b is
    taken with probability W(b, s-1) / W(a, s) where W counts surviving
    continuations. The integer weights make each categorical draw exact.
    """
    x = _check_start(x)
    n = len(x)
    counts = counts if counts is not None else SurvivalCounts()
    if counts(x, horizon) == 0:
        raise ValueError("zero survival probability: cannot condition")
    moves = _feasible_moves(n)
    pos = x
    columns: list[tuple[int, ...]] = []
    for s in range(horizon, 0, -1):
        options: list[tuple[int, ...]] = []
        weights: list[int] = []
        for mv in moves:
            nxt = tuple(p + d for p, d in zip(pos, mv))
            if all(a < b for a, b in zip(nxt, nxt[1:])):
                w = counts(nxt, s - 1)
                if w:
                    options.append(mv)
                    weights.append(w)
        total = sum(weights)
        if total != counts(pos, s):
            raise AssertionError("survivor counts inconsistent at state %r" % (pos,))
        pick = sample_categorical_exact(rng, weights)
        mv = options[pick]
        columns.append(mv)
        pos = tuple(p + d for p, d in zip(pos, mv))
    steps = tuple(zip(*columns)) if columns else ((),) * n
    return WalkRecord(x, steps)


def rejection_sample(
    x: Sequence[int],
    horizon: int,
    rng: np.random.Generator,
    max_retries: int = 10**6,
) -> WalkRecord:
    """Oracle sampler: draw unconditioned step matrices until one survives."""
    x = _check_start(x)
    n = len(x)
    for _ in range(max_retries):
        steps = rng.integers(0, 2, size=(n, horizon)) * 2 - 1
        pos = np.fromiter(x, dtype=np.int64)
        ok = True
        for t in range(horizon):
            pos = pos + steps[:, t]
            if np.any(np.diff(pos) <= 0):
                ok = False
                break
        if ok:
            return WalkRecord(x, tuple(tuple(int(s) for s in row) for row in steps))
    raise RetryCapError(f"no surviving walk in {max_retries} attempts")


def floor_scale(value: float, scale: float) -> int:
    """2 * floor(scale * value / 2): the even-lattice embedding used by the
    diffusion-scaling comparison."""
    return 2 * math.floor(scale * value / 2.0)


def scaling_check(
    x: Sequence[int],
    t: float,
    y: Sequence[float],
    scale: float,
) -> tuple[float, float]:
    """Compare the rescaled walk-count density against its diffusion limit.

    Left side: (L/2)^N * 2^(-N*T') * M_N(T', y' | x) with T' = 2*floor(L^2
    t/2) and y'_i = 2*floor(L y_i/2). Right side: c'_N t^(-N^2/2) h_N(x/L)
    exp(-|y|^2/(2t)) h_N(y). Their ratio tends to 1 as L grows.
    """
    x = _check_start(x)
    n = len(x)
    y = tuple(float(v) for v in y)
    if len(y) != n:
        raise ValueError("dimension mismatch between x and y")
    horizon = floor_scale(t, scale * scale)
    y_lattice = tuple(floor_scale(v, scale) for v in y)
    for a, b in zip(y_lattice, y_lattice[1:]):
        if a >= b:
            raise ValueError(
                f"rounded endpoint configuration degenerate at L={scale}: {y_lattice}"
            )
    m = count_vicious(x, y_lattice, horizon)
    v = Fraction(m, 2 ** (n * horizon))
    # exact until the final float conversion; the huge count and the huge
    # power of two mostly cancel
    lhs = float(v * (Fraction(scale) / 2) ** n)

    c = chamber_constants(n).c_prime
    xs = np.fromiter(x, dtype=float) / scale
    ys = np.asarray(y, dtype=float)
    rhs = (
        c
        * t ** (-(n**2) / 2.0)
        * vandermonde_h(xs)
        * math.exp(-float(ys @ ys) / (2.0 * t))
        * vandermonde_h(ys)
    )
    return lhs, rhs
