"""Vicious-walker counting and exact sampling of the conditioned law.

The walk count M_N(T, y | x) between strictly increasing even starting
positions x and endpoints y is the binomial determinant
det[ C(T, (T + x_i - y_j)/2) ]; entries with odd argument or an argument
outside [0, T] are zero. Survivor counts with free endpoints are
Stembridge's Pfaffian (SurvivalCounts), multilinear in one binomial row per
walker. The discrete de Bruijn identity gives each Pfaffian entry as a
signed sum of binomials over one walk of s_i + s_j steps, so the entries
need no window of endpoints. Rows with mixed step counts sum out the next
moves of the walkers not yet moved, so an exact sampler of the law
conditioned on no collision through time T draws each step walker by
walker, N Pfaffians per step. The per-endpoint sum and rejection sampling
are test oracles, in tests/oracles.py.
scaling_check takes the determinant in floating point from log ratios.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator, Sequence

import numpy as np

from ._exact import (
    DEFAULT_ENUMERATION_CAP,
    EnumerationCapError,
    det_bareiss,
    sample_categorical_exact,
)
from .combinat import WalkRecord, check_start
from .diffusion import chamber_constants, vandermonde_h


def count_vicious(x: Sequence[int], y: Sequence[int], horizon: int) -> int:
    """Number of nonintersecting walk realizations x -> y in T steps.

    Exact at any horizon, keeping nothing between calls: one math.comb at
    the smallest k, then C(T, k+g) = C(T, k) perm(T-k, g) // perm(k+g, g).
    """
    x = tuple(int(v) for v in x)
    y = tuple(int(v) for v in y)
    if len(x) != len(y):
        raise ValueError("start and end must have the same number of walkers")
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    # k = -1 stands for an odd argument: a zero entry, like k outside [0, T]
    ks = [[(horizon + a - b) // 2 if (a - b - horizon) % 2 == 0 else -1 for b in y] for a in x]
    wanted = sorted({k for row in ks for k in row if 0 <= k <= horizon})
    binom = {k: math.comb(horizon, k) for k in wanted[:1]}
    for prev, k in zip(wanted, wanted[1:]):
        binom[k] = binom[prev] * math.perm(horizon - prev, k - prev) // math.perm(k, k - prev)
    return det_bareiss([[binom.get(k, 0) for k in row] for row in ks])


def iter_nonintersecting(
    x: Sequence[int], horizon: int, cap: int = DEFAULT_ENUMERATION_CAP
) -> Iterator[WalkRecord]:
    """All nonintersecting walks from x over the horizon, any endpoint."""
    x = check_start(x)
    n = len(x)
    if (2**n) ** horizon > cap:
        raise EnumerationCapError(f"2^(N*T) = 2^{n * horizon} exceeds cap {cap}")
    moves = list(itertools.product((-1, 1), repeat=n))
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


class SurvivalCounts:
    """Survivor counts W(a, s): the walks from a that survive s steps,
    whatever their endpoints. ``s`` is one step count for all walkers or a
    tuple with one count s_i per walker.

    Stembridge's Pfaffian for nonintersecting paths with free endpoints
    (Stembridge, Adv. Math. 83 (1990) 96): with G_i(v) = C(s_i, (s_i + a_i
    - v)/2) the walks of s_i steps from a_i to v, W = Pf Q where Q_ij =
    sum_{v<w} G_i(v) G_j(w) - G_i(w) G_j(v). By the discrete de Bruijn
    identity (de Bruijn, J. Indian Math. Soc. 19 (1955) 133) that entry is a
    signed count over one walk of S = s_i + s_j steps, the difference of
    the two walks: with g = |a_j - a_i|, Q_ij = sum of C(S, m) over
    max(0, (S - g)/2) <= m <= min(S, (S + g)/2 - 1), with the sign of
    a_j - a_i; the range is empty when g = 0 and all of 0..S when g > S.
    Odd N borders Q with each row's own total 2^(s_i). Since det Q =
    (Pf Q)^2 and W >= 0, W is the integer square root of a Bareiss
    determinant. The sum of M_N(s, y | a) over endpoints (count_table in
    tests/oracles.py) is the oracle.

    W is multilinear in the rows G_i and zero when two are equal, and the
    row of (a_i, s_i) is the sum of the rows of (a_i - 1, s_i - 1) and
    (a_i + 1, s_i - 1). So with mixed step counts W sums the survivors over
    the next moves of the walkers still at the larger count. Nothing is kept
    between calls.
    """

    def __call__(self, a: tuple[int, ...], s: int | tuple[int, ...]) -> int:
        steps = (s,) * len(a) if isinstance(s, int) else s
        parities = {(p + t) % 2 for p, t in zip(a, steps)}
        if len(steps) != len(a) or min(steps, default=0) < 0 or len(parities) > 1:
            raise ValueError(f"need s_i >= 0 per walker, all a_i + s_i of one parity: {a!r}, {s!r}")
        n = len(a)
        q = [[0] * n for _ in range(n)]
        partial: dict[int, list[int]] = {}  # S -> sum of C(S, m) over m < k, by k
        for i, j in itertools.combinations(range(n), 2):
            total, gap = steps[i] + steps[j], abs(a[j] - a[i])
            sums = partial.get(total)
            if sums is None:
                row = (math.comb(total, m) for m in range(total + 1))
                sums = partial[total] = [0, *itertools.accumulate(row)]
            q_ij = sums[min(total + 1, (total + gap) // 2)] - sums[max(0, (total - gap) // 2)]
            q[i][j], q[j][i] = (q_ij, -q_ij) if a[i] < a[j] else (-q_ij, q_ij)
        if n % 2:
            q = [qi + [2**t] for qi, t in zip(q, steps)] + [[-(2**t) for t in steps] + [0]]
        det = det_bareiss(q)
        w = math.isqrt(det)
        if w * w != det:
            raise AssertionError(f"Stembridge determinant at {a!r}, s={s!r} is not a square")
        return w


def sample_conditioned(x: Sequence[int], horizon: int, rng: np.random.Generator) -> WalkRecord:
    """Exact draw from the law conditioned on no collision through time T.

    One-step Doob transform taken walker by walker. From state a with s
    steps left and W surviving continuations, walker k steps up with weight
    W_up and down with weight W - W_up. W_up is SurvivalCounts with walkers
    1..k-1 at their new positions and s - 1 steps, walker k at a_k + 1 and
    s - 1 steps, and walkers k+1..N at a_i and s steps. The chosen weight is
    the next walker's W, so the N ratios multiply to W(b, s-1) / W(a, s),
    the Doob transform of the joint move a -> b. The integer weights make
    each draw exact.
    """
    x = check_start(x)  # a strictly increasing start survives: all walkers step alike
    if horizon < 0:
        raise ValueError(f"horizon must be nonnegative, got {horizon}")
    counts = SurvivalCounts()
    total = counts(x, horizon)
    pos = list(x)
    left = [horizon] * len(x)
    steps: list[list[int]] = [[] for _ in x]
    for s in range(horizon, 0, -1):
        for k, moves in enumerate(steps):
            left[k] = s - 1
            pos[k] += 1
            w_up = counts(tuple(pos), tuple(left))
            if not 0 <= w_up <= total:
                raise AssertionError(f"survivor counts inconsistent at walker {k} of {pos!r}")
            down = sample_categorical_exact(rng, (w_up, total - w_up))
            total = total - w_up if down else w_up
            pos[k] -= 2 * down
            moves.append(1 - 2 * down)
    return WalkRecord(x, tuple(map(tuple, steps)))


def floor_scale(value: float, scale: float) -> int:
    """2 * floor(scale * value / 2): the even-lattice embedding used by the
    diffusion-scaling comparison."""
    return 2 * math.floor(scale * value / 2.0)


SCALING_COND_LIMIT = 1e-6  # largest cond_1 * eps scaling_check may return at


def scaling_check(
    x: Sequence[int],
    t: float,
    y: Sequence[float],
    scale: float,
) -> tuple[float, float]:
    """Compare the rescaled walk-count density against its diffusion limit.

    Left side: (L/2)^N * 2^(-N*T') * M_N(T', y' | x) with T' = 2*floor(L^2
    t/2) and y'_i = 2*floor(L y_i/2), in floating point. Entries are
    C(T', k)/C(T', T'/2), sums of log1p((T' - 2m - 1)/(m + 1)) from the mode,
    scaled to the largest of their row; the row scales and 2^(-T') C(T', T'/2)
    = Gamma(T'/2 + 1/2)/(sqrt(pi) Gamma(T'/2 + 1)) join slogdet in one log
    factor. The determinant cancels like L^(-N(N-1)/2): a ValueError is raised
    when cond_1 of the scaled matrix times eps exceeds SCALING_COND_LIMIT.
    Right side: c'_N t^(-N^2/2) h_N(x/L) exp(-|y|^2/(2t)) h_N(y). Their
    ratio tends to 1 as L grows.
    """
    from scipy.special import poch

    if not (t > 0 and scale > 0):
        raise ValueError(f"scaling check needs t > 0 and scale > 0, got t={t!r}, scale={scale!r}")
    x = check_start(x)
    n = len(x)
    y = tuple(float(v) for v in y)
    if len(y) != n:
        raise ValueError("dimension mismatch between x and y")
    # the lattice embedding floors t L^2 and y_i L, which must be finite
    finite = {"t": t, "scale": scale, "scale^2 * t": scale * scale * t}
    for i, v in enumerate(y):
        finite[f"y[{i}]"] = v
        finite[f"scale * y[{i}]"] = scale * v
    for name, value in finite.items():
        if not math.isfinite(value):
            raise ValueError(f"scaling check needs a finite {name}, got {value!r}")
    horizon = floor_scale(t, scale * scale)
    y_lattice = tuple(floor_scale(v, scale) for v in y)
    for a, b in zip(y_lattice, y_lattice[1:]):
        if a >= b:
            raise ValueError(
                f"rounded endpoint configuration degenerate at L={scale}: {y_lattice}"
            )
    mid = horizon // 2
    k = (horizon + np.array(x)[:, None] - np.array(y_lattice)[None, :]) // 2
    reach = (k >= 0) & (k <= horizon)
    k = np.clip(k, 0, horizon)
    lo, hi = min(int(k.min()), mid), max(int(k.max()), mid)
    m = np.arange(lo, hi)
    log_ratio = np.concatenate(([0.0], np.cumsum(np.log1p((horizon - 2.0 * m - 1) / (m + 1)))))
    log_entry = np.where(reach, log_ratio[k - lo] - log_ratio[mid - lo], -np.inf)
    row_scale = log_entry.max(axis=1)
    scaled = np.exp(log_entry - row_scale[:, None])
    cancel = np.linalg.cond(scaled, 1) * np.finfo(float).eps
    if not cancel <= SCALING_COND_LIMIT:
        raise ValueError(f"scaling determinant at L={scale} cancels: cond_1 * eps = "
                         f"{cancel:.3g} exceeds {SCALING_COND_LIMIT:g}")
    sign, log_det = np.linalg.slogdet(scaled)
    log_central = -math.log(math.sqrt(math.pi) * poch(mid + 0.5, 0.5))
    log_lhs = float(log_det + row_scale.sum()) + n * (log_central + math.log(scale / 2))
    lhs = float(sign) * math.exp(log_lhs)

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
