"""Independent oracles that the tests check the production routes against.

None of these is reached from the ``noncollide`` package: the per-endpoint
sum of walk counts (against Stembridge's Pfaffian and the exact sampler),
rejection sampling of surviving walks, the geometric-point evaluation of
Schur functions, a chi-square test of category counts, and the N = 2
coordinate CDFs of both from-origin laws, by a trapezoid tensor over the
other coordinate (``marginal_cdf_from_origin``, against
``diffusion.coordinate_cdfs`` and the finite-horizon engine) tabulated by
``grid_cdf``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Sequence

import numpy as np

from noncollide.combinat import Partition, WalkRecord, check_start
from noncollide.diffusion import transition_homogeneous, transition_inhomogeneous
from noncollide.schur import RationalLike
from noncollide.verify import P_VALUE_FLOOR, TestReport
from noncollide.walks import count_vicious


class RetryCapError(RuntimeError):
    pass


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
    x = check_start(x)
    n = len(x)
    counts: dict[tuple[int, ...], int] = {}
    denom = 2 ** (n * horizon)
    for y in _reachable_endpoints(x, horizon):
        m = count_vicious(x, y, horizon)
        if m:
            counts[y] = m
    normalized = {y: Fraction(m, denom) for y, m in counts.items()}
    return CountTable(x, horizon, counts, normalized)


def rejection_sample(
    x: Sequence[int],
    horizon: int,
    rng: np.random.Generator,
    max_retries: int = 10**6,
) -> WalkRecord:
    """Oracle sampler: draw unconditioned step matrices until one survives."""
    x = check_start(x)
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


def principal_specialization_q(
    shape: Partition, n_vars: int, q: RationalLike
) -> Fraction:
    """Evaluation at the geometric point (1, q, ..., q^(T-1)).

    q-factorized form q^(sum (k-1) lam_k) * prod_{i<j} (q^(lam_i-lam_j+j-i)-1)
    / (q^(j-i)-1); its q -> 1 limit is ``principal_specialization``.
    """
    q = Fraction(q)
    if q == 1:
        raise ValueError("q=1 is the limit point; use principal_specialization")
    if len(shape) > n_vars:
        return Fraction(0)
    lam = shape.padded(n_vars)
    out = Fraction(1)
    for k in range(n_vars):
        if lam[k]:
            out *= q ** (k * lam[k])
    for i in range(n_vars):
        for j in range(i + 1, n_vars):
            den = q ** (j - i) - 1
            if den == 0:
                raise ValueError(f"q={q} is a root of unity of order <= {j - i}")
            out *= (q ** (lam[i] - lam[j] + j - i) - 1) / den
    return out


def chi_square_counts(
    observed: Sequence[int],
    probabilities: Sequence[float],
    name: str = "chi_square",
    p_floor: float = P_VALUE_FLOOR,
    seeds: tuple[int, ...] = (),
) -> TestReport:
    """Pearson chi-square test of category counts against exact weights."""
    from scipy import stats

    observed = np.asarray(observed, dtype=float)
    probabilities = np.asarray(probabilities, dtype=float)
    if observed.shape != probabilities.shape:
        raise ValueError("counts and probabilities must align")
    total = observed.sum()
    expected = probabilities * total
    keep = expected > 0
    if not np.all(keep) and np.any(observed[~keep] > 0):
        raise ValueError("observed mass on zero-probability category")
    statistic, p_value = stats.chisquare(observed[keep], expected[keep])
    return TestReport(
        name=name,
        statistic=float(statistic),
        threshold=p_floor,
        passed=bool(p_value > p_floor),
        p_value=float(p_value),
        sample_sizes=(int(total),),
        seeds=seeds,
        detail="pass iff p_value > threshold",
    )


MARGINAL_NODES = 2001  # trapezoid nodes over the other coordinate of a marginal


def marginal_cdf_from_origin(
    n: int,
    t: float,
    coord: int,
    kind: str = "homogeneous",
    horizon: float | None = None,
    grid_points: int = 1201,
) -> Callable[[np.ndarray], np.ndarray]:
    """CDF of one coordinate of the from-origin law at time t (N = 2 only).

    The grid is grid_points points on +-6 sqrt(N t). At each grid point the
    joint density is integrated over the other coordinate, out to 2 past
    the grid, by the trapezoid rule on MARGINAL_NODES nodes in u, the gap
    to the grid point being span * u^2. In u the integrand vanishes to third order at 0, also at t = T, where
    the density is only linear in the gap. The (grid x nodes x 2) tensor of
    end points is one call of the transition density. ``grid_cdf``
    tabulates the result and raises when the mass is far from 1. Used as
    the reference distribution in KS tests.
    """
    if n != 2:
        raise ValueError("marginals implemented for N = 2")
    if coord not in (0, 1):
        raise ValueError("coord must be 0 or 1")
    if kind == "homogeneous":
        if not t > 0:
            raise ValueError("need t > 0")
        joint = functools.partial(transition_homogeneous, 0.0, None, t)
    elif kind == "inhomogeneous":
        if horizon is None:
            raise ValueError("inhomogeneous marginal needs the horizon")
        if not 0 < t <= horizon:
            raise ValueError("need 0 < t <= T")
        joint = functools.partial(transition_inhomogeneous, 0.0, None, t, horizon=horizon)
    else:
        raise ValueError(f"unknown kind {kind!r}")

    hi = 6.0 * math.sqrt(t) * math.sqrt(n)
    lo = -hi
    # the node u = 0 adds nothing: the density is 0 at gap 0
    u = np.linspace(0.0, 1.0, MARGINAL_NODES)[1:]

    def density(xs: np.ndarray) -> np.ndarray:
        span = hi + 2.0 - xs if coord == 0 else xs - (lo - 2.0)
        gap = span[:, None] * u * u
        v = np.broadcast_to(xs[:, None], gap.shape)
        y = np.stack((v, v + gap) if coord == 0 else (v - gap, v), axis=-1)
        # trapezoid rule in u, with d(gap)/du = 2 span u
        weighted = joint(y) * 2.0 * u
        return span / u.size * (weighted.sum(axis=1) - 0.5 * weighted[:, -1])

    return grid_cdf(density, lo, hi, grid_points)


def grid_cdf(
    density: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    n_points: int = 2001,
) -> Callable[[np.ndarray], np.ndarray]:
    """Tabulate a 1-d density on a uniform grid and return its CDF.

    The density is integrated by the trapezoid rule and normalized to mass
    1; outside [lo, hi] the CDF saturates at 0 / 1. A mass on the grid
    outside (0.9, 1.1) raises ValueError: the grid misses the density.
    """
    from scipy import integrate

    xs = np.linspace(lo, hi, n_points)
    ys = np.asarray(density(xs), dtype=float)
    cum = integrate.cumulative_trapezoid(ys, xs, initial=0.0)
    if not 0.9 < cum[-1] < 1.1:
        raise ValueError(f"density mass {cum[-1]} far from 1; widen [{lo}, {hi}]")
    cum = cum / cum[-1]

    def cdf(q: np.ndarray) -> np.ndarray:
        return np.interp(np.asarray(q, dtype=float), xs, cum, left=0.0, right=1.0)

    return cdf
