"""Independent oracles that the tests check the production routes against.

None of these is reached from the ``noncollide`` package: the per-endpoint
sum of walk counts (against Stembridge's Pfaffian and the exact sampler),
rejection sampling of surviving walks, the geometric-point evaluation of
Schur functions, and a chi-square test of category counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from noncollide.combinat import Partition, WalkRecord, check_start
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
