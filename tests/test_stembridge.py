"""Survivor counts with free endpoints: Stembridge's Pfaffian against the
per-endpoint determinant sum and the Guttmann-Owczarek-Viennot product."""

import itertools
import random
from fractions import Fraction

import pytest

from noncollide.combinat import canonical_start
from noncollide.walks import SurvivalCounts
from oracles import count_table


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_pfaffian_matches_endpoint_sum(n):
    counts = SurvivalCounts()
    for start in itertools.combinations(range(0, 14, 2), n):
        for s in range(9):
            assert counts(start, s) == count_table(start, s).total_count, (start, s)


def _gov_product(n: int, horizon: int) -> Fraction:
    """prod_{1<=i<=j<=T} (N+i+j-1)/(i+j-1): vicious walkers from the
    canonical start surviving T steps (GOV 1998)."""
    out = Fraction(1)
    for i in range(1, horizon + 1):
        for j in range(i, horizon + 1):
            out *= Fraction(n + i + j - 1, i + j - 1)
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_canonical_start_matches_gov_product(n):
    counts = SurvivalCounts()
    for horizon in range(13):
        assert counts(canonical_start(n), horizon) == _gov_product(n, horizon), horizon


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_mixed_rows_sum_out_the_next_moves(n):
    """Walkers 1..k one step on (s - 1 steps left), walkers k+1..N still at
    a with s steps: the Pfaffian equals the survivors summed over the moves
    of walkers k+1..N."""
    counts = SurvivalCounts()
    rnd = random.Random(n)
    for s in range(1, 7):
        for _ in range(3):
            a = tuple(itertools.accumulate([0] + [rnd.choice((2, 4, 6)) for _ in range(n - 1)]))
            for k in range(n + 1):
                for prefix in itertools.product((-1, 1), repeat=k):
                    brute = 0
                    for suffix in itertools.product((-1, 1), repeat=n - k):
                        b = tuple(p + m for p, m in zip(a, prefix + suffix))
                        if all(u < v for u, v in zip(b, b[1:])):
                            brute += counts(b, s - 1)
                    moved = tuple(p + m for p, m in zip(a, prefix)) + a[k:]
                    steps = (s - 1,) * k + (s,) * (n - k)
                    assert counts(moved, steps) == brute, (a, prefix, s)


def test_mixed_rows_refuse_mismatched_steps():
    counts = SurvivalCounts()
    for a, s in (((0, 2), (3,)), ((0, 2), (3, 2)), ((0, 2), (-1, -1))):
        with pytest.raises(ValueError, match="need s_i >= 0 per walker"):
            counts(a, s)


@pytest.mark.parametrize("n", [2, 3])
def test_pfaffian_matches_endpoint_sum_past_every_reach(n):
    """Gaps wider than s_i + s_j, where an entry is the whole 2^(s_i + s_j):
    walkers that cannot meet all survive."""
    counts = SurvivalCounts()
    for gaps in itertools.product((2, 8, 20), repeat=n - 1):
        start = tuple(itertools.accumulate((0, *gaps)))
        for s in range(9):
            total = count_table(start, s).total_count
            assert counts(start, s) == total, (start, s)
            if min(gaps) > 2 * s:
                assert total == 2 ** (n * s), (start, s)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_mixed_rows_with_a_moved_walker_on_its_neighbour(n):
    """Walkers two apart that step towards each other share a site (g = 0):
    their rows are equal, so nothing survives, whatever the walkers not yet
    moved do."""
    counts = SurvivalCounts()
    a = tuple(range(0, 2 * n, 2))
    met = 0
    for s in range(1, 8):
        for k in range(2, n + 1):
            for prefix in itertools.product((-1, 1), repeat=k):
                moved = tuple(p + m for p, m in zip(a, prefix)) + a[k:]
                if all(u < v for u, v in zip(moved, moved[1:])):
                    continue
                met += 1
                assert counts(moved, (s - 1,) * k + (s,) * (n - k)) == 0, (moved, s)
    assert met > 0
