"""Survivor counts with free endpoints: Stembridge's Pfaffian against the
per-endpoint determinant sum and the Guttmann-Owczarek-Viennot product."""

import itertools
from fractions import Fraction

import pytest

from noncollide.combinat import canonical_start
from noncollide.walks import SurvivalCounts, count_table


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
