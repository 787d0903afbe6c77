import math
from fractions import Fraction

import numpy as np
import pytest

from noncollide.combinat import canonical_start, endpoints_to_partition
from noncollide.schur import principal_specialization
from noncollide.walks import (
    EnumerationCapError,
    count_vicious,
    floor_scale,
    iter_nonintersecting,
    sample_conditioned,
    scaling_check,
)
from oracles import RetryCapError, chi_square_counts, count_table, rejection_sample


def test_count_vicious_examples():
    assert count_vicious((0, 2), (0, 2), 2) == 3
    assert count_vicious((0,), (0,), 4) == 6
    assert count_vicious((0, 2), (1, 3), 2) == 0  # parity
    assert count_vicious((0,), (0,), 0) == 1
    assert count_vicious((0, 2), (0, 2), 0) == 1


def test_count_canonical():
    assert count_vicious(canonical_start(2), (0, 2), 2) == 3
    assert count_vicious(canonical_start(3), (0, 2, 4), 0) == 1
    lam = endpoints_to_partition((0, 2), 2)
    assert principal_specialization(lam, 2) == 3
    assert count_vicious(canonical_start(2), (1, 3), 2) == 0  # parity
    with pytest.raises(ValueError):
        count_vicious(canonical_start(3), (0, 2), 2)


def test_enumerate_vicious():
    def ending_at(x, y, horizon):
        return [w for w in iter_nonintersecting(x, horizon) if w.endpoints() == y]

    assert len(ending_at((0, 2), (0, 2), 2)) == 3
    assert ending_at((0, 2), (-4, 2), 1) == []
    single = ending_at((0,), (1,), 1)
    assert len(single) == 1 and single[0].steps == ((1,),)


def test_enumeration_matches_determinant():
    for start in ((0, 2), (0, 4)):
        for horizon in (1, 2, 3, 4):
            buckets = {}
            for w in iter_nonintersecting(start, horizon):
                buckets[w.endpoints()] = buckets.get(w.endpoints(), 0) + 1
            for y, n in buckets.items():
                assert count_vicious(start, y, horizon) == n


def test_enumeration_cap():
    with pytest.raises(EnumerationCapError):
        list(iter_nonintersecting((0, 2, 4), 10, cap=100))


def test_count_table():
    table = count_table((0, 2), 2)
    assert table.counts == {
        (-2, 0): 1,
        (-2, 2): 2,
        (-2, 4): 1,
        (0, 2): 3,
        (0, 4): 2,
        (2, 4): 1,
    }
    assert table.survival_probability == Fraction(10, 16)
    assert table.total_count == 10


def test_survival_probability_decreasing_in_horizon():
    probs = [count_table((0, 2), t).survival_probability for t in range(1, 6)]
    assert all(a >= b for a, b in zip(probs, probs[1:]))


def test_sample_conditioned_single_walker_is_free():
    rng = np.random.default_rng(101)
    total = 0
    n = 4000
    for _ in range(n):
        w = sample_conditioned((0,), 3, rng)
        total += sum(w.steps[0])
    mean = total / (3 * n)
    assert abs(mean) < 3.0 / math.sqrt(3 * n)


def test_sample_conditioned_endpoint_law():
    rng = np.random.default_rng(1234)
    table = count_table((0, 2), 2)
    endpoints = sorted(table.counts)
    index = {y: i for i, y in enumerate(endpoints)}
    counts = [0] * len(endpoints)
    n = 10_000
    for _ in range(n):
        w = sample_conditioned((0, 2), 2, rng)
        counts[index[w.endpoints()]] += 1
    total = table.survival_probability
    probs = [float(table.normalized[y] / total) for y in endpoints]
    report = chi_square_counts(counts, probs, seeds=(1234,))
    assert report.passed, report.detail


def test_sample_conditioned_endpoint_law_four_walkers():
    # T = 3 keeps every one of the 54 expected counts above 14
    rng = np.random.default_rng(48)
    start = (0, 2, 4, 8)
    table = count_table(start, 3)
    endpoints = sorted(table.counts)
    index = {y: i for i, y in enumerate(endpoints)}
    counts = [0] * len(endpoints)
    n = 10_000
    for _ in range(n):
        counts[index[sample_conditioned(start, 3, rng).endpoints()]] += 1
    total = table.survival_probability
    probs = [float(table.normalized[y] / total) for y in endpoints]
    report = chi_square_counts(counts, probs, seeds=(48,))
    assert report.passed, report.detail


def test_sampler_agreement_with_rejection():
    rng = np.random.default_rng(13)
    horizon = 4
    table = count_table((0, 2), horizon)
    endpoints = sorted(table.counts)
    index = {y: i for i, y in enumerate(endpoints)}
    a = [0] * len(endpoints)
    b = [0] * len(endpoints)
    n = 10_000
    for _ in range(n):
        a[index[sample_conditioned((0, 2), horizon, rng).endpoints()]] += 1
        b[index[rejection_sample((0, 2), horizon, rng).endpoints()]] += 1
    from scipy.stats import chi2_contingency

    keep = [i for i in range(len(endpoints)) if a[i] + b[i] > 0]
    _, p, _, _ = chi2_contingency([[a[i] for i in keep], [b[i] for i in keep]])
    assert p > 0.01


def test_rejection_endpoint_law_three_walkers():
    rng = np.random.default_rng(29)
    horizon = 4
    table = count_table((0, 2, 4), horizon)
    endpoints = sorted(table.counts)
    index = {y: i for i, y in enumerate(endpoints)}
    counts = [0] * len(endpoints)
    n = 10_000
    for _ in range(n):
        counts[index[rejection_sample((0, 2, 4), horizon, rng).endpoints()]] += 1
    total = table.survival_probability
    probs = [float(table.normalized[y] / total) for y in endpoints]
    report = chi_square_counts(counts, probs, seeds=(29,))
    assert report.passed, report.detail


def test_rejection_retry_cap():
    with pytest.raises(RetryCapError):
        rejection_sample((0, 2, 4), 30, np.random.default_rng(0), max_retries=1)


def test_sampler_rejects_zero_survival():
    # two walkers two sites apart always survive; fabricate zero survival
    # via an impossible precondition instead: start must be even/ordered
    with pytest.raises(ValueError):
        sample_conditioned((2, 0), 2, np.random.default_rng(0))


def test_floor_scale():
    assert floor_scale(1.0, 100.0) == 100
    assert floor_scale(0.999, 100.0) == 98
    assert floor_scale(-0.31, 10.0) == -4


def test_scaling_check_single_walker_gaussian():
    lhs, rhs = scaling_check((0,), 1.0, (0.5,), 200.0)
    gauss = math.exp(-0.125) / math.sqrt(2 * math.pi)
    assert rhs == pytest.approx(gauss, rel=1e-12)
    assert lhs == pytest.approx(gauss, rel=2e-2)


def test_scaling_check_error_shrinks():
    rels = []
    for scale in (50, 200):
        lhs, rhs = scaling_check((0, 2), 1.0, (-1.0, 1.0), scale)
        rels.append(abs(lhs / rhs - 1.0))
    assert rels[1] < rels[0]


def test_scaling_check_degenerate_rounding():
    with pytest.raises(ValueError):
        scaling_check((0, 2), 1.0, (0.1, 0.11), 10.0)
