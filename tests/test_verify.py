import math

import numpy as np
import pytest

from noncollide.verify import (
    TestReport,
    ks_one_sample,
    ks_two_sample,
    quadrature_integrate,
)
from oracles import chi_square_counts, grid_cdf


def test_ks_two_sample_identical():
    a = np.arange(100, dtype=float)
    report = ks_two_sample(a, a.copy())
    assert report.statistic == 0.0
    assert report.passed


def test_ks_two_sample_calibration():
    # same distribution, different seeds: p > 0.01 in at least 95 of 100 runs
    passes = 0
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        a = rng.standard_normal(10_000)
        b = rng.standard_normal(10_000)
        if ks_two_sample(a, b).p_value > 0.01:
            passes += 1
    assert passes >= 95


def test_ks_two_sample_power():
    rng = np.random.default_rng(77)
    a = rng.standard_normal(10_000)
    b = rng.standard_normal(10_000) + 0.5
    report = ks_two_sample(a, b)
    assert report.p_value < 1e-6
    assert not report.passed


def test_ks_two_sample_empty_input():
    with pytest.raises(ValueError):
        ks_two_sample([], [1.0])


def test_ks_one_sample_uniform():
    rng = np.random.default_rng(78)
    sample = rng.random(10_000)
    report = ks_one_sample(sample, lambda x: np.clip(x, 0.0, 1.0))
    assert report.statistic < 0.02
    assert report.passed


def test_ks_one_sample_mismatched_support():
    sample = np.linspace(2.0, 3.0, 50)
    report = ks_one_sample(sample, lambda x: np.clip(x, 0.0, 1.0))
    assert report.statistic == pytest.approx(1.0)
    assert not report.passed


def test_ks_one_sample_rejects_nonmonotone_cdf():
    sample = np.linspace(0.0, 1.0, 50)
    with pytest.raises(ValueError):
        ks_one_sample(sample, lambda x: np.sin(8 * x))


def test_quadrature_gaussian():
    val = quadrature_integrate(
        lambda y: np.exp(-y[:, 0] ** 2 / 2) / math.sqrt(2 * math.pi), -8, 8, 1, tol=1e-8
    )
    assert val == pytest.approx(1.0, abs=1e-8)


def test_quadrature_chamber_matches_survival():
    from noncollide.diffusion import km_density

    val = quadrature_integrate(
        lambda y: km_density(1.0, [0.0, 2.0], y),
        -10.0,
        12.0,
        2,
        tol=1e-6,
    )
    assert val == pytest.approx(math.erf(1.0), abs=1e-6)


@pytest.mark.parametrize("ndim", [1, 2, 3])
def test_quadrature_ordered_region_volume(ndim):
    # the ordered region alone: a box past hi or a missing corner would
    # change the volume (hi - lo)^n / n!
    lo, hi = -0.5, 2.0
    val = quadrature_integrate(lambda y: np.ones(len(y)), lo, hi, ndim)
    assert val == pytest.approx((hi - lo) ** ndim / math.factorial(ndim), abs=1e-12)


def test_quadrature_raises_when_the_two_rules_disagree():
    # sqrt(y) is not smooth at 0: the 48- and 64-node values differ by about 5e-7
    with pytest.raises(RuntimeError, match="did not converge"):
        quadrature_integrate(lambda y: np.sqrt(y[:, 0]), 0.0, 1.0, 1, tol=1e-8)


def test_quadrature_rejects_unsupported_dim():
    with pytest.raises(ValueError):
        quadrature_integrate(lambda *a: 1.0, 0, 1, 4)


def test_grid_cdf():
    density = lambda x: np.exp(-x * x / 2) / math.sqrt(2 * math.pi)
    cdf = grid_cdf(density, -8, 8, 4001)
    for q in (-1.0, 0.0, 0.5, 2.0):
        exact = 0.5 * (1 + math.erf(q / math.sqrt(2)))
        assert float(cdf(np.array(q))) == pytest.approx(exact, abs=1e-5)
    assert float(cdf(np.array(-100.0))) == 0.0
    assert float(cdf(np.array(100.0))) == 1.0


def test_chi_square_counts():
    rng = np.random.default_rng(79)
    probs = np.array([0.2, 0.3, 0.5])
    counts = rng.multinomial(20_000, probs)
    assert chi_square_counts(counts, probs).passed
    skewed = rng.multinomial(20_000, [0.3, 0.3, 0.4])
    assert not chi_square_counts(skewed, probs).passed


def test_reports_deterministic():
    def build():
        rng = np.random.default_rng(80)
        a = rng.standard_normal(1000)
        b = rng.standard_normal(1000)
        return ks_two_sample(a, b, seeds=(80,))

    assert build() == build()
    report = build()
    assert isinstance(report, TestReport)
    data = report.to_dict()
    assert data["seeds"] == [80]
    assert report.to_json() == build().to_json()


@pytest.mark.parametrize(
    "statistic, passed",
    [(0.5, True), (1.0, False), (1.5, False), (math.nan, False)],
)
def test_below_passes_strictly_below_the_threshold(statistic, passed):
    report = TestReport.below("check", statistic, 1.0, sample_sizes=(3,), seeds=(7,), detail="d")
    assert report.passed is passed
    assert report.statistic is statistic and report.threshold == 1.0
    assert (report.name, report.p_value, report.sample_sizes, report.seeds, report.detail) == (
        "check", None, (3,), (7,), "d"
    )


@pytest.mark.parametrize("mismatches", [0, 1, 4])
def test_exact_counts_mismatches(mismatches):
    report = TestReport.exact("exact check", mismatches, sample_sizes=(9,), detail="d")
    assert report == TestReport(
        name="exact check",
        statistic=float(mismatches),
        threshold=0.0,
        passed=mismatches == 0,
        sample_sizes=(9,),
        detail="d",
    )
    assert type(report.statistic) is float and type(report.threshold) is float


def test_line_formats_statistic_and_threshold():
    assert TestReport.below("a b", 1 / 3, 0.02).line() == (
        "FAIL a b (statistic=0.333333, threshold=0.02)"
    )
    assert TestReport.exact("c", 0).line() == "PASS c (statistic=0, threshold=0)"
