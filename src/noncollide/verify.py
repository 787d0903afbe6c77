"""Statistical and numerical verification utilities.

Thin, deterministic wrappers around scipy's KS tests, returning a uniform
``TestReport`` record that the acceptance suite and the CLI both consume,
and one batched Gauss-Legendre rule over the ordered region
(``quadrature_integrate``). A report built by ``TestReport.below`` passes
iff its statistic is strictly below its threshold (so equality and NaN
fail); one built by ``TestReport.exact`` counts the mismatches of an exact
comparison and passes iff there are none. ``TestReport.line`` is the
report's PASS/FAIL status line. Each KS wrapper imports the scipy module it
needs when it is called, so importing this module loads numpy only. All
tests are pure functions of their inputs; randomness always enters
through explicit seeds upstream.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

P_VALUE_FLOOR = 0.01


@dataclass(frozen=True)
class TestReport:
    """Outcome of one verification check."""

    __test__ = False  # not a pytest collection target

    name: str
    statistic: float
    threshold: float
    passed: bool
    p_value: float | None = None
    sample_sizes: tuple[int, ...] = ()
    seeds: tuple[int, ...] = ()
    detail: str = ""

    @classmethod
    def below(cls, name: str, statistic: float, threshold: float, **fields) -> TestReport:
        """A report that passes iff statistic < threshold."""
        return cls(name, statistic, threshold, bool(statistic < threshold), **fields)

    @classmethod
    def exact(cls, name: str, mismatches: int, **fields) -> TestReport:
        """A report of an exact comparison that passes iff mismatches == 0."""
        return cls(name, float(mismatches), 0.0, mismatches == 0, **fields)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"{status} {self.name} (statistic={self.statistic:.6g}, "
                f"threshold={self.threshold:.6g})")

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "statistic": self.statistic,
            "threshold": self.threshold,
            "passed": bool(self.passed),
            "p_value": self.p_value,
            "sample_sizes": list(self.sample_sizes),
            "seeds": list(self.seeds),
            "detail": self.detail,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def ks_two_sample(
    a: Sequence[float],
    b: Sequence[float],
    name: str = "ks_two_sample",
    p_floor: float = P_VALUE_FLOOR,
    seeds: tuple[int, ...] = (),
) -> TestReport:
    """Two-sample Kolmogorov-Smirnov test with asymptotic p-value."""
    from scipy import stats

    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.size == 0 or b.size == 0:
        raise ValueError("samples must be nonempty")
    result = stats.ks_2samp(a, b, method="asymp")
    return TestReport(
        name=name,
        statistic=float(result.statistic),
        threshold=p_floor,
        passed=bool(result.pvalue > p_floor),
        p_value=float(result.pvalue),
        sample_sizes=(a.size, b.size),
        seeds=seeds,
        detail="pass iff p_value > threshold",
    )


def ks_one_sample(
    a: Sequence[float],
    cdf: Callable[[np.ndarray], np.ndarray],
    name: str = "ks_one_sample",
    statistic_threshold: float = 0.02,
    seeds: tuple[int, ...] = (),
) -> TestReport:
    """KS distance between a sample and a (monotone) model CDF."""
    from scipy import stats

    a = np.asarray(a, dtype=float)
    if a.size == 0:
        raise ValueError("sample must be nonempty")
    xs = np.sort(a)
    probe = cdf(xs)
    probe = np.asarray(probe, dtype=float)
    if np.any(np.diff(probe) < -1e-12):
        raise ValueError("cdf probe is not monotone on the sample range")
    n = a.size
    upper = np.arange(1, n + 1) / n - probe
    lower = probe - np.arange(0, n) / n
    statistic = float(max(upper.max(), lower.max()))
    p_value = float(stats.kstwo.sf(statistic, n))
    return TestReport.below(
        name, statistic, statistic_threshold,
        p_value=p_value,
        sample_sizes=(n,),
        seeds=seeds,
        detail="pass iff statistic < threshold",
    )


QUADRATURE_NODES = (48, 64)  # Gauss-Legendre nodes per axis: the check rule, then the returned one


def quadrature_integrate(
    f: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    ndim: int,
    tol: float = 1e-8,
) -> float:
    """Integral of f over the ordered region lo <= y_1 < ... < y_ndim <= hi.

    f takes a (points, ndim) array of strictly ordered points and returns
    the (points,) values. Collapsed coordinates map the region onto the
    unit cube: y_ndim = lo + (hi - lo) u_ndim and y_k = lo + (y_(k+1) - lo)
    u_k, with Jacobian (hi - lo) prod_(k < ndim) (y_(k+1) - lo) (Stroud,
    Approximate Calculation of Multiple Integrals, 1971). Each rule is a
    Gauss-Legendre product rule on the cube, and f is called once per rule
    on all its nodes: 64^3 = 262,144 points at ndim = 3. Supported up to
    three dimensions. Returns the 64-node value; raises if it is not finite
    or differs from the 48-node value by more than tol.
    """
    if not 1 <= ndim <= 3:
        raise ValueError(f"quadrature supports 1 to 3 dimensions, got {ndim}")
    values = []
    for m in QUADRATURE_NODES:
        nodes, weights = np.polynomial.legendre.leggauss(m)
        index = np.indices((m,) * ndim).reshape(ndim, -1).T
        u = (nodes[index] + 1.0) / 2.0
        weight = weights[index].prod(axis=1) / 2.0**ndim
        y, upper = np.empty_like(u), hi
        for k in reversed(range(ndim)):
            span = upper - lo
            upper = y[:, k] = lo + span * u[:, k]
            weight *= span
        values.append(float(weight @ f(y)))
    coarse, value = values
    err = abs(value - coarse)
    if not np.isfinite(value) or not err <= tol:
        raise RuntimeError(
            f"quadrature did not converge: estimate {value}, error {err} > {tol}"
        )
    return value
