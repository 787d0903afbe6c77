"""de Bruijn's erf Pfaffian: the one production route for survival, the
finite-horizon drift and the from-origin start weight."""

import math
import subprocess
import sys

import mpmath
import numpy as np
import pytest

from noncollide.diffusion import (
    drift_inhomogeneous,
    survival,
    survival_quadrature,
    transition_inhomogeneous,
)

TAU = 0.7


def _equal_gaps(n, z, tau=TAU):
    """Chamber point whose gaps are all 2 sqrt(tau) z."""
    return 0.25 + 2.0 * math.sqrt(tau) * z * np.arange(n)


def _mp_log_pfaffian(tau, x):
    """1/2 log det of the bordered erf matrix in 80-digit arithmetic."""
    n = len(x)
    m = n + n % 2
    s = 2 * mpmath.sqrt(tau)
    a = mpmath.zeros(m, m)
    for i in range(m):
        for j in range(i + 1, m):
            a[i, j] = mpmath.erf((x[j] - x[i]) / s) if j < n else 1
            a[j, i] = -a[i, j]
    return mpmath.log(mpmath.det(a)) / 2


def _mp_reference(tau, x):
    """Survival and drift (numerical derivative of the log Pfaffian)."""
    with mpmath.workdps(80):
        tau = mpmath.mpf(tau)
        xs = [mpmath.mpf(float(v)) for v in x]
        surv = mpmath.exp(_mp_log_pfaffian(tau, xs))
        drift = []
        for k in range(len(xs)):
            def shifted(h, k=k):
                return _mp_log_pfaffian(tau, [v + h if i == k else v for i, v in enumerate(xs)])

            drift.append(float(mpmath.diff(shifted, 0)))
    return float(surv), np.array(drift)


@pytest.mark.parametrize(
    "t, x",
    [(0.8, (0.0, 1.0, 2.5)), (1.0, (0.0, 0.5, 1.3)), (2.0, (-1.0, 0.2, 0.4)), (0.5, (0.0, 1.0, 3.0))],
    ids=["t0.8-x0,1,2.5", "t1-x0,0.5,1.3", "t2-x-1,0.2,0.4", "t0.5-x0,1,3"],
)
def test_default_route_matches_quadrature_three_walkers(t, x):
    assert abs(survival(t, x) - survival_quadrature(t, x)) < 1e-7


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("z", [0.3, 0.1, 0.05])
def test_survival_and_drift_match_mpmath(n, z):
    x = _equal_gaps(n, z)
    if (n, z) == (6, 0.05):
        # cond_1(A) * eps is about 1e-5 here: the guard refuses
        with pytest.raises(ValueError, match="N=6"):
            survival(TAU, x)
        return
    surv, drift = _mp_reference(TAU, x)
    assert survival(TAU, x) == pytest.approx(surv, rel=1e-6)
    got = drift_inhomogeneous(1.0, x, 1.0 + TAU)
    assert np.max(np.abs(got - drift)) <= 1e-5 * np.max(np.abs(drift))


def test_two_walker_drift_matches_closed_form():
    # N_2 = erf(z), z = gap / (2 sqrt(tau)); the drift is (-g, g) with
    # g = d/dgap log erf(z)
    for t, x, horizon in ((0.3, (0.1, 0.9), 1.7), (0.0, (0.0, 2.0), 1e4),
                          (0.5, (-1.0, 2.0), 0.6), (1.2, (0.0, 0.01), 3.0)):
        scale = 2.0 * math.sqrt(horizon - t)
        z = (x[1] - x[0]) / scale
        g = 2.0 / math.sqrt(math.pi) * math.exp(-z * z) / (scale * math.erf(z))
        got = drift_inhomogeneous(t, x, horizon)
        assert np.max(np.abs(got - [-g, g])) <= 1e-12 * g


def test_guard_raises_on_cancellation():
    x = _equal_gaps(6, 0.01, tau=1.0)
    with pytest.raises(ValueError, match=r"N=6 at tau=1\.0 .*cond_1\(A\) \* eps"):
        survival(1.0, x)
    with pytest.raises(ValueError, match="N=6"):
        drift_inhomogeneous(0.0, x, 1.0)


def test_every_dimension_returns():
    for n in range(1, 7):
        x = _equal_gaps(n, 0.3)
        y = x + 0.1
        assert 0.0 < survival(TAU, x) <= 1.0
        assert np.all(np.isfinite(drift_inhomogeneous(0.2, x, 0.2 + TAU)))
        assert math.isfinite(transition_inhomogeneous(0.0, x, 0.5, y, 1.5))
        assert math.isfinite(transition_inhomogeneous(0.0, None, 0.5, y, 1.5))


def _cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "noncollide.cli", *args],
        capture_output=True,
        text=True,
        timeout=60,
    )


def test_simulate_inhomogeneous_three_walkers_finishes():
    proc = _cli("simulate-inhomogeneous", "--n", "3", "--horizon", "1", "--t", "1",
                "--steps", "50", "--paths", "20")
    assert proc.returncode == 0, proc.stderr
    rows = [line for line in proc.stdout.splitlines() if not line.startswith("#")]
    assert rows[0] == "path_id,t,i,value"
    assert len(rows) == 1 + 20 * 50 * 3


def test_finite_horizon_density_from_origin_four_walkers():
    proc = _cli("density", "--kind", "g", "--x", "origin", "--y=-1.5,-0.5,0.5,1.5",
                "--horizon", "2", "--t", "1")
    assert proc.returncode == 0, proc.stderr
    value = float(proc.stdout)
    assert math.isfinite(value) and value > 0.0
