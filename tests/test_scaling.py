"""The float scaling-limit route against exact big-integer counts, at
large L, its cancellation guard and its argument checks."""

import math
import re
import time
from fractions import Fraction

import pytest

from noncollide.walks import count_vicious, floor_scale, scaling_check


def _exact_lhs(x, t, y, scale):
    """(L/2)^N 2^(-N T') M_N(T', y' | x) in exact arithmetic."""
    n = len(x)
    horizon = floor_scale(t, scale * scale)
    y_lattice = tuple(floor_scale(v, scale) for v in y)
    m = count_vicious(x, y_lattice, horizon)
    return float(Fraction(m, 2 ** (n * horizon)) * (Fraction(scale) / 2) ** n)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_float_route_matches_exact(n):
    x = tuple(range(0, 2 * n, 2))
    y = tuple(-1.2 + 2.4 * i / (n - 1) for i in range(n))
    for scale in (100, 200, 400):
        lhs, _ = scaling_check(x, 1.0, y, scale)
        assert lhs == pytest.approx(_exact_lhs(x, 1.0, y, scale), rel=1e-8), scale


def test_large_scales_are_fast_and_converge():
    rels = []
    for scale in (1600, 6400, 10**4):
        began = time.perf_counter()
        lhs, rhs = scaling_check((0, 2), 1.0, (-1.0, 1.0), scale)
        assert time.perf_counter() - began < 1.0, scale
        rels.append(abs(lhs / rhs - 1.0))
    assert all(math.isfinite(r) for r in rels)
    assert rels[0] > rels[1] > rels[2]


def test_cancellation_guard():
    # five walkers at L=400: the determinant cancels past the float limit
    with pytest.raises(ValueError, match="cancels"):
        scaling_check((0, 2, 4, 6, 8), 1.0, (-1.2, -0.6, 0.0, 0.6, 1.2), 400)


@pytest.mark.parametrize(
    "t, y, scale, name",
    [
        (math.inf, (-1.0, 1.0), 50.0, "t"),
        (1.0, (-1.0, 1.0), math.inf, "scale"),
        (1.0, (-1.0, 1.0), 1e200, "scale^2 * t"),
        (1.0, (-math.inf, 1.0), 50.0, "y[0]"),
        (1.0, (0.0, math.nan), 50.0, "y[1]"),
        (1e-300, (0.0, 1e300), 1e10, "scale * y[1]"),
    ],
)
def test_non_finite_arguments_are_named(t, y, scale, name):
    with pytest.raises(ValueError, match=f"needs a finite {re.escape(name)},"):
        scaling_check((0, 2), t, y, scale)


@pytest.mark.parametrize("t, scale", [(0.0, 50.0), (-1.0, 50.0), (1.0, 0.0), (1.0, -5.0)])
def test_nonpositive_time_or_scale(t, scale):
    with pytest.raises(ValueError, match="t > 0 and scale > 0"):
        scaling_check((0, 2), t, (-1.0, 1.0), scale)
