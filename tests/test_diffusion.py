import hashlib
import math

import numpy as np
import pytest

from noncollide.diffusion import (
    MAX_CDF_N,
    ChamberConstants,
    SamplePath,
    chamber_constants,
    coordinate_cdfs,
    drift_inhomogeneous,
    dyson_drift,
    dyson_terminal_batch,
    dyson_trajectories,
    km_density,
    log_vandermonde_h,
    sample_from_origin,
    survival,
    survival_asymptotic,
    survival_mc,
    survival_quadrature,
    terminal,
    trajectories,
    transition_homogeneous,
    transition_inhomogeneous,
    vandermonde_h,
)
from oracles import marginal_cdf_from_origin


def test_chamber_constants():
    c2 = chamber_constants(2)
    assert c2.c == pytest.approx(1.0 / (2.0 * math.sqrt(math.pi)), rel=1e-14)
    assert c2.c_prime == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-14)
    assert c2.c_bar == pytest.approx(math.sqrt(math.pi), rel=1e-14)
    c1 = chamber_constants(1)
    assert c1.c == pytest.approx((2.0 * math.pi) ** -0.5, rel=1e-14)
    assert c1.c_prime == pytest.approx((2.0 * math.pi) ** -0.5, rel=1e-14)
    with pytest.raises(ValueError):
        chamber_constants(0)


# the Gamma products of chamber_constants take c'_N to 0.0 from N = 28 and
# c_N from N = 43; the densities must not depend on them
@pytest.mark.parametrize("n, kind", [(30, "p"), (44, "g")])
def test_from_origin_densities_past_the_gamma_product_underflow(n, kind):
    import mpmath

    y = np.linspace(-9.0, 9.0, n)  # gaps of 0.42 or more
    with mpmath.workdps(30):
        ym = [mpmath.mpf(float(v)) for v in y]
        log_h = mpmath.fsum(mpmath.log(ym[j] - ym[i]) for i in range(n) for j in range(i + 1, n))
        log_free = -mpmath.fsum(v * v for v in ym) / 2  # at t = 1
        if kind == "p":  # c'_N = (2 pi)^(-N/2) / prod Gamma(i)
            log_c = -n * mpmath.log(2 * mpmath.pi) / 2
            log_c -= mpmath.fsum(mpmath.loggamma(i) for i in range(1, n + 1))
            exact = float(log_c + log_free + 2 * log_h)
        else:  # c_N = 2^(-N/2) / prod Gamma(i/2)
            log_c = -n * mpmath.log(2) / 2
            log_c -= mpmath.fsum(mpmath.loggamma(mpmath.mpf(i) / 2) for i in range(1, n + 1))
            exact = float(log_c + log_free + log_h)
    if kind == "p":
        density = transition_homogeneous(0.0, None, 1.0, y)
    else:  # horizon 1.01: T^(N(N-1)/4) times the survival over the last 0.01
        density = transition_inhomogeneous(0.0, None, 1.0, y, 1.01)
        exact += n * (n - 1) / 4 * math.log(1.01) + math.log(survival(0.01, y))
    assert abs(math.log(density) - exact) < 1e-10


def test_vandermonde_h():
    assert vandermonde_h([3.0]) == 1.0
    assert vandermonde_h([0.0, 2.0]) == 2.0
    assert vandermonde_h([0.0, 1.0, 3.0]) == 6.0
    assert log_vandermonde_h(np.array([1.0, 1.0])) == -math.inf
    # antisymmetry on raw vectors
    assert vandermonde_h([2.0, 0.0]) == -2.0


def test_vandermonde_harmonicity():
    # h is harmonic: the finite-difference Laplacian vanishes to O(step^2)
    rng = np.random.default_rng(2)
    step = 1e-4
    for n in (2, 3, 4):
        for _ in range(20):
            x = np.sort(rng.uniform(-2, 2, n))
            if np.min(np.diff(x)) < 0.1:
                continue
            lap = 0.0
            for i in range(n):
                up = x.copy()
                dn = x.copy()
                up[i] += step
                dn[i] -= step
                lap += vandermonde_h(up) + vandermonde_h(dn) - 2 * vandermonde_h(x)
            lap /= step * step
            assert abs(lap) < 1e-2 * max(1.0, abs(vandermonde_h(x)))


def test_km_density_examples():
    assert km_density(1.0, [0.0], [0.0]) == pytest.approx(
        (2 * math.pi) ** -0.5, rel=1e-12
    )
    assert km_density(1.0, [0.0, 2.0], [0.0, 2.0]) == pytest.approx(
        (1.0 - math.exp(-4.0)) / (2.0 * math.pi), rel=1e-12
    )
    with pytest.raises(ValueError):
        km_density(0.0, [0.0], [0.0])
    with pytest.raises(ValueError):
        km_density(1.0, [2.0, 0.0], [0.0, 1.0])


def test_km_density_symmetry_and_positivity():
    rng = np.random.default_rng(3)
    for _ in range(200):
        n = int(rng.integers(1, 5))
        t = float(rng.uniform(0.05, 3.0))
        x = np.sort(rng.uniform(-3, 3, n))
        y = np.sort(rng.uniform(-3, 3, n))
        if n > 1 and (np.min(np.diff(x)) <= 0 or np.min(np.diff(y)) <= 0):
            continue
        f_xy = km_density(t, x, y)
        f_yx = km_density(t, y, x)
        assert f_xy >= 0.0
        assert f_xy == pytest.approx(f_yx, rel=1e-9, abs=1e-300)


def test_survival_methods():
    assert survival(0.7, [1.0]) == 1.0
    exact = math.erf(1.0)
    assert survival(1.0, [0.0, 2.0]) == pytest.approx(exact)
    assert survival_quadrature(1.0, [0.0, 2.0]) == pytest.approx(exact, abs=1e-7)
    approx = survival_asymptotic(1.0, [0.0, 0.1])
    assert approx == pytest.approx(0.1 / math.sqrt(math.pi), rel=1e-12)
    assert abs(approx / math.erf(0.05) - 1.0) < 1e-3
    est, err = survival_mc(1.0, np.array([0.0, 2.0]), np.random.default_rng(4), 200_000)
    assert abs(est - exact) < 4 * err
    with pytest.raises(ValueError):
        survival_quadrature(1.0, [0.0, 1.0, 2.0, 3.0])


def test_survival_three_walkers_quadrature_vs_mc():
    x = [0.0, 1.0, 2.5]
    quad = survival_quadrature(0.8, x, tol=1e-6)
    est, err = survival_mc(0.8, np.array(x), np.random.default_rng(8), 400_000)
    assert abs(quad - est) < 4 * err


def test_survival_monotonicity():
    x = [0.0, 1.0]
    values = [survival(t, x) for t in (0.25, 0.5, 1.0, 2.0, 4.0)]
    assert all(a >= b for a, b in zip(values, values[1:]))
    # dilating the configuration raises survival
    for n, x in ((2, [0.0, 1.0]), (3, [0.0, 1.0, 2.2])):
        lo = survival(1.0, np.array(x))
        hi = survival(1.0, 1.5 * np.array(x))
        assert hi > lo


def test_transition_n1_reduces_to_gaussian():
    for s, x, t, y in ((0.0, None, 1.0, 0.3), (0.5, [0.2], 1.25, -0.4)):
        yv = np.array([y])
        kernel = math.exp(-((y - (0.0 if x is None else x[0])) ** 2) / (2 * (t - s)))
        kernel /= math.sqrt(2 * math.pi * (t - s))
        assert transition_inhomogeneous(s, x, t, yv, 10.0) == pytest.approx(
            kernel, rel=1e-9
        )
        assert transition_homogeneous(s, x, t, yv) == pytest.approx(kernel, rel=1e-12)


def test_transition_homogeneous_origin_log_path():
    # log-space evaluation agrees with the direct formula to full precision
    c2 = chamber_constants(2).c_prime
    for t, y in ((0.5, (-0.4, 0.9)), (2.0, (0.1, 0.2)), (1.0, (-3.0, 3.0))):
        yv = np.array(y)
        direct = (
            c2
            * t**-2.0
            * math.exp(-float(yv @ yv) / (2 * t))
            * vandermonde_h(yv) ** 2
        )
        assert transition_homogeneous(0.0, None, t, yv) == pytest.approx(
            direct, rel=1e-12
        )


def test_transition_validation():
    y = np.array([-0.5, 0.5])
    with pytest.raises(ValueError):
        transition_inhomogeneous(0.5, None, 1.0, y, 2.0)  # origin after s=0
    with pytest.raises(ValueError):
        transition_inhomogeneous(0.0, None, 3.0, y, 2.0)  # t beyond horizon
    with pytest.raises(ValueError):
        transition_homogeneous(1.0, [0.0, 1.0], 1.0, y)  # s == t


def test_long_horizon_transition_limit():
    y = np.array([-0.6, 1.1])
    x = np.array([0.0, 0.5])
    t = 0.8
    p = transition_homogeneous(0.0, x, t, y)
    g = transition_inhomogeneous(0.0, x, t, y, horizon=1e4 * t)
    assert abs(g / p - 1.0) < 0.01
    g_origin = transition_inhomogeneous(0.0, None, t, y, horizon=1e4 * t)
    p_origin = transition_homogeneous(0.0, None, t, y)
    assert abs(g_origin / p_origin - 1.0) < 0.01


def test_drift_inhomogeneous():
    assert drift_inhomogeneous(0.0, [0.7], 2.0).tolist() == [0.0]
    b = drift_inhomogeneous(0.0, [0.0, 2.0], 1e4)
    assert b[0] == pytest.approx(-0.5, rel=0.01)
    assert b[1] == pytest.approx(0.5, rel=0.01)
    near_end = drift_inhomogeneous(2.0 - 1e-4, [0.0, 2.0], 2.0)
    assert np.max(np.abs(near_end)) < 0.01
    with pytest.raises(ValueError):
        drift_inhomogeneous(3.0, [0.0, 2.0], 2.0)
    assert dyson_drift(np.array([[0.0, 1.0, 3.0]]))[0, 1] == pytest.approx(1.0 - 0.5)


def test_sample_path_validation():
    with pytest.raises(ValueError):
        SamplePath(np.array([0.0, 1.0]), np.array([[0.0, 1.0], [1.0, 0.5]]))
    with pytest.raises(ValueError):
        SamplePath(np.array([1.0, 1.0]), np.array([[0.0, 1.0], [0.0, 1.0]]))


@pytest.mark.parametrize(
    "times, states, name",
    [
        ([0.0, 1.0], [[0.0, 1.0], [0.5, math.nan]], "states"),
        ([0.0, 1.0], [[0.0, 1.0], [0.5, math.inf]], "states"),
        ([0.0, math.nan], [[0.0, 1.0], [0.5, 1.5]], "times"),
        ([0.0, math.inf], [[0.0, 1.0], [0.5, 1.5]], "times"),
    ],
)
def test_sample_path_refuses_values_that_are_not_finite(times, states, name):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        SamplePath(np.array(times), np.array(states))


def test_sample_from_origin_distribution():
    # N=1 from-origin law is exactly Gaussian with variance t0
    rng = np.random.default_rng(17)
    t0 = 0.3
    samples = sample_from_origin(1, t0, 20000, rng, h_power=2)[:, 0]
    assert abs(samples.mean()) < 3 * math.sqrt(t0 / 20000)
    assert abs(samples.var() / t0 - 1.0) < 0.05
    ordered = sample_from_origin(3, 0.1, 500, rng, h_power=2)
    assert np.all(np.diff(ordered, axis=1) > 0)


def test_simulate_dyson_single_paths():
    path = trajectories("dyson", 2, 1.0, 32, 1, np.random.default_rng(5))[0]
    assert path.shape == (32, 2)
    path2 = trajectories("dyson", 2, 1.0, 32, 1, np.random.default_rng(6), [0.0, 2.0])[0]
    assert path2.shape == (33, 2)
    assert tuple(path2[0]) == (0.0, 2.0)
    with pytest.raises(ValueError):
        trajectories("dyson", 2, 1.0, 0, 1, np.random.default_rng(0))


def test_dyson_sum_is_driftless():
    # pairwise repulsion cancels in the center of mass: Var(sum) = N t
    rng = np.random.default_rng(23)
    term = dyson_terminal_batch(2, 1.0, 256, 10_000, rng)
    total = term.sum(axis=1)
    var = total.var()
    # Var of the sample variance of N(0, 2): relative sd sqrt(2/n)
    assert abs(var / 2.0 - 1.0) < 4 * math.sqrt(2.0 / 10_000)


def test_dyson_single_walker_variance():
    rng = np.random.default_rng(27)
    term = dyson_terminal_batch(1, 1.5, 16, 10_000, rng, x0=[0.0])
    assert abs(term.var() / 1.5 - 1.0) < 4 * math.sqrt(2.0 / 10_000)


def test_dyson_terminal_ks_quick():
    rng = np.random.default_rng(31)
    term = dyson_terminal_batch(2, 1.0, 512, 2_000, rng)
    cdf = marginal_cdf_from_origin(2, 1.0, 0)
    from noncollide.verify import ks_one_sample

    report = ks_one_sample(term[:, 0], cdf, statistic_threshold=0.05)
    assert report.passed, report.detail


def test_inhomogeneous_end_of_horizon_is_noise():
    # the conditioning drains away at t -> T: last-step variance ~ dt
    rng = np.random.default_rng(37)
    n_steps = 200
    traj = trajectories("finite-horizon", 2, 1.0, n_steps, 10_000, rng, horizon=1.0)
    dt = 1.0 / n_steps
    last = traj[:, -1, :] - traj[:, -2, :]
    ratio = last.var(axis=0) / dt
    assert np.all(np.abs(ratio - 1.0) < 0.05)


def test_inhomogeneous_terminal_ks_quick():
    rng = np.random.default_rng(53)
    traj = trajectories("finite-horizon", 2, 1.0, 512, 2_000, rng, horizon=1.0)
    cdf = marginal_cdf_from_origin(2, 1.0, 1, kind="inhomogeneous", horizon=1.0)
    from noncollide.verify import ks_one_sample

    report = ks_one_sample(traj[:, -1, 1], cdf, statistic_threshold=0.05)
    assert report.passed, report.detail


def test_inhomogeneous_single_path():
    rng = np.random.default_rng(41)
    path = trajectories("finite-horizon", 2, 1.0, 32, 1, rng, horizon=1.0)[0]
    assert path.shape == (32, 2)
    assert np.all(np.diff(path, axis=1) > 0)


def test_trajectories_shapes():
    rng = np.random.default_rng(43)
    d = dyson_trajectories(2, 0.5, 16, 7, rng)
    assert d.shape == (7, 16, 2)
    i = trajectories("finite-horizon", 2, 0.5, 16, 7, rng, horizon=1.0)
    assert i.shape == (7, 16, 2)
    assert np.all(np.diff(d, axis=2) > 0)
    assert np.all(np.diff(i, axis=2) > 0)


def test_gue_start_matches_rejection_oracle():
    # the Dyson from-origin start (GUE eigenvalues at t0) has the h^2 law that
    # rejection sampling targets; compare every coordinate at N = 3
    from scipy.stats import ks_2samp

    t0 = 0.1
    gue = terminal("matrix", 3, t0, 1, 3000, np.random.default_rng(61))
    oracle = sample_from_origin(3, t0, 3000, np.random.default_rng(62), h_power=2)
    assert np.all(np.diff(gue, axis=1) > 0)
    for coord in range(3):
        assert ks_2samp(gue[:, coord], oracle[:, coord]).pvalue > 1e-3
    with pytest.raises(ValueError):
        terminal("matrix", 0, t0, 1, 5, np.random.default_rng(0))


# one trajectory engine: (process, x0, horizon) cases on a fixed seed
ENGINE_CASES = [
    ("dyson", None, None),
    ("dyson", [-0.5, 0.2, 1.0], None),
    ("finite-horizon", None, 1.5),
    ("finite-horizon", [-0.5, 0.2, 1.0], 1.5),
    ("matrix", None, None),
    ("matrix", [-0.5, 0.2, 1.0], None),
]


@pytest.mark.parametrize("process, x0, horizon", ENGINE_CASES)
def test_engine_consumers_agree(process, x0, horizon):
    from noncollide.diffusion import grid_states

    args = (process, 3, 1.0, 12)
    rng = lambda: np.random.default_rng(71)
    traj = trajectories(*args, 5, rng(), x0, horizon)
    origin = x0 is None
    assert traj.shape == (5, 12 if origin else 13, 3)
    # the yielded state is overwritten by the next step, so keep copies
    streamed = [s.copy() for s in grid_states(*args, 5, rng(), x0, horizon)]
    assert np.array_equal(np.stack(streamed, axis=1), traj)
    assert np.array_equal(terminal(*args, 5, rng(), x0, horizon), traj[:, -1])
    one = trajectories(*args, 1, rng(), x0, horizon)[0]
    dt = 1.0 / 12
    grid = np.arange(1, 13) * dt if origin else np.arange(13) * dt
    path = SamplePath(grid, one)
    assert np.array_equal(path.states, one)
    assert np.array_equal(path.times, grid)
    if not origin:
        assert np.array_equal(traj[:, 0], np.tile(x0, (5, 1)))


def test_engine_rejects_bad_arguments():
    from noncollide.diffusion import terminal, trajectories

    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="unknown process"):
        terminal("brownian", 2, 1.0, 4, 3, rng)
    with pytest.raises(ValueError, match="horizon"):
        trajectories("finite-horizon", 2, 1.0, 4, 3, rng)
    with pytest.raises(ValueError, match="starts from zero"):
        terminal("matrix", 2, 1.0, 4, 3, rng, x0=[0.0, 1.0], horizon=1.0)
    with pytest.raises(ValueError, match="expected n = 3"):
        terminal("dyson", 3, 1.0, 4, 3, rng, x0=[0.0, 1.0])
    # one start per path: every row is checked, and there must be n_paths rows
    rows = [[0.0, 1.0], [1.0, 0.5], [0.0, 2.0]]
    with pytest.raises(ValueError, match="not strictly increasing"):
        terminal("matrix", 2, 1.0, 4, 3, rng, x0=rows)
    with pytest.raises(ValueError, match="n_paths = 3 rows"):
        terminal("dyson", 2, 1.0, 4, 3, rng, x0=rows[:1] * 4)
    with pytest.raises(ValueError, match="t_end <= T"):
        terminal("finite-horizon", 2, 2.0, 4, 3, rng, horizon=1.0)


def test_matrix_process_from_chamber_points_has_the_second_moment():
    # E sum lambda_i^2 = E tr (diag(x0) + H(t))^2 = |x0|^2 + N^2 t exactly;
    # N = 3, one start per path, 20,000 paths on 4 steps to t = 1, within 4
    # standard errors at every grid time
    n, n_paths = 3, 20_000
    x0 = np.sort(np.random.default_rng(88).normal(size=(n_paths, n)), axis=1)
    traj = trajectories("matrix", n, 1.0, 4, n_paths, np.random.default_rng(89), x0=x0)
    assert np.array_equal(traj[:, 0], x0)
    for k in range(1, 5):
        excess = (traj[:, k] ** 2).sum(axis=1) - (x0**2).sum(axis=1)
        stderr = excess.std(ddof=1) / math.sqrt(n_paths)
        assert abs(excess.mean() - n * n * k / 4) < 4 * stderr


def test_dyson_euler_maruyama_matches_the_matrix_process_from_x0():
    # the eigenvalues of diag(x0) + H(t) are Dyson's process from x0 (Dyson
    # 1962): at N = 3 and t = 1, 5,000 Euler-Maruyama paths of 256 steps
    # against 5,000 exact draws, every coordinate
    from scipy.stats import ks_2samp

    x0 = [-0.5, 0.2, 1.0]
    em = terminal("dyson", 3, 1.0, 256, 5_000, np.random.default_rng(90), x0=x0)
    exact = terminal("matrix", 3, 1.0, 1, 5_000, np.random.default_rng(91), x0=x0)
    for coord in range(3):
        assert ks_2samp(em[:, coord], exact[:, coord]).pvalue > 1e-3


def test_matrix_steps_refuse_to_run_past_the_horizon(monkeypatch):
    import re

    from noncollide import rmt
    from noncollide.diffusion import grid_states

    rng = np.random.default_rng(0)
    # a step from exactly T divided by zero; a step from past T ran on
    for dt, n_steps, horizon in ((0.5, 4, 1.0), (0.5, 3, 0.7)):
        steps = rmt.eigen_steps(np.zeros((2, 2, 2), dtype=complex), dt, n_steps, rng, horizon)
        message = f"end at {n_steps * dt!r}, past the horizon {horizon!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            next(steps)
    # a grid to t_end = T ends at T up to rounding, which is not refused
    monkeypatch.setattr(rmt, "MATRIX_BLOCK", 1)  # the first state is one step
    for horizon in (1.0, 0.7, 1.5, 1e-3, 3.3):
        for n_steps in range(1, 2001):
            next(grid_states("matrix", 1, horizon, n_steps, 1, rng, horizon=horizon))


# the public functions and classes of the simulation modules; one added or
# removed shows here. dyson_terminal_batch, dyson_trajectories,
# inhomogeneous_terminal_batch, eigen_terminal_batch and eigen_trajectories
# are one-line views of the engine, kept because perfbench/workloads.py
# calls them by name, as it does drift_qv_report.
SIMULATION_SURFACE = {
    "diffusion": {
        "ChamberConstants", "SamplePath", "chamber_constants", "coordinate_cdfs",
        "drift_inhomogeneous", "dyson_drift", "dyson_terminal_batch",
        "dyson_trajectories", "grid_states", "inhomogeneous_terminal_batch",
        "km_density", "log_vandermonde_h", "sample_from_origin", "survival",
        "survival_asymptotic", "survival_mc", "survival_quadrature", "terminal",
        "trajectories", "transition_homogeneous", "transition_inhomogeneous",
        "vandermonde_h",
    },
    "rmt": {
        "DriftQVReport", "drift_qv_report", "eigen_steps", "eigen_terminal_batch",
        "eigen_trajectories", "estimate_drift_qv", "estimate_gamma",
        "gamma_from_increments", "hermitian_increment_batch",
    },
}


def test_simulation_surface_census():
    import inspect

    from noncollide import diffusion, rmt

    surface = {
        module.__name__.rpartition(".")[2]: {
            name
            for name, obj in vars(module).items()
            if not name.startswith("_")
            and (inspect.isfunction(obj) or inspect.isclass(obj))
            and obj.__module__ == module.__name__
        }
        for module in (diffusion, rmt)
    }
    assert surface == SIMULATION_SURFACE


def test_terminal_batch_streams():
    # the full (2000, 2000, 2) trajectory array would take 61 MiB
    import tracemalloc

    tracemalloc.start()
    try:
        term = dyson_terminal_batch(2, 1.0, 2000, 2000, np.random.default_rng(73))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert term.shape == (2000, 2)
    assert peak < 8 * 2**20


def test_sample_from_origin_gives_up_with_its_acceptance(monkeypatch):
    from noncollide import diffusion

    monkeypatch.setattr(diffusion, "MAX_PROPOSALS", 10**5)
    with pytest.raises(RuntimeError, match=r"N=4 at t0=0\.01 accepted 0 of \d+ proposals"):
        sample_from_origin(4, 0.01, 20, np.random.default_rng(5), h_power=2)


# the finite-horizon process from the origin is the eigenvalue process of the
# two-matrix model S + iA, A a bridge to 0 at T (Katori and Tanemura)
@pytest.mark.parametrize("t", [0.5, 0.9])
def test_two_matrix_model_has_the_finite_horizon_marginals(t):
    from scipy.stats import kstest

    from noncollide.diffusion import terminal, trajectories

    one_step = terminal("matrix", 2, t, 1, 3000, np.random.default_rng(81), horizon=1.0)
    # five steps exercise the bridge recursion, not just one marginal
    five_steps = trajectories("matrix", 2, t, 5, 3000, np.random.default_rng(82), horizon=1.0)
    for coord in (0, 1):
        cdf = marginal_cdf_from_origin(2, t, coord, kind="inhomogeneous", horizon=1.0)
        assert kstest(one_step[:, coord], cdf).pvalue > 1e-3
        assert kstest(five_steps[:, -1, coord], cdf).pvalue > 1e-3


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_two_matrix_model_second_moment(n):
    # E sum lambda^2 = E tr (S + iA)^2 = N t + N(N-1) t (2T - t) / 2T: the GUE
    # value N^2 t for t << T and the GOE value N(N+1)T/2 at t = T
    from noncollide.diffusion import trajectories

    horizon = 1.0
    traj = trajectories("matrix", n, horizon, 10, 20_000, np.random.default_rng(83), horizon=horizon)
    for k, t in ((4, 0.5), (9, horizon)):
        total = np.sum(traj[:, k] ** 2, axis=1)
        exact = n * t + n * (n - 1) * t * (2 * horizon - t) / (2 * horizon)
        stderr = total.std(ddof=1) / math.sqrt(total.size)
        assert abs(total.mean() - exact) < 4 * stderr
        assert t < horizon or exact == pytest.approx(n * (n + 1) * horizon / 2)


def test_finite_horizon_euler_maruyama_matches_two_matrix_law():
    from scipy.stats import ks_2samp

    from noncollide.diffusion import terminal

    em = terminal("finite-horizon", 3, 1.0, 100, 3000, np.random.default_rng(84), horizon=1.5)
    exact = terminal("matrix", 3, 1.0, 1, 20_000, np.random.default_rng(85), horizon=1.5)
    for coord in range(3):
        assert ks_2samp(em[:, coord], exact[:, coord]).pvalue > 1e-3


@pytest.mark.parametrize("n_steps", [20, 40])
def test_step_halving_cost_is_bounded(n_steps, monkeypatch):
    # a halved step grows back after each accepted sub-step, so a path that
    # needed deep halving once does not keep tiny steps for the grid step
    from noncollide import diffusion

    calls, per_step = [0], []
    drift, advance = diffusion.dyson_drift, diffusion._advance_batch

    def counting_drift(states, t=None):
        calls[0] += 1
        return drift(states, t)

    def counting_advance(*args):
        before = calls[0]
        advance(*args)
        per_step.append(calls[0] - before)

    monkeypatch.setattr(diffusion, "dyson_drift", counting_drift)
    monkeypatch.setattr(diffusion, "_advance_batch", counting_advance)
    x0 = (0.0, 0.4, 0.8)
    dyson_terminal_batch(3, 1.0, n_steps, 40_000, np.random.default_rng(3), x0=x0)
    assert len(per_step) == n_steps
    assert max(per_step) <= 2 * diffusion.MAX_HALVINGS


def _adaptive_marginal_cdf(t, coord, kind, horizon, grid_points):
    # one adaptive quadrature over the other coordinate per grid point, with
    # the scalar transition densities as the integrand
    from scipy import integrate

    from oracles import grid_cdf

    width = 6.0 * math.sqrt(2.0 * t)

    def joint(a, b):
        if not a < b:
            return 0.0
        if kind == "homogeneous":
            return transition_homogeneous(0.0, None, t, np.array([a, b]))
        return transition_inhomogeneous(0.0, None, t, np.array([a, b]), horizon)

    def quad(f, a, b):
        return integrate.quad(f, a, b, epsabs=1e-10, limit=200)[0]

    def density(xs):
        if coord == 0:
            return [quad(lambda b: joint(v, b), v, width + 2.0) for v in xs]
        return [quad(lambda a: joint(a, v), -width - 2.0, v) for v in xs]

    return grid_cdf(density, -width, width, grid_points)


@pytest.mark.parametrize(
    "kind, t, horizon",
    [("homogeneous", 1.0, None), ("inhomogeneous", 0.5, 1.0), ("inhomogeneous", 1.0, 1.0)],
)
@pytest.mark.parametrize("coord", [0, 1])
def test_batched_marginal_matches_adaptive_quadrature(kind, t, horizon, coord):
    # both CDFs tabulate on the same grid, so they differ only by how the
    # other coordinate is integrated out; t = T is the case where the joint
    # density is only linear in the gap
    grid_points = 151
    batched = marginal_cdf_from_origin(2, t, coord, kind=kind, horizon=horizon, grid_points=grid_points)
    adaptive = _adaptive_marginal_cdf(t, coord, kind, horizon, grid_points)
    width = 6.0 * math.sqrt(2.0 * t)
    probe = np.linspace(-width - 0.5, width + 0.5, 997)
    assert np.abs(batched(probe) - adaptive(probe)).max() < 1e-9


def test_marginal_rejects_times_past_the_horizon():
    with pytest.raises(ValueError, match="0 < t <= T"):
        marginal_cdf_from_origin(2, 1.5, 0, kind="inhomogeneous", horizon=1.0)
    with pytest.raises(ValueError, match="needs the horizon"):
        marginal_cdf_from_origin(2, 0.5, 0, kind="inhomogeneous")


COORDINATE_PROBES = (-2.5, -1.2, -0.4, 0.0, 0.3, 1.1, 2.6)


def test_coordinate_cdfs_match_adaptive_quadrature():
    # P(y_(2) <= s) and 1 - P(y_(1) <= s) as adaptive double integrals of
    # the N = 2 density (b - a)^2 exp(-(a^2 + b^2)/2) / 2 pi at t = 1, which
    # is below 1e-30 past +-12
    from scipy import integrate

    def joint(b, a):
        return (b - a) ** 2 * math.exp(-(a * a + b * b) / 2.0) / (2.0 * math.pi)

    def ordered(lo, hi):
        return integrate.dblquad(joint, lo, hi, lambda a: a, hi, epsabs=1e-15, epsrel=1e-13)[0]

    cdfs = coordinate_cdfs(2, 1.0, COORDINATE_PROBES)
    for s, (lower, upper) in zip(COORDINATE_PROBES, cdfs):
        assert abs(upper - ordered(-12.0, s)) < 1e-12
        assert abs(lower - (1.0 - ordered(s, 12.0))) < 1e-12


@pytest.mark.parametrize("t", [0.5, 1.0])
def test_coordinate_cdfs_match_the_tensor_oracle(t):
    probe = np.linspace(-6.0, 6.0, 241) * math.sqrt(t)
    cdfs = coordinate_cdfs(2, t, probe)
    for coord in (0, 1):
        tensor = marginal_cdf_from_origin(2, t, coord)(probe)
        assert np.abs(cdfs[:, coord] - tensor).max() < 2e-5


def _mp_coordinate_cdfs(n, u):
    """P(y_(k) <= u), k = 1..n, at t = 1, to 40 digits, with the Gram matrix
    in closed form: G_00 = Phi(u), G_(k+1)(k+1) = G_kk - psi_k psi_(k+1) /
    sqrt(k + 1) from the ladder operators, and G_ij = (psi_i psi_j' -
    psi_i' psi_j) / (i - j) from the Hermite equation."""
    import mpmath

    with mpmath.workdps(40):
        u = mpmath.mpf(u)
        psi = [mpmath.exp(-u * u / 4) / (2 * mpmath.pi) ** mpmath.mpf(0.25)]
        for k in range(n):
            below = mpmath.sqrt(k) * psi[k - 1] if k else 0
            psi.append((u * psi[k] - below) / mpmath.sqrt(k + 1))
        # psi_k' = (sqrt(k) psi_(k-1) - sqrt(k + 1) psi_(k+1)) / 2
        slope = [
            ((mpmath.sqrt(k) * psi[k - 1] if k else 0) - mpmath.sqrt(k + 1) * psi[k + 1]) / 2
            for k in range(n)
        ]
        gram = mpmath.matrix(n, n)
        gram[0, 0] = mpmath.ncdf(u)
        for k in range(n - 1):
            gram[k + 1, k + 1] = gram[k, k] - psi[k] * psi[k + 1] / mpmath.sqrt(k + 1)
        for i in range(n):
            for j in range(i + 1, n):
                gram[i, j] = gram[j, i] = (psi[i] * slope[j] - slope[i] * psi[j]) / (i - j)
        law = [mpmath.mpf(1)] + [mpmath.mpf(0)] * n
        for lam in mpmath.eigsy(gram)[0]:
            law = [law[0] * (1 - lam)] + [law[j] * (1 - lam) + law[j - 1] * lam for j in range(1, n + 1)]
        return [float(mpmath.fsum(law[k:])) for k in range(1, n + 1)]


@pytest.mark.parametrize("n", [1, 2, 5, 9, 16, MAX_CDF_N])
def test_coordinate_cdfs_match_the_closed_form_gram_matrix(n):
    probe = np.linspace(-2.0 * math.sqrt(n) - 4.0, 2.0 * math.sqrt(n) + 4.0, 7)
    exact = np.array([_mp_coordinate_cdfs(n, u) for u in probe])
    cdfs = coordinate_cdfs(n, 2.0, probe * math.sqrt(2.0))
    assert np.abs(cdfs - exact).max() < 1e-12
    assert np.all(np.diff(cdfs, axis=0) >= -1e-15)  # nondecreasing in s
    assert np.all(np.diff(cdfs, axis=1) <= 1e-15)  # y_(k) <= y_(k+1)


# seeds fixed before the first run, one per N; 1e-3 over the N coordinates
@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_coordinate_cdfs_match_the_matrix_engine(n):
    from scipy.stats import kstest

    draws = terminal("matrix", n, 0.7, 1, 20_000, np.random.default_rng(880 + n))
    for k in range(n):
        p_value = kstest(draws[:, k], lambda s: coordinate_cdfs(n, 0.7, s)[..., k]).pvalue
        assert p_value > 1e-3 / n, (k, p_value)


def test_coordinate_cdfs_tails_and_reflection():
    for n in range(1, MAX_CDF_N + 1):
        low, zero, high = coordinate_cdfs(n, 0.6, [-math.inf, 0.0, math.inf])
        assert np.all(low == 0.0), n
        assert np.abs(high - 1.0).max() < 1e-12, n
        # y -> -y keeps the law and sends y_(k) to -y_(N+1-k)
        assert np.abs(zero + zero[::-1] - 1.0).max() < 1e-12, n
    assert coordinate_cdfs(3, 1.0, np.zeros((4, 5))).shape == (4, 5, 3)
    # one call on 1001 points at N = 32 against one call per point
    s = np.linspace(-15.0, 15.0, 1001)
    blocked = coordinate_cdfs(MAX_CDF_N, 1.0, s)
    for k in range(0, s.size, 125):
        assert np.abs(blocked[k] - coordinate_cdfs(MAX_CDF_N, 1.0, s[k])).max() < 1e-15


@pytest.mark.parametrize(
    "n, t, s, message",
    [
        (0, 1.0, 0.0, "need 1 <= n"),
        (MAX_CDF_N + 1, 1.0, 0.0, "need 1 <= n"),
        (2, 0.0, 0.0, "t must be positive"),
        (2, 1.0, [0.0, math.nan], "s must not be NaN"),
    ],
)
def test_coordinate_cdfs_refusals(n, t, s, message):
    with pytest.raises(ValueError, match=message):
        coordinate_cdfs(n, t, s)


# each transition density at a (k, m, N) batch of end points and one point at
# a time; x is the chamber start where there is one
DENSITIES = {
    "km": lambda x, y: km_density(0.7, x, y),
    "p origin": lambda x, y: transition_homogeneous(0.0, None, 0.7, y),
    "p chamber": lambda x, y: transition_homogeneous(0.2, x, 0.7, y),
    "g origin": lambda x, y: transition_inhomogeneous(0.0, None, 0.7, y, 1.3),
    "g chamber": lambda x, y: transition_inhomogeneous(0.2, x, 0.7, y, 1.3),
    "g origin t=T": lambda x, y: transition_inhomogeneous(0.0, None, 0.7, y, 0.7),
    "g chamber t=T": lambda x, y: transition_inhomogeneous(0.2, x, 0.7, y, 0.7),
}


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("name", list(DENSITIES))
def test_batched_density_matches_one_point_calls(name, n):
    density = DENSITIES[name]
    x = np.linspace(-0.8, 0.8, n)
    rng = np.random.default_rng(n)
    y = np.cumsum(rng.uniform(0.2, 1.0, (3, 4, n)), axis=-1) - 1.5
    batch = density(x, y)
    one = [[density(x, point) for point in row] for row in y]
    assert batch.shape == (3, 4)
    assert all(type(v) is float for row in one for v in row)
    assert np.all(batch > 0.0)
    np.testing.assert_allclose(batch, one, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("name", list(DENSITIES))
def test_densities_vanish_off_the_chamber(name):
    density = DENSITIES[name]
    x = np.array([-0.5, 0.1, 0.6])
    inside = np.array([-0.4, 0.3, 1.2])
    off = [
        inside[[1, 2, 0]],  # a cyclic permutation: even, so the km determinant is positive
        inside[::-1],
        np.array([-0.4, 0.3, 0.3]),
        np.array([0.3, 0.3, 0.3]),
    ]
    assert np.linalg.det(np.exp(-((off[0][:, None] - x) ** 2) / 1.4)) > 0.0
    for y in off:
        assert density(x, y) == 0.0
    batch = density(x, np.array([inside, *off]))
    assert batch[0] > 0.0 and batch[1:].tolist() == [0.0] * len(off)
    assert density(x, np.empty((0, 3))).shape == (0,)


NAN, INF = math.nan, math.inf
NON_FINITE_CALLS = {
    "survival t=inf N=1": (lambda: survival(INF, (0.0,)), "t must be finite"),
    "survival t=inf N=3": (lambda: survival(INF, (0.0, 1.0, 2.0)), "t must be finite"),
    "survival x nan": (lambda: survival(1.0, (0.0, NAN)), "not finite"),
    "km t nan": (lambda: km_density(NAN, (0.0, 1.0), (0.5, 1.5)), "t must be finite"),
    "km y inf": (lambda: km_density(1.0, (0.0, 1.0), (0.5, INF)), "end points must be finite"),
    "p s nan": (lambda: transition_homogeneous(NAN, None, 1.0, (0.0, 1.0)), "s must be finite"),
    "p t inf": (lambda: transition_homogeneous(0.0, None, INF, (0.0, 1.0)), "t must be finite"),
    "g horizon inf": (
        lambda: transition_inhomogeneous(0.0, None, 1.0, (0.0, 1.0), INF),
        "horizon must be finite",
    ),
    "g x inf": (lambda: transition_inhomogeneous(0.0, (0.0, INF), 1.0, (0.0, 1.0), 2.0), "not finite"),
    "drift horizon inf": (lambda: drift_inhomogeneous(0.0, (0.0, 1.0), INF), "horizon must be"),
    "drift t nan": (lambda: drift_inhomogeneous(NAN, (0.0, 1.0), 1.0), "t must be finite"),
    "engine x0 nan": (
        lambda: terminal("dyson", 2, 1.0, 4, 3, np.random.default_rng(0), x0=(0.0, NAN)),
        "not finite",
    ),
    "engine x0 row nan": (
        lambda: terminal(
            "finite-horizon", 2, 1.0, 4, 3, np.random.default_rng(0),
            x0=[(0.0, 1.0), (0.0, NAN), (0.0, 1.0)], horizon=2.0,
        ),
        "not finite",
    ),
    "engine t_end nan": (
        lambda: terminal("dyson", 2, NAN, 4, 3, np.random.default_rng(0)),
        "t_end must be finite",
    ),
    "engine horizon inf": (
        lambda: terminal("finite-horizon", 2, 1.0, 4, 3, np.random.default_rng(0), horizon=INF),
        "horizon must be finite",
    ),
    "cdfs t nan": (lambda: coordinate_cdfs(3, NAN, 0.0), "t must be finite"),
    "marginal horizon inf": (
        lambda: marginal_cdf_from_origin(2, 0.5, 0, kind="inhomogeneous", horizon=INF),
        "horizon must be finite",
    ),
}


@pytest.mark.parametrize("case", list(NON_FINITE_CALLS))
def test_non_finite_inputs_raise(case):
    call, message = NON_FINITE_CALLS[case]
    with pytest.raises(ValueError, match=message):
        call()


def test_two_matrix_model_has_the_two_time_law():
    # N = 3, T = 1, s = 0.3, t = 0.7: two-time moments of the two-matrix
    # model against importance sampling of the exact transition
    # f_N(t - s) N_N(T - t) / N_N(T - s) from states drawn at s. The spread
    # lambda_max - lambda_min at t tells the finite-horizon transition from
    # the h-transform one; Cov(lambda_max(s), lambda_max(t)) alone does not.
    from noncollide.diffusion import terminal, trajectories

    s, t, horizon, proposals = 0.3, 0.7, 1.0, 100
    traj = trajectories("matrix", 3, t, 7, 20_000, np.random.default_rng(86), horizon=horizon)
    at_s, at_t = traj[:, 2], traj[:, 6]

    rng = np.random.default_rng(87)
    starts = terminal("matrix", 3, s, 3, 2_000, rng, horizon=horizon)
    # per start x, unbiased estimates of E[f(state at t) | x] for f = 1,
    # lambda_max and the spread
    given = np.empty((len(starts), 3))
    for k, x in enumerate(starts):
        noise = rng.standard_normal((proposals, 3))
        proposal = np.exp(-0.5 * (noise**2).sum(axis=1)) / (2.0 * math.pi * (t - s)) ** 1.5
        y = x + math.sqrt(t - s) * noise
        weight = transition_inhomogeneous(s, x, t, y, horizon) / proposal
        given[k] = np.mean(weight * [np.ones(proposals), y[:, -1], y[:, -1] - y[:, 0]], axis=1)
    mass, given_max, given_spread = given.T

    def mean_and_stderr(terms):
        return terms.mean(), terms.std(ddof=1) / math.sqrt(terms.size)

    def centred(a, b):
        return (a - a.mean()) * (b - b.mean())

    spread_s, spread_t = at_s[:, -1] - at_s[:, 0], at_t[:, -1] - at_t[:, 0]
    for exact, reference in (
        (centred(at_s[:, -1], at_t[:, -1]), centred(starts[:, -1], given_max)),
        (spread_s * spread_t, (starts[:, -1] - starts[:, 0]) * given_spread),
    ):
        (m_exact, se_exact), (m_ref, se_ref) = mean_and_stderr(exact), mean_and_stderr(reference)
        assert abs(m_exact - m_ref) < 4.0 * math.hypot(se_exact, se_ref)
    # the transition density integrates to 1 over the chamber
    m_mass, se_mass = mean_and_stderr(mass)
    assert abs(m_mass - 1.0) < 4.0 * se_mass


@pytest.mark.parametrize("t_end", [0.0, -1.0])
@pytest.mark.parametrize("process", ["dyson", "finite-horizon", "matrix"])
def test_engine_refuses_nonpositive_t_end(process, t_end):
    # without a horizon only this check bounds t_end from below: at t_end = 0
    # the Dyson step halves until it underflows, and the matrix process
    # would stay at zero
    horizon = 1.0 if process == "finite-horizon" else None
    with pytest.raises(ValueError, match="t_end"):
        terminal(process, 2, t_end, 4, 3, np.random.default_rng(0), horizon=horizon)


@pytest.mark.parametrize(
    "t, message", [(0.0, "t must be positive"), (-1.0, "t must be positive"), (NAN, "t must be finite")]
)
def test_survival_mc_checks_its_time(t, message):
    with pytest.raises(ValueError, match=message):
        survival_mc(t, (0.0, 1.0), np.random.default_rng(0), 1000)
    # the front door still answers t = 0 itself: nothing has moved yet
    assert survival(0.0, (0.0, 1.0)) == 1.0


def _per_step_matrix_eigenvalues(n, dt, n_steps, size, rng, horizon=None):
    # reference: one increment draw and one diagonalisation per grid step
    from noncollide.rmt import _eigvalsh_batch, hermitian_increment_batch

    xi = np.zeros((size, n, n), dtype=complex)
    out = []
    for k in range(1, n_steps + 1):
        step = hermitian_increment_batch(n, dt, rng, size)
        if horizon is not None:
            r = max((horizon - k * dt) / (horizon - (k - 1) * dt), 0.0)
            xi.imag *= r
            step.imag *= math.sqrt(r)
        xi += step
        out.append(_eigvalsh_batch(xi))
    return np.stack(out, axis=1)


@pytest.mark.parametrize("steps_per_block", [1, 5, None])
@pytest.mark.parametrize("horizon", [None, 1.2])
def test_matrix_blocks_keep_the_per_step_stream(steps_per_block, horizon, monkeypatch):
    # 13 grid steps of 6 paths: one step per block, blocks of 5, 5 and 3
    # steps, or the default cap (one block)
    from noncollide import rmt
    from noncollide.diffusion import trajectories

    for n in (1, 2, 3, 5):
        if steps_per_block is not None:
            monkeypatch.setattr(rmt, "MATRIX_BLOCK", steps_per_block * 6 * n * n)
        got = trajectories("matrix", n, 1.0, 13, 6, np.random.default_rng(n), horizon=horizon)
        expected = _per_step_matrix_eigenvalues(
            n, 1.0 / 13, 13, 6, np.random.default_rng(n), horizon
        )
        assert np.array_equal(got, expected)


# sha256 of terminal states on grids where some steps need halving,
# recorded while the full-step first proposal was still the first pass of
# the halving loop
HALVING_PINNED = [
    ("dyson", (0.0, 0.05, 0.1), None, 500, 3,
     "4ec373a6d9e1d14318c80e101d2d7827977b0e99071ad00c371578e22a72970a"),
    ("finite-horizon", (0.0, 0.3, 0.6), 2.0, 200, 4,
     "9470ca4e35c15e55877913bbc98ea5cc63b843d20b41b5e0ce8aa6874546dc52"),
]


@pytest.mark.parametrize("process, x0, horizon, paths, seed, digest", HALVING_PINNED)
def test_halving_outputs_are_pinned(process, x0, horizon, paths, seed, digest, monkeypatch):
    from noncollide import diffusion

    calls = [0]
    advance = diffusion._advance_batch

    def counting_advance(states, t0, dt, drift, rng):
        def counted(*args):
            calls[0] += 1
            return drift(*args)

        advance(states, t0, dt, counted, rng)

    monkeypatch.setattr(diffusion, "_advance_batch", counting_advance)
    states = terminal(process, 3, 1.0, 20, paths, np.random.default_rng(seed), x0=x0, horizon=horizon)
    assert calls[0] > 20  # some grid step was halved
    assert hashlib.sha256(states.tobytes()).hexdigest() == digest


# sha256 of trajectories on grids where no step halves, recorded while each
# full-step proposal was still built from out-of-place sums: a from-origin
# start at N = 2, 5, 8, a Dyson chamber start at N = 4, 6 and a
# finite-horizon chamber start at N = 2, 4
FAST_PATH_PINNED = [
    ("dyson", 2, None, None, 1.0, 10, 8, 1,
     "699e8e11577320843078b62bdd190f6f7b2531b4e92bb0e7a4a4bcfc5fa2e21b"),
    ("dyson", 5, None, None, 1.0, 8, 4, 131,
     "6edb63d79144399c6cfaf488b4f51a2f9a37a46dc29a68555e20d3b64f5c65dc"),
    ("dyson", 8, None, None, 1.0, 4, 2, 172,
     "11dec28c2ff44635378672e3f26701bef7556338466e7955b4e79761c6d4b3b5"),
    ("dyson", 4, (0.0, 1.0, 2.0, 3.0), None, 0.5, 50, 16, 3,
     "4793daa796c3216ce8156d367612fa1f0186a7659d5577f78d0659d9cc28ace9"),
    ("dyson", 6, (0.0, 1.0, 2.0, 3.0, 4.0, 5.0), None, 0.5, 50, 16, 1,
     "c1e4f223330714b66e9ddc02a5e9e33c4a74d96f56c076416b5f7bb5241b5cf2"),
    ("finite-horizon", 2, (0.0, 1.0), 2.0, 0.5, 50, 16, 2,
     "f26d25deca1393e11551377be3f6048c8dbf0843abf27dcbcb6fa11a6e108171"),
    ("finite-horizon", 4, (0.0, 1.0, 2.0, 3.0), 2.0, 0.5, 50, 16, 3,
     "fb41fef2a626d61632ecc9a15d48c549e6ea2c69140a695f6b9505b177f65a1f"),
]


@pytest.mark.parametrize(
    "process, n, x0, horizon, t_end, steps, paths, seed, digest", FAST_PATH_PINNED
)
def test_full_step_outputs_are_pinned(
    process, n, x0, horizon, t_end, steps, paths, seed, digest, monkeypatch
):
    from noncollide import diffusion

    drift_calls, advances = [0], [0]
    advance = diffusion._advance_batch

    def counting_advance(states, t0, dt, drift, rng):
        def counted(*args):
            drift_calls[0] += 1
            return drift(*args)

        advances[0] += 1
        advance(states, t0, dt, counted, rng)

    monkeypatch.setattr(diffusion, "_advance_batch", counting_advance)
    rng = np.random.default_rng(seed)
    states = trajectories(process, n, t_end, steps, paths, rng, x0=x0, horizon=horizon)
    assert advances[0] == steps - (x0 is None)  # the first state from the origin is exact
    assert drift_calls[0] == advances[0]  # no step halved
    assert hashlib.sha256(states.tobytes()).hexdigest() == digest


@pytest.mark.parametrize("n", range(1, 13))
def test_dyson_drift_is_the_masked_reciprocal_sum(n):
    # bit for bit the row sums of 1/(x_i - x_j) with 0 on the diagonal, on
    # random strictly ordered rows; numpy's row sum changes scheme at n >= 8
    rng = np.random.default_rng(100 + n)
    states = np.sort(rng.standard_normal((300, n)) * rng.uniform(0.01, 10.0, (300, 1)), axis=1)
    assert (states[:, 1:] > states[:, :-1]).all()
    diff = states[:, :, None] - states[:, None, :]
    with np.errstate(divide="ignore"):
        expected = np.where(diff != 0.0, 1.0 / diff, 0.0).sum(axis=2)
    assert dyson_drift(states).tobytes() == expected.tobytes()


@pytest.mark.parametrize("n", [*range(1, 13), 129])
def test_dyson_drift_bits_do_not_depend_on_memory_layout(n):
    # a reduction over a strided axis adds in sequence where a contiguous
    # row sum adds pairwise (n >= 8); the drift of F-ordered rows (chamber
    # starts) and of strided views must not depend on which one runs
    rng = np.random.default_rng(200 + n)
    states = np.sort(rng.standard_normal((300, n)) * rng.uniform(0.01, 10.0, (300, 1)), axis=1)
    diff = states[:, :, None] - states[:, None, :]
    with np.errstate(divide="ignore"):
        expected = np.where(diff != 0.0, 1.0 / diff, 0.0).sum(axis=2)
    padded = np.zeros((600, 3 * n))
    padded[::2, 1::3] = states
    for layout in (states, np.asfortranarray(states), padded[::2, 1::3]):
        assert np.array_equal(layout, states)
        drift = dyson_drift(layout)
        assert drift.tobytes() == expected.tobytes()
        assert drift.flags.c_contiguous and drift.shape == states.shape


def test_dyson_drift_on_a_tied_pair_is_infinite():
    # the masked sum dropped a tied pair silently; now both tied walkers get
    # +inf, with numpy's divide-by-zero warning. Every caller passes rows of
    # distinct entries
    with pytest.warns(RuntimeWarning, match="divide by zero"):
        drift = dyson_drift(np.array([[0.0, 1.0, 1.0, 3.0]]))
    assert drift[0, 1] == drift[0, 2] == math.inf
    assert drift[0, [0, 3]].tolist() == pytest.approx([-7.0 / 3.0, 4.0 / 3.0], rel=1e-15)
