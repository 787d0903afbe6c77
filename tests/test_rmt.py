import hashlib
import json
import math

import numpy as np
import pytest
from scipy import stats

from noncollide.diffusion import SamplePath, trajectories
from noncollide.rmt import (
    GAMMA_DT,
    GAMMA_T_START,
    DriftQVReport,
    drift_qv_report,
    eigen_terminal_batch,
    eigen_trajectories,
    estimate_drift_qv,
    estimate_gamma,
    gamma_from_increments,
    hermitian_increment_batch,
)


def test_sample_hermitian_bm_moments():
    rng = np.random.default_rng(50)
    t = 0.8
    n = 3
    batch = hermitian_increment_batch(n, t, rng, 10_000)
    for i in range(n):
        for j in range(n):
            second = np.mean(np.abs(batch[:, i, j]) ** 2)
            # E|entry|^2 = t for every entry; 3-sigma band for the mean
            sd = np.std(np.abs(batch[:, i, j]) ** 2) / math.sqrt(batch.shape[0])
            assert abs(second - t) < 3.5 * sd


def test_trace_is_brownian():
    rng = np.random.default_rng(51)
    n, t = 3, 1.0
    batch = hermitian_increment_batch(n, t, rng, 10_000)
    traces = np.trace(batch, axis1=1, axis2=2).real
    result = stats.kstest(traces / math.sqrt(n * t), "norm")
    assert result.pvalue > 0.01


def test_eigvalsh_closed_form_matches_lapack():
    rng = np.random.default_rng(53)
    batch = hermitian_increment_batch(2, 1.0, rng, 500)
    from noncollide.rmt import _eigvalsh_batch

    fast = _eigvalsh_batch(batch)
    ref = np.linalg.eigvalsh(batch)
    assert np.max(np.abs(fast - ref)) < 1e-10


def test_eigen_path_basics():
    path = trajectories("matrix", 2, 1.0, 64, 1, np.random.default_rng(54))[0]
    assert path.shape == (64, 2)
    assert np.all(np.diff(path, axis=1) > 0)


def test_eigen_path_single_dim_is_brownian():
    rng = np.random.default_rng(55)
    traj = eigen_trajectories(1, 1.0, 8, 10_000, rng)
    increments = np.diff(traj[:, :, 0], axis=1)
    var = increments.var()
    assert abs(var / 0.125 - 1.0) < 0.05
    total_var = traj[:, -1, 0].var()
    assert abs(total_var / 1.0 - 1.0) < 4 * math.sqrt(2.0 / 10_000)


def test_eigen_sum_variance():
    rng = np.random.default_rng(56)
    term = eigen_terminal_batch(3, 1.0, 10_000, rng)
    var = term.sum(axis=1).var()
    assert abs(var / 3.0 - 1.0) < 4 * math.sqrt(2.0 / 10_000)


def test_eigen_vs_dyson_marginal_quick():
    from noncollide.diffusion import dyson_terminal_batch
    from noncollide.verify import ks_two_sample

    eig = eigen_terminal_batch(2, 1.0, 4_000, np.random.default_rng(57))
    dys = dyson_terminal_batch(2, 1.0, 512, 4_000, np.random.default_rng(58))
    for coord in (0, 1):
        report = ks_two_sample(eig[:, coord], dys[:, coord], seeds=(57, 58))
        assert report.passed, report.detail


def _matrix_path(n, t_end, n_steps, rng):
    # one eigenvalue path from the origin, on its grid dt, 2 dt, ..., t_end
    states = trajectories("matrix", n, t_end, n_steps, 1, rng)[0]
    return SamplePath(np.arange(1, n_steps + 1) * (t_end / n_steps), states)


def test_estimate_drift_qv_on_sample_paths():
    rng = np.random.default_rng(59)
    paths = [_matrix_path(2, 0.2, 400, rng) for _ in range(60)]
    report = estimate_drift_qv(paths)
    assert isinstance(report, DriftQVReport)
    assert 0.9 < report.qv_per_time < 1.1
    assert abs(report.slope - 1.0) < 4 * report.slope_se + 0.05
    payload = report.to_dict()
    assert set(payload) >= {"slope", "intercept", "qv_per_time", "n_points"}


def test_estimate_drift_qv_validation():
    rng = np.random.default_rng(60)
    a = _matrix_path(2, 0.2, 10, rng)
    b = _matrix_path(2, 0.4, 10, rng)
    with pytest.raises(ValueError):
        estimate_drift_qv([a, b])
    with pytest.raises(ValueError):
        estimate_drift_qv([])


def test_drift_qv_report_quick():
    report = drift_qv_report(
        2, 2_000, 200, 1e-4, np.random.default_rng(61), t_start=0.05
    )
    assert abs(report.slope - 1.0) < 0.1
    assert abs(report.intercept) < 0.15
    assert abs(report.qv_per_time - 1.0) < 0.02


def test_single_walker_drift_is_zero():
    # the predictor vanishes for one particle; the intercept-only fit
    # estimates zero drift and unit quadratic variation
    report = drift_qv_report(1, 500, 100, 1e-3, np.random.default_rng(62))
    assert report.slope == 0.0
    assert abs(report.intercept) < 3 * report.intercept_se
    assert abs(report.qv_per_time - 1.0) < 0.02


def test_estimate_gamma():
    gamma = estimate_gamma(2, 30_000, np.random.default_rng(63))
    assert gamma.shape == (2, 2)
    assert np.max(np.abs(gamma - 1.0)) < 0.05
    g1 = estimate_gamma(1, 20_000, np.random.default_rng(64))
    assert abs(g1[0, 0] - 1.0) < 0.05


def test_estimate_gamma_unitary_invariance():
    rng = np.random.default_rng(65)
    z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    q, r = np.linalg.qr(z)
    q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    # estimate_gamma's draws, each increment conjugated by the fixed unitary q
    rng = np.random.default_rng(66)
    start = hermitian_increment_batch(3, GAMMA_T_START, rng, 1)[0]
    increments = hermitian_increment_batch(3, GAMMA_DT, rng, 30_000)
    rotated = np.einsum("ji,kjl,lm->kim", q.conj(), increments, q)
    gamma = gamma_from_increments(start, rotated, GAMMA_DT)
    assert np.max(np.abs(gamma - 1.0)) < 0.06


def test_gamma_from_increments_direct():
    rng = np.random.default_rng(67)
    start = hermitian_increment_batch(2, 1.0, rng, 1)[0]
    inc = hermitian_increment_batch(2, 1e-3, rng, 5_000)
    gamma = gamma_from_increments(start, inc, 1e-3)
    assert np.max(np.abs(gamma - 1.0)) < 0.1


def test_gamma_path_equals_sequential_sums():
    # reference: the matrix path accumulated one increment at a time
    rng = np.random.default_rng(71)
    for n, steps in ((1, 7), (3, 300), (4, 1)):
        start = hermitian_increment_batch(n, 1.0, rng, 1)[0]
        increments = hermitian_increment_batch(n, 1e-3, rng, steps)
        path = np.empty((steps, n, n), dtype=complex)
        acc = start.copy()
        for k in range(steps):
            path[k] = acc
            acc += increments[k]
        _, u = np.linalg.eigh(path)
        rotated = np.einsum("kji,kjl,klm->kim", u.conj(), increments, u)
        expected = (rotated * np.swapaxes(rotated, 1, 2)).real.mean(axis=0) / 1e-3
        assert np.array_equal(gamma_from_increments(start, increments, 1e-3), expected)


def _increment_from_draws(n, dt, rng, size):
    # reference: the diagonal, then the real and the imaginary parts of the
    # upper triangle, each its own draw
    out = np.zeros((size, n, n), dtype=complex)
    out[:, range(n), range(n)] = math.sqrt(dt) * rng.standard_normal((size, n))
    iu, ju = np.triu_indices(n, 1)
    re = math.sqrt(dt / 2.0) * rng.standard_normal((size, iu.size))
    im = math.sqrt(dt / 2.0) * rng.standard_normal((size, iu.size))
    out[:, iu, ju] = re + 1j * im
    out[:, ju, iu] = re - 1j * im
    return out


def test_increment_step_axis_reads_the_stream_as_successive_calls():
    for n in range(1, 6):
        blocked = hermitian_increment_batch(n, 0.3, np.random.default_rng(n), 4, steps=5)
        rng = np.random.default_rng(n)
        calls = [hermitian_increment_batch(n, 0.3, rng, 4) for _ in range(5)]
        rng = np.random.default_rng(n)
        expected = [_increment_from_draws(n, 0.3, rng, 4) for _ in range(5)]
        assert blocked.shape == (5, 4, n, n)
        assert np.array_equal(blocked, np.stack(calls))
        assert np.array_equal(blocked, np.stack(expected))


# sha256 of the to_dict() JSON of drift_qv_report(3, 20, 13, 1e-3, rng(91)),
# recorded when the report started the engine at diag(lambda) of its draw
DRIFT_QV_PINNED = "a1caa776443e4a4eaeffdc66e2a23e71c43b5608bf7d981dfda6ff301db4bb94"


@pytest.mark.parametrize("steps_per_block", [1, 5, None])
def test_drift_qv_report_does_not_depend_on_the_block(steps_per_block, monkeypatch):
    # 13 steps of 20 paths at N = 3: one step per block, blocks of 5, 5 and
    # 3 steps, or the default cap (one block)
    from noncollide import rmt

    if steps_per_block is not None:
        monkeypatch.setattr(rmt, "MATRIX_BLOCK", steps_per_block * 20 * 3 * 3)
    report = drift_qv_report(3, 20, 13, 1e-3, np.random.default_rng(91)).to_dict()
    assert hashlib.sha256(json.dumps(report).encode()).hexdigest() == DRIFT_QV_PINNED


@pytest.mark.parametrize(
    "name, value",
    [
        ("n", 0),
        ("n_paths", 0),
        ("n_steps", -1),
        ("dt", 0.0),
        ("dt", -1e-3),
        ("dt", math.nan),
        ("dt", math.inf),
        ("t_start", -1.0),
        ("t_start", 0.0),
        ("t_start", math.nan),
    ],
)
def test_drift_qv_report_refuses_bad_arguments(name, value):
    kwargs = dict(n=2, n_paths=20, n_steps=5, dt=1e-3, t_start=0.25)
    kwargs[name] = value
    with pytest.raises(ValueError, match=f"^{name} must be"):
        drift_qv_report(rng=np.random.default_rng(0), **kwargs)
