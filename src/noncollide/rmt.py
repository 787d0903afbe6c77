"""Hermitian matrix-valued Brownian motion and its eigenvalue process.

The matrix process has independent Brownian entries subject to the
Hermitian constraint: diagonal variance t, off-diagonal real and imaginary
parts each of variance t/2, so E|entry|^2 = t. Re-diagonalizing the exactly
sampled matrix on a time grid gives eigenvalue paths that are exact in
distribution; the pairwise-repulsion SDE structure of those paths (drift
slope 1, unit quadratic variation, unit carre-du-champ matrix) is verified
statistically rather than used as the generator, which keeps the matrix
route an independent oracle for the interacting-particle integrator.

``eigen_steps``, the one matrix stepper, runs under ``diffusion.grid_states``:
it draws the increments of a block of grid steps at once, accumulates them,
and diagonalises the whole block in one batched call. The estimators read
paths (``estimate_drift_qv``), the engine's states (``drift_qv_report``,
with no batches of its own) or their own matrices (``estimate_gamma``). No
eigenbasis is given a phase convention: the carre-du-champ products
(U* dXi U)_ij (U* dXi U)_ji do not depend on the phases of the eigenvectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import pairwise
from typing import Iterable, Iterator

import numpy as np

from .diffusion import SamplePath, dyson_drift, grid_states, terminal, trajectories

GAP_FACTOR = 10.0  # the drift regression drops segments from gaps below this * sqrt(dt)
GAMMA_DT = 1e-3  # step of estimate_gamma's increments
GAMMA_T_START = 1.0  # time of estimate_gamma's starting matrix
MATRIX_BLOCK = 1 << 14  # complex matrix entries per block of eigen_steps (at least one step)


def hermitian_increment_batch(
    n: int, dt: float, rng: np.random.Generator, size: int, steps: int | None = None
) -> np.ndarray:
    """(size, n, n) independent Hermitian Brownian increments over dt; with
    ``steps``, (steps, size, n, n), step k being exactly what the k-th of
    ``steps`` successive calls without it would draw.

    One standard-normal draw holds size * (n + 2K) values per step, K =
    n(n-1)/2, which are split into the diagonal, the real parts and the
    imaginary parts of the upper triangle, in that order.
    """
    k = n * (n - 1) // 2
    draws = rng.standard_normal((1 if steps is None else steps, size * (n + 2 * k)))
    diag, re, im = np.split(draws, [size * n, size * (n + k)], axis=1)
    lead = (draws.shape[0], size)
    out = np.zeros(lead + (n, n), dtype=complex)
    idx = np.arange(n)
    out[..., idx, idx] = math.sqrt(dt) * diag.reshape(lead + (n,))
    if n > 1:
        iu, ju = np.triu_indices(n, 1)
        scale = math.sqrt(dt / 2.0)
        re = scale * re.reshape(lead + (k,))
        im = scale * im.reshape(lead + (k,))
        out[..., iu, ju] = re + 1j * im
        out[..., ju, iu] = re - 1j * im
    return out[0] if steps is None else out


def eigen_steps(
    xi: np.ndarray,
    dt: float,
    n_steps: int,
    rng: np.random.Generator,
    horizon: float | None = None,
) -> Iterator[np.ndarray]:
    """Add n_steps Hermitian Brownian increments over dt to the matrices xi
    (paths, n, n), in place, and yield the ascending eigenvalues (paths, n)
    after each step.

    With a ``horizon`` T, xi being the state at time 0, the antisymmetric
    part is a Brownian bridge to 0 at T: the two-matrix model of the
    ``diffusion`` module docstring; n_steps * dt past T, beyond rounding,
    raises. The increments of a block of steps, at most MATRIX_BLOCK
    complex entries, are drawn at once and the block is diagonalised in one
    call; the random stream is that of one draw per step. Each block is a
    new array, and a yielded array is a view that keeps its whole block
    alive: copy what you keep.
    """
    end = n_steps * dt
    if horizon is not None and end > horizon and not math.isclose(end, horizon):
        raise ValueError(f"the steps end at {end!r}, past the horizon {horizon!r}")
    size, n = xi.shape[0], xi.shape[-1]
    per_block = max(1, MATRIX_BLOCK // (size * n * n))
    for first in range(0, n_steps, per_block):
        steps = min(per_block, n_steps - first)
        block = hermitian_increment_batch(n, dt, rng, size, steps)
        for k, step in enumerate(block, start=first + 1):
            if horizon is not None:
                # b_k = r b_(k-1) + N(0, r dt / 2), r = (T - t_k) / (T - t_(k-1))
                r = max((horizon - k * dt) / (horizon - (k - 1) * dt), 0.0)
                xi.imag *= r
                step.imag *= math.sqrt(r)
            xi += step
            step[...] = xi
        yield from _eigvalsh_batch(block.reshape(-1, n, n)).reshape(steps, size, n)


def _eigvalsh_batch(matrices: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues, closed form for 2x2 (hot path), LAPACK above."""
    n = matrices.shape[-1]
    if n == 1:
        return np.expand_dims(matrices[..., 0, 0].real, -1).copy()
    if n == 2:
        a = matrices[..., 0, 0].real
        d = matrices[..., 1, 1].real
        b = matrices[..., 0, 1]
        mid = 0.5 * (a + d)
        rad = np.sqrt(0.25 * (a - d) ** 2 + (b * b.conj()).real)
        return np.stack([mid - rad, mid + rad], axis=-1)
    return np.linalg.eigvalsh(matrices)


def eigen_terminal_batch(
    n: int, t: float, n_paths: int, rng: np.random.Generator
) -> np.ndarray:
    """Sorted eigenvalue samples of the matrix process at one time."""
    return terminal("matrix", n, t, 1, n_paths, rng)


def eigen_trajectories(
    n: int,
    t_end: float,
    n_steps: int,
    n_paths: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """(n_paths, n_steps, n) eigenvalue trajectories of the matrix process,
    exact in law at every grid time."""
    return trajectories("matrix", n, t_end, n_steps, n_paths, rng)


# ---------------------------------------------------------------------------
# SDE structure estimation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DriftQVReport:
    """Regression and quadratic-variation summary of eigenvalue paths.

    The per-step eigenvalue change, scaled by 1/dt, is regressed against
    the pairwise repulsion sum; unit slope and zero intercept are the
    interacting-SDE prediction. ``qv_per_time`` is the realized quadratic
    variation per unit time (prediction: 1).
    """

    slope: float
    intercept: float
    slope_se: float
    intercept_se: float
    qv_per_time: float
    qv_se: float
    n_points: int
    dt: float
    gap_floor: float

    def to_dict(self) -> dict:
        return {
            "slope": self.slope,
            "intercept": self.intercept,
            "slope_ci95": _ci95(self.slope, self.slope_se),
            "intercept_ci95": _ci95(self.intercept, self.intercept_se),
            "qv_per_time": self.qv_per_time,
            "qv_ci95": _ci95(self.qv_per_time, self.qv_se),
            "n_points": self.n_points,
            "dt": self.dt,
            "gap_floor": self.gap_floor,
        }


def _ci95(center: float, se: float) -> list[float | None]:
    """center -/+ 1.96 se, with None (JSON null) for a bound that is not
    finite: one particle gives no predictor spread, so slope_se = inf."""
    bounds = (center - 1.96 * se, center + 1.96 * se)
    return [b if math.isfinite(b) else None for b in bounds]


class _DriftQVAccumulator:
    """Streaming least squares + QV sums over masked path segments."""

    def __init__(self, dt: float, gap_floor: float):
        self.dt = dt
        self.gap_floor = gap_floor
        self.n = 0
        self.sp = 0.0
        self.sr = 0.0
        self.spp = 0.0
        self.spr = 0.0
        self.srr = 0.0
        self.qv_sum = 0.0
        self.qv_sumsq = 0.0

    def add(self, lam_prev: np.ndarray, lam_next: np.ndarray) -> None:
        """lam_prev, lam_next: (paths, N) consecutive grid states."""
        keep = np.diff(lam_prev, axis=1).min(axis=1, initial=np.inf) > self.gap_floor
        if not np.any(keep):
            return
        prev = lam_prev[keep]
        delta = lam_next[keep] - prev
        predictor = dyson_drift(prev).ravel()
        response = (delta / self.dt).ravel()
        self.n += predictor.size
        self.sp += float(predictor.sum())
        self.sr += float(response.sum())
        self.spp += float(predictor @ predictor)
        self.spr += float(predictor @ response)
        self.srr += float(response @ response)
        sq = (delta * delta).ravel()
        self.qv_sum += float(sq.sum())
        self.qv_sumsq += float(sq @ sq)

    def report(self) -> DriftQVReport:
        if self.n < 3:
            raise ValueError("insufficient filtered segments for the regression")
        n = float(self.n)
        denom = n * self.spp - self.sp**2
        if denom <= 0:
            # no predictor spread (single particle): intercept-only fit
            slope = 0.0
            intercept = self.sr / n
            rss = self.srr - n * intercept**2
            sigma2 = max(rss, 0.0) / (n - 1.0)
            slope_se = math.inf
            intercept_se = math.sqrt(sigma2 / n)
        else:
            slope = (n * self.spr - self.sp * self.sr) / denom
            intercept = (self.sr - slope * self.sp) / n
            rss = (
                self.srr
                - 2.0 * slope * self.spr
                - 2.0 * intercept * self.sr
                + slope**2 * self.spp
                + 2.0 * slope * intercept * self.sp
                + n * intercept**2
            )
            sigma2 = max(rss, 0.0) / (n - 2.0)
            slope_se = math.sqrt(sigma2 * n / denom)
            intercept_se = math.sqrt(sigma2 * self.spp / denom)
        qv_mean = self.qv_sum / n
        qv_var = max(self.qv_sumsq / n - qv_mean**2, 0.0)
        return DriftQVReport(
            slope=slope,
            intercept=intercept,
            slope_se=slope_se,
            intercept_se=intercept_se,
            qv_per_time=qv_mean / self.dt,
            qv_se=math.sqrt(qv_var / n) / self.dt,
            n_points=self.n,
            dt=self.dt,
            gap_floor=self.gap_floor,
        )


def estimate_drift_qv(paths: Iterable[SamplePath]) -> DriftQVReport:
    """Drift regression and realized QV over a collection of grid paths.

    Paths must share one uniform time grid. Segments whose starting minimal
    gap is below GAP_FACTOR * sqrt(dt) are excluded: the local-error scale
    of the repulsion drift explodes there.
    """
    acc: _DriftQVAccumulator | None = None
    grid: np.ndarray | None = None
    for path in paths:
        if acc is None:
            if path.times.size < 2:
                raise ValueError(
                    f"paths need at least two grid times, got {path.times.size}"
                )
            dt = float(path.times[1] - path.times[0])
            if not np.allclose(np.diff(path.times), dt, rtol=1e-6, atol=0.0):
                raise ValueError(f"paths need a uniform time grid, got times {path.times}")
            acc = _DriftQVAccumulator(dt, GAP_FACTOR * math.sqrt(dt))
            grid = path.times
        elif path.times is not grid and (
            path.times.shape != grid.shape or not np.allclose(path.times, grid)
        ):
            raise ValueError("paths must share a common time grid")
        lam = path.states
        acc.add(lam[:-1], lam[1:])
    if acc is None:
        raise ValueError("no paths supplied")
    return acc.report()


def drift_qv_report(
    n: int,
    n_paths: int,
    n_steps: int,
    dt: float,
    rng: np.random.Generator,
    t_start: float = 0.25,
) -> DriftQVReport:
    """Batched driver for the SDE-structure check.

    Spreads the spectrum with a draw lambda of the matrix process at
    t_start, then feeds the regression sums each pair of consecutive states
    of ``diffusion.grid_states`` from diag(lambda), which by unitary
    invariance is the process from the drawn matrix. It has no batches of
    its own: memory is O(n_paths * N^2) per step.
    """
    for name, count in (("n", n), ("n_paths", n_paths), ("n_steps", n_steps)):
        if count < 1:
            raise ValueError(f"{name} must be at least 1, got {count!r}")
    for name, value in (("dt", dt), ("t_start", t_start)):
        if not 0 < value < math.inf:
            raise ValueError(f"{name} must be finite and positive, got {value!r}")
    acc = _DriftQVAccumulator(dt, GAP_FACTOR * math.sqrt(dt))
    start = terminal("matrix", n, t_start, 1, n_paths, rng)
    states = grid_states("matrix", n, n_steps * dt, n_steps, n_paths, rng, x0=start)
    for lam_prev, lam in pairwise(states):
        acc.add(lam_prev, lam)
    return acc.report()


def gamma_from_increments(
    start: np.ndarray, increments: np.ndarray, dt: float
) -> np.ndarray:
    """Mean of (U* dXi U)_ij (U* dXi U)_ji / dt along one matrix path.

    U is an eigenbasis (``eigh``) of the state before each increment; the
    products do not depend on the phases of its columns. For the Hermitian
    Brownian increments every entry has expectation 1.
    """
    start = np.asarray(start, dtype=complex)
    path = np.cumsum(np.concatenate([start[None], increments[:-1]]), axis=0)
    _, u = np.linalg.eigh(path)
    rotated = np.einsum("kji,kjl,klm->kim", u.conj(), increments, u)
    return (rotated * np.swapaxes(rotated, 1, 2)).real.mean(axis=0) / dt


def estimate_gamma(n: int, n_steps: int, rng: np.random.Generator) -> np.ndarray:
    """Empirical carre-du-champ matrix of the eigenvalue process, from
    n_steps increments of size GAMMA_DT after a start at GAMMA_T_START."""
    if n_steps < 1:
        raise ValueError("n_steps must be positive")
    start = hermitian_increment_batch(n, GAMMA_T_START, rng, 1)[0]
    increments = hermitian_increment_batch(n, GAMMA_DT, rng, n_steps)
    return gamma_from_increments(start, increments, GAMMA_DT)
