"""Noncolliding Brownian motions: densities, survival, and SDE integrators.

The transition density of Brownian motion absorbed on leaving the ordered
chamber y_1 < ... < y_N is the heat-kernel determinant

    f_N(t, y | x) = det[ (2 pi t)^(-1/2) exp(-(x_j - y_i)^2 / 2t) ],

and N_N(t, x) = integral of f_N over the chamber is the no-collision
probability. Conditioning N Brownian particles to avoid collision up to a
finite horizon gives a temporally inhomogeneous diffusion whose drift is
grad log N_N; letting the horizon go to infinity gives the Vandermonde
h-transform, whose drift is the pairwise repulsion sum 1/(y_i - y_j)
(Dyson's Brownian motion at beta = 2).

The three transition densities take a batch of end points y (..., N) and
are exactly 0 off the open chamber, where h_N(y) is not positive. They are
evaluated in log space and exponentiated at the API boundary; the power
t^(-N^2/2) and the squared Vandermonde factor underflow quickly otherwise.
``coordinate_cdfs`` gives the exact law of each ordered coordinate of the
h-transform from the origin: Andreief's identity, closed-form Gram matrix.

Survival and the finite-horizon drift take one route, de Bruijn's Pfaffian
(de Bruijn 1955):

    N_N(t, x) = Pf A,   A_ij = erf((x_j - x_i) / 2 sqrt(t)),

with A bordered by a row and column of 1s for odd N (a walker at +inf).
Since det A = (Pf A)^2 and Pf A > 0 in the chamber, log N_N = 1/2 log det A,
and the drift grad log N_N = 1/2 tr(A^-1 dA/dx_k) is the row sum of
A^-1 o E, E_ij = dA_ij/dx_j. A^-1 is formed from the Pfaffians of the
(N-2)-point minors, which keeps the drift accurate where the LU inverse
cancels. The float determinant loses digits as the gaps shrink against
sqrt(t); a call raises ValueError when cond_1(A) * eps exceeds
COND_LIMIT = 1e-6. Quadrature (``survival_quadrature``), the small-gap
asymptotic (``survival_asymptotic``) and Monte Carlo (``survival_mc``) are
test oracles of their own, which no production route calls.

One engine, ``grid_states``, steps all three processes (the h-transform,
the finite-horizon process and the eigenvalues of Hermitian matrix
Brownian motion) on the grid of step dt = t_end / n_steps. From the origin
the grid is dt, 2 dt, ..., t_end, and the first state is drawn exactly
(all particles coincide at t = 0); from x0, one chamber point or one per
path, it is 0, dt, ..., t_end, starting with x0. ``trajectories`` stacks
the states, ``terminal`` keeps the last one, and a ``SamplePath`` pairs a
path with its grid times. A grid step of the two SDEs (``_advance_batch``)
draws one normal array of the state's shape, the noise of every path's
full-step proposal, and then fresh normals only for the rows whose proposal
left the chamber, one draw per round of halving; fixed-seed outputs depend
on this order of draws.

The matrix process from x0 starts at diag(x0): the eigenvalues of
diag(x0) + H(t) are the h-transform from x0 (Dyson, J. Math. Phys. 3
(1962) 1191). From the origin the finite-horizon process is the
eigenvalue process of the two-matrix model S(t) + iA(t) (Katori and
Tanemura, Phys. Rev. E 66 (2002) 011105; J. Math. Phys. 45 (2004) 3058):
S is real-symmetric Brownian motion and each upper entry of the
antisymmetric A is a Brownian bridge to 0 at T. Added to diag(x0), that
model is not the finite-horizon process from x0: it runs from zero only.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .verify import quadrature_integrate

ArrayLike = Sequence[float] | np.ndarray


@dataclass(frozen=True)
class ChamberConstants:
    """Normalization constants of the from-origin densities."""

    n: int
    c: float        # 2^(-N/2) / prod_{i<=N} Gamma(i/2)
    c_prime: float  # (2 pi)^(-N/2) / prod_{i<=N} Gamma(i)
    c_bar: float    # pi^(N/2) * prod_{i<=N} Gamma(i)/Gamma(i/2)


def chamber_constants(n: int) -> ChamberConstants:
    if n < 1:
        raise ValueError("dimension must be positive")
    g_half = math.prod(math.gamma(i / 2.0) for i in range(1, n + 1))
    g_int = math.prod(math.gamma(float(i)) for i in range(1, n + 1))
    return ChamberConstants(
        n=n,
        c=2.0 ** (-n / 2.0) / g_half,
        c_prime=(2.0 * math.pi) ** (-n / 2.0) / g_int,
        c_bar=math.pi ** (n / 2.0) * g_int / g_half,
    )


def _finite(**named: float | None) -> None:
    """Refuse a NaN or infinite time or horizon, naming it (None passes)."""
    for name, value in named.items():
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


def _positive_time(t: float) -> None:
    """Refuse a time t that is not finite and positive."""
    _finite(t=t)
    if t <= 0:
        raise ValueError(f"t must be positive, got {t!r}")


def _as_point(x: ArrayLike) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError("expected a 1-d coordinate vector")
    if not np.isfinite(x).all():
        raise ValueError(f"point {x.tolist()} is not finite")
    if (x[1:] <= x[:-1]).any():
        raise ValueError(f"point {x.tolist()} is not strictly increasing")
    return x


def _on_chamber(y: ArrayLike, n: int | None, log_density: Callable) -> float | np.ndarray:
    """exp(log_density(v, log h_N(v))) at the end points y (..., N) in the
    open chamber (h_N > 0), 0 at the others, a float for one point; v is y
    if all of it is in the chamber, else the (k, N) rows that are."""
    y = np.asarray(y, dtype=float)
    if y.ndim == 0 or (n is not None and y.shape[-1] != n):
        raise ValueError("dimension mismatch")
    if not np.isfinite(y).all():
        raise ValueError("end points must be finite")
    log_h = log_vandermonde_h(y)
    if y.ndim == 1:
        return math.exp(log_density(y, log_h)) if log_h > -math.inf else 0.0
    inside = log_h > -np.inf
    if inside.size and inside.all():
        return np.exp(log_density(y, log_h))
    out = np.zeros(inside.shape)
    if inside.any():
        out[inside] = np.exp(log_density(y[inside], log_h[inside]))
    return out


def vandermonde_h(x: ArrayLike) -> float:
    """Product of pairwise differences prod_{i<j} (x_j - x_i)."""
    x = np.asarray(x, dtype=float)
    pairs = itertools.combinations(range(x.size), 2)
    return math.prod((float(x[j] - x[i]) for i, j in pairs), start=1.0)


def log_vandermonde_h(x: ArrayLike) -> float | np.ndarray:
    """log h_N over points x (..., N); -inf off the open chamber."""
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.shape[:-1])
    for k in range(1, x.shape[-1]):  # the gaps x_(i+k) - x_i at distance k
        out = out + np.add.reduce(_log_positive(x[..., k:] - x[..., :-k]), axis=-1)
    return out


def _log_positive(a: np.ndarray) -> float | np.ndarray:
    """log a, with -inf (and no warning) where a <= 0."""
    if a.ndim == 0:
        return math.log(a) if a > 0.0 else -math.inf
    if np.minimum.reduce(a, axis=None, initial=np.inf) > 0.0:  # the usual case
        return np.log(a)
    return np.log(a, out=np.full(a.shape, -np.inf), where=a > 0.0)


def _log_km(t: float, x: np.ndarray, y: np.ndarray) -> float | np.ndarray:
    """log f_N(t, y | x) at the end points y (..., N); -inf where it vanishes."""
    a = (y[..., None] - x) ** 2 / (2.0 * t)
    row_min = np.minimum.reduce(a, axis=-1)
    det = np.linalg.det(np.exp(row_min[..., None] - a))
    log_scale = -0.5 * x.size * math.log(2.0 * math.pi * t)
    return log_scale - np.add.reduce(row_min, axis=-1) + _log_positive(det)


def _log_from_origin(v: np.ndarray, t: float, log_h: np.ndarray, p: int):
    """log of c t^(-N^2/2) exp(-|v|^2/2t) h_N(v)^p, the from-origin factor of
    both processes, c = (2 pi^(p-1))^(-N/2) / prod_{i<=N} Gamma(ip/2): c'_N at
    p = 2, c_N at p = 1. A sum of lgammas, as the Gamma product overflows."""
    n = v.shape[-1]
    log_c = -0.5 * n * (math.log(2.0 * math.pi ** (p - 1)) + math.log(t) * n)
    log_c -= sum(math.lgamma(i * p / 2.0) for i in range(1, n + 1))
    return log_c - np.add.reduce(v * v, axis=-1) / (2.0 * t) + p * log_h


def km_density(t: float, x: ArrayLike, y: ArrayLike) -> float | np.ndarray:
    """Absorbing-chamber transition density f_N at the end points y (..., N)."""
    _positive_time(t)
    x = _as_point(x)
    return _on_chamber(y, x.size, lambda v, _: _log_km(t, x, v))


def survival(t: float, x: ArrayLike) -> float:
    """No-collision probability N_N(t, x) of the chamber Brownian motion, by
    de Bruijn's erf Pfaffian (module docstring: COND_LIMIT, test oracles),
    exact for any N; erf((x_2 - x_1) / 2 sqrt(t)) at N = 2, 1.0 at t = 0."""
    _finite(t=t)
    if t < 0:
        raise ValueError("time must be nonnegative")
    return math.exp(_log_survival(t, _as_point(x)))


def survival_quadrature(t: float, x: ArrayLike, tol: float = 1e-7) -> float:
    """Test oracle for ``survival`` at N <= 3: the batched Gauss-Legendre
    rule of ``quadrature_integrate`` on f_N over the chamber cut 10 sqrt(t)
    past x, with the 48- and 64-node values within tol (about 64^3 points
    of 3 x 3 determinants at N = 3)."""
    _positive_time(t)
    x = _as_point(x)
    width = 10.0 * math.sqrt(t)
    return quadrature_integrate(
        lambda y: km_density(t, x, y),
        float(x[0] - width),
        float(x[-1] + width),
        x.size,
        tol=tol,
    )


def survival_asymptotic(t: float, x: ArrayLike) -> float:
    """Test oracle for ``survival`` at small x / sqrt(t): h_N(x / sqrt(t)) /
    c_bar_N, the leading term as the gaps shrink."""
    _positive_time(t)
    x = _as_point(x)
    return vandermonde_h(x / math.sqrt(t)) / chamber_constants(x.size).c_bar


COND_LIMIT = 1e-6  # largest cond_1(A) * eps the erf Pfaffian may return at


def _pair_tables(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]:
    """The index tables of ``_erf_pfaffian`` at N = n, which depend on n only:
    the upper-triangle pairs (p, q) of the bordered size m = n + n % 2, their
    incidence (pairs, m) with +1 at p and -1 at q, and for m > 2 the indices
    (pairs, m - 2) of the minor left when p and q are struck out."""
    m = n + n % 2
    p, q = np.array(list(itertools.combinations(range(m), 2))).T
    incidence = np.eye(m)[p] - np.eye(m)[q]
    rest = None
    if m > 2:
        rest = np.array([[k for k in range(m) if k != i and k != j] for i, j in zip(p, q)])
    return p, q, incidence, rest


def _erf_pfaffian(
    tau: float | np.ndarray, x: np.ndarray, tables: tuple
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """de Bruijn's erf Pfaffian over a batch of chamber points.

    For points x (paths, N) and times tau, one per path or one for all,
    returns log Pf A, the A^-1 o E entries on the upper-triangle pairs
    (p, q), and the pair incidence (pairs, N) with +1 at p and -1 at q: the
    drift grad log Pf A is the product of the last two. ``tables`` is
    ``_pair_tables(N)``.
    """
    from scipy.special import erf

    paths, n = x.shape
    p, q, incidence, rest = tables
    if n % 2:
        # the border of 1s is erf of the gap to a walker at +inf
        x = np.concatenate([x, np.full((paths, 1), np.inf)], axis=1)
    m = x.shape[1]
    scale = np.reshape(2.0 * np.sqrt(tau), (-1, 1))
    z = (x[:, q] - x[:, p]) / scale
    a = erf(z)
    e = (2.0 / math.sqrt(math.pi)) * np.exp(-z * z) / scale
    if m == 2:
        # Pf A = a_01, the 2x2 skew inverse is -1/a_01, and cond_1(A) = 1
        log_pf = np.log(a[:, 0])
        inv = -1.0 / a
    else:
        # (A^-1)_pq = (-1)^(p+q) Pf(A without rows/cols p, q) / Pf A; each
        # minor is the Pfaffian of a smaller chamber point, so positive
        full = np.zeros((paths, m, m))
        full[:, p, q] = a
        full[:, q, p] = -a
        log_pf = 0.5 * np.linalg.slogdet(full)[1]
        log_minor = 0.5 * np.linalg.slogdet(full[:, rest[:, :, None], rest[:, None, :]])[1]
        inv = np.where((p + q) % 2, -1.0, 1.0) * np.exp(log_minor - log_pf[:, None])
        # the 1-norm of a skew matrix is its largest column sum of |entries|
        cover = np.abs(incidence)
        cond = (np.abs(a) @ cover).max(axis=1) * (np.abs(inv) @ cover).max(axis=1)
        estimate = cond * np.finfo(float).eps
        worst = int(np.argmax(estimate))
        if not estimate[worst] <= COND_LIMIT:
            tau_worst = float(np.broadcast_to(tau, (paths,))[worst])
            raise ValueError(
                f"erf Pfaffian for N={n} at tau={tau_worst!r} cancels: "
                f"cond_1(A) * eps = {float(estimate[worst]):.3g} exceeds {COND_LIMIT:g}"
            )
    return log_pf, inv * e, incidence[:, :n]


def survival_mc(
    t: float,
    x: ArrayLike,
    rng: np.random.Generator | None,
    n_samples: int = 200_000,
) -> tuple[float, float]:
    """Monte Carlo survival estimate with its standard error.

    Proposes y_i = x_i + sqrt(t) xi_i independently; the indicator of
    ordered proposals times the determinant/product likelihood ratio is an
    unbiased estimator of the chamber integral.
    """
    _positive_time(t)
    if rng is None:
        raise ValueError("montecarlo survival needs an explicit generator")
    x = _as_point(x)
    n = x.size
    ys = x[None, :] + math.sqrt(t) * rng.standard_normal((n_samples, n))
    ordered = np.all(np.diff(ys, axis=1) > 0, axis=1)
    a = (ys[:, :, None] - x[None, None, :]) ** 2 / (2.0 * t)
    diag = np.diagonal(a, axis1=1, axis2=2)
    ratio = np.linalg.det(np.exp(-(a - diag[:, :, None])))
    vals = np.where(ordered, ratio, 0.0)
    est = float(vals.mean())
    stderr = float(vals.std(ddof=1) / math.sqrt(n_samples))
    return est, stderr


def _is_origin(x: ArrayLike | None) -> bool:
    return x is None or not np.asarray(x, dtype=float).any()


def _log_survival(tau: float, y: np.ndarray) -> float | np.ndarray:
    """log N_N(tau, y) over chamber points y (..., N), by the erf Pfaffian."""
    if tau == 0:
        return 0.0
    rows = y.reshape(-1, y.shape[-1])
    return _erf_pfaffian(tau, rows, _pair_tables(rows.shape[1]))[0].reshape(y.shape[:-1])


def transition_inhomogeneous(
    s: float,
    x: ArrayLike | None,
    t: float,
    y: ArrayLike,
    horizon: float,
) -> float | np.ndarray:
    """Transition density of the walk conditioned to avoid collision up to
    the finite horizon T, in its diffusion limit, at end points y (..., N).

    From the all-particles-at-origin state (s = 0 only):
        c_N T^(N(N-1)/4) t^(-N^2/2) exp(-|y|^2/2t) h_N(y) N_N(T-t, y);
    between chamber points:
        f_N(t-s, y|x) N_N(T-t, y) / N_N(T-s, x).
    """
    _finite(s=s, t=t, horizon=horizon)
    if not 0 <= s < t <= horizon:
        raise ValueError("need 0 <= s < t <= T")
    if _is_origin(x):
        if s != 0:
            raise ValueError("origin state allowed only at s = 0")

        def log_g(v: np.ndarray, log_h: np.ndarray) -> np.ndarray:
            log_horizon = v.shape[-1] * (v.shape[-1] - 1) / 4 * math.log(horizon)
            return log_horizon + _log_from_origin(v, t, log_h, 1) + _log_survival(horizon - t, v)

        return _on_chamber(y, None, log_g)
    x = _as_point(x)
    log_den = _log_survival(horizon - s, x)
    return _on_chamber(
        y, x.size, lambda v, _: _log_km(t - s, x, v) + _log_survival(horizon - t, v) - log_den
    )


def transition_homogeneous(
    s: float,
    x: ArrayLike | None,
    t: float,
    y: ArrayLike,
) -> float | np.ndarray:
    """Transition density of the infinite-horizon (h-transform) process at
    the end points y (..., N).

    From the origin: c'_N t^(-N^2/2) exp(-|y|^2/2t) h_N(y)^2; between
    chamber points: f_N(t-s, y|x) h_N(y) / h_N(x).
    """
    _finite(s=s, t=t)
    if not 0 <= s < t:
        raise ValueError("need 0 <= s < t")
    if _is_origin(x):
        if s != 0:
            raise ValueError("origin state allowed only at s = 0")
        return _on_chamber(y, None, lambda v, log_h: _log_from_origin(v, t, log_h, 2))
    x = _as_point(x)
    log_hx = log_vandermonde_h(x)
    return _on_chamber(y, x.size, lambda v, log_h: _log_km(t - s, x, v) + log_h - log_hx)


MAX_CDF_N = 32  # the largest N at which the tests check coordinate_cdfs


def coordinate_cdfs(n: int, t: float, s: ArrayLike) -> np.ndarray:
    """P(y_(k) <= s) for k = 1..n, shape s.shape + (n,), under the
    from-origin law of the h-transform at time t, c'_N t^(-N^2/2)
    exp(-|y|^2/2t) h_N(y)^2 (GUE eigenvalues), for 1 <= n <= MAX_CDF_N.

    By Andreief's identity the count #{i : y_i <= s} is a sum of n
    independent Bernoulli variables whose parameters are the eigenvalues of
    the Gram matrix G_ij = int_{-inf}^{s/sqrt(t)} psi_i psi_j of the
    orthonormal Hermite functions psi_0, ..., psi_(n-1) (Tracy and Widom,
    J. Stat. Phys. 92 (1998) 809), and P(y_(k) <= s) = P(count >= k).
    In closed form at u = s/sqrt(t), G_00 = Phi(u), G_(k+1)(k+1) = G_kk -
    psi_k psi_(k+1) / sqrt(k + 1) and G_ij = (sqrt(j) psi_i psi_(j-1) - sqrt(i)
    psi_(i-1) psi_j) / (i - j) for i != j, which is (psi_i psi_j' - psi_i' psi_j)
    / (i - j). All points are done at once: memory grows as points * n^2 floats.
    """
    _positive_time(t)
    if not 1 <= n <= MAX_CDF_N:
        raise ValueError(f"need 1 <= n <= {MAX_CDF_N}, got n = {n}")
    s = np.asarray(s, dtype=float)
    if np.isnan(s).any():
        raise ValueError("s must not be NaN")
    from scipy.special import ndtr

    u = np.clip(s.ravel() / math.sqrt(t), -60.0, 60.0)  # psi_k(+-60) underflows to 0
    root = np.sqrt(np.arange(n))
    # u psi_k = sqrt(k + 1) psi_(k+1) + sqrt(k) psi_(k-1), from psi_(-1) = 0
    psi = [np.zeros_like(u), np.exp(-u * u / 4.0) / (2.0 * math.pi) ** 0.25]
    for k in range(1, n):
        psi.append((u * psi[-1] - root[k - 1] * psi[-2]) / root[k])
    psi = np.stack(psi, axis=-1)  # psi_(-1), psi_0, ..., psi_(n-1)
    gram = psi[:, 1:, None] * (root * psi[:, :-1])[:, None, :]  # sqrt(j) psi_i psi_(j-1)
    gram -= np.swapaxes(gram, 1, 2)  # numpy buffers the overlapping operand
    gram /= np.arange(n)[:, None] - np.arange(n) + np.eye(n)  # i - j; the diagonal is next
    gram[:, 0, 0] = ndtr(u)
    for k in range(n - 1):
        gram[:, k + 1, k + 1] = gram[:, k, k] - psi[:, k + 1] * psi[:, k + 2] / root[k + 1]
    lam = np.clip(np.linalg.eigvalsh(gram), 0.0, 1.0)
    law = np.zeros((u.size, n + 1))  # P(count = j), one Bernoulli factor at a time
    law[:, 0] = 1.0
    for k in range(n):
        p = lam[:, k : k + 1]
        law[:, 1:] = law[:, 1:] * (1.0 - p) + law[:, :-1] * p
        law[:, 0] *= 1.0 - p[:, 0]
    at_least = np.cumsum(law[:, :0:-1], axis=1)[:, ::-1]
    return at_least.reshape(s.shape + (n,))


def drift_inhomogeneous(t: float, x: ArrayLike, horizon: float) -> np.ndarray:
    """Drift of the finite-horizon process: grad_x log N_N(T - t, x), from
    the erf Pfaffian."""
    _finite(t=t, horizon=horizon)
    x = _as_point(x)
    if t >= horizon:
        raise ValueError("drift defined for t < T only")
    return _inhomogeneous_drift_batch(horizon, x.size)(x[None, :], t)[0]


@dataclass(frozen=True)
class SamplePath:
    """One path on a time grid: the states (len(times), N) at strictly
    increasing times, each state strictly ordered."""

    times: np.ndarray
    states: np.ndarray

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        states = np.asarray(self.states, dtype=float)
        if states.ndim != 2 or times.ndim != 1 or states.shape[0] != times.size:
            raise ValueError("states must be (len(times), N)")
        for name, value in (("times", times), ("states", states)):
            if not np.isfinite(value).all():
                raise ValueError(f"{name} must be finite")
        if np.any(np.diff(times) <= 0):
            raise ValueError("times must be strictly increasing")
        if states.shape[1] > 1 and np.any(np.diff(states, axis=1) <= 0):
            raise ValueError("states must stay strictly ordered")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", states)

    @property
    def n_particles(self) -> int:
        return self.states.shape[1]


# ---------------------------------------------------------------------------
# Euler-Maruyama with per-path dyadic step halving
# ---------------------------------------------------------------------------

MAX_HALVINGS = 40
MAX_PROPOSALS = 10**8  # projected proposal count at which sample_from_origin gives up


def _advance_batch(
    states: np.ndarray,
    t0: float,
    dt: float,
    drift: Callable[[np.ndarray, float | np.ndarray], np.ndarray],
    rng: np.random.Generator,
) -> None:
    """Advance every path by one grid step of size dt, in place.

    The first proposal is the full step for every path, states + drift * dt
    plus one normal draw of states.shape with scale sqrt(dt). A proposed
    move that breaks the strict ordering is retried with half the step
    (fresh noise, drawn for the halved rows only), and an accepted sub-step
    doubles the next one, capped by what remains; sub-step bookkeeping is
    exact (integer dyadic units), so each path consumes exactly dt.
    """
    prop = drift(states, t0) * dt
    prop += states
    prop += rng.normal(0.0, math.sqrt(dt), states.shape)
    if (prop[:, 1:] > prop[:, :-1]).all():  # the usual case: no path halves
        states[...] = prop
        return
    ok = _ordered(prop)
    states[ok] = prop[ok]
    unit = dt / float(1 << MAX_HALVINGS)
    remaining = np.where(ok, np.int64(0), np.int64(1 << MAX_HALVINGS))
    h_units = np.where(ok, np.int64(1), np.int64(1 << (MAX_HALVINGS - 1)))
    while True:
        active = np.nonzero(remaining > 0)[0]
        if active.size == 0:
            return
        h = h_units[active] * unit
        consumed = (np.int64(1 << MAX_HALVINGS) - remaining[active]) * unit
        x = states[active]
        b = drift(x, t0 + consumed)
        prop = (
            x
            + b * h[:, None]
            + np.sqrt(h)[:, None] * rng.standard_normal(x.shape)
        )
        ok = _ordered(prop)
        good = active[ok]
        states[good] = prop[ok]
        remaining[good] -= h_units[good]
        h_units[good] = np.minimum(2 * h_units[good], np.maximum(remaining[good], 1))
        bad = active[~ok]
        if bad.size:
            if np.any(h_units[bad] == 1):
                raise RuntimeError(
                    "step-size underflow: ordering could not be restored "
                    f"after {MAX_HALVINGS} halvings"
                )
            h_units[bad] //= 2


def _ordered(states: np.ndarray) -> np.ndarray:
    """Whether each row of states (paths, N) is strictly increasing; a row
    holding NaN is not."""
    return (states[:, 1:] > states[:, :-1]).all(axis=1)


def dyson_drift(states: np.ndarray, _t: float | np.ndarray | None = None) -> np.ndarray:
    """Pairwise repulsion sum_{j != i} 1/(x_i - x_j), batched over rows
    (paths, N) of distinct entries, as every caller passes them; a tied
    pair makes both its entries infinite. Returns C-ordered (paths, N) rows,
    the same bits whatever the memory layout of ``states``."""
    x = np.ascontiguousarray(states.T)
    n = x.shape[0]
    # terms[j, i] = x_i - x_j, one contiguous (N, paths) slab per j
    terms = np.subtract(x[None, :, :], x[:, None, :], out=np.empty((n, n, x.shape[1])))
    terms.reshape(n * n, x.shape[1])[:: n + 1] = np.inf  # a view of the diagonal
    np.reciprocal(terms, out=terms)
    return np.ascontiguousarray(_pairwise_sum(terms).T)


def _pairwise_sum(terms: np.ndarray) -> np.ndarray:
    """terms.sum(axis=0) in the order numpy's pairwise sum adds a contiguous
    row of len(terms) >= 1 values: in sequence below 8, in 8 interleaved
    partial sums up to 128 (the rest added after), halved at a multiple of
    8 above. A reduction over a strided axis adds in sequence instead, so
    fixing the order keeps results independent of memory layout."""
    n = len(terms)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _pairwise_sum(terms[:half]) + _pairwise_sum(terms[half:])
    if n < 8:  # in sequence, however numpy orders the reduction
        return terms.sum(axis=0)
    r = terms[:8]
    full = n - n % 8
    for k in range(8, full, 8):
        r = r + terms[k : k + 8]
    out = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for term in terms[full:]:
        out += term
    return out


def _inhomogeneous_drift_batch(
    horizon: float, n: int
) -> Callable[[np.ndarray, float | np.ndarray], np.ndarray]:
    """Batched finite-horizon drift grad log N_N(T - t, x) at N = n, at one
    time t for all rows or one per row; the pair tables are built once."""
    tables = _pair_tables(n)

    def drift(states: np.ndarray, t_local: float | np.ndarray) -> np.ndarray:
        tau = np.maximum(horizon - t_local, 1e-300)
        _, weights, incidence = _erf_pfaffian(tau, states, tables)
        return weights @ incidence

    return drift


def sample_from_origin(
    n: int,
    t0: float,
    size: int,
    rng: np.random.Generator,
    h_power: int = 2,
) -> np.ndarray:
    """Rejection draws from exp(-|y|^2/2 t0) * h_N(y)^h_power, a test oracle
    for the from-origin start of ``grid_states``; no production route calls it.

    Proposals are sorted iid N(0, 2 t0) vectors; inflating the proposal
    variance makes the acceptance ratio bounded:

        ratio = h^p * exp(-|y|^2 / 4 t0)
             <= (2 r)^(p K) exp(-r^2 / 4 t0) =: f(r),   K = N(N-1)/2,

    maximized at r* = sqrt(2 p K t0). The acceptance rate falls fast with N.
    Raises RuntimeError once the proposals that ``size`` draws would take,
    projected from the acceptances so far plus one, exceed MAX_PROPOSALS.
    """
    if n < 1 or size < 1:
        raise ValueError("need n >= 1 and size >= 1")
    pk = h_power * n * (n - 1) // 2
    bound = (2.0 * math.sqrt(2.0 * pk * t0)) ** pk * math.exp(-pk / 2.0)  # f(r*)
    out = np.empty((size, n))
    filled = 0
    block = max(4 * size, 1024)
    proposed = 0
    while filled < size:
        if proposed * size > MAX_PROPOSALS * (filled + 1):
            raise RuntimeError(
                f"from-origin sampling for N={n} at t0={t0!r} accepted {filled} of "
                f"{proposed} proposals (rate {filled / proposed:.3g}); {size} draws "
                f"would need more than MAX_PROPOSALS = {MAX_PROPOSALS:.0e}"
            )
        proposed += block
        prop = np.sort(
            math.sqrt(2.0 * t0) * rng.standard_normal((block, n)), axis=1
        )
        r2 = np.sum(prop * prop, axis=1)
        log_ratio = h_power * log_vandermonde_h(prop) - r2 / (4.0 * t0)
        accept = rng.random(block) < np.exp(log_ratio) / bound
        got = prop[accept]
        take = min(size - filled, got.shape[0])
        out[filled : filled + take] = got[:take]
        filled += take
    return out


# ---------------------------------------------------------------------------
# One trajectory engine for the three processes
# ---------------------------------------------------------------------------

_PROCESSES = ("dyson", "finite-horizon", "matrix")


def grid_states(
    process: str,
    n: int,
    t_end: float,
    n_steps: int,
    n_paths: int,
    rng: np.random.Generator,
    x0: ArrayLike | None = None,
    horizon: float | None = None,
) -> Iterator[np.ndarray]:
    """Yield the (n_paths, n) state at each time of the grid (module
    docstring), dt = t_end / n_steps; a path is one row followed over the
    grid, n_steps states from the origin and n_steps + 1 from x0, which is
    one chamber point (n,) or one per path (n_paths, n). The array yielded
    is the live state, which the next step overwrites in place; a matrix
    state is a view into its block of steps (``rmt.eigen_steps``) and keeps
    the whole block alive. Copy what you keep.

    ``process`` is "dyson" (the h-transform), "finite-horizon" (conditioned
    to avoid collision up to ``horizon``) or "matrix" (eigenvalues of
    Hermitian matrix Brownian motion from diag(x0) or zero; with a
    ``horizon``, of the two-matrix model, from zero only). Bad arguments
    raise at the first state.

    Each step of "dyson" and "finite-horizon" is one ``_advance_batch``
    call: one normal draw of the state's shape, then draws for halved rows
    only (module docstring). From the origin the first state takes the
    matrix process's draws instead.
    """
    if process not in _PROCESSES:
        raise ValueError(f"unknown process {process!r}; known: {list(_PROCESSES)}")
    if n < 1 or n_steps < 1 or n_paths < 1:
        raise ValueError("need n >= 1, n_steps >= 1 and n_paths >= 1")
    _finite(t_end=t_end, horizon=horizon)
    if horizon is not None and not 0 < t_end <= horizon:
        raise ValueError("need 0 < t_end <= T")
    if t_end <= 0:
        raise ValueError(f"t_end must be positive, got {t_end!r}")
    dt = t_end / n_steps
    states = None if _is_origin(x0) else _chamber_start(x0, n, n_paths)
    if process == "matrix":
        if states is not None and horizon is not None:
            raise ValueError("the matrix process with a horizon starts from zero")
        from . import rmt  # rmt imports this module

        xi = np.zeros((n_paths, n, n), dtype=complex)
        if states is not None:
            xi[:, np.arange(n), np.arange(n)] = states
            yield states
        yield from rmt.eigen_steps(xi, dt, n_steps, rng, horizon)
        return
    if process == "dyson":
        drift, horizon = dyson_drift, None
    elif horizon is None:
        raise ValueError("the finite-horizon process needs a horizon")
    else:
        drift = _inhomogeneous_drift_batch(horizon, n)
    first_step = 0
    if states is None:
        # exact at dt: the h^2 law of GUE eigenvalues, or the two-matrix law
        states, first_step = terminal("matrix", n, dt, 1, n_paths, rng, horizon=horizon), 1
    yield states
    for k in range(first_step, n_steps):
        _advance_batch(states, k * dt, dt, drift, rng)
        yield states


def _chamber_start(x0: ArrayLike, n: int, n_paths: int) -> np.ndarray:
    """x0, one chamber point (n,) or one per path (n_paths, n), as new rows."""
    x0 = np.asarray(x0, dtype=float)
    if x0.shape not in ((n,), (n_paths, n)):
        raise ValueError(
            f"x0 has shape {x0.shape}, expected n = {n} in 1 or n_paths = {n_paths} rows"
        )
    rows = np.array(np.broadcast_to(x0, (n_paths, n)))
    bad = ~(np.isfinite(rows).all(axis=1) & _ordered(rows))
    if bad.any():
        _as_point(rows[bad.argmax()])  # raises, naming the first bad row
    return rows


def trajectories(
    process: str,
    n: int,
    t_end: float,
    n_steps: int,
    n_paths: int,
    rng: np.random.Generator,
    x0: ArrayLike | None = None,
    horizon: float | None = None,
) -> np.ndarray:
    """The states of ``grid_states`` copied into (n_paths, grid times, n)."""
    out = np.empty((n_paths, n_steps + (not _is_origin(x0)), n))
    states = grid_states(process, n, t_end, n_steps, n_paths, rng, x0, horizon)
    for k, state in enumerate(states):
        out[:, k] = state
    return out


def terminal(*args, **kwargs) -> np.ndarray:
    """The last state of ``grid_states(*args, **kwargs)``; the others are
    dropped as they come, so memory stays at one grid time."""
    return deque(grid_states(*args, **kwargs), maxlen=1)[0]


def dyson_terminal_batch(
    n: int,
    t_end: float,
    n_steps: int,
    n_paths: int,
    rng: np.random.Generator,
    x0: ArrayLike | None = None,
) -> np.ndarray:
    """Terminal states of many independent Dyson paths."""
    return terminal("dyson", n, t_end, n_steps, n_paths, rng, x0)


def dyson_trajectories(
    n: int, t_end: float, n_steps: int, n_paths: int, rng: np.random.Generator
) -> np.ndarray:
    """(n_paths, n_steps, n) from-origin Dyson trajectories."""
    return trajectories("dyson", n, t_end, n_steps, n_paths, rng)


def inhomogeneous_terminal_batch(
    n: int,
    horizon: float,
    t_end: float,
    n_steps: int,
    n_paths: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Terminal states at t_end <= T of many finite-horizon paths."""
    return terminal("finite-horizon", n, t_end, n_steps, n_paths, rng, horizon=horizon)
