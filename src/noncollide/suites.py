"""Acceptance suites: cross-layer checks wired up as runnable reports.

Each suite function returns a list of TestReports; a suite passes when all
its reports pass. Statistical suites use the fixed seeds below so that
repeated runs are bit-identical.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from . import combinat, diffusion, lgv, rmt, schur, verify, walks
from .verify import TestReport

SEEDS = {
    "involution": 20250813,
    "equivalence_dyson": 20250901,
    "equivalence_matrix": 20250902,
    "sde_drift": 20250903,
    "sde_gamma": 20250904,
}

# criterion 1 / 3 sweep sizes
SWEEP_N = (2, 3)
SWEEP_T = (1, 2, 3, 4, 5)


def _starts(n: int) -> list[tuple[int, ...]]:
    canonical = combinat.canonical_start(n)
    translated = tuple(v + 2 for v in canonical)
    stretched = tuple(4 * i for i in range(n))
    return [canonical, translated, stretched]


def _exact_report(name: str, mismatches: int, checks: int, **fields) -> TestReport:
    fields.setdefault("detail", f"{checks} exact comparisons, {mismatches} mismatches")
    return TestReport.exact(name, mismatches, sample_sizes=(checks,), **fields)


def counting_equivalence() -> list[TestReport]:
    """Criterion 1: determinant = enumeration = path-graph determinant, and
    for canonical starts also the tableau product formula and SSYT count."""
    reports = []
    for n in SWEEP_N:
        for horizon in SWEEP_T:
            for start in _starts(n):
                buckets: dict[tuple[int, ...], int] = {}
                for w in walks.iter_nonintersecting(start, horizon):
                    y = w.endpoints()
                    buckets[y] = buckets.get(y, 0) + 1
                lo = min(start) - horizon
                hi = max(start) + horizon
                graph = lgv.walk_graph(horizon, lo, hi)
                sources = [(v, 0) for v in start]
                mismatches = 0
                checks = 0
                canonical = start == combinat.canonical_start(n)
                for y, observed in sorted(buckets.items()):
                    checks += 1
                    det = walks.count_vicious(start, y, horizon)
                    sinks = [(v, horizon) for v in y]
                    det_graph = lgv.lgv_determinant(graph, sources, sinks)
                    ok = det == observed == det_graph
                    if canonical:
                        shape = combinat.endpoints_to_partition(y, horizon)
                        via_product = schur.principal_specialization(shape, horizon)
                        via_ssyt = len(combinat.enumerate_ssyt(shape, horizon))
                        ok = ok and det == via_product == via_ssyt
                    if not ok:
                        mismatches += 1
                reports.append(
                    _exact_report(
                        f"counting N={n} T={horizon} start={start}",
                        mismatches,
                        checks,
                    )
                )
    return reports


def pinned_values() -> list[TestReport]:
    """Criterion 2: hand-checked counts and the reconstructed tableau."""
    reports = []
    reports.append(
        _exact_report(
            "pinned M_2(2,(0,2)|(0,2)) == 3",
            int(walks.count_vicious((0, 2), (0, 2), 2) != 3),
            1,
        )
    )
    reports.append(
        _exact_report(
            "pinned specialization (2,1), 3 vars == 8",
            int(schur.principal_specialization(combinat.Partition((2, 1)), 3) != 8),
            1,
        )
    )
    shape = combinat.Partition((4, 3, 2))
    spec_value = schur.principal_specialization(shape, 6)
    ssyt_count = len(combinat.enumerate_ssyt(shape, 6))
    reports.append(
        _exact_report(
            "pinned specialization (4,3,2), 6 vars == 5880 == SSYT count",
            int(not (spec_value == 5880 == ssyt_count)),
            2,
        )
    )
    # the four-walker, six-step example: column j holds walker j's leftward
    # step times; rows reconstructed from the per-row monomial grouping
    tableau = combinat.SSYT([(2, 3, 4, 6), (4, 4, 6), (5, 6)], max_entry=6)
    expected = (0, 1, 1, 3, 1, 3)
    got = combinat.monomial_exponents(tableau, 6)
    walk = combinat.tableau_to_walk(tableau, 4, 6)
    round_trip = combinat.walk_to_tableau(walk)
    facts_ok = (
        got == expected
        and tableau[1, 3] == 4
        and tableau[3, 1] == 5
        and tableau.shape.parts == (4, 3, 2)
        and walk.endpoints() == (0, 2, 6, 10)
        and round_trip == tableau
    )
    reports.append(_exact_report("pinned tableau facts", int(not facts_ok), 6))
    return reports


def bijection_round_trip() -> list[TestReport]:
    """Criterion 3: encode/decode is the identity on every canonical walk."""
    reports = []
    for n in SWEEP_N + (1,):
        for horizon in SWEEP_T:
            start = combinat.canonical_start(n)
            mismatches = 0
            checks = 0
            for w in walks.iter_nonintersecting(start, horizon):
                checks += 1
                tab = combinat.walk_to_tableau(w)  # constructor checks SSYT rules
                back = combinat.tableau_to_walk(tab, n, horizon)
                if back != w:
                    mismatches += 1
            reports.append(
                _exact_report(f"bijection N={n} T={horizon}", mismatches, checks)
            )
    return reports


def _partitions_up_to(total: int) -> list[combinat.Partition]:
    out = [combinat.Partition()]
    for n in range(1, total + 1):
        stack = [((), n, n)]
        while stack:
            prefix, remaining, cap = stack.pop()
            if remaining == 0:
                out.append(combinat.Partition(prefix))
                continue
            for part in range(min(cap, remaining), 0, -1):
                stack.append((prefix + (part,), remaining - part, part))
    return out


def schur_three_route() -> list[TestReport]:
    """Criterion 4: the tableau sum, the alternant ratio, and the dual
    Jacobi-Trudi determinant agree exactly; all-ones matches the product."""
    from itertools import combinations

    base = (1, 2, 3, 5, 7)
    shapes = _partitions_up_to(6)
    mismatches = 0
    checks = 0
    for size in (1, 2, 3, 4):
        for points in combinations(base, size):
            z = schur.EvalPoint(points)
            for shape in shapes:
                checks += 1
                a = schur.schur_ssyt_sum(shape, z)
                b = schur.schur_bialternant(shape, z)
                c = schur.schur_dual_jt(shape, z)
                if not a == b == c:
                    mismatches += 1
    ones_mismatch = 0
    ones_checks = 0
    for shape in shapes:
        for n_vars in (1, 2, 3, 4):
            ones_checks += 1
            ones = schur.schur_dual_jt(shape, schur.EvalPoint.ones(n_vars))
            if ones != schur.principal_specialization(shape, n_vars):
                ones_mismatch += 1
    return [
        _exact_report("schur three-route agreement", mismatches, checks),
        _exact_report("schur all-ones vs product", ones_mismatch, ones_checks),
    ]


def _involution_checks(
    c: lgv.PathTuple, g: lgv.PathGraph
) -> bool:
    swapped = lgv.tail_swap(c, g)
    return (
        swapped != c
        and lgv.tail_swap(swapped, g) == c
        and swapped.sign() == -c.sign()
        and swapped.weight(g) == c.weight(g)
        and swapped.intersection_vertices() == c.intersection_vertices()
    )


def involution_suite() -> list[TestReport]:
    """Criterion 5: the tail swap is a fixed-point-free, sign-reversing,
    weight-preserving involution on intersecting tuples."""
    reports = []
    mismatches = 0
    checks = 0
    for horizon in (1, 2, 3):
        graph = lgv.walk_graph(horizon, -horizon, 2 + horizon)
        sources = [(0, 0), (2, 0)]
        ys = [
            (y1, y2)
            for y1 in range(-horizon, horizon + 1, 2)
            for y2 in range(2 - horizon, 2 + horizon + 1, 2)
            if y1 < y2
        ]
        for y in ys:
            sinks = [(v, horizon) for v in y]
            for c in lgv.enumerate_tuples(graph, sources, sinks):
                if not c.intersection_vertices():
                    continue
                checks += 1
                if not _involution_checks(c, graph):
                    mismatches += 1
    reports.append(_exact_report("involution exhaustive N=2", mismatches, checks))

    rng = np.random.default_rng(SEEDS["involution"])
    horizon = 4
    start = (0, 2, 4)
    graph = lgv.walk_graph(horizon, -horizon, 4 + horizon)
    sources = [(v, 0) for v in start]
    mismatches = 0
    checks = 0
    while checks < 1000:
        y = tuple(
            int(v)
            for v in sorted(
                s + 2 * rng.integers(-horizon // 2, horizon // 2 + 1) for s in start
            )
        )
        if len(set(y)) < 3:
            continue
        perm = tuple(int(v) for v in rng.permutation(3))
        choices = [
            lgv.enumerate_paths(graph, sources[i], (y[perm[i]], horizon))
            for i in range(3)
        ]
        if any(not paths for paths in choices):
            continue
        c = lgv.PathTuple(
            perm,
            tuple(paths[rng.integers(0, len(paths))] for paths in choices),
        )
        if not c.intersection_vertices():
            continue
        checks += 1
        if not _involution_checks(c, graph):
            mismatches += 1
    reports.append(
        _exact_report(
            "involution random N=3", mismatches, checks,
            seeds=(SEEDS["involution"],),
            detail=f"{checks} random intersecting tuples",
        )
    )
    return reports


def survival_closed_form() -> list[TestReport]:
    """Criterion 6: two-walker survival by quadrature (the batched
    Gauss-Legendre rule on the Karlin-McGregor density) matches erf; the
    small-separation asymptotic is within 1%."""
    reports = []
    worst = 0.0
    pts = [
        (t, (x1, x2))
        for t in (0.25, 0.5, 1.0, 2.0, 5.0)
        for (x1, x2) in ((0.0, 1.0), (0.0, 2.0), (-1.0, 1.5), (0.5, 4.0))
    ]
    for t, x in pts:
        exact = math.erf((x[1] - x[0]) / (2.0 * math.sqrt(t)))
        quad = diffusion.survival_quadrature(t, x)
        worst = max(worst, abs(quad - exact))
    reports.append(
        TestReport.below(
            "survival quadrature vs closed form", worst, 1e-6,
            sample_sizes=(len(pts),),
            detail="max |quadrature - erf| over 20 (t, x) points",
        )
    )
    worst_rel = 0.0
    for t, gap in ((1.0, 0.1), (1.0, 0.05), (4.0, 0.2), (0.25, 0.05), (9.0, 0.3)):
        x = (0.0, gap)
        exact = math.erf(gap / (2.0 * math.sqrt(t)))
        approx = diffusion.survival_asymptotic(t, x)
        worst_rel = max(worst_rel, abs(approx / exact - 1.0))
    reports.append(
        TestReport.below(
            "survival asymptotic small-separation", worst_rel, 0.01,
            sample_sizes=(5,),
            detail="max relative error at separation/sqrt(t) <= 0.1",
        )
    )
    return reports


def normalization_suite() -> list[TestReport]:
    """Criterion 7: the transition densities integrate to one and satisfy
    Chapman-Kolmogorov, by the batched Gauss-Legendre rule of
    ``verify.quadrature_integrate``, one call on all nodes per rule."""
    reports = []
    horizon = 1.0
    for frac in (0.25, 0.5, 1.0):
        t = frac * horizon
        val = verify.quadrature_integrate(
            lambda y: diffusion.transition_inhomogeneous(0.0, None, t, y, horizon),
            -8.0 * math.sqrt(t),
            8.0 * math.sqrt(t),
            2,
            tol=1e-4,
        )
        reports.append(
            TestReport.below(
                f"normalization finite-horizon t/T={frac}", abs(val - 1.0), 1e-3,
                detail=f"integral = {val!r}",
            )
        )
    for t in (0.5, 1.0, 2.0):
        val = verify.quadrature_integrate(
            lambda y: diffusion.transition_homogeneous(0.0, None, t, y),
            -8.0 * math.sqrt(t),
            8.0 * math.sqrt(t),
            2,
            tol=1e-4,
        )
        reports.append(
            TestReport.below(
                f"normalization h-transform t={t}", abs(val - 1.0), 1e-3,
                detail=f"integral = {val!r}",
            )
        )
    probes = [(-1.0, 0.5), (-0.5, 0.8), (0.0, 1.0), (-1.5, -0.2), (0.3, 2.0)]
    worst = 0.0
    for y in probes:
        y = np.array(y)
        direct = diffusion.transition_homogeneous(0.0, None, 1.0, y)
        # p(0.5, 1.0; z -> y) = f_N(0.5, y | z) h(y) / h(z) = f_N(0.5, z | y)
        # h(y) / h(z) by the symmetry of f_N, batched over the midpoints z
        conv = verify.quadrature_integrate(
            lambda z: diffusion.transition_homogeneous(0.0, None, 0.5, z)
            * diffusion.km_density(0.5, y, z)
            * np.exp(diffusion.log_vandermonde_h(y) - diffusion.log_vandermonde_h(z)),
            -7.0,
            7.0,
            2,
            tol=1e-5,
        )
        worst = max(worst, abs(conv - direct))
    reports.append(
        TestReport.below(
            "Chapman-Kolmogorov h-transform", worst, 1e-3,
            sample_sizes=(len(probes),),
            detail="max |convolution - direct| over probe points",
        )
    )
    return reports


def scaling_limit_suite() -> list[TestReport]:
    """Criterion 8: rescaled counts approach the limit density as L grows."""
    reports = []
    for y in ((-1.0, 1.0), (-0.5, 0.7), (0.1, 1.3)):
        rel = {}
        for scale in (100, 400):
            lhs, rhs = walks.scaling_check((0, 2), 1.0, y, scale)
            rel[scale] = abs(lhs / rhs - 1.0)
        ok = rel[400] < rel[100] and rel[400] < 0.20
        reports.append(
            TestReport(
                name=f"scaling limit y={y}",
                statistic=rel[400],
                threshold=0.20,
                passed=ok,
                detail=f"relative error {rel[100]:.3e} (L=100) -> {rel[400]:.3e} (L=400)",
            )
        )
    return reports


EQUIVALENCE_PATHS = 10_000
EQUIVALENCE_STEPS = 2048


def equivalence_suite() -> list[TestReport]:
    """Criterion 9: interacting-particle integrator, matrix eigenvalues, and
    the exact from-origin coordinate laws (Andreief) agree at t=1 (N=2)."""
    rng_a = np.random.default_rng(SEEDS["equivalence_dyson"])
    rng_b = np.random.default_rng(SEEDS["equivalence_matrix"])
    dyson = diffusion.terminal("dyson", 2, 1.0, EQUIVALENCE_STEPS, EQUIVALENCE_PATHS, rng_a)
    eig = diffusion.terminal("matrix", 2, 1.0, 1, EQUIVALENCE_PATHS, rng_b)
    reports = []
    for coord in (0, 1):
        cdf = lambda s: diffusion.coordinate_cdfs(2, 1.0, s)[..., coord]
        reports.append(
            verify.ks_one_sample(
                dyson[:, coord],
                cdf,
                name=f"equivalence dyson coord {coord} vs density",
                statistic_threshold=0.02,
                seeds=(SEEDS["equivalence_dyson"],),
            )
        )
        reports.append(
            verify.ks_one_sample(
                eig[:, coord],
                cdf,
                name=f"equivalence eigenvalues coord {coord} vs density",
                statistic_threshold=0.02,
                seeds=(SEEDS["equivalence_matrix"],),
            )
        )
        reports.append(
            verify.ks_two_sample(
                dyson[:, coord],
                eig[:, coord],
                name=f"equivalence dyson vs eigenvalues coord {coord}",
                seeds=(SEEDS["equivalence_dyson"], SEEDS["equivalence_matrix"]),
            )
        )
    return reports


SDE_PATHS = 20_000
SDE_STEPS = 1600
SDE_DT = 1e-4
SDE_T_START = 0.05


def sde_structure_suite() -> list[TestReport]:
    """Criterion 10: eigenvalue-path drift slope 1, intercept 0, unit QV,
    and unit carre-du-champ entries."""
    rng = np.random.default_rng(SEEDS["sde_drift"])
    rep = rmt.drift_qv_report(
        2, SDE_PATHS, SDE_STEPS, SDE_DT, rng, t_start=SDE_T_START
    )
    reports = [
        TestReport(
            name="sde drift regression slope",
            statistic=rep.slope,
            threshold=0.1,
            passed=0.9 <= rep.slope <= 1.1,
            sample_sizes=(rep.n_points,),
            seeds=(SEEDS["sde_drift"],),
            detail=f"slope {rep.slope:.4f} +- {rep.slope_se:.4f}",
        ),
        TestReport.below(
            "sde drift regression intercept", abs(rep.intercept), 0.05,
            sample_sizes=(rep.n_points,),
            seeds=(SEEDS["sde_drift"],),
            detail=f"intercept {rep.intercept:.4f} +- {rep.intercept_se:.4f}",
        ),
        TestReport(
            name="sde realized quadratic variation",
            statistic=rep.qv_per_time,
            threshold=0.05,
            passed=0.95 <= rep.qv_per_time <= 1.05,
            sample_sizes=(rep.n_points,),
            seeds=(SEEDS["sde_drift"],),
            detail=f"qv/time {rep.qv_per_time:.4f} +- {rep.qv_se:.4f}",
        ),
    ]
    gamma = rmt.estimate_gamma(2, 100_000, np.random.default_rng(SEEDS["sde_gamma"]))
    dev = float(np.max(np.abs(gamma - 1.0)))
    reports.append(
        TestReport.below(
            "sde carre-du-champ entries", dev, 0.03,
            sample_sizes=(100_000,),
            seeds=(SEEDS["sde_gamma"],),
            detail=f"max |entry - 1| = {dev:.4f}",
        )
    )
    return reports


def drift_limit_suite() -> list[TestReport]:
    """Criterion 11: long-horizon drift matches the pairwise repulsion."""
    b = diffusion.drift_inhomogeneous(0.0, (0.0, 2.0), 1e4)
    target = np.array([-0.5, 0.5])
    rel = float(np.max(np.abs(b / target - 1.0)))
    return [
        TestReport.below(
            "long-horizon drift limit", rel, 0.01,
            detail=f"drift {b.tolist()} vs {target.tolist()}",
        )
    ]


SUITES: dict[str, Callable[[], list[TestReport]]] = {
    "counting": counting_equivalence,
    "pinned": pinned_values,
    "bijection": bijection_round_trip,
    "schur": schur_three_route,
    "involution": involution_suite,
    "survival": survival_closed_form,
    "normalization": normalization_suite,
    "scaling": scaling_limit_suite,
    "equivalence": equivalence_suite,
    "sde": sde_structure_suite,
    "drift-limit": drift_limit_suite,
}
