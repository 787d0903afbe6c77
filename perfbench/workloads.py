"""Seeded op lists for the benchmark workloads, with an output check per op.

An op is one user request: either one CLI command run in-process through
``noncollide.cli.run(argv)`` with ``--out`` pointing at a file in the work
directory, or one call to a library entry point. ``build`` turns a workload
name and a seed into the op list; every input the program receives comes
from that seed. The op classes and their counts per pass are declared in
``definitions.json`` and the self-test holds the builders to them.

Each op carries:
  run      the request itself (the only timed part);
  output   turns what ``run`` returned into the value to check, raising
           ``CheckFailed`` on a non-zero exit code;
  check    raises ``CheckFailed`` when that value is wrong; reference
           values come from a second route in the library;
  corrupt  returns a wrong copy of the value, which ``check`` must reject
           (used by the self-test).
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import numpy as np
from scipy import stats

from noncollide import cli, combinat, diffusion, lgv, rmt, schur, walks

DEFINITIONS = json.loads(
    (Path(__file__).resolve().parent / "definitions.json").read_text(encoding="utf-8")
)
WORKLOADS = tuple(DEFINITIONS["workloads"])
KS_P_FLOOR = 1e-6


class CheckFailed(Exception):
    """An op returned a wrong output."""


@dataclass
class Op:
    label: str
    run: Callable[[], Any]
    output: Callable[[Any], Any]
    check: Callable[[Any], None]
    corrupt: Callable[[Any], Any]
    draws: int = 0  # exact conditioned walk draws produced
    path_values: int = 0  # simulated particle positions produced
    reads: tuple[Path, ...] = ()  # input files read
    out: Path | None = None  # output file of a CLI op


def deadline_s(workload: str) -> float:
    return float(DEFINITIONS["workloads"][workload]["deadline_s"])


def build(workload: str, seed: int, work: Path, tiny: bool = False) -> list[Op]:
    """The workload's op list for one pass. ``tiny`` shrinks every class to
    one or two small ops for the self-test."""
    builders = {
        "lattice": _lattice,
        "continuum": _continuum,
        "simulate-io": _simulate_io,
        "simulate-batch": _simulate_batch,
    }
    if workload not in builders:
        raise ValueError(f"unknown workload {workload!r}")
    work.mkdir(parents=True, exist_ok=True)
    return builders[workload](random.Random(seed), work, tiny)


def probe_ops(seed: int, work: Path) -> list[Op]:
    """Requests that hang at this commit (ROADMAP robustness baseline).

    They run only in the all-workload report, where they count as failed
    ops at the per-op deadline; the single-workload runs keep to ops that
    complete.
    """
    rnd = random.Random(seed)
    work.mkdir(parents=True, exist_ok=True)
    t = _round(rnd.uniform(0.5, 2.0))
    return [
        _paths_op(
            "probe.simulate-dyson.n4", "simulate-dyson", rnd, work,
            n=4, t=t, steps=100, paths=20,
        ),
        _paths_op(
            "probe.simulate-inhomogeneous.n3", "simulate-inhomogeneous", rnd, work,
            n=3, t=t, steps=100, paths=20, horizon=_round(1.5 * t),
        ),
    ]


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _ints(values) -> str:
    return ",".join(str(int(v)) for v in values)


def _floats(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _round(value: float) -> float:
    return round(value, 4)


def _cli(
    label: str,
    argv: list,
    out: Path,
    check: Callable[[str], None],
    corrupt: Callable[[str], str],
    reads: tuple[Path, ...] = (),
    **units: int,
) -> Op:
    args = [str(a) for a in argv] + ["--out", str(out)]

    def run() -> int:
        return cli.run(args)

    def output(code: int) -> str:
        _expect(code == 0, f"exit code {code}")
        return out.read_text(encoding="utf-8")

    return Op(label, run, output, check, corrupt, reads=reads, out=out, **units)


def _lib(
    label: str,
    fn: Callable[[], Any],
    check: Callable[[Any], None],
    corrupt: Callable[[Any], Any],
    store: list | None = None,
    **units: int,
) -> Op:
    def output(value: Any) -> Any:
        if store is not None:
            store.append(value)
        return value

    return Op(label, fn, output, check, corrupt, **units)


def _bump_number(text: str) -> str:
    return str(Fraction(text.strip()) + 1) + "\n"


def _nan_text(_text: str) -> str:
    return "nan\n"


def _drop_last_line(text: str) -> str:
    lines = text.splitlines(keepends=True)
    return "".join(lines[:-1])


def _reverse_array(values: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(np.asarray(values)[..., ::-1])


def _shift_array(values: np.ndarray) -> np.ndarray:
    return np.asarray(values) + 5.0


def _csv_values(text: str, seed: int, header: str, rows: int) -> list[str]:
    lines = text.splitlines()
    _expect(len(lines) >= 2, "CSV lacks its seed line and header")
    _expect(lines[0] == f"# seed={seed}", f"seed line {lines[0]!r}")
    _expect(lines[1] == header, f"header {lines[1]!r}")
    _expect(len(lines) - 2 == rows, f"{len(lines) - 2} rows, expected {rows}")
    return lines[2:]


def _paths_array(text: str, seed: int, paths: int, steps: int, n: int) -> np.ndarray:
    """Checked (paths, steps, n) states of a simulate CSV."""
    lines = _csv_values(text, seed, "path_id,t,i,value", paths * steps * n)
    values = np.array([float(line.rsplit(",", 1)[1]) for line in lines])
    walkers = np.array([int(line.split(",")[2]) for line in lines])
    _expect(
        np.array_equal(walkers, np.tile(np.arange(n), paths * steps)),
        "rows are not grouped by path, time and particle",
    )
    states = values.reshape(paths, steps, n)
    _check_states(states)
    return states


def _check_states(states: np.ndarray) -> None:
    states = np.asarray(states, dtype=float)
    _expect(bool(np.all(np.isfinite(states))), "non-finite state")
    if states.shape[-1] > 1:
        _expect(bool(np.all(np.diff(states, axis=-1) > 0)), "state not strictly ordered")


def _ks(a: np.ndarray, b: np.ndarray, what: str) -> None:
    for coord in range(a.shape[-1]):
        p = float(stats.ks_2samp(a[:, coord], b[:, coord], method="asymp").pvalue)
        _expect(p > KS_P_FLOOR, f"{what}: KS p-value {p:.3g} at coordinate {coord}")


def _finite_nonnegative(text: str) -> None:
    value = float(text)
    _expect(math.isfinite(value) and value >= 0.0, f"value {text.strip()!r}")


# ---------------------------------------------------------------------------
# lattice: exact integer requests through the CLI
# ---------------------------------------------------------------------------

# 420 to 945 tableaux each with 5 letters: the ssyt ops form one class of
# similar cost, wide enough that lattice's op_p90_ms falls inside it
SCHUR_SHAPES = (
    (4, 2), (5, 1), (4, 2, 1, 1), (4, 4), (8,), (5, 1, 1),
    (4, 2, 2), (4, 3), (4, 2, 1), (6, 1), (5, 2), (6, 1, 1),
)
SCHUR_VARS = 5
# integer points, so the ssyt cost hardly depends on the draw
SCHUR_POINTS = tuple(range(1, 13))
SCALING_YS = ((-1.0, 1.0), (-0.5, 0.7), (0.1, 1.3))  # criterion-8 endpoints
LGV_HORIZON = 16
LGV_WIDTH = 16
COMPAT_HORIZON = 6
COMPAT_WIDTH = 6


def _lattice(rnd: random.Random, work: Path, tiny: bool) -> list[Op]:
    ops: list[Op] = []
    serial = itertools.count()

    def out(suffix: str = "txt") -> Path:
        return work / f"lattice-{next(serial)}.{suffix}"

    # counts from the canonical start, checked against the tableau count
    for n in range(2, 5 if tiny else 9):
        for _ in range(1 if tiny else 3):
            horizon = rnd.randrange(20, 40) if tiny else rnd.randrange(60, 161)
            ell = sorted(
                (rnd.randrange(horizon // 2 - 8, horizon // 2 + 9) for _ in range(n)),
                reverse=True,
            )
            y = tuple(horizon - 2 * li + 2 * i for i, li in enumerate(ell))
            ops.append(_count_op(
                "count.canonical", combinat.canonical_start(n), y, horizon, out(), _canonical_reference
            ))

    # short counts from arbitrary even starts, checked on the walk graph
    for n in (2, 3, 4) * (1 if tiny else 5):
        horizon = rnd.randrange(10, 21)
        x = tuple(sorted(rnd.sample(range(0, 16, 2), n)))
        y = _shifted_endpoints(rnd, x, horizon)
        ops.append(_count_op("count.lgv", x, y, horizon, out(), _graph_reference))

    # Schur functions: ssyt, bialternant and dual Jacobi-Trudi at the same
    # distinct points must agree exactly; principal against dual JT at ones
    for shape in SCHUR_SHAPES[: 2 if tiny else None]:
        points = rnd.sample(SCHUR_POINTS, SCHUR_VARS)
        files = {method: out() for method in ("ssyt", "bialternant", "dualjt")}
        for method, path in files.items():
            ops.append(_schur_op(shape, points, method, path, files))
        ops.append(_principal_op(shape, out()))

    # path-graph determinants on a walk graph written at set-up
    graph_path = work / "walk-graph.json"
    graph_path.write_text(
        json.dumps(lgv.walk_graph(LGV_HORIZON, 0, LGV_WIDTH).to_json()), encoding="utf-8"
    )
    for n in (2, 3, 4) * (1 if tiny else 4):
        x = tuple(sorted(rnd.sample(range(0, LGV_WIDTH + 1, 2), n)))
        y = _shifted_endpoints(rnd, x, LGV_HORIZON, lo=0, hi=LGV_WIDTH)
        ops.append(_lgv_op(graph_path, x, y, LGV_HORIZON, out(), compat=False))
    compat_path = work / "compat-graph.json"
    compat_path.write_text(
        json.dumps(lgv.walk_graph(COMPAT_HORIZON, 0, COMPAT_WIDTH).to_json()), encoding="utf-8"
    )
    for _ in range(1 if tiny else 2):
        x = tuple(sorted(rnd.sample(range(0, COMPAT_WIDTH + 1, 2), 3)))
        y = _shifted_endpoints(rnd, x, COMPAT_HORIZON, lo=0, hi=COMPAT_WIDTH)
        ops.append(_lgv_op(compat_path, x, y, COMPAT_HORIZON, out(), compat=True))

    # walk -> tableau -> walk round trips
    for k in range(1 if tiny else 10):
        n = 2 + k % 3
        horizon = rnd.randrange(6, 11)
        record = _random_walk(rnd, n, horizon)
        walk_path = out("json")
        walk_path.write_text(json.dumps(record.to_json(), sort_keys=True), encoding="utf-8")
        ops.extend(_tableau_ops(record, walk_path, out("json"), out("json")))

    # exact conditioned walk samples
    steps, draws = (6, 4) if tiny else (12, 10)
    for _ in range(1 if tiny else 3):
        ops.append(_sample_walk_op((0, 2, 4), steps, draws, rnd.randrange(2**31), out("csv")))

    # scaling limit at three lattice scales
    y = rnd.choice(SCALING_YS)
    files = {scale: out() for scale in (100, 200, 400)}
    for scale, path in files.items():
        ops.append(_scaling_op(y, scale, path, files))
    return ops


def _shifted_endpoints(
    rnd: random.Random, x: tuple[int, ...], horizon: int, lo: int | None = None, hi: int | None = None
) -> tuple[int, ...]:
    """Ordered endpoints reachable from x in ``horizon`` steps, inside
    [lo, hi] when given."""
    while True:
        shift = horizon - 2 * rnd.randrange(horizon + 1)
        y = [xi + shift + 2 * rnd.choice((-1, 0, 0, 1)) for xi in x]
        if any(abs(yi - xi) > horizon for xi, yi in zip(x, y)):
            continue
        if any(a >= b for a, b in zip(y, y[1:])):
            continue
        if lo is not None and (y[0] < lo or y[-1] > hi):
            continue
        return tuple(y)


def _canonical_reference(x, y, horizon) -> int:
    shape = combinat.endpoints_to_partition(y, horizon)
    return schur.principal_specialization(shape, horizon)


def _graph_reference(x, y, horizon) -> int:
    graph = lgv.walk_graph(horizon, min(x + y), max(x + y))
    return lgv.lgv_determinant(graph, [(v, 0) for v in x], [(v, horizon) for v in y])


def _count_op(label, x, y, horizon, out, reference) -> Op:
    def check(text: str) -> None:
        want = reference(x, y, horizon)
        _expect(int(text) == want, f"count {text.strip()} != {want}")

    argv = ["count", "--start", _ints(x), "--end", _ints(y), "--steps", horizon]
    return _cli(label, argv, out, check, _bump_number)


def _schur_op(shape, points, method, out, files) -> Op:
    def check(text: str) -> None:
        value = Fraction(text.strip())
        for other, path in files.items():
            if path != out:
                _expect(path.exists(), f"no {other} output to compare with")
                theirs = Fraction(path.read_text(encoding="utf-8").strip())
                _expect(value == theirs, f"{method} {value} != {other} {theirs}")

    argv = ["schur", "--shape", _ints(shape), "--points", ",".join(map(str, points)), "--method", method]
    return _cli(f"schur.{method}", argv, out, check, _bump_number)


def _principal_op(shape, out) -> Op:
    def check(text: str) -> None:
        want = schur.schur_dual_jt(combinat.Partition(shape), schur.EvalPoint.ones(SCHUR_VARS))
        _expect(Fraction(text.strip()) == want, f"principal {text.strip()} != {want}")

    argv = ["schur", "--shape", _ints(shape), "--n-vars", SCHUR_VARS, "--method", "principal"]
    return _cli("schur.principal", argv, out, check, _bump_number)


def _lgv_op(graph_path, x, y, horizon, out, compat: bool) -> Op:
    def check(text: str) -> None:
        lines = text.splitlines()
        want = walks.count_vicious(x, y, horizon)
        _expect(int(lines[0]) == want, f"lgv {lines[0]} != walk count {want}")
        if compat:
            _expect(lines[1:] == ["compatible: true"], f"compatibility {lines[1:]}")

    def corrupt(text: str) -> str:
        lines = text.splitlines()
        lines[0] = str(int(lines[0]) + 1)
        return "\n".join(lines) + "\n"

    argv = [
        "lgv", "--graph", graph_path,
        "--sources", ";".join(f"{v},0" for v in x),
        "--sinks", ";".join(f"{v},{horizon}" for v in y),
    ]
    if compat:
        argv.append("--check-compatibility")
    label = "lgv.compatibility" if compat else "lgv.determinant"
    return _cli(label, argv, out, check, corrupt, reads=(graph_path,))


def _random_walk(rnd: random.Random, n: int, horizon: int) -> combinat.WalkRecord:
    """A nonintersecting walk from the canonical start: each step picks
    uniformly among the moves that keep the walkers apart."""
    pos = list(combinat.canonical_start(n))
    columns = []
    for _ in range(horizon):
        while True:
            move = [rnd.choice((-1, 1)) for _ in range(n)]
            nxt = [p + d for p, d in zip(pos, move)]
            if all(a < b for a, b in zip(nxt, nxt[1:])):
                break
        columns.append(move)
        pos = nxt
    return combinat.WalkRecord(combinat.canonical_start(n), list(zip(*columns)))


def _tableau_ops(record, walk_path: Path, ssyt_path: Path, back_path: Path) -> list[Op]:
    def check_ssyt(text: str) -> None:
        tableau = combinat.SSYT.from_json(json.loads(text))
        _expect(tableau.max_entry == record.horizon, f"alphabet {tableau.max_entry}")

    def corrupt_ssyt(text: str) -> str:
        data = json.loads(text)
        data["max_entry"] = data["max_entry"] + 1
        return json.dumps(data)

    def check_walk(text: str) -> None:
        _expect(json.loads(text) == record.to_json(), "round trip changed the walk")

    def corrupt_walk(text: str) -> str:
        data = json.loads(text)
        data["steps"] = data["steps"][::-1]
        return json.dumps(data)

    n, horizon = record.n_walkers, record.horizon
    return [
        _cli("tableau.to-ssyt", ["tableau", "--to", "ssyt", "--in", walk_path], ssyt_path,
             check_ssyt, corrupt_ssyt, reads=(walk_path,)),
        _cli("tableau.to-walk",
             ["tableau", "--to", "walk", "--in", ssyt_path, "--n", n, "--steps", horizon],
             back_path, check_walk, corrupt_walk, reads=(ssyt_path,)),
    ]


def _sample_walk_op(start, steps, draws, seed, out) -> Op:
    n = len(start)

    def check(text: str) -> None:
        lines = _csv_values(text, seed, "sample_id,t,walker_id,position", draws * (steps + 1) * n)
        pos = np.array([int(line.rsplit(",", 1)[1]) for line in lines]).reshape(draws, steps + 1, n)
        _expect(bool(np.all(pos[:, 0, :] == np.array(start))), "walk does not leave the start")
        _expect(bool(np.all(np.abs(np.diff(pos, axis=1)) == 1)), "step other than +-1")
        _expect(bool(np.all(np.diff(pos, axis=2) > 0)), "walkers meet")

    argv = ["sample-walk", "--start", _ints(start), "--steps", steps, "--n", draws, "--seed", seed]
    return _cli("sample-walk", argv, out, check, _drop_last_line, draws=draws)


def _relative_error(text: str) -> float:
    fields = dict(line.split(" ", 1) for line in text.splitlines())
    return float(fields["relative_error"])


def _scaling_op(y, scale, out, files) -> Op:
    def check(text: str) -> None:
        rel = _relative_error(text)
        _expect(math.isfinite(rel), f"relative error {rel}")
        if scale == max(files):
            first = _relative_error(files[min(files)].read_text(encoding="utf-8"))
            _expect(rel < first, f"error does not fall with L: {first} -> {rel}")
            _expect(rel < 0.2, f"relative error {rel} at L={scale}")

    def corrupt(text: str) -> str:
        wrong = "1.0" if scale == max(files) else "nan"
        lines = [line for line in text.splitlines() if not line.startswith("relative_error")]
        return "\n".join(lines + [f"relative_error {wrong}"]) + "\n"

    argv = ["scaling-check", "--start", "0,2", "--t", "1", "--y", _floats(y), "--scale", scale]
    return _cli("scaling-check", argv, out, check, corrupt)


# ---------------------------------------------------------------------------
# continuum: scalar density and survival requests
# ---------------------------------------------------------------------------

MC_CHECK_SAMPLES = 50_000
MC_CLI_SAMPLES = 200_000  # the CLI's default survival_mc size
N3_GAPS = (0.5, 0.5)
N3_TIME = 2.0
GRIDS_PER_KIND = 10


def _chamber_point(rnd: random.Random, n: int) -> tuple[float, ...]:
    """Strictly increasing point with gaps in [0.3, 1.2]."""
    x = [_round(rnd.uniform(-1.5, 0.5))]
    for _ in range(n - 1):
        x.append(_round(x[-1] + rnd.uniform(0.3, 1.2)))
    return tuple(x)


def _continuum(rnd: random.Random, work: Path, tiny: bool) -> list[Op]:
    ops: list[Op] = []
    serial = itertools.count()
    reps = 1 if tiny else 8

    def out(suffix: str = "txt") -> Path:
        return work / f"continuum-{next(serial)}.{suffix}"

    for _ in range(reps):
        for n in range(2, 7):
            t = _round(rnd.uniform(0.5, 2.0))
            argv = ["density", "--kind", "km", "--t", t, "--x", _floats(_chamber_point(rnd, n)),
                    "--y", _floats(_chamber_point(rnd, n))]
            ops.append(_cli("density.km", argv, out(), _finite_nonnegative, _nan_text))
        for n in range(2, 7):
            t = _round(rnd.uniform(0.5, 2.0))
            y = _floats(_chamber_point(rnd, n))
            if rnd.random() < 0.5:
                argv = ["density", "--kind", "p", "--t", t, "--x", "origin", "--y", y]
            else:
                s = _round(t * rnd.uniform(0.2, 0.8))
                argv = ["density", "--kind", "p", "--s", s, "--t", t,
                        "--x", _floats(_chamber_point(rnd, n)), "--y", y]
            ops.append(_cli("density.p", argv, out(), _finite_nonnegative, _nan_text))
        for _ in range(5):
            t = _round(rnd.uniform(0.5, 2.0))
            horizon = _round(t * rnd.uniform(1.0, 2.0))
            y = _floats(_chamber_point(rnd, 2))
            if rnd.random() < 0.5:
                argv = ["density", "--kind", "g", "--t", t, "--horizon", horizon, "--x", "origin", "--y", y]
            else:
                s = _round(t * rnd.uniform(0.2, 0.8))
                argv = ["density", "--kind", "g", "--s", s, "--t", t, "--horizon", horizon,
                        "--x", _floats(_chamber_point(rnd, 2)), "--y", y]
            ops.append(_cli("density.g", argv, out(), _finite_nonnegative, _nan_text))
        for _ in range(5):
            t = _round(rnd.uniform(0.25, 2.0))
            ops.append(_survival_n2_op(t, _chamber_point(rnd, 2), out()))
        t = _round(rnd.uniform(0.25, 1.5))
        horizon = _round(t + rnd.uniform(0.25, 2.0))
        ops.append(_drift_n2_op(t, _chamber_point(rnd, 2), horizon))

    for n in (4, 5, 6):
        t = _round(rnd.uniform(0.5, 2.0))
        ops.append(_survival_mc_op(t, _chamber_point(rnd, n), rnd.randrange(2**31), out()))

    # one N=3 survival: "auto" picks adaptive cubature. Its cost depends on
    # the gaps and the time, so the seed moves the point by translation only.
    c = _round(rnd.uniform(-3.0, 3.0))
    x3 = (c, _round(c + N3_GAPS[0]), _round(c + N3_GAPS[0] + N3_GAPS[1]))
    ops.append(_survival_n3_op(N3_TIME, x3, rnd.randrange(2**31), out()))

    # N=2 grids, enough of them that op_p90_ms falls inside this class
    for kind in ("km", "g", "p") * (1 if tiny else GRIDS_PER_KIND):
        t = _round(rnd.uniform(0.5, 2.0))
        lo, hi = _round(rnd.uniform(-3.0, -2.0)), _round(rnd.uniform(2.0, 3.0))
        count = 6 if tiny else 20
        argv = ["density", "--kind", kind, "--t", t, "--grid", f"{lo}:{hi}:{count}"]
        if kind == "km":
            argv += ["--x", _floats(_chamber_point(rnd, 2))]
        elif kind == "g":
            argv += ["--x", "origin", "--horizon", _round(t * 1.5)]
        else:
            argv += ["--x", "origin"]
        ops.append(_grid_op(kind, argv, count, out("csv")))
    return ops


def _survival_n2_op(t, x, out) -> Op:
    def check(text: str) -> None:
        want = math.erf((x[1] - x[0]) / (2.0 * math.sqrt(t)))
        _expect(abs(float(text) - want) <= 1e-12, f"survival {text.strip()} != erf {want!r}")

    def corrupt(text: str) -> str:
        return repr(float(text) + 1e-9) + "\n"

    argv = ["density", "--kind", "survival", "--t", t, "--x", _floats(x)]
    return _cli("survival.closed-form", argv, out, check, corrupt)


def _drift_n2_op(t, x, horizon) -> Op:
    """A library call: the finite-horizon drift at N=2, where survival takes
    the erf route and the drift has a closed form to check against."""

    def check(drift: np.ndarray) -> None:
        # N_2(tau, x) = erf(z), z = gap / (2 sqrt(tau)); the drift is (-g, g)
        # with g = d/dgap log erf(z)
        scale = 2.0 * math.sqrt(horizon - t)
        z = (x[1] - x[0]) / scale
        g = 2.0 / math.sqrt(math.pi) * math.exp(-z * z) / (scale * math.erf(z))
        _expect(drift.shape == (2,), f"drift shape {drift.shape}")
        _expect(bool(np.allclose(drift, [-g, g], rtol=1e-6, atol=0.0)), f"drift {drift} != {[-g, g]}")

    def corrupt(drift: np.ndarray) -> np.ndarray:
        return drift * (1.0 + 1e-4)

    return _lib("drift.inhomogeneous", lambda: diffusion.drift_inhomogeneous(t, x, horizon), check, corrupt)


def _mc_agrees(value: float, t: float, x, seed: int, samples: int, cli_samples: int) -> None:
    est, se = diffusion.survival_mc(t, x, np.random.default_rng(seed), samples)
    sigma = math.hypot(se, se * math.sqrt(samples / cli_samples))
    _expect(math.isfinite(value) and 0.0 <= value <= 1.0, f"survival {value}")
    _expect(abs(value - est) <= 5.0 * sigma, f"survival {value} vs Monte Carlo {est} +- {sigma}")


def _survival_mc_op(t, x, seed, out) -> Op:
    check_seed = seed ^ 0x5EED

    def check(text: str) -> None:
        _mc_agrees(float(text), t, x, check_seed, MC_CHECK_SAMPLES, MC_CLI_SAMPLES)

    def corrupt(text: str) -> str:
        return repr(float(text) + 0.05) + "\n"

    argv = ["density", "--kind", "survival", "--t", t, "--x", _floats(x), "--seed", seed]
    return _cli("survival.montecarlo", argv, out, check, corrupt)


def _survival_n3_op(t, x, seed, out) -> Op:
    def check(text: str) -> None:
        # the quadrature error is below 1e-7, so the Monte Carlo error dominates
        _mc_agrees(float(text), t, x, seed, MC_CLI_SAMPLES, 10**12)

    def corrupt(text: str) -> str:
        return repr(float(text) + 0.05) + "\n"

    argv = ["density", "--kind", "survival", "--t", t, "--x", _floats(x)]
    return _cli("survival.n3", argv, out, check, corrupt)


def _grid_op(kind, argv, count, out) -> Op:
    def check(text: str) -> None:
        lines = _csv_values(text, 0, "y1,y2,value", count * count)
        values = np.array([float(line.rsplit(",", 1)[1]) for line in lines])
        _expect(bool(np.all(np.isfinite(values)) and np.all(values >= 0)), "bad density value")
        _expect(bool(np.any(values > 0)), "density vanishes on the whole grid")

    def corrupt(text: str) -> str:
        lines = text.splitlines(keepends=True)
        head, _, _ = lines[-1].rpartition(",")
        return "".join(lines[:-1]) + head + ",-1.0\n"

    return _cli(f"density.grid.{kind}", argv, out, check, corrupt)


# ---------------------------------------------------------------------------
# simulate-io: CSV writers and the verify-sde reader
# ---------------------------------------------------------------------------

IO_ROUND = (  # (command, N, paths), steps fixed at IO_STEPS
    ("simulate-dyson", 2, 16),
    ("simulate-dyson", 3, 12),
    ("simulate-matrix", 2, 16),
    ("simulate-matrix", 3, 12),
    ("simulate-matrix", 4, 10),
    ("simulate-matrix", 5, 8),
    ("simulate-matrix", 6, 8),
    ("simulate-inhomogeneous", 2, 16),
)
IO_STEPS = 100
IO_READ_BACK = (("simulate-dyson", 3), ("simulate-matrix", 4), ("simulate-inhomogeneous", 2))
GAMMA_STEPS = 2000


def _paths_op(label, command, rnd, work, n, t, steps, paths, horizon=None, ks=None) -> Op:
    """One simulate command writing a CSV of paths * steps * n rows."""
    seed = rnd.randrange(2**31)
    out = work / f"{label}-n{n}-{seed}.csv"
    argv = [command, "--n", n, "--t", t, "--steps", steps, "--paths", paths, "--seed", seed]
    if horizon is not None:
        argv += ["--horizon", horizon]

    def check(text: str) -> None:
        states = _paths_array(text, seed, paths, steps, n)
        if ks is not None:
            ks(states[:, -1, :])

    return _cli(label, argv, out, check, _drop_last_line, path_values=paths * steps * n)


def _simulate_io(rnd: random.Random, work: Path, tiny: bool) -> list[Op]:
    ops: list[Op] = []
    rounds = 1 if tiny else 10
    steps = IO_STEPS  # verify-sde's drift regression needs the fine grid
    t = _round(rnd.uniform(0.5, 2.0))
    horizon = _round(t * rnd.uniform(1.0, 2.0))
    # N=2 dyson and matrix terminal states must share one law (KS check on
    # the last op of each pair; earlier files are read back from disk)
    terminal_files: dict[str, list[tuple[Path, int, int]]] = {"simulate-dyson": [], "simulate-matrix": []}

    def ks_against(command: str, last: bool):
        if not last:
            return None
        other = "simulate-matrix" if command == "simulate-dyson" else "simulate-dyson"

        def ks(own: np.ndarray) -> None:
            mine = [_terminal(*f) for f in terminal_files[command][:-1]] + [own]
            theirs = [_terminal(*f) for f in terminal_files[other]]
            _ks(np.concatenate(mine), np.concatenate(theirs), "dyson vs eigenvalues")

        return ks

    for r in range(rounds):
        written: dict[tuple[str, int], Op] = {}
        for command, n, paths in IO_ROUND:
            paths = min(paths, 6) if tiny else paths
            last = r == rounds - 1 and command != "simulate-inhomogeneous" and n == 2
            op = _paths_op(
                command, command, rnd, work, n=n, t=t, steps=steps, paths=paths,
                horizon=horizon if command == "simulate-inhomogeneous" else None,
                ks=ks_against(command, last) if n == 2 else None,
            )
            if n == 2 and command in terminal_files:
                terminal_files[command].append((op.out, paths, steps))
            written[(command, n)] = op
            ops.append(op)
        for key in IO_READ_BACK:
            ops.append(_verify_sde_op(written[key].out, rnd.randrange(2**31), work))
    return ops


def _terminal(path: Path, paths: int, steps: int) -> np.ndarray:
    _expect(path.exists(), f"missing {path.name}")
    text = path.read_text(encoding="utf-8")
    seed = int(text.split("\n", 1)[0].split("=", 1)[1])
    return _paths_array(text, seed, paths, steps, 2)[:, -1, :]


def _all_finite(value: Any) -> bool:
    if isinstance(value, dict):
        return all(_all_finite(v) for v in value.values())
    if isinstance(value, list):
        return all(_all_finite(v) for v in value)
    if isinstance(value, float):
        return math.isfinite(value)
    return True


def _verify_sde_op(infile: Path, seed: int, work: Path) -> Op:
    out = work / f"verify-sde-{seed}.json"

    def check(text: str) -> None:
        report = json.loads(text)
        for key in ("slope", "intercept", "qv_per_time", "gamma", "n_points"):
            _expect(key in report, f"report lacks {key}")
        _expect(_all_finite(report), "non-finite value in the report")
        _expect(report["seed"] == seed, "report seed")

    def corrupt(text: str) -> str:
        report = json.loads(text)
        report["slope"] = float("nan")
        return json.dumps(report)

    argv = ["verify-sde", "--in", infile, "--gamma-steps", GAMMA_STEPS, "--seed", seed]
    return _cli("verify-sde", argv, out, check, corrupt, reads=(infile,))


# ---------------------------------------------------------------------------
# simulate-batch: library integrators, no I/O
# ---------------------------------------------------------------------------

BATCH_STEPS = 100


def _simulate_batch(rnd: random.Random, work: Path, tiny: bool) -> list[Op]:
    ops: list[Op] = []
    steps = 10 if tiny else BATCH_STEPS
    scale = 10 if tiny else 1
    t_ks = _round(rnd.uniform(0.5, 2.0))
    dyson2: list[np.ndarray] = []
    eigen2: list[np.ndarray] = []

    def gen() -> np.random.Generator:
        return np.random.default_rng(rnd.randrange(2**31))

    def ordered(shape):
        def check(states: np.ndarray) -> None:
            _expect(np.shape(states) == shape, f"shape {np.shape(states)} != {shape}")
            _check_states(states)

        return check

    def ks_check(shape, store, other, last):
        def check(states: np.ndarray) -> None:
            ordered(shape)(states)
            if last:
                mine = store[:-1] + [states]
                _ks(np.concatenate(mine), np.concatenate(other), "dyson vs eigenvalues")

        return check

    for _ in range(1 if tiny else 10):
        paths = 400 // scale
        ops.append(_lib(
            "dyson_terminal_batch.origin.n2",
            _call(diffusion, "dyson_terminal_batch", 2, t_ks, steps, paths, gen()),
            ordered((paths, 2)), _reverse_array,
            store=dyson2, path_values=paths * steps * 2,
        ))
    for _ in range(1 if tiny else 14):
        paths = 200 // scale
        ops.append(_lib(
            "dyson_terminal_batch.origin.n3",
            _call(diffusion, "dyson_terminal_batch", 3, _round(rnd.uniform(0.5, 2.0)), steps, paths, gen()),
            ordered((paths, 3)), _reverse_array, path_values=paths * steps * 3,
        ))
    for n in (4, 5, 6):
        for _ in range(1 if tiny else 5):
            paths = 200 // scale
            x0 = np.array(_chamber_point(rnd, n))
            ops.append(_lib(
                "dyson_terminal_batch.chamber",
                _call(diffusion, "dyson_terminal_batch", n, _round(rnd.uniform(0.5, 2.0)),
                      steps, paths, gen(), x0=x0),
                ordered((paths, n)), _reverse_array, path_values=paths * steps * n,
            ))
    for _ in range(1 if tiny else 8):
        paths = 100 // scale
        ops.append(_lib(
            "dyson_trajectories",
            _call(diffusion, "dyson_trajectories", 3, _round(rnd.uniform(0.5, 2.0)), steps, paths, gen()),
            ordered((paths, steps, 3)), _reverse_array, path_values=paths * steps * 3,
        ))
    for n in range(2, 9):
        for _ in range(1 if tiny else 2):
            paths, esteps = 100 // scale, steps // 2
            ops.append(_lib(
                "eigen_trajectories",
                _call(rmt, "eigen_trajectories", n, _round(rnd.uniform(0.5, 2.0)), esteps, paths, gen()),
                ordered((paths, esteps, n)), _reverse_array, path_values=paths * esteps * n,
            ))
    for n in range(2, 9):
        for k in range(1 if tiny else 4):
            paths = 2000 // scale
            last = n == 2 and k == (0 if tiny else 3)
            t = t_ks if n == 2 else _round(rnd.uniform(0.5, 2.0))
            ops.append(_lib(
                "eigen_terminal_batch",
                _call(rmt, "eigen_terminal_batch", n, t, paths, gen()),
                ks_check((paths, n), eigen2, dyson2, last) if n == 2 else ordered((paths, n)),
                _shift_array if n == 2 else _reverse_array,
                store=eigen2 if n == 2 else None, path_values=paths * n,
            ))
    for _ in range(1 if tiny else 8):
        paths = 200 // scale
        t = _round(rnd.uniform(0.5, 2.0))
        ops.append(_lib(
            "inhomogeneous_terminal_batch",
            _call(diffusion, "inhomogeneous_terminal_batch", 2, _round(t * rnd.uniform(1.0, 2.0)),
                  t, steps, paths, gen()),
            ordered((paths, 2)), _reverse_array, path_values=paths * steps * 2,
        ))
    for _ in range(1 if tiny else 3):
        paths, qsteps = 200 // scale, steps // 2
        ops.append(_lib(
            "drift_qv_report",
            _call(rmt, "drift_qv_report", 3, paths, qsteps, 1e-3, gen()),
            _check_report, _nan_report, path_values=paths * qsteps * 3,
        ))
    return ops


def _call(module, name: str, *args, **kwargs) -> Callable[[], Any]:
    """Call ``module.name`` looked up at call time, so a traced wrapper
    installed on the module is used."""

    def run():
        return getattr(module, name)(*args, **kwargs)

    return run


def _check_report(report) -> None:
    fields = report.to_dict()
    _expect(_all_finite(fields), f"non-finite drift/QV report {fields}")
    _expect(report.n_points > 0, "empty drift/QV report")


def _nan_report(report):
    return dataclasses.replace(report, slope=float("nan"))
