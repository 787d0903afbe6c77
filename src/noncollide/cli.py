"""Command-line entry point: counting, conversion, evaluation, sampling,
simulation, and verification with reproducible seeds.

Sampling commands write CSV with a fixed header preceded by a ``# seed=``
comment line; rerunning any of them with identical flags and seed produces
byte-identical output. The simulate commands write one chunk of paths at a
time, each path formatted as one text block; floats are written with
``repr``, so ``verify-sde`` reads back the exact values. Scalar commands
print their value (exact integers and rationals in full decimal, never
scientific notation); ``density --grid`` is one batched library call,
written one grid row at a time with each coordinate formatted once.

The global flags are ``--seed``, ``--out`` and ``--format``, accepted before
or after the subcommand; every command, ``verify`` included, writes to
``--out`` or stdout. ``density --kind survival`` is de Bruijn's erf
Pfaffian, the one survival route (quadrature, the small-gap asymptotic and
Monte Carlo are library test oracles), and ``density`` refuses a flag that
its kind does not use.

Importing this module loads numpy and the package only; scipy is imported
on first use, by the commands that need it: ``density --kind g`` and
``--kind survival`` (de Bruijn's erf Pfaffian), ``simulate-inhomogeneous``
(its drift is that Pfaffian), ``scaling-check`` (Pochhammer symbols) and the
``verify`` suites that run a KS or erf check. The lattice commands,
``density --kind km`` and ``p``, ``simulate-dyson``, ``simulate-matrix``
and ``verify-sde`` never load it.

The parser is built once per process, on the first ``build_parser()`` call,
and every later call and every ``run`` share it. Callers must not modify it.
It is built from code alone and holds nothing from a request:
``parse_args`` returns a fresh namespace and leaves the parser as it was,
and the handlers reach the library through module attributes at call time.
"""

from __future__ import annotations

import argparse
import contextlib
import decimal
import filecmp
import functools
import json
import math
import re
import sys
import tempfile
import warnings
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import combinat, diffusion, lgv, rmt, schur, suites, walks
from .combinat import NotRealizableError
from .verify import TestReport


@dataclass(frozen=True)
class RunConfig:
    seed: int
    out: str | None
    fmt: str


def _ints(text: str) -> tuple[int, ...]:
    if not text:
        return ()
    return tuple(int(v) for v in text.split(","))


def _floats(text: str) -> tuple[float, ...]:
    if not text:
        return ()
    return tuple(float(v) for v in text.split(","))


def _vertices(text: str):
    out = []
    for token in text.split(";"):
        token = token.strip()
        if "," in token:
            out.append(tuple(int(v) for v in token.split(",")))
        else:
            try:
                out.append(int(token))
            except ValueError:
                out.append(token)
    return out


@contextlib.contextmanager
def _open_out(cfg: RunConfig):
    """The --out file, closed on exit, or stdout."""
    if cfg.out is None:
        yield sys.stdout
        return
    with open(cfg.out, "w", encoding="utf-8", newline="") as stream:
        yield stream


def _text(value) -> str:
    """``str(value)``, with integers and rationals in full decimal at any
    length (``str(int)`` stops at 4300 digits, ``Decimal`` does not)."""
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return _text(value.numerator)
        return f"{_text(value.numerator)}/{_text(value.denominator)}"
    if isinstance(value, int) and not isinstance(value, bool):
        return str(decimal.Decimal(value))
    return str(value)


def _emit_value(cfg: RunConfig, value, extra: dict | None = None) -> None:
    with _open_out(cfg) as stream:
        if cfg.fmt == "json":
            payload = {"seed": cfg.seed, "value": _text(value)}
            if extra:
                payload.update(extra)
            print(json.dumps(payload, sort_keys=True), file=stream)
        else:
            print(_text(value), file=stream)


def _write_rows(cfg: RunConfig, header: Sequence[str], blocks: Iterable[str]) -> None:
    """Write CSV text blocks (whole lines) after the seed comment and the
    header. ``blocks`` is consumed lazily, so a refused format costs no work,
    and its first block is computed before --out is opened, so a run that
    fails there leaves no file."""
    if cfg.fmt == "json":
        raise ValueError("sampling output is CSV only; use --format csv")
    blocks = iter(blocks)
    first = next(blocks, "")
    with _open_out(cfg) as stream:
        stream.write(f"# seed={cfg.seed}\n" + ",".join(header) + "\n" + first)
        for block in blocks:
            stream.write(block)


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_count(args, cfg: RunConfig) -> int:
    start = _ints(args.start)
    end = _ints(args.end)
    if len(start) != len(end):
        raise ValueError("start and end must list the same number of walkers")
    if args.steps < 0:
        raise ValueError(f"--steps must be nonnegative, got {args.steps}")
    for i, (a, b) in enumerate(zip(start, end)):
        if (args.steps + a - b) % 2 != 0:
            raise ValueError(
                f"parity error: walker {i + 1} cannot reach {b} from {a} "
                f"in {args.steps} steps"
            )
    _emit_value(cfg, walks.count_vicious(start, end, args.steps))
    return 0


def _cmd_schur(args, cfg: RunConfig) -> int:
    shape = combinat.Partition(_ints(args.shape))
    z = schur.EvalPoint(args.points.split(",")) if args.points else None
    if args.method == "principal":
        if z is not None:
            if any(v != 1 for v in z.values):
                raise ValueError("principal method evaluates at all-ones points")
            n_vars = len(z)
        else:
            n_vars = args.n_vars
            if n_vars is None:
                raise ValueError("principal method needs --points or --n-vars")
        _emit_value(cfg, schur.principal_specialization(shape, n_vars))
        return 0
    if z is None:
        raise ValueError(f"method {args.method} needs --points")
    fn = {
        "ssyt": schur.schur_ssyt_sum,
        "bialternant": schur.schur_bialternant,
        "dualjt": schur.schur_dual_jt,
    }[args.method]
    _emit_value(cfg, fn(shape, z))
    return 0


def _load_json(path: str, parse, what: str):
    """parse(the JSON in the file at path, or on stdin for "-"); text that
    is not JSON, or JSON of the wrong shape (a number where a list belongs,
    an object where a vertex does, a missing key), raises ValueError naming the file."""
    with contextlib.nullcontext(sys.stdin) if path == "-" else open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:  # not JSON, or not UTF-8
            raise ValueError(f"{path}: not JSON ({exc})") from None
    try:
        return parse(data)
    except (TypeError, KeyError) as exc:
        detail = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        raise ValueError(f"{path}: not a {what} ({detail})") from None


def _cmd_tableau(args, cfg: RunConfig) -> int:
    if args.to == "ssyt":
        record = _load_json(args.infile, combinat.WalkRecord.from_json, "walk record")
        result = combinat.walk_to_tableau(record).to_json()
    else:
        tableau = _load_json(args.infile, combinat.SSYT.from_json, "tableau")
        if args.n is None or args.steps is None:
            raise ValueError("to-walk conversion needs --n and --steps")
        result = combinat.tableau_to_walk(tableau, args.n, args.steps).to_json()
    with _open_out(cfg) as stream:
        json.dump(result, stream, sort_keys=True)
        stream.write("\n")
    return 0


def _cmd_lgv(args, cfg: RunConfig) -> int:
    graph = _load_json(args.graph, lgv.PathGraph.from_json, "path graph")
    sources = _vertices(args.sources)
    sinks = _vertices(args.sinks)
    det = lgv.lgv_determinant(graph, sources, sinks)
    extra = {}
    if args.check_compatibility:
        extra["compatible"] = lgv.check_compatibility(graph, sources, sinks)
    if cfg.fmt == "json":
        _emit_value(cfg, det, extra)
    else:
        with _open_out(cfg) as stream:
            print(_text(det), file=stream)
            if args.check_compatibility:
                print(f"compatible: {str(extra['compatible']).lower()}", file=stream)
    return 0


def _cmd_sample_walk(args, cfg: RunConfig) -> int:
    start = walks.check_start(_ints(args.start))  # before --out is opened
    for flag, value in (("--steps", args.steps), ("--n", args.n)):
        if value < 0:
            raise ValueError(f"{flag} must be nonnegative, got {value}")
    rng = np.random.default_rng(cfg.seed)

    def blocks():
        for sample_id in range(args.n):
            record = walks.sample_conditioned(start, args.steps, rng)
            yield "".join(
                f"{sample_id},{t},{walker_id},{position}\n"
                for t, positions in enumerate(record.positions())
                for walker_id, position in enumerate(positions)
            )

    _write_rows(cfg, ("sample_id", "t", "walker_id", "position"), blocks())
    return 0


def _cmd_scaling_check(args, cfg: RunConfig) -> int:
    lhs, rhs = walks.scaling_check(
        _ints(args.start), args.t, _floats(args.y), args.scale
    )
    rel = abs(lhs / rhs - 1.0) if rhs else float("inf")
    with _open_out(cfg) as stream:
        if cfg.fmt == "json":
            print(
                json.dumps(
                    {"lhs": lhs, "rhs": rhs, "relative_error": rel, "seed": cfg.seed},
                    sort_keys=True,
                ),
                file=stream,
            )
        else:
            print(f"lhs {lhs!r}", file=stream)
            print(f"rhs {rhs!r}", file=stream)
            print(f"relative_error {rel!r}", file=stream)
    return 0


def _chunk(args, size: int, rng: np.random.Generator) -> np.ndarray:
    """(size, steps, n) paths of the simulate command's process."""
    return diffusion.trajectories(
        args.process, args.n, args.t, args.steps, size, rng,
        horizon=getattr(args, "horizon", None),
    )


CHUNK_VALUES = 2_000_000  # simulated values per chunk of paths


def _cmd_simulate(args, cfg: RunConfig) -> int:
    if args.process == "finite-horizon" and args.t > args.horizon:
        raise ValueError("--t must not exceed --horizon")
    if args.steps < 1 or args.paths < 1 or args.n < 1:
        raise ValueError("need positive --n, --steps and --paths")
    dt = args.t / args.steps
    chunk = max(1, CHUNK_VALUES // (args.steps * args.n))
    sizes = [min(chunk, args.paths - done) for done in range(0, args.paths, chunk)]
    # the ",t,i," middle of every row of a path, in (t, i) order
    mids = [f",{(k + 1) * dt!r},{i}," for k in range(args.steps) for i in range(args.n)]

    def blocks():
        # chunks run in order, each on a child seed spawned in chunk order
        seeds = np.random.SeedSequence(cfg.seed).spawn(len(sizes))
        pid = 0
        for size, seq in zip(sizes, seeds):
            # a module attribute looked up per chunk, so a test can substitute it
            block = _chunk(args, size, np.random.default_rng(seq))
            for values in block.reshape(block.shape[0], -1):
                head = str(pid)
                yield "".join(
                    [head + mid + repr(v) + "\n" for mid, v in zip(mids, values.tolist())]
                )
                pid += 1

    _write_rows(cfg, ("path_id", "t", "i", "value"), blocks())
    return 0


# the grid is count^2 points, held as (count^2, 2) float arrays several
# times over; its CSV, about 50 bytes a row, is written one grid row at a
# time. At count 1000 (a million rows, 51 MB of CSV) a run peaked at 87 MiB
# RSS for kind p from the origin and 156 MiB for kind g from a chamber point,
# which loads scipy (Python 3.11, numpy 2.4); count 30,000 would take 14 GB
# for the points alone
GRID_COUNT_LIMIT = 1000


def _cmd_density(args, cfg: RunConfig) -> int:
    unused = {"km": ("s", "horizon"), "p": ("horizon",), "survival": ("s", "y", "horizon")}
    for name in unused.get(args.kind, ()):
        if getattr(args, name) is not None:
            raise ValueError(f"kind {args.kind} takes no --{name}")
    s = 0.0 if args.s is None else args.s
    x = None if args.x in (None, "", "origin") else _floats(args.x)
    if args.kind in ("km", "survival") and x is None:
        raise ValueError(f"kind {args.kind} needs --x")
    if args.kind == "g" and args.horizon is None:
        raise ValueError("kind g needs --horizon")
    if args.grid and args.y:
        raise ValueError("give --grid or --y, not both")
    if args.grid:
        if args.kind == "survival":
            raise ValueError("grid output supports kinds km, g, p")
        try:
            lo, hi, count = args.grid.split(":")
            lo, hi, count = float(lo), float(hi), int(count)
        except ValueError:
            raise ValueError(f"--grid must be lo:hi:count, got {args.grid!r}") from None
        if not 0 <= count <= GRID_COUNT_LIMIT:
            raise ValueError(f"--grid count must be in 0..{GRID_COUNT_LIMIT}, got {count}")
        ys = np.linspace(lo, hi, count)
        y = np.stack(np.meshgrid(ys, ys, indexing="ij"), axis=-1)
    elif args.y:
        y = diffusion._as_point(_floats(args.y))
    elif args.kind != "survival":
        raise ValueError(f"kind {args.kind} needs --y")
    if args.kind == "survival":
        value = diffusion.survival(args.t, x)
    elif args.kind == "km":
        value = diffusion.km_density(args.t, x, y)
    elif args.kind == "g":
        value = diffusion.transition_inhomogeneous(s, x, args.t, y, args.horizon)
    else:
        value = diffusion.transition_homogeneous(s, x, args.t, y)
    if not args.grid:
        _emit_value(cfg, repr(float(value)))
        return 0
    # row (i, j) is ys[i], ys[j], which meshgrid copies exactly, so each
    # coordinate is formatted once; one text block per grid row
    cells = [repr(v) + "," for v in ys.tolist()]

    def blocks():
        for a, row in zip(cells, value):
            yield "".join([a + b + repr(v) + "\n" for b, v in zip(cells, row.tolist())])

    _write_rows(cfg, ("y1", "y2", "value"), blocks())
    return 0


def _cmd_verify_sde(args, cfg: RunConfig) -> int:
    if args.gamma_steps < 1:  # before the CSV is read
        raise ValueError(f"--gamma-steps must be positive, got {args.gamma_steps}")
    paths = _read_paths_csv(args.infile)
    report = rmt.estimate_drift_qv(paths)
    gamma = rmt.estimate_gamma(
        paths[0].n_particles, args.gamma_steps, np.random.default_rng(cfg.seed)
    )
    payload = report.to_dict()
    payload["gamma"] = [[float(v) for v in row] for row in gamma]
    payload["seed"] = cfg.seed
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    with _open_out(cfg) as stream:
        stream.write(text)
    return 0


def _read_paths_csv(path: str) -> list[diffusion.SamplePath]:
    """The paths of a simulate CSV (seed line, header, then path_id,t,i,value
    rows in any order). Every (path_id, t, i) of the full grid must appear
    exactly once."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # an empty file is refused below
        data = np.loadtxt(path, delimiter=",", comments="#", skiprows=2, ndmin=2)
    if data.shape[0] == 0 or data.shape[1] != 4:
        raise ValueError(f"{path}: expected rows of path_id,t,i,value")
    pid, t, i, value = data.T
    order = np.lexsort((i, t, pid))
    axes = (np.unique(pid), np.unique(t), np.unique(i))
    shape = tuple(a.size for a in axes)
    expected = math.prod(shape)
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    if data.shape[0] != expected or not np.array_equal(data[order, :3], grid):
        raise ValueError(
            f"{path}: expected paths*steps*N = {shape[0]}*{shape[1]}*{shape[2]} "
            f"= {expected} rows, one per (path_id, t, i); found {data.shape[0]}"
        )
    return [diffusion.SamplePath(axes[1], states) for states in value[order].reshape(shape)]


DETERMINISM_COMMANDS: list[list[str]] = [
    ["sample-walk", "--start", "0,2", "--steps", "4", "--n", "40"],
    ["simulate-dyson", "--n", "2", "--t", "0.25", "--steps", "32", "--paths", "6"],
    ["simulate-matrix", "--n", "2", "--t", "0.25", "--steps", "32", "--paths", "6"],
    [
        "simulate-inhomogeneous",
        "--n",
        "2",
        "--horizon",
        "0.5",
        "--t",
        "0.5",
        "--steps",
        "32",
        "--paths",
        "6",
    ],
]


def determinism_suite() -> list[TestReport]:
    """Criterion 12 helper: same seed, same flags, byte-identical files."""
    reports = []
    with tempfile.TemporaryDirectory() as tmp:
        for idx, command in enumerate(DETERMINISM_COMMANDS):
            a = str(Path(tmp) / f"a{idx}.csv")
            b = str(Path(tmp) / f"b{idx}.csv")
            code_a = run(command + ["--seed", "9001", "--out", a])
            code_b = run(command + ["--seed", "9001", "--out", b])
            same = code_a == code_b == 0 and filecmp.cmp(a, b, shallow=False)
            reports.append(
                TestReport.exact(
                    f"determinism {command[0]}", int(not same),
                    seeds=(9001,),
                    detail="rerun with identical seed is byte-identical",
                )
            )
    return reports


def _cmd_verify(args, cfg: RunConfig) -> int:
    available = dict(suites.SUITES)
    available["determinism"] = determinism_suite
    if args.suite == "all":
        names = list(available)
    else:
        names = [s.strip() for s in args.suite.split(",")]
        unknown = [n for n in names if n not in available]
        if unknown:
            raise ValueError(f"unknown suite(s): {', '.join(unknown)}")
    reports: list[TestReport] = []
    with _open_out(cfg) as stream:
        for name in names:
            for report in available[name]():
                reports.append(report)
                print(report.line(), file=stream)
        if args.report:
            payload = [r.to_dict() for r in reports]
            Path(args.report).write_text(
                json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8"
            )
        failed = sum(not r.passed for r in reports)
        print(f"{len(reports) - failed}/{len(reports)} checks passed", file=stream)
    return 0 if failed == 0 else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built on the first call; every later call returns the
    same object. It is shared by every ``run`` in the process, so callers
    must not modify it."""
    parser = argparse.ArgumentParser(
        prog="noncollide",
        description="vicious walkers, Schur functions, path determinants, "
        "and noncolliding diffusions",
    )
    parser.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    parser.add_argument(
        "--format", dest="fmt", choices=("csv", "json"), default="csv"
    )

    # the global flags are also accepted after the subcommand; SUPPRESS keeps
    # the subparser from clobbering values parsed by the main parser
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    shared.add_argument("--out", default=argparse.SUPPRESS)
    shared.add_argument(
        "--format", dest="fmt", choices=("csv", "json"), default=argparse.SUPPRESS
    )

    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name: str, **kwargs):
        return sub.add_parser(name, parents=[shared], **kwargs)

    p = add_parser("count", help="nonintersecting walk count")
    p.add_argument("--start", required=True)
    p.add_argument("--end", required=True)
    p.add_argument("--steps", type=int, required=True)
    p.set_defaults(func=_cmd_count)

    p = add_parser("tableau", help="walk/SSYT JSON conversion")
    p.add_argument("--to", choices=("ssyt", "walk"), required=True)
    p.add_argument("--in", dest="infile", default="-")
    p.add_argument("--n", type=int)
    p.add_argument("--steps", type=int)
    p.set_defaults(func=_cmd_tableau)

    p = add_parser("schur", help="exact Schur function evaluation")
    p.add_argument("--shape", required=True)
    p.add_argument("--points", default="")
    p.add_argument("--n-vars", type=int, default=None)
    p.add_argument(
        "--method",
        choices=("ssyt", "bialternant", "dualjt", "principal"),
        default="dualjt",
    )
    p.set_defaults(func=_cmd_schur)

    p = add_parser("lgv", help="path-graph determinant")
    p.add_argument("--graph", required=True)
    p.add_argument("--sources", required=True)
    p.add_argument("--sinks", required=True)
    p.add_argument("--check-compatibility", action="store_true")
    p.set_defaults(func=_cmd_lgv)

    p = add_parser("sample-walk", help="exact conditioned walk samples")
    p.add_argument("--start", required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_sample_walk)

    p = add_parser("scaling-check", help="rescaled count vs limit density")
    p.add_argument("--start", required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--scale", type=float, required=True)
    p.set_defaults(func=_cmd_scaling_check)

    for command, process, help_text in (
        ("simulate-dyson", "dyson", "interacting-particle paths"),
        ("simulate-matrix", "matrix", "matrix-process eigenvalue paths"),
        ("simulate-inhomogeneous", "finite-horizon", "finite-horizon conditioned paths"),
    ):
        p = add_parser(command, help=help_text)
        p.add_argument("--n", type=int, required=True)
        if process == "finite-horizon":
            p.add_argument("--horizon", type=float, required=True)
        p.add_argument("--t", type=float, required=True)
        p.add_argument("--steps", type=int, required=True)
        p.add_argument("--paths", type=int, required=True)
        p.set_defaults(func=_cmd_simulate, process=process)

    p = add_parser("density", help="evaluate densities / survival")
    p.add_argument("--kind", choices=("km", "g", "p", "survival"), required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--s", type=float, default=None, help="start time of g and p (default 0)")
    p.add_argument("--x", default=None)
    p.add_argument("--y", default=None)
    p.add_argument("--horizon", type=float, default=None)
    p.add_argument("--grid", default=None, help="lo:hi:count CSV grid (N=2)")
    p.set_defaults(func=_cmd_density)

    p = add_parser("verify", help="run verification suites")
    p.add_argument("--suite", default="all")
    p.add_argument("--report", default=None, help="write JSON reports here")
    p.set_defaults(func=_cmd_verify)

    p = add_parser("verify-sde", help="drift/QV report from a paths CSV")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--gamma-steps", type=int, default=20000)
    p.set_defaults(func=_cmd_verify_sde)

    # no option string starts with a digit, so treat "-1,3"-style tokens as
    # values rather than flags
    matcher = re.compile(r"^-\d")
    parser._negative_number_matcher = matcher
    for child in sub.choices.values():
        child._negative_number_matcher = matcher
    return parser


def run(argv: Sequence[str]) -> int:
    parser = build_parser()
    args = parser.parse_args(list(argv))
    cfg = RunConfig(seed=args.seed, out=args.out, fmt=args.fmt)
    try:
        return args.func(args, cfg)
    except (ValueError, KeyError, NotRealizableError, RuntimeError, OSError) as exc:
        # str() of a KeyError is the repr of its message
        message = exc.args[0] if isinstance(exc, KeyError) else exc
        print(f"error: {message}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
