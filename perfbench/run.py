"""Benchmark for ``noncollide``: seeded workloads, output checks, and a
traced per-layer run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload lattice --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 28 [--trace 1]

One run repeats the workload's fixed op list (built from ``--seed``) in
fresh worker processes, one pass per process, until about ``--seconds``
have gone, and reports medians over the passes. Each worker's time from
spawn to ready (imports and CLI parser built) is a set-up sample; extra
set-up-only processes top the samples up to ``SETUP_SAMPLES``. The
workers run pinned to one CPU beside the speed helper of ``speed.py``,
which puts every time on a reference-speed scale.

With ``--trace 0`` the last line of standard output is a JSON object with
every end-to-end metric of ``BENCHMARK.json``; with ``--trace 1`` untraced
and traced passes alternate and the last line holds every per-layer
metric, ``trace.overhead_s`` being the traced minus the untraced median
wall time. Each metric in that line holds exactly a ``value`` and a
``unit``. Lines before it give the machine record, every metric that
applies to the workload (those of ``BENCHMARK.json`` and the report-only
ones of ``definitions.json``) by name and unit, and the raw wall-clock
``wall_s`` and ``setup_s`` beside the reference-speed values.

``--all`` runs every workload, adds the requests that hang at this commit
(``probe_ops`` in ``workloads.py``) to simulate-io, and prints one summary
line per workload, then exits 0 whatever failed. Full records go to
``.perfbench_work/results/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
WORKER = HERE / "worker.py"
SETUP_SAMPLES = 3
RUN_LIMIT_S = 170.0  # a run that is not done by then is stopped and fails
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class RunFailed(Exception):
    """A worker process did not complete; the run prints no result."""


def _definitions() -> dict:
    return json.loads((HERE / "definitions.json").read_text(encoding="utf-8"))


def _benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _worker_env() -> dict:
    """Single-threaded BLAS and OpenMP (at most nproc), fixed hash seed."""
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def _spawn(extra: list[str], helper: speed.Helper) -> tuple[subprocess.Popen, float, float]:
    """Start a worker on the helper's CPU; return it with the times it was
    spawned and got ready."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *extra],
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        env=_worker_env(),
        cwd=ROOT,
        text=True,
        preexec_fn=lambda: speed.pin(helper.cpu),
    )
    line = proc.stdout.readline().strip()
    ready = time.perf_counter()
    if line != "ready":
        _finish(proc)
        raise RunFailed(f"worker did not get ready (exit code {proc.returncode})")
    return proc, start, ready


def _setup(helper: speed.Helper, start: float, ready: float) -> tuple[float, float]:
    """Set-up time at reference speed and raw."""
    return (ready - start) * speed.Samples(helper.path).scale(start, ready), ready - start


def _finish(proc: subprocess.Popen, timeout: float = RUN_LIMIT_S) -> None:
    try:
        proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RunFailed(f"worker still running after {timeout:.0f} s") from None


def _pass(
    workload: str, seed: int, index: int, traced: bool, probes: bool, timeout: float, helper: speed.Helper
) -> dict:
    result = WORK / f"pass-{os.getpid()}-{index}.json"
    proc, start, ready = _spawn([
        "--workload", workload, "--seed", str(seed), "--trace", str(int(traced)),
        "--probes", str(int(probes)), "--work", str(WORK / f"ops-{os.getpid()}-{index}"),
        "--result", str(result), "--speed", str(helper.path),
    ], helper)
    _finish(proc, timeout)
    if proc.returncode != 0 or not result.exists():
        raise RunFailed(f"pass {index} of {workload} exited with code {proc.returncode}")
    record = json.loads(result.read_text(encoding="utf-8"))
    result.unlink()
    record["setup_s"], record["raw_setup_s"] = _setup(helper, start, ready)
    record["traced"] = traced
    return record


def _setup_probe(helper: speed.Helper) -> tuple[float, float]:
    proc, start, ready = _spawn(["--setup-only"], helper)
    _finish(proc)
    if proc.returncode != 0:
        raise RunFailed(f"set-up probe exited with code {proc.returncode}")
    return _setup(helper, start, ready)


def measure(workload: str, seed: int, seconds: float, trace: bool, probes: bool = False) -> dict:
    """Passes until about ``seconds`` have gone (at least one; with trace,
    at least one untraced and one traced, alternating), with the speed
    helper sampling the workers' CPU throughout."""
    WORK.mkdir(exist_ok=True)
    start = time.perf_counter()
    passes: list[dict] = []
    with speed.Helper(WORK / f"speed-{os.getpid()}.txt", speed.measured_cpu()) as helper:
        try:
            helper.wait_first_sample()
        except RuntimeError as exc:
            raise RunFailed(str(exc)) from None
        while True:
            traced = trace and len(passes) % 2 == 1
            timeout = RUN_LIMIT_S - (time.perf_counter() - start)
            passes.append(_pass(workload, seed, len(passes), traced, probes, timeout, helper))
            elapsed = time.perf_counter() - start
            if trace and len(passes) < 2:
                continue
            if elapsed + elapsed / len(passes) > seconds:
                break
        setups = [(p["setup_s"], p["raw_setup_s"]) for p in passes]
        while len(setups) < SETUP_SAMPLES:
            setups.append(_setup_probe(helper))
    return {"passes": passes, "setups": setups, "seconds": time.perf_counter() - start}


def _quantile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated (``statistics.quantiles``, inclusive)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _ratio(num: float, den: float) -> float | None:
    return num / den if den > 0 else None


def end_to_end(run: dict) -> dict[str, float | None]:
    """Every end-to-end metric, bounded and report-only, from untraced
    passes; None where a workload has no op of the kind a metric needs."""
    plain = [p for p in run["passes"] if not p["traced"]]
    latencies = [op[1] for p in plain for op in p["ops"]]
    attempted = len(latencies)
    failed = sum(op[2] is not None for p in plain for op in p["ops"])
    units = {key: sum(p["units"][key] for p in plain) for key in plain[0]["units"]}
    return {
        "setup_s": statistics.median(s[0] for s in run["setups"]),
        "wall_s": statistics.median(p["wall_s"] for p in plain),
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "op_p90_ms": 1e3 * _quantile(latencies, 90),
        "failed_op_ratio": failed / attempted,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
        "walk_draws_per_s": _ratio(units["walk_draws"], units["walk_s"]),
        "path_values_per_s": _ratio(units["path_values"], units["simulate_s"]),
        "csv_read_mb_per_s": _ratio(units["csv_read_bytes"] / 1e6, units["csv_read_s"]),
    }


def per_layer(run: dict) -> tuple[dict[str, float], list[str]]:
    """Medians over the traced passes, plus the tracing overhead."""
    traced = [p for p in run["passes"] if p["traced"]]
    plain = [p for p in run["passes"] if not p["traced"]]
    names = traced[0]["layers"].keys()
    layers = {name: statistics.median(p["layers"][name] for p in traced) for name in names}
    layers["trace.overhead_s"] = statistics.median(p["wall_s"] for p in traced) - statistics.median(
        p["wall_s"] for p in plain
    )
    return layers, traced[0]["absent"]


def _git_commit() -> str | None:
    """HEAD of the checkout's own .git, read as files (no git process, so
    nothing outside the checkout is consulted); None when not a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text(encoding="utf-8").splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def machine(run: dict, seed: int) -> dict:
    return {
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        **run["passes"][0]["software"],
        "thread_env": {var: _worker_env()[var] for var in THREAD_VARS},
        "commit": _git_commit(),
        "seed": seed,
    }


def _fmt(value: float | None) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def _describe(workload: str, run: dict, metrics: dict, units: dict) -> list[str]:
    plain = [p for p in run["passes"] if not p["traced"]]
    ops_per_pass = len(plain[0]["ops"])
    failures = [(op[0], op[2]) for p in run["passes"] for op in p["ops"] if op[2] is not None]
    lines = [
        f"{workload}: {len(plain)} untraced pass(es) of {ops_per_pass} ops = "
        f"{ops_per_pass * len(plain)} ops timed; {len(run['setups'])} set-up samples; "
        f"{run['seconds']:.1f} s"
    ]
    lines += [f"  {name} = {_fmt(value)} {units[name]}" for name, value in metrics.items()]
    lines += [f"  FAILED {label}: {why}" for label, why in sorted(set(failures))]
    return lines


def _measure(workload: str, seed: int, seconds: int, trace: bool, probes: bool) -> tuple[dict, dict]:
    """Measure and print the workload's summary lines; return the run and
    its record."""
    bench = _benchmark()
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    units.update((name, spec["unit"]) for name, spec in _definitions()["report_metrics"].items())
    run = measure(workload, seed, seconds, trace, probes)
    metrics = {k: v for k, v in end_to_end(run).items() if v is not None}
    plain = [p for p in run["passes"] if not p["traced"]]
    raw = {
        "wall_s": statistics.median(p["raw_wall_s"] for p in plain),
        "setup_s": statistics.median(s[1] for s in run["setups"]),
    }
    record = {"workload": workload, "machine": machine(run, seed), "end_to_end": metrics, "raw": raw}
    print("machine " + json.dumps(record["machine"], sort_keys=True))
    print("\n".join(_describe(workload, run, metrics, units)))
    print(f"  raw wall clock: wall_s = {_fmt(raw['wall_s'])} s, setup_s = {_fmt(raw['setup_s'])} s")
    if trace:
        record["per_layer"], record["absent"] = per_layer(run)
        if record["absent"]:
            print(f"  absent layer targets: {', '.join(record['absent'])}")
    return run, record


def run_one(workload: str, seed: int, seconds: int, trace: bool) -> int:
    run, record = _measure(workload, seed, seconds, trace, probes=False)
    _save(record, f"{workload}-seed{seed}-trace{int(trace)}")
    bench = _benchmark()
    selected = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    values = record["per_layer"] if trace else record["end_to_end"]
    attempted = sum(len(p["ops"]) for p in run["passes"])
    failed = sum(op[2] is not None for p in run["passes"] for op in p["ops"])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in selected.items()
            if name in values
        },
    }))
    return 0


def run_all(seed: int, seconds: int, trace: bool) -> int:
    """Every workload, with the known-hang probes on simulate-io."""
    for workload in _definitions()["workloads"]:
        _, record = _measure(workload, seed, seconds, trace, probes=workload == "simulate-io")
        _save(record, f"all-{workload}-seed{seed}-trace{int(trace)}")
        for name, value in record.get("per_layer", {}).items():
            print(f"    {name} = {_fmt(value)}")
        print(json.dumps(record, sort_keys=True), flush=True)
    return 0


def _save(record: dict, stem: str) -> None:
    out = WORK / "results" / f"{stem}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--workload")
    group.add_argument("--all", action="store_true")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=28)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "noncollide" / "__init__.py").is_file():
        print(f"error: no noncollide sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload is not None and args.workload not in _definitions()["workloads"]:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2
    try:
        if args.all:
            return run_all(args.seed, args.seconds, bool(args.trace))
        return run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
