"""Running a workload's ops: per-op deadline, timing, checks and counts.

``run_pass`` is what a worker process does after set-up. ``run_ops`` and
``check_ops`` are separate so the self-test can drive them directly.
"""

from __future__ import annotations

import platform
import resource
import shutil
import signal
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import workloads
from speed import Samples
from tracing import Tracer


class OpDeadline(BaseException):
    """Raised from the interval timer when an op passes its deadline.

    A BaseException, so the CLI's ``except (..., OSError)`` cannot swallow
    it (``TimeoutError`` is an ``OSError``).
    """


def _on_alarm(_signum, _frame) -> None:
    raise OpDeadline()


@dataclass
class Outcome:
    label: str
    latency_s: float  # at reference speed (see speed.py); the deadline if stopped
    raw_s: float  # wall clock
    error: str | None  # None when the op completed; checks may set it later
    value: Any = None
    scale: float = 1.0  # speed scale of the op's time span


def run_ops(
    ops: list[workloads.Op], deadline: float, speed_file: Path, tracer: Tracer | None = None
) -> list[Outcome]:
    """Run each op under the deadline, then scale each op's wall-clock time
    by the speed samples the helper (speed.py) wrote to ``speed_file``
    while it ran. An op past its deadline is stopped and counted with
    latency equal to the deadline."""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    timed = []
    try:
        for index, op in enumerate(ops):
            if tracer is not None:
                tracer.op = index
            error = value = None
            stopped = False
            start = time.perf_counter()
            try:
                signal.setitimer(signal.ITIMER_REAL, deadline)
                try:
                    value = op.run()
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
            except OpDeadline:
                stopped = True
                error = f"passed its {deadline:g} s deadline"
            except Exception as exc:  # an op that raises is a failed op
                error = f"raised {type(exc).__name__}: {exc}"
            end = time.perf_counter()
            if tracer is not None:
                tracer.op = None
            timed.append((op.label, start, end, stopped, error, value))
    finally:
        signal.signal(signal.SIGALRM, previous)
    samples = Samples(speed_file)
    outcomes = []
    for label, start, end, stopped, error, value in timed:
        scale = samples.scale(start, end)
        latency = deadline if stopped else (end - start) * scale
        outcomes.append(Outcome(label, latency, end - start, error, value, scale))
    return outcomes


def check_ops(ops: list[workloads.Op], outcomes: list[Outcome]) -> None:
    """Check every completed op's output, in op order; a wrong output, a
    non-zero exit code or a check that cannot parse the output fails it."""
    for op, outcome in zip(ops, outcomes):
        if outcome.error is not None:
            continue
        try:
            op.check(op.output(outcome.value))
        except workloads.CheckFailed as exc:
            outcome.error = f"check failed: {exc}"
        except Exception as exc:
            outcome.error = f"check raised {type(exc).__name__}: {exc}"
        outcome.value = None


def _units(ops: list[workloads.Op], outcomes: list[Outcome]) -> dict:
    """Work counts behind the throughput metrics, over completed ops."""
    units = dict.fromkeys(
        ("walk_draws", "walk_s", "path_values", "simulate_s", "csv_read_bytes", "csv_read_s",
         "bytes_written", "bytes_read"),
        0,
    )
    for op, outcome in zip(ops, outcomes):
        if outcome.error is not None:
            continue
        if op.draws:
            units["walk_draws"] += op.draws
            units["walk_s"] += outcome.latency_s
        if op.path_values:
            units["path_values"] += op.path_values
            units["simulate_s"] += outcome.latency_s
        read = sum(path.stat().st_size for path in op.reads)
        units["bytes_read"] += read
        if op.label == "verify-sde":
            units["csv_read_bytes"] += read
            units["csv_read_s"] += outcome.latency_s
        if op.out is not None and op.out.exists():
            units["bytes_written"] += op.out.stat().st_size
    return units


def _layers(tracer: Tracer, units: dict, scales: list[float] | None = None) -> dict[str, float]:
    """Per-layer metrics named ``<module>.<function>.<stat>``, self times
    at reference speed when the ops' ``scales`` are given. The ``_exact``
    module is reported as ``exact`` (metric names start with a letter)."""
    out: dict[str, float] = {}
    self_s = tracer.self_s(scales)
    for target in tracer.targets_installed:
        name = target.lstrip("_")
        out[f"{name}.calls"] = tracer.calls[target]
        out[f"{name}.self_s"] = self_s[target]
    if "walks.SurvivalCounts" in tracer.targets_installed:
        out["walks.SurvivalCounts.distinct_keys"] = tracer.counters["walks.SurvivalCounts.distinct_keys"]
    if "diffusion._advance_batch" in tracer.targets_installed:
        calls = tracer.calls["diffusion._advance_batch"]
        drift = tracer.counters["diffusion._advance_batch.drift_calls"]
        out["diffusion._advance_batch.drift_calls_per_call"] = drift / calls if calls else 0.0
    out["cli.bytes_written"] = units["bytes_written"]
    out["cli.bytes_read"] = units["bytes_read"]
    return out


def _blas_threads() -> int | None:
    """Threads the bundled OpenBLAS will use, or None if it cannot be asked."""
    import ctypes

    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*.so*")) + sorted(libs.glob("libopenblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def software() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
    }


def run_pass(workload: str, seed: int, work: Path, speed_file: Path, trace: bool, probes: bool) -> dict:
    """Build, run and check one pass of the workload; the record the
    launcher aggregates."""
    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install()
    try:
        ops = workloads.build(workload, seed, work)
        if probes:
            ops += workloads.probe_ops(seed, work)
        outcomes = run_ops(ops, workloads.deadline_s(workload), speed_file, tracer)
        peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        check_ops(ops, outcomes)
        units = _units(ops, outcomes)
        record = {
            "wall_s": sum(o.latency_s for o in outcomes),
            "raw_wall_s": sum(o.raw_s for o in outcomes),
            "peak_rss_mb": peak_rss_kib / 1024.0,
            "ops": [[o.label, o.latency_s, o.error] for o in outcomes],
            "units": units,
            "software": software(),
        }
        if tracer is not None:
            record["layers"] = _layers(tracer, units, [o.scale for o in outcomes])
            record["absent"] = tracer.absent
            tracer.write_spans(work.parent / "spans" / f"{workload}-seed{seed}.json")
        return record
    finally:
        shutil.rmtree(work, ignore_errors=True)
