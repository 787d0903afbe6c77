"""Self-test of the benchmark harness, at tiny sizes (under a minute).

    python3 perfbench/selftest.py

Checks that every workload runs end to end with every op passing its
check and every traced layer called, that every check rejects a corrupted
output, that an op past its deadline is stopped and counted as failed with
latency equal to the deadline, that an op with a known extra CPU cost
shows the same latency ratio at reference speed as in raw wall clock, that
the tracer nests spans and reports missing targets as absent, that the
full-size op lists match the op mix declared in definitions.json, and that
the launcher refuses a directory without the library sources. Exits 1 if
any check fails.
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import passes  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

from noncollide import walks  # noqa: E402

WORK = ROOT / ".perfbench_work" / "selftest"
SPEED = WORK / "speed.txt"  # samples of the speed helper that main starts
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_full_op_mix() -> None:
    for name, spec in workloads.DEFINITIONS["workloads"].items():
        ops = workloads.build(name, 7, WORK / name)
        mix = Counter(op.label for op in ops)
        assert mix == Counter(spec["op_mix"]), f"{name}: built {dict(mix)}"
        assert len(ops) >= 100, f"{name}: {len(ops)} ops per pass"


def test_tiny_workloads_and_corrupted_outputs() -> None:
    """Each workload end to end, traced; then each check on a corrupted
    copy of its op's output."""
    tracer = Tracer()
    tracer.install()
    try:
        for name in workloads.WORKLOADS:
            ops = workloads.build(name, 3, WORK / name, tiny=True)
            outcomes = passes.run_ops(ops, workloads.deadline_s(name), SPEED, tracer)
            for op, outcome in zip(ops, outcomes):
                assert outcome.error is None, f"{name} {op.label}: {outcome.error}"
                value = op.output(outcome.value)
                op.check(value)
                try:
                    op.check(op.corrupt(value))
                except workloads.CheckFailed:
                    continue
                raise AssertionError(f"{name} {op.label}: check accepted a corrupted output")
            assert set(Counter(op.label for op in ops)) == set(
                workloads.DEFINITIONS["workloads"][name]["op_mix"]
            ), f"{name}: tiny build lacks an op class"
    finally:
        tracer.uninstall()
    layers = passes._layers(tracer, passes._units([], []))
    wanted = {m["name"] for m in BENCHMARK["per_layer"]} - {"trace.overhead_s"}
    assert wanted <= set(layers), f"missing per-layer metrics {sorted(wanted - set(layers))}"
    silent = [t for t in tracer.targets_installed if tracer.calls[t] == 0]
    assert not silent, f"layers never called by any workload: {silent}"


def test_deadline_counts_as_failed() -> None:
    op = workloads.probe_ops(5, WORK / "probe")[0]  # simulate-dyson --n 4 from the origin
    start = time.perf_counter()
    (outcome,) = passes.run_ops([op], 0.5, SPEED)
    elapsed = time.perf_counter() - start
    assert outcome.error is not None and "deadline" in outcome.error, outcome.error
    assert outcome.latency_s == 0.5, outcome.latency_s
    assert elapsed < 1.0, f"op stopped after {elapsed:.3f} s"


def _busy(iterations: int) -> int:
    total = 0
    for i in range(iterations):
        total += i * i
    return total


def test_scaling_keeps_cost_ratio() -> None:
    """Ops with a known extra cost, a fixed busy loop or fixed sweeps over a
    64 MB array, show the same time ratio to the plain op at reference
    speed as in raw wall clock: the speed samples taken while an op runs
    cancel the host's speed, not the op's own cost."""
    big = np.ones(8_000_000)
    extra = {
        "plain": lambda: None,
        "cpu": lambda: _busy(1_000_000),
        "memory": lambda: [big.sum() for _ in range(12)],
    }
    ops = [
        workloads.Op(label, lambda add=add: (_busy(1_000_000), add()), lambda v: v,
                     lambda v: None, lambda v: v)
        for label, add in extra.items()
    ] * 12
    outcomes = passes.run_ops(ops, 10.0, SPEED)

    def total(label: str, field: str) -> float:
        return sum(getattr(o, field) for o in outcomes if o.label == label)

    for label in ("cpu", "memory"):
        scaled = total(label, "latency_s") / total("plain", "latency_s")
        raw = total(label, "raw_s") / total("plain", "raw_s")
        assert raw > 1.5, f"{label}: extra cost too small (raw ratio {raw:.3f})"
        assert abs(scaled / raw - 1.0) < 0.1, f"{label}: scaled ratio {scaled:.3f} vs raw {raw:.3f}"


def test_tracer_nesting_and_absent_targets() -> None:
    original = walks.count_vicious
    tracer = Tracer()
    tracer.install(targets=("walks.count_vicious", "_exact.det_bareiss", "walks.no_such_function"))
    try:
        assert tracer.absent == ["walks.no_such_function"]
        walks.count_vicious((0, 2), (0, 2), 4)  # no op running: not recorded
        assert not tracer.spans
        tracer.op = 0
        assert walks.count_vicious((0, 2), (0, 2), 4) == 20  # 6*6 - 4*4
        tracer.op = None
    finally:
        tracer.uninstall()
    assert walks.count_vicious is original
    (count, det) = tracer.spans
    assert count[0] == "walks.count_vicious" and count[3] == -1
    assert det[0] == "_exact.det_bareiss" and det[3] == 0, det
    assert count[1] <= det[1] <= det[2] <= count[2]
    inner = det[2] - det[1]
    assert abs(tracer.self_s()["walks.count_vicious"] - ((count[2] - count[1]) - inner)) < 1e-9


def test_launcher_refuses_bare_directory() -> None:
    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "lattice", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)


def main() -> int:
    tests = [(name, fn) for name, fn in globals().items() if name.startswith("test_")]
    failed = 0
    try:
        with speed.Helper(SPEED, speed.measured_cpu()) as helper:
            speed.pin(helper.cpu)
            helper.wait_first_sample()
            for name, fn in tests:
                start = time.perf_counter()
                try:
                    fn()
                except Exception:
                    failed += 1
                    print(f"FAIL {name}\n{traceback.format_exc()}", flush=True)
                else:
                    print(f"ok   {name} ({time.perf_counter() - start:.1f} s)", flush=True)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(f"{len(tests) - failed}/{len(tests)} self-tests passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
