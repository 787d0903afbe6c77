"""Machine-speed samples that put timings on a reference-speed scale.

On a shared machine the CPU speed seen by one process drifts by tens of
percent over seconds to minutes, and every workload's timings drift with
it. A helper process, pinned to the same CPU as the process it measures,
times a fixed kernel (big-integer arithmetic, numpy ops on large and on 3x3
arrays, and float formatting: the kinds of work the workloads do) every
``PERIOD_S`` and appends ``<perf_counter at start> <kernel seconds>`` lines
to a file. Nothing runs inside the measured process, so its own heap and
caches do not reach the samples, and no sample runs between or inside its
ops in a way that differs from op to op: the helper takes the same share
of the CPU (about 9%) all the time, and raw times include it.

A time interval is scaled by ``REFERENCE_S / median kernel time`` over the
samples taken inside it, widened about its middle to at least
``MIN_SAMPLES`` samples (the median, so a sample hit by preemption does not
count). The result reads as seconds on a machine where the kernel takes
``REFERENCE_S``; raw wall-clock values are kept beside it.

Samples from inside a long op are needed because the speed changes while
it runs: on a 2-core Xeon VM the kernel time switches between about 0.55
and 1.0 ms, for tens of milliseconds to seconds at a time. Eight runs of
the same N=3 quadrature survival took 5.1 to 7.3 s raw and 5.3 to 6.2 s
scaled by a helper on the same CPU; five samples taken right before each
run scaled them to 5.1 to 9.6 s, and a helper on the other CPU did not
follow the op's speed at all. Short windows follow the speed best: over
13 passes of the lattice op list in one process, the pass-to-pass
coefficient of variation of wall time, median and 90th-percentile op time
was 0.15, 0.19 and 0.25 raw; 0.042, 0.048 and 0.079 with a 10 ms period
and 10-sample windows; 0.049, 0.052 and 0.110 with a 20 ms period and
20-sample windows; and 0.079, 0.16 and 0.20 with one scale for the whole
pass.

Run as a script, this is the helper: ``python3 speed.py <cpu> <file>``. It
stops when its parent exits.
"""

from __future__ import annotations

import bisect
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

REFERENCE_S = 1.0e-3
PERIOD_S = 0.01
MIN_SAMPLES = 10


def kernel() -> None:
    big = 3**2000
    for _ in range(40):
        big = (big * 12345678901) // 1234567
    values = np.arange(2000.0)
    for _ in range(20):
        values = np.sqrt(values * values + 1.0)
    small = np.eye(3) + 0.1
    for _ in range(30):
        np.linalg.det(np.exp(-small))
    ",".join(repr(v * 1.1) for v in range(400))


def measured_cpu() -> int:
    """The CPU that the measured processes and the helper share."""
    return min(os.sched_getaffinity(0))


def pin(cpu: int) -> None:
    os.sched_setaffinity(0, {cpu})


class Helper:
    """The sampling process, pinned to ``cpu``, writing to ``path``."""

    def __init__(self, path: Path, cpu: int) -> None:
        self.path = path
        self.cpu = cpu
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("", encoding="utf-8")
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), str(cpu), str(path)],
            stdin=subprocess.DEVNULL,
        )

    def wait_first_sample(self, timeout: float = 60.0) -> None:
        end = time.perf_counter() + timeout
        while not self.path.read_text(encoding="utf-8").count("\n"):
            if self.proc.poll() is not None or time.perf_counter() > end:
                raise RuntimeError(f"speed helper took no sample (exit code {self.proc.poll()})")
            time.sleep(0.01)

    def close(self) -> None:
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.path.unlink(missing_ok=True)

    def __enter__(self) -> "Helper":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class Samples:
    """The samples a helper has written so far."""

    def __init__(self, path: Path) -> None:
        complete = path.read_text(encoding="utf-8").split("\n")[:-1]
        pairs = [line.split() for line in complete]
        self.times = [float(start) for start, _ in pairs]
        self.seconds = [float(seconds) for _, seconds in pairs]
        if not self.times:
            raise RuntimeError(f"no speed samples in {path}")

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_S over the median kernel time of the samples taken in
        [start, end], widened toward the nearer neighbour until there are
        MIN_SAMPLES (or all of them)."""
        times = self.times
        lo, hi = bisect.bisect_left(times, start), bisect.bisect_right(times, end)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(times)):
            if hi == len(times) or (lo > 0 and start - times[lo - 1] <= times[hi] - end):
                lo -= 1
            else:
                hi += 1
        return REFERENCE_S / statistics.median(self.seconds[lo:hi])


def _helper_main(cpu: int, path: Path) -> None:
    pin(cpu)
    parent = os.getppid()
    with open(path, "a", encoding="utf-8") as fh:
        while os.getppid() == parent:
            time.sleep(PERIOD_S)
            start = time.perf_counter()
            kernel()
            fh.write(f"{start!r} {time.perf_counter() - start!r}\n")
            fh.flush()


if __name__ == "__main__":
    _helper_main(int(sys.argv[1]), Path(sys.argv[2]))
