"""Spans around the layer functions of ``noncollide``, recorded from outside.

The tracer wraps module attributes; the library source is not edited. A
module calls its own helpers, and the helpers it imported, through names
bound in its namespace (``walks`` calls the ``det_bareiss`` it imported from
``_exact``), so a target is replaced in every ``noncollide`` module that
binds it. Nested calls then become child spans.

A span is recorded only while an op is running (``Tracer.op`` is set), so
input generation and output checks leave no spans. Each span holds its
name, start, end, parent span and op id; spans stay in memory until
``write_spans`` is called at the end of the traced pass.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Any, Callable

# Layer targets as "<module>.<function>" or "<module>.<Class>" (a class is
# traced through its __call__). Private names may be renamed by later
# changes; a missing target is reported as absent, not as an error.
TARGETS = (
    "_exact.det_bareiss",
    "_exact.sample_categorical_exact",
    "walks.count_vicious",
    "walks.SurvivalCounts",
    "walks.sample_conditioned",
    "walks.scaling_check",
    "schur.schur_ssyt_sum",
    "schur.schur_dual_jt",
    "schur.schur_bialternant",
    "schur.principal_specialization",
    "combinat.enumerate_ssyt",
    "combinat.walk_to_tableau",
    "combinat.tableau_to_walk",
    "lgv.green_function",
    "lgv.lgv_determinant",
    "lgv.check_compatibility",
    "diffusion.survival",
    "diffusion.survival_mc",
    "diffusion.km_density",
    "diffusion.transition_homogeneous",
    "diffusion.transition_inhomogeneous",
    "diffusion.drift_inhomogeneous",
    "diffusion.sample_from_origin",
    "diffusion._advance_batch",
    "diffusion.dyson_drift",
    "verify.quadrature_integrate",
    "rmt.hermitian_increment_batch",
    "rmt._eigvalsh_batch",
    "rmt.estimate_drift_qv",
    "rmt.estimate_gamma",
    "cli.run",
    "cli.build_parser",
)


class Tracer:
    """In-memory span recorder with per-name call counts and self time."""

    def __init__(self) -> None:
        self.op: int | None = None
        # (name, start, end, parent index or -1, op id)
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.calls: Counter[str] = Counter()
        self.op_self_s: dict[int, Counter[str]] = {}  # wall-clock seconds per op id
        self.counters: Counter[str] = Counter()
        self.absent: list[str] = []
        self.targets_installed: list[str] = []
        self._stack: list[list] = []  # [span index, child time]
        self._restore: list[tuple[Any, str, Any]] = []
        self._keys: set = set()

    # -- recording --------------------------------------------------------

    def _wrap(
        self,
        name: str,
        fn: Callable,
        before: Callable[[tuple, dict], tuple[tuple, dict]] | None = None,
    ) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            if before is not None:
                args, kwargs = before(args, kwargs)
            index = len(tracer.spans)
            parent = tracer._stack[-1][0] if tracer._stack else -1
            tracer.spans.append((name, 0.0, 0.0, parent, tracer.op))
            frame = [index, 0.0]
            tracer._stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                duration = end - start
                tracer.spans[index] = (name, start, end, parent, tracer.op)
                tracer.calls[name] += 1
                tracer.op_self_s.setdefault(tracer.op, Counter())[name] += duration - frame[1]
                if tracer._stack:
                    tracer._stack[-1][1] += duration

        return traced

    def self_s(self, scales: list[float] | None = None) -> Counter[str]:
        """Self seconds per target, each op's multiplied by its speed scale
        (speed.py) when ``scales`` (indexed by op id) is given."""
        total: Counter[str] = Counter()
        for op, seconds in self.op_self_s.items():
            scale = 1.0 if scales is None else scales[op]
            for name, value in seconds.items():
                total[name] += value * scale
        return total

    def _count_drift_calls(self, args: tuple, kwargs: dict) -> tuple[tuple, dict]:
        """Wrap the drift callable handed to _advance_batch so each of its
        calls is counted (more than one per step means step halving)."""

        def counted(fn: Callable) -> Callable:
            def drift(*a, **k):
                self.counters["diffusion._advance_batch.drift_calls"] += 1
                return fn(*a, **k)

            return drift

        if "drift" in kwargs and callable(kwargs["drift"]):
            kwargs = dict(kwargs, drift=counted(kwargs["drift"]))
        elif len(args) > 3 and callable(args[3]):
            args = args[:3] + (counted(args[3]),) + args[4:]
        return args, kwargs

    def _count_survival_keys(self, args: tuple, kwargs: dict) -> tuple[tuple, dict]:
        """Record the distinct (instance, start, steps) keys asked of
        SurvivalCounts within each op."""
        if len(args) >= 3:
            self._keys.add((self.op, id(args[0]), args[1], args[2]))
            self.counters["walks.SurvivalCounts.distinct_keys"] = len(self._keys)
        return args, kwargs

    # -- installation -----------------------------------------------------

    def install(self, targets=TARGETS) -> None:
        """Replace each target in every loaded ``noncollide`` module that
        binds it. Call after the package is imported."""
        modules = [
            m
            for key, m in sorted(sys.modules.items())
            if m is not None and (key == "noncollide" or key.startswith("noncollide."))
        ]
        for target in targets:
            module_name, attr = target.split(".", 1)
            module = sys.modules.get(f"noncollide.{module_name}")
            original = getattr(module, attr, None) if module is not None else None
            if original is None:
                self.absent.append(target)
                continue
            if isinstance(original, type):
                call = original.__dict__.get("__call__")
                if call is None:
                    self.absent.append(target)
                    continue
                before = (
                    self._count_survival_keys
                    if target == "walks.SurvivalCounts"
                    else None
                )
                self._set(original, "__call__", self._wrap(target, call, before))
                self.targets_installed.append(target)
                continue
            before = (
                self._count_drift_calls if target == "diffusion._advance_batch" else None
            )
            wrapper = self._wrap(target, original, before)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._set(m, key, wrapper)
            self.targets_installed.append(target)

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- output -----------------------------------------------------------

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "op"],
                    "spans": self.spans,
                },
                fh,
            )
