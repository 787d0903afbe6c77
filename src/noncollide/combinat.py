"""Partitions, semistandard Young tableaux, and the walk/tableau bijection.

A vicious walk (N simple walkers that never meet) started from the canonical
configuration 0, 2, ..., 2(N-1) is encoded by recording, for each walker j,
the times of its leftward steps: those times fill column j of a tableau whose
shape is the conjugate of L = (number of leftward steps per walker). The
filling is semistandard and the encoding is a bijection.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence


class NotRealizableError(ValueError):
    """Raised when a tableau does not encode any nonintersecting walk."""


@dataclass(frozen=True)
class Partition:
    """Weakly decreasing nonnegative integer parts; trailing zeros stripped."""

    parts: tuple[int, ...] = ()

    def __init__(self, parts: Iterable[int] = ()):
        parts = tuple(int(p) for p in parts)
        while parts and parts[-1] == 0:
            parts = parts[:-1]
        for p in parts:
            if p < 0:
                raise ValueError(f"negative part in partition: {parts}")
        for a, b in zip(parts, parts[1:]):
            if a < b:
                raise ValueError(f"parts not weakly decreasing: {parts}")
        object.__setattr__(self, "parts", parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    def __getitem__(self, i: int) -> int:
        return self.parts[i]

    @property
    def size(self) -> int:
        """Number of boxes."""
        return sum(self.parts)

    def padded(self, length: int) -> tuple[int, ...]:
        """Parts zero-padded to the given length."""
        if length < len(self.parts):
            raise ValueError(f"cannot pad {self.parts} to length {length}")
        return self.parts + (0,) * (length - len(self.parts))

    def to_json(self) -> list[int]:
        return list(self.parts)

    @classmethod
    def from_json(cls, data: Sequence[int]) -> "Partition":
        return cls(data)


def conjugate(p: Partition) -> Partition:
    """Transpose of the diagram: column lengths become row lengths."""
    if not p.parts:
        return Partition()
    cols = [0] * p.parts[0]
    for part in p.parts:
        for j in range(part):
            cols[j] += 1
    return Partition(cols)


@dataclass(frozen=True)
class SSYT:
    """Semistandard filling: rows weakly increase, columns strictly increase.

    Entries are integers in 1..max_entry; max_entry is the alphabet bound
    (the walk's time horizon when the tableau encodes a walk).
    """

    shape: Partition
    rows: tuple[tuple[int, ...], ...]
    max_entry: int

    def __init__(self, rows: Iterable[Iterable[int]], max_entry: int):
        rows = tuple(tuple(int(v) for v in row) for row in rows)
        shape = Partition(len(row) for row in rows)
        if len(shape) != len(rows):
            raise ValueError("rows with trailing empty rows are not allowed")
        if max_entry < 0:
            raise ValueError("max_entry must be nonnegative")
        for i, row in enumerate(rows):
            for j, v in enumerate(row):
                if not 1 <= v <= max_entry:
                    raise ValueError(f"entry {v} at ({i},{j}) outside 1..{max_entry}")
                if j > 0 and row[j - 1] > v:
                    raise ValueError(f"row {i} not weakly increasing")
                if i > 0 and rows[i - 1][j] >= v:
                    raise ValueError(f"column {j} not strictly increasing")
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "max_entry", int(max_entry))

    def __getitem__(self, key: tuple[int, int]) -> int:
        """1-indexed (row, column) access."""
        i, j = key
        return self.rows[i - 1][j - 1]

    @property
    def size(self) -> int:
        return self.shape.size

    def column(self, j: int) -> tuple[int, ...]:
        """Entries of 1-indexed column j, top to bottom."""
        return tuple(row[j - 1] for row in self.rows if len(row) >= j)

    def to_json(self) -> dict:
        return {
            "shape": self.shape.to_json(),
            "rows": [list(r) for r in self.rows],
            "max_entry": self.max_entry,
        }

    @classmethod
    def from_json(cls, data: dict) -> "SSYT":
        rows = [[_json_int(v, "rows") for v in row] for row in data["rows"]]
        t = cls(rows, _json_int(data["max_entry"], "max_entry"))
        if list(t.shape.parts) != [_json_int(v, "shape") for v in data["shape"]]:
            raise ValueError("shape field inconsistent with rows")
        return t


def _json_int(value, field: str) -> int:
    """value, if it is a JSON integer; int() would read 1.9 or true as 1."""
    if type(value) is not int:
        raise ValueError(f"{field}: {value!r} is not a JSON integer")
    return value


def canonical_start(n: int) -> tuple[int, ...]:
    """The reference initial configuration 0, 2, ..., 2(n-1)."""
    return tuple(2 * i for i in range(n))


def check_start(x: Sequence[int]) -> tuple[int, ...]:
    """The start as a tuple of ints; raises unless even and strictly increasing."""
    x = tuple(int(v) for v in x)
    for v in x:
        if v % 2 != 0:
            raise ValueError(f"start position {v} is odd")
    for a, b in zip(x, x[1:]):
        if a >= b:
            raise ValueError("start not strictly increasing")
    return x


@dataclass(frozen=True)
class WalkRecord:
    """N walkers, T steps of +-1 each, never sharing a site.

    Stores increments, not positions: the step matrix is the natural sample
    space (2^(N*T) equally likely outcomes before conditioning).
    """

    start: tuple[int, ...]
    steps: tuple[tuple[int, ...], ...]
    horizon: int = field(default=-1)

    def __init__(self, start: Iterable[int], steps: Iterable[Iterable[int]]):
        start = tuple(int(x) for x in start)
        steps = tuple(tuple(int(s) for s in row) for row in steps)
        if len(steps) != len(start):
            raise ValueError("one step row per walker required")
        horizon = len(steps[0]) if steps else 0
        for row in steps:
            if len(row) != horizon:
                raise ValueError("ragged step matrix")
            for s in row:
                if s not in (-1, 1):
                    raise ValueError(f"step {s} not in {{-1,+1}}")
        check_start(start)
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "steps", steps)
        object.__setattr__(self, "horizon", horizon)
        pos = list(start)
        for t in range(horizon):
            for i in range(len(pos)):
                pos[i] += steps[i][t]
            for a, b in zip(pos, pos[1:]):
                if a >= b:
                    raise ValueError(f"walkers meet at time {t + 1}")

    @property
    def n_walkers(self) -> int:
        return len(self.start)

    def positions(self) -> list[tuple[int, ...]]:
        """Trajectory S(0), S(1), ..., S(T)."""
        out = [self.start]
        pos = list(self.start)
        for t in range(self.horizon):
            for i in range(len(pos)):
                pos[i] += self.steps[i][t]
            out.append(tuple(pos))
        return out

    def endpoints(self) -> tuple[int, ...]:
        return self.positions()[-1]

    def to_json(self) -> dict:
        return {
            "start": list(self.start),
            "steps": [list(r) for r in self.steps],
            "horizon": self.horizon,
        }

    @classmethod
    def from_json(cls, data: dict) -> "WalkRecord":
        start = [_json_int(v, "start") for v in data["start"]]
        w = cls(start, [[_json_int(v, "steps") for v in row] for row in data["steps"]])
        if w.horizon != _json_int(data.get("horizon", w.horizon), "horizon"):
            raise ValueError("horizon field inconsistent with steps")
        return w


def walk_to_tableau(w: WalkRecord) -> SSYT:
    """Encode a canonical-start walk as an SSYT.

    Column j lists (top to bottom) the times in 1..T at which walker j
    stepped left. The tableau shape is the conjugate of the leftward-step
    count vector L, and max_entry is the horizon T.
    """
    if w.start != canonical_start(w.n_walkers):
        raise ValueError(
            f"walk/tableau encoding requires start {canonical_start(w.n_walkers)}, "
            f"got {w.start}"
        )
    columns = [
        tuple(t + 1 for t in range(w.horizon) if row[t] == -1) for row in w.steps
    ]
    counts = [len(c) for c in columns]
    n_rows = max(counts, default=0)
    rows = [
        tuple(columns[j][i] for j in range(w.n_walkers) if counts[j] > i)
        for i in range(n_rows)
    ]
    return SSYT(rows, max_entry=w.horizon)


def tableau_to_walk(t: SSYT, n_walkers: int, horizon: int) -> WalkRecord:
    """Inverse encoding: rebuild the canonical-start walk from a tableau.

    Raises NotRealizableError when the filling does not correspond to a
    nonintersecting walk with the canonical start.
    """
    n_cols = t.shape.parts[0] if t.shape.parts else 0
    if n_cols > n_walkers:
        raise NotRealizableError(
            f"tableau has {n_cols} columns but only {n_walkers} walkers"
        )
    if t.max_entry > horizon:
        raise NotRealizableError(
            f"tableau alphabet {t.max_entry} exceeds horizon {horizon}"
        )
    steps = []
    for j in range(1, n_walkers + 1):
        left_times = set(t.column(j)) if j <= n_cols else set()
        if len(left_times) != (len(t.column(j)) if j <= n_cols else 0):
            raise NotRealizableError(f"column {j} repeats a time label")
        steps.append(
            tuple(-1 if u + 1 in left_times else 1 for u in range(horizon))
        )
    try:
        return WalkRecord(canonical_start(n_walkers), steps)
    except ValueError as exc:
        raise NotRealizableError(f"filling is not realizable: {exc}") from exc


def enumerate_ssyt(shape: Partition, max_entry: int) -> list[SSYT]:
    """All semistandard fillings of the shape with entries in 1..max_entry.

    Column-by-column backtracking; within a column entries must strictly
    increase, and each entry must be >= its left neighbour.
    """
    if max_entry < 0:
        raise ValueError("max_entry must be nonnegative")
    if not shape.parts:
        return [SSYT([], max_entry=max_entry)]
    if len(shape) > max_entry:
        return []
    col_heights = conjugate(shape).parts
    n_cols = len(col_heights)
    # grid[i][j] for i < col_heights[j]
    grid = [[0] * n_cols for _ in range(len(shape))]
    out: list[SSYT] = []

    def fill(j: int, i: int) -> None:
        if j == n_cols:
            rows = [tuple(grid[i][: shape.parts[i]]) for i in range(len(shape))]
            out.append(SSYT(rows, max_entry=max_entry))
            return
        if i == col_heights[j]:
            fill(j + 1, 0)
            return
        lo = 1
        if i > 0:
            lo = max(lo, grid[i - 1][j] + 1)
        if j > 0:
            lo = max(lo, grid[i][j - 1])
        # the i-th entry must leave room for col_heights[j]-1-i larger ones
        hi = max_entry - (col_heights[j] - 1 - i)
        for v in range(lo, hi + 1):
            grid[i][j] = v
            fill(j, i + 1)

    fill(0, 0)
    return out


def monomial_exponents(t: SSYT, horizon: int) -> tuple[int, ...]:
    """Component k-1 counts occurrences of letter k in the tableau."""
    if t.max_entry > horizon:
        raise ValueError("tableau alphabet exceeds requested horizon")
    counts = [0] * horizon
    for row in t.rows:
        for v in row:
            counts[v - 1] += 1
    return tuple(counts)


def endpoints_to_partition(y: Sequence[int], horizon: int) -> Partition:
    """Shape of the tableaux encoding canonical-start walks ending at y.

    Walker i ends at y_i = T - 2*L_i + 2*(i-1); solving for the leftward
    step counts L and conjugating gives the shape.
    """
    n = len(y)
    ell = []
    for i, yi in enumerate(y):
        num = horizon + 2 * i - int(yi)
        if num % 2 != 0:
            raise ValueError(f"parity violation at walker {i + 1}: y={yi}, T={horizon}")
        li = num // 2
        if not 0 <= li <= horizon:
            raise ValueError(f"endpoint y={yi} unreachable in {horizon} steps")
        ell.append(li)
    for a, b in zip(ell, ell[1:]):
        if a < b:
            raise ValueError(f"endpoints {tuple(y)} not reachable without collision")
    return conjugate(Partition(ell))
