"""Nonintersecting-path determinants on finite acyclic directed graphs.

The single-path Green function G(u, v) sums edge-weight products over all
directed u -> v paths. For D-compatible source/sink sets, det[G(u_i, v_j)]
equals the weighted count of nonintersecting path tuples; the cancellation
argument behind that identity (swap the tails of the two lowest-indexed
paths through the last intersection vertex) is exposed here as ``tail_swap``
so it can be tested directly. Green functions and the compatibility check
walk the vertices in a topological order, found at construction by Kahn's
algorithm: a vertex joins the order once every one of its predecessors has,
and a vertex left over means a directed cycle.

A ``PathGraph`` holds its structure by integer vertex index, and the
searches and Green function rows run over indices. Vertices are often
tuples such as the walk graph's (x, t), and Python does not cache a tuple's
hash, so a table keyed by vertex pairs would rehash two nested tuples on
every lookup.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations, product
from typing import Hashable, Iterable, Sequence

from ._exact import (
    DEFAULT_ENUMERATION_CAP,
    EnumerationCapError,
    ExactNumber,
    det_bareiss,
    to_fraction,
)

Vertex = Hashable


class PathGraph:
    """Immutable weighted acyclic digraph with an explicit vertex total order.

    The ordering (``order``) is part of the structure: the involution needs a
    deterministic "last vertex of intersection". If no order is supplied,
    construction order is used.

    The structure is held by vertex index (first appearance among the given
    vertices, then the edge ends): edge weights keyed by index pairs,
    successor lists of (index, weight) and predecessor lists of indices.
    Vertices are often tuples, and a tuple does not cache its hash, so a
    table keyed by vertex pairs would rehash two nested tuples on every
    lookup; each vertex is hashed once here, when it is given an index.
    """

    def __init__(
        self,
        edges: Iterable[tuple[Vertex, Vertex, ExactNumber]],
        vertices: Iterable[Vertex] = (),
        order: Sequence[Vertex] | None = None,
    ):
        index: dict[Vertex, int] = {}
        for v in vertices:
            index.setdefault(v, len(index))
        weights: dict[tuple[int, int], ExactNumber] = {}
        for u, v, w in edges:
            key = (index.setdefault(u, len(index)), index.setdefault(v, len(index)))
            if key in weights:
                raise ValueError(f"duplicate edge {u} -> {v}")
            weights[key] = w
        self._build(index, weights, order)

    def _build(
        self,
        index: dict[Vertex, int],
        weights: dict[tuple[int, int], ExactNumber],
        order: Sequence[Vertex] | None,
    ) -> None:
        self._index = index
        self._vertex = list(index)
        self._weights = weights
        self._succ: list[list[tuple[int, ExactNumber]]] = [[] for _ in index]
        self._pred: list[list[int]] = [[] for _ in index]
        for (i, j), w in weights.items():
            self._succ[i].append((j, w))
            self._pred[j].append(i)

        self._order = tuple(self._vertex if order is None else order)
        if len(self._order) != len(index) or index.keys() != set(self._order):
            raise ValueError("order must list every vertex exactly once")
        self._rank = {v: i for i, v in enumerate(self._order)}

        indegree = [len(p) for p in self._pred]
        topo = [i for i, d in enumerate(indegree) if d == 0]
        for i in topo:
            for j, _ in self._succ[i]:
                indegree[j] -= 1
                if indegree[j] == 0:
                    topo.append(j)
        if len(topo) != len(indegree):
            raise ValueError("graph contains a directed cycle")
        self._topo_index = topo
        self._position = [0] * len(topo)
        for k, i in enumerate(topo):
            self._position[i] = k
        self._topo = tuple(self._vertex[i] for i in topo)
        # per-source Green function rows by vertex index, filled lazily
        self._green_cache: dict[int, list[ExactNumber]] = {}

    def _index_of(self, v: Vertex) -> int:
        try:
            return self._index[v]
        except KeyError:
            raise KeyError(f"unknown vertex {v!r}") from None

    @property
    def vertices(self) -> tuple[Vertex, ...]:
        return self._order

    def rank(self, v: Vertex) -> int:
        """Position of v in the fixed total order."""
        return self._rank[v]

    def successors(self, v: Vertex) -> tuple[Vertex, ...]:
        return tuple(self._vertex[j] for j, _ in self._succ[self._index[v]])

    def has_vertex(self, v: Vertex) -> bool:
        return v in self._index

    def path_weight(self, path: Sequence[Vertex]) -> ExactNumber:
        w: ExactNumber = 1
        index = self._index
        for a, b in zip(path, path[1:]):
            try:
                w *= self._weights[index[a], index[b]]
            except KeyError:
                raise KeyError((a, b)) from None
        return w

    def to_json(self) -> dict:
        vertex = self._vertex
        return {
            "vertices": [_vertex_json(v) for v in self._order],
            "order": [_vertex_json(v) for v in self._order],
            "edges": [
                {
                    "from": _vertex_json(vertex[i]),
                    "to": _vertex_json(vertex[j]),
                    "weight": _weight_json(w),
                }
                for (i, j), w in self._weights.items()
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "PathGraph":
        vertices = [_vertex_load(v) for v in data["vertices"]]
        index: dict[Vertex, int] = {}
        for v in vertices:
            index.setdefault(v, len(index))
        weights: dict[tuple[int, int], ExactNumber] = {}
        for e in data["edges"]:
            u, v = _vertex_load(e["from"]), _vertex_load(e["to"])
            key = (index.get(u), index.get(v))
            if None in key:
                end = u if key[0] is None else v
                raise ValueError(f'edge {u!r} -> {v!r}: vertex {end!r} is not in "vertices"')
            w = _weight_load(e.get("weight", 1))
            if key in weights:
                raise ValueError(f"duplicate edge {u} -> {v}")
            weights[key] = w
        # to_json writes the order as the vertex list; load it once
        order = data.get("order", data["vertices"])
        order = vertices if order == data["vertices"] else [_vertex_load(v) for v in order]
        g = cls.__new__(cls)
        g._build(index, weights, order)
        return g


def _vertex_json(v: Vertex):
    return list(v) if isinstance(v, tuple) else v


def _vertex_load(v) -> Vertex:
    return tuple(v) if isinstance(v, list) else v


def _weight_json(w: ExactNumber):
    return w if isinstance(w, int) else str(w)


def _weight_load(w) -> ExactNumber:
    # Fraction(True) == 1, so to_fraction alone would read a JSON boolean
    if isinstance(w, bool):
        raise ValueError(f"cannot read {w!r} as a rational: a boolean is not a number")
    return w if isinstance(w, int) else to_fraction(w)


@dataclass(frozen=True)
class PathTuple:
    """A permutation together with one path per source.

    Path i runs from the i-th source to the sigma(i)-th sink; paths are
    stored as vertex sequences (edges are recoverable because the graph has
    at most one edge per ordered vertex pair).
    """

    permutation: tuple[int, ...]
    paths: tuple[tuple[Vertex, ...], ...]

    def sign(self) -> int:
        sign = 1
        perm = list(self.permutation)
        for i in range(len(perm)):
            while perm[i] != i:
                j = perm[i]
                perm[i], perm[j] = perm[j], perm[i]
                sign = -sign
        return sign

    def weight(self, g: PathGraph) -> ExactNumber:
        w: ExactNumber = 1
        for p in self.paths:
            w *= g.path_weight(p)
        return w

    def intersection_vertices(self) -> set[Vertex]:
        seen: set[Vertex] = set()
        shared: set[Vertex] = set()
        for p in self.paths:
            in_path = set(p)
            shared |= seen & in_path
            seen |= in_path
        return shared


def green_function(g: PathGraph, u: Vertex, v: Vertex) -> ExactNumber:
    """Sum over all directed u -> v paths of the product of edge weights."""
    i, j = g._index_of(u), g._index_of(v)
    row = g._green_cache.get(i)
    if row is None:
        # only vertices from u's place in the topological order on are
        # reachable from u
        row = [0] * len(g._vertex)
        row[i] = 1
        succ = g._succ
        for k in g._topo_index[g._position[i] :]:
            acc = row[k]
            if acc == 0:
                continue
            for s, w in succ[k]:
                row[s] += acc * w
        g._green_cache[i] = row
    return row[j]


def lgv_determinant(
    g: PathGraph, sources: Sequence[Vertex], sinks: Sequence[Vertex]
) -> ExactNumber:
    """det[G(u_i, v_j)]; equals the nonintersecting-tuple weight when the
    sources are D-compatible with the sinks."""
    if len(sources) != len(sinks):
        raise ValueError("need equally many sources and sinks")
    matrix = [[green_function(g, u, v) for v in sinks] for u in sources]
    return det_bareiss(matrix)


def enumerate_paths(
    g: PathGraph, u: Vertex, v: Vertex, cap: int = DEFAULT_ENUMERATION_CAP
) -> list[tuple[Vertex, ...]]:
    """All directed u -> v paths as vertex sequences."""
    if not g.has_vertex(u) or not g.has_vertex(v):
        raise KeyError("unknown vertex")
    out: list[tuple[Vertex, ...]] = []
    stack = [(u,)]
    while stack:
        path = stack.pop()
        head = path[-1]
        if head == v:
            out.append(path)
            if len(out) > cap:
                raise EnumerationCapError(f"more than {cap} paths {u!r} -> {v!r}")
            continue
        for succ in g.successors(head):
            stack.append(path + (succ,))
    return out


def _tuple_space(
    g: PathGraph,
    sources: Sequence[Vertex],
    sinks: Sequence[Vertex],
    cap: int,
) -> list[list[tuple[Vertex, ...]]]:
    per_pair = [enumerate_paths(g, u, v, cap) for u, v in zip(sources, sinks)]
    total = 1
    for plist in per_pair:
        total *= len(plist)
        if total > cap:
            raise EnumerationCapError(f"tuple space exceeds cap {cap}")
    return per_pair


def enumerate_tuples(
    g: PathGraph,
    sources: Sequence[Vertex],
    sinks: Sequence[Vertex],
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> list[PathTuple]:
    """Every (sigma, P_1, ..., P_N) with P_i from source i to sink sigma(i)."""
    n = len(sources)
    if n != len(sinks):
        raise ValueError("need equally many sources and sinks")
    out: list[PathTuple] = []
    for perm in permutations(range(n)):
        per_pair = _tuple_space(g, sources, [sinks[k] for k in perm], cap)
        for combo in product(*per_pair):
            out.append(PathTuple(perm, combo))
            if len(out) > cap:
                raise EnumerationCapError(f"tuple space exceeds cap {cap}")
    return out


def tail_swap(c: PathTuple, g: PathGraph) -> PathTuple:
    """Swap the tails of the two lowest-indexed paths through the last
    intersection vertex, composing the permutation with their transposition.

    This is a sign-reversing, weight-preserving involution on intersecting
    tuples; it has no fixed points and preserves the intersection set.
    """
    shared = c.intersection_vertices()
    if not shared:
        raise ValueError("nonintersecting input: tail_swap undefined")
    v = max(shared, key=g.rank)
    through = [i for i, p in enumerate(c.paths) if v in p]
    i, j = through[0], through[1]
    pi, pj = c.paths[i], c.paths[j]
    cut_i = pi.index(v)
    cut_j = pj.index(v)
    new_i = pi[: cut_i + 1] + pj[cut_j + 1 :]
    new_j = pj[: cut_j + 1] + pi[cut_i + 1 :]
    paths = list(c.paths)
    paths[i], paths[j] = new_i, new_j
    perm = list(c.permutation)
    perm[i], perm[j] = perm[j], perm[i]
    return PathTuple(tuple(perm), tuple(paths))


def check_compatibility(
    g: PathGraph, sources: Sequence[Vertex], sinks: Sequence[Vertex]
) -> bool:
    """True iff the sources are D-compatible with the sinks: for every i < j
    and k < l, each path u_i -> v_l meets each path u_j -> v_k. Then the
    identity is the only permutation with a nonintersecting tuple, and
    ``lgv_determinant`` counts the nonintersecting tuples."""
    if len(sources) != len(sinks):
        raise ValueError("need equally many sources and sinks")
    starts = [g._index_of(v) for v in sources]
    ends = [g._index_of(v) for v in sinks]
    live = [_ancestors(g, v) for v in ends]
    pairs = list(combinations(range(len(sources)), 2))
    return not any(
        _disjoint_paths_exist(g, (starts[i], starts[j]), (ends[l], ends[k]), (live[l], live[k]))
        for i, j in pairs
        for k, l in pairs
    )


def _disjoint_paths_exist(
    g: PathGraph,
    starts: tuple[int, int],
    ends: tuple[int, int],
    live: tuple[set[int], set[int]],
) -> bool:
    """Whether a path starts[0] -> ends[0] and a path starts[1] -> ends[1]
    share no vertex, by a search over the pairs of their heads (all given
    by vertex index). live[m] is the ancestor set of ends[m] (``_ancestors``).

    A step moves the head earlier in the topological order, or the one not
    yet at its end, to a vertex from which its end is still reachable. Each
    path's vertices only rise in that order, so a head never meets the
    other path behind the other head; two paths sharing a vertex c bring
    the search to (c, c), which it never enters. So the search reaches
    (ends[0], ends[1]) exactly when a disjoint pair exists, after at most
    |V|^2 states.
    """
    if starts[0] == starts[1] or starts[0] not in live[0] or starts[1] not in live[1]:
        return False
    position, succ = g._position, g._succ
    seen = {starts}
    stack = [starts]
    while stack:
        a, b = stack.pop()
        if (a, b) == ends:
            return True
        if b == ends[1] or (a != ends[0] and position[a] < position[b]):
            moves = [(c, b) for c, _ in succ[a] if c in live[0]]
        else:
            moves = [(a, c) for c, _ in succ[b] if c in live[1]]
        for state in moves:
            if state[0] != state[1] and state not in seen:
                seen.add(state)
                stack.append(state)
    return False


def _ancestors(g: PathGraph, v: int) -> set[int]:
    """The index v and the index of every vertex with a path to it."""
    out, stack = {v}, [v]
    while stack:
        for u in g._pred[stack.pop()]:
            if u not in out:
                out.add(u)
                stack.append(u)
    return out


def walk_graph(horizon: int, x_min: int, x_max: int) -> PathGraph:
    """The spatio-temporal lattice for simple walks: vertices (x, t) with
    x + t even, edges (x, t) -> (x +- 1, t + 1), all weights 1.

    Contains every path between time-0 and time-T vertices with positions in
    [x_min, x_max] (such paths cannot leave the diamond kept here). The
    vertex order is lexicographic in (t, x), so the involution's "last
    intersection vertex" is the latest-in-time, rightmost one.
    """
    vertices = [
        (x, t)
        for t in range(horizon + 1)
        for x in range(
            x_min - min(t, horizon - t), x_max + min(t, horizon - t) + 1
        )
        if (x + t) % 2 == 0
    ]
    vset = set(vertices)
    edges = [
        ((x, t), (x + dx, t + 1), 1)
        for (x, t) in vertices
        for dx in (-1, 1)
        if (x + dx, t + 1) in vset
    ]
    order = sorted(vertices, key=lambda v: (v[1], v[0]))
    return PathGraph(edges, vertices=vertices, order=order)

