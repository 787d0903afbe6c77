import hashlib
import itertools
import json
import math
import random
from fractions import Fraction

import pytest

from noncollide import lgv
from noncollide._exact import det_bareiss
from noncollide.lgv import (
    DEFAULT_ENUMERATION_CAP,
    EnumerationCapError,
    PathGraph,
    PathTuple,
    check_compatibility,
    enumerate_paths,
    enumerate_tuples,
    green_function,
    lgv_determinant,
    tail_swap,
    walk_graph,
)

VW_SOURCES = [(0, 0), (2, 0)]
VW_SINKS = [(0, 2), (2, 2)]


def brute_force_tuples(g, sources, sinks, nonintersecting_only, cap=DEFAULT_ENUMERATION_CAP):
    """Weight of the tuples pairing source i with sink i, only the
    vertex-disjoint ones if asked, straight from the enumeration."""
    identity = tuple(range(len(sources)))
    return sum(
        c.weight(g)
        for c in enumerate_tuples(g, sources, sinks, cap)
        if c.permutation == identity and not (nonintersecting_only and c.intersection_vertices())
    )


def test_green_function_basics():
    g = PathGraph([("a", "b", 1)])
    assert green_function(g, "a", "b") == 1
    assert green_function(g, "a", "a") == 1  # empty path
    assert green_function(g, "b", "a") == 0  # unreachable
    with pytest.raises(KeyError):
        green_function(g, "a", "zzz")


def test_green_function_walk_graph_binomials():
    from math import comb

    g = walk_graph(4, -4, 4)
    for y in (-4, -2, 0, 2, 4):
        assert green_function(g, (0, 0), (y, 4)) == comb(4, (4 - y) // 2)
    assert green_function(g, (0, 0), (0, 2)) == 2


def test_graph_validation():
    with pytest.raises(ValueError):
        PathGraph([("a", "b", 1), ("b", "a", 1)])  # cycle
    with pytest.raises(ValueError):
        PathGraph([("a", "b", 1), ("a", "b", 2)])  # duplicate edge
    with pytest.raises(ValueError):
        PathGraph([("a", "b", 1)], order=["a"])  # order misses a vertex


def test_graph_json_round_trip():
    g = walk_graph(2, 0, 2)
    data = json.loads(json.dumps(g.to_json()))
    g2 = PathGraph.from_json(data)
    assert g2.vertices == g.vertices
    assert lgv_determinant(g2, VW_SOURCES, VW_SINKS) == 3


def test_weighted_json_round_trip():
    g = PathGraph([("a", "b", Fraction(1, 3))])
    g2 = PathGraph.from_json(json.loads(json.dumps(g.to_json())))
    assert green_function(g2, "a", "b") == Fraction(1, 3)


def test_lgv_determinant_matches_brute_force():
    g = walk_graph(2, 0, 2)
    assert lgv_determinant(g, VW_SOURCES, VW_SINKS) == 3
    assert brute_force_tuples(g, VW_SOURCES, VW_SINKS, True) == 3
    assert brute_force_tuples(g, VW_SOURCES, VW_SINKS, False) == 4
    single = lgv_determinant(g, [(0, 0)], [(0, 2)])
    assert single == green_function(g, (0, 0), (0, 2))


def test_lgv_weighted_graph():
    # a 2x2 grid with distinct rational edge weights; sources/sinks chosen
    # so every crossing pair of paths shares a vertex
    edges = []
    for i in range(3):
        for j in range(3):
            if i < 2:
                edges.append(((i, j), (i + 1, j), Fraction(1, 1 + i + 3 * j)))
            if j < 2:
                edges.append(((i, j), (i, j + 1), Fraction(2 + i, 3 + j)))
    g = PathGraph(edges)
    sources = [(0, 0), (0, 1)]
    sinks = [(2, 1), (2, 2)]
    assert check_compatibility(g, sources, sinks)
    det = lgv_determinant(g, sources, sinks)
    direct = brute_force_tuples(g, sources, sinks, True)
    assert det == direct
    assert det != brute_force_tuples(g, sources, sinks, False)


def test_check_compatibility():
    g = walk_graph(3, -3, 5)
    assert check_compatibility(g, [(0, 0), (2, 0)], [(-1, 3), (3, 3)])
    assert check_compatibility(g, [(0, 0)], [(1, 3)])  # vacuous for N=1
    crossed = PathGraph([("u1", "v2", 1), ("u2", "v1", 1)])
    assert not check_compatibility(crossed, ["u1", "u2"], ["v1", "v2"])
    with pytest.raises(KeyError, match="unknown vertex"):
        check_compatibility(g, [(0, 0), (2, 0)], [(-1, 3), (99, 3)])


def _compatible_by_enumeration(g, sources, sinks):
    # D-compatibility: for i < j and k < l, every u_i -> v_l path meets
    # every u_j -> v_k path
    pairs = list(itertools.combinations(range(len(sources)), 2))
    for (i, j), (k, l) in itertools.product(pairs, pairs):
        for p in enumerate_paths(g, sources[i], sinks[l]):
            if any(set(p).isdisjoint(q) for q in enumerate_paths(g, sources[j], sinks[k])):
                return False
    return True


def _random_dag(rng, size, density):
    # vertex labels shuffled against the edge direction, so that neither
    # the construction order nor the labels are a topological order
    labels = rng.sample(range(100), size)
    edges = [
        (labels[a], labels[b], 1)
        for a in range(size)
        for b in range(a + 1, size)
        if rng.random() < density
    ]
    return PathGraph(edges, vertices=rng.sample(labels, size))


def test_check_compatibility_matches_enumeration():
    import random

    rng = random.Random(2024)
    lattice = walk_graph(6, 0, 6)
    early = [v for v in lattice.vertices if v[1] <= 2]
    late = [v for v in lattice.vertices if v[1] >= 4]
    outcomes = []
    for _ in range(300):
        sources, sinks = rng.sample(early, 3), rng.sample(late, 3)
        expected = _compatible_by_enumeration(lattice, sources, sinks)
        assert check_compatibility(lattice, sources, sinks) == expected, (sources, sinks)
        outcomes.append(expected)
    for _ in range(200):
        g = _random_dag(rng, 9, 0.35)
        n = rng.choice((2, 3))
        sources, sinks = rng.sample(g.vertices, n), rng.sample(g.vertices, n)
        expected = _compatible_by_enumeration(g, sources, sinks)
        assert check_compatibility(g, sources, sinks) == expected, (g.to_json(), sources, sinks)
        outcomes.append(expected)
    assert 50 < sum(outcomes) < len(outcomes) - 50  # both answers are exercised


def test_check_compatibility_tests_every_crossing_pair():
    # the empty paths a -> a (u_0 -> v_2) and b -> b (u_1 -> v_0) are
    # disjoint, with 0 < 1 and 0 < 2; no pair u_i -> v_j, u_j -> v_i of
    # paths exists at all
    g = PathGraph([("a", "b", 1)], vertices=["c"])
    assert not check_compatibility(g, ["a", "b", "c"], ["b", "c", "a"])
    assert check_compatibility(g, ["a", "c"], ["b", "c"])


def test_det_bareiss_of_mixed_int_and_fraction_entries_is_exact():
    assert det_bareiss([[1, 0, 0], [0, 1, 0], [0, 0, Fraction(1, 3)]]) == Fraction(1, 3)
    assert type(det_bareiss([[0, 1, 0], [0, 0, 1], [Fraction(1, 3), 0, 0]])) is Fraction
    rng = random.Random(25)
    entries = (0, 1, -2, 3, Fraction(1, 3), Fraction(-5, 2))
    for _ in range(200):
        n = rng.randrange(1, 5)
        m = [[rng.choice(entries) for _ in range(n)] for _ in range(n)]
        leibniz = sum(
            PathTuple(perm, ()).sign() * math.prod(m[i][perm[i]] for i in range(n))
            for perm in itertools.permutations(range(n))
        )
        det = det_bareiss(m)
        assert det == leibniz and not isinstance(det, float), m


def test_check_compatibility_has_no_cap():
    # 2^16 paths per crossing pair: enumerating pairs of them would take
    # 2^32 comparisons
    g = walk_graph(16, 0, 16)
    assert check_compatibility(g, [(0, 0), (4, 0)], [(0, 16), (4, 16)])
    assert not check_compatibility(g, [(0, 0), (4, 0)], [(4, 16), (0, 16)])


def test_enumeration_cap():
    g = walk_graph(4, -4, 6)
    with pytest.raises(EnumerationCapError):
        brute_force_tuples(g, VW_SOURCES, [(0, 4), (2, 4)], True, cap=3)
    with pytest.raises(EnumerationCapError):
        enumerate_paths(g, (0, 0), (0, 4), cap=2)


def test_tail_swap_requires_intersection():
    g = walk_graph(1, 0, 2)
    c = PathTuple((0, 1), (((0, 0), (1, 1)), ((2, 0), (3, 1))))
    with pytest.raises(ValueError):
        tail_swap(c, g)


def test_tail_swap_exhaustive_small():
    g = walk_graph(2, -2, 4)
    sinks = [(0, 2), (2, 2)]
    tuples = enumerate_tuples(g, VW_SOURCES, sinks)
    intersecting = [c for c in tuples if c.intersection_vertices()]
    assert intersecting
    for c in intersecting:
        swapped = tail_swap(c, g)
        assert swapped != c
        assert tail_swap(swapped, g) == c
        assert swapped.sign() == -c.sign()
        assert swapped.weight(g) == c.weight(g)
        assert swapped.intersection_vertices() == c.intersection_vertices()


def test_cancellation_identity():
    # the signed sum over all tuples equals the nonintersecting
    # identity-pairing sum, on exhaustively enumerable instances
    g = walk_graph(3, -3, 5)
    for sinks in ([(-1, 3), (1, 3)], [(-1, 3), (3, 3)], [(1, 3), (3, 3)]):
        signed = 0
        for c in enumerate_tuples(g, VW_SOURCES, sinks):
            signed += c.sign() * c.weight(g)
        assert signed == brute_force_tuples(g, VW_SOURCES, sinks, True)
        assert signed == lgv_determinant(g, VW_SOURCES, sinks)


def test_tail_swap_weighted_preserves_weight():
    edges = []
    w = 1
    for i in range(3):
        for j in range(3):
            if i < 2:
                w += 1
                edges.append(((i, j), (i + 1, j), Fraction(w, 7)))
            if j < 2:
                w += 1
                edges.append(((i, j), (i, j + 1), Fraction(3, w)))
    g = PathGraph(edges)
    sources = [(0, 0), (0, 1)]
    sinks = [(2, 1), (2, 2)]
    intersecting = [
        c
        for c in enumerate_tuples(g, sources, sinks)
        if c.intersection_vertices()
    ]
    assert intersecting
    for c in intersecting:
        swapped = tail_swap(c, g)
        assert swapped.weight(g) == c.weight(g)
        assert tail_swap(swapped, g) == c


def test_path_tuple_sign():
    assert PathTuple((0, 1, 2), ((), (), ())).sign() == 1
    assert PathTuple((1, 0, 2), ((), (), ())).sign() == -1
    assert PathTuple((1, 2, 0), ((), (), ())).sign() == 1


def test_graphs_built_out_of_topological_order():
    import random

    from noncollide.walks import count_vicious

    rng = random.Random(18)
    for _ in range(200):
        g = _random_dag(rng, rng.randrange(1, 16), rng.random())
        position = {v: k for k, v in enumerate(g._topo)}
        assert len(g._topo) == len(position) and position.keys() == set(g.vertices)
        for u in g.vertices:
            assert all(position[u] < position[v] for v in g.successors(u)), g.to_json()
    lattice = walk_graph(6, -2, 8)
    edges = [(u, v, 1) for u in lattice.vertices for v in lattice.successors(u)]
    for _ in range(30):
        rng.shuffle(edges)
        vertices = rng.sample(lattice.vertices, len(lattice.vertices))
        g = PathGraph(edges, vertices=vertices, order=lattice.vertices)
        n = rng.choice((1, 2, 3))
        x = sorted(rng.sample(range(-2, 9, 2), n))
        y = sorted(rng.sample(range(-2, 9, 2), n))
        det = lgv_determinant(g, [(v, 0) for v in x], [(v, 6) for v in y])
        assert det == count_vicious(x, y, 6), (x, y)
    # a cycle behind a source and in front of a sink
    with pytest.raises(ValueError, match="directed cycle"):
        PathGraph([("s", "a", 1), ("a", "b", 1), ("b", "c", 1), ("c", "a", 1), ("c", "t", 1)])


def _mixed_dag(rng, size, density):
    """A random DAG on str, int and tuple vertices with int, Fraction and
    negative weights. Edges come shuffled, part of the vertices are given
    up front, and the total order is a shuffle of them all, so neither the
    construction order nor the order is a topological one."""
    pool = [f"v{k}" for k in range(30)] + list(range(30)) + [(k, k % 3) for k in range(30)]
    labels = rng.sample(pool, size)  # edges run from earlier to later labels
    weights = (1, 2, -1, -3, Fraction(1, 3), Fraction(-5, 2), Fraction(7, 4))
    edges = [
        (labels[a], labels[b], rng.choice(weights))
        for a in range(size)
        for b in range(a + 1, size)
        if rng.random() < density
    ]
    rng.shuffle(edges)
    given = rng.sample(labels, size // 2)
    order = list(dict.fromkeys(given + [end for e in edges for end in e[:2]]))
    rng.shuffle(order)
    return PathGraph(edges, vertices=given, order=order)


def test_mixed_vertex_dags_match_enumeration():
    rng = random.Random(24)
    outcomes = []
    for _ in range(120):
        g = _mixed_dag(rng, rng.randrange(2, 9), rng.uniform(0.2, 0.6))
        position = {v: k for k, v in enumerate(g._topo)}
        assert len(g._topo) == len(position) and position.keys() == set(g.vertices)
        for u in g.vertices:
            assert all(position[u] < position[v] for v in g.successors(u)), g.to_json()
            for v in g.vertices:
                paths = enumerate_paths(g, u, v)
                assert green_function(g, u, v) == sum(g.path_weight(p) for p in paths)
        n = rng.randrange(1, min(3, len(g.vertices)) + 1)
        sources, sinks = rng.sample(g.vertices, n), rng.sample(g.vertices, n)
        signed = sum(c.sign() * c.weight(g) for c in enumerate_tuples(g, sources, sinks))
        det = lgv_determinant(g, sources, sinks)
        assert det == signed, (g.to_json(), sources, sinks)
        expected = _compatible_by_enumeration(g, sources, sinks)
        assert check_compatibility(g, sources, sinks) == expected, (g.to_json(), sources, sinks)
        if n > 1:
            outcomes.append(expected)
    assert 10 < sum(outcomes) < len(outcomes) - 10  # both answers are exercised


TO_JSON_PINNED = {
    "walk_graph(16, 0, 16)": "5f40ce3d85d2d3906aa293b1fddb608f817b407088b1cddb96df299684d8d5c1",
    "weighted": "b8e808bd5fbbcc28862b8507467219d8a529f2418534273d670369b36e36da81",
}


def test_to_json_is_pinned():
    weighted = PathGraph(
        [("s", (0, 1), Fraction(1, 3)), ((0, 1), 7, -2), ("s", 7, Fraction(-5, 7)),
         (7, "t", 4), ((0, 1), "t", 1)],
        vertices=["lone", "t"],
        order=["t", 7, "lone", (0, 1), "s"],
    )
    graphs = {"walk_graph(16, 0, 16)": walk_graph(16, 0, 16), "weighted": weighted}
    digests = {
        name: hashlib.sha256(json.dumps(g.to_json()).encode()).hexdigest()
        for name, g in graphs.items()
    }
    assert digests == TO_JSON_PINNED


def test_lgv_determinant_calls_green_function_once_per_entry(monkeypatch):
    calls = []
    inner = lgv.green_function

    def counted(g, u, v):
        calls.append((u, v))
        return inner(g, u, v)

    monkeypatch.setattr(lgv, "green_function", counted)
    g = walk_graph(8, 0, 8)
    for n in (1, 2, 3, 4, 2):  # the last one again, with its rows cached
        calls.clear()
        x = range(0, 2 * n, 2)
        lgv.lgv_determinant(g, [(v, 0) for v in x], [(v, 8) for v in x])
        assert len(calls) == n * n
