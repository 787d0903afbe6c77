from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from noncollide.combinat import (
    NotRealizableError,
    Partition,
    SSYT,
    WalkRecord,
    canonical_start,
    conjugate,
    endpoints_to_partition,
    enumerate_ssyt,
    monomial_exponents,
    tableau_to_walk,
    walk_to_tableau,
)
from noncollide.walks import iter_nonintersecting


@st.composite
def partitions(draw, max_part=12, max_len=12):
    length = draw(st.integers(0, max_len))
    parts = sorted(
        draw(st.lists(st.integers(1, max_part), min_size=length, max_size=length)),
        reverse=True,
    )
    return Partition(parts)


def test_partition_canonicalization():
    assert Partition((3, 2, 0, 0)).parts == (3, 2)
    assert Partition(()).parts == ()
    assert Partition((5,)).size == 5
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, -1))


def test_conjugate_examples():
    assert conjugate(Partition((3, 3, 2, 1))).parts == (4, 3, 2)
    assert conjugate(Partition(())).parts == ()
    assert conjugate(Partition((5,))).parts == (1, 1, 1, 1, 1)


def test_conjugate_involution_exhaustive_box():
    # every partition inside a 10x10 box: lambda_i + (10 - i) over the
    # zero-padded parts is a strictly increasing 10-subset of 0..19
    n = 10
    count = 0
    for comb in combinations(range(2 * n), n):
        p = Partition(tuple(c - j for j, c in enumerate(comb))[::-1])
        assert conjugate(conjugate(p)) == p
        count += 1
    assert count == 184756


@given(partitions(max_part=12, max_len=12))
def test_conjugate_involution_12_box(p):
    assert conjugate(conjugate(p)) == p
    assert len(conjugate(p)) == (p.parts[0] if p.parts else 0)


@given(partitions())
def test_conjugate_preserves_size(p):
    assert conjugate(p).size == p.size


def test_ssyt_validation():
    SSYT([(1, 1), (2,)], max_entry=2)
    with pytest.raises(ValueError):
        SSYT([(2, 1)], max_entry=2)  # row decreases
    with pytest.raises(ValueError):
        SSYT([(1, 1), (1,)], max_entry=2)  # column not strict
    with pytest.raises(ValueError):
        SSYT([(3,)], max_entry=2)  # out of alphabet
    with pytest.raises(ValueError):
        SSYT([(1,), (2, 2)], max_entry=3)  # shape not a partition


def test_enumerate_ssyt_examples():
    assert len(enumerate_ssyt(Partition((2,)), 2)) == 3
    assert len(enumerate_ssyt(Partition((2, 1)), 3)) == 8
    assert enumerate_ssyt(Partition((1, 1, 1)), 2) == []
    empty = enumerate_ssyt(Partition(()), 4)
    assert len(empty) == 1 and empty[0].size == 0


def test_enumerate_ssyt_monotone_in_alphabet():
    shape = Partition((2, 1))
    counts = [len(enumerate_ssyt(shape, m)) for m in range(6)]
    assert counts == sorted(counts)
    assert counts[0] == counts[1] == 0  # length 2 needs at least 2 letters


def test_enumerate_ssyt_no_duplicates():
    tabs = enumerate_ssyt(Partition((2, 2)), 4)
    assert len(tabs) == len(set(tabs))


def test_monomial_exponents():
    fig = SSYT([(2, 3, 4, 6), (4, 4, 6), (5, 6)], max_entry=6)
    assert monomial_exponents(fig, 6) == (0, 1, 1, 3, 1, 3)
    assert monomial_exponents(SSYT([], max_entry=0), 3) == (0, 0, 0)
    assert monomial_exponents(SSYT([(1, 1)], max_entry=2), 2) == (2, 0)


@given(st.integers(1, 4))
def test_monomial_exponents_sum_to_size(m):
    for t in enumerate_ssyt(Partition((2, 1)), m):
        assert sum(monomial_exponents(t, m)) == t.size


def test_endpoints_to_partition():
    assert endpoints_to_partition((0, 2, 6, 10), 6).parts == (4, 3, 2)
    assert endpoints_to_partition((4,), 4).parts == ()
    with pytest.raises(ValueError):
        endpoints_to_partition((1, 2), 2)  # parity
    with pytest.raises(ValueError):
        endpoints_to_partition((-4,), 2)  # out of reach


def test_walk_record_validation():
    WalkRecord((0, 2), ((1, -1), (1, 1)))
    with pytest.raises(ValueError):
        WalkRecord((0, 2), ((1, 1), (-1, -1)))  # collide at t=1
    with pytest.raises(ValueError):
        WalkRecord((1, 3), ((1,), (1,)))  # odd start
    with pytest.raises(ValueError):
        WalkRecord((2, 0), ((1,), (1,)))  # unordered start
    with pytest.raises(ValueError):
        WalkRecord((0,), ((2,),))  # bad step value


def test_walk_record_json_round_trip():
    w = WalkRecord((0, 2), ((-1, 1), (1, 1)))
    assert WalkRecord.from_json(w.to_json()) == w
    t = SSYT([(1, 2)], max_entry=3)
    assert SSYT.from_json(t.to_json()) == t


def test_walk_to_tableau_trivial_cases():
    none_left = WalkRecord((0,), ((1, 1),))
    assert walk_to_tableau(none_left).size == 0
    both_left = WalkRecord((0, 2), ((-1,), (-1,)))
    tab = walk_to_tableau(both_left)
    assert tab.shape.parts == (2,)
    assert tab.rows == ((1, 1),)


def test_walk_to_tableau_requires_canonical_start():
    shifted = WalkRecord((2, 4), ((1,), (1,)))
    with pytest.raises(ValueError):
        walk_to_tableau(shifted)


def test_tableau_to_walk_inverses():
    assert tableau_to_walk(SSYT([], max_entry=0), 1, 2) == WalkRecord(
        (0,), ((1, 1),)
    )
    assert tableau_to_walk(SSYT([(1, 1)], max_entry=1), 2, 1) == WalkRecord(
        (0, 2), ((-1,), (-1,))
    )


def test_tableau_to_walk_not_realizable():
    too_wide = SSYT([(1, 1, 1)], max_entry=1)
    with pytest.raises(NotRealizableError):
        tableau_to_walk(too_wide, 2, 1)  # three columns, two walkers
    late = SSYT([(3,)], max_entry=3)
    with pytest.raises(NotRealizableError):
        tableau_to_walk(late, 1, 2)  # label beyond the horizon


def test_round_trip_exhaustive_small():
    for n, horizon in ((1, 3), (2, 3), (3, 2)):
        start = canonical_start(n)
        for w in iter_nonintersecting(start, horizon):
            tab = walk_to_tableau(w)
            assert tab.max_entry == horizon
            assert tableau_to_walk(tab, n, horizon) == w


def test_figure_walk_facts():
    tab = SSYT([(2, 3, 4, 6), (4, 4, 6), (5, 6)], max_entry=6)
    walk = tableau_to_walk(tab, 4, 6)
    assert tuple(row.count(-1) for row in walk.steps) == (3, 3, 2, 1)
    assert walk.endpoints() == (0, 2, 6, 10)
    again = walk_to_tableau(walk)
    assert again == tab
    assert again[1, 3] == 4 and again[3, 1] == 5
