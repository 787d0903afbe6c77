import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from noncollide.combinat import Partition, enumerate_ssyt, monomial_exponents
from noncollide.schur import (
    EvalPoint,
    elementary_symmetric_all,
    principal_specialization,
    schur_bialternant,
    schur_dual_jt,
    schur_ssyt_sum,
)
from oracles import principal_specialization_q


def shapes_up_to(total):
    out = [Partition(())]
    for n in range(1, total + 1):
        stack = [((), n, n)]
        while stack:
            prefix, rem, cap = stack.pop()
            if rem == 0:
                out.append(Partition(prefix))
                continue
            for part in range(min(cap, rem), 0, -1):
                stack.append((prefix + (part,), rem - part, part))
    return out


def test_elementary_symmetric_examples():
    assert elementary_symmetric_all(EvalPoint((1, 1, 1)))[2] == 3
    assert elementary_symmetric_all(EvalPoint((7, 9)))[0] == 1
    assert elementary_symmetric_all(EvalPoint((1, 2, 3)))[2] == 11
    assert len(elementary_symmetric_all(EvalPoint((1, 2, 3)))) == 4  # e_4 = 0 is past the end
    assert elementary_symmetric_all((1, 2, 3)) == [1, 6, 11, 6]


def test_elementary_symmetric_permutation_invariant():
    a = elementary_symmetric_all((Fraction(1, 2), 3, Fraction(5, 7)))
    b = elementary_symmetric_all((3, Fraction(5, 7), Fraction(1, 2)))
    assert a == b


def test_schur_ssyt_sum_examples():
    assert schur_ssyt_sum(Partition((1,)), EvalPoint((2, 3))) == 5
    assert schur_ssyt_sum(Partition((2, 1)), EvalPoint((1, 1, 1))) == 8
    assert schur_ssyt_sum(Partition((2, 1)), EvalPoint((1, 2, 3))) == 60
    assert schur_ssyt_sum(Partition((1, 1, 1)), EvalPoint((1, 2))) == 0


def tableau_by_tableau(shape, z):
    """The defining sum, one monomial per enumerated tableau."""
    values = [Fraction(v) for v in z]
    total = Fraction(0)
    for tab in enumerate_ssyt(shape, len(values)):
        term = Fraction(1)
        for v, mult in zip(values, monomial_exponents(tab, len(values))):
            term *= v**mult
        total += term
    return total


POINT_POOL = (0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 7))


@pytest.mark.parametrize("n_vars", range(7))
def test_schur_ssyt_sum_matches_tableau_by_tableau(n_vars):
    rnd = random.Random(500 + n_vars)
    shapes = [s for s in shapes_up_to(8) if len(s) <= 6]
    # the empty shape and one shape longer than the alphabet, then random ones
    picks = [Partition(()), Partition((1,) * (n_vars + 1))]
    picks += [rnd.choice(shapes) for _ in range(40)]
    for i, shape in enumerate(picks):
        z = [rnd.choice(POINT_POOL) for _ in range(n_vars)]
        if i % 3 == 0 and n_vars >= 2:
            z[-1] = z[0]
        got = schur_ssyt_sum(shape, z)
        assert isinstance(got, Fraction)
        assert got == tableau_by_tableau(shape, z), (shape.parts, z)


def test_schur_bialternant_examples():
    assert schur_bialternant(Partition((2, 1)), EvalPoint((1, 2, 3))) == 60
    assert schur_bialternant(Partition(()), EvalPoint((2, 5, 11))) == 1
    assert schur_bialternant(Partition((1,)), EvalPoint((2, 3))) == 5
    with pytest.raises(ValueError):
        schur_bialternant(Partition((1,)), EvalPoint((2, 2)))


def test_schur_dual_jt_examples():
    assert schur_dual_jt(Partition((2, 1)), EvalPoint((1, 2, 3))) == 60
    assert schur_dual_jt(Partition((2, 1)), EvalPoint((1, 1, 1))) == 8
    assert schur_dual_jt(Partition(()), EvalPoint((4, 4))) == 1
    # repeated points are fine on this route
    assert schur_dual_jt(Partition((2,)), EvalPoint((2, 2))) == 12


def test_three_route_agreement_spot():
    z = EvalPoint((Fraction(1, 2), Fraction(2, 3), 5))
    for shape in ((3, 1), (2, 2), (1, 1, 1), (4,)):
        p = Partition(shape)
        a = schur_ssyt_sum(p, z)
        assert a == schur_bialternant(p, z) == schur_dual_jt(p, z)


@settings(max_examples=30, deadline=None)
@given(
    st.permutations([Fraction(1, 3), Fraction(7, 2), 2, 11]),
    st.sampled_from([(2, 1), (3,), (2, 2), (1, 1)]),
)
def test_symmetry_under_permutation(perm, shape):
    base = schur_dual_jt(Partition(shape), EvalPoint((Fraction(1, 3), Fraction(7, 2), 2, 11)))
    assert schur_dual_jt(Partition(shape), EvalPoint(perm)) == base


def test_principal_specialization_examples():
    assert principal_specialization(Partition((2, 1)), 3) == 8
    assert principal_specialization(Partition(()), 7) == 1
    assert principal_specialization(Partition((4, 3, 2)), 6) == 5880
    assert principal_specialization(Partition((1, 1, 1)), 2) == 0


def test_principal_specialization_counts_tableaux():
    for shape in shapes_up_to(8):
        for n_vars in range(1, 6):
            expected = len(enumerate_ssyt(shape, n_vars))
            assert principal_specialization(shape, n_vars) == expected
            assert schur_dual_jt(shape, EvalPoint.ones(n_vars)) == expected


def test_q_specialization_matches_geometric_point():
    q = Fraction(2, 3)
    for shape in ((2, 1), (3,), (2, 2), (1, 1, 1)):
        p = Partition(shape)
        for n_vars in (3, 4):
            point = EvalPoint([q**k for k in range(n_vars)])
            assert principal_specialization_q(p, n_vars, q) == schur_dual_jt(
                p, point
            )


def test_q_specialization_guards():
    with pytest.raises(ValueError):
        principal_specialization_q(Partition((1,)), 2, 1)
    with pytest.raises(ValueError):
        principal_specialization_q(Partition((1,)), 3, -1)


def test_zero_when_too_long():
    shape = Partition((1, 1, 1, 1))
    z = EvalPoint((1, 2, 3))
    assert schur_ssyt_sum(shape, z) == 0
    assert schur_bialternant(shape, z) == 0
    assert schur_dual_jt(shape, z) == 0
    assert principal_specialization(shape, 3) == 0
