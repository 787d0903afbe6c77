"""Schur functions over exact rational arithmetic.

Three independent evaluation routes are provided:

* ``schur_ssyt_sum``     -- the defining sum of monomials over semistandard
  tableaux of the shape, taken letter by letter over chains of interlacing
  shapes (the tableaux that encode nonintersecting lattice paths);
* ``schur_bialternant``  -- ratio of the alternant det[z_i^(lam_j + T - j)]
  to the Vandermonde product prod_{i<j} (z_i - z_j);
* ``schur_dual_jt``      -- dual Jacobi-Trudi determinant in the elementary
  symmetric polynomials, det[e_{conj(lam)_j + i - j}].

plus the all-ones specialization as a closed-form product of integers.
All arithmetic is exact: big integers and ``fractions.Fraction`` only.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterable, Sequence, Union

from ._exact import det_bareiss, to_fraction
from .combinat import Partition, conjugate

RationalLike = Union[int, Fraction, str]


@dataclass(frozen=True)
class EvalPoint:
    """A tuple of exact rational variable values z_1, ..., z_T."""

    values: tuple[Fraction, ...]

    def __init__(self, values: Iterable[RationalLike]):
        object.__setattr__(self, "values", tuple(map(to_fraction, values)))

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    @classmethod
    def ones(cls, n: int) -> "EvalPoint":
        return cls([1] * n)


def _point(z: EvalPoint | Sequence[RationalLike]) -> tuple[Fraction, ...]:
    return (z if isinstance(z, EvalPoint) else EvalPoint(z)).values


def elementary_symmetric_all(z: EvalPoint | Sequence[RationalLike]) -> list[Fraction]:
    """e_0, e_1, ..., e_T as coefficients of prod_i (1 + z_i * xi)."""
    values = _point(z)
    coeffs = [Fraction(1)]
    for v in values:
        coeffs.append(Fraction(0))
        for j in range(len(coeffs) - 1, 0, -1):
            coeffs[j] += v * coeffs[j - 1]
    return coeffs


def schur_ssyt_sum(
    shape: Partition, z: EvalPoint | Sequence[RationalLike]
) -> Fraction:
    """Defining sum: one monomial prod_k z_k^(#k's) per semistandard tableau.

    A tableau on letters 1..T is a chain () = mu^(0) in ... in mu^(T) = lam,
    mu^(k) holding the cells with letters <= k, whose steps are horizontal
    strips, mu^(k-1)_i <= mu^(k)_i <= mu^(k-1)_(i-1): the nonintersecting
    paths of the path-tableau bijection. So the sum runs letter by letter
    over a dict from mu^(k) to the weight of all tableaux of that shape on
    letters 1..k, a strip of m cells weighing z_k^m. The T - k later letters
    fill at most T - k cells of a column, which prunes to
    mu^(k)_i >= lam_(i+T-k). With z_k = p_k / q_k every weight is an integer
    over prod_k q_k^|lam|, the strip factor being p_k^m q_k^(|lam| - m).
    """
    values = _point(z)
    n_vars = len(values)
    if len(shape) > n_vars:
        return Fraction(0)
    lam = shape.parts
    rows = len(lam)
    size = shape.size
    lam_then_zeros = lam + (0,) * n_vars
    layer = {(0,) * rows: 1}
    denominator = 1
    for k, v in enumerate(values, start=1):
        p, q = v.numerator, v.denominator
        strip_factor = [p**m * q ** (size - m) for m in range(size + 1)]
        denominator *= q**size
        floor = lam_then_zeros[n_vars - k : n_vars - k + rows]
        grown: dict[tuple[int, ...], int] = {}
        for nu, weight in layer.items():
            base = sum(nu)
            ceilings = lam[:1] + nu
            choices = [
                range(max(nu[i], floor[i]), min(lam[i], ceilings[i]) + 1)
                for i in range(rows)
            ]
            for mu in product(*choices):
                grown[mu] = grown.get(mu, 0) + weight * strip_factor[sum(mu) - base]
        layer = grown
    return Fraction(layer[lam], denominator)


def schur_bialternant(
    shape: Partition, z: EvalPoint | Sequence[RationalLike]
) -> Fraction:
    """Alternant ratio det[z_i^(lam_j + T - j)] / prod_{i<j} (z_i - z_j).

    Requires pairwise distinct points (the Vandermonde denominator must not
    vanish); the dual Jacobi-Trudi route covers repeated points.
    """
    values = _point(z)
    n_vars = len(values)
    for i in range(n_vars):
        for j in range(i + 1, n_vars):
            if values[i] == values[j]:
                raise ValueError(
                    f"repeated evaluation point z[{i}] == z[{j}] == {values[i]}"
                )
    if len(shape) > n_vars:
        return Fraction(0)
    lam = shape.padded(n_vars)
    numerator = det_bareiss(
        [
            [values[i] ** (lam[j] + n_vars - (j + 1)) for j in range(n_vars)]
            for i in range(n_vars)
        ]
    )
    vandermonde = Fraction(1)
    for i in range(n_vars):
        for j in range(i + 1, n_vars):
            vandermonde *= values[i] - values[j]
    return Fraction(numerator) / vandermonde


def schur_dual_jt(
    shape: Partition, z: EvalPoint | Sequence[RationalLike]
) -> Fraction:
    """Dual Jacobi-Trudi determinant det[e_{conj(lam)_j + i - j}](z).

    e_k = 0 for k > T = len(z), so the matrix is banded: exact elimination
    over sparse rows costs O(l(conj) T^2), since the pivot of column k lies
    in rows k .. k + T - 1 (no row below gains an entry in column k).
    """
    values = _point(z)
    n_vars = len(values)
    if len(shape) > n_vars:
        return Fraction(0)
    conj = conjugate(shape).parts
    e = elementary_symmetric_all(values)
    m = len(conj)
    rows: list[dict[int, Fraction]] = [{} for _ in range(m)]
    for j, c in enumerate(conj):
        for i in range(max(0, j - c), min(m, j - c + n_vars + 1)):
            rows[i][j] = e[c + i - j]
    det = Fraction(1)
    for k in range(m):
        below = range(k, min(m, k + n_vars))
        p = next((r for r in below if rows[r].get(k)), None)
        if p is None:
            return Fraction(0)
        if p != k:
            rows[k], rows[p] = rows[p], rows[k]
            det = -det
        pivot = rows[k].pop(k)
        det *= pivot
        for r in below[1:]:
            factor = rows[r].pop(k, 0) / pivot
            if factor:
                for j, v in rows[k].items():
                    rows[r][j] = rows[r].get(j, 0) - factor * v
    return det


def principal_specialization(shape: Partition, n_vars: int) -> int:
    """Value at z_1 = ... = z_T = 1: the number of semistandard tableaux.

    Closed form prod_{1<=i<j<=T} (lam_i - lam_j + j - i)/(j - i), with the
    shape zero-padded to length T. Always an exact nonnegative integer.
    """
    if n_vars < 0:
        raise ValueError("number of variables must be nonnegative")
    if len(shape) > n_vars:
        return 0
    lam = shape.padded(n_vars)
    num = 1
    den = 1
    for i in range(n_vars):
        for j in range(i + 1, n_vars):
            num *= lam[i] - lam[j] + j - i
            den *= j - i
    count, rem = divmod(num, den)
    if rem != 0:
        raise AssertionError(f"specialization product not integral for {shape.parts}")
    return count
