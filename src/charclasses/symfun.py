"""Partitions and symmetric-function basis conversion.

Partitions are weakly decreasing tuples of positive integers.  Enumeration
is reverse-lexicographic, largest part first, so ``partitions(4)`` yields
(4), (3,1), (2,2), (2,1,1), (1,1,1,1); every routine here iterates in that
order, which keeps all downstream output deterministic.

The conversion from the monomial basis m_lambda to polynomials in the
elementary symmetric functions e_1, ..., e_w works at weight w in exactly w
variables (the stability range).  The matrix of the e_{lambda'} (lambda'
the conjugate partition) in the monomial basis is unitriangular with
non-negative integer entries under the dominance order (Macdonald,
Symmetric Functions and Hall Polynomials, I (2.3)), which the
reverse-lexicographic order extends; so each m_lambda is solved by integer
back-substitution along ``partitions(w)`` reversed.  The table for each
weight is computed once and memoized.  ``genus`` does not use it: it
evaluates multiplicative sequences by Newton's identities, and this
conversion is the independent K_n oracle that ``tests/test_genus.py``
holds that route against.  ``tests/test_acceptance.py`` and ``verify``'s
``symmetric-oracle`` check test the conversion itself against direct
evaluation (``verify`` also checks partition counts against a recurrence);
neither touches the genus code.

``symfun_eval`` evaluates m_lambda by direct summation over the distinct
permutations of the exponent vector; it is deliberately independent of the
basis-conversion path so the two can check each other.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, lcm
from typing import Iterator, Mapping, Sequence

from .rings import GradedPoly, Ring

__all__ = [
    "elementary_ring",
    "elementary_values",
    "monomial_to_elementary",
    "partitions",
    "symfun_eval",
]

Partition = tuple[int, ...]


def partitions(n: int) -> list[Partition]:
    """All partitions of n, reverse-lexicographically (largest part first)."""
    if n < 0:
        raise ValueError(f"cannot partition {n}")
    out: list[Partition] = []

    def extend(prefix: list[int], remaining: int, cap: int) -> None:
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for part in range(min(cap, remaining), 0, -1):
            prefix.append(part)
            extend(prefix, remaining - part, part)
            prefix.pop()

    extend([], n, n)
    return out


def _check_partition(lam: Sequence[int]) -> Partition:
    lam = tuple(lam)
    if any(not isinstance(p, int) or p < 1 for p in lam):
        raise ValueError(f"partition parts must be positive integers: {lam}")
    if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
        raise ValueError(f"partition parts must be weakly decreasing: {lam}")
    return lam


def _groups(lam: Partition) -> list[tuple[int, int]]:
    """(part value, multiplicity) pairs, largest value first."""
    grouped: list[tuple[int, int]] = []
    for p in lam:
        if grouped and grouped[-1][0] == p:
            grouped[-1] = (p, grouped[-1][1] + 1)
        else:
            grouped.append((p, 1))
    return grouped


def _multiply_by_elementary(
    expr: dict[Partition, int], k: int, weight: int
) -> dict[Partition, int]:
    """Multiply an m-basis expression of the given weight by e_k.

    For each candidate result partition lam, the coefficient is the number
    of ways to subtract 1 from a k-subset of lam's parts and land on a
    partition present in expr.  Subsets are counted per group of equal
    parts, so repeated parts never blow up the enumeration.
    """
    result: dict[Partition, int] = {}
    for lam in partitions(weight + k):
        groups = _groups(lam)
        total = 0

        def descend(gi: int, left: int, reduced: list[int], ways: int) -> None:
            nonlocal total
            if gi == len(groups):
                if left == 0:
                    nu = tuple(
                        sorted((p for p in reduced if p > 0), reverse=True)
                    )
                    coeff = expr.get(nu)
                    if coeff:
                        total += ways * coeff
                return
            value, mult = groups[gi]
            for j in range(0, min(mult, left) + 1):
                descend(
                    gi + 1,
                    left - j,
                    reduced + [value] * (mult - j) + [value - 1] * j,
                    ways * comb(mult, j),
                )

        descend(0, k, [], 1)
        if total:
            result[lam] = total
    return result


def _elementary_in_monomial_basis(mu: Partition) -> dict[Partition, int]:
    """Expand the product e_mu = e_{mu_1} * ... in the monomial basis."""
    expr: dict[Partition, int] = {(): 1}
    weight = 0
    for part in mu:
        expr = _multiply_by_elementary(expr, part, weight)
        weight += part
    return expr


_M_TO_E_TABLES: dict[int, dict[Partition, dict[Partition, int]]] = {}


def elementary_ring(weight: int) -> Ring:
    """Free ring over Q on e_1..e_weight; e_j carries internal degree 2j.

    Generators are declared largest index first, which makes printed terms
    come out leading-generator first.
    """
    return Ring(0, [(f"e{j}", 2 * j) for j in range(weight, 0, -1)])


def _conjugate(lam: Partition) -> Partition:
    """The conjugate partition: its i-th part counts the parts of lam >= i."""
    return tuple(sum(p >= i for p in lam) for i in range(1, lam[0] + 1))


def _m_to_e_table(n: int) -> dict[Partition, dict[Partition, int]]:
    """For each lam of weight n, the e_mu coefficients expressing m_lam.

    By Macdonald, Symmetric Functions and Hall Polynomials, I (2.3),
    e_{lam'} = m_lam + sum of a_{lam,mu} m_mu over the mu strictly dominated
    by lam, where lam' is the conjugate of lam and the a_{lam,mu} are
    non-negative integers.  Reverse-lexicographic order extends dominance,
    so walking ``partitions(n)`` backwards finds every such m_mu already
    solved, and m_lam = e_{lam'} - sum a_{lam,mu} m_mu has integer
    coefficients.
    """
    if n in _M_TO_E_TABLES:
        return _M_TO_E_TABLES[n]
    table: dict[Partition, dict[Partition, int]] = {}
    for lam in reversed(partitions(n)):
        conjugate = _conjugate(lam)
        row = _elementary_in_monomial_basis(conjugate)
        if row.pop(lam, 0) != 1:
            raise ArithmeticError(f"e_{conjugate} does not lead with m_{lam}")
        solved = {conjugate: 1}
        for mu, a in row.items():
            for nu, c in table[mu].items():
                solved[nu] = solved.get(nu, 0) - a * c
        table[lam] = {nu: c for nu, c in solved.items() if c}
    _M_TO_E_TABLES[n] = table
    return table


def monomial_to_elementary(lam: Sequence[int], nvars: int) -> GradedPoly:
    """Express m_lam as a polynomial in e_1..e_w, w = weight of lam.

    nvars must be at least the weight; inside the stability range the answer
    does not depend on it, so the computation always runs at w variables.
    """
    lam = _check_partition(lam)
    weight = sum(lam)
    if weight == 0:
        raise ValueError("the empty partition has no conversion")
    if nvars < weight:
        raise ValueError(
            f"nvars = {nvars} is below the stability range for weight {weight}"
        )
    ring = elementary_ring(weight)
    row = _m_to_e_table(weight)[lam]
    terms = {}
    for mu, coeff in row.items():
        exps = [0] * weight
        for part in mu:
            # generator e_j sits at index weight - j (declared descending)
            exps[weight - part] += 1
        terms[tuple(exps)] = coeff
    return ring.poly(terms)


# ----------------------------------------------------------------------
# direct evaluation


def _distinct_permutations(items: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """Distinct permutations in lexicographic order, by next-permutation."""
    perm = sorted(items)
    last = len(perm) - 1
    while True:
        yield tuple(perm)
        i = last - 1
        while i >= 0 and perm[i] >= perm[i + 1]:
            i -= 1
        if i < 0:
            return
        j = last
        while perm[j] <= perm[i]:
            j -= 1
        perm[i], perm[j] = perm[j], perm[i]
        perm[i + 1 :] = perm[:i:-1]


def symfun_eval(
    expr: Mapping[Sequence[int], Fraction | int],
    point: Sequence[Fraction | int],
) -> Fraction:
    """Evaluate an m-basis expression at a rational point.

    Each m_lambda is summed directly over the distinct permutations of its
    padded exponent vector.  The point must have at least weight-many
    coordinates so results agree with the elementary-basis picture.  The
    coordinates are written as a_i / D over a common denominator D, so each
    summand is a product of precomputed integer powers a_i^e and the sum
    for a weight-w lambda is divided by D^w once.
    """
    coords = [Fraction(x) for x in point]
    scale = lcm(*(x.denominator for x in coords))
    numerators = [x.numerator * (scale // x.denominator) for x in coords]
    checked = [(_check_partition(lam), coeff) for lam, coeff in expr.items()]
    top = max((lam[0] for lam, _ in checked if lam), default=0)
    powers = [[a**e for e in range(top + 1)] for a in numerators]
    total = Fraction(0)
    for lam, coeff in checked:
        weight = sum(lam)
        if len(point) < weight:
            raise ValueError(
                f"point has {len(point)} coordinates, below weight {weight}"
            )
        padded = lam + (0,) * (len(point) - len(lam))
        value = 0
        for exponents in _distinct_permutations(padded):
            product = 1
            for row, e in zip(powers, exponents):
                if e:
                    product *= row[e]
            value += product
        total += Fraction(coeff) * Fraction(value, scale**weight)
    return total


def elementary_values(
    point: Sequence[Fraction | int], max_index: int
) -> list[Fraction]:
    """[e_1(point), ..., e_max_index(point)] via the product of (1 + x_i t)."""
    coeffs = [Fraction(1)] + [Fraction(0)] * max_index
    for x in point:
        x = Fraction(x)
        for j in range(min(len(coeffs) - 1, max_index), 0, -1):
            coeffs[j] += x * coeffs[j - 1]
    return coeffs[1:]
