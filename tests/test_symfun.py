"""Partitions and the monomial-to-elementary conversion."""

import random
from fractions import Fraction
from itertools import combinations
from math import comb, prod

import pytest

from charclasses.rings import Ring
from charclasses.symfun import (
    _elementary_in_monomial_basis,
    _m_to_e_table,
    elementary_ring,
    elementary_values,
    monomial_to_elementary,
    partitions,
    symfun_eval,
)


def partition_count_oracle(n, cap=None):
    """Count partitions by bounded-largest-part recursion.

    Independent of both the enumeration in partitions() and the pentagonal
    recurrence used by the verify checks.
    """
    if cap is None:
        cap = n
    if n == 0:
        return 1
    return sum(partition_count_oracle(n - part, part) for part in range(1, min(cap, n) + 1))


def test_partition_enumeration_order():
    assert partitions(0) == [()]
    assert partitions(1) == [(1,)]
    assert partitions(4) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    fives = partitions(5)
    assert fives[0] == (5,)
    assert fives[-1] == (1, 1, 1, 1, 1)
    assert fives == sorted(fives, reverse=True)


def test_partition_counts_against_recursion_oracle():
    for n in range(0, 26):
        assert len(partitions(n)) == partition_count_oracle(n)
    assert len(partitions(30)) == 5604


def test_partitions_are_weakly_decreasing_and_sum_right():
    for n in range(0, 15):
        for lam in partitions(n):
            assert sum(lam) == n
            assert all(lam[i] >= lam[i + 1] for i in range(len(lam) - 1))
    with pytest.raises(ValueError):
        partitions(-1)


def test_elementary_ring_declares_descending():
    ring = elementary_ring(3)
    assert ring.names == ("e3", "e2", "e1")
    assert ring.degrees == (6, 4, 2)


def test_small_conversions_match_hand_identities():
    # m_(1) = e1
    ring1 = elementary_ring(1)
    assert monomial_to_elementary((1,), 1) == ring1.gen("e1")
    # m_(2) = e1^2 - 2 e2, m_(1,1) = e2
    ring2 = elementary_ring(2)
    e1 = ring2.gen("e1")
    e2 = ring2.gen("e2")
    assert monomial_to_elementary((2,), 2) == e1 * e1 - e2 * 2
    assert monomial_to_elementary((1, 1), 2) == e2
    # m_(2,1) = e1 e2 - 3 e3
    ring3 = elementary_ring(3)
    assert (
        monomial_to_elementary((2, 1), 3)
        == ring3.gen("e1") * ring3.gen("e2") - ring3.gen("e3") * 3
    )
    # power sums: m_(3) = e1^3 - 3 e1 e2 + 3 e3
    assert monomial_to_elementary((3,), 3) == ring3.poly(
        "e1^3 - 3*e2*e1 + 3*e3"
    )


def test_conversion_validates_input():
    with pytest.raises(ValueError):
        monomial_to_elementary((2, 3), 5)
    with pytest.raises(ValueError):
        monomial_to_elementary((0,), 1)
    with pytest.raises(ValueError):
        monomial_to_elementary((3, 1), 3)
    with pytest.raises(ValueError):
        monomial_to_elementary((), 1)


def test_m_to_e_table_inverts_the_elementary_expansion():
    # substituting m_lam -> table[lam] into e_mu = sum a_{mu,lam} m_lam
    # must give back e_mu, in integers, for every mu of weight up to 12
    for n in range(1, 13):
        table = _m_to_e_table(n)
        for row in table.values():
            assert all(type(c) is int for c in row.values())
        for mu in partitions(n):
            product = {}
            for lam, a in _elementary_in_monomial_basis(mu).items():
                for nu, c in table[lam].items():
                    product[nu] = product.get(nu, 0) + a * c
            assert {nu: c for nu, c in product.items() if c} == {mu: 1}


def test_symfun_eval_hand_values():
    assert symfun_eval({(2,): 1}, [1, 2]) == 5
    assert symfun_eval({(1, 1): 1}, [1, 2]) == 2
    assert symfun_eval({(2, 1): 1}, [1, 2, 3]) == 1 * 2 * (1 + 2) + 1 * 3 * (1 + 3) + 2 * 3 * (2 + 3)
    assert symfun_eval({(2,): 1, (1, 1): 5}, [1, 2]) == 15
    assert symfun_eval({(1,): Fraction(1, 2)}, [Fraction(1, 3), Fraction(2, 3)]) == Fraction(1, 2)


def test_symfun_eval_validates_point_length():
    with pytest.raises(ValueError):
        symfun_eval({(2, 1): 1}, [1, 2])
    with pytest.raises(ValueError):
        symfun_eval({(2, 0): 1}, [1, 2])


def test_elementary_values_match_direct_sums():
    point = [Fraction(1), Fraction(2), Fraction(3), Fraction(-1, 2)]
    values = elementary_values(point, 4)
    n = len(point)
    for k in range(1, 5):
        direct = Fraction(0)
        for subset in combinations(range(n), k):
            direct += prod((point[i] for i in subset), start=Fraction(1))
        assert values[k - 1] == direct
    assert elementary_values(point, 6)[4:] == [Fraction(0), Fraction(0)]


def test_basis_conversion_agrees_with_direct_evaluation():
    rng = random.Random(2024)
    for weight in range(1, 6):
        for lam in partitions(weight):
            poly = monomial_to_elementary(lam, weight)
            for _ in range(5):
                point = [
                    Fraction(rng.randint(-7, 7), rng.randint(1, 5))
                    for _ in range(weight)
                ]
                e_vals = elementary_values(point, weight)
                via_basis = poly.substitute(
                    {f"e{j}": e_vals[j - 1] for j in range(1, weight + 1)}, Ring(0, [])
                ).constant_term()
                assert via_basis == symfun_eval({lam: 1}, point)


def test_conversion_is_stable_above_weight():
    # evaluating with more variables than the weight gives the same answer
    lam = (2, 1)
    poly = monomial_to_elementary(lam, 6)
    point = [Fraction(k, 3) for k in range(1, 7)]
    e_vals = elementary_values(point, 3)
    via_basis = poly.substitute(
        {f"e{j}": e_vals[j - 1] for j in range(1, 4)}, Ring(0, [])
    ).constant_term()
    assert via_basis == symfun_eval({lam: 1}, point)


def test_elementary_expansion_coefficient_structure():
    # top strip: coefficient of e_n in m_(1^n) is 1 and everything else is 0
    for n in range(1, 7):
        ones = tuple([1] * n)
        poly = monomial_to_elementary(ones, n)
        ring = elementary_ring(n)
        assert poly == ring.gen(f"e{n}")
    # binomial corner: m_(n) expanded at e_1^n has coefficient 1
    for n in range(2, 7):
        poly = monomial_to_elementary((n,), n)
        exps = [0] * n
        exps[n - 1] = n
        assert poly.coefficient(tuple(exps)) == 1
        assert comb(n, 1) == n
