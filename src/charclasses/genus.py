"""Multiplicative sequences and genus computation.

A multiplicative sequence is determined by a one-variable power series
Q(z) = 1 + q_1 z + q_2 z^2 + ... over the rationals.  Its total class is
the product of Q over formal roots x_i, with p_j the j-th elementary
symmetric function of the x_i.  Taking logarithms turns that product into
sum_k a_k P_k, where log Q(z) = sum_k a_k z^k and P_k = sum_i x_i^k is the
k-th power sum.  So a sequence is held as its logarithm, the function
n -> (1 a_1, ..., n a_n), and two recurrences compute everything
(Hirzebruch, Topological Methods in Algebraic Geometry, 1; Milnor-Stasheff,
Characteristic Classes, 16):

    P_k   = sum_{j<k} (-1)^{j-1} p_j P_{k-j} + (-1)^{k-1} k p_k   (Newton)
    m E_m = sum_{k<=m} k a_k P_k E_{m-k},   E_0 = 1       (exp, degree by degree)

E_n is the weight-n polynomial K_n.  The recurrences only add and multiply
the p_j, so they run in whatever ring holds them: on the generators of the
free weight ring they give K_n itself, and on a space's Pontryagin classes,
in the space's own ring and truncated by its relations, they give the
genus, the total class and the Pontryagin solve without forming K_n.  Only
P_n contains p_n, so the coefficient of p_n in K_n is (-1)^{n-1} n a_n.
All of them run one kernel, ``weight_parts``, which sums only over the
nonzero p_j and P_k and asks the logarithm for weights up to the last
nonzero P_k, so a sequence has no size, and the cost follows the nonzero
classes, not the weight: on S^N x HP^2 only P_1 and P_2 are nonzero.

Weights are internal: p_i has weight i, and a class of weight n lives in
cohomological degree 4n, so the weight ring declares p_i with degree 4i and
weight-n parts are degree-4n components.

Built in: the signature series sqrt(z)/tanh(sqrt(z)) whose genus is the
signature, and the series (sqrt(z)/2)/sinh(sqrt(z)/2) of the A-hat genus.
Both have closed-form logarithms in the even-index Bernoulli numbers,

    L:     k a_k = 2^{2k} (2^{2k-1} - 1) B_{2k} / (2k)!
    A-hat: k a_k = -B_{2k} / (2 (2k)!)

computed on each call from integer tangent numbers; nothing is cached.
For a series given by its q_k, k a_k = k q_k - sum_{j<k} j a_j q_{k-j}
(from Q' = Q (log Q)') gives the logarithm; the tests and ``verify`` use
that recurrence as the oracle for the two closed forms.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Callable, Sequence

from .rings import GradedPoly, Ring

__all__ = [
    "MultiplicativeSequence",
    "ahat_sequence",
    "bernoulli",
    "evaluate_genus",
    "l_leading_coefficient",
    "l_sequence",
    "solve_pontryagin",
    "weight_ring",
]


def _even_bernoulli(n: int) -> list[Fraction]:
    """[B_0, B_2, ..., B_2n] from the tangent numbers T_1..T_n.

    Brent and Harvey, "Fast computation of Bernoulli, Tangent and Secant
    numbers" (2011), Algorithm TangentNumbers: O(n^2) integer operations,
    then B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)).
    """
    tangent = [0, 1] + [0] * (n - 1)  # T_k at index k
    for k in range(2, n + 1):
        tangent[k] = (k - 1) * tangent[k - 1]
    for k in range(2, n + 1):
        for j in range(k, n + 1):
            tangent[j] = (j - k) * tangent[j - 1] + (j - k + 2) * tangent[j]
    return [Fraction(1)] + [
        Fraction((-1) ** (k - 1) * 2 * k * tangent[k], 4 ** k * (4 ** k - 1))
        for k in range(1, n + 1)
    ]


def bernoulli(n: int) -> Fraction:
    """The n-th Bernoulli number, with B_1 = -1/2.

    Each call builds the tangent numbers up to index n, O(n^2) integer
    steps, and nothing is cached: asking for B_0..B_N one index at a time
    costs O(N^3).
    """
    if n < 0:
        raise ValueError(f"no Bernoulli number of index {n}")
    if n == 1:
        return Fraction(-1, 2)
    if n % 2:
        return Fraction(0)
    return _even_bernoulli(n // 2)[-1]


def _l_log_coefficients(n: int) -> list[Fraction]:
    """k a_k of log(sqrt(z)/tanh(sqrt(z))): 2^{2k} (2^{2k-1} - 1) B_{2k} / (2k)!."""
    b = _even_bernoulli(n)
    return [
        4 ** k * (2 ** (2 * k - 1) - 1) * b[k] / factorial(2 * k)
        for k in range(1, n + 1)
    ]


def _ahat_log_coefficients(n: int) -> list[Fraction]:
    """k a_k of log((sqrt(z)/2)/sinh(sqrt(z)/2)): -B_{2k} / (2 (2k)!)."""
    b = _even_bernoulli(n)
    return [-b[k] / (2 * factorial(2 * k)) for k in range(1, n + 1)]


def l_leading_coefficient(n: int) -> Fraction:
    """Coefficient of p_n in the signature polynomial, in closed form:
    2^{2n} (2^{2n-1} - 1) |B_{2n}| / (2n)!.
    """
    if n < 1:
        raise ValueError("leading coefficients start at weight 1")
    return abs(_l_log_coefficients(n)[-1])


def weight_ring(n: int) -> Ring:
    """Free ring on p_1..p_n, p_i of degree 4i, declared p_n first."""
    return Ring(0, [(f"p{i}", 4 * i) for i in range(n, 0, -1)])


class MultiplicativeSequence:
    """A multiplicative sequence, given by its logarithm.

    ``log_coeffs(n)`` returns the logarithmic coefficients
    (1 a_1, ..., n a_n) of log Q.  Each computation asks only for the
    weights it needs, so a sequence has no size, and nothing is stored.
    """

    def __init__(self, log_coeffs: Callable[[int], Sequence[Fraction]]) -> None:
        self.log_coeffs = log_coeffs

    def weight_parts(self, total_p: GradedPoly, n: int) -> list[GradedPoly]:
        """[E_0, ..., E_n] of the total class at p_1..p_n, in the ring of total_p.

        p_i is read off as the degree-4i part of total_p, and E_m is K_m
        evaluated at those parts.  The Newton loop runs over the nonzero
        p_j, the exp loop over the nonzero P_k, no product with a zero
        factor is formed, and the logarithm is asked for weights up to the
        last nonzero P_k only.
        """
        ring = total_p.ring
        if ring.characteristic != 0:
            raise ValueError("genus computations need characteristic 0")
        if total_p.constant_term() != 1:
            raise ValueError("total Pontryagin class must have constant term 1")
        degrees = sorted({ring.monomial_degree(mon) for mon in total_p.terms})
        p_classes = {  # the nonzero p_j
            d // 4: total_p.graded_component(d)
            for d in degrees
            if d % 4 == 0 and 0 < d <= 4 * n
        }
        power_sums: dict[int, GradedPoly] = {}  # the nonzero P_k
        for k in range(1, n + 1):
            acc = p_classes[k] * (k if k % 2 else -k) if k in p_classes else ring.zero()
            for j, p_j in p_classes.items():
                if j < k and k - j in power_sums:
                    term = p_j * power_sums[k - j]
                    acc = acc + term if j % 2 else acc - term
            if acc:
                power_sums[k] = acc
        log_coeffs = self.log_coeffs(max(power_sums, default=0))
        scaled_sums = {k: s * log_coeffs[k - 1] for k, s in power_sums.items()}
        parts = [ring.one()]
        for m in range(1, n + 1):
            acc = ring.zero()
            for k, scaled in scaled_sums.items():
                if k <= m and parts[m - k]:
                    acc = acc + scaled * parts[m - k]
            parts.append(acc * Fraction(1, m) if acc else acc)
        return parts

    def k_polynomial(self, n: int) -> GradedPoly:
        """The weight-n polynomial K_n in p_1..p_n."""
        if n < 1:
            raise ValueError("weight polynomials start at n = 1")
        ring = weight_ring(n)
        return self.weight_parts(sum(map(ring.gen, ring.names), ring.one()), n)[n]

    def total_class(self, total_p: GradedPoly, max_weight: int) -> GradedPoly:
        """1 + K_1 + ... + K_max_weight evaluated at a total Pontryagin class,
        in the ring of total_p.

        p_i is read off as the degree-4i component of total_p.
        """
        return sum(self.weight_parts(total_p, max_weight), total_p.ring.zero())


def l_sequence() -> MultiplicativeSequence:
    """The signature sequence, by the closed form of its logarithm."""
    return MultiplicativeSequence(_l_log_coefficients)


def ahat_sequence() -> MultiplicativeSequence:
    """The A-hat sequence, by the closed form of its logarithm."""
    return MultiplicativeSequence(_ahat_log_coefficients)


def evaluate_genus(space, seq: MultiplicativeSequence) -> Fraction:
    """Pair the top weight polynomial of the sequence with the fundamental
    class: the genus of the space.  Zero when the dimension is not a
    multiple of four.
    """
    if space.ring.characteristic != 0:
        raise ValueError("genus evaluation needs characteristic 0")
    if space.dimension % 4 != 0:
        return Fraction(0)
    n = space.dimension // 4
    return seq.weight_parts(space.total_p, n)[n].coefficient(space.fundamental)


def solve_pontryagin(
    seq: MultiplicativeSequence,
    total_l: GradedPoly,
    known: Sequence[GradedPoly],
) -> GradedPoly:
    """Solve K_n(p_1..p_n) = weight-n part of total_l for p_n, n = len(known) + 1.

    ``known`` supplies p_1..p_{n-1} (homogeneous of degree 4i, zero allowed).
    K_n is linear in p_n with the scalar leading coefficient
    s_n = (-1)^{n-1} n a_n, so

        p_n = (target - K_n with p_n := 0) / s_n,

    where K_n with p_n := 0 is the weight-n part computed in the ring of
    total_l.
    """
    ring = total_l.ring
    n = len(known) + 1
    for i, cls in enumerate(known, start=1):
        if not cls.is_homogeneous(4 * i):
            raise ValueError(
                f"supplied p_{i} is not homogeneous of degree {4 * i}"
            )
    lower = seq.weight_parts(sum(known, ring.one()), n)[n]
    leading = seq.log_coeffs(n)[n - 1] * (-1) ** (n - 1)
    if not leading:
        raise ValueError(f"weight polynomial K_{n} has no p_{n} term")
    target = total_l.graded_component(4 * n)
    return (target - lower) * (Fraction(1) / leading)
