"""Multiplicative sequences and genus computation.

A multiplicative sequence is determined by a one-variable power series
Q(z) = 1 + q_1 z + q_2 z^2 + ... over the rationals.  Its total class is
the product of Q over formal roots x_i, with p_j the j-th elementary
symmetric function of the x_i.  Taking logarithms turns that product into
sum_k a_k P_k, where log Q(z) = sum_k a_k z^k and P_k = sum_i x_i^k is the
k-th power sum.  So a sequence is held as its logarithm, the function
n -> (1 a_1, ..., n a_n), and one kernel, log, scale, exp, computes
everything (Hirzebruch, Topological Methods in Algebraic Geometry, 1;
Milnor-Stasheff, Characteristic Classes, 16 and 19).  For a total class
T = 1 + T_1 + ..., T_m of weight m, let D_m = m (log T)_m; T' = T (log T)'
gives

    D_m   = m T_m - sum_{j<m} T_j D_{m-j}       (log)
    m E_m = sum_{k<=m} D_k E_{m-k},   E_0 = 1   (exp)

For T = p, D_k = (-1)^{k-1} P_k: the log is Newton's identities.  Scaling
each D_k by c_k = (-1)^{k-1} k a_k and taking exp gives the total class of
the sequence, with E_n = K_n.  Only P_n contains p_n, so c_n is the
coefficient of p_n in K_n, and scaling by 1/c_k instead solves a target
total class for the Pontryagin classes.  The recurrences only add and
multiply, so they run in whatever ring holds the classes: in the free
weight ring they give K_n itself, and in a space's own ring, truncated by
its relations, the genus and the total class without forming K_n.  They
sum only over the nonzero T_j, D_k and E_m, and ``weight_parts`` asks the
logarithm for weights up to the last nonzero D_k, so a sequence has no
size and the cost follows the nonzero classes, not the weight: on
S^N x HP^2 only D_1 and D_2 are nonzero.

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

from .rings import FieldError, GradedPoly, Ring

__all__ = [
    "MultiplicativeSequence",
    "ahat_sequence",
    "bernoulli",
    "evaluate_genus",
    "l_leading_coefficient",
    "l_sequence",
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


def _log_derivative(total: GradedPoly, n: int) -> dict[int, GradedPoly]:
    """The nonzero D_m = m (log T)_m, 0 < m <= n, with T_m the degree-4m
    part of total.  The one place that checks a total class and its ring.
    """
    ring = total.ring
    if ring.characteristic != 0:
        raise ValueError("genus computations need characteristic 0")
    if not total.constant_term_is_one():
        raise ValueError("total class must have constant term 1")
    parts = {  # the nonzero T_j
        d // 4: total.graded_component(d)
        for d in sorted(total.degrees())
        if d % 4 == 0 and 0 < d <= 4 * n
    }
    derivs: dict[int, GradedPoly] = {}
    for m in range(1, n + 1):
        acc = parts[m] * m if m in parts else ring.zero()
        for j, t_j in parts.items():
            if j < m and m - j in derivs:
                acc = acc - t_j * derivs[m - j]
        if acc:
            derivs[m] = acc
    return derivs


def _exp(ring: Ring, derivs: dict[int, GradedPoly], n: int) -> list[GradedPoly]:
    """[E_0, ..., E_n] of E = exp(L), given the nonzero D_k = k L_k."""
    parts = [ring.one()]
    for m in range(1, n + 1):
        acc = ring.zero()
        for k, d_k in derivs.items():
            if k <= m and parts[m - k]:
                acc = acc + d_k * parts[m - k]
        parts.append(acc * Fraction(1, m) if acc else acc)
    return parts


class MultiplicativeSequence:
    """A multiplicative sequence, given by its logarithm.

    ``log_coeffs(n)`` returns the logarithmic coefficients
    (1 a_1, ..., n a_n) of log Q.  Each computation asks only for the
    weights it needs, so a sequence has no size, and nothing is stored.
    """

    def __init__(self, log_coeffs: Callable[[int], Sequence[Fraction]]) -> None:
        self.log_coeffs = log_coeffs

    def _scales(self, n: int) -> list[Fraction]:
        """c_1, ..., c_n with c_k = (-1)^{k-1} k a_k, the coefficient of p_k in K_k."""
        return [c if k % 2 else -c for k, c in enumerate(self.log_coeffs(n), start=1)]

    def weight_parts(self, total_p: GradedPoly, n: int) -> list[GradedPoly]:
        """[E_0, ..., E_n] of the total class at p_1..p_n, in the ring of total_p.

        p_i is read off as the degree-4i part of total_p, and E_m is K_m
        evaluated at those parts: log, scale each D_k by c_k, exp.
        """
        derivs = _log_derivative(total_p, n)
        scales = self._scales(max(derivs, default=0))
        return _exp(total_p.ring, {k: d * scales[k - 1] for k, d in derivs.items()}, n)

    def pontryagin_parts(self, total_l: GradedPoly, n: int) -> list[GradedPoly]:
        """[1, p_1, ..., p_n] whose total class is total_l up to weight n,
        in the ring of total_l: log, scale each D_k by 1/c_k, exp.  Raises
        ``ValueError`` if some c_k with k <= n is zero.
        """
        derivs = _log_derivative(total_l, n)
        scales = self._scales(n)
        if 0 in scales:
            k = scales.index(0) + 1
            raise ValueError(f"weight polynomial K_{k} has no p_{k} term")
        return _exp(total_l.ring, {k: d * (Fraction(1) / scales[k - 1])
                                   for k, d in derivs.items()}, n)

    def k_polynomials(self, n: int) -> list[GradedPoly]:
        """[K_1, ..., K_n] from one kernel run in ``weight_ring(n)``.

        K_m has exponent 0 on p_{m+1}..p_n, which lead the ring's order,
        so it prints as it does in ``weight_ring(m)``.
        """
        if n < 1:
            raise ValueError("weight polynomials start at n = 1")
        ring = weight_ring(n)
        return self.weight_parts(sum(map(ring.gen, ring.names), ring.one()), n)[1:]

    def k_polynomial(self, n: int) -> GradedPoly:
        """The weight-n polynomial K_n in p_1..p_n, in ``weight_ring(n)``."""
        return self.k_polynomials(n)[-1]

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
    class: the genus of a closed manifold.  Zero when the dimension is not
    a multiple of four.  A space not over Q raises ``FieldError`` at
    ``characteristic``.
    """
    from .spaces import integrate  # imported here: a genus table needs no space

    if space.ring.characteristic != 0:
        raise FieldError("characteristic", "genus evaluation needs characteristic 0")
    n, rest = divmod(space.dimension, 4)
    top = space.ring.zero() if rest else seq.weight_parts(space.total_p, n)[n]
    return integrate(space, top)
