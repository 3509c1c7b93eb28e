"""Exact scalar arithmetic for the coefficient fields.

Characteristic 0 coefficients are ``fractions.Fraction`` values straight from
the standard library; Fraction already maintains the normal form we need
(gcd(num, den) = 1, positive denominator, 0/1 for zero).  Characteristic p
coefficients are :class:`PrimeScalar` values.  The two kinds never mix: any
binary operation across characteristics raises ``TypeError``, and operations
between prime-field scalars with different moduli raise ``ValueError``.

These are the scalars of the package's interface, not of its polynomial
arithmetic: a polynomial stores its coefficients as Python ints (see
:mod:`charclasses.rings`), and prints and substitutes on those ints.
Scalars come in through ``Ring.poly``, and go out through a polynomial's
``coefficient``, ``constant_term`` and ``items``.  This module imports
``fractions`` only to parse a rational (``Fraction`` is in ``__all__`` and
resolves on first access), so a characteristic-p computation, which loads
this module for its modulus, loads no ``fractions``.

A modulus is validated once, where it enters: by :func:`validate_modulus`
when a ``PrimeScalar`` is constructed and when a ``Ring`` of characteristic
p is built.  It must be a prime below ``MAX_MODULUS`` (about 3.3e24), the
bound below which :func:`is_prime` decides primality exactly.  Arithmetic
results live on a modulus that was already validated, so they skip the
check.

Canonical text forms:

* rational input: ``"a/b"`` or ``"a"`` (optional sign, no decimals);
  machine output is always ``"a/b"``, so integers render as ``"a/1"``
* prime field: ``"k mod p"``
"""

from __future__ import annotations

import re
import sys
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "Fraction",
    "MAX_MODULUS",
    "PrimeScalar",
    "format_rational",
    "is_prime",
    "parse_rational",
    "validate_modulus",
]

# The k-th entry is the smallest composite that is a strong pseudoprime to
# each of the first k prime bases 2, 3, 5, ..., 41 (OEIS A014233; Jaeschke,
# Math. Comp. 61 (1993); Sorenson and Webster, Math. Comp. 86 (2017)), so
# below it Miller-Rabin with those k bases decides primality exactly.
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSEUDOPRIMES = (
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
    341550071728321, 341550071728321, 3825123056546413051,
    3825123056546413051, 3825123056546413051, 318665857834031151167461,
    3317044064679887385961981,
)
MAX_MODULUS = _PSEUDOPRIMES[-1]

_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for n < MAX_MODULUS.

    It tries the prime bases 2, 3, 5, ... in turn and stops as soon as the
    bases tried decide primality for n, so small n need only a few.

    Raises ValueError at or above MAX_MODULUS, where the fixed bases no
    longer decide primality.
    """
    if n >= MAX_MODULUS:
        raise ValueError(
            f"{n} is not below MAX_MODULUS = {MAX_MODULUS}, the limit of "
            "exact primality testing"
        )
    if n < 2:
        return False
    for a in _BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a, pseudoprime in zip(_BASES, _PSEUDOPRIMES):
        x = pow(a, d, n)
        if x != 1 and x != n - 1:
            for _ in range(s - 1):
                x = x * x % n
                if x == n - 1:
                    break
            else:
                return False
        if n < pseudoprime:
            break
    return True


def validate_modulus(p: int) -> int:
    """Return p if it is a prime below MAX_MODULUS; raise ValueError if not."""
    if not is_prime(p):
        raise ValueError(f"modulus {p} is not prime")
    return p


class PrimeScalar:
    """An element of the field with ``modulus`` elements.

    ``value`` is stored reduced to the range 0..modulus-1.  Construction
    validates the modulus: a prime below MAX_MODULUS.  Arithmetic results
    and int operands are built on the operand's modulus without a second
    check.  An operand of a type the field does not know (a polynomial,
    say) gets ``NotImplemented``, so Python tries its reflected method.

    A value: its fields cannot be assigned or deleted, ``==`` and the hash
    go by (value, modulus), and copies and pickles are rebuilt through the
    constructor.
    """

    __slots__ = ("value", "modulus")
    __match_args__ = ("value", "modulus")

    def __init__(self, value: int, modulus: int) -> None:
        _set_value(self, value)
        _set_modulus(self, modulus)
        self.__post_init__()

    # validation keeps this name because perfbench/tracer.py wraps it, and
    # tests/test_tracer_targets.py checks that it is here
    def __post_init__(self) -> None:
        validate_modulus(self.modulus)
        _set_value(self, self.value % self.modulus)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not PrimeScalar:
            return NotImplemented
        return self.value == other.value and self.modulus == other.modulus

    def __hash__(self) -> int:
        return hash((self.value, self.modulus))

    def __repr__(self) -> str:
        return f"PrimeScalar(value={self.value!r}, modulus={self.modulus!r})"

    def __reduce__(self) -> tuple:
        return PrimeScalar, (self.value, self.modulus)

    def _operand(self, other: object) -> int | None:
        """other's value on this modulus, or None for a type not known here."""
        if isinstance(other, PrimeScalar):
            if other.modulus != self.modulus:
                raise ValueError(
                    f"cannot mix scalars mod {self.modulus} and mod {other.modulus}"
                )
            return other.value
        if isinstance(other, int):
            return other
        # a Fraction exists only once fractions is loaded, so this loads nothing
        fractions = sys.modules.get("fractions")
        if fractions is not None and isinstance(other, fractions.Fraction):
            raise TypeError(
                "cannot mix characteristic 0 and prime-field scalars"
            )
        return None

    def __add__(self, other: object) -> "PrimeScalar":
        n = self._operand(other)
        if n is None:
            return NotImplemented
        return _unchecked(self.value + n, self.modulus)

    __radd__ = __add__

    def __sub__(self, other: object) -> "PrimeScalar":
        n = self._operand(other)
        if n is None:
            return NotImplemented
        return _unchecked(self.value - n, self.modulus)

    def __rsub__(self, other: object) -> "PrimeScalar":
        n = self._operand(other)
        if n is None:
            return NotImplemented
        return _unchecked(n - self.value, self.modulus)

    def __mul__(self, other: object) -> "PrimeScalar":
        n = self._operand(other)
        if n is None:
            return NotImplemented
        return _unchecked(self.value * n, self.modulus)

    __rmul__ = __mul__

    def __truediv__(self, other: object) -> "PrimeScalar":
        n = self._operand(other)
        if n is None:
            return NotImplemented
        return self._quotient(self.value, n)

    def __rtruediv__(self, other: object) -> "PrimeScalar":
        n = self._operand(other)
        if n is None:
            return NotImplemented
        return self._quotient(n, self.value)

    def _quotient(self, a: int, b: int) -> "PrimeScalar":
        p = self.modulus
        if b % p == 0:
            raise ZeroDivisionError(f"division by zero in field mod {p}")
        return _unchecked(a * pow(b, -1, p), p)

    def __neg__(self) -> "PrimeScalar":
        return _unchecked(-self.value, self.modulus)

    def __bool__(self) -> bool:
        return self.value != 0

    def __str__(self) -> str:
        return f"{self.value} mod {self.modulus}"


# the slot descriptors' setters skip PrimeScalar.__setattr__, which refuses
# every assignment, and _unchecked skips __init__, which would re-run
# validation
_new = object.__new__
_set_value = PrimeScalar.value.__set__
_set_modulus = PrimeScalar.modulus.__set__


def _unchecked(value: int, modulus: int) -> PrimeScalar:
    """``PrimeScalar(value, modulus)`` for a modulus already validated."""
    scalar = _new(PrimeScalar)
    _set_value(scalar, value % modulus)
    _set_modulus(scalar, modulus)
    return scalar


def parse_rational(text: str) -> Fraction:
    """Parse ``"a/b"`` or ``"a"`` into a Fraction.

    Decimal and exponent notation are rejected: every scalar in this package
    is an exact integer ratio.  A zero denominator raises ZeroDivisionError.
    """
    stripped = text.strip()
    if not _RATIONAL_RE.match(stripped):
        raise ValueError(f"not a rational literal: {text!r}")
    from fractions import Fraction

    return Fraction(stripped)


def format_rational(q: Fraction) -> str:
    """Render a Fraction in the machine form ``"a/b"`` (so 3 becomes "3/1")."""
    return f"{q.numerator}/{q.denominator}"


def __getattr__(name: str):
    # Fraction stays in __all__, and resolves here, without loading
    # fractions with this module
    if name == "Fraction":
        from fractions import Fraction

        return Fraction
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
