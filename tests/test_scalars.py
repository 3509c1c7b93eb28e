"""Coefficient-field arithmetic: exactness, canonical text, field axioms."""

import random
from fractions import Fraction
from operator import add, mul, sub, truediv

import pytest

from charclasses import rings, scalars
from charclasses.rings import Ring
from charclasses.scalars import (
    _BASES,
    _PSEUDOPRIMES,
    MAX_MODULUS,
    PrimeScalar,
    format_rational,
    is_prime,
    parse_rational,
    validate_modulus,
)


def test_parse_rational_accepts_integer_and_ratio_forms():
    assert parse_rational("14/45") == Fraction(14, 45)
    assert parse_rational("-3") == Fraction(-3)
    assert parse_rational("+7/2") == Fraction(7, 2)
    assert parse_rational(" 5/10 ") == Fraction(1, 2)
    assert parse_rational("0") == 0


@pytest.mark.parametrize("bad", ["0.5", "1e3", "", "1/2/3", "one", "1.0", "-/3", "2/-3"])
def test_parse_rational_rejects_non_ratio_text(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


def test_parse_rational_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        parse_rational("1/0")


def test_format_rational_always_carries_denominator():
    assert format_rational(Fraction(3)) == "3/1"
    assert format_rational(Fraction(-14, 45)) == "-14/45"
    assert format_rational(Fraction(0)) == "0/1"
    assert format_rational(Fraction(124065, 9271)) == "124065/9271"


def test_rational_round_trip_on_random_values():
    rng = random.Random(7)
    for _ in range(500):
        q = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
        assert parse_rational(format_rational(q)) == q


def test_frozen_rational_products():
    # hand-reduced: 919/5110 * 14175/381 = 919*4725/(5110*127); the shared
    # factor is 35, leaving 124065/18542
    assert Fraction(919, 5110) * Fraction(14175, 381) == Fraction(124065, 18542)
    assert Fraction(7, 45) - Fraction(1, 45) * 9 == Fraction(-2, 45)
    assert Fraction(14, 45) == Fraction(28, 90)


def test_is_prime_small_values():
    primes = [n for n in range(2, 60) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]
    assert is_prime(999983)
    assert not is_prime(1)
    assert not is_prime(0)
    assert not is_prime(999981)


def test_prime_scalar_construction_validates_modulus():
    assert PrimeScalar(9, 7).value == 2
    assert PrimeScalar(-1, 5).value == 4
    with pytest.raises(ValueError):
        PrimeScalar(1, 6)
    with pytest.raises(ValueError):
        PrimeScalar(1, 1)
    with pytest.raises(ValueError):
        PrimeScalar(1, 999981)


def test_prime_scalar_text_form():
    assert str(PrimeScalar(9, 7)) == "2 mod 7"
    assert str(PrimeScalar(0, 2)) == "0 mod 2"


def test_prime_scalar_rejects_mixing():
    a = PrimeScalar(3, 7)
    with pytest.raises(ValueError):
        a + PrimeScalar(3, 11)
    with pytest.raises(TypeError):
        a + Fraction(1, 2)
    with pytest.raises(TypeError):
        a * 0.5


def test_prime_scalar_defers_only_to_operand_types_it_does_not_know():
    # an unknown operand type gets NotImplemented, so Python tries the
    # polynomial's reflected method; Fractions and other moduli still raise
    ring = Ring(5, [("x", 2)])
    x = ring.gen("x")
    two = PrimeScalar(2, 5)
    assert two * x == x * two == ring.poly("2*x")
    assert two + x == x + two == ring.poly("x + 2")
    assert two - x == ring.poly("2 - x")
    assert x - two == ring.poly("x - 2")
    with pytest.raises(ValueError):
        PrimeScalar(2, 7) * x
    with pytest.raises(TypeError):
        two * "s"
    with pytest.raises(TypeError):
        "s" * two
    for op in (add, sub, mul, truediv):
        with pytest.raises(TypeError, match="characteristic 0"):
            op(two, Fraction(1, 2))
        with pytest.raises(TypeError, match="characteristic 0"):
            op(Fraction(1, 2), two)
        with pytest.raises(ValueError, match="mod 5 and mod 7"):
            op(two, PrimeScalar(3, 7))
        with pytest.raises(ValueError, match="mod 7 and mod 5"):
            op(PrimeScalar(3, 7), two)


def test_prime_scalar_division():
    a = PrimeScalar(3, 7)
    b = PrimeScalar(5, 7)
    assert (a / b) * b == a
    with pytest.raises(ZeroDivisionError):
        a / PrimeScalar(0, 7)
    with pytest.raises(ZeroDivisionError):
        1 / PrimeScalar(7, 7)


def test_prime_scalar_int_operands_coerce():
    a = PrimeScalar(3, 7)
    assert 2 + a == PrimeScalar(5, 7)
    assert 2 - a == PrimeScalar(6, 7)
    assert a * 10 == PrimeScalar(2, 7)
    assert 1 / a == PrimeScalar(5, 7)


@pytest.mark.parametrize("modulus", [2, 7, 999983])
def test_field_axioms_random_triples(modulus):
    rng = random.Random(modulus)
    zero = PrimeScalar(0, modulus)
    one = PrimeScalar(1, modulus)
    for _ in range(2000):
        a = PrimeScalar(rng.randrange(modulus), modulus)
        b = PrimeScalar(rng.randrange(modulus), modulus)
        c = PrimeScalar(rng.randrange(modulus), modulus)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + zero == a
        assert a * one == a
        assert a + (-a) == zero
        if b != zero:
            assert (a / b) * b == a


# ----------------------------------------------------------------------
# the modulus validator


def trial_division_is_prime(n):
    if n < 2 or n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def test_is_prime_agrees_with_trial_division_below_1e5():
    assert [n for n in range(10**5) if is_prime(n)] == [
        n for n in range(10**5) if trial_division_is_prime(n)
    ]


def strong_probable_prime(n, a):
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def test_pseudoprime_table_entries_fool_their_bases_but_not_is_prime():
    # the k-th entry passes the first k bases; is_prime must still see it
    # is composite (the last entry is MAX_MODULUS and out of range)
    for k, n in enumerate(_PSEUDOPRIMES, start=1):
        assert all(strong_probable_prime(n, a) for a in _BASES[:k])
        if n < MAX_MODULUS:
            assert not is_prime(n)
    assert MAX_MODULUS == 3317044064679887385961981


@pytest.mark.parametrize(
    "n",
    [
        3215031751,  # strong pseudoprime to bases 2, 3, 5, 7
        3825123056546413051,  # to bases 2..31
        318665857834031151167461,  # to bases 2..37; only 41 catches it
    ],
)
def test_is_prime_rejects_strong_pseudoprimes(n):
    assert not is_prime(n)
    with pytest.raises(ValueError):
        validate_modulus(n)


@pytest.mark.parametrize("p", [2**61 - 1, 2**64 - 59])
def test_large_primes_are_accepted(p):
    assert is_prime(p)
    assert validate_modulus(p) == p
    assert PrimeScalar(-1, p).value == p - 1


@pytest.mark.parametrize("p", [MAX_MODULUS, MAX_MODULUS + 2, 2**89 - 1])
def test_moduli_at_or_above_the_bound_are_rejected_by_name(p):
    # MAX_MODULUS passes all 13 bases and 2^89 - 1 is prime: only the bound
    # can reject them, and the message says so
    with pytest.raises(ValueError, match="MAX_MODULUS"):
        validate_modulus(p)
    with pytest.raises(ValueError, match="MAX_MODULUS"):
        PrimeScalar(1, p)
    with pytest.raises(ValueError, match="MAX_MODULUS"):
        Ring(p, [("x", 2)])


def test_composite_1000001_is_rejected():
    # 1000001 = 101 * 9901
    with pytest.raises(ValueError):
        Ring(1000001, [("x", 2)])
    with pytest.raises(ValueError):
        PrimeScalar(1, 1000001)


def test_arithmetic_never_revalidates_the_modulus(monkeypatch):
    p = 999983
    a, b = PrimeScalar(3, p), PrimeScalar(5, p)
    ring = Ring(p, [("x", 2), ("y", 2)], [("x^3", "y^3")])
    f = ring.poly("3*x + 2*y")
    g = ring.poly("x - 4*y")
    expected = {
        "sum": PrimeScalar(8, p),
        "difference": PrimeScalar(-2, p),
        "product": PrimeScalar(15, p),
        "quotient": PrimeScalar(3 * pow(5, -1, p), p),
        "negation": PrimeScalar(-3, p),
        "int operands": PrimeScalar(2 + 3 * 7 - 1, p),
        "int divided": PrimeScalar(pow(3, -1, p), p),
        "poly product": ring.poly("3*x^2 - 10*x*y - 8*y^2"),
        "normal form": ring.poly("54*x^2*y + 36*x*y^2 + 35*y^3"),
        "scaled coefficient": PrimeScalar(6, p),
    }

    def refuse(modulus):
        raise AssertionError(f"modulus {modulus} validated again")

    monkeypatch.setattr(scalars, "validate_modulus", refuse)
    monkeypatch.setattr(scalars, "is_prime", refuse)
    monkeypatch.setattr(rings, "validate_modulus", refuse, raising=False)

    assert a + b == expected["sum"]
    assert a - b == expected["difference"]
    assert a * b == expected["product"]
    assert a / b == expected["quotient"]
    assert -a == expected["negation"]
    assert 2 + a * 7 - 1 == expected["int operands"]
    assert 1 / a == expected["int divided"]
    assert f * g == expected["poly product"]
    assert f ** 3 == expected["normal form"]
    assert ring.poly("x^3") == ring.poly("y^3")
    assert (f * 2).coefficient("x") == expected["scaled coefficient"]
