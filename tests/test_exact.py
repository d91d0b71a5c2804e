import time
from fractions import Fraction
from itertools import combinations
from math import isqrt

import pytest
from hypothesis import example, given, strategies as st

import partpoly.exact as exact
from partpoly import (
    DomainError,
    format_rational,
    nth_prime,
    parse_rational,
    rational_to_decimal,
)
from oracles import stirling2


def test_stirling_base_cases():
    assert stirling2(0, 0) == 1
    for d in range(1, 15):
        assert stirling2(d, 0) == 0
        assert stirling2(d, d) == 1
    assert stirling2(3, 7) == 0


def test_stirling_small_value():
    assert stirling2(4, 2) == 7


def test_stirling_recurrence():
    for d in range(1, 41):
        for j in range(1, d + 1):
            assert stirling2(d + 1, j) == j * stirling2(d, j) + stirling2(d, j - 1)


def test_stirling_falling_factorial_identity():
    # Σ_j S(d, j) · x(x-1)...(x-j+1) = x^d
    for d in range(11):
        for x in range(6):
            total = 0
            for j in range(d + 1):
                ff = 1
                for t in range(j):
                    ff *= x - t
                total += stirling2(d, j) * ff
            assert total == x ** d


def test_stirling_rejects_negative():
    with pytest.raises(DomainError):
        stirling2(-1, 0)


def test_nth_prime():
    assert nth_prime(1) == 2
    assert nth_prime(5) == 11
    assert nth_prime(10) == 29
    assert nth_prime(100) == 541
    assert [nth_prime(10 ** e) for e in (4, 5, 6)] == [104729, 1299709, 15485863]
    with pytest.raises(DomainError):
        nth_prime(0)


def test_nth_prime_matches_trial_division(monkeypatch):
    primes = [q for q in range(2, 17390) if all(q % r for r in range(2, isqrt(q) + 1))]
    assert len(primes) == 2000
    for i in range(1, 2001):
        monkeypatch.setattr(exact, "_primes", [2, 3, 5, 7, 11, 13])
        assert nth_prime(i) == primes[i - 1], i
    # nth_prime sizes the sieve for at least twice the table, so each count
    # gets a sieve sized exactly for it only when asked directly
    for count in range(7, 2001):
        exact._extend_primes(count)
        assert exact._primes[:count] == primes[:count], count


def test_nth_prime_table_doubles(monkeypatch):
    monkeypatch.setattr(exact, "_primes", [2, 3, 5, 7, 11, 13])
    sieve, sieves = exact._extend_primes, []

    def counted_sieve(count):
        sieves.append(count)
        sieve(count)

    monkeypatch.setattr(exact, "_extend_primes", counted_sieve)
    assert [nth_prime(i) for i in range(1, 200_001)][-1] == 2750159
    assert len(sieves) <= 20, sieves


def test_rational_strings():
    assert format_rational(Fraction(77, 240)) == "77/240"
    assert format_rational(Fraction(6, 3)) == "2"
    assert format_rational(-3) == "-3" and format_rational(0.5) == "1/2"
    assert parse_rational("77/240") == Fraction(77, 240)
    assert parse_rational("-5") == -5
    with pytest.raises(DomainError):
        parse_rational("x/y")
    with pytest.raises(DomainError):
        parse_rational("1/0")


def test_parse_rational_integer_powers():
    assert parse_rational("1/10^30") == Fraction(1, 10 ** 30)
    assert parse_rational(" 10^3 ") == 1000
    assert parse_rational("-2^3/3^2") == Fraction(-8, 9)  # sign outside the power
    assert parse_rational("+1/2^2") == Fraction(1, 4)
    assert parse_rational("0^0/5") == Fraction(1, 5)
    assert parse_rational("1/10^1000") == Fraction(1, 10 ** 1000)
    long = "9" * 5000  # past Python's int <-> str limit, in a base or an exponent
    for bad in ("2^-1", "^3", "1/2^", "2^^3", "1/0^3", "10^3.5", "(2^3)", "1/2/3",
                f"{long}^2", f"1/2^{long}", f"{long}/3^2"):
        with pytest.raises(DomainError, match="not a rational"):
            parse_rational(bad)


def test_parse_rational_refuses_oversized_powers():
    # refused from the exponent alone, before any power is computed
    for text in ("10^999999999", "1/10^999999999", "2^1048577"):
        with pytest.raises(DomainError, match="exceeds"):
            parse_rational(text)
    assert parse_rational("2^1048576") == 2 ** 1048576  # exactly at the cap
    assert parse_rational("1^999999999") == 1


def test_parse_rational_caps_exponent_notation():
    # Fraction("1e-9999999") alone computes for seconds; the cap on 10^e refuses first
    for text in ("1e-9999999", "1E+349526", "1e-999999999999"):
        start = time.perf_counter()
        with pytest.raises(DomainError, match=f"exceeds {exact.MAX_POWER_BITS} bits"):
            parse_rational(text)
        assert time.perf_counter() - start < 1
    with pytest.raises(DomainError, match="too many digits"):
        parse_rational("1e" + "9" * 5000)
    assert parse_rational("1e-300") == Fraction(1, 10 ** 300)
    assert parse_rational("2.5E3") == 2500
    assert parse_rational("1e-349525") == Fraction(1, 10 ** 349525)  # 3·349525 <= 2^20


def test_parse_rational_refuses_underscores():
    # Fraction reads "1_000" as 1000 from Python 3.11 on; refused first, the same
    # text gives the same answer on every supported version
    for text in ("1_000/3", "1_0", "-1/1_0", "2.5e-1_000_000", "1e1_0", "10^1_0", "1_0^2/3"):
        with pytest.raises(DomainError, match="^not a rational: "):
            parse_rational(text)


def test_rational_decimal():
    assert rational_to_decimal(Fraction(1, 3), 6) == "0.333333"
    assert rational_to_decimal(Fraction(2, 3), 6) == "0.666667"
    assert rational_to_decimal(Fraction(-1, 2), 3) == "-0.500"
    assert rational_to_decimal(Fraction(5), 2) == "5.00"
    assert rational_to_decimal(Fraction(7, 2), 0) == "4"
    assert rational_to_decimal(Fraction(-1, 10 ** 20), 12) == "-0.000000000000"
    assert rational_to_decimal(Fraction(1, 2), 0) == "1"
    assert rational_to_decimal(Fraction(-1, 2), 0) == "-1"


def _decimal_by_scaling(q, digits):
    # The Fraction-scaling rounding that rational_to_decimal replaced.
    q = Fraction(q)
    sign = "-" if q < 0 else ""
    scaled = abs(q) * 10 ** digits
    units = scaled.numerator // scaled.denominator
    if 2 * (scaled.numerator % scaled.denominator) >= scaled.denominator:
        units += 1
    whole, frac = divmod(units, 10 ** digits)
    return f"{sign}{whole}" if digits == 0 else f"{sign}{whole}.{frac:0{digits}d}"


@st.composite
def _decimal_cases(draw):
    digits = draw(st.integers(0, 60))
    num = draw(st.integers(-(10 ** 300), 10 ** 300))
    den = draw(st.integers(1, 10 ** 300))
    if draw(st.booleans()):
        # an exact half at the last place: (2m + 1) / (2·10^digits)
        num = draw(st.integers(-(10 ** 300), 10 ** 300)) * 2 + 1
        den = 2 * 10 ** digits
    return Fraction(num, den), digits


@given(_decimal_cases())
@example((Fraction(0), 0))
@example((Fraction(0), 60))
@example((Fraction(-5, 2 * 10 ** 60), 60))
@example((Fraction(-(10 ** 300), 3), 7))
def test_rational_decimal_matches_fraction_scaling(case):
    q, digits = case
    assert rational_to_decimal(q, digits) == _decimal_by_scaling(q, digits)


rationals = st.fractions(
    min_value=-100, max_value=100, max_denominator=1000
)


@given(rationals, rationals)
def test_rational_arithmetic_exact(q, r):
    # (a/b + c/d)·(b·d) is the integer a·d + c·b
    s = (q + r) * (q.denominator * r.denominator)
    assert s.denominator == 1
    assert s == q.numerator * r.denominator + r.numerator * q.denominator


@given(rationals)
def test_rational_string_round_trip(q):
    assert parse_rational(format_rational(q)) == q
