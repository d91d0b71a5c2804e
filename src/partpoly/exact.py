"""Exact arithmetic support: rationals, Stirling numbers, harmonic numbers, primes.

Rational values throughout the package are ``fractions.Fraction`` instances,
which are arbitrary precision and always stored fully reduced with a positive
denominator.  This module adds the string forms used on the wire ("num/den",
or "num" for integers) and the memoized integer tables the calculus and
averages code needs.
"""

import itertools
import math
import re
from fractions import Fraction

from .errors import DomainError

# Triangle of Stirling numbers of the second kind; row d holds S(d, 0..d).
_stirling_rows = [[1]]

# harmonic[n] = H_n; harmonic[0] = 0 so indexing is direct.
_harmonics = [Fraction(0)]

_primes = [2, 3, 5, 7, 11, 13]


def stirling2(d, j):
    """Stirling number of the second kind S(d, j), memoized.

    S(d+1, j) = j*S(d, j) + S(d, j-1); values with j > d are 0.
    """
    if d < 0 or j < 0:
        raise DomainError("stirling2 requires nonnegative arguments")
    if j > d:
        return 0
    while len(_stirling_rows) <= d:
        prev = _stirling_rows[-1]
        n = len(_stirling_rows)  # building row n from row n-1
        row = [0] * (n + 1)
        for m in range(1, n):
            row[m] = m * prev[m] + prev[m - 1]
        row[n] = 1
        _stirling_rows.append(row)
    return _stirling_rows[d][j]


def harmonic(n):
    """The n-th harmonic number H_n = 1 + 1/2 + ... + 1/n, exact."""
    if n < 1:
        raise DomainError("harmonic requires n >= 1")
    while len(_harmonics) <= n:
        _harmonics.append(_harmonics[-1] + Fraction(1, len(_harmonics)))
    return _harmonics[n]


def _extend_primes(count):
    # One sieve: p_n < n(ln n + ln ln n) for n >= 6 (Rosser), and count > 6.
    bound = int(count * (math.log(count) + math.log(math.log(count)))) + 1
    sieve = bytearray([1]) * (bound + 1)
    sieve[:2] = b"\0\0"
    for p in range(2, math.isqrt(bound) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, bound + 1, p)))
    _primes[:] = itertools.compress(range(bound + 1), sieve)


def nth_prime(i):
    """The i-th prime, with nth_prime(1) = 2."""
    if i < 1:
        raise DomainError("nth_prime requires i >= 1")
    if i > len(_primes):
        _extend_primes(i)
    return _primes[i - 1]


def format_rational(q):
    """Serialize a Fraction as "num/den", or "num" when the denominator is 1."""
    return str(Fraction(q))


# parse_rational refuses a power b^e once (bit_length(b) − 1)·e, a lower
# bound on its bit length, passes this cap; 10^300000 still fits.
MAX_POWER_BITS = 1 << 20

_POWER_TERM = r"(\d+)(?:\^(\d+))?"
_RATIONAL_WITH_POWERS = re.compile(rf"([+-]?){_POWER_TERM}(?:/{_POWER_TERM})?")


def _power(base, exp):
    try:
        base, exp = int(base), int(exp or 1)
    except ValueError:  # a digit string past Python's int <-> str limit
        raise DomainError("not a rational: a number has too many digits") from None
    if (base.bit_length() - 1) * exp > MAX_POWER_BITS:
        raise DomainError(f"{base}^{exp} exceeds {MAX_POWER_BITS} bits")
    return base ** exp


def parse_rational(s):
    """Parse "num/den" or "num" into a Fraction; num and den may also be
    integer powers such as 10^30, so "1/10^30" is accepted, and 1e-30 too."""
    for exponent in re.findall(r"[eE][+-]?(\d+(?:_\d+)*)", s):
        _power(10, exponent)  # refused as the ^ form is: Fraction(s) builds 10^|e| uncapped
    try:
        return Fraction(s.strip())
    except (ValueError, ZeroDivisionError) as exc:
        match = "^" in s and _RATIONAL_WITH_POWERS.fullmatch(s.strip())
        if not match:
            raise DomainError(f"not a rational: {s!r}") from exc
    sign, num, num_exp, den, den_exp = match.groups()
    numerator = _power(num, num_exp)
    denominator = 1 if den is None else _power(den, den_exp)
    if denominator == 0:
        raise DomainError(f"not a rational: {s!r}")
    return Fraction(-numerator if sign == "-" else numerator, denominator)


def rational_to_decimal(q, digits=12):
    """Round a Fraction to a fixed-point decimal string with `digits` places,
    half away from zero; a negative value that rounds to zero keeps its "-"."""
    q = Fraction(q)
    sign = "-" if q < 0 else ""
    units, rest = divmod(abs(q.numerator) * 10 ** digits, q.denominator)
    units += 2 * rest >= q.denominator
    whole, frac = divmod(units, 10 ** digits)
    if digits == 0:
        return f"{sign}{whole}"
    return f"{sign}{whole}.{frac:0{digits}d}"
