"""Exact arithmetic support: rationals, Stirling numbers, harmonic numbers, primes.

Rational values throughout the package are ``fractions.Fraction`` instances,
which are arbitrary precision and always stored fully reduced with a positive
denominator.  This module adds the string forms used on the wire ("num/den",
or "num" for integers), the integer closed forms of S(d, j) and H_n, and the
prime table, the package's one module-level cache.
"""

import itertools
import math
import re
from fractions import Fraction

from .errors import DomainError

_primes = [2, 3, 5, 7, 11, 13]


def stirling2(d, j):
    """Stirling number of the second kind S(d, j), by inclusion–exclusion
    over surjections: (1/j!)·Σ_{i=0..j} (−1)^(j−i)·C(j, i)·i^d; 0 for j > d."""
    if d < 0 or j < 0:
        raise DomainError("stirling2 requires nonnegative arguments")
    if j > d:
        return 0
    total = sum((-1) ** (j - i) * math.comb(j, i) * i ** d for i in range(j + 1))
    return total // math.factorial(j)


def harmonic(n):
    """The n-th harmonic number H_n = 1 + 1/2 + ... + 1/n, exact: one integer
    sum Σ L/i over L = lcm(1..n), then one Fraction."""
    if n < 1:
        raise DomainError("harmonic requires n >= 1")
    lcm = math.lcm(*range(1, n + 1))
    return Fraction(sum(lcm // i for i in range(1, n + 1)), lcm)


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
    """The i-th prime, with nth_prime(1) = 2; the table at least doubles when
    it grows, so ascending calls sieve O(log i) times."""
    if i < 1:
        raise DomainError("nth_prime requires i >= 1")
    if i > len(_primes):
        _extend_primes(max(i, 2 * len(_primes)))
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
