"""The paper's own routes to values the package computes another way.

No CLI path needs these: the package takes every derivative by the formal
power rule or one Taylor shift, every average from the count table and every
density step from its edge weights, and enumerates only partitions of a fixed
length.  The tests assert that both routes agree.
"""

import math
from fractions import Fraction
from itertools import zip_longest

from partpoly import DomainError, Partition, count_partitions


def partitions_of(n, length=None):
    """Every partition of n (exactly `length` parts when given) in
    descending-lexicographic order of part lists, placing one part per level,
    largest first: the recursion is as deep as the longest partition, so small
    n only."""
    mults = [0] * n

    def place(rest, max_part, left):
        if rest == 0 and not left:
            yield Partition(mults)
        elif left is None or 0 < left <= rest:
            low = -(-rest // left) if left else 1
            for part in range(min(max_part, rest - (left or 1) + 1), low - 1, -1):
                mults[part - 1] += 1
                yield from place(rest - part, part, left and left - 1)
                mults[part - 1] -= 1

    return place(n, n, length)


def stirling2(d, j):
    """Stirling number of the second kind S(d, j), by inclusion–exclusion
    over surjections: (1/j!)·Σ_{i=0..j} (−1)^(j−i)·C(j, i)·i^d; 0 for j > d."""
    if d < 0 or j < 0:
        raise DomainError("stirling2 requires nonnegative arguments")
    if j > d:
        return 0
    total = sum((-1) ** (j - i) * math.comb(j, i) * i ** d for i in range(j + 1))
    return total // math.factorial(j)


def deriv_recursive_eval(partition, d, x):
    """Evaluate the d-th derivative of the partition polynomial at x using
    the Stirling recursion

        f^(d)(x) = Σ_i i^d·m_i·x^(i-d) − Σ_{j<d} S(d,j)·x^(j-d)·f^(j)(x),

    with lower-order values memoized at the fixed x.  Requires x ≠ 0 because
    the recursion contains negative powers of x; derivative_values covers
    x = 0.  Returns 0 for d beyond the largest part.
    """
    if d < 0:
        raise DomainError("derivative order must be nonnegative")
    x = Fraction(x)
    if x == 0:
        raise DomainError(
            "recursive derivative evaluation is undefined at x = 0: the "
            "recursion contains x^(j-d) terms with negative exponents"
        )
    k = partition.largest_part
    if d > k:
        return Fraction(0)
    mults = partition.multiplicities
    values = []  # values[j] = f^(j)(x)
    for order in range(d + 1):
        total = sum(
            (i ** order) * m * x ** (i - order)
            for i, m in enumerate(mults, start=1)
            if m
        )
        total -= sum(
            stirling2(order, j) * x ** (j - order) * values[j]
            for j in range(order)
        )
        values.append(Fraction(total))
    return values[d]


def moment(partition, k):
    """The k-th moment Σ i^k·m_i; moment 0 is the length, moment 1 the size."""
    return sum(i ** k * m for i, m in enumerate(partition.multiplicities, start=1))


def oplus(a, b):
    """Combine two partitions by adding multiplicities componentwise."""
    return Partition(map(sum, zip_longest(a.multiplicities, b.multiplicities, fillvalue=0)))


def distinguishing_order(lam, mu):
    """Smallest d with f_λ^(d)(1) ≠ f_μ^(d)(1); None exactly when λ = μ.
    f^(d)(1) = Σ_j s(d, j)·M_j for the power sums M_j = Σ_i i^j·m_i, a
    unitriangular map, so d is also the first order with M_d unequal.  Equal
    M_0..M_K over the part sizes 1..K, K the larger largest part, form a
    Vandermonde system that fixes the multiplicities.  By Newton's identities
    M_1..M_ℓ fix ℓ parts, so d <= ℓ when λ ≠ μ share the length ℓ."""
    K = max(lam.largest_part, mu.largest_part)
    return next((d for d in range(K + 1) if moment(lam, d) != moment(mu, d)), None)


def avg2_closed_form(n, harmonic=None):
    """Harmonic closed form for Avg(n, 2).

    Odd n: (H_n − 1) / (2⌊n/2⌋).  Even n: (H_n − 1 + 2/(n+2)) / (2⌊n/2⌋),
    the enumeration-consistent correction of the published 2/n variant.
    H_n is `harmonic(n)` when given (a running table), else a `Fraction` sum.
    """
    if n < 2:
        raise DomainError("need n >= 2")
    H_n = harmonic(n) if harmonic else sum(Fraction(1, i) for i in range(1, n + 1))
    base = H_n - 1
    if n % 2 == 0:
        base += Fraction(2, n + 2)
    return base / (2 * (n // 2))


def avg3_lower_bound(n):
    """Floating lower bound on Avg(n, 3).

    Among all partitions of n into 3 parts there are at least ⌊(n−i)/2⌋
    parts of size i for 1 ≤ i ≤ n−2, and the linear function
    g(x) = n/2 − 1 − (n/2)x/(n−2) lies below that count.  The integrand
    g(x)/(x+1) is strictly decreasing, so the sum over i = 1..n−2 dominates
    its integral over [1, n−1] (not [0, n−2]: that comparison runs the wrong
    way and overshoots the true average already around n = 50).  Hence

        Avg(n, 3) >= (1/ℓ(λ₃)) ∫₁^{n−1} g(x)/(x+1) dx

    with ℓ(λ₃) = 3·p(n, 3).  The bound grows like 2·ln(n)/n.
    """
    if n < 4:
        raise DomainError("need n >= 4")
    num_parts = 3 * count_partitions(n, 3)
    a = n / 2 - 1
    b = (n / 2) / (n - 2)
    # ∫ g/(x+1) = (a+b)·ln(x+1) − b·x, evaluated over [1, n−1]
    area = (a + b) * (math.log(n) - math.log(2)) - b * (n - 2)
    return area / num_parts
