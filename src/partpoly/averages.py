"""Average integrals over all partitions of fixed size and length.

Avg(n, ℓ) is the mean of ∫₀¹ f̂_λ over partitions of n into ℓ parts: the integral of
their ⊕-sum, the combined partition, which multiplicity_profile builds without
enumeration.  CountTable.count gives p = p(n, ℓ) and fills the triangle through row n,
whose rows give the count c_i = Σ_j p(n − j·i, ℓ − j) of parts i = 3..n − ℓ + 1 over
j = 1..min(ℓ, ⌊(n − ℓ)/(i − 1)⌋), the cells 0 <= ℓ − j <= n − j·i; the totals ℓ·p and
n·p give c₂ = (n − ℓ)·p − Σ_{i≥3} (i − 1)·c_i and c₁ = ℓ·p − c₂ − Σ_{i≥3} c_i.  No part
exceeds n: row n shares D = lcm(2..n+1) and D/(i+1), and Avg is a dot product / (D·ℓ·p).

The even-n closed form for Avg(n, 2) here carries the correction term
2/(n+2): the duplicated part n/2 in the combined partition contributes
1/(n/2 + 1) to the integral sum, not 1/(n/2).  The enumeration oracle pins
this down at n = 4, where the corrected form gives 17/48.
"""

import math
from collections import namedtuple
from fractions import Fraction
from operator import mul

from .errors import DomainError
from .exact import harmonic
from .partitions import CountTable, Partition, count_partitions


class AvgReport(namedtuple("AvgReport", "n values monotone first_violation")):
    """values[ℓ-1] is Avg(n, ℓ) for ℓ = 1..n; first_violation is the smallest
    ℓ with values[ℓ-1] > values[ℓ], or None when the row is monotone."""

    __slots__ = ()


def multiplicity_profile(n, length, table=None):
    """The combined partition ⊕ of all partitions of n into `length` parts:
    its multiplicity of part i is the number of parts of size i among them,
    counted from the table without enumeration."""
    if n < 1 or length < 1 or length > n:
        raise DomainError("need 1 <= length <= n")
    table = table or CountTable()
    p = table.count(n, length)  # fills the table through row n
    rows = table._rows  # every row read below is below n, so already filled
    # only sizes i >= 3 are read: the totals ℓ·p and n·p give parts 1 and 2
    counts = []
    for i in range(3, n - length + 2):
        c = 0
        for j in range(1, min(length, (n - length) // (i - 1)) + 1):
            c += rows[n - j * i][length - j]
        counts.append(c)
    c2 = (n - length) * p - sum(i * c for i, c in enumerate(counts, 2))
    return Partition([length * p - c2 - sum(counts), c2] + counts)


def _integrals(profiles, k):
    """The integral of each combined partition in `profiles`, none with a part above k."""
    d = math.lcm(*range(2, k + 2))
    w = [d // j for j in range(2, k + 2)]
    return [Fraction(sum(map(mul, p.multiplicities, w)), d * p.length) for p in profiles]


def avg(n, length, table=None):
    """Avg(n, ℓ): mean integral over all partitions of n into ℓ parts."""
    profile = multiplicity_profile(n, length, table)
    return _integrals([profile], profile.largest_part)[0]


def avg_table(n, table=None):
    """Exact Avg(n, ℓ) for ℓ = 1..n with the monotonicity verdict."""
    if n < 1:
        raise DomainError("need n >= 1")
    table = table or CountTable()
    values = tuple(_integrals((multiplicity_profile(n, l, table) for l in range(1, n + 1)), n))
    first_violation = next((l for l in range(1, n) if values[l - 1] > values[l]), None)
    return AvgReport(n, values, first_violation is None, first_violation)


def check_conjecture(n_max, progress=None):
    """Monotonicity reports for n = 1..n_max, in n order, from one serial
    scan over one shared CountTable; progress(n, n_max) follows each n."""
    if n_max < 1:
        raise DomainError("need n_max >= 1")
    table = CountTable()
    reports = []
    for n in range(1, n_max + 1):
        reports.append(avg_table(n, table))
        if progress:
            progress(n, n_max)
    return reports


def avg2_closed_form(n):
    """Harmonic closed form for Avg(n, 2).

    Odd n: (H_n − 1) / (2⌊n/2⌋).  Even n: (H_n − 1 + 2/(n+2)) / (2⌊n/2⌋),
    the enumeration-consistent correction of the published 2/n variant.
    """
    if n < 2:
        raise DomainError("need n >= 2")
    base = harmonic(n) - 1
    if n % 2 == 0:
        base += Fraction(2, n + 2)
    return base / (2 * (n // 2))


def avg3_lower_bound(n):
    """Floating lower bound on Avg(n, 3); with `density`'s `length_log2`
    annotation, one of the package's two non-exact values.

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
