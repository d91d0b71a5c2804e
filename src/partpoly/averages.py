"""Average integrals over all partitions of fixed size and length.

Avg(n, ℓ) is the mean of ∫₀¹ f̂_λ over partitions of n into ℓ parts.  It
equals the integral of the single combined partition obtained by adding all
of their multiplicities, so it can be computed without enumeration from the
multiplicity profile: the number of parts of size i across all partitions of
n into ℓ parts is Σ_{j≥1} p(n − j·i, ℓ − j).  Enumeration is kept as the
oracle at small n in the tests.

The even-n closed form for Avg(n, 2) here carries the correction term
2/(n+2): the duplicated part n/2 in the combined partition contributes
1/(n/2 + 1) to the integral sum, not 1/(n/2).  The enumeration oracle pins
this down at n = 4, where the corrected form gives 17/48.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError
from .exact import harmonic
from .partitions import CountTable, count_partitions


@dataclass(frozen=True)
class MultiplicityProfile:
    """Total multiplicity of each part size over all partitions of n into
    `length` parts; counts[i-1] is the count for part size i."""

    n: int
    length: int
    counts: tuple

    @property
    def num_partitions(self):
        # Σ counts = ℓ · p(n, ℓ), so recover p(n, ℓ) from the profile
        return sum(self.counts) // self.length


@dataclass(frozen=True)
class AvgReport:
    n: int
    values: tuple  # Avg(n, ℓ) for ℓ = 1..n
    monotone: bool
    first_violation: int | None  # smallest ℓ with values[ℓ-1] > values[ℓ]


def multiplicity_profile(n, length, table=None):
    """Occurrence-counting DP for the combined partition of all partitions
    of n into `length` parts."""
    if n < 1 or length < 1 or length > n:
        raise DomainError("need 1 <= length <= n")
    table = table or CountTable()
    table.ensure(n)
    counts = []
    for i in range(1, n + 1):
        c = 0
        j = 1
        while j * i <= n and j <= length:
            c += table.count(n - j * i, length - j)
            j += 1
        counts.append(c)
    return MultiplicityProfile(n, length, tuple(counts))


def _profile_integral(profile):
    total = sum(
        Fraction(c, i + 1) for i, c in enumerate(profile.counts, start=1) if c
    )
    return total / sum(profile.counts)


def avg(n, length, table=None):
    """Avg(n, ℓ): mean integral over all partitions of n into ℓ parts,
    computed as the integral of the combined partition."""
    return _profile_integral(multiplicity_profile(n, length, table))


def avg_table(n, table=None):
    """Exact Avg(n, ℓ) for ℓ = 1..n with the monotonicity verdict."""
    if n < 1:
        raise DomainError("need n >= 1")
    table = table or CountTable()
    table.ensure(n)
    values = tuple(avg(n, l, table) for l in range(1, n + 1))
    first_violation = None
    for l in range(1, n):
        if values[l - 1] > values[l]:
            first_violation = l
            break
    return AvgReport(n, values, first_violation is None, first_violation)


def check_conjecture(n_max, jobs=1, progress=None):
    """Monotonicity reports for every n = 1..n_max.

    The scan parallelizes over n when jobs > 1; each cell is pure, and
    reports are returned in n order either way.
    """
    if n_max < 1:
        raise DomainError("need n_max >= 1")
    ns = range(1, n_max + 1)
    if jobs > 1:
        # Imported here: the pool machinery costs every CLI start ~20 ms.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            reports = []
            for report in pool.map(avg_table, ns):
                reports.append(report)
                if progress:
                    progress(report.n, n_max)
            return reports
    table = CountTable()
    table.ensure(n_max)
    reports = []
    for n in ns:
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
    """Floating lower bound on Avg(n, 3); the only non-exact computation in
    the package.

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
