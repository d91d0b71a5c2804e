"""Average integrals over all partitions of fixed size and length.

Avg(n, ℓ) is the mean of ∫₀¹ f̂_λ over the p = p(n, ℓ) partitions of n into ℓ parts: the
integral of their ⊕-sum, the combined partition, which multiplicity_profile builds from
the count table without enumeration.  No part exceeds n: row n shares D = lcm(2..n+1)
and D/(i+1), and Avg is a dot product / (D·ℓ·p).

The paper's closed form for Avg(n, 2) and its lower bound on Avg(n, 3) are
reference values the tests compare `avg` against (tests/oracles.py).
"""

import math
from collections import namedtuple
from fractions import Fraction
from operator import mul

from .exact import DomainError
from .partitions import CountTable, multiplicity_profile


class AvgReport(namedtuple("AvgReport", "n values monotone first_violation")):
    """values[ℓ-1] is Avg(n, ℓ) for ℓ = 1..n; first_violation is the smallest
    ℓ with values[ℓ-1] > values[ℓ], or None when the row is monotone."""

    __slots__ = ()


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

