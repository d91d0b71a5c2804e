"""Normalized partition polynomials and their exact integrals over [0, 1].

The normalized polynomial of a nonempty partition divides each multiplicity
by the length, so it runs from (0, 0) to (1, 1) underneath y = x.  Its
integral has the closed form (1/ℓ) Σ m_i/(i+1), always in (0, 1/2] with the
maximum hit exactly by all-ones partitions.  `integral` sums that closed form
in integers over a common denominator and reduces once.
"""

import math
from fractions import Fraction

from .calculus import evaluate, poly_of
from .errors import DomainError


def normalized_eval(partition, x):
    """Exact value of the normalized partition polynomial at x ∈ [0, 1]."""
    if partition.is_empty:
        raise DomainError("normalized polynomial undefined for the empty partition")
    x = Fraction(x)
    if x < 0 or x > 1:
        raise DomainError("normalized polynomial is defined on [0, 1] only")
    return evaluate(poly_of(partition), x) / partition.length


def integral(partition):
    """∫₀¹ of the normalized partition polynomial: (1/ℓ) Σ m_i/(i+1), as
    Σ m_i·(D/(i+1)) / (D·ℓ) with D the lcm of i + 1 over the part sizes i
    present (not over 2..k + 1), so there is one integer sum and one gcd."""
    if partition.is_empty:
        raise DomainError("integral undefined for the empty partition")
    mults = partition.multiplicities  # enumerate from 2 yields (i + 1, m_i)
    d = math.lcm(*(j for j, m in enumerate(mults, start=2) if m))
    total = sum(m * (d // j) for j, m in enumerate(mults, start=2) if m)
    return Fraction(total, d * partition.length)


def is_nontrivial(partition):
    """True when the partition has at least one part larger than 1."""
    return partition.largest_part > 1
