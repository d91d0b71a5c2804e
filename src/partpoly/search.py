"""Derivative-profile collision search.

Unequal partitions of the same size and length can share the values of the
first several derivatives of their partition polynomials at x = 1.  This
module groups partitions on the exact f''(1), ..., f^(d)(1), the orders that can
differ, reports each group's prefix f^(0..d)(1) as (ℓ, n) and that key, and finds
the first order that separates a pair (none separates only equal partitions).
"""

from collections import namedtuple

from .calculus import diff, evaluate, poly_of
from .exact import DomainError
from .partitions import iter_partitions


def distinguishing_order(lam, mu):
    """Smallest d with f_λ^(d)(1) ≠ f_μ^(d)(1); None exactly when λ = μ.
    f^(d)(1) = Σ_j s(d, j)·M_j for the power sums M_j = Σ_i i^j·m_i, a
    unitriangular map, so d is also the first order with M_d unequal.  Equal
    M_0..M_K over the part sizes 1..K, K the larger largest part, form a
    Vandermonde system that fixes the multiplicities.  By Newton's identities
    M_1..M_ℓ fix ℓ parts, so d <= ℓ when λ ≠ μ share the length ℓ."""
    K = max(lam.largest_part, mu.largest_part)
    return next((d for d in range(K + 1) if lam.moment(d) != mu.moment(d)), None)


class CollisionReport(namedtuple("CollisionReport", "n length order groups keys")):
    """groups are tuples of two or more Partitions sharing a profile prefix;
    keys[i] is groups[i]'s prefix (ℓ, n, f''(1), ..., f^(min(order, k))(1)),
    with k the largest part of any member."""

    __slots__ = ()


def collision_search(n, length, order):
    """Group all partitions of n into `length` parts by the exact profile
    prefix [f^(0)(1), ..., f^(order)(1)] and report every group of two or
    more, keyed by that prefix.  Groups and members follow enumeration order."""
    if not 1 <= length <= n:
        raise DomainError("need 1 <= length <= n")
    if order < 1:
        raise DomainError("need order >= 1")
    if order >= length:  # equal f^(0..ℓ)(1) mean equal M_1..M_ℓ, which fix ℓ parts (Newton)
        return CollisionReport(n, length, order, (), ())
    buckets = {}
    for p in iter_partitions(n, length):
        # f(1) = ℓ and f'(1) = n for all, so the key is f^(d)(1) > 0 for d = 2..min(order, k)
        orders = range(2, min(order, p.largest_part) + 1)
        key = tuple([int(evaluate(diff(poly_of(p), d), 1)) for d in orders])
        buckets.setdefault(key, []).append(p)
    found = {(length, n) + key: tuple(g) for key, g in buckets.items() if len(g) >= 2}
    return CollisionReport(n, length, order, tuple(found.values()), tuple(found))
