"""Derivative-profile collision search.

Unequal partitions of the same size and length can share the values of the
first several derivatives of their partition polynomials at x = 1.  This
module groups partitions on the exact f''(1), ..., f^(d)(1), the orders that can
differ, and reports each group's prefix f^(0..d)(1) as (ℓ, n) and that key.  The
first order that separates a pair, by the power sums Σ_i i^j·m_i, is the tests'
oracle (tests/oracles.py).
"""

from collections import namedtuple

from .calculus import diff, evaluate, poly_of
from .exact import DomainError
from .partitions import iter_partitions


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
