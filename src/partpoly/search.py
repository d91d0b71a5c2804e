"""Derivative-profile collision search.

Unequal partitions of the same size and length can share the values of the
first several derivatives of their partition polynomials at x = 1.  This
module finds such collisions by grouping partitions on exact big-integer
profile prefixes, and reports the smallest derivative order that separates
a given pair (or that no order does, up to the largest part).
"""

from dataclasses import dataclass

from .calculus import derivative_profile
from .errors import DomainError
from .partitions import iter_partitions


def _padded_profile(partition, upto):
    # f^(d)(1) = 0 for d beyond the largest part
    profile = derivative_profile(partition)
    return profile + [0] * (upto + 1 - len(profile))


def distinguishing_order(lam, mu):
    """Smallest d with f_λ^(d)(1) ≠ f_μ^(d)(1), scanning d up to the larger
    of the two largest parts; None when no order in that range separates
    them (identical partitions, or an unresolved unequal pair)."""
    bound = max(lam.largest_part, mu.largest_part)
    pa = _padded_profile(lam, bound)
    pb = _padded_profile(mu, bound)
    for d in range(bound + 1):
        if pa[d] != pb[d]:
            return d
    return None


@dataclass(frozen=True)
class CollisionReport:
    n: int
    length: int
    order: int
    groups: tuple  # tuples of Partition sharing a profile prefix, size >= 2
    keys: tuple  # each group's profile prefix, f^(d)(1) for d <= order

    def to_json(self):
        return {
            "n": self.n,
            "length": self.length,
            "order": self.order,
            "groups": [[p.to_json() for p in g] for g in self.groups],
        }


def collision_search(n, length, order):
    """Group all partitions of n into `length` parts by the exact profile
    prefix [f^(0)(1), ..., f^(order)(1)] and report every group of two or
    more.  Groups and their members follow enumeration order."""
    if not 1 <= length <= n:
        raise DomainError("need 1 <= length <= n")
    if order < 1:
        raise DomainError("need order >= 1")
    buckets = {}
    for p in iter_partitions(n, length):
        # f^(d)(1) > 0 up to the largest part and 0 beyond it, so the
        # unpadded prefix groups exactly as the zero-padded one would.
        key = tuple(derivative_profile(p)[: order + 1])
        buckets.setdefault(key, []).append(p)
    keys = tuple(k for k, g in buckets.items() if len(g) >= 2)
    groups = tuple(tuple(buckets[k]) for k in keys)
    return CollisionReport(n, length, order, groups, keys)


def smallest_collision_size(length, order, n_max=200):
    """Scan n upward and return the first n at which collision_search finds
    a group, or None if none appears by n_max."""
    for n in range(length, n_max + 1):
        if collision_search(n, length, order).groups:
            return n
    return None
