"""Partitions in frequency notation, their statistics, and enumeration/counting.

A partition is stored as the tuple of multiplicities (m_1, ..., m_k) with all
trailing zeros trimmed, so equality of partitions is tuple equality.
Multiplicities are plain Python ints and therefore arbitrary precision: the
density construction doubles them every step and derived partitions scale
them by factorial ratios.
"""

import itertools
import math

from .exact import DomainError, nth_prime


class Partition:
    """An integer partition ⟨1^m1, 2^m2, ..., k^mk⟩ in frequency notation."""

    __slots__ = ("_mults",)

    def __init__(self, multiplicities=()):
        mults = list(multiplicities)
        while mults and mults[-1] == 0:
            mults.pop()
        for m in mults:
            if m < 0:
                raise DomainError("multiplicities must be nonnegative")
        self._mults = tuple(mults)

    @classmethod
    def from_parts(cls, parts):
        """Build a partition from a list of parts (additive notation)."""
        mults = {}
        for p in parts:
            if p < 1:
                raise DomainError(f"parts must be positive integers, got {p}")
            mults[p] = mults.get(p, 0) + 1
        return cls(mults.get(i, 0) for i in range(1, max(mults, default=0) + 1))

    @property
    def multiplicities(self):
        return self._mults

    @property
    def largest_part(self):
        """The largest part k (0 for the empty partition)."""
        return len(self._mults)

    @property
    def is_empty(self):
        return not self._mults

    @property
    def length(self):
        """Number of parts ℓ = Σ m_i."""
        return sum(self._mults)

    @property
    def size(self):
        """Sum of all parts |λ| = Σ i·m_i."""
        return sum(i * m for i, m in enumerate(self._mults, start=1))

    def norm(self):
        """Product of the parts, Π i^{m_i} (1 for the empty partition)."""
        return math.prod(i ** m for i, m in enumerate(self._mults, start=1))

    def supernorm(self):
        """Π p_i^{m_i} over the i-th primes; injective on partitions."""
        return math.prod(nth_prime(i) ** m for i, m in enumerate(self._mults, start=1))

    def __eq__(self, other):
        if not isinstance(other, Partition):
            return NotImplemented
        return self._mults == other._mults

    def __hash__(self):
        return hash(self._mults)

    def __str__(self):
        """Frequency notation such as <1^1,2^2>; <> for the empty partition."""
        inner = ",".join(
            f"{i}^{m}" for i, m in enumerate(self._mults, start=1) if m > 0
        )
        return f"<{inner}>"

    def __repr__(self):
        return f"Partition({self})"


def _descend(mults, n, top, length):
    # Fill `mults` in place and yield it live, one level per part size s >= 2, largest
    # first, set to m copies, high to low, for only the m whose rest the sizes below s
    # complete: length − m <= n − m·s <= (length − m)(s − 1); n = length leaves all ones.
    if n == length:
        mults[0] = n
        yield mults
        return
    for s in range(min(top, n - length + 1), max(2, -(-n // length)) - 1, -1):
        for m in range(min(length, (n - length) // (s - 1)), max(1, n - length * (s - 1)) - 1, -1):
            mults[s - 1] = m
            yield from _descend(mults, n - m * s, s - 1, length - m)
        mults[s - 1] = 0


def iter_partitions(n, length):
    """Yield all partitions of n into exactly `length` parts, each exactly
    once, in descending-lexicographic order of part lists."""
    if n < 0:
        raise DomainError("n must be nonnegative")
    if length < 1:
        raise DomainError("length must be positive")
    return map(Partition, _descend([0] * (n - length + 1), n, n, length))  # parts <= n − ℓ + 1


class CountTable:
    """Memoized p(n, ℓ) = p(n−1, ℓ−1) + p(n−ℓ, ℓ); count calls ensure only for a
    missing row, and multiplicity_profile reads the filled rows directly."""

    def __init__(self):
        self._rows = [[1]]  # _rows[n][l] = p(n, l) for 0 <= l <= n

    def ensure(self, n_max):
        rows = self._rows
        while len(rows) <= n_max:
            n = len(rows)
            row = [0, *rows[n - 1]]  # p(n − 1, ℓ − 1): remove a part 1
            for l in range(1, n // 2 + 1):
                row[l] += rows[n - l][l]  # p(n − ℓ, ℓ): take 1 from each part
            rows.append(row)

    def count(self, n, length=None):
        """p(n) or p(n, length)."""
        if n < 0:
            return 0
        if n >= len(self._rows):
            self.ensure(n)
        if length is None:
            return sum(self._rows[n])
        if length < 0 or length > n:
            return 0
        return self._rows[n][length]


def multiplicity_profile(n, length, table=None):
    """The combined partition ⊕ of all partitions of n into `length` parts, counted
    from the table without enumeration.  count gives p = p(n, ℓ) and fills the triangle
    through row n, whose rows give the count c_i = Σ_j p(n − j·i, ℓ − j) of parts
    i = 3..n − ℓ + 1 over j = 1..min(ℓ, ⌊(n − ℓ)/(i − 1)⌋), the cells 0 <= ℓ − j <= n − j·i;
    the totals ℓ·p and n·p give c₂ = (n − ℓ)·p − Σ_{i≥3} (i − 1)·c_i and
    c₁ = ℓ·p − c₂ − Σ_{i≥3} c_i."""
    if n < 1 or length < 1 or length > n:
        raise DomainError("need 1 <= length <= n")
    table = table or CountTable()
    p = table.count(n, length)  # fills the table through row n
    rows = table._rows  # every row read below is below n, so already filled
    counts = []
    for i in range(3, n - length + 2):
        c = 0
        for j in range(1, min(length, (n - length) // (i - 1)) + 1):
            c += rows[n - j * i][length - j]
        counts.append(c)
    c2 = (n - length) * p - sum(i * c for i, c in enumerate(counts, 2))
    return Partition([length * p - c2 - sum(counts), c2] + counts)


def count_partitions(n, length=None):
    """p(n), or p(n, ℓ) when `length` is given, in O(n) memory.

    p(n) follows Euler's pentagonal-number recurrence, about n^1.5 steps:
    p(m) = Σ_{k≥1} (−1)^{k+1} [p(m − k(3k−1)/2) + p(m − k(3k+1)/2)].
    p(n, ℓ) is the number of partitions of n − ℓ into parts ≤ ℓ (take one
    from each part and conjugate), by a coin DP in (n − ℓ)·ℓ steps; when
    ℓ ≥ n − ℓ the bound is void and the count is p(n − ℓ).
    """
    if n < 0:
        raise DomainError("n must be nonnegative")
    if length is not None:
        if length < 0 or length > n:
            return 0
        if length == 0:  # p(n, 0) = [n = 0], before the DP builds n + 1 cells
            return int(n == 0)
        n -= length
        if length < n:
            ways = [1] + [0] * n
            for part in range(1, length + 1):
                for m in range(part, n + 1):
                    ways[m] += ways[m - part]
            return ways[n]
    # While len(p) = m, p[−g] is p(m − g): each generalized pentagonal g <= m is
    # kept as −g in the list of its term's sign, so a step is two C-level sums.
    p, added, subtracted = [1], [], []
    at = p.__getitem__
    pentagonal = ((k * (3 * k + s) // 2, k % 2) for k in itertools.count(1) for s in (-1, 1))
    g, odd = next(pentagonal)
    for m in range(1, n + 1):
        if g == m:
            (added if odd else subtracted).append(-g)
            g, odd = next(pentagonal)
        p.append(sum(map(at, added)) - sum(map(at, subtracted)))
    return p[n]
