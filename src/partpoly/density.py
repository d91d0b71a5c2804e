"""Binary-search construction of partitions with prescribed integrals.

Two edge families bracket any target c in (0, 1/2): ⟨1^1, s^(s-1)⟩ with
integral tending to 0, and ⟨1^(s-1), s^1⟩ with integral tending to 1/2.
Both have length s, so combining them with ⊕ keeps lengths equal and makes
each combined integral the exact midpoint of the bracket.  Halving the
bracket each step certifies |∫ − c| < (b − a)/2^r at step r, exactly.
Step r's partition u·α(s) ⊕ v·β(s), u + v = 2^r, is kept as just (u, v).
"""

import math
from collections import namedtuple
from fractions import Fraction

from .exact import DomainError
from .partitions import Partition


def _edge_combination(s, u, v):
    # u·α(s) ⊕ v·β(s) = ⟨1^(u + v(s-1)), s^(u(s-1) + v)⟩
    if s < 2:
        raise DomainError("need s >= 2")
    return Partition([u + v * (s - 1)] + [0] * (s - 2) + [u * (s - 1) + v])


def alpha_integral(s):
    """Closed form (3s − 1)/(2s(s + 1)); decreases to 0."""
    if s < 2:
        raise DomainError("need s >= 2")
    return Fraction(3 * s - 1, 2 * s * (s + 1))


def beta_integral(s):
    """Closed form (s² + 1)/(2s(s + 1)); increases to 1/2."""
    if s < 2:
        raise DomainError("need s >= 2")
    return Fraction(s * s + 1, 2 * s * (s + 1))


class DensityStep(
    namedtuple("DensityStep", "index weights start_index integral error_bound")
):
    """Step r = index: edge weights (u, v) with u + v = 2^r, the edges' s,
    the exact integral and the certified bound (b − a) / 2^r."""

    __slots__ = ()

    @property
    def partition(self):
        """The combined partition δ = u·α(s) ⊕ v·β(s), built on demand."""
        return _edge_combination(self.start_index, *self.weights)


class DensityTrace(namedtuple(
    "DensityTrace", "target epsilon start_index interval steps achieved_error"
)):
    """A construction: s of the edge partitions, the starting bracket
    integrals (a, b), one DensityStep per iteration, and |∫ − c| reached."""

    __slots__ = ()

    @property
    def result(self):
        """The last step's partition, built on demand."""
        return self.steps[-1].partition


def _bracket_index(c):
    # The smallest s >= 2 with α(s) < c = p/q < β(s), each inequality times
    # 2q·s(s + 1) a quadratic; both hold past the larger roots (any smaller root
    # is below 2), and the floored roots never pass s, so the walk is short.
    p, q = c.numerator, c.denominator
    quadratics = ((2 * p, 2 * p - 3 * q, q), (q - 2 * p, -2 * p, q))
    s = 2
    for k2, k1, k0 in quadratics:
        disc = k1 * k1 - 4 * k2 * k0
        if disc >= 0:
            s = max(s, (math.isqrt(disc) - k1) // (2 * k2))
    while any(k2 * s * s + k1 * s + k0 <= 0 for k2, k1, k0 in quadratics):
        s += 1
    return s


def plan(c, epsilon):
    """Validate target c ∈ (0, 1/2) and tolerance epsilon > 0; return
    (s, (a, b), last): the edges' s, their integrals a = ∫α(s) < c < b = ∫β(s)
    and the step where `approximate` stops, building no step.

    The search bisects y = (c − a)/(b − a) in (0, 1): it stops at the least r
    with (b − a)/2^r < ε, or earlier, at r = j, when y has the denominator
    2^j, because step j's midpoint then lands on c."""
    c = Fraction(c)
    epsilon = Fraction(epsilon)
    if not 0 < c < Fraction(1, 2):
        raise DomainError("target must lie strictly between 0 and 1/2")
    if epsilon <= 0:
        raise DomainError("epsilon must be positive")
    s = _bracket_index(c)
    a, b = alpha_integral(s), beta_integral(s)
    last = max(1, ((b - a) // epsilon).bit_length())
    j = ((c - a) / (b - a)).denominator
    if j & (j - 1) == 0:
        last = min(last, j.bit_length() - 1)
    return s, (a, b), last


def approximate(c, epsilon):
    """Construct a partition whose normalized integral is within `epsilon`
    of the target c ∈ (0, 1/2), with a certified error bound per step."""
    s, (a, b), last = plan(c, epsilon)
    c, epsilon = Fraction(c), Fraction(epsilon)
    y = (c - a) / (b - a)
    steps = []
    for r in range(1, last + 1):
        # Step r's integral a + (b − a)·v/2^r is the midpoint of the bracket
        # halved r − 1 times around c: v is floor(y·2^r) made odd.
        v = (y.numerator << r) // y.denominator | 1
        u = 2 ** r - v
        steps.append(DensityStep(r, (u, v), s, (u * a + v * b) / 2 ** r, (b - a) / 2 ** r))

    return DensityTrace(
        target=c,
        epsilon=epsilon,
        start_index=s,
        interval=(a, b),
        steps=tuple(steps),
        achieved_error=abs(steps[-1].integral - c),
    )
