"""Partition polynomials and their derivatives.

A polynomial is its tuple of integer coefficients in degree-ascending order;
poly_of and diff leave no trailing zero, so the zero polynomial is ().  One
derivative is the formal power-rule derivative of that tuple, evaluated by
Horner's rule; all of them at once are one integer Taylor shift of the tuple,
Horner's rule repeated.  The paper's Stirling-number recursion is kept as the
independent oracle: the test suite asserts exact agreement between the two on
every partition it touches.
"""

import math
from fractions import Fraction
from itertools import accumulate
from operator import mul

from .errors import DomainError
from .exact import stirling2
from .partitions import Partition


def poly_of(partition):
    """The partition polynomial as its degree-ascending coefficient tuple
    (0, m_1, ..., m_k); () for the empty partition, the zero polynomial."""
    mults = partition.multiplicities
    return (0,) + mults if mults else ()


def diff(coeffs, order=1):
    """Formal derivative of order d = `order` of a coefficient tuple in one pass:
    x^(i−d) gets c_i·i!/(i − d)!, a falling factorial updated by one multiply and
    one exact divide per i.  An order past the degree gives () at once."""
    if order < 0:
        raise DomainError("derivative order must be nonnegative")
    if order >= len(coeffs):
        return ()
    falling, out = math.factorial(order), []  # i!/(i − d)! from i = d
    for i, c in enumerate(coeffs[order:], order + 1):
        out.append(c * falling)
        falling = falling * i // (i - order)
    return tuple(out)


def evaluate(coeffs, x):
    """Exact value of a coefficient tuple at x by Horner's rule."""
    x = Fraction(x)
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def deriv_recursive_eval(partition, d, x):
    """Evaluate the d-th derivative of the partition polynomial at x using
    the Stirling recursion

        f^(d)(x) = Σ_i i^d·m_i·x^(i-d) − Σ_{j<d} S(d,j)·x^(j-d)·f^(j)(x),

    with lower-order values memoized at the fixed x.  Requires x ≠ 0 because
    the recursion contains negative powers of x; derivative_values covers
    x = 0.  Returns 0 for d beyond the largest part.  The CLI computes
    derivatives formally; this is the paper's theorem and the tests' oracle.
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


def derivative_values(partition, x):
    """[f^(0)(x), f^(1)(x), ..., f^(k)(x)] at a rational x = a/b (an int or a
    Fraction) by one integer Taylor shift: h(y) = b^k·f(y/b) has the integer
    coefficients c_i·b^(k−i), Horner's rule repeated k times turns them into
    the coefficients H_d of h(y + a), and f^(d)(x) = d!·H_d / b^(k−d).  One
    Fraction per value; [0] for the empty partition."""
    a, b = x.numerator, x.denominator
    h = [c * b ** i for i, c in enumerate(reversed(poly_of(partition) or (0,)))]
    k = len(h) - 1
    for top in range(k, 0, -1):  # h[0..k] ends as H_k, ..., H_0
        for i in range(1, top + 1):
            h[i] += a * h[i - 1]
    factorials = accumulate(range(1, k + 1), mul, initial=1)  # d! = (d − 1)!·d
    return [Fraction(f * h[k - d], b ** (k - d)) for d, f in enumerate(factorials)]


def derived_partition(partition, d):
    """The partition λ^(d) encoding the d-th derivative of the partition
    polynomial: its coefficients past the constant term, so part j gets
    multiplicity ((j+d)!/j!)·m_{j+d}.  The constant d!·m_d would be a part
    of size zero and is excluded: f_λ^(d)(x) = d!·m_d + f_{λ^(d)}(x), so the
    derivative's tuple is (d!·m_d,) + poly_of(λ^(d))[1:].  Differentiating
    f_{λ^(d)} once gives f_λ^(d+1), so λ^(d+1) = (λ^(d))^(1): the whole
    sequence is a walk of first derived partitions.  Empty for d ≥ k."""
    return Partition(diff(poly_of(partition), d)[1:])
