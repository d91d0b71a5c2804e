"""Partition polynomials and their derivatives.

A polynomial is its tuple of integer coefficients in degree-ascending order;
poly_of and diff leave no trailing zero, so the zero polynomial is ().  Every
derivative value comes from formal power-rule differentiation of that tuple,
evaluated by Horner's rule.  The paper's Stirling-number recursion is kept as
the independent oracle: the test suite asserts exact agreement between the
two on every partition it touches.
"""

from fractions import Fraction

from .errors import DomainError
from .exact import stirling2
from .partitions import Partition


def poly_of(partition):
    """The partition polynomial as its degree-ascending coefficient tuple
    (0, m_1, ..., m_k); () for the empty partition, the zero polynomial."""
    mults = partition.multiplicities
    return (0,) + mults if mults else ()


def diff(coeffs, order=1):
    """Formal derivative of a coefficient tuple, iterated `order` times; an
    order past the degree gives () without differentiating."""
    if order < 0:
        raise DomainError("derivative order must be nonnegative")
    if order >= len(coeffs):
        return ()
    for _ in range(order):
        # From a list: tuple() trims a generator's 10-slot tuple, and CPython's
        # per-size free lists then held 4.4 MB more on `collide --n 60`.
        coeffs = tuple([i * c for i, c in enumerate(coeffs[1:], start=1)])
    return coeffs


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


def _derivatives(partition):
    """Yield the tuples of f, f', ..., f^(k), differentiating once per order."""
    p = poly_of(partition)
    for _ in range(partition.largest_part + 1):
        yield p
        p = diff(p)


def derivative_values(partition, x):
    """[f^(0)(x), f^(1)(x), ..., f^(k)(x)] at any rational x; 0 past k."""
    return [evaluate(p, x) for p in _derivatives(partition)]


def derivative_profile(partition):
    """The vector [f^(0)(1), f^(1)(1), ..., f^(k)(1)] of derivative values
    at x = 1; entry 0 is the length and entry 1 the size."""
    return [int(v) for v in derivative_values(partition, 1)]


def derived_partition(partition, d):
    """The partition λ^(d) encoding the d-th derivative of the partition
    polynomial: its coefficients past the constant term, so part j gets
    multiplicity ((j+d)!/j!)·m_{j+d}.  The constant d!·m_d would be a part
    of size zero and is excluded: f_λ^(d)(x) = d!·m_d + f_{λ^(d)}(x), so the
    derivative's tuple is (d!·m_d,) + poly_of(λ^(d))[1:].  Empty for d ≥ k."""
    return Partition(diff(poly_of(partition), d)[1:])
