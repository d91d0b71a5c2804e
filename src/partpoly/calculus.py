"""Partition polynomials and their derivatives.

Every derivative value comes from formal power-rule differentiation of the
integer polynomial, evaluated by Horner's rule.  The paper's Stirling-number
recursion is kept as the independent oracle: the test suite asserts exact
agreement between the two on every partition it touches.
"""

from fractions import Fraction

from .errors import DomainError
from .exact import stirling2
from .partitions import Partition


class IntPolynomial:
    """Dense polynomial with arbitrary-precision integer coefficients."""

    __slots__ = ("_coeffs",)

    def __init__(self, coefficients=()):
        coeffs = list(coefficients)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self._coeffs = tuple(coeffs)

    @property
    def coefficients(self):
        """Coefficients in degree-ascending order; empty for the zero polynomial."""
        return self._coeffs

    @property
    def is_zero(self):
        return not self._coeffs

    @property
    def degree(self):
        """Degree, with the zero polynomial reported as degree -1."""
        return len(self._coeffs) - 1

    def diff(self):
        """Formal derivative by the power rule."""
        return IntPolynomial(
            i * c for i, c in enumerate(self._coeffs[1:], start=1)
        )

    def evaluate(self, x):
        """Exact value at x by Horner's rule."""
        x = Fraction(x)
        acc = Fraction(0)
        for c in reversed(self._coeffs):
            acc = acc * x + c
        return acc

    def to_json(self):
        return {"coefficients": [str(c) for c in self._coeffs]}

    @classmethod
    def from_json(cls, doc):
        return cls(int(c) for c in doc["coefficients"])

    def __eq__(self, other):
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self):
        return hash(self._coeffs)

    def __repr__(self):
        if not self._coeffs:
            return "IntPolynomial(0)"
        terms = []
        for i in range(len(self._coeffs) - 1, -1, -1):
            c = self._coeffs[i]
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append(f"{c}x" if c != 1 else "x")
            else:
                terms.append(f"{c}x^{i}" if c != 1 else f"x^{i}")
        return f"IntPolynomial({' + '.join(terms)})"


def poly_of(partition):
    """The partition polynomial: coefficient of x^i is the multiplicity m_i."""
    return IntPolynomial((0,) + partition.multiplicities)


def diff(polynomial, order=1):
    """Formal derivative, iterated `order` times; an order past the degree
    gives the zero polynomial without differentiating."""
    if order < 0:
        raise DomainError("derivative order must be nonnegative")
    if order > polynomial.degree:
        return IntPolynomial()
    for _ in range(order):
        polynomial = polynomial.diff()
    return polynomial


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
    """Yield f, f', ..., f^(k) by formal differentiation once per order."""
    p = poly_of(partition)
    for _ in range(partition.largest_part + 1):
        yield p
        p = p.diff()


def derivative_values(partition, x):
    """[f^(0)(x), f^(1)(x), ..., f^(k)(x)] at any rational x; 0 past k."""
    return [p.evaluate(x) for p in _derivatives(partition)]


def derivative_profile(partition):
    """The vector [f^(0)(1), f^(1)(1), ..., f^(k)(1)] of derivative values
    at x = 1; entry 0 is the length and entry 1 the size."""
    return [int(v) for v in derivative_values(partition, 1)]


def derived_partition(partition, d):
    """The partition encoding the d-th derivative of the partition
    polynomial: its coefficients past the constant term, so part j gets
    multiplicity ((j+d)!/j!)·m_{j+d}.  The constant d!·m_d would be a part
    of size zero and is excluded, so poly_of of the result is the
    derivative minus that constant.  Empty for d ≥ k."""
    return Partition(diff(poly_of(partition), d).coefficients[1:])
