import io
import json
from fractions import Fraction

import pytest

from partpoly import (
    DomainError,
    IntPolynomial,
    Partition,
    deriv_recursive_eval,
    derivative_profile,
    derivative_values,
    derived_partition,
    diff,
    iter_partitions,
    poly_of,
    stats,
)
from partpoly.cli import run

LAMBDA1 = Partition.from_parts([5, 2, 2, 1])
LAMBDA2 = Partition.from_parts([4, 3, 2, 1])
SEC3 = Partition.from_parts([4, 3, 3, 3, 1])


def test_poly_of_examples():
    assert poly_of(LAMBDA1).coefficients == (0, 1, 2, 0, 0, 1)
    assert poly_of(LAMBDA2).coefficients == (0, 1, 1, 1, 1)
    assert poly_of(Partition()).is_zero


def test_diff_examples():
    assert diff(poly_of(LAMBDA1)).coefficients == (1, 4, 0, 0, 5)
    assert diff(IntPolynomial([2, 6, 12])).coefficients == (6, 24)
    assert diff(IntPolynomial([7])).is_zero
    assert diff(IntPolynomial([])).is_zero


def test_diff_higher_orders():
    assert diff(poly_of(LAMBDA2), 3).coefficients == (6, 24)
    assert diff(poly_of(LAMBDA2), 5).is_zero
    # stops once the polynomial is zero instead of looping `order` times
    assert diff(poly_of(LAMBDA2), 10 ** 12).is_zero
    assert diff(IntPolynomial(), 10 ** 12).is_zero
    with pytest.raises(DomainError):
        diff(poly_of(LAMBDA2), -1)


def test_evaluate_examples():
    assert poly_of(LAMBDA1).evaluate(1) == 4
    assert IntPolynomial([3, 1, 4]).evaluate(0) == 3
    assert poly_of(LAMBDA2).evaluate(Fraction(1, 2)) == Fraction(15, 16)


def test_recursive_eval_example3_values():
    assert deriv_recursive_eval(LAMBDA1, 2, 1) == 24
    assert deriv_recursive_eval(LAMBDA2, 3, 1) == 30


def test_recursive_eval_vanishes_above_largest_part():
    for p in (LAMBDA1, LAMBDA2, SEC3):
        k = p.largest_part
        assert deriv_recursive_eval(p, k + 1, Fraction(2, 3)) == 0
        assert deriv_recursive_eval(p, k + 5, 1) == 0


def test_recursive_eval_rejects_zero():
    with pytest.raises(DomainError):
        deriv_recursive_eval(LAMBDA1, 2, 0)


def test_recursive_eval_matches_oracle_spot():
    x = Fraction(1, 2)
    assert deriv_recursive_eval(SEC3, 2, x) == diff(poly_of(SEC3), 2).evaluate(x)


def test_recursion_equals_oracle_small_sizes():
    # exhaustive n <= 9 here; the acceptance suite pushes this to n <= 12.
    # derivative_values must match the recursion away from 0, where the
    # recursion is undefined, and the iterated formal derivative at 0.
    points = [Fraction(1), Fraction(1, 2), Fraction(2), Fraction(-1, 3), Fraction(0)]
    for n in range(10):
        for p in iter_partitions(n):
            poly = poly_of(p)
            for x in points:
                values = derivative_values(p, x)
                assert len(values) == p.largest_part + 1
                q = poly
                for d, value in enumerate(values):
                    if x != 0:
                        assert deriv_recursive_eval(p, d, x) == q.evaluate(x) == value
                    else:
                        assert value == diff(poly, d).evaluate(0)
                    q = q.diff()


def test_derivative_profile_example3():
    assert derivative_profile(LAMBDA1) == [4, 10, 24, 60, 120, 120]
    assert derivative_profile(LAMBDA2) == [4, 10, 20, 30, 24]


def test_derivative_profile_all_ones():
    assert derivative_profile(Partition([7])) == [7, 7]


def test_derivative_profile_invariants():
    for n in range(1, 13):
        for p in iter_partitions(n):
            profile = derivative_profile(p)
            assert profile[0] == p.length
            assert profile[1] == p.size
            assert all(v >= 0 for v in profile)
            if p.largest_part >= 2:
                assert profile[2] == p.moment(2) - p.size


def test_derived_partition_section3_example():
    assert derived_partition(SEC3, 0) == SEC3
    assert derived_partition(SEC3, 1) == Partition([0, 9, 4])
    assert derived_partition(SEC3, 2) == Partition([18, 12])
    assert derived_partition(SEC3, 3) == Partition([24])
    assert derived_partition(SEC3, 4) == Partition()


def _derived_partition_by_factorials(partition, d):
    # the factorial-product formula: part j gets ((j+d)!/j!)·m_{j+d}
    k = partition.largest_part
    if d >= k:
        return Partition()
    mults = []
    for j in range(1, k - d + 1):
        scale = 1
        for t in range(j + 1, j + d + 1):
            scale *= t
        mults.append(scale * partition.multiplicity(j + d))
    return Partition(mults)


def test_derived_partition_matches_factorial_formula():
    for n in range(13):
        for p in iter_partitions(n):
            with pytest.raises(DomainError):
                derived_partition(p, -1)
            for d in range(p.largest_part + 3):
                assert derived_partition(p, d) == _derived_partition_by_factorials(p, d)
            # the CLI walks the derivative once for every order
            out = io.StringIO()
            run(["derived-seq", "--mults", ",".join(map(str, p.multiplicities)), "--format", "json"], out)
            seq = json.loads(out.getvalue())["sequence"]
            assert [row["order"] for row in seq] == list(range(p.largest_part + 1))
            assert [Partition.from_json(row["partition"]) for row in seq] == [
                _derived_partition_by_factorials(p, d) for d in range(p.largest_part + 1)
            ]


def test_derived_partition_polynomials_are_derivatives():
    # the derived partition excludes the part of size zero, so its
    # polynomial is the d-th derivative minus the constant term d!·m_d
    from math import factorial

    for n in range(13):
        for p in iter_partitions(n):
            for d in range(p.largest_part + 1):
                derivative = diff(poly_of(p), d)
                coeffs = list(derivative.coefficients)
                constant = coeffs[0] if coeffs else 0
                expected_constant = factorial(d) * p.multiplicity(d) if d >= 1 else 0
                assert constant == expected_constant
                assert poly_of(derived_partition(p, d)) == IntPolynomial([0] + coeffs[1:])


def _falling(i, d):
    out = 1
    for t in range(i - d + 1, i + 1):
        out *= t
    return out


def test_derived_partition_length_size_closed_forms():
    for n in range(13):
        for p in iter_partitions(n):
            k = p.largest_part
            for d in range(k + 1):
                dp = stats(derived_partition(p, d))
                length = sum(
                    _falling(i, d) * p.multiplicity(i) for i in range(d + 1, k + 1)
                )
                size = sum(
                    _falling(i, d + 1) * p.multiplicity(i)
                    for i in range(d + 1, k + 1)
                )
                assert dp.length == length
                assert dp.size == size


def test_derived_partition_relationship_identity():
    # |λ^(d-1)| = ℓ(λ^(d)) + d!·m_d, with ℓ(λ^(k)) = 0
    from math import factorial

    for n in range(13):
        for p in iter_partitions(n):
            for d in range(1, p.largest_part + 1):
                lhs = derived_partition(p, d - 1).size
                rhs = derived_partition(p, d).length + factorial(d) * p.multiplicity(d)
                assert lhs == rhs


def test_polynomial_json_round_trip():
    poly = poly_of(LAMBDA1)
    assert IntPolynomial.from_json(poly.to_json()) == poly
    assert poly.to_json() == {"coefficients": ["0", "1", "2", "0", "0", "1"]}
