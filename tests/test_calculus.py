import io
import json
import math
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from partpoly import (
    DomainError,
    Partition,
    deriv_recursive_eval,
    derivative_values,
    derived_partition,
    diff,
    evaluate,
    iter_partitions,
    poly_of,
)
from partpoly.cli import run

LAMBDA1 = Partition.from_parts([5, 2, 2, 1])
LAMBDA2 = Partition.from_parts([4, 3, 2, 1])
SEC3 = Partition.from_parts([4, 3, 3, 3, 1])


def test_poly_of_examples():
    assert poly_of(LAMBDA1) == (0, 1, 2, 0, 0, 1)
    assert poly_of(LAMBDA2) == (0, 1, 1, 1, 1)
    assert poly_of(Partition()) == ()


def test_diff_examples():
    assert diff(poly_of(LAMBDA1)) == (1, 4, 0, 0, 5)
    assert diff((2, 6, 12)) == (6, 24)
    assert diff((7,)) == ()
    assert diff(()) == ()


def test_diff_higher_orders():
    assert diff(poly_of(LAMBDA2), 3) == (6, 24)
    assert diff(poly_of(LAMBDA2), 5) == ()
    # stops once the polynomial is zero instead of looping `order` times
    assert diff(poly_of(LAMBDA2), 10 ** 12) == ()
    assert diff((), 10 ** 12) == ()
    with pytest.raises(DomainError):
        diff(poly_of(LAMBDA2), -1)


def _diff_by_steps(coeffs, d):
    # the power rule applied d times, one order a pass: the one-pass diff's oracle
    for _ in range(d):
        coeffs = tuple([i * c for i, c in enumerate(coeffs[1:], start=1)])
    return tuple(coeffs)


_COEFFS = st.lists(st.integers(min_value=-10 ** 6, max_value=10 ** 6), max_size=12)
_COEFFS_AND_ORDER = _COEFFS.flatmap(
    lambda c: st.tuples(st.just(tuple(c)), st.integers(min_value=0, max_value=len(c) + 2))
)


@example(((), 0))
@example(((0, 0, -3, 0), 2))
@given(_COEFFS_AND_ORDER)
def test_diff_matches_the_power_rule_applied_d_times(case):
    # zeros and negative entries, and orders 0..len + 2: past the degree both give ()
    coeffs, d = case
    assert diff(coeffs, d) == _diff_by_steps(coeffs, d)


def test_diff_order_zero_and_past_the_degree():
    for c in ([], [5], [0, 0], [3, -1, 0, 4]):
        assert diff(c, 0) == tuple(c)
        for d in range(len(c), len(c) + 3):
            assert diff(c, d) == ()


def test_high_order_derived_partition_is_one_pass():
    # 3000 ones at order 2000: d·k = 6·10^6 big-integer steps when differentiated
    # one order at a time (3.4 s), 3000 falling-factorial updates in one pass
    p = Partition([1] * 3000)
    start = time.perf_counter()
    q = derived_partition(p, 2000)
    assert time.perf_counter() - start < 0.5
    assert q.largest_part == 1000 and q.multiplicity(1) == math.perm(2001, 2000)


def test_evaluate_examples():
    assert evaluate(poly_of(LAMBDA1), 1) == 4
    assert evaluate((3, 1, 4), 0) == 3
    assert evaluate(poly_of(LAMBDA2), Fraction(1, 2)) == Fraction(15, 16)


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
    assert deriv_recursive_eval(SEC3, 2, x) == evaluate(diff(poly_of(SEC3), 2), x)


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
                        assert deriv_recursive_eval(p, d, x) == evaluate(q, x) == value
                    else:
                        assert value == evaluate(diff(poly, d), 0)
                    q = diff(q)


@settings(max_examples=100, deadline=None)
@example([1, 2, 0, 0, 1], Fraction(0))
@example([0, 3, 1], Fraction(-5, 3))
@given(
    st.lists(st.integers(min_value=0, max_value=6), max_size=9),
    st.fractions(min_value=-4, max_value=4, max_denominator=7),
)
def test_derivative_values_match_sympy(mults, x):
    # a third oracle, independent of the formal route and the recursion
    sympy = pytest.importorskip("sympy")
    p = Partition(mults)
    t = sympy.Symbol("t")
    f = sum(m * t ** i for i, m in enumerate(p.multiplicities, start=1))
    values = derivative_values(p, x)
    for d in range(p.largest_part + 1):
        expected = sympy.diff(f, t, d).subs(t, sympy.Rational(x.numerator, x.denominator))
        assert values[d] == Fraction(int(sympy.numer(expected)), int(sympy.denom(expected)))


def _values_by_diff(p, x):
    # the per-order route: each order's formal derivative evaluated by Horner
    coeffs = poly_of(p)
    return [evaluate(diff(coeffs, d), x) for d in range(p.largest_part + 1)]


_POINTS = st.one_of(
    st.integers(-5, 5),
    st.fractions(min_value=-9, max_value=9, max_denominator=10),
    st.builds(Fraction, st.integers(-10 ** 40, 10 ** 40), st.integers(1, 10 ** 40)),
)


@settings(max_examples=150, deadline=None)
@example([], Fraction(5, 3))  # the empty partition gives [0]
@example([], 0)
@example([0, 0, 3, 0, 0, 10 ** 6], 0)
@example([10 ** 6 - 1, 0, 0, 10 ** 6], Fraction(-7, 3))
@example([1, 0, 0, 0, 2], Fraction(10 ** 30 + 1, 10 ** 30))
@given(
    st.lists(
        st.one_of(st.integers(0, 3), st.integers(10 ** 6 - 3, 10 ** 6 + 3)), max_size=12,
    ),
    _POINTS,
)
def test_taylor_shift_matches_the_per_order_route(mults, x):
    # negative, zero and positive x, large denominators, interior zero
    # multiplicities and multiplicities near 10^6; ints and Fractions alike
    p = Partition(mults)
    values = derivative_values(p, x)
    assert values == _values_by_diff(p, x)
    assert all(type(v) is Fraction for v in values)


def test_all_orders_at_one_third_are_fast():
    # parts 1..1558, the largest all-orders call that prints: about 1.2·10^6
    # integer multiply-adds of one Taylor shift
    p = Partition([1] * 1558)
    start = time.perf_counter()
    values = derivative_values(p, Fraction(1, 3))
    assert time.perf_counter() - start < 3
    assert values[-1] == math.factorial(1558)
    assert values[-2] == math.factorial(1558) // 3 + math.factorial(1557)


def test_derivative_profile_example3():
    assert derivative_values(LAMBDA1, 1) == [4, 10, 24, 60, 120, 120]
    assert derivative_values(LAMBDA2, 1) == [4, 10, 20, 30, 24]


def test_derivative_profile_all_ones():
    assert derivative_values(Partition([7]), 1) == [7, 7]


def test_derivative_profile_invariants():
    for n in range(1, 13):
        for p in iter_partitions(n):
            profile = derivative_values(p, 1)
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
                coeffs = diff(poly_of(p), d)
                constant = coeffs[0] if coeffs else 0
                expected_constant = factorial(d) * p.multiplicity(d) if d >= 1 else 0
                assert constant == expected_constant
                assert poly_of(derived_partition(p, d)) == ((0,) + coeffs[1:] if coeffs[1:] else ())


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
                dp = derived_partition(p, d)
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
    # `poly` builds its JSON document from the coefficient tuple
    out = io.StringIO()
    run(["poly", "--parts", "5,2,2,1", "--format", "json"], out)
    doc = json.loads(out.getvalue())
    assert doc == {"coefficients": ["0", "1", "2", "0", "0", "1"]}
    assert tuple(int(c) for c in doc["coefficients"]) == poly_of(LAMBDA1)
