import random
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from partpoly import (
    DomainError,
    Partition,
    integral,
    evaluate,
    poly_of,
)
from oracles import oplus, partitions_of


def _integral_oracle(p):
    # term-wise antiderivative of the integer polynomial, evaluated on [0,1]
    coeffs = poly_of(p)
    total = sum(Fraction(c, i + 1) for i, c in enumerate(coeffs))
    return total / p.length


def _fraction_sum_oracle(p):
    # the closed form summed one Fraction per part size
    total = sum(Fraction(m, i + 1) for i, m in enumerate(p.multiplicities, start=1) if m)
    return total / p.length


_mult = st.integers(0, 10 ** 3000) | st.integers(0, 5)


@st.composite
def _sparse(draw):
    # ⟨1^a, s^b⟩ and one more part size, with s up to 10^6
    s = draw(st.integers(2, 10 ** 6))
    mults = [0] * s
    mults[0], mults[s - 1] = draw(_mult), draw(_mult)
    mults[draw(st.integers(0, s - 1))] += draw(_mult)
    return mults


@settings(max_examples=40, deadline=None)
@given(st.lists(_mult, min_size=1, max_size=40) | _sparse())
def test_integral_matches_fraction_sum(mults):
    # interior zeros, multiplicities up to 10^3000, part sizes up to 10^6
    p = Partition(mults)
    assume(not p.is_empty)
    assert integral(p) == _fraction_sum_oracle(p)


def _normalized(p, x):
    # f̂_λ(x) = f_λ(x)/ℓ, the normalized polynomial the integral is taken of
    return evaluate(poly_of(p), x) / p.length


def test_normalized_eval_endpoints():
    for parts in ([3, 1], [5, 2, 2, 1], [1, 1, 1]):
        p = Partition.from_parts(parts)
        assert _normalized(p, 0) == 0
        assert _normalized(p, 1) == 1


def test_normalized_eval_all_ones_is_identity():
    p = Partition([5])
    for x in (Fraction(0), Fraction(1, 3), Fraction(7, 8), Fraction(1)):
        assert _normalized(p, x) == x


def test_normalized_eval_dominated_by_x():
    grid = [Fraction(k, 16) for k in range(17)]
    for n in range(1, 13):
        for p in partitions_of(n):
            for x in grid:
                value = _normalized(p, x)
                assert value <= x
                if 0 < x < 1 and p.largest_part > 1:
                    assert value < x


def test_integral_examples():
    assert integral(Partition([6])) == Fraction(1, 2)
    for n in range(1, 30):
        assert integral(Partition.from_parts([n])) == Fraction(1, n + 1)
    assert integral(Partition.from_parts([5, 2, 2, 1])) == Fraction(1, 3)


def test_integral_alpha_family_closed_form():
    for s in range(2, 30):
        p = Partition([1] + [0] * (s - 2) + [s - 1])
        assert integral(p) == (Fraction(1, 2) + Fraction(s - 1, s + 1)) / s


def test_integral_sparse_partition_is_fast():
    # D is lcm(2, 10^6 + 1), not lcm(2..10^6 + 1), a number of 434,000 digits
    p = Partition.from_parts([1, 10 ** 6])
    start = time.perf_counter()
    assert integral(p) == Fraction(10 ** 6 + 3, 4 * (10 ** 6 + 1))
    assert time.perf_counter() - start < 1


def test_integral_rejects_empty():
    with pytest.raises(DomainError):
        integral(Partition())


def test_integral_bounds_and_equality_condition():
    half = Fraction(1, 2)
    for n in range(1, 16):
        for p in partitions_of(n):
            value = integral(p)
            assert 0 < value <= half
            assert (value == half) == (p.multiplicities[0] == p.length)


def test_integral_matches_antiderivative_oracle():
    for n in range(1, 13):
        for p in partitions_of(n):
            assert integral(p) == _integral_oracle(p)


def test_addition_formula_randomized():
    pool = [p for n in range(1, 16) for p in partitions_of(n)]
    rng = random.Random(20260826)
    for _ in range(500):
        a, b = rng.choice(pool), rng.choice(pool)
        la, lb = a.length, b.length
        expected = (
            Fraction(la, la + lb) * integral(a)
            + Fraction(lb, la + lb) * integral(b)
        )
        assert integral(oplus(a, b)) == expected


def test_idempotence_under_self_sum():
    for n in range(1, 13):
        for p in partitions_of(n):
            assert integral(oplus(p, p)) == integral(p)


def test_equal_length_mean():
    pool = [p for n in range(1, 13) for p in partitions_of(n)]
    by_length = {}
    for p in pool:
        by_length.setdefault(p.length, []).append(p)
    rng = random.Random(7)
    for group in by_length.values():
        for _ in range(min(20, len(group) ** 2)):
            a, b = rng.choice(group), rng.choice(group)
            assert integral(oplus(a, b)) == (integral(a) + integral(b)) / 2
