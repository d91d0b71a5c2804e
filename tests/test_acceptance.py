"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the pytest output.
"""

import math
import time
from contextlib import contextmanager
from fractions import Fraction

from partpoly import (
    Partition,
    approximate,
    avg,
    avg_table,
    collision_search,
    count_partitions,
    derivative_values,
    derived_partition,
    diff,
    evaluate,
    integral,
    iter_partitions,
    multiplicity_profile,
    poly_of,
)
from oracles import avg2_closed_form, avg3_lower_bound, deriv_recursive_eval, moment, oplus, partitions_of


@contextmanager
def criterion(number, name, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d} ({name}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_seconds, (
        f"criterion {number} exceeded its {budget_seconds}s budget: {elapsed:.1f}s"
    )
    print(f"criterion {number:2d} ({name}): PASS ({elapsed:.2f}s)")


def test_criterion_1_example_profiles():
    with criterion(1, "derivative profiles", 1.0):
        assert derivative_values(Partition.from_parts([5, 2, 2, 1]), 1) == [
            4, 10, 24, 60, 120, 120,
        ]
        assert derivative_values(Partition.from_parts([4, 3, 2, 1]), 1) == [
            4, 10, 20, 30, 24,
        ]


def test_criterion_2_derived_sequence():
    with criterion(2, "derived-partition sequence", 1.0):
        lam = Partition.from_parts([4, 3, 3, 3, 1])
        seq = [derived_partition(lam, d) for d in range(4)]
        assert seq[0] == lam
        assert seq[1] == Partition([0, 9, 4])
        assert seq[2] == Partition([18, 12])
        assert seq[3] == Partition([24])
        assert [p.size for p in seq] == [14, 30, 42, 24]


def test_criterion_3_recursion_oracle_equivalence():
    with criterion(3, "derivative recursion vs formal oracle", 30.0):
        points = [Fraction(1), Fraction(1, 2), Fraction(2), Fraction(-1, 3)]
        checked = 0
        for n in range(13):
            for p in partitions_of(n):
                poly = poly_of(p)
                for x in points:
                    q = poly
                    for d in range(p.largest_part + 1):
                        assert deriv_recursive_eval(p, d, x) == evaluate(q, x)
                        q = diff(q)
                checked += 1
        assert checked >= 270


def test_criterion_4_integral_bounds_and_formula():
    with criterion(4, "integral bounds and formula", 30.0):
        half = Fraction(1, 2)
        for n in range(1, 16):
            for p in partitions_of(n):
                value = integral(p)
                assert 0 < value <= half
                assert (value == half) == (p.multiplicities[0] == p.length)
                coeffs = poly_of(p)
                oracle = sum(
                    Fraction(c, i + 1) for i, c in enumerate(coeffs)
                ) / p.length
                assert value == oracle


def test_criterion_5_conjecture_scan_to_50():
    with criterion(5, "monotonicity scan n <= 50", 300.0):
        for n in range(1, 51):
            report = avg_table(n)
            assert report.monotone, f"violation at n={n}, l={report.first_violation}"


def test_criterion_6_closed_forms():
    with criterion(6, "closed forms for one and two parts", 60.0):
        for n in range(2, 201):
            assert avg(n, 1) == Fraction(1, n + 1)
            assert avg(n, 2) == avg2_closed_form(n)
        # the published even-n variant (H_n - 1 + 2/n) must fail at n = 4
        published = (sum(Fraction(1, i) for i in range(1, 5)) - 1 + Fraction(2, 4)) / 4
        enumerated = sum(
            integral(p) for p in iter_partitions(4, 2)
        ) / count_partitions(4, 2)
        assert enumerated == Fraction(17, 48)
        assert published == Fraction(19, 48)
        assert published != enumerated


def test_criterion_7_three_part_bounds():
    with criterion(7, "three-part averages and lower bound", 60.0):
        for n in range(4, 51):
            assert avg(n, 3) >= avg(n, 2)
        for n in (20, 50, 100):
            assert avg3_lower_bound(n) <= float(avg(n, 3)) + 1e-9
        for n in range(6, 61):
            counts = multiplicity_profile(n, 3).multiplicities
            for i in range(1, n - 1):
                assert counts[i - 1] >= (n - i) // 2


def test_criterion_8_density_construction():
    with criterion(8, "density construction", 20.0):
        eps = Fraction(1, 10 ** 6)
        for c in (Fraction(1, 10), Fraction(1, 4), Fraction(1, 3), Fraction(49, 100)):
            started = time.perf_counter()
            trace = approximate(c, eps)
            assert time.perf_counter() - started < 5.0
            assert trace.achieved_error < eps
            last = trace.steps[-1]
            assert last.error_bound < eps or trace.achieved_error == 0
            a, b = trace.interval
            lo, hi = a, b
            width = b - a
            for step in trace.steps:
                assert lo < step.integral < hi  # sandwich
                assert step.integral == (lo + hi) / 2
                assert step.error_bound == width / 2 ** step.index
                if step.integral == c:
                    break
                if c < step.integral:
                    hi = step.integral
                else:
                    lo = step.integral
                assert hi - lo == width / 2 ** step.index  # exact halving
            assert integral(trace.result) == trace.steps[-1].integral
            assert abs(integral(trace.result) - c) == trace.achieved_error


def test_criterion_9_collision_evidence():
    with criterion(9, "collision evidence", 120.0):
        report = collision_search(12, 3, 2)
        pair = {Partition.from_parts([6, 5, 1]), Partition.from_parts([7, 3, 2])}
        assert any(pair == set(g) for g in report.groups)
        a, b = pair
        assert moment(a, 2) == moment(b, 2)
        assert moment(a, 3) != moment(b, 3)
        # regression fixture: first length-5 size with an order-2 collision
        assert next(n for n in range(5, 31) if collision_search(n, 5, 2).groups) == 11


def test_criterion_10_property_suites():
    with criterion(10, "algebraic property suites", 120.0):
        import random

        pool = [p for n in range(1, 16) for p in partitions_of(n)]
        rng = random.Random(42)
        for _ in range(500):  # addition formula
            x, y = rng.choice(pool), rng.choice(pool)
            lx, ly = x.length, y.length
            expected = (
                Fraction(lx, lx + ly) * integral(x)
                + Fraction(ly, lx + ly) * integral(y)
            )
            assert integral(oplus(x, y)) == expected
        for n in range(1, 13):  # idempotence and equal-length mean
            for p in partitions_of(n):
                assert integral(oplus(p, p)) == integral(p)
        by_len = {}
        for p in pool:
            if p.size <= 12:
                by_len.setdefault(p.length, []).append(p)
        for group in by_len.values():
            for x in group[:10]:
                for y in group[:10]:
                    assert integral(oplus(x, y)) == (integral(x) + integral(y)) / 2
        for n in range(1, 31):  # row sums
            assert sum(count_partitions(n, l) for l in range(1, n + 1)) == count_partitions(n)
        for n in range(1, 21):  # profile DP vs enumeration
            for l in range(1, n + 1):
                counts = [0] * n
                for p in iter_partitions(n, l):
                    for i in range(1, p.largest_part + 1):
                        counts[i - 1] += p.multiplicities[i - 1]
                assert multiplicity_profile(n, l) == Partition(counts)
