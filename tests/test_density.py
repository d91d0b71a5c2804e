import random
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from partpoly import (
    DomainError,
    Partition,
    alpha,
    approximate,
    beta,
    integral,
)
from partpoly.density import _bracket_index, alpha_integral, beta_integral, plan


def test_alpha_examples():
    assert alpha(2) == Partition([1, 1])
    assert integral(alpha(2)) == Fraction(5, 12)
    for s in (2, 3, 10, 50):
        assert integral(alpha(s)) == alpha_integral(s)
        assert alpha_integral(s) == (Fraction(1, 2) + Fraction(s - 1, s + 1)) / s
    assert integral(alpha(1000)) < Fraction(1, 500)


def test_beta_examples():
    assert beta(2) == Partition([1, 1])
    assert integral(beta(2)) == Fraction(5, 12)
    for s in (2, 3, 10, 50):
        assert integral(beta(s)) == beta_integral(s)
        assert beta_integral(s) == (Fraction(s - 1, 2) + Fraction(1, s + 1)) / s
    assert Fraction(1, 2) - integral(beta(1000)) < Fraction(1, 1000)


def test_edge_family_domain():
    for bad in (1, 0, -3):
        with pytest.raises(DomainError):
            alpha(bad)
        with pytest.raises(DomainError):
            beta(bad)


def test_edge_family_monotone_limits():
    # beta_integral(2) == beta_integral(3) == 5/12; strict growth starts
    # one step later
    for s in range(3, 201):
        assert alpha_integral(s) < alpha_integral(s - 1)
        assert beta_integral(s) >= beta_integral(s - 1)
        if s >= 4:
            assert beta_integral(s) > beta_integral(s - 1)
    assert alpha_integral(200) < Fraction(1, 100)
    assert beta_integral(200) > Fraction(1, 2) - Fraction(1, 200)


def _replay_invariants(trace):
    a, b = trace.interval
    assert a < trace.target < b
    lo, hi = a, b
    width = b - a
    for step in trace.steps:
        # each combined integral is the exact midpoint of the bracket
        assert step.integral == (lo + hi) / 2
        assert lo < step.integral < hi
        assert step.error_bound == width / 2 ** step.index
        assert abs(step.integral - trace.target) <= step.error_bound
        if step.integral == trace.target:
            break
        if trace.target < step.integral:
            hi = step.integral
        else:
            lo = step.integral
        # interval width halves exactly
        assert hi - lo == width / 2 ** step.index


def test_approximate_targets():
    eps = Fraction(1, 10 ** 6)
    for num, den in ((1, 10), (1, 4), (1, 3), (49, 100)):
        c = Fraction(num, den)
        trace = approximate(c, eps)
        assert trace.achieved_error == abs(integral(trace.result) - c)
        assert trace.achieved_error < eps
        assert trace.steps[-1].error_bound < eps or trace.achieved_error == 0
        assert trace.result.largest_part > 1
        _replay_invariants(trace)


def test_approximate_lengths_double():
    trace = approximate(Fraction(1, 3), Fraction(1, 1000))
    s = trace.start_index
    for step in trace.steps:
        assert step.partition.length == 2 ** step.index * s


def test_approximate_exact_hit():
    # midpoint of the s = 3 bracket: (1/3 + 5/12)/2 = 3/8
    trace = approximate(Fraction(3, 8), Fraction(1, 10 ** 9))
    assert trace.achieved_error == 0
    assert integral(trace.result) == Fraction(3, 8)
    assert len(trace.steps) == 1


def test_last_error_bound_is_the_last_steps_bound():
    # the stop step is found before the loop: at the least r with
    # (b − a)/2^r < ε, or earlier at an exact hit (3/8 at step 1, c5 at step 5)
    a, b = alpha_integral(3), beta_integral(3)
    c5 = a + (b - a) * Fraction(5, 32)
    for c in (Fraction(1, 3), Fraction(49, 100), Fraction(3, 8), c5, Fraction(1, 10 ** 9)):
        for eps in (Fraction(1), b - a, Fraction(1, 10 ** 6), Fraction(1, 2 ** 40)):
            trace = approximate(c, eps)
            assert plan(c, eps) == (trace.start_index, trace.interval, len(trace.steps))
    trace = approximate(c5, Fraction(1, 2 ** 40))
    assert len(trace.steps) == 5 and trace.achieved_error == 0
    with pytest.raises(DomainError):
        plan(Fraction(1, 2), Fraction(1, 100))


def test_approximate_domain_errors():
    eps = Fraction(1, 100)
    for bad in (Fraction(0), Fraction(1, 2), Fraction(3, 4), Fraction(-1, 3)):
        with pytest.raises(DomainError):
            approximate(bad, eps)
    with pytest.raises(DomainError):
        approximate(Fraction(1, 3), Fraction(0))


def test_bracket_widens_past_exact_endpoints():
    # 5/12 is both endpoints of the degenerate s = 2 bracket; the start
    # index must move past any s whose bracket does not strictly contain it
    trace = approximate(Fraction(5, 12), Fraction(1, 10 ** 6))
    a, b = trace.interval
    assert a < Fraction(5, 12) < b
    assert trace.achieved_error < Fraction(1, 10 ** 6)


def _bracket_index_by_scan(c):
    # the original linear scan, kept as the oracle for the closed form
    s = 2
    while not (alpha_integral(s) < c < beta_integral(s)):
        s += 1
    return s


def test_bracket_index_matches_linear_scan():
    rng = random.Random(20211002)
    targets = [f(s) for s in range(2, 401) for f in (alpha_integral, beta_integral)]
    targets.append(Fraction(5, 12))
    # a spread over (0, 1/2), targets near 0 and near 1/2, and tiny steps
    # either side of the edge integrals
    targets += [Fraction(rng.randrange(1, 10 ** 6), 2 * 10 ** 6) for _ in range(200)]
    targets += [Fraction(1, rng.randrange(3, 2000)) for _ in range(50)]
    targets += [Fraction(1, 2) - Fraction(1, rng.randrange(3, 2000)) for _ in range(50)]
    for _ in range(50):
        edge = rng.choice((alpha_integral, beta_integral))(rng.randrange(3, 400))
        targets.append(edge + Fraction(rng.choice((-1, 1)), 10 ** 12))
    for c in targets:
        assert _bracket_index(c) == _bracket_index_by_scan(c), c


def _replay_with_oplus(trace):
    # the original search over explicit partitions: δ = low ⊕ high, with
    # the end that is kept doubled by ⊕ with itself
    c, s = trace.target, trace.start_index
    low, high = alpha(s), beta(s)
    for step in trace.steps:
        delta = low.oplus(high)
        yield step, delta
        if c < integral(delta):
            high, low = delta, low.oplus(low)
        else:
            low, high = delta, high.oplus(high)


@pytest.mark.parametrize(
    "c, eps",
    [
        (Fraction(1, 3), Fraction(1, 1000)),
        (Fraction(3, 8), Fraction(1, 10 ** 9)),
        (Fraction(5, 12), Fraction(1, 10 ** 6)),
        (Fraction(1, 10), Fraction(1, 10 ** 6)),
        (Fraction(1, 4), Fraction(1, 10 ** 6)),
        (Fraction(49, 100), Fraction(1, 10 ** 6)),
    ],
)
def test_weight_trace_equals_oplus_replay(c, eps):
    trace = approximate(c, eps)
    s = trace.start_index
    for step, delta in _replay_with_oplus(trace):
        assert step.partition == delta
        assert integral(step.partition) == step.integral
        assert step.partition.length == 2 ** step.index * s
        assert sum(step.weights) == 2 ** step.index
    assert trace.result == delta


def test_approximate_at_huge_start_index():
    # s ≈ 1.5e9 edge partitions: only the weights are kept, never the
    # s-entry partitions
    started = time.perf_counter()
    trace = approximate(Fraction(1, 10 ** 9), Fraction(1, 10 ** 1000))
    assert time.perf_counter() - started < 10.0
    assert trace.start_index == 1_499_999_999
    assert len(trace.steps) == 3321
    assert trace.steps[-1].error_bound < trace.epsilon
    _replay_invariants(trace)


def test_bracket_index_near_one_half():
    # here the beta_integral condition sets s ≈ 5·10¹¹, far past a walk
    c = Fraction(1, 2) - Fraction(1, 10 ** 12)
    s = _bracket_index(c)
    assert alpha_integral(s) < c < beta_integral(s)
    assert not beta_integral(s - 1) > c
    assert s == 499_999_999_998


@st.composite
def _below_one_half(draw):
    """A rational p/q in (0, 1/2) with q < 10^6."""
    q = draw(st.integers(3, 10 ** 6 - 1))
    return Fraction(draw(st.integers(1, (q - 1) // 2)), q)


@settings(deadline=None)
@example(Fraction(1, 999_999))  # k = 999,999, the longest multiplicity list
@example(Fraction(499_999, 999_999))
@given(_below_one_half())
def test_every_rational_below_one_half_is_an_integral(c):
    # ⟨1^a, k^b⟩ has integral (a/2 + b/(k + 1))/(a + b), which is c when
    # a/b = (c − 1/(k + 1))/(1/2 − c); k = ⌊1/c⌋ >= 2 makes that ratio positive
    k = c.denominator // c.numerator
    ratio = (c - Fraction(1, k + 1)) / (Fraction(1, 2) - c)
    assert integral(Partition([ratio.numerator] + [0] * (k - 2) + [ratio.denominator])) == c
