import pytest
from hypothesis import assume, example, given, settings, strategies as st

import partpoly.search
from partpoly import (
    CollisionReport,
    DomainError,
    Partition,
    collision_search,
    count_partitions,
    derivative_values,
    distinguishing_order,
    iter_partitions,
)


def _smallest_collision_size(length, order, n_max):
    # the first n at which collision_search finds a group, None if none by n_max
    return next((n for n in range(length, n_max + 1) if collision_search(n, length, order).groups), None)


def test_distinguishing_order_example3_pair():
    a = Partition.from_parts([5, 2, 2, 1])
    b = Partition.from_parts([4, 3, 2, 1])
    assert distinguishing_order(a, b) == 2


def test_distinguishing_order_identical():
    p = Partition.from_parts([3, 2, 1])
    assert distinguishing_order(p, p) is None


def test_distinguishing_order_second_moment_tie():
    a = Partition.from_parts([6, 5, 1])
    b = Partition.from_parts([7, 3, 2])
    assert a.moment(2) == b.moment(2) == 62
    assert a.moment(3) == 342 and b.moment(3) == 378
    assert distinguishing_order(a, b) == 3


def test_distinguishing_order_pads_past_largest_part():
    # same length, same size, different largest parts
    a = Partition.from_parts([3, 1])
    b = Partition.from_parts([2, 2])
    d = distinguishing_order(a, b)
    assert d == 2


def test_distinguishing_order_is_none_only_for_equal_partitions():
    # equal f^(0..K)(1) over part sizes 1..K fix the multiplicities
    ps = [p for n in range(1, 9) for p in iter_partitions(n)]
    for a in ps:
        for b in ps:
            d = distinguishing_order(a, b)
            assert (d is None) == (a == b)
            if d:
                assert derivative_values(a, 1)[:d] == derivative_values(b, 1)[:d]


def _first_padded_profile_difference(lam, mu):
    # the oracle: f^(d)(1) for d <= K, the larger largest part, zero past each
    # partition's own largest part
    K = max(lam.largest_part, mu.largest_part)
    a, b = (derivative_values(p, 1) + [0] * (K - p.largest_part) for p in (lam, mu))
    return next((d for d, (x, y) in enumerate(zip(a, b)) if x != y), None)


MULTS = st.lists(st.integers(min_value=0, max_value=4), max_size=8)


@settings(max_examples=200, deadline=None)
@example([1, 2, 0, 0, 1], [1, 1, 1, 1], False)  # ⟨5,2,2,1⟩ / ⟨4,3,2,1⟩: order 2
@example([1, 0, 0, 0, 1, 1], [0, 1, 1, 0, 0, 0, 1], False)  # order 3
@example([1, 0, 1], [0, 2], False)  # different largest parts
@example([], [], True)
@given(MULTS, MULTS, st.booleans())
def test_distinguishing_order_matches_padded_profiles(a, b, equal):
    lam, mu = Partition(a), Partition(a + [0] if equal else b)
    assert distinguishing_order(lam, mu) == _first_padded_profile_difference(lam, mu)


SAME_LENGTH = st.integers(min_value=1, max_value=7).flatmap(
    lambda l: st.tuples(*[st.lists(st.integers(min_value=1, max_value=30), min_size=l, max_size=l)] * 2)
)


@settings(max_examples=300, deadline=None)
@example(([19, 15, 11, 3, 2], [18, 17, 9, 5, 1]))  # an ideal PTE pair meets the bound
@example(([3, 1], [2, 2]))
@given(SAME_LENGTH)
def test_newton_bounds_distinguishing_order_by_the_length(pair):
    # equal M_1..M_ℓ fix ℓ parts, so unequal partitions of one length ℓ differ at an order <= ℓ
    lam, mu = (Partition.from_parts(parts) for parts in pair)
    assume(lam != mu)
    assert distinguishing_order(lam, mu) <= lam.length == mu.length


@pytest.mark.parametrize("n, first, second", [
    # {0,4,8,16,17} / {1,2,10,14,18}, an ideal Prouhet–Tarry–Escott pair of
    # degree 4 (Borwein & Ingalls 1994), shifted by 1
    (50, [19, 15, 11, 3, 2], [18, 17, 9, 5, 1]),
    (36, [11, 7, 7, 7, 2, 2], [10, 10, 5, 5, 5, 1]),
    (35, [9, 7, 7, 6, 2, 2, 2], [8, 8, 8, 4, 3, 3, 1]),
])
def test_pte_pair_is_the_only_order_4_collision(n, first, second):
    # equal power sums Σ a^j for j <= 4, so equal f^(0..4)(1): the only such
    # pair of n into len(first) parts
    power_sums = [sum(x ** j for x in first) - sum(y ** j for y in second) for j in range(6)]
    assert power_sums[:5] == [0] * 5 and power_sums[5]
    a, b = Partition.from_parts(first), Partition.from_parts(second)
    assert distinguishing_order(a, b) == 5
    report = collision_search(n, len(first), 4)
    assert report.groups == ((a, b),)
    assert report.keys == (tuple(derivative_values(a, 1)[:5]),)


# (5, 4) -> 50 and (6, 5) -> 54 also hold, but their scans take 6 s and 20 s
@pytest.mark.parametrize("length, order, n", [(3, 2, 9), (4, 3, 18), (6, 4, 36), (7, 4, 35)])
def test_smallest_collision_size_fixtures(length, order, n):
    assert _smallest_collision_size(length, order, n_max=n) == n


def test_collision_search_12_3_2():
    report = collision_search(12, 3, 2)
    target = {Partition.from_parts([6, 5, 1]), Partition.from_parts([7, 3, 2])}
    assert any(target == set(g) for g in report.groups)


def test_collision_keys_are_profile_prefixes():
    for n, length, order in [(12, 3, 2), (20, 4, 3), (11, 5, 2)]:
        report = collision_search(n, length, order)
        assert len(report.keys) == len(report.groups)
        for key, group in zip(report.keys, report.groups):
            for p in group:
                assert key == tuple(derivative_values(p, 1)[: order + 1])


@pytest.mark.parametrize("order, n_max", [(1, 24), (2, 30), (3, 24)])
def test_collision_groups_match_full_profile_grouping(order, n_max):
    # the oracle groups on the whole prefix f^(0..d)(1), orders 0 and 1 included
    for n in range(1, n_max + 1):
        for length in range(1, n + 1):
            buckets = {}
            for p in iter_partitions(n, length):
                buckets.setdefault(tuple(derivative_values(p, 1)[: order + 1]), []).append(p)
            expected = [(k, tuple(g)) for k, g in buckets.items() if len(g) >= 2]
            report = collision_search(n, length, order)
            assert list(zip(report.keys, report.groups)) == expected, (n, length)


def test_collision_groups_consistent_with_orders():
    report = collision_search(12, 3, 2)
    for group in report.groups:
        assert len(group) >= 2
        for i, a in enumerate(group):
            for b in group[i + 1 :]:
                assert a != b
                assert a.size == 12 and b.size == 12
                assert a.length == b.length == 3
                assert distinguishing_order(a, b) > 2


def test_collision_search_length_one_never_collides():
    for n in (5, 9, 14):
        assert collision_search(n, 1, 3).groups == ()


def test_order_at_least_length_reports_without_enumerating(monkeypatch):
    # M_1..M_ℓ fix ℓ parts, so a search at d >= ℓ answers before enumerating;
    # below it, the lengths with p(n, ℓ) = 1 (ℓ = 1 and ℓ >= n − 1) enumerate
    # their one partition, whose largest part is at most 2
    for n in range(1, 40):
        single = [l for l in range(1, n + 1) if count_partitions(n, l) == 1]
        assert single == sorted({1, *range(max(n - 1, 1), n + 1)})
    calls, enumerate_partitions = [], partpoly.search.iter_partitions

    def spy(n, length):
        calls.append((n, length))
        return enumerate_partitions(n, length)

    monkeypatch.setattr(partpoly.search, "iter_partitions", spy)
    for n, length, order in ((1, 1, 1), (9, 1, 5), (9, 8, 8), (9, 9, 20), (10 ** 6, 1, 1),
                             (160, 2, 160), (437, 2, 20), (1414, 3, 3), (10 ** 6, 10 ** 5, 10 ** 5)):
        assert collision_search(n, length, order) == CollisionReport(n, length, order, (), ())
    assert calls == []
    for n, length in ((9, 8), (9, 9), (40, 39)):
        assert collision_search(n, length, length - 1) == (n, length, length - 1, (), ())
    assert calls == [(9, 8), (9, 9), (40, 39)]


@pytest.mark.parametrize("order_past_length", [0, 1])
def test_no_collision_at_order_length_or_more_by_brute_force(order_past_length):
    # every partition of n <= 24, grouped on its whole prefix f^(0..d)(1) at d = ℓ or ℓ + 1
    for n in range(1, 25):
        for length in range(1, n + 1):
            d = length + order_past_length
            keys = [tuple(derivative_values(p, 1)[: d + 1]) for p in iter_partitions(n, length)]
            assert len(set(keys)) == len(keys), (n, length)


def test_collision_search_domain():
    with pytest.raises(DomainError):
        collision_search(5, 6, 2)
    with pytest.raises(DomainError):
        collision_search(5, 2, 0)


def test_second_derivative_closed_form_in_groups():
    report = collision_search(12, 3, 2)
    for group in report.groups:
        for p in group:
            assert derivative_values(p, 1)[2] == p.moment(2) - p.size


def test_pigeonhole_bound_on_second_derivative():
    for n in (6, 10, 14):
        for p in iter_partitions(n):
            if p.largest_part >= 2:
                assert derivative_values(p, 1)[2] <= n ** 3 - n


def test_growth_of_length_five_count():
    for n in (100, 200):
        ratio = count_partitions(n, 5) * 2880 / n ** 4
        assert 0.5 <= ratio <= 1.5


def test_smallest_length5_order2_collision_is_11():
    # regression fixture: first size with two unequal length-5 partitions
    # sharing f(1), f'(1), f''(1); {5,2,2,1,1} and {4,4,1,1,1} both have
    # second moment 35
    assert _smallest_collision_size(5, 2, n_max=20) == 11
    groups = collision_search(11, 5, 2).groups
    target = {
        Partition.from_parts([5, 2, 2, 1, 1]),
        Partition.from_parts([4, 4, 1, 1, 1]),
    }
    assert any(target == set(g) for g in groups)


def test_report_json_schema():
    doc = collision_search(12, 3, 2).to_json()
    assert doc["n"] == 12 and doc["length"] == 3 and doc["order"] == 2
    for group in doc["groups"]:
        for part in group:
            assert "multiplicities" in part
