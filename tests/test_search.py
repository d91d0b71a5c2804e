import pytest

from partpoly import (
    DomainError,
    Partition,
    collision_search,
    count_partitions,
    derivative_profile,
    distinguishing_order,
    iter_partitions,
    smallest_collision_size,
)


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
                assert key == tuple(derivative_profile(p)[: order + 1])


def test_collision_groups_consistent_with_orders():
    report = collision_search(12, 3, 2)
    for group in report.groups:
        assert len(group) >= 2
        for i, a in enumerate(group):
            for b in group[i + 1 :]:
                assert a != b
                assert a.size == 12 and b.size == 12
                assert a.length == b.length == 3
                d = distinguishing_order(a, b)
                assert d is None or d > 2


def test_collision_search_length_one_never_collides():
    for n in (5, 9, 14):
        assert collision_search(n, 1, 3).groups == ()


def test_collision_search_domain():
    with pytest.raises(DomainError):
        collision_search(5, 6, 2)
    with pytest.raises(DomainError):
        collision_search(5, 2, 0)


def test_second_derivative_closed_form_in_groups():
    report = collision_search(12, 3, 2)
    for group in report.groups:
        for p in group:
            assert derivative_profile(p)[2] == p.moment(2) - p.size


def test_pigeonhole_bound_on_second_derivative():
    for n in (6, 10, 14):
        for p in iter_partitions(n):
            if p.largest_part >= 2:
                assert derivative_profile(p)[2] <= n ** 3 - n


def test_growth_of_length_five_count():
    for n in (100, 200):
        ratio = count_partitions(n, 5) * 2880 / n ** 4
        assert 0.5 <= ratio <= 1.5


def test_smallest_length5_order2_collision_is_11():
    # regression fixture: first size with two unequal length-5 partitions
    # sharing f(1), f'(1), f''(1); {5,2,2,1,1} and {4,4,1,1,1} both have
    # second moment 35
    assert smallest_collision_size(5, 2, n_max=20) == 11
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
