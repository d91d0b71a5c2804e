import pytest
from hypothesis import given, strategies as st

from partpoly import (
    CountTable,
    DomainError,
    Partition,
    count_partitions,
    iter_partitions,
    stats,
)

part_lists = st.lists(st.integers(min_value=1, max_value=9), max_size=8)
partitions = part_lists.map(Partition.from_parts)


def test_from_parts_example3():
    p = Partition.from_parts([5, 2, 2, 1])
    assert p.multiplicities == (1, 2, 0, 0, 1)


def test_from_parts_empty():
    assert Partition.from_parts([]).is_empty
    assert Partition.from_parts([]) == Partition()


def test_from_parts_section3_example():
    p = Partition.from_parts([4, 3, 3, 3, 1])
    assert p.multiplicities == (1, 0, 3, 1)


def test_from_parts_rejects_nonpositive():
    with pytest.raises(DomainError):
        Partition.from_parts([3, 0])
    with pytest.raises(DomainError):
        Partition.from_parts([-1])


def test_canonical_trims_trailing_zeros():
    assert Partition([1, 2, 0, 0, 1, 0, 0]) == Partition([1, 2, 0, 0, 1])
    assert Partition([0, 0]) == Partition()


def test_stats_examples():
    st1 = stats(Partition.from_parts([5, 2, 2, 1]))
    assert (st1.length, st1.size, st1.largest_part) == (4, 10, 5)
    st2 = stats(Partition())
    assert (st2.length, st2.size, st2.largest_part) == (0, 0, 0)
    st3 = stats(Partition.from_parts([4, 3, 3, 3, 1]))
    assert (st3.length, st3.size, st3.largest_part) == (5, 14, 4)


def test_norm_examples():
    assert Partition.from_parts([5, 2, 2, 1]).norm() == 20
    assert Partition().norm() == 1
    assert Partition.from_parts([17]).norm() == 17


def test_supernorm_examples():
    assert Partition([2]).supernorm() == 4
    assert Partition.from_parts([5, 2, 2, 1]).supernorm() == 198
    assert Partition().supernorm() == 1


def test_supernorm_distinct_across_small_partitions():
    seen = {}
    for n in range(13):
        for p in iter_partitions(n):
            sn = p.supernorm()
            assert sn not in seen, (p, seen[sn])
            seen[sn] = p


def test_moment_examples():
    p = Partition.from_parts([5, 2, 2, 1])
    assert p.moment(0) == p.length == 4
    assert p.moment(1) == p.size == 10
    assert p.moment(2) == 34


@given(partitions)
def test_moment_zero_and_one_match_stats(p):
    assert p.moment(0) == p.length
    assert p.moment(1) == p.size


def test_oplus_examples():
    one = Partition.from_parts([1])
    two = Partition.from_parts([2])
    assert one.oplus(two) == Partition.from_parts([2, 1])
    p = Partition.from_parts([5, 2, 2, 1])
    assert p.oplus(Partition()) == p
    assert p.oplus(p) == Partition([2, 4, 0, 0, 2])


@given(partitions, partitions)
def test_oplus_commutative_and_additive(a, b):
    assert a.oplus(b) == b.oplus(a)
    combined = a.oplus(b)
    assert combined.length == a.length + b.length
    assert combined.size == a.size + b.size
    assert combined.largest_part == max(a.largest_part, b.largest_part)


@given(partitions, partitions, partitions)
def test_oplus_associative(a, b, c):
    assert a.oplus(b).oplus(c) == a.oplus(b.oplus(c))


@given(partitions)
def test_parts_round_trip(p):
    assert Partition.from_parts(p.parts()) == p


def test_enumerate_examples():
    assert [p.parts() for p in iter_partitions(5, 2)] == [[4, 1], [3, 2]]
    assert [p.parts() for p in iter_partitions(7, 1)] == [[7]]
    assert list(iter_partitions(0)) == [Partition()]


def test_enumerate_descending_lex_order():
    listed = [p.parts() for p in iter_partitions(6)]
    assert listed == sorted(listed, reverse=True)
    assert listed[0] == [6]
    assert listed[-1] == [1] * 6


def test_enumerate_empty_stream_when_infeasible():
    assert list(iter_partitions(3, 5)) == []


def test_count_examples():
    assert count_partitions(10) == 42
    assert count_partitions(5, 2) == 2
    for n in range(1, 12):
        assert count_partitions(n, 1) == 1


def test_count_matches_oeis_a000041_prefix():
    # p(0)..p(12) as cited in the partition-function entry
    expected = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77]
    assert [count_partitions(n) for n in range(13)] == expected


def test_count_row_sums():
    for n in range(1, 31):
        assert sum(count_partitions(n, l) for l in range(1, n + 1)) == count_partitions(n)


def test_count_matches_enumeration():
    for n in range(21):
        assert count_partitions(n) == sum(1 for _ in iter_partitions(n))
        for l in range(1, n + 1):
            assert count_partitions(n, l) == sum(1 for _ in iter_partitions(n, l))


def test_count_edge_cases():
    assert count_partitions(0) == 1
    assert count_partitions(0, 0) == 1
    assert count_partitions(5, 0) == 0
    assert count_partitions(5, -1) == 0
    assert count_partitions(5, 7) == 0
    with pytest.raises(DomainError):
        count_partitions(-1)


def test_count_matches_count_table():
    # the pentagonal recurrence and the coin DP against the full triangle
    table = CountTable()
    for n in range(81):
        assert count_partitions(n) == table.count(n)
        for l in range(-1, n + 2):
            assert count_partitions(n, l) == table.count(n, l), (n, l)


def test_count_matches_sympy():
    numbers = pytest.importorskip("sympy.functions.combinatorial.numbers")
    for n in list(range(300)) + [3000]:
        assert count_partitions(n) == int(numbers.partition(n)), n


def test_json_round_trip():
    p = Partition.from_parts([5, 2, 2, 1])
    assert Partition.from_json(p.to_json()) == p
    assert Partition.from_json({"parts": [5, 2, 2, 1]}) == p
    assert Partition.from_json({"parts": []}) == Partition()
    with pytest.raises(DomainError):
        Partition.from_json({"bogus": []})


def test_big_multiplicities():
    p = Partition([10 ** 30, 0, 2])
    assert p.length == 10 ** 30 + 2
    assert p.size == 10 ** 30 + 6
    assert Partition.from_json(p.to_json()) == p
