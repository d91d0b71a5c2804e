import time

import pytest
from hypothesis import given, strategies as st

import partpoly.partitions

from partpoly import (
    CountTable,
    DomainError,
    Partition,
    count_partitions,
    iter_partitions,
)

part_lists = st.lists(st.integers(min_value=1, max_value=9), max_size=8)
partitions = part_lists.map(Partition.from_parts)


def _parts(p):
    # the descending part list, to spell out expected partitions
    return [i for i in range(p.largest_part, 0, -1) for _ in range(p.multiplicities[i - 1])]


def _from_json(doc):
    return Partition(int(m) for m in doc["multiplicities"])


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
    for p, expected in (
        (Partition.from_parts([5, 2, 2, 1]), (4, 10, 5)),
        (Partition(), (0, 0, 0)),
        (Partition.from_parts([4, 3, 3, 3, 1]), (5, 14, 4)),
    ):
        assert (p.length, p.size, p.largest_part) == expected


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
    assert Partition.from_parts(_parts(p)) == p
    assert _from_json(p.to_json()) == p


def test_enumerate_examples():
    assert [_parts(p) for p in iter_partitions(5, 2)] == [[4, 1], [3, 2]]
    assert [_parts(p) for p in iter_partitions(7, 1)] == [[7]]
    assert list(iter_partitions(0)) == [Partition()]


def test_enumerate_descending_lex_order():
    listed = [_parts(p) for p in iter_partitions(6)]
    assert listed == sorted(listed, reverse=True)
    assert listed[0] == [6]
    assert listed[-1] == [1] * 6


def test_enumerate_empty_stream_when_infeasible():
    assert list(iter_partitions(3, 5)) == []
    assert list(iter_partitions(0, 1)) == []


def _one_part_per_level(mults, n, max_part, length):
    # The order oracle: add one part per level, largest first, exactly
    # `length` parts unless None (recursion depth ℓ, so small n only).
    if n == 0 and not length:
        yield Partition(mults)
    elif length is None or 0 < length <= n:
        low = -(-n // length) if length else 1
        for part in range(min(max_part, n - (length or 1) + 1), low - 1, -1):
            mults[part - 1] += 1
            yield from _one_part_per_level(mults, n - part, part, length and length - 1)
            mults[part - 1] -= 1


def test_enumerate_matches_one_part_per_level_order():
    for n in range(26):
        for length in [None, *range(1, n + 2)]:
            expected = list(_one_part_per_level([0] * n, n, n, length))
            assert list(iter_partitions(n, length)) == expected, (n, length)


def test_enumerate_visits_no_dead_branch(monkeypatch):
    # the multiplicity ranges are cut to rests the smaller sizes can complete,
    # so every level entered yields a partition: work in proportion to output
    descend, empty = partpoly.partitions._descend, []

    def counted(*args):
        yielded = False
        for p in descend(*args):
            yielded = True
            yield p
        if not yielded:
            empty.append(args[1:])

    monkeypatch.setattr(partpoly.partitions, "_descend", counted)
    for n in range(1, 21):
        for length in [None, *range(1, n + 1)]:
            assert sum(1 for _ in iter_partitions(n, length)) == count_partitions(n, length)
    assert empty == []


def test_enumerate_many_parts_without_deep_recursion():
    # one level per distinct part size: the depth stays under √(2n), not ℓ
    listed = list(iter_partitions(3000, 2990))
    assert len(listed) == count_partitions(10) == 42
    assert _parts(listed[0]) == [11] + [1] * 2989
    assert _parts(listed[-1]) == [2] * 10 + [1] * 2980


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


def test_count_no_parts_builds_nothing():
    # p(n, 0) = [n = 0]; the coin DP had built n + 1 cells first: 10^12 ended
    # in a MemoryError, 10^4300 − 1 in an OverflowError
    start = time.perf_counter()
    assert count_partitions(10 ** 12, 0) == count_partitions(10 ** 4300 - 1, 0) == 0
    assert time.perf_counter() - start < 1


def test_count_matches_count_table():
    # the pentagonal recurrence and the coin DP against the full triangle
    table = CountTable()
    for n in range(301):
        assert count_partitions(n) == table.count(n), n
    for n in range(81):
        for l in range(-1, n + 2):
            assert count_partitions(n, l) == table.count(n, l), (n, l)


def test_count_table_edges():
    # (0, 0) is the filled cell _rows[0][0]; every other length outside 0..n is 0
    table = CountTable()
    assert table.count(0, 0) == 1
    assert table.count(0, 1) == 0
    assert table.count(7, -1) == 0
    assert table.count(7, 8) == 0
    assert table.count(-1) == 0


def test_count_fills_only_missing_rows():
    filled = []

    class Spy(CountTable):
        def ensure(self, n_max):
            filled.append(n_max)
            super().ensure(n_max)

    table = Spy()
    table.ensure(30)
    filled.clear()
    for n in range(-1, 31):
        table.count(n)
        for l in range(-1, n + 2):
            table.count(n, l)
    assert filled == []
    assert table.count(31, 2) == 15 and filled == [31]


def test_count_matches_sympy():
    numbers = pytest.importorskip("sympy.functions.combinatorial.numbers")
    for n in list(range(300)) + [3000, 10000, 46000]:
        assert count_partitions(n) == int(numbers.partition(n)), n


def test_json_round_trip():
    p = Partition.from_parts([5, 2, 2, 1])
    assert p.to_json() == {"multiplicities": ["1", "2", "0", "0", "1"]}
    assert _from_json(p.to_json()) == p


def test_big_multiplicities():
    p = Partition([10 ** 30, 0, 2])
    assert p.length == 10 ** 30 + 2
    assert p.size == 10 ** 30 + 6
    assert _from_json(p.to_json()) == p
