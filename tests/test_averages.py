import io
import json
import math
import sys
from fractions import Fraction
from functools import reduce
from itertools import accumulate

import pytest

import partpoly.calculus
from partpoly import (
    CountTable,
    DomainError,
    Partition,
    avg,
    avg_table,
    check_conjecture,
    count_partitions,
    integral,
    iter_partitions,
    multiplicity_profile,
)
from partpoly.cli import MAX_CONJECTURE_N, run
from oracles import avg2_closed_form, avg3_lower_bound, oplus, partitions_of


def _profile_by_enumeration(n, length):
    # the ⊕-sum of every partition of n into `length` parts
    return reduce(oplus, iter_partitions(n, length), Partition())


def _harmonic(n):
    return sum(Fraction(1, i) for i in range(1, n + 1))


def _avg_by_enumeration(n, length):
    values = [integral(p) for p in iter_partitions(n, length)]
    return sum(values) / len(values)


def test_profile_examples():
    assert multiplicity_profile(5, 2) == Partition([1, 1, 1, 1])
    assert multiplicity_profile(4, 2) == Partition([1, 2, 1])
    for n in (3, 7, 12):
        assert multiplicity_profile(n, 1) == Partition.from_parts([n])


def test_profile_sum_identities():
    # the combined partition of the p(n, ℓ) partitions of n into ℓ parts
    for n in range(1, 21):
        for l in range(1, n + 1):
            combined = multiplicity_profile(n, l)
            p_nl = count_partitions(n, l)
            assert combined.length == l * p_nl
            assert combined.size == n * p_nl
            assert combined.largest_part == n - l + 1


def test_profile_matches_enumeration():
    for n in range(1, 21):
        for l in range(1, n + 1):
            assert multiplicity_profile(n, l) == _profile_by_enumeration(n, l)


class _TriangleOnlyRow(list):
    """A list that fails on any index outside 0 <= index < len: row n of the
    table then fails outside 0 <= length <= n, where a plain list would wrap a
    negative index silently."""

    def __getitem__(self, index):
        assert isinstance(index, int) and 0 <= index < len(self), (index, len(self))
        return super().__getitem__(index)


class _TriangleOnlyTable(CountTable):
    """A CountTable whose row list and rows are all _TriangleOnlyRow."""

    def __init__(self):
        self._rows = _TriangleOnlyRow([_TriangleOnlyRow([1])])

    def ensure(self, n_max):
        filled = len(self._rows)
        super().ensure(n_max)
        for n in range(filled, len(self._rows)):
            self._rows[n] = _TriangleOnlyRow(self._rows[n])


def test_profile_reads_only_triangle_cells():
    table = _TriangleOnlyTable()
    for n in range(1, 41):
        for l in range(1, n + 1):
            combined = multiplicity_profile(n, l, table)
            if n <= 20:
                assert combined == _profile_by_enumeration(n, l)


def test_triangle_only_table_catches_reads_outside_the_triangle():
    table = _TriangleOnlyTable()
    assert table.count(5, 2) == 2
    for n, length in ((5, -1), (-1, 0), (5, 6), (6, 0)):
        with pytest.raises(AssertionError):
            table._rows[n][length]


def test_profile_closed_forms_at_lengths_n_n1_n2():
    # ⟨1ⁿ⟩, ⟨1^(n−2), 2⟩ and ⟨1^(n−3), 3⟩ ⊕ ⟨1^(n−4), 2²⟩: at these lengths the
    # length and size totals fix the counts of parts 1 and 2 from those read
    table = CountTable()
    for n in range(1, 151):
        assert multiplicity_profile(n, n, table) == Partition([n])
        if n >= 2:
            assert multiplicity_profile(n, n - 1, table) == Partition([n - 2, 1])
        if n >= 4:
            assert multiplicity_profile(n, n - 2, table) == Partition([2 * n - 7, 2, 1])


class _CountingRow(list):
    reads = 0

    def __getitem__(self, index):
        _CountingRow.reads += 1
        return super().__getitem__(index)


class _CountingTable(CountTable):
    """Counts count calls and reads of filled rows; the fill's reads are not
    counted."""

    calls = 0

    def __init__(self):
        self._rows = [_CountingRow([1])]

    def count(self, n, length=None):
        _CountingTable.calls += 1
        return super().count(n, length)

    def ensure(self, n_max):
        reads, filled = _CountingRow.reads, len(self._rows)
        super().ensure(n_max)
        _CountingRow.reads = reads
        for n in range(filled, len(self._rows)):
            self._rows[n] = _CountingRow(self._rows[n])


def test_conjecture_scan_reads_only_part_sizes_from_3(monkeypatch):
    # one count call per profile (11,325), each reading p(n, ℓ) from its row, then
    # j = 1..min(ℓ, ⌊(n − ℓ)/(i − 1)⌋) direct row reads per i >= 3 (1,661,122):
    # 1,672,447 reads at n <= 150, where reading i = 1 and 2 made 2,518,972
    monkeypatch.setattr("partpoly.averages.CountTable", _CountingTable)
    monkeypatch.setattr(_CountingTable, "calls", 0)
    monkeypatch.setattr(_CountingRow, "reads", 0)
    check_conjecture(150)
    assert _CountingTable.calls == 11_325
    assert _CountingRow.reads == 1_672_447


def test_profiles_from_an_overfilled_shared_table():
    # a table filled past n, as check_conjecture's shared one is, gives what a
    # fresh table gives
    reports = check_conjecture(60)
    table = CountTable()
    table.count(60)
    for n in range(1, 61):
        fresh = avg_table(n)
        assert avg_table(n, table) == fresh == reports[n - 1]
        if n <= 20:
            for l in range(1, n + 1):
                assert multiplicity_profile(n, l, table) == _profile_by_enumeration(n, l)


def test_profile_domain():
    with pytest.raises(DomainError):
        multiplicity_profile(5, 6)
    with pytest.raises(DomainError):
        multiplicity_profile(0, 1)


def test_avg_examples():
    for n in range(1, 40):
        assert avg(n, 1) == Fraction(1, n + 1)
        assert avg(n, n) == Fraction(1, 2)
    assert avg(5, 2) == Fraction(77, 240)


def test_avg_equals_mean_of_integrals():
    for n in range(1, 21):
        for l in range(1, n + 1):
            assert avg(n, l) == _avg_by_enumeration(n, l)


def test_avg_route_matches_integral_of_profile():
    # each row shares lcm(2..n+1) and its n weights; the profile of ℓ has
    # n − ℓ + 1 entries, all n of them only at ℓ = 1 (one at n = 1)
    table = CountTable()
    for n in range(1, 61):
        values = avg_table(n, table).values
        for l in range(1, n + 1):
            expected = integral(multiplicity_profile(n, l))
            assert values[l - 1] == avg(n, l) == expected
            if n <= 12:
                assert expected == _avg_by_enumeration(n, l)


def test_avg_does_not_call_integral(monkeypatch):
    def refuse(partition):
        raise AssertionError("integral called")

    # every partpoly module that binds integral, partpoly.calculus among them
    for name, module in list(sys.modules.items()):
        if name.startswith("partpoly") and getattr(module, "integral", None) is integral:
            monkeypatch.setattr(module, "integral", refuse)
    assert partpoly.calculus.integral is refuse
    assert avg_table(30).values[3] == avg(30, 4) == _avg_by_enumeration(30, 4)


def _b(m):
    # B_m = (1/p(m))·Σ_{μ⊢m} Σ_i m_i·i/(2(i+2)), from enumeration
    total = Fraction(0)
    for mu in partitions_of(m):
        total += sum(Fraction(c * i, 2 * (i + 2)) for i, c in enumerate(mu.multiplicities, 1))
    return total / count_partitions(m)


def test_avg_when_length_covers_the_rest():
    # ℓ >= m = n − ℓ: removing one from each part maps the partitions of n into
    # ℓ parts onto all partitions μ of m, and each part i of μ lowers the
    # integral sum by 1/2 − 1/(i + 2), so Avg(n, ℓ) = 1/2 − B_m/ℓ
    b = [_b(m) for m in range(21)]
    cells = 0
    for n in range(1, 41):
        values = avg_table(n).values
        for l in range((n + 1) // 2, n + 1):
            assert values[l - 1] == Fraction(1, 2) - b[n - l] / l
            cells += 1
    assert cells == 440


def test_upper_half_of_every_row_to_n_1000_is_monotone():
    # Avg(n, ℓ) = 1/2 − B_{n−ℓ}/ℓ for ℓ >= n/2 (above), and B_m >= 0, so a
    # nondecreasing B_0..B_500 gives Avg(n, ℓ) <= Avg(n, ℓ + 1) for every ℓ >= n/2
    # with n − ℓ <= 500: the upper half of every row with n <= 1000
    table = CountTable()
    b = [m * (Fraction(1, 2) - avg(2 * m, m, table)) for m in range(1, 501)]
    assert b[:8] == [_b(m) for m in range(1, 9)]
    assert 0 < b[0] and b == sorted(b)


def test_avg_table_small():
    report = avg_table(3)
    assert report.values == (Fraction(1, 4), Fraction(5, 12), Fraction(1, 2))
    assert report.monotone
    assert avg_table(1).values == (Fraction(1, 2),)


def test_avg_table_reports_violations_structurally():
    report = avg_table(10)
    assert report.monotone
    assert report.first_violation is None
    assert report.values[-1] == Fraction(1, 2)
    assert all(0 < v <= Fraction(1, 2) for v in report.values)


def test_check_conjecture_small():
    reports = check_conjecture(10)
    assert len(reports) == 10
    assert all(r.monotone for r in reports)


def test_conjecture_holds_to_the_cli_limit():
    # every n that `conjecture --max-n` accepts scans monotone, read from the
    # CLI's JSON: its verdict, each report's flag, and the values themselves
    out = io.StringIO()
    assert run(["conjecture", "--max-n", str(MAX_CONJECTURE_N), "--format", "json"], out=out) == 0
    doc = json.loads(out.getvalue())
    assert doc["verdict"] is True
    assert [r["n"] for r in doc["reports"]] == list(range(1, MAX_CONJECTURE_N + 1))
    assert MAX_CONJECTURE_N == 200
    for r in doc["reports"]:
        values = [Fraction(v) for v in r["values"]]
        assert r["monotone"] and values == sorted(values), r["n"]


def test_avg2_closed_form_examples():
    assert avg2_closed_form(5) == Fraction(77, 240)
    assert avg2_closed_form(4) == Fraction(17, 48)
    assert avg2_closed_form(3) == (_harmonic(3) - 1) / 2 == Fraction(5, 12)
    with pytest.raises(DomainError):
        avg2_closed_form(1)


def test_avg2_closed_form_matches_profile_path():
    for n in range(2, 101):
        assert avg2_closed_form(n) == avg(n, 2)


def test_published_even_variant_disagrees_with_enumeration():
    # the 2/n correction term printed in the source derivation gives 19/48
    # at n = 4; direct enumeration of {3+1, 2+2} gives 17/48
    published = (_harmonic(4) - 1 + Fraction(2, 4)) / (2 * 2)
    assert published == Fraction(19, 48)
    assert _avg_by_enumeration(4, 2) == Fraction(17, 48)
    assert published != _avg_by_enumeration(4, 2)


def test_avg1_le_avg2_up_to_200():
    for n in range(2, 201):
        assert Fraction(1, n + 1) <= avg2_closed_form(n)


def test_avg2_asymptotic_sanity():
    for n in (10 ** 3, 10 ** 4):
        ratio = float(avg2_closed_form(n)) * n / math.log(n)
        assert 0.8 <= ratio <= 1.2


def test_avg3_lower_bound_is_a_lower_bound():
    for n in range(4, 61):
        assert avg3_lower_bound(n) <= float(avg(n, 3)) + 1e-9
    with pytest.raises(DomainError):
        avg3_lower_bound(3)


def _avg3_exact(n):
    """Avg(n, 3) from the count of parts i over the partitions of n into 3
    parts, c_i = ⌊(n − i)/2⌋ + [2i < n] + [3i = n], and p(n, 3) = round(n²/12)."""
    d = math.lcm(*range(2, n))  # of i + 1 for the parts i <= n − 2
    total = sum(((n - i) // 2 + (2 * i < n) + (3 * i == n)) * (d // (i + 1)) for i in range(1, n - 1))
    return Fraction(total, d * 3 * round(n * n / 12))


def test_avg3_closed_counts():
    table = CountTable()
    for n in range(3, 401):
        assert _avg3_exact(n) == avg(n, 3, table)
    for n in (10 ** 3, 3 * 10 ** 3, 10 ** 4):
        assert avg3_lower_bound(n) <= float(_avg3_exact(n))


def _avg3_harmonic(n, harmonic=_harmonic):
    """Avg(n, 3) = S/(3·p(n, 3)) in H_{n−1} and H_h, h = ⌊(n − 1)/2⌋, both read from
    `harmonic`.  With j = i + 1, S = Σ_i c_i/(i + 1) splits into three sums over the
    part counts c_i:
      Σ_{j=2}^{n−1} ⌊(n + 1 − j)/2⌋/j = ((n + 1)/2)(H_{n−1} − 1) − (n − 2)/2 − D, where
        ⌊x/2⌋ = x/2 − [x odd]/2 and x = n + 1 − j is odd exactly when j ≡ n (mod 2):
        D = (1/2)·Σ 1/j over those j, which is H_h/4 for even n and, from the odd
        reciprocals Σ_{odd j <= 2h} 1/j = H_{2h} − H_h/2 less j = 1, (H_{n−1} − H_h/2 − 1)/2
        for odd n;
      Σ_{2i < n} 1/(i + 1) = H_{h+1} − 1 = H_h + 1/(h + 1) − 1;
      [3 | n]/(n/3 + 1) = [3 | n]·3/(n + 3)."""
    h = (n - 1) // 2
    H, H_h = harmonic(n - 1), harmonic(h)
    third = Fraction(3, n + 3) if n % 3 == 0 else 0
    if n % 2 == 0:
        total = Fraction(n + 1, 2) * H + Fraction(3, 4) * H_h - Fraction(2 * n + 1, 2)
    else:
        total = Fraction(n, 2) * H + Fraction(5, 4) * H_h - n
    return (total + Fraction(1, h + 1) + third) / (3 * round(n * n / 12))


def test_avg3_harmonic_closed_form():
    # ROADMAP item 7's lower end: c_i = ⌊(n − i)/2⌋ + [2i < n] + [3i = n] summed in closed form
    table = CountTable()
    for n in range(3, 401):
        assert _avg3_harmonic(n) == avg(n, 3, table), n
    for n in range(3, 13):
        assert _avg3_harmonic(n) == _avg_by_enumeration(n, 3)
    assert _avg3_harmonic(4) == Fraction(4, 9)  # ⟨2, 1, 1⟩: (1/3 + 1/2 + 1/2)/3


def test_fixed_length_columns_are_monotone_to_600():
    # ROADMAP item 13: Avg(n, ℓ) <= Avg(n, ℓ + 1) on the columns ℓ = 1..5 for every n <= 600,
    # past the n <= 200 that `conjecture` scans; one table, each cell computed once
    table = CountTable()
    for n in range(2, 601):
        column = [avg(n, l, table) for l in range(1, min(n, 6) + 1)]
        assert column == sorted(column), n


def test_avg3_ratio_diagnostics():
    # bound·n/ln(n) climbs toward 2; convergence is logarithmic, so desk
    # scale only sees the trend and a loose window
    ratios = [avg3_lower_bound(n) * n / math.log(n) for n in (10 ** 3, 10 ** 4)]
    assert ratios[0] < ratios[1] < 2.0
    assert all(r > 1.2 for r in ratios)


def test_avg3_ge_avg2_desk_scale():
    for n in range(4, 51):
        assert avg(n, 3) >= avg(n, 2)


def test_avg2_le_avg3_to_3000_by_harmonic_closed_forms():
    # ROADMAP item 7: both closed forms read one running table of H_n, so no count table
    # and no n² sum; each is pinned against avg above (n <= 100 and n <= 400)
    H = list(accumulate((Fraction(1, i) for i in range(1, 3001)), initial=Fraction(0)))
    for n in range(3, 3001):
        assert avg2_closed_form(n, H.__getitem__) <= _avg3_harmonic(n, H.__getitem__), n


def test_part_count_lower_bound_for_three_parts():
    for n in range(6, 61):
        counts = multiplicity_profile(n, 3).multiplicities
        for i in range(1, n - 1):
            assert counts[i - 1] >= (n - i) // 2


def _part_shift_sums(n_max, table):
    """S[t, n, ℓ] = Σ_λ Σ_j 1/(λ_j + t) over the partitions λ of n into ℓ parts, for
    every cell with n + (t − 1)·ℓ <= n_max.  Removing a part 1, or taking 1 from
    every part, gives S_t(n, ℓ) = S_t(n − 1, ℓ − 1) + p(n − 1, ℓ − 1)/(t + 1)
    + S_{t+1}(n − ℓ, ℓ), whose two S cells are within the same bound."""
    sums = {}
    for n in range(1, n_max + 1):
        for l in range(1, n + 1):
            for t in range(1, (n_max - n) // l + 2):
                sums[t, n, l] = (sums.get((t, n - 1, l - 1), 0)
                                 + Fraction(table.count(n - 1, l - 1), t + 1)
                                 + sums.get((t + 1, n - l, l), 0))
    return sums


def test_strengthened_conjecture_to_60():
    # A_t(n, ℓ) = S_t(n, ℓ)/(ℓ·p(n, ℓ)) is the mean of 1/(λ_j + t) over all parts,
    # A_1 = Avg; A_t(n, ℓ) <= A_t(n, ℓ + 1) holds for every t at every pair of cells
    table = CountTable()
    sums = _part_shift_sums(60, table)
    mean = {(t, n, l): s / (l * table.count(n, l)) for (t, n, l), s in sums.items()}
    for n in range(1, 61):
        assert tuple(mean[1, n, l] for l in range(1, n + 1)) == avg_table(n, table).values
    for (t, n, l), s in sums.items():
        if n <= 12:
            parts = [(i, m) for p in iter_partitions(n, l) for i, m in enumerate(p.multiplicities, 1)]
            assert s == sum(Fraction(m, i + t) for i, m in parts)
    pairs = [(t, n, l) for t, n, l in mean if (t, n, l + 1) in mean]
    assert all(mean[t, n, l] <= mean[t, n, l + 1] for t, n, l in pairs)
    assert len(pairs) == 5191
