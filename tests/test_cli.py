import ast
import contextlib
import csv
import functools
import hashlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

import partpoly.cli
import partpoly.search
from partpoly import (
    AvgReport,
    CollisionReport,
    DomainError,
    Partition,
    approximate,
    collision_search,
    count_partitions,
    format_rational,
    iter_partitions,
    nth_prime,
    poly_of,
)
from partpoly.cli import (
    COMMANDS,
    MAX_AVG_TABLE_N,
    MAX_COLLIDE_STEPS,
    MAX_CONJECTURE_N,
    MAX_COUNT_STEPS,
    MAX_DECIMAL_DIGITS,
    MAX_DERIVATIVE_STEPS,
    MAX_DERIVED_SEQ_DIGITS,
    MAX_LARGEST_PART,
    MAX_TABLE_CELLS,
    MAX_VALUE_BITS,
    PARTITION,
    build_parser,
    run,
)
from partpoly.density import alpha_integral, plan
from partpoly.exact import MAX_POWER_BITS
from oracles import deriv_recursive_eval, partitions_of


def _from_json(doc):
    """The Partition a CLI's JSON output names, {"multiplicities": [...]}."""
    return Partition(int(m) for m in doc["multiplicities"])


def _run(argv):
    out = io.StringIO()
    status = run(argv, out=out)
    return status, out.getvalue()


def _python_env():
    """The environment of a fresh interpreter on this checkout's package."""
    src = Path(__file__).resolve().parents[1] / "src"
    return dict(os.environ, PYTHONPATH=str(src), COLUMNS="80")  # argparse wraps help to it


def _python(*args, text=True):
    """Run a fresh interpreter on this checkout's package."""
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=text, env=_python_env(), timeout=60
    )


def _modules_loaded(statement, names):
    """Which of `names` are in sys.modules after running `statement` in a
    fresh interpreter."""
    proc = _python("-c", f"import sys\n{statement}\nprint(sorted(set({names!r}) & set(sys.modules)))")
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


# SHA-256 of stdout in table, CSV and JSON, pinned from the CLI as it was
# before its subcommands moved into one table; covers every subcommand and
# the three trailer lines (verdict, achieved_error, no collisions).
GOLDEN_STDOUT = {
    "stats --parts 5,2,2,1": (
        "e8ed21fe04a2505a510fd1234facb7e9d64724453ef5ac978388dc5e57df1120",
        "54f67efec265441042a83d087640d5a726e4bcf0170c5377f3d923eff4422b31",
        "3192c6396ee1fb6cea27556ad7c652dac1e2eafc9acfe8611a99ebb5d5687fa7",
    ),
    "poly --parts 3,1,1": (
        "68d555f327937747055e5814b17dedabf8a3d96191f0037cc94ef3f43d2c366d",
        "262ec476853a802964583df0dff3b434e8fbf7d83879c83216d7053d162ab955",
        "936d8ede0ed19b0a164e49998e6ca57b214b0d5a3363a3a1f3d4e8f0e38ed2e2",
    ),
    "derivatives --parts 5,2,2,1": (
        "48a20b6da3447d3e9785ebdae6208f2f84dce19f300e98bb2824ac2d03da77d9",
        "3d576dead424359b46d3f6de156c704f6a0de9480c50438cce87e8b98d8a0bb1",
        "4c19ee8e4d982b26bc0bd04b7118b7f28cc5011b867c1db97c680ffcd75f88e5",
    ),
    "derivatives --parts 3,2 --at=-2/3 --decimal-digits 3": (
        "c1559cf6fae21843587ddcc2d08887ec3a19e5c99548037eb31c607a3bac00f3",
        "2786da2cd1959a98de05ce1d2b4bd7ee68e02a29c373e8d52391e9dc193c60ed",
        "79f7f4284e00e510c228b1df88b0614b75b9b619369ff46edd1a2d9dc234b3c7",
    ),
    "derived-seq --parts 4,2,1": (
        "c312c13b81d22080117b814c47782096ffef3477a80d4f7db10d1bf9a6d97111",
        "4916346dcc9aa91a108a1fc27d0424fbd17674488ef78b710974c35e6c9648b3",
        "1e403bf7e70da33c562520f2494dbf73dc1c2ab6ebfaf080de8d5e42ac7505e6",
    ),
    "integral --mults 1,2,0,0,1": (
        "8ebcd2b892dec17d38137bdc2b804ed7263d46de322124f4ce25f5e4d160cc4b",
        "2ab8c3c3e9c8f385fc3b97ef94dc1eb2b732d5acff8736418952cbc402ade08f",
        "cdfd66047f36de6bdfd2b5b2a446986fbd461a376810673a59a1dc4c41ef325e",
    ),
    "avg --n 5 --length 2": (
        "2a5e5e5d749562ecccccae21acff092d555fe52aafc290e72d4b8e2523ec0ee6",
        "37ffba178915386c64ed4f10cd553a6d1a9465a1edd669cf7867a408f2c9385e",
        "1a10596935c0eb34878b7074e2f4905af92e51de509ec1981286ddb00be551d8",
    ),
    "avg-table --n 6": (
        "87d793a34b9df2e1ef1f7115617816bfd15ad22142258dba23fa3e05eb096cdc",
        "dbf5104d44974f013a29c674d27966a30e2f99f187217fd404cf3ed349486c59",
        "0f96cd3622dc6155d94b6f969ae976f1fb7a4e8593e0ace73dd2698ad5690bed",
    ),
    "conjecture --max-n 6": (
        "6a3eb8fc27bd7b4019d7a0f92a6c6fd4c2be72bf14d132cf41b24b7defddb806",
        "7e77c039a98535d8e2c5b6479704bdc8e460e97849163faf7879a919ba64a36b",
        "2e507dc1df62486bba7a1101405b615658752b568bc140f47909672d34a28dc8",
    ),
    "density --target 1/3 --epsilon 1/1000 --full-partition": (
        "eed124163e395e73a6a5bb8d920c3060a66170b549782c5ef0818bec394ec352",
        "7f843cc7fddd2c2e081a39341d91f3c086fc76067ae08698461daee2a06a6461",
        "f6d64160172419eea10976813c51437604279dcbc578b44565c13fc9c44fcb77",
    ),
    "density --target 5/12 --epsilon 1/10^6": (
        "5879fb6347784c07a8f0f2f92c741473466c00ec3e0d50c8ae1afbcc7a3f562e",
        "afc96e4c71a418c4480cba8f14a5617906decf7d764182588a1d42ec7ecbd588",
        "e6749b8394c05287aac0751e6e73533469248ca87cf941dfa6296f9daacccdc2",
    ),
    "collide --n 12 --length 3 --order 2": (
        "b3a55f566babc0e54f7d665c08792ce75cafafbd27e144d913e64d04c7119ee2",
        "42ce7d36c55f5404fa8eb7a1658b415bd8bd10551142b910e1b2442bae1bdf66",
        "5d5794924ad760118a29c33b6540dea4cc110d32033a2e9473a5ca5355cad7ff",
    ),
    "collide --n 5 --length 2 --order 2": (
        "f374db6f1e28ca1d13091ba65bd173d15e25bce77640185780004a8fe39d1afe",
        "f374db6f1e28ca1d13091ba65bd173d15e25bce77640185780004a8fe39d1afe",
        "ebb00bcfbb11ee34f43c6eca42ccd2e3cfe43f678f2019cbfcd066f7d1fe6e69",
    ),
    "count --n 10": (
        "0268ef3422974ac4e0dcbe7a8547bcece8929b7ca86c9bbe2dce1a329c9511bf",
        "0e60370c01ce936718c623046639bae401a6d94a358cfee3cb86928a01d4a02a",
        "904905c36f06e56e8b5108d0ebd4061cdb5566b2774ab19e84c498fd02eab8e3",
    ),
    "count --n 5 --length 0": (
        "affb01febced95034619cc273e3bfeb0fbf1a8ac3e85b0b1ce9995b1ec79871f",
        "559d374684f9e60e6154ea0ee0934846f29e6c6db51657e09bcbd2becfbd0f50",
        "c22fbfb22f0352f3d998b6739926bc8ac9f886a504500170ceb3f2474e4cd75b",
    ),
    # The empty partition, whose polynomial is the zero tuple (), not (0,):
    # `poly` prints no row and an empty coefficient list.  Pinned later, from
    # the CLI as it was when polynomials were objects with a trimmed tuple.
    "poly --mults 0": (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "43d6029ac617d4f8ee193b481177e1049b567941ee3b9b915340bc55aa3647e6",
    ),
    "derivatives --mults 0": (
        "0bb0400a3b28ce9508a0aef9fc5814f4c0e9e5f937cd2017d756fa3bf2693431",
        "5dae5ca03caa33f1501f6b3a9980d7dc2e709f8ca8d803a0c62f5cbe392e0d44",
        "ad218caf0c174159e14cdd5a748e065a9fab8c6aea66f95a4c9c8c5406e5d56e",
    ),
    "derived-seq --mults 0": (
        "256f5368eaa62921f17c86938d8207da6946f613f15680cd1e4f45d8b1f9a7ba",
        "7992adba6ecdecd686ddf4be7740c1965e56538739cadcf65d8a6f9b6027cffe",
        "c570582cdbe97e5973dfcfa22904fc63642d707d6acca68abe08ec36c372e357",
    ),
}


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
@pytest.mark.parametrize("command", list(GOLDEN_STDOUT))
def test_golden_stdout(command, fmt):
    status, text = _run(command.split() + ["--format", fmt])
    assert status == 0
    expected = GOLDEN_STDOUT[command][["table", "csv", "json"].index(fmt)]
    assert hashlib.sha256(text.encode()).hexdigest() == expected


def test_stats_table():
    status, text = _run(["stats", "--parts", "5,2,2,1"])
    assert status == 0
    assert "supernorm" in text and "198" in text


def test_derivatives_profile():
    status, text = _run(["derivatives", "--parts", "5,2,2,1"])
    assert status == 0
    values = [line.split()[1] for line in text.splitlines()[1:]]
    assert values == ["4", "10", "24", "60", "120", "120"]


def test_derivatives_at_point_and_order():
    status, text = _run(
        ["derivatives", "--mults", "1,1,1,1", "--at", "1/2", "--order", "0", "--format", "json"]
    )
    assert status == 0
    doc = json.loads(text)
    assert doc["values"] == [
        {"order": 0, "value": "15/16", "decimal": "0.937500000000"}
    ]


def test_derivatives_at_zero_uses_formal_path():
    status, text = _run(
        ["derivatives", "--parts", "2,1", "--at", "0", "--format", "json"]
    )
    assert status == 0
    doc = json.loads(text)
    assert [v["value"] for v in doc["values"]] == ["0", "1", "2"]


def test_negative_fraction_at_needs_an_equals_sign(capsys):
    # argparse reads a lone -7/3 as a flag (a usage error); --at=-7/3 is the point
    sympy = pytest.importorskip("sympy")
    status, text = _run(["derivatives", "--parts", "5,2,2,1", "--at=-7/3", "--format", "json"])
    assert status == 0
    t = sympy.Symbol("t")
    f = t ** 5 + 2 * t ** 2 + t
    expected = [str(sympy.diff(f, t, d).subs(t, sympy.Rational(-7, 3))) for d in range(6)]
    assert [v["value"] for v in json.loads(text)["values"]] == expected
    with pytest.raises(SystemExit) as exc:
        _run(["derivatives", "--parts", "5,2,2,1", "--at", "-7/3"])
    assert exc.value.code == 2
    assert "--at: expected one argument" in capsys.readouterr().err


def test_derivatives_huge_order_is_fast():
    start = time.perf_counter()
    status, text = _run(["derivatives", "--parts", "2,1", "--at", "0", "--order", "100000000"])
    assert status == 0
    assert text.splitlines()[1].split()[:2] == ["100000000", "0"]
    assert time.perf_counter() - start < 1


def test_derivatives_all_orders_at_150_is_fast():
    # k = 150 at x = 1/2: one formal derivative per order, not a recursion
    # rerun from scratch for each order
    start = time.perf_counter()
    status, text = _run(["derivatives", "--mults", ",".join(["1"] * 150), "--at", "1/2", "--format", "json"])
    assert status == 0
    assert time.perf_counter() - start < 5
    values = json.loads(text)["values"]
    assert [v["order"] for v in values] == list(range(151))
    assert values[-1]["value"] == str(math.factorial(150))


def test_integral_json():
    status, text = _run(["integral", "--parts", "5,2,2,1", "--format", "json"])
    assert status == 0
    doc = json.loads(text)
    assert doc["integral"] == "1/3"
    assert _from_json(doc["partition"]) == Partition.from_parts([5, 2, 2, 1])


def test_mults_and_parts_agree():
    _, from_parts = _run(["integral", "--parts", "5,2,2,1", "--format", "json"])
    _, from_mults = _run(["integral", "--mults", "1,2,0,0,1", "--format", "json"])
    assert from_parts == from_mults


def test_partition_json_round_trip():
    _, text = _run(["stats", "--parts", "4,3,3,3,1", "--format", "json"])
    doc = json.loads(text)
    assert _from_json(doc["partition"]) == Partition.from_parts([4, 3, 3, 3, 1])


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=8).filter(any),
    st.sampled_from(["stats", "integral", "derivatives"]),
    st.fractions(min_value=-3, max_value=3, max_denominator=5),
)
def test_formats_carry_identical_cells(mults, command, at):
    argv = [command, "--mults", ",".join(map(str, mults))]
    if command == "derivatives":
        argv.append(f"--at={format_rational(at)}")
    texts = {}
    for fmt in ("table", "csv", "json"):
        status, texts[fmt] = _run(argv + ["--format", fmt])
        assert status == 0
    table = [line.split() for line in texts["table"].splitlines()]
    assert list(csv.reader(io.StringIO(texts["csv"]))) == table
    doc = json.loads(texts["json"])
    rows = doc["values"] if command == "derivatives" else [doc]
    cells = [
        [str(_from_json(r[k])) if k == "partition" else str(r[k]) for k in table[0]]
        for r in rows
    ]
    assert cells == table[1:]


def test_csv_and_json_carry_identical_exact_values():
    _, csv_text = _run(["avg-table", "--n", "6", "--format", "csv"])
    _, json_text = _run(["avg-table", "--n", "6", "--format", "json"])
    rows = list(csv.DictReader(io.StringIO(csv_text)))
    doc = json.loads(json_text)
    assert [r["avg_exact"] for r in rows] == [v["avg_exact"] for v in doc["values"]]
    assert [r["p_n_l"] for r in rows] == [v["p_n_l"] for v in doc["values"]]


def test_csv_output_streams_its_rows():
    # CSV needs no column widths, so each line goes out as its cells are built:
    # 200,000 rows peak at about 44 MiB traced (Python 3.11), against 82 MiB
    # when every cell string was held until the first line was written
    tracemalloc.start()
    try:
        with open(os.devnull, "w") as sink:
            status = run(["poly", "--parts", "200000", "--format", "csv"], out=sink)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert status == 0
    assert peak < 60 << 20, peak


def test_avg_subcommand():
    _, text = _run(["avg", "--n", "5", "--length", "2", "--format", "json"])
    assert json.loads(text)["avg_exact"] == "77/240"


def test_conjecture_verdict(capsys):
    status, text = _run(["conjecture", "--max-n", "1"])
    assert status == 0
    assert "monotone" in text
    err = capsys.readouterr().err
    assert "n=1/1" in err  # progress goes to the error stream


def test_conjecture_json():
    _, text = _run(["conjecture", "--max-n", "5", "--format", "json"])
    doc = json.loads(text)
    assert doc["verdict"] is True
    assert len(doc["reports"]) == 5
    assert doc["reports"][2]["values"] == ["1/4", "5/12", "1/2"]


def test_density_json_trace():
    _, text = _run(
        [
            "density",
            "--target",
            "1/3",
            "--epsilon",
            "1/1000000",
            "--format",
            "json",
            "--full-partition",
        ]
    )
    doc = json.loads(text)
    assert doc["target"] == "1/3"
    for step in doc["steps"]:
        assert set(step["partition"]) == {"largest_part", "length_log2", "support_size"}
    result = _from_json(doc["result_partition"])
    from fractions import Fraction

    from partpoly import integral

    err = abs(integral(result) - Fraction(1, 3))
    assert err < Fraction(1, 10 ** 6)
    assert str(err.numerator) + "/" + str(err.denominator) == doc["achieved_error"]


def test_collide_json():
    _, text = _run(["collide", "--n", "12", "--length", "3", "--order", "2", "--format", "json"])
    doc = json.loads(text)
    groups = [{_from_json(p) for p in g} for g in doc["groups"]]
    assert {Partition.from_parts([6, 5, 1]), Partition.from_parts([7, 3, 2])} in groups


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
@pytest.mark.parametrize("argv, printed", [
    ("collide --n 12 --length 3 --order 2", 4),
    ("stats --parts 5,2,2,1", 1),
    ("integral --parts 5,2,2,1", 1),
    ("derivatives --parts 5,2,2,1", 1),
    ("derived-seq --mults 1,0,3,1", 6),  # the input, then λ^(0..4)
    ("density --target 1/3 --epsilon 1/1000 --full-partition", 1),
])
def test_only_json_output_builds_a_partitions_json_form(argv, printed, fmt, monkeypatch):
    seen = []
    real = partpoly.cli._partition_json
    monkeypatch.setattr(partpoly.cli, "_partition_json", lambda p: seen.append(p) or real(p))
    status, text = _run(argv.split() + ["--format", fmt])
    assert status == 0
    if fmt == "json":
        assert len(seen) == printed == text.count('"multiplicities"')
        assert all(type(p) is Partition for p in seen)
    else:
        assert seen == []


def test_count_subcommand():
    _, text = _run(["count", "--n", "10", "--format", "json"])
    assert json.loads(text)["count"] == "42"
    _, text = _run(["count", "--n", "5", "--length", "2", "--format", "json"])
    assert json.loads(text)["count"] == "2"


@pytest.mark.parametrize("n", [0, 1, 50, 100, 101, 150])
def test_count_agrees_on_both_sides_of_the_table_cutoff(n):
    for length in (None, -1, 0, 1, n // 3, n, n + 1):
        argv = ["count", "--n", str(n)] + ([] if length is None else ["--length", str(length)])
        _, text = _run(argv)
        assert text.split()[-1] == str(count_partitions(n, length))


def test_count_large_n_is_fast():
    start = time.perf_counter()
    status, text = _run(["count", "--n", "10000", "--format", "json"])
    assert status == 0
    assert time.perf_counter() - start < 5
    assert len(json.loads(text)["count"]) == 107  # p(10^4) ≈ 3.6·10^106


# 10^4300 − 1, the largest integer Python prints by default
NINES = "9" * MAX_DECIMAL_DIGITS
NEGATIVE_ORDER = "error: derivative order must be nonnegative\n"
BAD_ORDER = "error: need order >= 1\n"


def _full_partition_at(s):
    """`density --full-partition` in JSON at the target α(s − 1): the first
    edge index past it is s."""
    target = format_rational(alpha_integral(s - 1))
    return ["density", "--target", target, "--epsilon", "1/1000", "--full-partition", "--format", "json"]


# Every CLI refusal, and for each size limit a call admitted within 1% of it:
# (argv, expected, real).  expected is the limit the one `error:` line names,
# the exact stderr, or None for a call that exits 0.  A row runs with the
# engines stubbed, unless real: its refusal follows the work, is
# collision_search's own, or must come before work that would take over 1 s;
# or collision_search answers it at once.
# REFUSALS opens with the limits on a partition's work, print size and
# estimates, which test_oversized_partition_work_exits_1 runs; test_refusal
# runs the other rows.
PARTITION_WORK = [
    (["integral", "--parts", "1000000"], None, False),
    (["integral", "--parts", "2,1000001"], MAX_LARGEST_PART, False),
    (["poly", "--parts", "20000000", "--format", "json"], MAX_LARGEST_PART, False),
    (["derivatives", "--parts", "1558,1"], None, False),
    (["derivatives", "--parts", "1559"], MAX_DECIMAL_DIGITS, False),
    (["derivatives", "--parts", "1559", "--order", "3"], None, False),
    (["derived-seq", "--parts", "1558"], None, False),
    (["derived-seq", "--mults", ",".join(["0"] * 1558 + ["1"])], MAX_DECIMAL_DIGITS, False),
    (["stats", "--mults", str(MAX_VALUE_BITS)], None, False),
    (["stats", "--mults", str(MAX_VALUE_BITS + 1)], MAX_VALUE_BITS, False),
    (["stats", "--mults", "0,0,0,0,0,0,0,0,0,30000000"], MAX_VALUE_BITS, False),
    (["derivatives", "--parts", "20000", "--order", "500"], None, False),  # d·k = 10^7
    (["derivatives", "--parts", "20000", "--order", "501"], MAX_DERIVATIVE_STEPS, False),
    (["derivatives", "--parts", "1000000", "--order", "500000", "--at", "0"], MAX_DERIVATIVE_STEPS,
     False),
    # K·⌊log2 max(|p|, q)⌋ for the degree K evaluated at p/q
    (["derivatives", "--parts", "1,14284", "--order", "0", "--at", "1/2"], None, False),
    (["derivatives", "--parts", "1,14285", "--order", "0", "--at", "1/2"], MAX_VALUE_BITS, False),
    (["derivatives", "--parts", "14385", "--order", "100", "--at=-3/2"], MAX_VALUE_BITS, False),
    (["derivatives", "--parts", "1558", "--at", "1/2^9"], None, False),  # 1558·9 = 14,022
    (["derivatives", "--parts", "1,64000", "--order", "0", "--at", "1/3"], MAX_VALUE_BITS, False),
    (["derivatives", "--parts", "100", "--at", "1/10^1000"], MAX_VALUE_BITS, False),
    (["derivatives", "--parts", "300", "--at", "1/10^3000"], MAX_VALUE_BITS, False),
    (["derivatives", "--parts", "300", "--order", "301", "--at", "1/10^3000"], None, False),
    # the floor reads 3^K as 2^K, so max(|p|, q)^K is also checked for digits
    (["derivatives", "--parts", "1,9013", "--order", "0", "--at", "1/3"], MAX_VALUE_BITS, False),
    (["derivatives", "--parts", "1,14284", "--order", "0", "--at", "1/3"], MAX_VALUE_BITS, False),
    # all orders print every i!·m_i: 1400!·10^2000 and 1000!·10^2000 pass 10^4300
    (["derivatives", "--mults", ",".join(["0"] * 1399 + [str(10 ** 2000)])], MAX_DECIMAL_DIGITS,
     False),
    (["derived-seq", "--mults", ",".join(["0"] * 1399 + [str(10 ** 2000)])], MAX_DECIMAL_DIGITS,
     False),
    (["derivatives", "--mults", ",".join(["0"] * 999 + [str(10 ** 2000)] + ["0"] * 399 + ["1"])],
     MAX_DECIMAL_DIGITS, False),
    # a zero m_i counts as 1, so the check ends by i = 1559 under any largest part
    (["derived-seq", "--parts", "1,1000000"], MAX_DECIMAL_DIGITS, False),
    # an estimate past the print limit is shown as a power of 2
    (["count", "--n", NINES], MAX_COUNT_STEPS, False),
    (["avg", "--n", NINES, "--length", "2"], MAX_TABLE_CELLS, False),
    (["collide", "--n", NINES, "--length", "2", "--order", "1"], MAX_COLLIDE_STEPS, False),
    (["stats", "--mults", "1," + NINES], MAX_VALUE_BITS, False),
    # the value 0 prints, but --at itself is printed back (see --at 1/10^3000 above)
    (["derivatives", "--parts", "300", "--order", "301", "--at", "1/10^5000"], MAX_DECIMAL_DIGITS,
     False),
    (["derivatives", "--parts", "300", "--order", "301", "--at", "1e-5000"], MAX_DECIMAL_DIGITS,
     False),
    # an exponent is capped as 10^|e| is, before Fraction builds the power
    (["derivatives", "--parts", "3", "--at", "1e-9999999"], MAX_POWER_BITS, False),
    # the supernorm is checked for digits once built: 5^6151 has 4,300, 5^6152 4,301
    (["stats", "--mults", "0,0,6151"], None, False),
    (["stats", "--mults", "0,0,6152"], MAX_DECIMAL_DIGITS, False),
    (["stats", "--mults", "0,0,6152", "--format", "json"], MAX_DECIMAL_DIGITS, False),
    (["stats", "--mults", "0,0,7142"], MAX_DECIMAL_DIGITS, False),
    (["stats", "--mults", "0,0,7142", "--format", "json"], MAX_DECIMAL_DIGITS, False),
    # derived-seq prints each m_i ≠ 0 i times, at most i!·m_i: k ones print about k³ digits
    (["derived-seq", "--mults", ",".join(["1"] * 253)], None, False),  # 9,979,190 digits
    (["derived-seq", "--mults", ",".join(["1"] * 254)], MAX_DERIVED_SEQ_DIGITS, False),
    (["derived-seq", "--mults", ",".join(["1"] * 800), "--format", "json"], MAX_DERIVED_SEQ_DIGITS,
     False),
]
REFUSALS = [
    *PARTITION_WORK,
    (["count", "--n", "100000"], MAX_COUNT_STEPS, False),
    (["count", "--n", "10000000", "--length", "1000"], MAX_COUNT_STEPS, False),
    (["count", "--n", "200000", "--length", "100000"], MAX_COUNT_STEPS, False),
    (["count", "--n", "11000", "--length", "1000"], None, False),  # (n − ℓ)·ℓ = 10^7
    # avg --n 3160 would fill 4,997,541 cells, the largest triangle allowed
    (["avg", "--n", "3160", "--length", "5"], None, False),
    (["avg", "--n", "3161", "--length", "5"], MAX_TABLE_CELLS, False),
    (["avg", "--n", "10000000000", "--length", "5"], MAX_TABLE_CELLS, False),
    (["avg-table", "--n", str(MAX_AVG_TABLE_N)], None, False),
    (["avg-table", "--n", str(MAX_AVG_TABLE_N + 1)], MAX_AVG_TABLE_N, False),
    (["avg-table", "--n", "10000000000"], MAX_AVG_TABLE_N, False),
    (["conjecture", "--max-n", str(MAX_CONJECTURE_N)], None, False),
    (["conjecture", "--max-n", str(MAX_CONJECTURE_N + 1)], MAX_CONJECTURE_N, False),
    (["conjecture", "--max-n", "10000000000"], MAX_CONJECTURE_N, False),
    (["stats", "--mults", ",".join(["1"] * 60000)], MAX_VALUE_BITS, False),  # reads 60,000 primes
    # refused before the value estimate, whose degree k − d grows as d goes negative
    (["derivatives", "--parts", "5", "--order", "-1", "--at", "1"], NEGATIVE_ORDER, False),
    (["derivatives", "--parts", "5", "--order", "-1", "--at", "1/3"], NEGATIVE_ORDER, False),
    (["derivatives", "--parts", "5", "--order", "-100000", "--at", "1"], NEGATIVE_ORDER, False),
    (["derivatives", "--parts", "5", "--order", "-100000", "--at", "1/3"], NEGATIVE_ORDER, False),
    (["derived-seq", "--mults", ",".join(["1"] * 800)], MAX_DERIVED_SEQ_DIGITS, False),
    # the values are checked once computed
    (["integral", "--mults", ",".join(["1"] * 10000)], MAX_DECIMAL_DIGITS, True),  # (H_10001 − 1)/10000
    (["derivatives", "--order", "1", "--mults", "1," + NINES], MAX_DECIMAL_DIGITS, True),  # 1 + 2·m_2
    (["derivatives", "--order", "0", "--at", "1/2", "--mults", f"{NINES},{NINES}"], MAX_DECIMAL_DIGITS,
     True),
    # each i!·m_i prints, but f(1) = m_1 + m_2 and λ^(0)'s length do not
    (["derivatives", "--mults", f"{NINES},{10 ** 4299}"], MAX_DECIMAL_DIGITS, True),
    (["derived-seq", "--mults", f"{NINES},{10 ** 4299}"], MAX_DECIMAL_DIGITS, True),
    # density prints epsilon back, so one that could not print is refused as it
    # is parsed, before the steps (the last two stop at step 1)
    (["density", "--target", "1/3", "--epsilon", "1/10^5000"], MAX_DECIMAL_DIGITS, False),
    (["density", "--target", "1/3", "--epsilon", "1/10^30000"], MAX_DECIMAL_DIGITS, False),
    (["density", "--target", "1/3", "--epsilon", "2^20000/3^9100"], MAX_DECIMAL_DIGITS, False),
    (["density", "--target", "1/3", "--epsilon", "1e5000"], MAX_DECIMAL_DIGITS, False),
    # the bound 3/(20·2^r) prints, but achieved_error carries the target's
    # 4,201-digit denominator too, and the steps ran 5.3 s before the print
    (["density", "--target", format_rational(Fraction(1, 3) + Fraction(1, 10 ** 4200)),
      "--epsilon", f"1/{10 ** 4000}"], "error: the last error's denominator would pass 4300 digits\n",
     False),
    (["density", "--target", "1/3", "--epsilon", "1/10^999999999"], MAX_POWER_BITS, False),
    (_full_partition_at(MAX_LARGEST_PART), None, False),
    (_full_partition_at(MAX_LARGEST_PART + 1), MAX_LARGEST_PART, False),
    (["density", "--target", "1e-9", "--epsilon", "1/10^12", "--full-partition", "--format", "json"],
     MAX_LARGEST_PART, False),
    # unstubbed: its 13,287 steps would take about 1.8 s, so the refusal must come first
    (["density", "--target", "1e-9", "--epsilon", "1/10^4000", "--full-partition", "--format", "json"],
     MAX_LARGEST_PART, True),
    (["collide", "--n", "60", "--length", "5", "--order", "3"], None, False),  # 1,178,240 steps
    (["collide", "--n", "200", "--length", "10", "--order", "2"], MAX_COLLIDE_STEPS, False),
    (["collide", "--n", "10000000000", "--length", "5", "--order", "2"], MAX_COLLIDE_STEPS, False),
    # counting these p(n, ℓ) would take 2.5·10^11 steps: the parts <= 2 bound refuses first
    (["collide", "--n", "1000000", "--length", "499999", "--order", "2"], MAX_COLLIDE_STEPS, False),
    # p(n, 2) = ⌊n/2⌋ is the parts <= 2 bound: ⌊n/2⌋·2(n − 1) steps at d = 1 for both checks
    (["collide", "--n", "1415", "--length", "2", "--order", "1"], None, False),  # 1,999,396
    (["collide", "--n", "1416", "--length", "2", "--order", "1"], MAX_COLLIDE_STEPS, False),
    # at d >= ℓ no two partitions share f^(0..d)(1) (Newton's identities), so no step is
    # estimated or taken, whatever n
    (["collide", "--n", "4473", "--length", "1", "--order", "1"], None, True),
    (["collide", "--n", "1413", "--length", "1", "--order", "1413"], None, True),
    (["collide", "--n", "1414", "--length", "1", "--order", "1414"], None, True),
    (["collide", "--n", "1414", "--length", "1", "--order", "5000"], None, True),
    (["collide", "--n", "1000000", "--length", "1", "--order", "1"], None, True),
    (["collide", "--n", "1000001", "--length", "1", "--order", "1"], None, True),
    (["collide", "--n", "159", "--length", "2", "--order", "159"], None, True),
    (["collide", "--n", "160", "--length", "2", "--order", "160"], None, True),
    # d <= −1 made the estimates' factor (min(d, k) + 1)·k <= 0, so p(400000,
    # 200000) was counted (11 s) before collision_search refused
    (["collide", "--n", "400000", "--length", "200000", "--order", "0"], BAD_ORDER, True),
    (["collide", "--n", "400000", "--length", "200000", "--order", "-1"], BAD_ORDER, True),
    (["collide", "--n", "400000", "--length", "200000", "--order", "-7"], BAD_ORDER, True),
]


def _row_id(argv):
    """A row's argv as its test id: a run of k equal list items shows as
    item*k, and an item of over 24 characters as its first one and length."""
    shown = []
    for token in argv:
        runs = [(x if len(x) <= 24 else f"{x[0]}<{len(x)}>", len(list(run)))
                for x, run in itertools.groupby(token.split(","))]
        shown.append(",".join(x if k == 1 else f"{x}*{k}" for x, k in runs))
    return " ".join(shown)


CHECKS = ("_refuse_over", "_refuse_unprintable", "_refuse_all_orders")


@functools.cache
def _refusal_sites():
    """(helper, first line, last line) of each refusal call in cli.py."""
    tree = ast.parse(Path(partpoly.cli.__file__).read_text(encoding="utf-8"))
    return frozenset(
        (node.func.id, node.lineno, node.end_lineno)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) in CHECKS
    )


# What each stubbed engine returns, harmless and of the type the CLI expects
STAND_INS = {
    "avg": lambda n, length, table: Fraction(1, 2),
    "avg_table": lambda n, table: AvgReport(n, (), True, None),
    "check_conjecture": lambda n_max, progress: [],
    "CountTable": lambda: SimpleNamespace(count=lambda n, length=None: 0),
    "collision_search": lambda n, length, order: CollisionReport(n, length, order, (), ()),
    "integral": lambda p: Fraction(1, 2),
    "derivative_values": lambda p, x: [Fraction(0)],
    "diff": lambda coeffs, order: (),
    "derived_partition": lambda p, order: Partition(),
    "poly_of": poly_of,  # real but recorded
    "approximate": lambda c, epsilon: approximate(Fraction(1, 3), 1),  # one step at s = 4
}


@functools.cache  # the site test reads the runs that the row tests made
def _refusal_run(i):
    """Run row i of REFUSALS: (status, stdout, stderr, seconds, engines,
    checks).  engines names each engine called, and checks holds (site,
    value, limit, refused) for each refusal call, value and limit for
    `_refuse_over` only."""
    argv, _, real = REFUSALS[i]
    sites, engines, checks = _refusal_sites(), [], []

    def spy(name, helper):
        def check(*args):
            line = sys._getframe(1).f_lineno
            site = next(s for s in sites if s[0] == name and s[1] <= line <= s[2])
            sizes = args[:2] if name == "_refuse_over" else (None, None)
            try:
                result = helper(*args)
            except DomainError:
                checks.append((site, *sizes, True))
                raise
            checks.append((site, *sizes, False))
            return result

        return check

    def record(name, stand_in):
        def engine(*args, **kwargs):
            engines.append(name)
            return stand_in(*args, **kwargs)

        return engine

    def count(n, length=None):
        # real up to collide's limit, as collide's own check counts: m·min(m, ℓ)
        # bounds both routes, (n − ℓ)·ℓ steps or m^1.5 for p(m)
        m = n - (length or 0)
        if m * min(m, length or m) <= MAX_COLLIDE_STEPS:
            return count_partitions(n, length)
        engines.append("count_partitions")
        return 0

    def bounded(name, method):
        # recorded, and real only while stats' bit estimate admits the
        # supernorm, as the norm is at most the supernorm
        def product(p):
            engines.append(name)
            mults = enumerate(p.multiplicities, 1)
            bits = sum(m * (nth_prime(i).bit_length() - 1) for i, m in mults if m)
            return method(p) if bits <= MAX_VALUE_BITS else 1

        return product

    err = io.StringIO()
    with pytest.MonkeyPatch.context() as patch, contextlib.redirect_stderr(err):
        for name in CHECKS:
            patch.setattr(partpoly.cli, name, spy(name, getattr(partpoly.cli, name)))
        if not real:
            for name, stand_in in STAND_INS.items():
                patch.setattr(partpoly.cli, name, record(name, stand_in))
            patch.setattr(partpoly.cli, "count_partitions", count)
            for name in ("norm", "supernorm"):
                patch.setattr(Partition, name, bounded(name, getattr(Partition, name)))
        start = time.perf_counter()
        status, text = _run(argv)
        seconds = time.perf_counter() - start
    return status, text, err.getvalue(), seconds, tuple(engines), tuple(checks)


def _check_refusal(i):
    """Check row i of REFUSALS.  A size limit's row is refused by one
    `_refuse_over` call with that limit before any engine runs; a print
    limit's by none."""
    argv, expected, _ = REFUSALS[i]
    status, text, err, seconds, engines, checks = _refusal_run(i)
    assert seconds < 1
    if expected is None:
        assert status == 0 and err == ""
        assert argv[0] != "collide" or text == "no collisions\n"
        return
    assert status == 1 and text == ""
    assert err.startswith("error:") and err.count("\n") == 1
    if isinstance(expected, str):
        assert err == expected
        return
    assert str(expected) in err
    over = [limit for site, _, limit, refused in checks if refused and site[0] == "_refuse_over"]
    if expected in (MAX_DECIMAL_DIGITS, MAX_POWER_BITS):
        assert over == []
    else:
        assert over == [expected] and engines == ()


@pytest.mark.parametrize("i", range(len(PARTITION_WORK)),
                         ids=[f"argv{i}-{row[1]}" for i, row in enumerate(PARTITION_WORK)])
def test_oversized_partition_work_exits_1(i):
    _check_refusal(i)


@pytest.mark.parametrize("i", range(len(PARTITION_WORK), len(REFUSALS)),
                         ids=[_row_id(row[0]) for row in REFUSALS[len(PARTITION_WORK):]])
def test_refusal(i):
    _check_refusal(i)


def test_every_refusal_site_refuses_a_row_and_admits_its_boundary():
    # Every refusal call in cli.py refuses some row of REFUSALS, and each
    # `_refuse_over` call admits one within 1% of its limit.
    sites = _refusal_sites()
    assert {name for name, _, _ in sites} == set(CHECKS)
    refused, near = set(), set()
    for i in range(len(REFUSALS)):
        for site, value, limit, refusal in _refusal_run(i)[5]:
            if refusal:
                refused.add(site)
            elif limit is not None and 100 * value >= 99 * limit:
                near.add(site)
    assert refused == sites
    assert near == {site for site in sites if site[0] == "_refuse_over"}


def test_print_limits_match_python_int_str_limit():
    # 1558 is the largest part whose all orders can print (k!·m_k at m_k = 1),
    # and MAX_VALUE_BITS the most bits of a value that can
    bound = 10 ** MAX_DECIMAL_DIGITS
    assert math.factorial(1558) < bound <= math.factorial(1559)
    assert 2 ** MAX_VALUE_BITS < bound < 2 ** (MAX_VALUE_BITS + 1)
    assert len(str(math.factorial(1558))) <= MAX_DECIMAL_DIGITS
    assert len(str(2 ** MAX_VALUE_BITS)) <= MAX_DECIMAL_DIGITS


def test_order_past_degree_is_zero_at_once():
    start = time.perf_counter()
    status, text = _run(["derivatives", "--parts", "5000", "--order", "6000", "--at", "0", "--format", "json"])
    assert time.perf_counter() - start < 0.5
    assert status == 0 and json.loads(text)["values"][0]["value"] == "0"


def test_largest_single_order_runs():
    # f^(500)(0) = 500!·m_500
    assert 500 * 20000 == MAX_DERIVATIVE_STEPS
    status, text = _run(["derivatives", "--parts", "500,20000", "--order", "500", "--at", "0", "--format", "json"])
    assert status == 0 and json.loads(text)["values"][0]["value"] == str(math.factorial(500))


def test_largest_value_at_a_point_prints():
    # f(x) = x + x^14284 at 1/2 has the denominator 2^14284 < 10^4300
    assert MAX_VALUE_BITS == 14284
    status, text = _run(["derivatives", "--parts", "1,14284", "--order", "0", "--at", "1/2", "--format", "json"])
    value = Fraction(1, 2) + Fraction(1, 2 ** 14284)
    assert status == 0 and json.loads(text)["values"][0]["value"] == format_rational(value)


def test_largest_value_at_one_third_prints():
    # 3^9012 has exactly 4300 digits, 3^9013 one more (refused above)
    assert len(str(3 ** 9012)) == MAX_DECIMAL_DIGITS
    status, text = _run(["derivatives", "--parts", "1,9012", "--order", "0", "--at", "1/3", "--format", "json"])
    value = Fraction(1, 3) + Fraction(1, 3 ** 9012)
    assert status == 0 and json.loads(text)["values"][0]["value"] == format_rational(value)


def test_largest_printable_density_runs(capsys, monkeypatch):
    # the last step r at the target 1/3 whose lcm(den(a), 3, den((b − a)/2^r))
    # stays under the print limit; ε = (b − a)/2^(r − 1) stops there, and half
    # of it one step later
    small = approximate(Fraction(1, 3), Fraction(1, 1000))
    a, b = small.interval
    printable = lambda r: math.lcm(
        a.denominator, 3, ((b - a) / 2 ** r).denominator
    ) < 10 ** MAX_DECIMAL_DIGITS
    r = next(r for r in range(14000, 15000) if not printable(r + 1))
    assert printable(r)
    # the trace is stubbed: the largest allowed run prints 185 MB of table
    monkeypatch.setattr("partpoly.cli.approximate", lambda c, eps: small)
    for stop, expected in ((r, 0), (r + 1, 1)):
        epsilon = (b - a) / 2 ** (stop - 1)
        assert plan(Fraction(1, 3), epsilon) == (small.start_index, small.interval, stop)
        status, _ = _run(["density", "--target", "1/3", "--epsilon", format_rational(epsilon)])
        assert status == expected
    assert capsys.readouterr().err.count("\n") == 1


def test_derived_seq_walks_the_derivative_once():
    start = time.perf_counter()
    status, text = _run(["derived-seq", "--parts", "400", "--format", "json"])
    assert time.perf_counter() - start < 1
    seq = json.loads(text)["sequence"]
    assert status == 0 and len(seq) == 401
    assert seq[399]["partition"]["multiplicities"] == [str(math.factorial(400))]


def test_count_length_near_n_is_cheap():
    # p(n, ℓ) with ℓ ≥ n − ℓ is p(n − ℓ), estimated at (n − ℓ)^1.5
    status, text = _run(["count", "--n", "10000000000", "--length", "9999999900"])
    assert status == 0 and text.split()[-1] == str(count_partitions(100))


def test_avg_p_n_l_matches_enumeration():
    for n in range(1, 13):
        totals = {}
        for p in partitions_of(n):
            totals[p.length] = totals.get(p.length, 0) + 1
        _, text = _run(["avg-table", "--n", str(n), "--format", "json"])
        assert [v["p_n_l"] for v in json.loads(text)["values"]] == [
            str(totals[l]) for l in range(1, n + 1)
        ]
        for l in range(1, n + 1):
            _, text = _run(["avg", "--n", str(n), "--length", str(l), "--format", "json"])
            assert json.loads(text)["p_n_l"] == str(totals[l])


@pytest.mark.parametrize("n, length, order", [(12, 3, 2), (18, 4, 3), (18, 4, 1)])
def test_collide_keys_on_orders_2_to_d_and_reports_the_bucket_keys(n, length, order, monkeypatch):
    # f(1) = ℓ and f'(1) = n for every candidate, so a key evaluates the tuples
    # of orders 2..min(d, k) only: order j of largest part k has k + 1 − j entries.
    # A group is reported with (ℓ, n) and the key it was grouped on, unprofiled.
    report = collision_search(n, length, order)
    assert report.groups  # the rows are not empty
    for key, group in zip(report.keys, report.groups, strict=True):
        orders = range(2, min(order, group[0].largest_part) + 1)
        assert key == (length, n) + tuple(deriv_recursive_eval(group[0], j, 1) for j in orders)
    evaluated = []
    evaluate = partpoly.search.evaluate

    def evaluate_spy(coeffs, x):
        evaluated.append((len(coeffs), x))
        return evaluate(coeffs, x)

    monkeypatch.setattr(partpoly.search, "evaluate", evaluate_spy)
    status, _ = _run(["collide", "--n", str(n), "--length", str(length), "--order", str(order)])
    assert status == 0
    expected = [
        (p.largest_part + 1 - j, 1)
        for p in iter_partitions(n, length)
        for j in range(2, min(order, p.largest_part) + 1)
    ]
    assert sorted(evaluated) == sorted(expected)


def test_collide_many_parts_runs():
    # p(5) = 7 partitions, one part size per recursion level: no RecursionError
    status, text = _run(["collide", "--n", "1500", "--length", "1495", "--order", "1"])
    assert status == 0
    assert text == (
        "group  partition         profile_prefix\n"
        "0      <1^1494,6^1>      1495,1500\n"
        "0      <1^1493,2^1,5^1>  1495,1500\n"
        "0      <1^1493,3^1,4^1>  1495,1500\n"
        "0      <1^1492,2^2,4^1>  1495,1500\n"
        "0      <1^1492,2^1,3^2>  1495,1500\n"
        "0      <1^1491,2^3,3^1>  1495,1500\n"
        "0      <1^1490,2^5>      1495,1500\n"
    )


def test_collide_all_ones_past_the_print_limit_runs():
    # ℓ = n has one partition, ⟨1^n⟩: the multiplicity list holds n − ℓ + 1 = 1
    # entry, not n
    start = time.perf_counter()
    status, text = _run(["collide", "--n", NINES, "--length", NINES, "--order", NINES])
    assert time.perf_counter() - start < 1
    assert status == 0 and text == "no collisions\n"


def test_collide_one_part_at_the_step_limit_answers_at_once():
    # p(n, 1) = 1, so the slowest call the estimate admits at ℓ = 1 (1,997,982
    # steps of values up to 1413!) has no pair to key and enumerates nothing
    start = time.perf_counter()
    status, text = _run(["collide", "--n", "1413", "--length", "1", "--order", "1413"])
    assert time.perf_counter() - start < 1
    assert status == 0 and text == "no collisions\n"


@pytest.mark.parametrize("argv", ["--n 437 --length 2 --order 20", "--n 1414 --length 3 --order 3"])
def test_collide_at_order_length_or_more_answers_at_once(argv):
    # f^(0..ℓ)(1) fix ℓ parts, so at d >= ℓ nothing is keyed: the first call keyed
    # all 218 partitions of 437 into 2 parts on 19 orders in 3.2–6.0 s
    start = time.perf_counter()
    status, text = _run(["collide", *argv.split()])
    assert time.perf_counter() - start < 1
    assert status == 0 and text == "no collisions\n"


def test_full_size_collide_golden():
    # the benchmark's collide call, pinned from the code that sliced full profiles
    status, text = _run(["collide", "--n", "60", "--length", "5", "--order", "3", "--format", "json"])
    assert status == 0
    digest = "453eabfea2bbb9f3f608da261e57c18967f9a3dbee8e0192f7a6e6126bfc814d"
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_import_leaves_out_the_process_pool():
    # Nor dataclasses (and the inspect it loads) or the json and csv writers:
    # together they cost each CLI start about 20 ms.
    names = ["concurrent.futures.process", "csv", "dataclasses", "inspect", "json"]
    assert _modules_loaded("import partpoly.cli", names) == "[]"


@pytest.mark.parametrize("fmt, loaded", [("table", "[]"), ("csv", "['csv']"), ("json", "['json']")])
def test_output_format_loads_only_its_writer(fmt, loaded):
    statement = f"from partpoly.cli import run; run(['count', '--n', '10', '--format', '{fmt}'])"
    assert _modules_loaded(statement, ["csv", "json"]) == loaded


def test_count_length_zero_is_printed():
    _, text = _run(["count", "--n", "5", "--length", "0"])
    assert text.splitlines()[1].split() == ["5", "0", "0"]
    _, text = _run(["count", "--n", "5", "--format", "csv"])
    assert text.splitlines()[1] == "5,,7"  # no --length: empty column


def test_density_accepts_power_spelling():
    _, spelled = _run(["density", "--target", "1/100000", "--epsilon", "1/10^30", "--format", "json"])
    _, digits = _run(
        ["density", "--target", "1/10^5", "--epsilon", f"1/{10 ** 30}", "--format", "json"]
    )
    assert spelled == digits
    assert json.loads(spelled)["start_index"] == 149999


@pytest.mark.parametrize("argv", [
    ["--decimal-digits", "-1", "integral", "--parts", "2,1"],
    ["integral", "--parts", "2,1", "--decimal-digits", "-1"],
    ["integral", "--parts", "2,1", "--decimal-digits", "x"],
])
def test_bad_decimal_digits_is_usage_error(argv):
    with pytest.raises(SystemExit) as exc:
        run(argv, out=io.StringIO())
    assert exc.value.code == 2


def test_decimal_digits_zero():
    _, text = _run(["integral", "--parts", "2,1", "--decimal-digits", "0", "--format", "json"])
    assert json.loads(text)["decimal"] == "0"


def test_python_dash_m():
    proc = _python("-m", "partpoly", "count", "--n", "10", "--format", "json")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["count"] == "42"


# Each prints several times the 64 KiB a pipe holds, so the CLI is still
# writing when the reader closes the pipe.
@pytest.mark.parametrize("args", ["conjecture --max-n 150 --format json", "avg-table --n 500"])
def test_closed_stdout_exits_1_quietly(args):
    with subprocess.Popen([sys.executable, "-m", "partpoly", *args.split()], env=_python_env(),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline()
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    assert proc.returncode == 1
    assert all(line.startswith(b"n=") for line in err.splitlines())  # no traceback, only progress


def test_unbuffered_python_prints_what_run_prints():
    args = "conjecture --max-n 30 --format json"
    proc = _python("-u", "-m", "partpoly", *args.split())
    assert proc.returncode == 0
    assert proc.stdout == _run(args.split())[1]


class _RecordingFile(io.RawIOBase):
    """An unbuffered file that keeps each write's bytes."""

    def __init__(self):
        self.writes = []

    def writable(self):
        return True

    def write(self, data):
        self.writes.append(bytes(data))
        return len(data)


def test_run_buffers_a_write_through_stream():
    # `python -u` gives stdout a write-through wrapper on an unbuffered file, which
    # takes one write per json.dump chunk (1,112 here) unless run() buffers it.
    # The stream is write-through again after a success, a domain error and a
    # usage error alike.
    for args, status in [("conjecture --max-n 30 --format json", 0),
                         ("integral --parts 0,2", 1), ("count --n x", 2)]:
        file = _RecordingFile()
        out = io.TextIOWrapper(file, write_through=True)
        if status == 2:  # a usage error prints only to stderr
            with pytest.raises(SystemExit) as exc:
                run(args.split(), out)
            assert exc.value.code == 2
            expected = b""
        else:
            assert run(args.split(), out) == status
            expected = _run(args.split())[1].encode()
        assert out.write_through
        assert b"".join(file.writes) == expected
        assert len(file.writes) <= len(expected) // 8192 + 1


def test_run_prints_to_its_own_int_str_limit(monkeypatch):
    # An in-process caller's limit holds outside run(), not inside it, after a success,
    # a domain error and a usage error alike; a limit of 0 is none, as before 3.10.7.
    inside = []

    def parser():  # run() builds its parser under the limit it prints with
        inside.append(sys.get_int_max_str_digits())
        return build_parser()

    monkeypatch.setattr(partpoly.cli, "build_parser", parser)
    factorial = str(math.factorial(1000))
    old = sys.get_int_max_str_digits()
    try:
        for caller in (640, 0):
            sys.set_int_max_str_digits(caller)
            for args, status in [("derivatives --parts 1000 --at 0 --order 1000 --format json", 0),
                                 ("integral --parts 0,2", 1), ("count --n x", 2)]:
                out = io.StringIO()
                if status == 2:
                    with pytest.raises(SystemExit) as exc:
                        run(args.split(), out)
                    assert exc.value.code == 2
                else:
                    assert run(args.split(), out) == status
                assert sys.get_int_max_str_digits() == caller, args
                if status == 0:
                    assert json.loads(out.getvalue())["values"][0]["value"] == factorial
    finally:
        sys.set_int_max_str_digits(old)
    assert inside == [MAX_DECIMAL_DIGITS] * 6


def test_cli_prints_to_its_own_int_str_limit():
    # The print checks assume Python's default 4300-digit limit, whatever -X sets.
    proc = _python("-X", "int_max_str_digits=640", "-m", "partpoly", "derivatives", "--parts", "1000",
                   "--at", "0", "--order", "1000", "--format", "json")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["values"][0]["value"] == str(math.factorial(1000))


EMPTY = hashlib.sha256(b"").hexdigest()

# `python -m partpoly ARGS` -> (exit status, SHA-256 of stdout, of stderr),
# pinned on Python 3.11.7: help, usage errors, typos, global flags before the
# command, and one on both sides of it (the one after it wins).
PINNED_ARGV = {
    "": (2, EMPTY, "f67d1c6435f11bc5849149c4db0cb2197aa8738bfd0361adc8d527ca92370be5"),
    "-h": (0, "e644560e4bd08c260c2f930020f098774dd413212d6c867a9569e71f71f24d5a", EMPTY),
    "-h count": (0, "e644560e4bd08c260c2f930020f098774dd413212d6c867a9569e71f71f24d5a", EMPTY),
    "count -h": (0, "3e9efb4b30f48b7458d12b587233e23502d27c7a0a2e10fac9b0217c485eed6c", EMPTY),
    "bogus": (2, EMPTY, "5e4556a8e7d5dc480f6e94463e61226acf90124c4d7f1bc1c89fcbd4091adb09"),
    "count": (2, EMPTY, "066f7abff4988ea9a2bdc7320252a89f2c407ec72af7090a34f70cf452e40d67"),
    "count --n 5 extra": (2, EMPTY, "949e3b0948202135bf3ab55c1d0903785c87b4fc3d9437aab1fc2c67f447e5f5"),
    "--format xml count --n 1": (2, EMPTY, "4875f9577797280d8e3398c262ab9d5ff38750b7e734801d90d94db60064f8ed"),
    "stats --parts 1 count": (2, EMPTY, "2196b4c7b038b00063140ac53036dbbbd2b50ae5ae6889298fed9d76edc055ad"),
    "count --n 3000": (0, "83e8e2219a2ff1164db896faa3792cc008eaa7a7f8433f6bcd9922ad448b891f", EMPTY),
    "--format json count --n 10": (0, "904905c36f06e56e8b5108d0ebd4061cdb5566b2774ab19e84c498fd02eab8e3", EMPTY),
    "--format json count --n 10 --format csv": (0, "0e60370c01ce936718c623046639bae401a6d94a358cfee3cb86928a01d4a02a", EMPTY),
    "count --n 10 --format csv": (0, "0e60370c01ce936718c623046639bae401a6d94a358cfee3cb86928a01d4a02a", EMPTY),
    "count --n 100000": (1, EMPTY, "1710fbb59cd94d037acb1c759f1b61eca63e46f19ed586b709645a95e8a2a36a"),
    "count --n x": (2, EMPTY, "23aa0d96d0e3deb268e316ba082cbecb5f6436c67b9757e0b5afac6480258633"),
    "stats --parts 5,2,2,1": (0, "e8ed21fe04a2505a510fd1234facb7e9d64724453ef5ac978388dc5e57df1120", EMPTY),
    "derivatives --parts 5,2,2,1 --at 1/2 --order 2": (0, "3911e1d6846a228933d9d6a7b3350eddd089b0ba90576b5875564337ce7f7853", EMPTY),
    "integral --parts 0,2": (1, EMPTY, "ca3597f20da6bea63674cdba3b9f3c6af83ddde544f6103bc087b4b723f78991"),
    "--decimal-digits 3 integral --parts 2,1": (0, "4f98c6ee06ba9d0c72d09f433107392f7e7828b955a0a5eac751e8b6784d1eda", EMPTY),
    "collide --n 12 --length 3 --order 2 --format json": (0, "5d5794924ad760118a29c33b6540dea4cc110d32033a2e9473a5ca5355cad7ff", EMPTY),
    "conjecture --max-n 3": (0, "0e9862b4b2dec778600cc86eb4223b5862948dc23aa89a605a05766926b5cb3f", "2e6fa780b7ed6035de785ebdcd1a934ada10609bb36ac6f4dbacf4376793bc0b"),
    "poly -h": (0, "fe0841ba5d1da44e902e515e984e72d08623ef34e6b7c10964b3652883d23992", EMPTY),
    "coun --n 5": (2, EMPTY, "95fbfd6a3cc64a0095e26e4a4cbf03f1fe367595d5199dbaf8b22702c8662c4e"),
    "--format json": (2, EMPTY, "f67d1c6435f11bc5849149c4db0cb2197aa8738bfd0361adc8d527ca92370be5"),
}


def _cli_digests(args):
    """Exit status and stdout and stderr digests of the CLI on `args`, run as
    `python -m partpoly`, through run()'s argv=None route."""
    proc = _python("-m", "partpoly", *args.split(), text=False)
    digest = lambda data: hashlib.sha256(data).hexdigest()
    return proc.returncode, digest(proc.stdout), digest(proc.stderr)


@pytest.mark.parametrize("args", list(PINNED_ARGV))
def test_pinned_argv_output(args):
    got, pinned = _cli_digests(args), PINNED_ARGV[args]
    if sys.version_info[:2] == (3, 11):
        assert got == pinned
    # argparse words help and usage errors per version; every other byte,
    # output, `error:` lines and progress, is partpoly's own
    assert got[0] == pinned[0]
    if "-h" not in args.split():
        assert got[1] == pinned[1]
    if pinned[0] != 2:
        assert got[2] == pinned[2]


def test_stray_value_error_propagates(monkeypatch):
    # run() turns only DomainError into exit 1; any other ValueError is a bug
    def handler(args):
        raise ValueError("stray")

    monkeypatch.setitem(COMMANDS, "count", (handler,) + COMMANDS["count"][1:])
    with pytest.raises(ValueError, match="stray"):
        _run(["count", "--n", "1"])


def test_domain_error_exits_1(capsys):
    status, _ = _run(["integral", "--parts", "0,2"])
    assert status == 1
    assert "error" in capsys.readouterr().err


def test_empty_partition_integral_exits_1():
    status, _ = _run(["integral", "--mults", "0"])
    assert status == 1


def test_negative_multiplicity_exits_1(capsys):
    status, text = _run(["stats", "--mults=-1,2"])
    assert status == 1 and text == ""
    assert capsys.readouterr().err == "error: multiplicities must be nonnegative\n"


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["no-such-command"])
    assert exc.value.code == 2


def test_global_flags_before_subcommand():
    _, a = _run(["--format", "json", "count", "--n", "10"])
    _, b = _run(["count", "--n", "10", "--format", "json"])
    assert a == b


@pytest.mark.parametrize("argv", [
    ["stats", "--parts", "5,x"],
    ["integral", "--parts", "2.5"],
    ["stats", "--mults", "1,x"],
    ["derived-seq", "--mults", "1;2"],
    ["stats", "--mults", "1,,1"],
    ["integral", "--mults", "1,"],
    ["stats", "--parts", "3,,1"],
])
def test_malformed_partition_is_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run(argv, out=io.StringIO())
    assert exc.value.code == 2
    assert "argument --" in capsys.readouterr().err


def test_decimal_digits_upper_bound():
    status, text = _run(["integral", "--parts", "2,1", "--decimal-digits", "4300", "--format", "json"])
    assert status == 0
    assert len(json.loads(text)["decimal"]) == 4302
    start = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        run(["integral", "--parts", "2,1", "--decimal-digits", "4301"], out=io.StringIO())
    assert exc.value.code == 2
    assert time.perf_counter() - start < 1


def test_full_partition_outside_json_is_ignored():
    # Table and CSV print no partition, so s > 10^6 is no reason to refuse them.
    argv = ["density", "--target", "1/10^9", "--epsilon", "1/10^12"]
    for fmt in ("table", "csv"):
        plain = _run(argv + ["--format", fmt])
        assert _run(argv + ["--full-partition", "--format", fmt]) == plain
        assert plain[0] == 0


def test_collide_takes_no_jobs(capsys):
    for argv in [
        ["collide", "--n", "12", "--length", "3", "--order", "2", "--jobs", "1"],
        ["conjecture", "--max-n", "3", "--jobs", "2"],
    ]:
        with pytest.raises(SystemExit) as exc:
            run(argv, out=io.StringIO())
        assert exc.value.code == 2
        assert "unrecognized arguments: --jobs" in capsys.readouterr().err


# CLI calls that exit 0 and that no other test makes with the same argv:
# the seconds each may take.  <NINES> stands for 10^4300 − 1.
CLI_CALLS = {
    "derivatives --parts 5,2,2,1 --at=-7/3": 5,
    "derivatives --parts 5,2,2,1 --at=-7/3 --decimal-digits 0": 5,  # rounds negatives
    "derivatives --parts 5,2,2,1 --at 1/3 --format json": 5,
    "poly --parts 5,2,2,1": 5,
    "integral --parts 5,2,2,1": 5,
    "derived-seq --parts 5,2,2,1": 5,
    "--format json derived-seq --parts 5,2,2,1": 5,
    "derived-seq --mults 1,0,3,1": 5,
    "avg --n 10 --length 3": 5,
    "avg-table --n 10": 5,
    "--format csv avg-table --n 10": 5,
    "avg-table --n 400": 5,
    "avg-table --n 1000": 5,  # the largest allowed
    "conjecture --max-n 20": 5,
    "density --target 1/3 --epsilon 1/10^6": 5,
    "collide --n 36 --length 6 --order 4": 5,  # the README's PTE pair
    "collide --n 1000000 --length 1 --order 1": 5,  # d >= ℓ: answered with no step
    "count --n <NINES> --length 0": 1,  # p(n, 0) = 0 builds no n + 1 cells
}


@pytest.mark.parametrize("call", list(CLI_CALLS))
def test_cli_call(call):
    start = time.perf_counter()
    status, text = _run([NINES if token == "<NINES>" else token for token in call.split()])
    assert time.perf_counter() - start < CLI_CALLS[call]
    assert status == 0 and text


# Most flags take integers, so half the values drawn are one.
FUZZ_INTS = st.sampled_from([str(v) for v in (-7, -1, 0, 1, 2, 5, 10 ** 8, 10 ** 100)] + [NINES])
FUZZ_VALUES = FUZZ_INTS | st.sampled_from([
    "1/3", "1/0", "nan", "inf", "1e400", "1e-400", "0x10", "=-7/3", "1/10^5000", "2^20000", "", ",",
]) | st.lists(FUZZ_INTS, min_size=2, max_size=3).map(",".join)


@st.composite
def _fuzzed_argv(draw):
    """A subcommand and, in any order, most of its flags and some global ones,
    each global flag before or after the subcommand, each flag with a value
    from an adversarial alphabet (=v joins its flag)."""
    name = draw(st.sampled_from(list(COMMANDS)))
    flags = [flag for flag in ("--format", "--decimal-digits") if draw(st.integers(0, 3)) == 0]
    first = [flag for flag in flags if draw(st.booleans())]
    for spec in COMMANDS[name][2]:
        if draw(st.integers(0, 7)) == 0:
            continue
        if spec is PARTITION:
            flags.append(draw(st.sampled_from([flag for flag, _ in PARTITION])))
        else:
            flags.append(spec if isinstance(spec, str) else spec[0])

    def tokens(flag):
        if flag == "--full-partition":
            return [flag]
        value = draw(st.sampled_from(["table", "csv", "json"]) if flag == "--format" else FUZZ_VALUES)
        return [flag + value] if value.startswith("=") else [flag, value]

    rest = draw(st.permutations([flag for flag in flags if flag not in first]))
    return [t for flag in first for t in tokens(flag)] + [name] + [t for flag in rest for t in tokens(flag)]


@settings(max_examples=150, deadline=None)
@example(["count", "--n", NINES, "--length", "0"])
@given(_fuzzed_argv())
def test_fuzzed_argv_exits_0_1_or_2(argv):
    # exit 0, exit 1 with one `error:` line, or a usage error: no traceback
    err = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stderr(err):
        try:
            status = run(argv, out=io.StringIO())
        except SystemExit as exc:
            status = f"usage {exc.code}"
    assert time.perf_counter() - start < 5
    assert status in (0, 1, "usage 2")
    if status == 1:
        assert err.getvalue().startswith("error:") and err.getvalue().count("\n") == 1
