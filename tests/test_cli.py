import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import partpoly.search
from partpoly import (
    CollisionReport,
    Partition,
    approximate,
    collision_search,
    count_partitions,
    deriv_recursive_eval,
    format_rational,
    iter_partitions,
)
from partpoly.cli import (
    COMMANDS,
    MAX_AVG_TABLE_N,
    MAX_COLLIDE_STEPS,
    MAX_CONJECTURE_N,
    MAX_COUNT_STEPS,
    MAX_DECIMAL_DIGITS,
    MAX_DERIVATIVE_STEPS,
    MAX_LARGEST_PART,
    MAX_TABLE_CELLS,
    MAX_VALUE_BITS,
    build_parser,
    run,
)
from partpoly.density import plan
from partpoly.exact import MAX_POWER_BITS


def _from_json(doc):
    """The Partition a CLI's JSON output names, {"multiplicities": [...]}."""
    return Partition(int(m) for m in doc["multiplicities"])


def _run(argv):
    out = io.StringIO()
    status = run(argv, out=out)
    return status, out.getvalue()


def _python(*args, text=True):
    """Run a fresh interpreter on this checkout's package."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src), COLUMNS="80")  # argparse wraps help to it
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=text, env=env, timeout=60
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


@pytest.mark.parametrize("argv", [
    ["count", "--n", "100000"],
    ["count", "--n", "10000000", "--length", "1000"],
    ["count", "--n", "200000", "--length", "100000"],
])
def test_oversized_count_exits_1(argv, capsys):
    start = time.perf_counter()
    status, text = _run(argv)
    assert status == 1 and text == ""
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert str(MAX_COUNT_STEPS) in err


@pytest.mark.parametrize("argv, limit", [
    (["avg", "--n", "3160", "--length", "5"], None),
    (["avg", "--n", "3161", "--length", "5"], MAX_TABLE_CELLS),
    (["avg", "--n", "10000000000", "--length", "5"], MAX_TABLE_CELLS),
    (["avg-table", "--n", str(MAX_AVG_TABLE_N + 1)], MAX_AVG_TABLE_N),
    (["avg-table", "--n", "10000000000"], MAX_AVG_TABLE_N),
    (["conjecture", "--max-n", str(MAX_CONJECTURE_N + 1)], MAX_CONJECTURE_N),
    (["conjecture", "--max-n", "10000000000"], MAX_CONJECTURE_N),
])
def test_oversized_averages_exit_1(argv, limit, capsys, monkeypatch):
    # avg --n 3160 would fill 4,997,541 cells, the largest triangle allowed;
    # avg and the table are stubbed so that the check alone is timed
    monkeypatch.setattr("partpoly.cli.avg", lambda *args: Fraction(1, 2))
    monkeypatch.setattr("partpoly.cli.CountTable.count", lambda *args: 0)
    start = time.perf_counter()
    status, text = _run(argv)
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    if limit is None:
        assert status == 0 and err == ""
        return
    assert status == 1 and text == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert str(limit) in err


def test_print_limits_match_python_int_str_limit():
    # 1558 is the largest part whose all orders can print (k!·m_k at m_k = 1),
    # and MAX_VALUE_BITS the most bits of a value that can
    bound = 10 ** MAX_DECIMAL_DIGITS
    assert math.factorial(1558) < bound <= math.factorial(1559)
    assert 2 ** MAX_VALUE_BITS < bound < 2 ** (MAX_VALUE_BITS + 1)
    assert len(str(math.factorial(1558))) <= MAX_DECIMAL_DIGITS
    assert len(str(2 ** MAX_VALUE_BITS)) <= MAX_DECIMAL_DIGITS


# 10^4300 − 1, the largest integer Python prints by default
NINES = "9" * MAX_DECIMAL_DIGITS


@pytest.mark.parametrize("argv, limit", [
    (["integral", "--parts", "1000000"], None),
    (["integral", "--parts", "2,1000001"], MAX_LARGEST_PART),
    (["poly", "--parts", "20000000", "--format", "json"], MAX_LARGEST_PART),
    (["derivatives", "--parts", "1558,1"], None),
    (["derivatives", "--parts", "1559"], MAX_DECIMAL_DIGITS),
    (["derivatives", "--parts", "1559", "--order", "3"], None),
    (["derived-seq", "--parts", "1558"], None),
    (["derived-seq", "--mults", ",".join(["0"] * 1558 + ["1"])], MAX_DECIMAL_DIGITS),
    (["stats", "--mults", str(MAX_VALUE_BITS)], None),
    (["stats", "--mults", str(MAX_VALUE_BITS + 1)], MAX_VALUE_BITS),
    (["stats", "--mults", "0,0,0,0,0,0,0,0,0,30000000"], MAX_VALUE_BITS),
    (["derivatives", "--parts", "20000", "--order", "500"], None),  # d·k = 10^7
    (["derivatives", "--parts", "20000", "--order", "501"], MAX_DERIVATIVE_STEPS),
    (["derivatives", "--parts", "1000000", "--order", "500000", "--at", "0"], MAX_DERIVATIVE_STEPS),
    # K·⌊log2 max(|p|, q)⌋ for the degree K evaluated at p/q
    (["derivatives", "--parts", "1,14284", "--order", "0", "--at", "1/2"], None),
    (["derivatives", "--parts", "1,14285", "--order", "0", "--at", "1/2"], MAX_VALUE_BITS),
    (["derivatives", "--parts", "14385", "--order", "100", "--at=-3/2"], MAX_VALUE_BITS),
    (["derivatives", "--parts", "1558", "--at", "1/2^9"], None),  # 1558·9 = 14,022
    (["derivatives", "--parts", "1,64000", "--order", "0", "--at", "1/3"], MAX_VALUE_BITS),
    (["derivatives", "--parts", "100", "--at", "1/10^1000"], MAX_VALUE_BITS),
    (["derivatives", "--parts", "300", "--at", "1/10^3000"], MAX_VALUE_BITS),
    (["derivatives", "--parts", "300", "--order", "301", "--at", "1/10^3000"], None),
    # the floor reads 3^K as 2^K, so max(|p|, q)^K is also checked for digits
    (["derivatives", "--parts", "1,9013", "--order", "0", "--at", "1/3"], MAX_VALUE_BITS),
    (["derivatives", "--parts", "1,14284", "--order", "0", "--at", "1/3"], MAX_VALUE_BITS),
    # all orders print every i!·m_i: 1400!·10^2000 and 1000!·10^2000 pass 10^4300
    (["derivatives", "--mults", ",".join(["0"] * 1399 + [str(10 ** 2000)])], MAX_DECIMAL_DIGITS),
    (["derived-seq", "--mults", ",".join(["0"] * 1399 + [str(10 ** 2000)])], MAX_DECIMAL_DIGITS),
    (["derivatives", "--mults", ",".join(["0"] * 999 + [str(10 ** 2000)] + ["0"] * 399 + ["1"])],
     MAX_DECIMAL_DIGITS),
    # a zero m_i counts as 1, so the check ends by i = 1559 under any largest part
    (["derived-seq", "--parts", "1,1000000"], MAX_DECIMAL_DIGITS),
    # an estimate past the print limit is shown as a power of 2
    (["count", "--n", NINES], MAX_COUNT_STEPS),
    (["avg", "--n", NINES, "--length", "2"], MAX_TABLE_CELLS),
    (["collide", "--n", NINES, "--length", "2", "--order", "1"], MAX_COLLIDE_STEPS),
    (["stats", "--mults", "1," + NINES], MAX_VALUE_BITS),
    # the value 0 prints, but --at itself is printed back (see --at 1/10^3000 above)
    (["derivatives", "--parts", "300", "--order", "301", "--at", "1/10^5000"], MAX_DECIMAL_DIGITS),
    (["derivatives", "--parts", "300", "--order", "301", "--at", "1e-5000"], MAX_DECIMAL_DIGITS),
    # an exponent is capped as 10^|e| is, before Fraction builds the power
    (["derivatives", "--parts", "3", "--at", "1e-9999999"], MAX_POWER_BITS),
])
def test_oversized_partition_work_exits_1(argv, limit, capsys, monkeypatch):
    # the work after each check is stubbed so that the check alone is timed
    monkeypatch.setattr("partpoly.cli.integral", lambda p: Fraction(1, 2))
    monkeypatch.setattr("partpoly.cli.derivative_values", lambda p, x: [0])
    monkeypatch.setattr("partpoly.cli.diff", lambda coeffs, d=1: ())
    start = time.perf_counter()
    status, text = _run(argv)
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    if limit is None:
        assert status == 0 and err == ""
        return
    assert status == 1 and text == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert str(limit) in err


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


def test_unprintable_integral_exits_1(capsys):
    # ⟨1, 2, ..., 10000⟩: (H_10001 − 1)/10000 has a denominator past 4300 digits
    status, text = _run(["integral", "--mults", ",".join(["1"] * 10000)])
    err = capsys.readouterr().err
    assert status == 1 and text == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "4300" in err


@pytest.mark.parametrize("argv", [
    ["derivatives", "--order", "1", "--mults", "1," + NINES],  # f'(1) = 1 + 2·m_2
    ["derivatives", "--order", "0", "--at", "1/2", "--mults", f"{NINES},{NINES}"],
    # each i!·m_i prints, but f(1) = m_1 + m_2 and λ^(0)'s length do not
    ["derivatives", "--mults", f"{NINES},{10 ** 4299}"],
    ["derived-seq", "--mults", f"{NINES},{10 ** 4299}"],
])
def test_unprintable_value_exits_1(argv, capsys):
    start = time.perf_counter()
    status, text = _run(argv)
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert status == 1 and text == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert str(MAX_DECIMAL_DIGITS) in err


# the last two stop at step 1, but the output prints epsilon back
@pytest.mark.parametrize("epsilon", ["1/10^5000", "1/10^30000", "2^20000/3^9100", "1e5000"])
def test_unprintable_density_exits_1_at_once(epsilon, capsys):
    start = time.perf_counter()
    status, text = _run(["density", "--target", "1/3", "--epsilon", epsilon])
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert status == 1 and text == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert str(MAX_DECIMAL_DIGITS) in err


def test_unprintable_density_target_exits_1_at_once(capsys):
    # the bound 3/(20·2^r) prints, but achieved_error carries the target's
    # 4,201-digit denominator too, and the steps ran 5.3 s before the print
    target = format_rational(Fraction(1, 3) + Fraction(1, 10 ** 4200))
    start = time.perf_counter()
    status, text = _run(["density", "--target", target, "--epsilon", f"1/{10 ** 4000}"])
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert status == 1 and text == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert str(MAX_DECIMAL_DIGITS) in err


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
        assert plan(Fraction(1, 3), epsilon) == (small.start_index, stop)
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


@pytest.mark.parametrize("argv, allowed", [
    (["--n", "60", "--length", "5", "--order", "3"], True),  # 1,178,240 steps
    (["--n", "4473", "--length", "1", "--order", "1"], True),  # one partition, 2·k = 8,946
    (["--n", "1414", "--length", "1", "--order", "1414"], False),  # (k + 1)·k = 2,000,810
    (["--n", "200", "--length", "10", "--order", "2"], False),  # p(200, 10) = 807,151,588
    (["--n", "10000000000", "--length", "5", "--order", "2"], False),
    # counting these p(n, ℓ) would take 2.5·10^11 steps: the parts <= 2 bound refuses first
    (["--n", "1000000", "--length", "499999", "--order", "2"], False),
    (["--n", "1413", "--length", "1", "--order", "1413"], True),  # 1,997,982
    (["--n", "1414", "--length", "1", "--order", "5000"], False),  # the order is capped at k
    (["--n", "1000000", "--length", "1", "--order", "1"], True),  # 2·k = 2,000,000
    (["--n", "1000001", "--length", "1", "--order", "1"], False),
    (["--n", "159", "--length", "2", "--order", "159"], True),  # 79·159·158 = 1,984,638
    (["--n", "160", "--length", "2", "--order", "160"], False),  # 80·160·159 = 2,035,200
])
def test_oversized_collide_exits_1(argv, allowed, capsys, monkeypatch):
    monkeypatch.setattr(
        "partpoly.cli.collision_search", lambda n, l, d: CollisionReport(n, l, d, (), ())
    )
    start = time.perf_counter()
    status, text = _run(["collide", *argv])
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    if allowed:
        assert status == 0 and text == "no collisions\n" and err == ""
        return
    assert status == 1 and text == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert str(MAX_COLLIDE_STEPS) in err


@pytest.mark.parametrize("order", ["0", "-1", "-7"])
def test_collide_refuses_a_bad_order_before_counting(order, capsys):
    # d <= −1 made the estimates' factor (min(d, k) + 1)·k <= 0, so p(400000,
    # 200000) was counted (11 s) before collision_search refused; d = 0 was
    # refused on the estimate, not on the order
    start = time.perf_counter()
    status, text = _run(["collide", "--n", "400000", "--length", "200000", "--order", order])
    assert time.perf_counter() - start < 1
    assert status == 1 and text == ""
    assert capsys.readouterr().err == "error: need order >= 1\n"


def test_count_length_near_n_is_cheap():
    # p(n, ℓ) with ℓ ≥ n − ℓ is p(n − ℓ), estimated at (n − ℓ)^1.5
    status, text = _run(["count", "--n", "10000000000", "--length", "9999999900"])
    assert status == 0 and text.split()[-1] == str(count_partitions(100))


def test_avg_p_n_l_matches_enumeration():
    for n in range(1, 13):
        totals = {}
        for p in iter_partitions(n):
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


def test_oversized_power_exits_1(capsys):
    status, _ = _run(["density", "--target", "1/3", "--epsilon", "1/10^999999999"])
    assert status == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


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


EMPTY = hashlib.sha256(b"").hexdigest()

# `python -m partpoly ARGS` -> (exit status, SHA-256 of stdout, of stderr),
# pinned on Python 3.11.7 from the CLI as it was when every call built all 11
# subparsers: help, usage errors, typos and global flags before the command.
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


def _cli_digests(args, full_parser=False):
    """Exit status and stdout and stderr digests of the CLI on `args`, run
    through main() and its argv=None route; with full_parser every call
    builds all the subparsers."""
    full = "import partpoly.cli as c; b = c.build_parser; c.build_parser = lambda _=None: b(); c.main()"
    proc = _python(*(["-c", full] if full_parser else ["-m", "partpoly"]), *args.split(), text=False)
    digest = lambda data: hashlib.sha256(data).hexdigest()
    return proc.returncode, digest(proc.stdout), digest(proc.stderr)


@pytest.mark.parametrize("args", list(PINNED_ARGV))
def test_one_subcommand_parser_changes_no_output(args):
    got = _cli_digests(args)
    if sys.version_info[:2] == (3, 11):
        assert got == PINNED_ARGV[args]
    else:  # argparse words help and errors per version: compare the full parser
        assert got == _cli_digests(args, full_parser=True)


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


def test_oversize_full_partition_exits_1(capsys):
    start = time.perf_counter()
    status, text = _run(
        ["density", "--target", "1/10^9", "--epsilon", "1/10^12", "--full-partition", "--format", "json"]
    )
    assert status == 1 and text == ""
    assert time.perf_counter() - start < 5
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


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
