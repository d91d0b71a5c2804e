import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from partpoly import Partition
from partpoly.cli import build_parser, run


def _run(argv):
    out = io.StringIO()
    status = run(argv, out=out)
    return status, out.getvalue()


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


def test_integral_json():
    status, text = _run(["integral", "--parts", "5,2,2,1", "--format", "json"])
    assert status == 0
    doc = json.loads(text)
    assert doc["integral"] == "1/3"
    assert Partition.from_json(doc["partition"]) == Partition.from_parts([5, 2, 2, 1])


def test_mults_and_parts_agree():
    _, from_parts = _run(["integral", "--parts", "5,2,2,1", "--format", "json"])
    _, from_mults = _run(["integral", "--mults", "1,2,0,0,1", "--format", "json"])
    assert from_parts == from_mults


def test_partition_json_round_trip():
    _, text = _run(["stats", "--parts", "4,3,3,3,1", "--format", "json"])
    doc = json.loads(text)
    assert Partition.from_json(doc["partition"]) == Partition.from_parts([4, 3, 3, 3, 1])


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
    result = Partition.from_json(doc["result_partition"])
    from fractions import Fraction

    from partpoly import integral

    err = abs(integral(result) - Fraction(1, 3))
    assert err < Fraction(1, 10 ** 6)
    assert str(err.numerator) + "/" + str(err.denominator) == doc["achieved_error"]


def test_collide_json():
    _, text = _run(["collide", "--n", "12", "--length", "3", "--order", "2", "--format", "json"])
    doc = json.loads(text)
    groups = [
        {tuple(sorted(Partition.from_json(p).parts(), reverse=True)) for p in g}
        for g in doc["groups"]
    ]
    assert {(6, 5, 1), (7, 3, 2)} in groups


def test_count_subcommand():
    _, text = _run(["count", "--n", "10", "--format", "json"])
    assert json.loads(text)["count"] == "42"
    _, text = _run(["count", "--n", "5", "--length", "2", "--format", "json"])
    assert json.loads(text)["count"] == "2"


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
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "partpoly", "count", "--n", "10", "--format", "json"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["count"] == "42"


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
