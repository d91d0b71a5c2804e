"""Tests of the benchmark at its smoke sizes, and of its output checks."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import layers
import run as bench_run
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


def _smoke(workload, trace):
    proc = _bench("--workload", workload, "--seed", "7", "--seconds", "0",
                  "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stdout
    return result["metrics"]


def _units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_smoke_end_to_end(workload):
    metrics = _smoke(workload, 0)
    assert {k: v["unit"] for k, v in metrics.items()} == _units("end_to_end")
    assert all(v["value"] > 0 for v in metrics.values())


# One count per workload that only its own layer produces.
LAYER_COUNTS = {
    "scan": ("averages.profile_calls", 55),
    "collide": ("partitions.enumerated", 12),
    "density": ("density.steps", 18),
    "count": ("partitions.table_cells", 1325),
}


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_smoke_traced(workload):
    metrics = _smoke(workload, 1)
    assert {k: v["unit"] for k, v in metrics.items()} == _units("per_layer")
    name, expected = LAYER_COUNTS[workload]
    assert metrics[name]["value"] == expected


def test_benchmark_json_lists_the_layer_metrics_in_order():
    assert list(_units("per_layer").items()) == list(layers.UNITS.items())


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "count", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_failed_check_is_counted_not_fatal(monkeypatch, capsys):
    inv = workloads.invocation("count", 0, smoke=True)
    monkeypatch.setitem(workloads.PINNED, inv.key, "0" * 64)
    bench_run.main(["--workload", "count", "--seed", "0", "--seconds", "0",
                    "--trace", "0", "--smoke"])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1


def _cli_output(inv):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), "run", *inv.argv],
        env={"PYTHONPATH": str(ROOT / "src")}, capture_output=True, timeout=60,
    )
    assert proc.returncode == 0
    return proc.stdout


def _tamper_json(edit):
    def tamper(out):
        doc = json.loads(out)
        edit(doc)
        return json.dumps(doc, indent=2).encode() + b"\n"

    return tamper


TAMPER = {
    "scan": _tamper_json(lambda d: d["reports"][3]["values"].__setitem__(1, "1/3")),
    "collide": _tamper_json(lambda d: d["groups"].pop()),
    "density": _tamper_json(lambda d: d.__setitem__("achieved_error", "1/1000")),
    "count": lambda out: out.replace(b"204226", b"204227"),
}


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_checks_accept_the_program_and_reject_tampering(workload):
    inv = workloads.invocation(workload, 0, smoke=True)
    out = _cli_output(inv)
    assert workloads.check(inv, out) is None
    tampered = TAMPER[workload](out)
    assert tampered != out
    assert workloads._CHECKS[workload](tampered, **inv.params) is not None
    assert workloads.check(inv, tampered) is not None


def test_pentagonal_oracle():
    small = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    assert [workloads.pentagonal_partition_count(n) for n in range(11)] == small
    assert workloads.pentagonal_partition_count(100) == 190569292


def test_every_density_target_is_pinned_and_seeded():
    keys = {workloads.invocation("density", seed).key for seed in range(500)}
    assert len(keys) == workloads.DENSITY_TARGETS
    assert keys <= set(workloads.PINNED)
    assert workloads.invocation("density", 5) == workloads.invocation("density", 5)
