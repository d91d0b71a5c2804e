"""Benchmark of the partpoly CLI: end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload {scan,collide,density,count}
        --seed N --seconds S --trace {0,1} [--smoke]

Run from the root of a partpoly checkout.  Every sample is a fresh
interpreter that drives the checkout's `partpoly.cli.run`, one at a time
(a closed loop with one client: the CLI is a batch calculator whose user
waits for each call).  Samples repeat until the next one would end after
S seconds, with at least one.  Every output is checked (see workloads.py);
a failed check counts in `failed` and does not stop the run.

With --trace 0 the run first times SETUP_PROBES interpreter starts up to
subcommand dispatch, then the CLI calls, and reports the medians of
wall_s, peak_rss_mb and setup_s.  With --trace 1 it alternates untraced and
traced calls, requires their stdout to be byte-identical, and reports the
median of each per-layer metric (layers.py).  The last line of stdout is the
result as one JSON object; the lines before it give the run's context and
every metric with its sample count.  --smoke runs tiny sizes for tests.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import layers
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_PROBES = 15
SMOKE_SETUP_PROBES = 3


@dataclass
class Sample:
    wall_s: float
    peak_rss_mb: float
    status: int
    stdout: bytes
    stderr: bytes


def spawn(child_args, tmp):
    """Run child.py with `child_args` to completion; its wall time from
    spawn to exit and peak RSS come from this one child's rusage."""
    out_path, err_path = tmp / "stdout", tmp / "stderr"
    argv = [sys.executable, str(BENCH / "child.py"), *child_args]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    out_fd = os.open(out_path, flags, 0o644)
    err_fd = os.open(err_path, flags, 0o644)
    try:
        start = perf_counter()
        pid = os.posix_spawn(
            sys.executable,
            argv,
            env,
            file_actions=[
                (os.POSIX_SPAWN_DUP2, out_fd, 1),
                (os.POSIX_SPAWN_DUP2, err_fd, 2),
            ],
        )
    finally:
        os.close(out_fd)
        os.close(err_fd)
    try:
        _, wait_status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    wall_s = perf_counter() - start
    return Sample(
        wall_s,
        usage.ru_maxrss / 1024,  # kilobytes on Linux
        os.waitstatus_to_exitcode(wait_status),
        out_path.read_bytes(),
        err_path.read_bytes(),
    )


class Checker:
    """Output checks, cached by stdout digest; collects failure reasons."""

    def __init__(self, inv):
        self.inv = inv
        self.verdicts = {}
        self.attempted = 0
        self.failures = []

    def verdict(self, sample):
        if sample.status != 0:
            tail = sample.stderr.decode(errors="replace").strip().splitlines()[-1:]
            return f"exit status {sample.status}: {' '.join(tail)}"
        key = workloads.digest(sample.stdout)
        if key not in self.verdicts:
            self.verdicts[key] = workloads.check(self.inv, sample.stdout)
        return self.verdicts[key]

    def record(self, sample, reason=None):
        self.attempted += 1
        reason = reason or self.verdict(sample)
        if reason:
            self.failures.append(reason)


def repeat(one, seconds):
    """Call `one` (returning its duration) until the next call would end
    after `seconds`; at least once."""
    start = perf_counter()
    longest = 0.0
    while True:
        longest = max(longest, one())
        if perf_counter() - start + longest > seconds:
            return


def end_to_end(inv, checker, seconds, tmp, probes):
    setup = [spawn(["setup", *inv.argv], tmp) for _ in range(probes)]
    broken = [s for s in setup if s.status != 0]
    if broken:
        sys.exit(f"perfbench: setup probe exited {broken[0].status}: "
                 f"{broken[0].stderr.decode(errors='replace').strip()}")
    samples = []

    def one():
        sample = spawn(["run", *inv.argv], tmp)
        checker.record(sample)
        samples.append(sample)
        return sample.wall_s

    repeat(one, seconds)
    return {
        "wall_s": [s.wall_s for s in samples],
        "peak_rss_mb": [s.peak_rss_mb for s in samples],
        "setup_s": [s.wall_s for s in setup],
    }


def per_layer(inv, checker, seconds, tmp):
    trace_path = tmp / "trace.json"
    values = {name: [] for name in layers.UNITS}
    plain_walls, traced_walls = [], []
    missing = set()

    def one():
        plain = spawn(["run", *inv.argv], tmp)
        checker.record(plain)
        trace_path.unlink(missing_ok=True)
        traced = spawn(["trace", str(trace_path), *inv.argv], tmp)
        same = traced.stdout == plain.stdout
        checker.record(traced, None if same else "traced stdout differs from untraced")
        plain_walls.append(plain.wall_s)
        traced_walls.append(traced.wall_s)
        if traced.status == 0 and trace_path.exists():
            doc = json.loads(trace_path.read_text())
            missing.update(doc["missing"])
            for name, value in doc["metrics"].items():
                values[name].append(value)
            values["cli.stdout_bytes"].append(len(plain.stdout))
        return plain.wall_s + traced.wall_s

    repeat(one, seconds)
    if plain_walls:
        overhead = statistics.median(traced_walls) / statistics.median(plain_walls) - 1
        values["trace.overhead_frac"] = [overhead]
    for name in sorted(missing):
        print(f"missing hook: {name}")
    return values


def context(args, inv, probes):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "argv": list(inv.argv),
        "setup_probes": 0 if args.trace else probes,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
    }


def src_digest():
    """SHA-256 over the paths and bytes of the package's source files."""
    h = hashlib.sha256()
    for path in sorted((SRC / "partpoly").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit():
    """HEAD of the checkout, or None when it is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for tests")
    args = parser.parse_args(argv)
    if not (SRC / "partpoly" / "cli.py").is_file():
        sys.exit(f"perfbench: {SRC / 'partpoly' / 'cli.py'} not found; "
                 "run from the root of a partpoly checkout")

    inv = workloads.invocation(args.workload, args.seed, args.smoke)
    probes = SMOKE_SETUP_PROBES if args.smoke else SETUP_PROBES
    checker = Checker(inv)
    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        spawn(["setup", *inv.argv], tmp)  # compiles the package's bytecode
        if args.trace:
            values = per_layer(inv, checker, args.seconds, tmp)
            units = layers.UNITS
        else:
            values = end_to_end(inv, checker, args.seconds, tmp, probes)
            units = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
    finally:
        shutil.rmtree(tmp)

    print("context: " + json.dumps(context(args, inv, probes)))
    metrics = {}
    for name, unit in units.items():
        samples = values[name]
        value = statistics.median(samples) if samples else 0
        metrics[name] = {"value": value, "unit": unit}
        spread = f", min {min(samples):.6g}, max {max(samples):.6g}" if samples else ""
        shown = value if isinstance(value, int) else f"{value:.6g}"
        print(f"{name} = {shown} {unit} (median of {len(samples)}{spread})")
    failed = len(checker.failures)
    print(f"failed_frac = {failed / checker.attempted:.6g} "
          f"({failed} of {checker.attempted} calls)")
    for reason in sorted(set(checker.failures)):
        print(f"failure: {reason}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": checker.attempted,
        "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    # On SIGTERM, unwind so that the running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    main()
