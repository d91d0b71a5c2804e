"""Workloads of the partpoly benchmark and the checks on their output.

Each workload is one `partpoly` CLI call with the paper's parameters; only
the density target depends on the seed.  A run's output is accepted when it
matches the SHA-256 digest pinned from the seed implementation and passes a
check that re-derives the result by a route independent of the package:
closed forms, an enumerator of its own, or the pentagonal-number recurrence.
"""

import hashlib
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction

NAMES = ("scan", "collide", "density", "count")

# parse_rational rejects "1/10^30" (the CLI exits 1), so the tolerance is
# spelled out in full.
DENSITY_EPSILON = Fraction(1, 10**30)
SMOKE_DENSITY_EPSILON = Fraction(1, 10**6)

# The density target is one of these many points of a narrow band starting
# at 10^-5 (bracket index s near 150,000, 99 steps), chosen by the seed.
DENSITY_TARGETS = 16


@dataclass(frozen=True)
class Invocation:
    """One CLI call: its arguments and what the output check needs."""

    workload: str
    argv: tuple
    params: dict

    @property
    def key(self):
        return " ".join(self.argv)


def _rational(q):
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def density_target(seed):
    k = random.Random(seed).randrange(DENSITY_TARGETS)
    return Fraction(100_000 + 50 * k, 10**10)


def invocation(workload, seed, smoke=False):
    """The CLI call for `workload`; `smoke` selects tiny sizes for tests."""
    if workload == "scan":
        max_n = 10 if smoke else 150
        argv = ("conjecture", "--max-n", str(max_n), "--format", "json")
        params = {"max_n": max_n}
    elif workload == "collide":
        n, length, order = (12, 3, 2) if smoke else (60, 5, 3)
        argv = ("collide", "--n", str(n), "--length", str(length),
                "--order", str(order), "--format", "json")
        params = {"n": n, "length": length, "order": order}
    elif workload == "density":
        target = Fraction(1, 3) if smoke else density_target(seed)
        epsilon = SMOKE_DENSITY_EPSILON if smoke else DENSITY_EPSILON
        argv = ("density", "--target", _rational(target),
                "--epsilon", _rational(epsilon), "--format", "json")
        params = {"target": target, "epsilon": epsilon}
    elif workload == "count":
        n = 50 if smoke else 3000
        argv = ("count", "--n", str(n))
        params = {"n": n}
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return Invocation(workload, argv, params)


def digest(data):
    return hashlib.sha256(data).hexdigest()


def check(inv, stdout):
    """None when `stdout` (bytes) is the correct output of `inv`, else the
    reason it is not."""
    pinned = PINNED.get(inv.key)
    if pinned is None:
        return f"no pinned digest for {inv.key!r}"
    try:
        reason = _CHECKS[inv.workload](stdout, **inv.params)
    except (ValueError, KeyError, TypeError, IndexError, ZeroDivisionError) as exc:
        reason = f"unparsable output: {exc!r}"
    if reason is None and digest(stdout) != pinned:
        reason = "stdout differs from the pinned digest"
    return reason


# --- scan -----------------------------------------------------------------

def avg2_closed_form(n):
    """Avg(n, 2) = (H_n − 1 + [n even]·2/(n+2)) / (2⌊n/2⌋)."""
    base = sum(Fraction(1, k) for k in range(2, n + 1))
    if n % 2 == 0:
        base += Fraction(2, n + 2)
    return base / (2 * (n // 2))


def check_scan(stdout, max_n):
    doc = json.loads(stdout)
    if doc["max_n"] != max_n or len(doc["reports"]) != max_n:
        return "wrong number of reports"
    if doc["verdict"] is not True:
        return "verdict is not monotone"
    for n, report in enumerate(doc["reports"], start=1):
        values = [Fraction(v) for v in report["values"]]
        if report["n"] != n or len(values) != n:
            return f"n={n}: wrong report shape"
        if not report["monotone"] or report["first_violation"] is not None:
            return f"n={n}: report not monotone"
        if any(a > b for a, b in zip(values, values[1:])):
            return f"n={n}: values decrease"
        if values[0] != Fraction(1, n + 1):
            return f"n={n}: Avg(n,1) != 1/(n+1)"
        if values[-1] != Fraction(1, 2):
            return f"n={n}: Avg(n,n) != 1/2"
        if n >= 2 and values[1] != avg2_closed_form(n):
            return f"n={n}: Avg(n,2) != closed form"
    return None


# --- collide --------------------------------------------------------------

def _partitions(n, length, max_part):
    # Nonincreasing part lists of n with `length` parts, none above max_part.
    if length == 0:
        if n == 0:
            yield ()
        return
    for first in range(min(n - length + 1, max_part), 0, -1):
        if first * length < n:
            break
        for rest in _partitions(n - first, length - 1, first):
            yield (first,) + rest


def _mults(parts):
    mults = [0] * max(parts)
    for p in parts:
        mults[p - 1] += 1
    return tuple(mults)


def _moments(mults, order):
    return tuple(
        sum(i**k * m for i, m in enumerate(mults, start=1))
        for k in range(order + 1)
    )


def check_collide(stdout, n, length, order):
    doc = json.loads(stdout)
    if (doc["n"], doc["length"], doc["order"]) != (n, length, order):
        return "header does not echo the arguments"
    groups = [
        [tuple(int(m) for m in p["multiplicities"]) for p in g]
        for g in doc["groups"]
    ]
    for g in groups:
        if len(g) < 2 or len(set(g)) != len(g):
            return "group members are not distinct or fewer than two"
        keys = {_moments(m, order) for m in g}
        if len(keys) != 1:
            return "group members differ in size, length or moments"
        moments = keys.pop()
        if moments[0] != length or moments[1] != n:
            return "group members have the wrong size or length"
    # f^(d)(1) = Σ_j s(d, j)·M_j with a unitriangular Stirling matrix, so
    # equal profile prefixes through `order` are equal moments M_0..M_order.
    buckets = {}
    for parts in _partitions(n, length, n):
        mults = _mults(parts)
        buckets.setdefault(_moments(mults, order), set()).add(mults)
    expected = {frozenset(g) for g in buckets.values() if len(g) >= 2}
    if {frozenset(g) for g in groups} != expected or len(groups) != len(expected):
        return "groups differ from the moment grouping of all partitions"
    return None


# --- density --------------------------------------------------------------

def _alpha_integral(s):
    return (Fraction(1, 2) + Fraction(s - 1, s + 1)) / s


def _beta_integral(s):
    return (Fraction(s - 1, 2) + Fraction(1, s + 1)) / s


def check_density(stdout, target, epsilon):
    doc = json.loads(stdout)
    if Fraction(doc["target"]) != target or Fraction(doc["epsilon"]) != epsilon:
        return "target or epsilon not echoed"
    s = doc["start_index"]
    a, b = (Fraction(q) for q in doc["interval"])
    if (a, b) != (_alpha_integral(s), _beta_integral(s)) or not a < target < b:
        return "interval is not the edge-partition bracket around the target"
    if s > 2 and _alpha_integral(s - 1) < target < _beta_integral(s - 1):
        return "start_index is not the smallest bracketing s"
    width = b - a
    lo, hi = a, b
    steps = doc["steps"]
    for r, step in enumerate(steps, start=1):
        value = Fraction(step["integral"])
        bound = Fraction(step["error_bound"])
        if step["step"] != r or bound != width / 2**r:
            return f"step {r}: error_bound is not (b-a)/2^r"
        if value != (lo + hi) / 2:
            return f"step {r}: integral is not the bracket midpoint"
        summary = step["partition"]
        if (summary["largest_part"], summary["support_size"]) != (s, 2):
            return f"step {r}: partition is not built from the edge partitions"
        if abs(summary["length_log2"] - (r + math.log2(s))) > 1e-5:
            return f"step {r}: partition length is not 2^r·s"
        last = r == len(steps)
        if (value == target or bound < epsilon) != last:
            return f"step {r}: search stops at the wrong step"
        if target < value:
            hi = value
        else:
            lo = value
    achieved = Fraction(doc["achieved_error"])
    if not steps or achieved != abs(value - target) or not achieved < epsilon:
        return "achieved_error is wrong or not below epsilon"
    if doc["result"] != steps[-1]["partition"]:
        return "result is not the last step's partition"
    return None


# --- count ----------------------------------------------------------------

def pentagonal_partition_count(n):
    """p(n) by Euler's pentagonal-number recurrence."""
    p = [1] + [0] * n
    for m in range(1, n + 1):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            if g1 > m:
                break
            sign = 1 if k % 2 else -1
            total += sign * p[m - g1]
            g2 = g1 + k
            if g2 <= m:
                total += sign * p[m - g2]
            k += 1
        p[m] = total
    return p[n]


def check_count(stdout, n):
    lines = stdout.decode().splitlines()
    if len(lines) != 2 or lines[0].split() != ["n", "length", "count"]:
        return "not a one-row count table"
    row = lines[1].split()
    if len(row) != 2 or row[0] != str(n):
        return "row does not echo n with an empty length"
    if int(row[1]) != pentagonal_partition_count(n):
        return "count differs from the pentagonal recurrence"
    return None


_CHECKS = {
    "scan": check_scan,
    "collide": check_collide,
    "density": check_density,
    "count": check_count,
}

# SHA-256 of each call's stdout at the seed implementation, keyed by the
# CLI arguments.
PINNED = {
    "conjecture --max-n 10 --format json":
        "165f058264e29d30d94b943dfa1d520c7a7b7e9d9d23b1deeebab612d91f0e5d",
    "collide --n 12 --length 3 --order 2 --format json":
        "5d5794924ad760118a29c33b6540dea4cc110d32033a2e9473a5ca5355cad7ff",
    "density --target 1/3 --epsilon 1/1000000 --format json":
        "e46f1ec110fabc547689d4cda007da67f85911e0185d18a7419f4adc666ddb8c",
    "count --n 50":
        "264eb0cfa354fc94e0083ff1d5cd6574b47ab71ddd063de8c277a196ba98888c",
    "conjecture --max-n 150 --format json":
        "e3647a3a0ea94bbc3ae25d0d70e726777e52d16a138a5bd57a66dc717d8cfd67",
    "collide --n 60 --length 5 --order 3 --format json":
        "453eabfea2bbb9f3f608da261e57c18967f9a3dbee8e0192f7a6e6126bfc814d",
    "count --n 3000":
        "83e8e2219a2ff1164db896faa3792cc008eaa7a7f8433f6bcd9922ad448b891f",
    "density --target 503/50000000 --epsilon 1/1000000000000000000000000000000 --format json":
        "924a13bbd09be063fa85165474671196a614a9b5cd248067fdb863c543777b38",
    "density --target 501/50000000 --epsilon 1/1000000000000000000000000000000 --format json":
        "9779ce3399f0d0bc59c3f9a2d1bbb526a9301f2dbb2828cf9dc9d1fa6913970e",
    "density --target 2001/200000000 --epsilon 1/1000000000000000000000000000000 --format json":
        "dc0f8d417917f5bf5d26e05591f7d2496963980eeaf301747969498cb6288e59",
    "density --target 2007/200000000 --epsilon 1/1000000000000000000000000000000 --format json":
        "f6a7a5329d7b1684a1b55e14d6d256812055719c6adeaff67ff10a74f1340285",
    "density --target 251/25000000 --epsilon 1/1000000000000000000000000000000 --format json":
        "db902c78b6034e9711119c33198810f62fc63d2b16a016da201b32f44c6b0b18",
    "density --target 1001/100000000 --epsilon 1/1000000000000000000000000000000 --format json":
        "ccc4d4c78b34ae1f7fe2808e9edad0e24efcd4a7d6b5ff69be43ac241db3024a",
    "density --target 201/20000000 --epsilon 1/1000000000000000000000000000000 --format json":
        "c9a4021a5b6d3b6c92f67759b10533601c5734a4e430082dcbf0ac65686ead4a",
    "density --target 1007/100000000 --epsilon 1/1000000000000000000000000000000 --format json":
        "f15261c3b4db264ba0b509663a5543a86d330c5f8e93a286314c0e4e1d45b3aa",
    "density --target 403/40000000 --epsilon 1/1000000000000000000000000000000 --format json":
        "d8a66b317b7c7a926275c9405cadb49921c23bc7002355e3186a0e4c90282741",
    "density --target 2003/200000000 --epsilon 1/1000000000000000000000000000000 --format json":
        "a1fedbaad1246e41b9cdaaf7b97ba14bda1c5595a8d332626a1823355f3af89d",
    "density --target 1003/100000000 --epsilon 1/1000000000000000000000000000000 --format json":
        "1cf46a6caaf84ffc19aaab3b3ea02cbdc310fcad601e236fbb3e1568dca13a2a",
    "density --target 2011/200000000 --epsilon 1/1000000000000000000000000000000 --format json":
        "51d2c223827ec92926afc83ead0768fc45c77e97e63dcd8c32d09220578a476d",
    "density --target 2013/200000000 --epsilon 1/1000000000000000000000000000000 --format json":
        "170250eec41bb81460afa8c8ba92f4e83190b698be1d63515aed569847e6a474",
    "density --target 401/40000000 --epsilon 1/1000000000000000000000000000000 --format json":
        "4c715daa3933196812cdda67d19be0bb0b3d32f2e1cecdbc11b5033e44754b4b",
    "density --target 2009/200000000 --epsilon 1/1000000000000000000000000000000 --format json":
        "9609401fd9740efbdb2f9a994cd937f1e8cb2e7660287700bc9ad56cdbb8928e",
    "density --target 1/100000 --epsilon 1/1000000000000000000000000000000 --format json":
        "b76ebe954bef6fa4cb3905428d72a80bc9421c606f76b97812aa541c8a9f0b4e",
}
