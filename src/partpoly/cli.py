"""Command-line front end.

Every module is exposed as a subcommand with table (default), CSV, and JSON
output.  All numeric output is exact; decimal columns are annotations
rounded to --decimal-digits places.  Exit codes: 0 success, 1 domain error,
2 usage error.
"""

import argparse
import csv
import json
import math
import sys

from .averages import avg, avg_table, check_conjecture
from .calculus import (
    deriv_recursive_eval,
    derived_partition,
    diff,
    poly_of,
)
from .density import approximate
from .errors import DomainError
from .exact import format_rational, parse_rational, rational_to_decimal
from .integrals import integral
from .partitions import CountTable, Partition, count_partitions
from .search import collision_search

# Python refuses int -> str conversions past 4300 digits by default (see
# sys.set_int_max_str_digits), so more decimal places could never be printed.
MAX_DECIMAL_DIGITS = 4300

# `density --full-partition` writes one multiplicity for each part size
# 1..s, about 11 bytes of JSON and 80 bytes of memory apiece, so a larger
# s is refused before the list is built (1/10^9 has s = 1,499,999,999).
MAX_FULL_PARTITION = 10 ** 6

# `count` refuses a call whose step estimate passes this: n^1.5 for p(n),
# (n − ℓ)·ℓ for p(n, ℓ), and (n − ℓ)^1.5 once ℓ >= n − ℓ.  p(46,000) is
# about 10^7 steps and takes 2 s; p(10^5) takes 12 s.
MAX_COUNT_STEPS = 10 ** 7

# `count` up to this n reads the CountTable triangle that `avg` reads (5,151
# cells at most), so the benchmark's smoke-size `count` still traces a table
# fill; past it the triangle grows as n² and count_partitions answers.
TABLE_COUNT_MAX_N = 100


def _int_list(text):
    try:
        return [int(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not a comma-separated list of integers: {text!r}"
        ) from None


def _decimal_digits(text):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    if value > MAX_DECIMAL_DIGITS:
        raise argparse.ArgumentTypeError(f"must be <= {MAX_DECIMAL_DIGITS}, got {value}")
    return value


def _partition(args):
    if args.parts is not None:
        return Partition.from_parts(args.parts)
    return Partition(args.mults)


def _emit(rows, doc, fmt, out):
    """Write `rows` (list of dicts, shared keys; None prints empty) as table
    or CSV, or `doc` as JSON.  Exact values are identical across formats by
    construction."""
    if fmt == "json":
        json.dump(doc, out, indent=2)
        out.write("\n")
    elif rows:
        keys = list(rows[0])
        lines = [keys] + [["" if r[k] is None else str(r[k]) for k in keys] for r in rows]
        if fmt == "csv":
            csv.writer(out).writerows(lines)
            return
        widths = [max(len(line[i]) for line in lines) for i in range(len(keys))]
        for line in lines:
            out.write("  ".join(c.ljust(w) for c, w in zip(line, widths)).rstrip() + "\n")


# Each handler takes the parsed arguments and returns (rows, doc, trailer):
# the table/CSV rows, the JSON document, and a closing line for table and
# CSV output or None.


def _cmd_stats(args):
    p = _partition(args)
    row = {
        "partition": str(p),
        "length": p.length,
        "size": p.size,
        "largest_part": p.largest_part,
        "norm": p.norm(),
        "supernorm": p.supernorm(),
    }
    return [row], dict(row, partition=p.to_json()), None


def _cmd_poly(args):
    poly = poly_of(_partition(args))
    rows = [
        {"degree": i, "coefficient": c}
        for i, c in enumerate(poly.coefficients)
    ]
    return rows, poly.to_json(), None


def _cmd_derivatives(args):
    p = _partition(args)
    x = parse_rational(args.at)
    orders = range(p.largest_part + 1) if args.order is None else [args.order]
    rows = []
    for d in orders:
        if x == 0:
            value = diff(poly_of(p), d).evaluate(0)
        else:
            value = deriv_recursive_eval(p, d, x)
        rows.append(
            {
                "order": d,
                "value": format_rational(value),
                "decimal": rational_to_decimal(value, args.decimal_digits),
            }
        )
    doc = {"partition": p.to_json(), "at": format_rational(x), "values": rows}
    return rows, doc, None


def _cmd_derived_seq(args):
    p = _partition(args)
    rows, seq = [], []
    for d in range(p.largest_part + 1):
        dp = derived_partition(p, d)
        rows.append(
            {"order": d, "partition": str(dp), "length": str(dp.length), "size": str(dp.size)}
        )
        seq.append(dict(rows[-1], partition=dp.to_json()))
    return rows, {"partition": p.to_json(), "sequence": seq}, None


def _cmd_integral(args):
    p = _partition(args)
    value = integral(p)
    row = {
        "integral": format_rational(value),
        "decimal": rational_to_decimal(value, args.decimal_digits),
    }
    return [row], dict(row, partition=p.to_json()), None


def _avg_row(n, length, value, digits, table):
    return {
        "n": n,
        "length": length,
        "avg_exact": format_rational(value),
        "avg_decimal": rational_to_decimal(value, digits),
        "p_n_l": str(table.count(n, length)),
    }


def _cmd_avg(args):
    table = CountTable()
    value = avg(args.n, args.length, table)
    row = _avg_row(args.n, args.length, value, args.decimal_digits, table)
    return [row], row, None


def _cmd_avg_table(args):
    table = CountTable()
    report = avg_table(args.n, table)
    rows = [
        _avg_row(report.n, l, value, args.decimal_digits, table)
        for l, value in enumerate(report.values, start=1)
    ]
    doc = {
        "n": report.n,
        "monotone": report.monotone,
        "first_violation": report.first_violation,
        "values": rows,
    }
    return rows, doc, None


def _cmd_conjecture(args):
    def progress(n, n_max):
        print(f"n={n}/{n_max}", file=sys.stderr)

    reports = check_conjecture(args.max_n, jobs=args.jobs, progress=progress)
    rows = [
        {"n": r.n, "monotone": r.monotone, "first_violation": r.first_violation}
        for r in reports
    ]
    verdict = all(r.monotone for r in reports)
    doc = {
        "max_n": args.max_n,
        "verdict": verdict,
        "reports": [
            dict(row, values=[format_rational(v) for v in r.values])
            for row, r in zip(rows, reports)
        ],
    }
    return rows, doc, f"verdict: {'monotone' if verdict else 'VIOLATION FOUND'}"


def _step_summary(step):
    # u·α(s) ⊕ v·β(s) has parts 1 and s only, and length (u + v)·s.
    s = step.start_index
    return {
        "largest_part": s,
        "length_log2": round(math.log2(sum(step.weights) * s), 6),
        "support_size": 2,
    }


def _cmd_density(args):
    trace = approximate(parse_rational(args.target), parse_rational(args.epsilon))
    if args.full_partition and trace.start_index > MAX_FULL_PARTITION:
        raise DomainError(
            f"--full-partition would list {trace.start_index} multiplicities;"
            f" the limit is {MAX_FULL_PARTITION}"
        )
    rows, steps = [], []
    for s in trace.steps:
        head = {
            "step": s.index,
            "integral": format_rational(s.integral),
            "error_bound": format_rational(s.error_bound),
        }
        rows.append(dict(head, largest_part=s.start_index, support_size=2))
        steps.append(dict(head, partition=_step_summary(s)))
    doc = {
        "target": format_rational(trace.target),
        "epsilon": format_rational(trace.epsilon),
        "start_index": trace.start_index,
        "interval": [format_rational(q) for q in trace.interval],
        "steps": steps,
        "achieved_error": format_rational(trace.achieved_error),
        "result": _step_summary(trace.steps[-1]),
    }
    if args.full_partition:
        doc["result_partition"] = trace.result.to_json()
    decimal = rational_to_decimal(trace.achieved_error, args.decimal_digits)
    return rows, doc, f"achieved_error: {doc['achieved_error']} (= {decimal})"


def _cmd_collide(args):
    report = collision_search(args.n, args.length, args.order)
    rows = [
        {"group": gi, "partition": str(p), "profile_prefix": ",".join(map(str, key))}
        for gi, (key, group) in enumerate(zip(report.keys, report.groups))
        for p in group
    ]
    return rows, report.to_json(), None if report.groups else "no collisions"


def _cmd_count(args):
    n, length = args.n, args.length
    m = n if length is None else n - length
    steps = m * length if length is not None and length < m else m * math.isqrt(max(m, 0))
    if steps > MAX_COUNT_STEPS:
        raise DomainError(f"count would take about {steps} steps; the limit is {MAX_COUNT_STEPS}")
    small = 0 <= n <= TABLE_COUNT_MAX_N
    count = CountTable().count(n, length) if small else count_partitions(n, length)
    row = {"n": n, "length": length, "count": str(count)}
    return [row], row, None


# The required, mutually exclusive --parts | --mults pair: (flag, help).
PARTITION = (
    ("--parts", "comma-separated part list, e.g. 5,2,2,1"),
    ("--mults", "comma-separated multiplicities m_1,m_2,..., e.g. 1,2,0,0,1"),
)

# name -> (handler, help, argument specs), specs in the order the usage
# line shows them.  A spec is PARTITION, a bare flag for a required integer,
# or (flag, add_argument keywords).
COMMANDS = {
    "stats": (_cmd_stats, "length, size, largest part, norm, supernorm", [PARTITION]),
    "poly": (_cmd_poly, "partition polynomial coefficients", [PARTITION]),
    "derivatives": (_cmd_derivatives, "derivative values at a point", [
        PARTITION,
        ("--at", {"default": "1", "help": "evaluation point (rational, default 1)"}),
        ("--order", {"type": int, "default": None, "help": "single order instead of 0..k"}),
    ]),
    "derived-seq": (_cmd_derived_seq, "the derived-partition sequence", [PARTITION]),
    "integral": (_cmd_integral, "exact integral of the normalized polynomial", [PARTITION]),
    "avg": (_cmd_avg, "average integral over partitions of n with given length",
            ["--n", "--length"]),
    "avg-table": (_cmd_avg_table, "average integrals for every length 1..n", ["--n"]),
    "conjecture": (_cmd_conjecture, "monotonicity scan of the average integrals",
                   ["--max-n", ("--jobs", {"type": int, "default": 1})]),
    "density": (_cmd_density, "construct a partition with prescribed integral", [
        ("--target", {"required": True, "help": "target integral, e.g. 1/3"}),
        ("--epsilon", {"required": True, "help": "error tolerance, e.g. 1/1000000"}),
        ("--full-partition",
         {"action": "store_true", "help": "include the full result partition in JSON output"}),
    ]),
    "collide": (_cmd_collide, "derivative-profile collision search",
                ["--n", "--length", "--order"]),
    "count": (_cmd_count, "partition counts p(n) and p(n, length)",
              ["--n", ("--length", {"type": int, "default": None})]),
}


def _global_flags(parser, suppress):
    # The same flags are accepted before or after the subcommand; the
    # subparser copies use SUPPRESS so they never clobber a value given
    # at the top level.
    parser.add_argument(
        "--format",
        choices=["table", "csv", "json"],
        default=argparse.SUPPRESS if suppress else "table",
        help="output format (default: table)",
    )
    parser.add_argument(
        "--decimal-digits",
        type=_decimal_digits,
        default=argparse.SUPPRESS if suppress else 12,
        metavar="K",
        help="places for decimal annotation columns (default: 12)",
    )


def build_parser():
    parser = argparse.ArgumentParser(
        prog="partpoly",
        description="Exact partition-polynomial calculator: derivatives, "
        "integrals, averages, density constructions, collision search.",
    )
    _global_flags(parser, suppress=False)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, specs) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for spec in specs:
            if spec is PARTITION:
                group = p.add_mutually_exclusive_group(required=True)
                for flag, flag_help in PARTITION:
                    group.add_argument(flag, type=_int_list, help=flag_help)
            elif isinstance(spec, str):
                p.add_argument(spec, type=int, required=True)
            else:
                p.add_argument(spec[0], **spec[1])
        _global_flags(p, suppress=True)
    return parser


def run(argv=None, out=None):
    """Parse argv and dispatch; returns the process exit status."""
    args = build_parser().parse_args(argv)
    out = out or sys.stdout
    try:
        rows, doc, trailer = COMMANDS[args.command][0](args)
        _emit(rows, doc, args.format, out)
        if trailer is not None and args.format != "json":
            out.write(trailer + "\n")
    except ValueError as exc:
        # DomainError is a ValueError.  The catch is wider than DomainError
        # on purpose: exact output too large to print (a rational or count
        # past 4300 digits) fails fast only through Python's int -> str limit,
        # which raises a plain ValueError.  With that limit lifted, `density
        # --target 1/3 --epsilon 1/10^5000` ran 16 s and wrote 128 MB of JSON.
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def main():
    sys.exit(run())
