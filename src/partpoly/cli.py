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
    derivative_profile,
    derived_partition,
    diff,
    poly_of,
)
from .density import approximate
from .errors import DomainError
from .exact import format_rational, parse_rational, rational_to_decimal
from .integrals import integral
from .partitions import Partition, count_partitions, stats
from .search import collision_search


def _partition_from_args(args):
    if args.parts is not None:
        return Partition.from_parts(
            [int(p) for p in args.parts.split(",") if p.strip()]
        )
    return Partition(int(m) for m in args.mults.split(",") if m.strip())


def _add_partition_args(sub):
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--parts", help="comma-separated part list, e.g. 5,2,2,1"
    )
    group.add_argument(
        "--mults", help="comma-separated multiplicities m_1,m_2,..., e.g. 1,2,0,0,1"
    )


def _freq_string(partition):
    if partition.is_empty:
        return "<>"
    inner = ",".join(
        f"{i}^{m}"
        for i, m in enumerate(partition.multiplicities, start=1)
        if m > 0
    )
    return f"<{inner}>"


def _log2_int(n):
    # math.log2 overflows for huge ints; scale by the bit length first
    bl = n.bit_length()
    if bl <= 900:
        return math.log2(n)
    return (bl - 1) + math.log2(n / (1 << (bl - 1)))


def _emit(rows, doc, args, out):
    """Write `rows` (list of dicts, shared keys) as table or CSV, or `doc`
    as JSON.  Exact values are identical across formats by construction."""
    if args.format == "json":
        json.dump(doc, out, indent=2)
        out.write("\n")
        return
    if not rows:
        return
    keys = list(rows[0].keys())
    if args.format == "csv":
        writer = csv.writer(out)
        writer.writerow(keys)
        for row in rows:
            writer.writerow([row[k] for k in keys])
        return
    widths = {
        k: max(len(k), max(len(str(r[k])) for r in rows)) for k in keys
    }
    out.write("  ".join(k.ljust(widths[k]) for k in keys).rstrip() + "\n")
    for row in rows:
        out.write(
            "  ".join(str(row[k]).ljust(widths[k]) for k in keys).rstrip()
            + "\n"
        )


def _cmd_stats(args, out):
    p = _partition_from_args(args)
    st = stats(p)
    row = {
        "partition": _freq_string(p),
        "length": st.length,
        "size": st.size,
        "largest_part": st.largest_part,
        "norm": p.norm(),
        "supernorm": p.supernorm(),
    }
    doc = dict(row, partition=p.to_json())
    _emit([row], doc, args, out)


def _cmd_poly(args, out):
    p = _partition_from_args(args)
    poly = poly_of(p)
    rows = [
        {"degree": i, "coefficient": c}
        for i, c in enumerate(poly.coefficients)
    ]
    _emit(rows, poly.to_json(), args, out)


def _cmd_derivatives(args, out):
    p = _partition_from_args(args)
    x = parse_rational(args.at)
    k = p.largest_part
    orders = range(k + 1) if args.order is None else [args.order]
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
    doc = {
        "partition": p.to_json(),
        "at": format_rational(x),
        "values": [
            {"order": r["order"], "value": r["value"], "decimal": r["decimal"]}
            for r in rows
        ],
    }
    _emit(rows, doc, args, out)


def _cmd_derived_seq(args, out):
    p = _partition_from_args(args)
    rows = []
    seq = []
    for d in range(p.largest_part + 1):
        dp = derived_partition(p, d)
        rows.append(
            {
                "order": d,
                "partition": _freq_string(dp),
                "length": dp.length,
                "size": dp.size,
            }
        )
        seq.append(
            {
                "order": d,
                "partition": dp.to_json(),
                "length": str(dp.length),
                "size": str(dp.size),
            }
        )
    _emit(rows, {"partition": p.to_json(), "sequence": seq}, args, out)


def _cmd_integral(args, out):
    p = _partition_from_args(args)
    value = integral(p)
    row = {
        "integral": format_rational(value),
        "decimal": rational_to_decimal(value, args.decimal_digits),
    }
    _emit([row], dict(row, partition=p.to_json()), args, out)


def _cmd_avg(args, out):
    value = avg(args.n, args.length)
    row = {
        "n": args.n,
        "length": args.length,
        "avg_exact": format_rational(value),
        "avg_decimal": rational_to_decimal(value, args.decimal_digits),
        "p_n_l": count_partitions(args.n, args.length),
    }
    _emit([row], dict(row, p_n_l=str(row["p_n_l"])), args, out)


def _avg_table_rows(report, digits):
    rows = []
    for l, value in enumerate(report.values, start=1):
        rows.append(
            {
                "n": report.n,
                "length": l,
                "avg_exact": format_rational(value),
                "avg_decimal": rational_to_decimal(value, digits),
                "p_n_l": count_partitions(report.n, l),
            }
        )
    return rows


def _cmd_avg_table(args, out):
    report = avg_table(args.n)
    rows = _avg_table_rows(report, args.decimal_digits)
    doc = {
        "n": report.n,
        "monotone": report.monotone,
        "first_violation": report.first_violation,
        "values": [dict(r, p_n_l=str(r["p_n_l"])) for r in rows],
    }
    _emit(rows, doc, args, out)


def _cmd_conjecture(args, out):
    def progress(n, n_max):
        print(f"n={n}/{n_max}", file=sys.stderr)

    reports = check_conjecture(args.max_n, jobs=args.jobs, progress=progress)
    rows = [
        {
            "n": r.n,
            "monotone": r.monotone,
            "first_violation": "" if r.first_violation is None else r.first_violation,
        }
        for r in reports
    ]
    verdict = all(r.monotone for r in reports)
    doc = {
        "max_n": args.max_n,
        "verdict": verdict,
        "reports": [
            {
                "n": r.n,
                "monotone": r.monotone,
                "first_violation": r.first_violation,
                "values": [format_rational(v) for v in r.values],
            }
            for r in reports
        ],
    }
    _emit(rows, doc, args, out)
    if args.format != "json":
        out.write(f"verdict: {'monotone' if verdict else 'VIOLATION FOUND'}\n")


def _step_summary(step):
    # u·α(s) ⊕ v·β(s) has parts 1 and s only, and length (u + v)·s.
    s = step.start_index
    return {
        "largest_part": s,
        "length_log2": round(_log2_int(sum(step.weights) * s), 6),
        "support_size": 2,
    }


def _cmd_density(args, out):
    c = parse_rational(args.target)
    eps = parse_rational(args.epsilon)
    trace = approximate(c, eps)
    rows = [
        {
            "step": s.index,
            "integral": format_rational(s.integral),
            "error_bound": format_rational(s.error_bound),
            "largest_part": s.start_index,
            "support_size": 2,
        }
        for s in trace.steps
    ]
    doc = {
        "target": format_rational(trace.target),
        "epsilon": format_rational(trace.epsilon),
        "start_index": trace.start_index,
        "interval": [format_rational(q) for q in trace.interval],
        "steps": [
            {
                "step": s.index,
                "integral": format_rational(s.integral),
                "error_bound": format_rational(s.error_bound),
                "partition": _step_summary(s),
            }
            for s in trace.steps
        ],
        "achieved_error": format_rational(trace.achieved_error),
        "result": _step_summary(trace.steps[-1]),
    }
    if args.full_partition:
        doc["result_partition"] = trace.result.to_json()
    _emit(rows, doc, args, out)
    if args.format != "json":
        out.write(
            f"achieved_error: {format_rational(trace.achieved_error)}"
            f" (= {rational_to_decimal(trace.achieved_error, args.decimal_digits)})\n"
        )


def _cmd_collide(args, out):
    report = collision_search(args.n, args.length, args.order)
    rows = [
        {
            "group": gi,
            "partition": _freq_string(p),
            "profile_prefix": ",".join(
                str(v) for v in derivative_profile(p)[: args.order + 1]
            ),
        }
        for gi, group in enumerate(report.groups)
        for p in group
    ]
    _emit(rows, report.to_json(), args, out)
    if args.format != "json" and not report.groups:
        out.write("no collisions\n")


def _cmd_count(args, out):
    value = count_partitions(args.n, args.length)
    row = {"n": args.n, "length": "" if args.length is None else args.length, "count": value}
    doc = {"n": args.n, "length": args.length, "count": str(value)}
    _emit([row], doc, args, out)


def _nonnegative_int(text):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


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
        type=_nonnegative_int,
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

    p = sub.add_parser("stats", help="length, size, largest part, norm, supernorm")
    _add_partition_args(p)
    _global_flags(p, suppress=True)
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("poly", help="partition polynomial coefficients")
    _add_partition_args(p)
    _global_flags(p, suppress=True)
    p.set_defaults(func=_cmd_poly)

    p = sub.add_parser("derivatives", help="derivative values at a point")
    _add_partition_args(p)
    p.add_argument("--at", default="1", help="evaluation point (rational, default 1)")
    p.add_argument("--order", type=int, default=None, help="single order instead of 0..k")
    _global_flags(p, suppress=True)
    p.set_defaults(func=_cmd_derivatives)

    p = sub.add_parser("derived-seq", help="the derived-partition sequence")
    _add_partition_args(p)
    _global_flags(p, suppress=True)
    p.set_defaults(func=_cmd_derived_seq)

    p = sub.add_parser("integral", help="exact integral of the normalized polynomial")
    _add_partition_args(p)
    _global_flags(p, suppress=True)
    p.set_defaults(func=_cmd_integral)

    p = sub.add_parser("avg", help="average integral over partitions of n with given length")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--length", type=int, required=True)
    _global_flags(p, suppress=True)
    p.set_defaults(func=_cmd_avg)

    p = sub.add_parser("avg-table", help="average integrals for every length 1..n")
    p.add_argument("--n", type=int, required=True)
    _global_flags(p, suppress=True)
    p.set_defaults(func=_cmd_avg_table)

    p = sub.add_parser("conjecture", help="monotonicity scan of the average integrals")
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--jobs", type=int, default=1)
    _global_flags(p, suppress=True)
    p.set_defaults(func=_cmd_conjecture)

    p = sub.add_parser("density", help="construct a partition with prescribed integral")
    p.add_argument("--target", required=True, help="target integral, e.g. 1/3")
    p.add_argument("--epsilon", required=True, help="error tolerance, e.g. 1/1000000")
    p.add_argument(
        "--full-partition",
        action="store_true",
        help="include the full result partition in JSON output",
    )
    _global_flags(p, suppress=True)
    p.set_defaults(func=_cmd_density)

    p = sub.add_parser("collide", help="derivative-profile collision search")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--jobs", type=int, default=1, help="accepted for symmetry; search is single-pass")
    _global_flags(p, suppress=True)
    p.set_defaults(func=_cmd_collide)

    p = sub.add_parser("count", help="partition counts p(n) and p(n, length)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--length", type=int, default=None)
    _global_flags(p, suppress=True)
    p.set_defaults(func=_cmd_count)

    return parser


def run(argv=None, out=None):
    """Parse argv and dispatch; returns the process exit status."""
    parser = build_parser()
    args = parser.parse_args(argv)
    out = out or sys.stdout
    try:
        args.func(args, out)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def main():
    sys.exit(run())
