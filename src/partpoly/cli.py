"""Command-line front end.

Every module is exposed as a subcommand with table (default), CSV, and JSON
output.  All numeric output is exact; decimal columns are annotations
rounded to --decimal-digits places.  Exit codes: 0 success, 1 domain error
or stdout closed early, 2 usage error.
"""

import argparse
import math
import os
import sys

from .averages import avg, avg_table, check_conjecture
from .calculus import (
    derivative_values, derived_partition, diff, evaluate, integral, poly_of,
)
from .density import approximate, plan
from .exact import (
    DomainError, format_rational, nth_prime, parse_rational, rational_to_decimal,
)
from .partitions import CountTable, Partition, count_partitions
from .search import collision_search

# Python refuses int -> str conversions past 4300 digits by default (see
# sys.set_int_max_str_digits), so more decimal places could never be printed.
MAX_DECIMAL_DIGITS = 4300
_PRINT_BOUND = 10 ** MAX_DECIMAL_DIGITS  # the least integer that cannot print

# A partition holds one multiplicity per part size 1..k, about 80 bytes of memory and 11
# of JSON apiece: `--parts` with a larger part is refused before the list is built, and
# `density --full-partition` with a larger s (1/10^9 has s = 1,499,999,999) before any
# step is.  `poly --parts 1000000` takes 2.6–3.0 s and 474 MB as a table, 1.2–1.5 s and
# 245 MB as CSV, 0.4–0.5 s and 92 MB as JSON (processes, 2-vCPU Xeon VM).  `integral` has
# no cheap check before its print refusal; Linux's 128 KiB cap on one argument bounds it
# (`--mults` with 60,000 ones: 3.5–4 s).
MAX_LARGEST_PART = 10 ** 6

# `derivatives --order d <= k` is one pass of k − d + 1 falling-factorial updates for a
# largest part k, so d·k over-estimates its work.  At 10^7: 20,000 ones at d = 500 take
# 0.34 s, k = 10^5 at d = 100 0.58 s, 3,000 ones at d = 2,000 0.12 s (then refused to
# print).  Evaluating adds k − d Fraction steps: k = 10^6 at d = 10: 3.7–4.5 s (same VM).
MAX_DERIVATIVE_STEPS = 10 ** 7

# 2^14285 > 10^4300 > 2^14284: a value of more bits than this cannot print.
# `stats` refuses a lower bound on the supernorm's bit length past it, and
# `derivatives --at p/q` one of K·⌊log2 max(|p|, q)⌋, where Horner's rule on the
# degree-K polynomial (K = k for all orders, k − d for `--order d`) makes values
# of about K·log2 max(|p|, q) bits, or a max(|p|, q)^K of more than
# MAX_DECIMAL_DIGITS digits, unless terms cancel or share factors with q.
MAX_VALUE_BITS = _PRINT_BOUND.bit_length() - 1

# `derived-seq` prints each m_i ≠ 0 in λ^(0..i−1), about k³ digits for k ones (800:
# 332 MB in 11.8 s, 459 MB RSS), so it refuses a bound on those digits past this first.
# The slowest allowed, m_1558 = 1 with m_700 = ⌊10^4299/700!⌋ (9.7·10^6), takes 1.7 s and
# 44 MB as a table, 2.2 s and 38 MB as JSON; `--parts 1558` (6.7·10^6) 0.8 s and 38 MB,
# 1.3–1.7 s and 34 MB (processes, 2-vCPU Xeon VM).
MAX_DERIVED_SEQ_DIGITS = 10 ** 7

# `count` refuses a call whose step estimate passes this: n^1.5 for p(n),
# (n − ℓ)·ℓ for p(n, ℓ), and (n − ℓ)^1.5 once ℓ >= n − ℓ.  10^7 steps take 0.61–0.65 s
# for p(46,000) and 0.70–0.82 s for p(10^5, 100); p(10^5) takes 2.1 s in-process.
MAX_COUNT_STEPS = 10 ** 7

# `avg`, `avg-table` and `conjecture` fill the CountTable triangle, (n+1)(n+2)/2
# ints of about 36 bytes: `avg --n 3000` fills 4.5·10^6 cells in 0.42–0.54 s and
# 161 MB.  `avg-table` then builds n profiles over one lcm (n = 1000: 0.61–0.82 s),
# and `conjecture` runs it for every n up to its bound (200: 0.97–1.09 s).
MAX_TABLE_CELLS = 5 * 10 ** 6
MAX_AVG_TABLE_N = 1000
MAX_CONJECTURE_N = 200

# `collide --order d < ℓ` keys each of the p(n, ℓ) partitions on orders 2..min(d, k) in
# about (min(d, k) − 1)·k Fraction steps, k <= n − ℓ + 1 its largest part (d >= ℓ
# answers at once).  Its refusal past p(n, ℓ)·(min(d, k) + 1)·k steps is conservative:
# `collide --n 60 --length 5 --order 3` is 1.18·10^6 steps and takes 0.70–0.84 s; the
# slowest allowed found, `--n 63 --length 5 --order 4`, 1.15–1.26 s (processes, same VM).
MAX_COLLIDE_STEPS = 2 * 10 ** 6

# `count` up to this n reads the CountTable triangle that `avg` reads (5,151
# cells at most), so the benchmark's smoke-size `count` still traces a table
# fill; past it the triangle grows as n² and count_partitions answers.
TABLE_COUNT_MAX_N = 100


def _int_list(text):
    try:
        return [int(x) for x in text.split(",")] if text.strip() else []
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not a comma-separated list of integers: {text!r}"
        ) from None


def _decimal_digits(text):
    """The --decimal-digits type: an integer in [0, MAX_DECIMAL_DIGITS]."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    if value > MAX_DECIMAL_DIGITS:
        raise argparse.ArgumentTypeError(f"must be <= {MAX_DECIMAL_DIGITS}, got {value}")
    return value


def _refuse_over(value, limit, message):
    """Refuse a call whose size estimate passes its limit, before any work; an
    estimate too long to print shows as the power of 2 at or below it."""
    if value > limit:
        if value >= _PRINT_BOUND:
            value = f"2^{value.bit_length() - 1}"
        raise DomainError(f"{message.format(value)}; the limit is {limit}")


def _refuse_unprintable(values, what="a result"):
    """Refuse exact values before any is formatted if one has a numerator or
    denominator of more than MAX_DECIMAL_DIGITS digits."""
    if any(abs(v.numerator) >= _PRINT_BOUND or v.denominator >= _PRINT_BOUND for v in values):
        raise DomainError(f"{what} would pass {MAX_DECIMAL_DIGITS} digits")


def _rational(text, flag):
    """Parse a rational option; the output prints it back, so it must print."""
    q = parse_rational(text)
    _refuse_unprintable([q], flag)
    return q


def _refuse_all_orders(p):
    """All orders print each i!·m_i, i <= k: f^(i)(0), λ^(i−1)'s count of ones,
    and a lower bound on f^(i)(x) at x >= 0 (an estimate below 0).  As i! <=
    k!·m_k, refuse at the first i!·max(m_i, 1) >= 10^MAX_DECIMAL_DIGITS: i = 1559
    at the latest.  Returns an upper bound on the digits of the multiplicities
    `derived-seq` prints: each m_i ≠ 0 appears in λ^(0), ..., λ^(i−1), each time
    as ((j + d)!/j!)·m_i <= i!·m_i, and log10(2) < 0.30103."""
    factorial, digits = 1, 0
    for i, m in enumerate(p.multiplicities, 1):
        factorial *= i
        value = factorial * max(m, 1)
        if value >= _PRINT_BOUND:
            raise DomainError(f"all orders would print {i}!·m_{i}, past {MAX_DECIMAL_DIGITS} digits")
        if m:
            digits += i * (value.bit_length() * 30103 // 100000 + 1)
    return digits


def _partition(args):
    if args.parts is not None:
        _refuse_over(max(args.parts, default=0), MAX_LARGEST_PART, "--parts has a part {}")
        return Partition.from_parts(args.parts)
    return Partition(args.mults)


def _partition_json(p):
    """A partition's JSON form, built by the encoder as it writes `p`."""
    return {"multiplicities": [str(m) for m in p.multiplicities]}


def _emit(rows, doc, fmt, out):
    """Write `rows` (list of dicts, shared keys; None prints empty) as table
    or CSV, or `doc` as JSON.  Either may hold a Partition: a cell prints
    str(p), JSON `_partition_json(p)`.  json and csv are imported only for
    their format, so a table run starts without them."""
    if fmt == "json":
        import json

        json.dump(doc, out, indent=2, default=_partition_json)
        out.write("\n")
    elif rows:
        keys = list(rows[0])
        cells = (["" if r[k] is None else str(r[k]) for k in keys] for r in rows)
        if fmt == "csv":  # no widths to find: each line is written as its cells are built
            import csv

            writer = csv.writer(out)
            writer.writerow(keys)
            writer.writerows(cells)
            return
        lines = [keys, *cells]
        widths = [max(len(line[i]) for line in lines) for i in range(len(keys))]
        for line in lines:
            out.write("  ".join(c.ljust(w) for c, w in zip(line, widths)).rstrip() + "\n")


# Each handler takes the parsed arguments and returns (rows, doc, trailer):
# the table/CSV rows, the JSON document, and a closing line for table and
# CSV output or None.


def _cmd_stats(args):
    p = _partition(args)
    # p_i >= 2^(bit_length(p_i) − 1), so this sum bounds log2(supernorm) from below
    bits = sum(
        m * (nth_prime(i).bit_length() - 1) for i, m in enumerate(p.multiplicities, 1) if m
    )
    _refuse_over(bits, MAX_VALUE_BITS, "the supernorm has at least {} bits")
    supernorm = p.supernorm()
    _refuse_unprintable([supernorm], "the supernorm")  # norm <= supernorm, as i <= p_i
    row = {
        "partition": p,
        "length": p.length,
        "size": p.size,
        "largest_part": p.largest_part,
        "norm": p.norm(),
        "supernorm": supernorm,
    }
    return [row], row, None


def _cmd_poly(args):
    coeffs = poly_of(_partition(args))
    if args.format == "json":  # build only the form it prints
        return None, {"coefficients": [str(c) for c in coeffs]}, None
    return [{"degree": i, "coefficient": c} for i, c in enumerate(coeffs)], None, None


def _cmd_derivatives(args):
    p = _partition(args)
    x = _rational(args.at, "--at")
    k, d = p.largest_part, args.order
    if d is None:
        _refuse_all_orders(p)
    elif d < 0:
        raise DomainError("derivative order must be nonnegative")
    elif d <= k:  # a higher order is 0 at once
        _refuse_over(d * k, MAX_DERIVATIVE_STEPS, "--order would take about {} steps")
    degree = max(k - (d or 0), 0)  # of f^(d), or of f itself for all orders
    base = max(abs(x.numerator), x.denominator)
    bits = degree * (base.bit_length() - 1)  # floored: 3^K reads as 2^K
    if bits <= MAX_VALUE_BITS and base ** degree >= _PRINT_BOUND:
        bits = (base ** degree).bit_length()  # > MAX_VALUE_BITS, as 2^14285 > 10^4300
    _refuse_over(bits, MAX_VALUE_BITS, "the value at --at would have about {} bits")
    values = derivative_values(p, x) if d is None else [evaluate(diff(poly_of(p), d), x)]
    _refuse_unprintable(values)
    rows = [
        {
            "order": d,
            "value": format_rational(value),
            "decimal": rational_to_decimal(value, args.decimal_digits),
        }
        for d, value in enumerate(values, d or 0)
    ]
    doc = {"partition": p, "at": format_rational(x), "values": rows}
    return rows, doc, None


def _cmd_derived_seq(args):
    p = _partition(args)
    digits = _refuse_all_orders(p)
    _refuse_over(digits, MAX_DERIVED_SEQ_DIGITS, "derived-seq would print up to {} digits")
    rows, dp = [], p
    for d in range(p.largest_part + 1):
        length, size = dp.length, dp.size
        _refuse_unprintable([size])  # size >= length; each m_i < 10^4300 already
        rows.append({"order": d, "partition": dp, "length": str(length), "size": str(size)})
        dp = derived_partition(dp, 1)
    return rows, {"partition": p, "sequence": rows}, None


def _cmd_integral(args):
    p = _partition(args)
    value = integral(p)
    _refuse_unprintable([value])
    row = {
        "integral": format_rational(value),
        "decimal": rational_to_decimal(value, args.decimal_digits),
    }
    return [row], dict(row, partition=p), None


def _avg_row(n, length, value, digits, table):
    return {
        "n": n,
        "length": length,
        "avg_exact": format_rational(value),
        "avg_decimal": rational_to_decimal(value, digits),
        "p_n_l": str(table.count(n, length)),
    }


def _cmd_avg(args):
    m = max(args.n, 0)
    _refuse_over((m + 1) * (m + 2) // 2, MAX_TABLE_CELLS, "avg would fill {} table cells")
    table = CountTable()
    value = avg(args.n, args.length, table)
    row = _avg_row(args.n, args.length, value, args.decimal_digits, table)
    return [row], row, None


def _cmd_avg_table(args):
    _refuse_over(args.n, MAX_AVG_TABLE_N, "avg-table --n is {}")
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
    _refuse_over(args.max_n, MAX_CONJECTURE_N, "conjecture --max-n is {}")

    def progress(n, n_max):
        print(f"n={n}/{n_max}", file=sys.stderr)

    reports = check_conjecture(args.max_n, progress=progress)
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
    c, epsilon = _rational(args.target, "--target"), _rational(args.epsilon, "--epsilon")
    # Every rational printed past the inputs, up to the last error bound and
    # achieved_error = |a + (b − a)·v/2^r − c|, has a denominator dividing
    # lcm(den(a), den(c), den(bound)): refuse one past the print limit before
    # the trace, which holds about r bits per step r.  A target with a
    # 4,200-digit denominator at `--epsilon 1/10^4000` ran 5.3 s into the print
    # limit; the largest allowed prints 185 MB in 6.6 s.  (An epsilon that could
    # not print itself, such as 1/10^5000, is refused as it is parsed.)
    s, (a, b), last = plan(c, epsilon)  # validates c and epsilon
    bound = (b - a) / 2 ** last
    _refuse_unprintable([math.lcm(a.denominator, c.denominator, bound.denominator)],
                        "the last error's denominator")
    full_partition = args.full_partition and args.format == "json"  # only JSON prints it
    if full_partition:
        _refuse_over(s, MAX_LARGEST_PART, "--full-partition would list {} multiplicities")
    trace = approximate(c, epsilon)
    rows, steps = [], []
    for step in trace.steps:
        head = {
            "step": step.index,
            "integral": format_rational(step.integral),
            "error_bound": format_rational(step.error_bound),
        }
        rows.append(dict(head, largest_part=step.start_index, support_size=2))
        steps.append(dict(head, partition=_step_summary(step)))
    doc = {
        "target": format_rational(trace.target),
        "epsilon": format_rational(trace.epsilon),
        "start_index": trace.start_index,
        "interval": [format_rational(q) for q in trace.interval],
        "steps": steps,
        "achieved_error": format_rational(trace.achieved_error),
        "result": _step_summary(trace.steps[-1]),
    }
    if full_partition:
        doc["result_partition"] = trace.result
    decimal = rational_to_decimal(trace.achieved_error, args.decimal_digits)
    return rows, doc, f"achieved_error: {doc['achieved_error']} (= {decimal})"


def _cmd_collide(args):
    n, length = args.n, args.length
    if 1 <= args.order < length <= n:  # else collision_search answers or refuses at once
        # p(n, ℓ) >= (n − ℓ) // 2 + 1 for ℓ >= 2 (the partitions of n − ℓ into
        # parts <= 2); refusing on that first leaves only cheap exact counts.
        k = n - length + 1
        side = (min(args.order, k) + 1) * k
        low = (n - length) // 2 + 1
        message = "collide would take about {} steps"
        _refuse_over(low * side, MAX_COLLIDE_STEPS, message)
        _refuse_over(count_partitions(n, length) * side, MAX_COLLIDE_STEPS, message)
    report = collision_search(n, length, args.order)
    rows = [
        {"group": gi, "partition": p, "profile_prefix": ",".join(map(str, key))}
        for gi, (key, group) in enumerate(zip(report.keys, report.groups))
        for p in group
    ]
    doc = {"n": n, "length": length, "order": args.order, "groups": report.groups}
    return rows, doc, None if report.groups else "no collisions"


def _cmd_count(args):
    n, length = args.n, args.length
    m = n if length is None else n - length
    steps = m * length if length is not None and length < m else m * math.isqrt(max(m, 0))
    _refuse_over(steps, MAX_COUNT_STEPS, "count would take about {} steps")
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
        ("--at", {"default": "1", "help": "evaluation point (rational, default 1); "
                  "write a negative fraction as --at=-7/3, as -7/3 reads as a flag"}),
        ("--order", {"type": int, "default": None, "help": "single order instead of 0..k"}),
    ]),
    "derived-seq": (_cmd_derived_seq, "the derived-partition sequence", [PARTITION]),
    "integral": (_cmd_integral, "exact integral of the normalized polynomial", [PARTITION]),
    "avg": (_cmd_avg, "average integral over partitions of n with given length",
            ["--n", "--length"]),
    "avg-table": (_cmd_avg_table, "average integrals for every length 1..n", ["--n"]),
    "conjecture": (_cmd_conjecture, "monotonicity scan of the average integrals", ["--max-n"]),
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
    """The CLI parser."""
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
    """Parse argv (default sys.argv[1:]) and dispatch, writing to a buffered `out` (default
    sys.stdout) under the 4300-digit int -> str limit; returns the exit status."""
    # Every print check above assumes Python's default int -> str limit, which
    # -X int_max_str_digits can change; 3.10.0 to 3.10.6 have no limit.
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(MAX_DECIMAL_DIGITS)
    out = out or sys.stdout
    # `python -u` would make each json.dump chunk a system call; the flush ends the call.
    write_through = getattr(out, "write_through", False)
    if write_through:
        out.reconfigure(write_through=False)
    try:
        args = build_parser().parse_args(argv)
        rows, doc, trailer = COMMANDS[args.command][0](args)
        _emit(rows, doc, args.format, out)
        if trailer is not None and args.format != "json":
            out.write(trailer + "\n")
        out.flush()
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # The reader closed stdout (`| head`): as Python's signal docs advise,
        # point it at devnull so the flush at exit cannot raise again.
        if out is sys.stdout:
            os.dup2(os.open(os.devnull, os.O_WRONLY), out.fileno())
        return 1
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
        if write_through:
            out.reconfigure(write_through=True)
    return 0
