"""Per-layer spans and counters for one traced CLI call.

The spans are recorded from outside the program: `install` rebinds functions
of the checked-out package to timing wrappers, and nothing under `src/`
changes.  Spans are aggregated by name into calls, total time and self time,
where self time is a span's duration minus the time of the spans it encloses.
A hook whose target no longer exists is skipped and reported as missing; its
metrics then read 0.
"""

import functools
import inspect
import json
import sys
from time import perf_counter

# Per-layer metrics and their units, in the order BENCHMARK.json lists them.
# The parent process measures the last two.
UNITS = {
    "averages.profile_s": "s",
    "averages.profile_calls": "count",
    "averages.accumulate_s": "s",
    "averages.avg_table_calls": "count",
    "partitions.table_fill_s": "s",
    "partitions.table_cells": "count",
    "partitions.enum_s": "s",
    "partitions.enumerated": "count",
    "partitions.oplus_s": "s",
    "partitions.oplus_calls": "count",
    "calculus.profile_s": "s",
    "calculus.profile_calls": "count",
    "calculus.orders_evaluated": "count",
    "calculus.useful_order_frac": "ratio",
    "search.self_s": "s",
    "search.buckets": "count",
    "search.groups": "count",
    "integrals.integral_s": "s",
    "integrals.integral_calls": "count",
    "density.bracket_s": "s",
    "density.self_s": "s",
    "density.start_index": "count",
    "density.steps": "count",
    "density.step_cells": "count",
    "density.max_mult_bits": "bits",
    "exact.format_s": "s",
    "exact.format_calls": "count",
    "cli.self_s": "s",
    "cli.stdout_bytes": "bytes",
    "trace.overhead_frac": "ratio",
}


class Recorder:
    """Spans aggregated by name, plus what the derived counters need."""

    def __init__(self):
        self.open = [0.0]  # time of finished child spans, per open span
        self.spans = {}  # name -> [calls, total_s, self_s]
        self.counts = {}
        self.missing = []
        self.search_order = None  # `order` of the collision search running
        self.profiles = []  # (search order or None, derivative profile)
        self.density_traces = []

    def time(self, name, fn, *args, **kwargs):
        self.open.append(0.0)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = perf_counter() - start
            children = self.open.pop()
            self.open[-1] += elapsed
            span = self.spans.setdefault(name, [0, 0.0, 0.0])
            span[0] += 1
            span[1] += elapsed
            span[2] += elapsed - children

    def count(self, name, k=1):
        self.counts[name] = self.counts.get(name, 0) + k

    # Each method below takes the original function and returns its wrapper.

    def span(self, name):
        return lambda orig: lambda *args, **kwargs: self.time(name, orig, *args, **kwargs)

    def table_fill(self, orig):
        def ensure(table, n_max):
            rows = getattr(table, "_rows", None)
            if not isinstance(rows, list):
                return self.time("partitions.table_fill", orig, table, n_max)
            before = len(rows)
            if n_max < before:
                # Every table read calls ensure; only fills are spans.
                return orig(table, n_max)
            result = self.time("partitions.table_fill", orig, table, n_max)
            after = len(table._rows)  # row n holds n + 1 cells
            self.count("partitions.table_cells", (after * (after + 1) - before * (before + 1)) // 2)
            return result

        return ensure

    def enumeration(self, orig):
        def iter_partitions(*args, **kwargs):
            items = orig(*args, **kwargs)
            while True:
                try:
                    item = self.time("partitions.enum", next, items)
                except StopIteration:
                    return
                self.count("partitions.enumerated")
                yield item

        return iter_partitions

    def profile(self, orig):
        def derivative_profile(*args, **kwargs):
            profile = self.time("calculus.profile", orig, *args, **kwargs)
            self.profiles.append((self.search_order, profile))
            return profile

        return derivative_profile

    def search(self, orig):
        signature = inspect.signature(orig)

        def collision_search(*args, **kwargs):
            self.search_order = signature.bind(*args, **kwargs).arguments.get("order")
            try:
                report = self.time("search", orig, *args, **kwargs)
            finally:
                self.search_order = None
            self.count("search.groups", len(report.groups))
            return report

        return collision_search

    def density(self, orig):
        def approximate(*args, **kwargs):
            trace = self.time("density", orig, *args, **kwargs)
            self.density_traces.append(trace)
            return trace

        return approximate


def install(rec):
    """Rebind the package's layer functions to wrappers that record into
    `rec`, wherever a module of the package has imported them."""
    import partpoly.cli  # noqa: F401  (imports every layer module)

    modules = [
        m for name, m in sys.modules.items()
        if name == "partpoly" or name.startswith("partpoly.")
    ]
    hooks = [
        ("partpoly.averages", "multiplicity_profile", rec.span("averages.profile")),
        ("partpoly.averages", "avg", rec.span("averages.avg")),
        ("partpoly.averages", "avg_table", rec.span("averages.avg_table")),
        ("partpoly.partitions:CountTable", "ensure", rec.table_fill),
        ("partpoly.partitions", "iter_partitions", rec.enumeration),
        ("partpoly.partitions:Partition", "oplus", rec.span("partitions.oplus")),
        ("partpoly.calculus", "derivative_profile", rec.profile),
        ("partpoly.search", "collision_search", rec.search),
        ("partpoly.integrals", "integral", rec.span("integrals.integral")),
        ("partpoly.density", "_bracket_index", rec.span("density.bracket")),
        ("partpoly.density", "approximate", rec.density),
        ("partpoly.exact", "format_rational", rec.span("exact.format")),
    ]
    for owner_path, attr, make in hooks:
        module_name, _, class_name = owner_path.partition(":")
        owner = sys.modules.get(module_name)
        if owner is not None and class_name:
            owner = getattr(owner, class_name, None)
        orig = getattr(owner, attr, None)
        if orig is None:
            rec.missing.append(f"{owner_path}.{attr}")
            continue
        wrapper = functools.wraps(orig)(make(orig))
        for namespace in [owner] if class_name else modules:
            for name, value in list(vars(namespace).items()):
                if value is orig:
                    setattr(namespace, name, wrapper)


def layer_metrics(rec):
    """Every per-layer metric the child can see (all but the last two)."""

    def span(name, field):
        return rec.spans.get(name, (0, 0.0, 0.0))[field]

    calls, total, self_ = 0, 1, 2
    evaluated = needed = 0
    keys = set()
    for order, profile in rec.profiles:
        evaluated += len(profile)
        if order is not None:
            needed += min(order + 1, len(profile))
            keys.add(tuple(profile[: order + 1]) + (0,) * (order + 1 - len(profile)))
    density = {"start_index": 0, "steps": 0, "step_cells": 0, "max_mult_bits": 0}
    if rec.density_traces:
        trace = rec.density_traces[-1]
        try:
            density = {
                "start_index": trace.start_index,
                "steps": len(trace.steps),
                "step_cells": sum(s.partition.largest_part for s in trace.steps),
                "max_mult_bits": max(
                    (m.bit_length() for m in trace.result.multiplicities), default=0
                ),
            }
        except AttributeError as exc:
            rec.missing.append(f"DensityTrace field: {exc}")
    return {
        "averages.profile_s": span("averages.profile", total),
        "averages.profile_calls": span("averages.profile", calls),
        "averages.accumulate_s": span("averages.avg", self_),
        "averages.avg_table_calls": span("averages.avg_table", calls),
        "partitions.table_fill_s": span("partitions.table_fill", total),
        "partitions.table_cells": rec.counts.get("partitions.table_cells", 0),
        "partitions.enum_s": span("partitions.enum", total),
        "partitions.enumerated": rec.counts.get("partitions.enumerated", 0),
        "partitions.oplus_s": span("partitions.oplus", total),
        "partitions.oplus_calls": span("partitions.oplus", calls),
        "calculus.profile_s": span("calculus.profile", total),
        "calculus.profile_calls": span("calculus.profile", calls),
        "calculus.orders_evaluated": evaluated,
        # With no orders evaluated nothing was wasted.
        "calculus.useful_order_frac": needed / evaluated if evaluated else 1.0,
        "search.self_s": span("search", self_),
        "search.buckets": len(keys),
        "search.groups": rec.counts.get("search.groups", 0),
        "integrals.integral_s": span("integrals.integral", total),
        "integrals.integral_calls": span("integrals.integral", calls),
        "density.bracket_s": span("density.bracket", total),
        "density.self_s": span("density", self_),
        **{f"density.{k}": v for k, v in density.items()},
        "exact.format_s": span("exact.format", total),
        "exact.format_calls": span("exact.format", calls),
        "cli.self_s": span("cli", self_),
    }


def traced_run(out_path, argv):
    """Run the CLI on `argv` with every hook installed; write the metrics
    and the missing hooks as JSON to `out_path`; return the exit status."""
    rec = Recorder()
    install(rec)
    from partpoly.cli import run

    status = rec.time("cli", run, argv)
    doc = {"metrics": layer_metrics(rec), "missing": rec.missing}
    with open(out_path, "w") as f:
        json.dump(doc, f)
    return status
