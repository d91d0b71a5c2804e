"""Exact arithmetic for partition polynomials: derivatives, integrals,
averages over fixed size and length, and density constructions."""

from .calculus import (
    derivative_values,
    derived_partition,
    diff,
    evaluate,
    integral,
    poly_of,
)
from .averages import AvgReport, avg, avg_table, check_conjecture
from .density import DensityStep, DensityTrace, approximate
from .exact import (
    DomainError,
    format_rational,
    nth_prime,
    parse_rational,
    rational_to_decimal,
)
from .partitions import (
    CountTable,
    Partition,
    count_partitions,
    iter_partitions,
    multiplicity_profile,
)
from .search import CollisionReport, collision_search

__all__ = [
    "AvgReport",
    "CollisionReport",
    "CountTable",
    "DensityStep",
    "DensityTrace",
    "DomainError",
    "Partition",
    "approximate",
    "avg",
    "avg_table",
    "check_conjecture",
    "collision_search",
    "count_partitions",
    "derivative_values",
    "derived_partition",
    "diff",
    "evaluate",
    "format_rational",
    "integral",
    "iter_partitions",
    "multiplicity_profile",
    "nth_prime",
    "parse_rational",
    "poly_of",
    "rational_to_decimal",
]
