"""Exact arithmetic for partition polynomials: derivatives, integrals,
averages over fixed size and length, and density constructions."""

from .calculus import (
    deriv_recursive_eval,
    derivative_values,
    derived_partition,
    diff,
    evaluate,
    integral,
    normalized_eval,
    poly_of,
)
from .averages import (
    AvgReport,
    avg,
    avg2_closed_form,
    avg3_lower_bound,
    avg_table,
    check_conjecture,
)
from .density import DensityStep, DensityTrace, alpha, approximate, beta
from .exact import (
    DomainError,
    format_rational,
    harmonic,
    nth_prime,
    parse_rational,
    rational_to_decimal,
    stirling2,
)
from .partitions import (
    CountTable,
    Partition,
    count_partitions,
    iter_partitions,
    multiplicity_profile,
)
from .search import CollisionReport, collision_search, distinguishing_order

__all__ = [
    "AvgReport",
    "CollisionReport",
    "CountTable",
    "DensityStep",
    "DensityTrace",
    "DomainError",
    "Partition",
    "alpha",
    "approximate",
    "avg",
    "avg2_closed_form",
    "avg3_lower_bound",
    "avg_table",
    "beta",
    "check_conjecture",
    "collision_search",
    "count_partitions",
    "deriv_recursive_eval",
    "derivative_values",
    "derived_partition",
    "diff",
    "distinguishing_order",
    "evaluate",
    "format_rational",
    "harmonic",
    "integral",
    "iter_partitions",
    "multiplicity_profile",
    "normalized_eval",
    "nth_prime",
    "parse_rational",
    "poly_of",
    "rational_to_decimal",
    "stirling2",
]
