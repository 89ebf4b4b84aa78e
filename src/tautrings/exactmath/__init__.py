"""Exact arithmetic foundation: rationals, Bernoulli numbers, partition
counts, truncated multivariate series, sparse rational linear algebra and a
generic graded-quotient engine.

Rationals reach callers as `fractions.Fraction`s; nothing in this package
(or its consumers) touches floating point.  Inside, the hot loops run on
ints: a `TruncatedSeries` keeps each weight slice as int numerators over
one positive int denominator, and `SparseEchelon` keeps integral entries
as ints.
"""


def is_int(x) -> bool:
    """An `int` that is not a `bool`: the one test of integer inputs, so
    that 1.5 or True is refused rather than truncated."""
    return isinstance(x, int) and not isinstance(x, bool)


def check_int(name: str, x) -> int:
    """`x` itself if `is_int(x)`, else a ValueError that names the argument."""
    if not is_int(x):
        raise ValueError(f"{name} must be an int, got {x!r}")
    return x


# The two checks above come first: the submodules import them.
from .bernoulli import bernoulli
from .gradedpoly import GeneratorTable, GradedPolynomial
from .linalg import SparseEchelon, exact_rank
from .partitions import partition_count
from .quotient import GradedQuotient, QuotientReport, graded_quotient
from .series import TruncatedSeries, series_exp, series_log, series_mul

__all__ = [
    "bernoulli",
    "GeneratorTable",
    "GradedPolynomial",
    "SparseEchelon",
    "exact_rank",
    "partition_count",
    "GradedQuotient",
    "QuotientReport",
    "graded_quotient",
    "TruncatedSeries",
    "series_exp",
    "series_log",
    "series_mul",
    "is_int",
    "check_int",
]
