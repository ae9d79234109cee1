"""Small statistics helpers shared by the analysis and benchmark code.

Only depends on the standard library (``statistics``) so the analysis layer
stays importable in minimal environments; numpy is available in the benchmark
environment but is not required here.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Iterable, List, Sequence

from ..core.exceptions import AnalysisError


def percentile(values: Sequence[float], fraction: float) -> float:
    """The ``fraction``-quantile of ``values`` using linear interpolation.

    ``fraction`` is in [0, 1]; e.g. 0.95 for the 95th percentile.  Raises on
    empty input rather than inventing a number.
    """
    if not values:
        raise AnalysisError("cannot take a percentile of an empty sequence")
    if not 0.0 <= fraction <= 1.0:
        raise AnalysisError(f"fraction must be in [0, 1], got {fraction}")
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    rank = fraction * (len(ordered) - 1)
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return float(ordered[low])
    weight = rank - low
    return float(ordered[low] * (1.0 - weight) + ordered[high] * weight)


@dataclass(frozen=True)
class Summary:
    """Five-number-plus summary of a sample."""

    count: int
    mean: float
    median: float
    p95: float
    p99: float
    minimum: float
    maximum: float
    total: float


def summarize(values: Iterable[float]) -> Summary:
    """Build a :class:`Summary` of a sample (raises on empty input)."""
    data: List[float] = [float(v) for v in values]
    if not data:
        raise AnalysisError("cannot summarise an empty sample")
    return Summary(
        count=len(data),
        mean=statistics.fmean(data),
        median=statistics.median(data),
        p95=percentile(data, 0.95),
        p99=percentile(data, 0.99),
        minimum=min(data),
        maximum=max(data),
        total=sum(data),
    )


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator`` with a defined value (0.0) for a zero denominator."""
    if denominator == 0:
        return 0.0
    return numerator / denominator
