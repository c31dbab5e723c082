"""Exact latency statistics over every client-side sample.

Percentiles use the nearest-rank definition, so every reported value is
a latency that was actually observed. A tail is the highest percentile
on a fixed ladder that still has at least ``MIN_BEYOND`` samples above
its rank; the ladder moves a decade at a time, so the percentile chosen
only changes when the sample count changes tenfold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

#: Percentiles a tail may be reported at, lowest first.
TAIL_LADDER: tuple[float, ...] = (50.0, 90.0, 99.0, 99.9, 99.99)
#: Samples that must lie beyond a percentile for it to count as a tail.
MIN_BEYOND = 10


def _rank(count: int, q: float) -> int:
    """The 1-based nearest rank of percentile ``q`` among ``count`` samples.

    The small tolerance keeps float error (99.9 / 100 * 10000 is
    9990.000000000002) from pushing an exact rank up by one.
    """
    return max(math.ceil(q / 100.0 * count - 1e-9), 1)


def percentile(sorted_samples: Sequence[float], q: float) -> float:
    """The nearest-rank ``q``-th percentile of already-sorted samples."""
    if not sorted_samples:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"percentile must lie in (0, 100], got {q}")
    return float(sorted_samples[_rank(len(sorted_samples), q) - 1])


def beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie above the nearest rank of ``q``."""
    return count - _rank(count, q)


@dataclass(frozen=True)
class Tail:
    """A tail latency with the percentile it was taken at."""

    percentile: float
    value: float
    samples: int


def tail_percentile(count: int) -> float:
    """The highest ladder percentile with ``MIN_BEYOND`` of ``count`` beyond it.

    Raises :class:`ValueError` when even the median has fewer than
    ``MIN_BEYOND`` samples beyond it (fewer than 20 samples).
    """
    eligible = [q for q in TAIL_LADDER if beyond(count, q) >= MIN_BEYOND]
    if not eligible:
        raise ValueError(
            f"{count} samples leave no percentile with {MIN_BEYOND} beyond it"
        )
    return eligible[-1]


def tail(sorted_samples: Sequence[float]) -> Tail:
    """The latency at :func:`tail_percentile` of the sample count."""
    count = len(sorted_samples)
    q = tail_percentile(count)
    return Tail(percentile=q, value=percentile(sorted_samples, q), samples=count)
