"""Summary statistics used in the benchmark's results."""

from __future__ import annotations

import statistics


def median(values) -> float:
    values = list(values)
    if not values:
        raise ValueError("median of no values")
    return float(statistics.median(values))


def throughput(work: float, wall_s: float) -> float:
    """Work units per second of wall time."""
    if wall_s <= 0:
        raise ValueError(f"wall time must be positive, got {wall_s}")
    return work / wall_s

