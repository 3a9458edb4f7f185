"""Summary statistics for one benchmark run.

Pure Python, so the percentile rule can be tested without numpy.
"""
from __future__ import annotations

import math


def percentile(latencies: list[float], failed: list[float], q: float) -> float:
    """Nearest-rank q-quantile of per-query latencies.

    ``latencies`` are the times of queries that succeeded, ``failed`` the
    times of queries that raised or failed their check.  A failed query
    missed any latency limit, so it is ranked after every successful one
    whatever its own time; a quantile that lands on a failed query reads
    the longest time measured in the run.
    """
    if not 0.0 < q <= 1.0:
        raise ValueError("q must be in (0, 1]")
    total = len(latencies) + len(failed)
    if total == 0:
        raise ValueError("no queries")
    rank = max(math.ceil(q * total), 1)  # 1-based
    ranked = sorted(latencies)
    if rank <= len(ranked):
        return ranked[rank - 1]
    return max(ranked + list(failed))


def samples_beyond(total: int, q: float) -> int:
    """How many of ``total`` ranked samples lie above the nearest-rank q-quantile."""
    return total - max(math.ceil(q * total), 1)
