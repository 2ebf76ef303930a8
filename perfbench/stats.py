"""Small statistics helpers shared by the benchmark and its tests."""

from __future__ import annotations

import math
from collections.abc import Sequence

#: A tail percentile is only reported when at least this many samples
#: lie beyond it; with fewer, one outlier would decide the number.
MIN_TAIL_SAMPLES = 10


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank ``q`` percentile (0 < q <= 100) of ``samples``.

    Nearest rank always returns a measured value, never an interpolation,
    so a deterministic sample set gives a bit-identical percentile.
    """
    if not samples:
        raise ValueError("percentile of an empty sample")
    if not 0 < q <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    ordered = sorted(samples)
    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[max(rank, 1) - 1]


def min_samples_for(q: float) -> int:
    """Smallest sample count that leaves MIN_TAIL_SAMPLES beyond the ``q`` percentile."""
    if not 0 < q < 100:
        raise ValueError(f"tail percentile must be in (0, 100), got {q}")
    return math.ceil(MIN_TAIL_SAMPLES * 100.0 / (100.0 - q) - 1e-9)


def tail_percentile(samples: Sequence[float], q: float) -> float:
    """``percentile(samples, q)``, refusing a sample too small to support it."""
    needed = min_samples_for(q)
    if len(samples) < needed:
        raise ValueError(
            f"p{q:g} needs at least {needed} samples "
            f"({MIN_TAIL_SAMPLES} beyond it), got {len(samples)}"
        )
    return percentile(samples, q)


def due_time_latencies(
    due: Sequence[float], first_response: Sequence[float | None]
) -> list[float]:
    """Open-loop latency of each answered request, timed from when it was due.

    A generator that stalls sends late; timing from the due time, not
    the send time, charges that stall to every request it delayed.
    Unanswered requests (``None``) are left out; the caller counts them
    as failed.
    """
    if len(due) != len(first_response):
        raise ValueError("due and first_response differ in length")
    return [t - d for d, t in zip(due, first_response) if t is not None]
