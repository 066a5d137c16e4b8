"""Order statistics for item times (stdlib only)."""
from __future__ import annotations

import statistics

# Percentiles the tail metric may report, lowest first.
TAIL_LADDER = (50.0, 90.0, 99.0, 99.9)
TAIL_MIN_BEYOND = 10


def percentile(values, p: float) -> float:
    """Linear-interpolated percentile (numpy's default rule)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    pos = (len(xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail(values) -> tuple[float, float, int]:
    """Highest ladder percentile with at least ten values ranked beyond it.

    Returns (value, percentile, count beyond). The count is by rank, so
    tied values (a task's items share its mean time) do not change which
    percentile is taken: that depends on the number of values only. With
    fewer than twenty values no percentile qualifies; the median is
    returned then, with its (smaller) count, so the shortfall stays visible.
    """
    best = None
    for p in TAIL_LADDER:
        beyond = len(values) - 1 - int((len(values) - 1) * p / 100.0)
        if beyond >= TAIL_MIN_BEYOND or best is None:
            best = (percentile(values, p), p, beyond)
    return best


def run_tail(rotations) -> tuple[float, float, int]:
    """The tail of a run: one list of item times per rotation.

    The percentile is the one `tail` takes over all items of the run; the
    value is the median over rotations of that percentile in each. A
    rotation holds the same tasks every time, so this value does not jump
    when the run holds one rotation more or less.
    """
    _, p, beyond = tail([v for rotation in rotations for v in rotation])
    return statistics.median(percentile(r, p) for r in rotations), p, beyond
