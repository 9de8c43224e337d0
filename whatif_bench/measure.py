"""Percentiles under a sample-count rule, and failure accounting."""

from __future__ import annotations

import math
import threading
from collections import Counter
from dataclasses import dataclass, field

#: A percentile is reported only when at least this many samples lie beyond
#: it: p50 needs 20 samples, p95 needs 200.
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """A percentile was asked of fewer samples than the rule allows."""


def min_samples(q: float) -> int:
    """Smallest sample count whose ``q`` percentile has ``MIN_BEYOND`` beyond it."""
    return math.ceil(round(MIN_BEYOND / (1.0 - q), 9))


def percentile(values: list[float], q: float) -> float:
    """The ``q`` quantile (linear interpolation between closest ranks)."""
    if len(values) < min_samples(q):
        raise TooFewSamples(
            f"p{q * 100:g} needs {min_samples(q)} samples, got {len(values)}"
        )
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


@dataclass
class Tally:
    """Requests attempted and failed, with the reason for each failure.

    A failure is a transport error, a non-2xx status, an envelope with
    ``ok: false``, or a failed answer check on a request that succeeded.
    """

    attempted: int = 0
    failed: int = 0
    reasons: Counter = field(default_factory=Counter)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def request(self, ok: bool, reason: str = "") -> bool:
        with self._lock:
            self.attempted += 1
            if not ok:
                self.failed += 1
                self.reasons[reason or "request failed"] += 1
        return ok

    def mismatch(self, reason: str) -> None:
        """A failed answer check on a request already counted as attempted."""
        with self._lock:
            self.failed += 1
            self.reasons[reason] += 1

    @property
    def failed_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
