"""A fixed log-bucket latency histogram (dependency-free).

Buckets are powers of two over a 1 microsecond base: bucket 0 holds
latencies up to 1us, bucket *i* holds ``(2**(i-1), 2**i]`` microseconds,
and the last bucket absorbs everything above ~9 minutes.  Recording is
O(1) (a ``log2`` and an increment), the memory footprint is one small
list, and quantiles come back as the upper bound of the bucket holding
the requested rank -- a deliberate over-estimate, stable across runs,
which is what a perf-regression gate wants.

The exact minimum, maximum and sum are tracked alongside the buckets so
reports can bound the quantile error.
"""

from __future__ import annotations

import math
from typing import Iterator

#: Bucket 0 upper bound, in seconds (1 microsecond).
BASE_SECONDS = 1e-6
#: Bucket count; the last bucket tops out at ``BASE * 2**(N-1)`` (~550 s).
N_BUCKETS = 30


class LatencyHistogram:
    """Latency distribution with O(1) record and log-bucket quantiles."""

    __slots__ = ("counts", "count", "total", "min_seen", "max_seen")

    def __init__(self) -> None:
        self.counts = [0] * N_BUCKETS
        self.count = 0
        self.total = 0.0
        self.min_seen = math.inf
        self.max_seen = 0.0

    @staticmethod
    def bucket_index(seconds: float) -> int:
        """The bucket a latency falls into."""
        if seconds <= BASE_SECONDS:
            return 0
        index = math.ceil(math.log2(seconds / BASE_SECONDS))
        return min(index, N_BUCKETS - 1)

    @staticmethod
    def bucket_bound(index: int) -> float:
        """The inclusive upper bound of one bucket, in seconds."""
        return BASE_SECONDS * (1 << index)

    def record(self, seconds: float) -> None:
        """Record one observation (negative values clamp to zero)."""
        if seconds < 0.0:
            seconds = 0.0
        self.counts[self.bucket_index(seconds)] += 1
        self.count += 1
        self.total += seconds
        if seconds < self.min_seen:
            self.min_seen = seconds
        if seconds > self.max_seen:
            self.max_seen = seconds

    def merge(self, other: "LatencyHistogram") -> None:
        """Fold another histogram's observations into this one.

        Guards against the two silent-corruption cases: merging a
        histogram into itself would double every count while iterating
        the very list being mutated, and merging one with a different
        bucket layout would add counts to the wrong latency ranges.
        Both raise ``ValueError`` instead.
        """
        if other is self:
            raise ValueError("cannot merge a histogram into itself")
        if len(other.counts) != len(self.counts):
            raise ValueError(
                f"bucket layouts differ ({len(other.counts)} vs "
                f"{len(self.counts)} buckets); refusing to merge"
            )
        for i, c in enumerate(other.counts):
            self.counts[i] += c
        self.count += other.count
        self.total += other.total
        self.min_seen = min(self.min_seen, other.min_seen)
        self.max_seen = max(self.max_seen, other.max_seen)

    def quantile(self, q: float) -> float:
        """The ``q``-quantile in seconds (bucket-upper-bound estimate,
        capped at the exact maximum seen); 0.0 when empty."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        if self.count == 0:
            return 0.0
        target = q * self.count
        cumulative = 0
        for i, c in enumerate(self.counts):
            cumulative += c
            if cumulative >= target:
                return min(self.bucket_bound(i), self.max_seen)
        return self.max_seen  # pragma: no cover - defensive

    def cumulative(self) -> Iterator[tuple[float, int]]:
        """``(upper_bound_seconds, cumulative_count)`` per non-empty
        prefix, for Prometheus-style cumulative buckets."""
        cumulative = 0
        for i, c in enumerate(self.counts):
            cumulative += c
            yield self.bucket_bound(i), cumulative

    def to_dict(self) -> dict:
        """A JSON-ready summary in microseconds."""
        if self.count == 0:
            return {"count": 0}
        return {
            "count": self.count,
            "sum_us": round(self.total * 1e6, 3),
            "min_us": round(self.min_seen * 1e6, 3),
            "p50_us": round(self.quantile(0.50) * 1e6, 3),
            "p90_us": round(self.quantile(0.90) * 1e6, 3),
            "p99_us": round(self.quantile(0.99) * 1e6, 3),
            "max_us": round(self.max_seen * 1e6, 3),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.count == 0:
            return "LatencyHistogram(empty)"
        return (
            f"LatencyHistogram(count={self.count}, "
            f"p50={self.quantile(0.5) * 1e6:.1f}us, "
            f"p99={self.quantile(0.99) * 1e6:.1f}us)"
        )
