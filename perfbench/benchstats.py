"""Statistics and digest helpers of odbsim's benchmark (see README.md)."""

import hashlib
import math
import statistics


def quartiles(values):
    """First quartile, median and third quartile, as
    statistics.quantiles(values, n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Distance between the quartiles as a share of the median."""
    q1, _, q3 = quartiles(values)
    mid = statistics.median(values)
    return (q3 - q1) / abs(mid) if mid else math.inf


def tail_percentile(n, beyond=10):
    """Highest whole percentile (50..99) that leaves at least `beyond`
    of `n` samples above it, or None when there are too few samples."""
    if n <= beyond:
        return None
    p = min(99, math.floor(100.0 * (n - beyond) / n))
    return p if p >= 50 else None


def percentile(values, p):
    """The p-th percentile (0 < p < 100), interpolated between the
    nearest samples."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def row_digest(text):
    """Digest of one result row: the first 16 hex digits of its
    SHA-256."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
