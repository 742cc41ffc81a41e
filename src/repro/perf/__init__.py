"""Statistics plumbing and the analytic performance model."""

from repro.perf.stats import Counter, Histogram, RatioStat, StatGroup, geometric_mean
from repro.perf.timing_model import PerformanceModel, PerformanceResult

__all__ = [
    "Counter",
    "Histogram",
    "RatioStat",
    "StatGroup",
    "geometric_mean",
    "PerformanceModel",
    "PerformanceResult",
]
