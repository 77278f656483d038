"""Prediction cache (paper §4.2): CLOCK eviction, request/fetch API."""

from repro.cache.clock import ClockCache
from repro.cache.prediction_cache import CacheStats, PredictionCache

__all__ = ["ClockCache", "PredictionCache", "CacheStats"]
