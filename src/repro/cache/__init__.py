"""Prediction cache (paper §4.2): CLOCK eviction, request/fetch API."""
