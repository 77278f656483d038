"""Adaptive batching (paper §4.3): controllers, queues and dispatchers."""
