"""Benchmark for the subjfair engine: seeded workloads, timing, tracing and
correctness checks. ``bench/run.py`` is the entry point."""
