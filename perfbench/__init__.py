"""Benchmark of reachbench: workloads, checks and tracing (see README.md)."""
