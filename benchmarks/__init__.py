"""Benchmark package: the cost-sensitivity sweep and the end-to-end harness."""
