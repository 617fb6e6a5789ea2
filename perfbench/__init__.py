"""Benchmark harness for dppci: four seeded workloads, checked outputs, spans."""
