"""Benchmark of lipgraph: workloads, correctness checks and layer tracing."""
