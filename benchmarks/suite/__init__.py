"""The gated benchmark suite: the paper's engine and the served stack.

One command, ``python -m benchmarks.suite run``, generates every
workload's inputs from a seed, drives the system only through its
public surface (the engine API in a child process for the in-process
workloads, ``python -m repro serve`` over HTTP for the served ones),
checks the answers, and prints each metric as ``workload metric value
unit``.  ``BENCHMARK.json`` at the repository root names the workloads,
the metrics and their regression bounds; ``benchmarks/suite/README.md``
explains why each exists.
"""
