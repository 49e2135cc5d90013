"""Benchmark for musemc: three workloads, end-to-end metrics and a traced per-layer run.

Run one workload with ``python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>`` from the repository root.  ``perfbench/spec.py``
holds the workload and metric definitions and writes ``BENCHMARK.json``.
"""
