"""Repository benchmark: seeded MPI traffic workloads over every stack.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload; see ``perfbench/README.md`` for the metrics, the
workloads and how to compare two commits.
"""
