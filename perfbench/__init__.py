"""The repository benchmark: four workloads, end-to-end and per-layer metrics.

Run it from the root of a checkout::

    python3 perfbench/run.py --workload flood-spec --seed 1 --seconds 20 --trace 0

``BENCHMARK.json`` at the root lists the workloads and metrics;
``perfbench/layers.json`` says which end-to-end metric each per-layer
metric should move and how each end-to-end metric is measured.
"""
