"""Benchmark of the sheetqv command line, driven in-process.

Run one workload from the repository root:

    python3 perfbench/run.py --workload mc_verify --seed 0 --seconds 25 --trace 0

``--workload all`` runs every workload in turn and prints every end-to-end
metric of each. ``--trace 1`` runs the same operations with span tracing on
and prints the per-layer metrics instead. Seed 0 reproduces the acceptance
seeds, and its outputs are checked byte for byte against ``golden.json``;
other seeds are checked against output invariants.

Modules: ``workloads`` (operation lists), ``worker`` (the process that runs
them), ``tracing`` (spans and self times), ``checks`` (output checks),
``run`` (entry point and metrics), ``freeze`` (rewrites ``golden.json``).
"""
