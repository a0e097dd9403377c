"""pytest-benchmark timing of the Monte Carlo chunk scheduler.

Not collected by a plain ``pytest`` run (the file is not named ``test_*``).
Run it by name from the repository root:

    PYTHONPATH=src python -m pytest tests/bench_mc.py --benchmark-only

``qv_point_samples`` with the ``cosine`` weight at n = 64 and M = 2000 runs
``_node_chunks`` (100 chunks of 20 replications, lent to the worker thread
or finished by the calling one) with no check, reference side or bootstrap
around it.
"""

from sheetqv.kernel import HurstPair
from sheetqv.mcverify import qv_point_samples
from sheetqv.qv import weight

H = HurstPair(0.35, 0.4)


def test_qv_point_samples_cosine_n64_m2000(benchmark):
    samples = benchmark(qv_point_samples, H, weight("cosine"), 64, 2000, 1, [(1.0, 1.0), (0.5, 0.5)])
    xs, zs = samples[64]
    assert xs.shape == (2000, 2) and zs is None
