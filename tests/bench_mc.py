"""pytest-benchmark timing of the Monte Carlo chunk scheduler and the SE step.

Not collected by a plain ``pytest`` run (the file is not named ``test_*``).
Run it by name from the repository root:

    PYTHONPATH=src python -m pytest tests/bench_mc.py --benchmark-only

``qv_point_samples`` with the ``cosine`` weight at n = 64 and M = 2000 runs
``_node_chunks`` (100 chunks of 20 replications, lent to the worker thread
or finished by the calling one) with no check, reference side or bootstrap
around it.

``bootstrap_se`` on two grids is the SE step of ``charfn``'s sample side
at M = 5000: each grid's e^{i lam X} columns, complex (5000, 36), are built
from its (5000, 2) values, then their means and bootstrap SEs are taken
under one seed's weights.
"""

import numpy as np

from sheetqv.kernel import HurstPair
from sheetqv.mcverify import bootstrap_se, lambda_product_grid, qv_point_samples
from sheetqv.qv import weight

H = HurstPair(0.35, 0.4)


def test_qv_point_samples_cosine_n64_m2000(benchmark):
    samples = benchmark(qv_point_samples, H, weight("cosine"), 64, 2000, 1, [(1.0, 1.0), (0.5, 0.5)])
    xs, zs = samples[64]
    assert xs.shape == (2000, 2) and zs is None


def test_bootstrap_se_two_complex_grids_m5000(benchmark):
    lam = lambda_product_grid(2)
    xs = {g: np.random.default_rng(g).standard_normal((5000, 2)) for g in (64, 32)}
    build = lambda g: np.exp(q := 1j * xs[g] @ lam.T, out=q)
    out = benchmark(bootstrap_se, build, xs, 5000, complex, 131)
    assert [(m.shape, se.shape) for m, se in out.values()] == [((36,), (36,))] * 2
