"""pytest-benchmark timings of the analytic layer: sigma, the exact mean and
the kernel property suite.

Not collected by a plain ``pytest`` run (the file is not named ``test_*``).
Run it by name from the repository root:

    PYTHONPATH=src python -m pytest tests/bench_analytic.py --benchmark-only

The sigma pairs and tolerance are those of the benchmark's ``analytic``
workload; ``exact_mean`` runs at its largest grid, n = 2048, and the kernel
property suite at the workload's 100,000 cases and golden seed.
"""

import pytest

from sheetqv.kernel import HurstPair
from sheetqv.mcverify import exact_mean, kernel_property_suite
from sheetqv.qv import weight
from sheetqv.sigma import sigma_series


@pytest.mark.parametrize("alpha,beta", [(0.35, 0.4), (0.3, 0.45), (0.45, 0.45)])
def test_sigma_series(benchmark, alpha, beta):
    res = benchmark(sigma_series, HurstPair(alpha, beta), 1e-10)
    assert res.cutoff == 4_000_000


@pytest.mark.parametrize("kind", ["square", "cosine"])
def test_exact_mean_n2048(benchmark, kind):
    mean = benchmark(exact_mean, HurstPair(0.35, 0.35), weight(kind), 2048, (1.0, 1.0))
    assert mean != 0.0


def test_kernel_property_suite_100k(benchmark):
    reports = benchmark(kernel_property_suite, 100_000, 101)
    assert all(r.passed for r in reports)
