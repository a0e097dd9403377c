"""pytest-benchmark timings of the analytic layer: sigma, its axis sum and
rho table, the exact mean and the kernel property suite.

Not collected by a plain ``pytest`` run (the file is not named ``test_*``).
Run it by name from the repository root:

    PYTHONPATH=src python -m pytest tests/bench_analytic.py --benchmark-only

The sigma pairs and tolerance are those of the benchmark's ``analytic``
workload; one axis sum runs to the 4,000,000 cutoff those calls reach, and
``rho_range`` over one block of 2^16 lags; ``exact_mean`` runs at the
workload's largest grid, n = 2048, and at n = 8192, whose 67 million terms
are summed in leaves of 2^16 (a whole term array would be 512 MiB, 1 GiB
for ``cosine``), and the kernel property suite at the workload's 100,000
cases and golden seed.
"""

import pytest

from sheetqv.kernel import HurstPair, rho_range
from sheetqv.mcverify import exact_mean, kernel_property_suite
from sheetqv.qv import weight
from sheetqv.sigma import _axis_sum_sq, sigma_series


@pytest.mark.parametrize("alpha,beta", [(0.35, 0.4), (0.3, 0.45), (0.45, 0.45)])
def test_sigma_series(benchmark, alpha, beta):
    res = benchmark(sigma_series, HurstPair(alpha, beta), 1e-10)
    assert res.cutoff == 4_000_000


def test_axis_sum_sq_4m(benchmark):
    assert benchmark(_axis_sum_sq, 0.35, 4_000_000) > 4.0


def test_rho_range_block(benchmark):
    assert benchmark(rho_range, 0.35, 1, 65537).shape == (65536,)


@pytest.mark.parametrize("n", [2048, 8192])
@pytest.mark.parametrize("kind", ["square", "cosine"])
def test_exact_mean(benchmark, kind, n):
    mean = benchmark(exact_mean, HurstPair(0.35, 0.35), weight(kind), n, (1.0, 1.0))
    assert mean != 0.0


def test_kernel_property_suite_100k(benchmark):
    reports = benchmark(kernel_property_suite, 100_000, 101)
    assert all(r.passed for r in reports)
