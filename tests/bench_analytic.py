"""pytest-benchmark timings of the analytic layer: sigma, its axis sum and
rho table, the exact mean and the kernel property suite.

Not collected by a plain ``pytest`` run (the file is not named ``test_*``).
Run it by name from the repository root:

    PYTHONPATH=src python -m pytest tests/bench_analytic.py --benchmark-only

The sigma pairs and tolerance are those of the benchmark's ``analytic``
workload, plus (0.35, 0.35), the single-axis call every Monte Carlo check
makes (cutoff 400,000); one axis sum runs to the 4,000,000 cutoff those
calls reach, ``rho_range`` over one block of 2^16 lags, and one block of
series terms reduced to its exact parts in the buffers a series call
reuses; ``exact_mean`` runs at the
workload's largest grid, n = 2048, and at n = 8192, whose 67 million terms
are summed in leaves of 2^16 (a whole term array would be 512 MiB, 1 GiB
for ``cosine``), and the kernel property suite at the workload's 100,000
cases and golden seed.
"""

import pytest

from sheetqv.kernel import HurstPair, rho_range
from sheetqv.mcverify import exact_mean, kernel_property_suite
from sheetqv.qv import weight
from sheetqv.sigma import _BLOCK, _axis_sum_sq, _block_parts, _Carry, sigma_series


@pytest.mark.parametrize(
    "alpha,beta,cutoff",
    [(0.35, 0.4, 4_000_000), (0.3, 0.45, 4_000_000), (0.45, 0.45, 4_000_000),
     (0.35, 0.35, 400_000)],
)
def test_sigma_series(benchmark, alpha, beta, cutoff):
    res = benchmark(sigma_series, HurstPair(alpha, beta), 1e-10)
    assert res.cutoff == cutoff


def test_axis_sum_sq_4m(benchmark):
    assert benchmark(_axis_sum_sq, 0.35, 4_000_000) > 4.0


def test_rho_range_block(benchmark):
    assert benchmark(rho_range, 0.35, 1, 65537).shape == (65536,)


def test_block_parts_in_reused_buffers(benchmark):
    carry = _Carry()
    lo = 1 + 6 * _BLOCK  # a block of the 400,000 cutoff, summed as two floats
    parts = benchmark(_block_parts, 0.35, lo, lo + _BLOCK, carry.steps, carry.buffers[0])
    assert len(parts) == 2


@pytest.mark.parametrize("n", [2048, 8192])
@pytest.mark.parametrize("kind", ["square", "cosine"])
def test_exact_mean(benchmark, kind, n):
    mean = benchmark(exact_mean, HurstPair(0.35, 0.35), weight(kind), n, (1.0, 1.0))
    assert mean != 0.0


def test_kernel_property_suite_100k(benchmark):
    reports = benchmark(kernel_property_suite, 100_000, 101)
    assert all(r.passed for r in reports)
