"""pytest-benchmark timings of the large-field path: factor assembly and CSV output.

Not collected by a plain ``pytest`` run (the file is not named ``test_*``).
Run it by name from the repository root:

    PYTHONPATH=src python -m pytest tests/bench_large_field.py --benchmark-only

The sizes are those of the benchmark's ``large_field`` workload: factors at
n = 2048 (its ``sample`` operations), the statistic's CSV at n = 1024 (its
``qv`` operation). ``write_csv_rows`` is also timed alone, on that statistic
and on an array of the same size whose every value Python formats.
"""

import numpy as np
import pytest

from sheetqv.fieldsim import (
    PURPOSE_SHEET,
    factor_1d,
    increment_cov_1d,
    replication_rng,
    sample_increments,
    write_csv_rows,
)
from sheetqv.kernel import HurstPair
from sheetqv.qv import qv_process, weight, write_qv_csv

H = HurstPair(0.35, 0.4)


def test_increment_cov_1d_n2048(benchmark):
    m = benchmark(increment_cov_1d, H.alpha, 2048)
    assert m.shape == (2048, 2048)


def test_circulant_factor_n2048(benchmark):
    f = benchmark(factor_1d, H.alpha, 2048, "circulant")
    assert f.shape == (2048, 4096)


@pytest.fixture(scope="module")
def statistic_n1024():
    inc = sample_increments(H, 1024, replication_rng(3, 0, PURPOSE_SHEET))
    return qv_process(inc, weight("cosine"))


def test_write_qv_csv_n1024(benchmark, tmp_path, statistic_n1024):
    path = tmp_path / "qv.csv"
    benchmark(write_qv_csv, path, statistic_n1024)
    assert path.stat().st_size > 0


class _Discard:
    def write(self, text):
        pass


def test_write_csv_rows_statistic_n1024(benchmark, statistic_n1024):
    benchmark(write_csv_rows, _Discard(), statistic_n1024.partial_sums, "\r\n")


def test_write_csv_rows_all_fallback_n1024(benchmark):
    # |v| >= 1e15 everywhere: the worst case, each value through Python's %.17g
    values = 1e300 * np.random.default_rng(0).uniform(size=(1025, 1025))
    benchmark(write_csv_rows, _Discard(), values, "\r\n")
