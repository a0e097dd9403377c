"""Benchmark operations replay byte for byte against their golden record.

The benchmark checks these outputs too; this keeps the check in the test
suite, so a change that moves the last bit of sigma, of the exact means, of
a sampled field, of the statistic's CSV or of a Monte Carlo suite, whose
chunks run on worker threads, fails here first. Both files are only read;
output files go to a temporary directory.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.workloads import GOLDEN_SEED, operations  # noqa: E402
from sheetqv.cli import main  # noqa: E402

GOLDEN_ALL = json.loads((ROOT / "perfbench" / "golden.json").read_text())
GOLDEN = GOLDEN_ALL["analytic"]
OPS = {op.name: op for op in operations("analytic", GOLDEN_SEED)}
REPLAYED = [name for name, op in OPS.items() if op.command == "sigma"] + ["verify_mean"]
LARGE_OPS = {op.name: op for op in operations("large_field", GOLDEN_SEED)}
MC_OPS = {op.name: op for op in operations("mc_verify", GOLDEN_SEED)}


def _replay(capsys, op, golden):
    assert list(op.argv) == golden["argv"]
    code = main(list(op.argv))
    assert code == golden["exit"]
    assert capsys.readouterr().out == golden["stdout"]


@pytest.mark.parametrize("name", REPLAYED)
def test_analytic_operation_matches_golden(capsys, name):
    _replay(capsys, OPS[name], GOLDEN[name])


@pytest.mark.parametrize("name", ["verify_ks", "verify_var"])
def test_mc_verify_operation_matches_golden(capsys, name):
    _replay(capsys, MC_OPS[name], GOLDEN_ALL["mc_verify"][name])


@pytest.mark.parametrize("name", ["sample_cholesky", "qv_csv"])
def test_large_field_output_file_matches_golden(capsys, tmp_path, name):
    op, golden = LARGE_OPS[name], GOLDEN_ALL["large_field"][name]
    assert list(op.argv) == golden["argv"]
    out = tmp_path / Path(op.out).name
    argv = list(op.argv)
    argv[argv.index("--out") + 1] = str(out)
    assert main(argv) == golden["exit"]
    assert capsys.readouterr().out == golden["stdout"]
    assert hashlib.sha256(out.read_bytes()).hexdigest() == golden["file_sha256"]
