"""The analytic benchmark operations replay byte for byte against their golden record.

The benchmark checks these outputs too; this keeps the check in the test
suite, so a change that moves the last bit of sigma or of the exact means
fails here first. Both files are only read.
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.workloads import GOLDEN_SEED, operations  # noqa: E402
from sheetqv.cli import main  # noqa: E402

GOLDEN = json.loads((ROOT / "perfbench" / "golden.json").read_text())["analytic"]
OPS = {op.name: op for op in operations("analytic", GOLDEN_SEED)}
REPLAYED = [name for name, op in OPS.items() if op.command == "sigma"] + ["verify_mean"]


@pytest.mark.parametrize("name", REPLAYED)
def test_analytic_operation_matches_golden(capsys, name):
    op, golden = OPS[name], GOLDEN[name]
    assert list(op.argv) == golden["argv"]
    code = main(list(op.argv))
    assert code == golden["exit"]
    assert capsys.readouterr().out == golden["stdout"]
