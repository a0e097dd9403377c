"""Rewrite golden.json: the outputs of every workload at the golden seed.

    python3 perfbench/freeze.py

Runs each workload once, checks the outputs against the invariants, and
stores each operation's argv, exit code, stdout and output-file digest. Only
rerun it when a change is meant to alter the program's outputs.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import run  # noqa: E402  (puts the checkout's src on sys.path)
from perfbench import checks, workloads  # noqa: E402


def main() -> int:
    env = run.worker_env(len(os.sched_getaffinity(0)))
    golden = {}
    for workload in workloads.WORKLOADS:
        ops = workloads.operations(workload, workloads.GOLDEN_SEED)
        result = run.launch_worker(workload, workloads.GOLDEN_SEED, 0, 0, env)
        golden[workload] = {}
        for op, e in zip(ops, result["passes"][0]["executions"]):
            if e["error"] is not None:
                raise SystemExit(f"{op.name} raised {e['error']}")
            checks.check_stdout(op, e["exit"], e["stdout"])
            if op.out is not None:
                checks.check_file(op, run.ROOT / op.out)
                (run.ROOT / op.out).unlink()
            golden[workload][op.name] = {
                "argv": list(op.argv), "exit": e["exit"],
                "stdout": e["stdout"], "file_sha256": e["file_sha256"],
            }
    (run.HERE / "golden.json").write_text(json.dumps(golden, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
