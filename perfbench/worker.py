"""Run one workload's operations in this process through ``sheetqv.cli.main``.

Started by ``run.py`` with the checkout's ``src`` on ``PYTHONPATH`` and the
BLAS thread count set. Repeats the operation list while another pass fits in
``--seconds`` (at least one pass; with ``--trace 1`` a warm-up pass, then
untraced and traced passes alternating, at least one of each). Writes every
execution's outputs and timings, the set-up probes, and the per-layer metrics
of traced passes to ``--out`` as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 2  # fresh interpreters started around each untraced pass
sys.path.insert(0, str(ROOT))

from perfbench import layers, tracing, workloads  # noqa: E402


def _sha256(path) -> str | None:
    if not os.path.exists(path):
        return None
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def execute(main, op) -> dict:
    """Run one operation; its time covers the call to ``main`` only."""
    if op.out is not None and os.path.exists(op.out):
        os.remove(op.out)
    out, err = io.StringIO(), io.StringIO()
    error = code = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(op.argv))
    except Exception as e:  # a raising operation is a failed one, not a crashed benchmark
        error = f"{type(e).__name__}: {e}"
    seconds = time.perf_counter() - t0
    return {
        "op": op.name,
        "seconds": seconds,
        "exit": code,
        "error": error,
        "stdout": out.getvalue(),
        "file_sha256": _sha256(op.out) if op.out is not None else None,
    }


def run_pass(cli, ops, tracer=None) -> dict:
    if tracer is None:
        executions = [execute(cli.main, op) for op in ops]
    else:
        try:
            layers.install(tracer)
            main = lambda argv: tracer.call("cli.main", cli.main, argv)  # noqa: E731
            executions = [execute(main, op) for op in ops]
        finally:
            tracer.restore()
    result = {"executions": executions,
              "wall_s": sum(e["seconds"] for e in executions)}
    if tracer is not None:
        summary = tracing.summarize(tracer.names, tracer.starts, tracer.ends, tracer.parents)
        stdout_bytes = sum(len(e["stdout"].encode()) for e in executions)
        result["layers"] = layers.metrics(summary, tracer, result["wall_s"], stdout_bytes)
        result["self_sum_s"] = sum(summary["layer_self"].values())
    return result


def probe_setup(count: int) -> list[float]:
    """Wall times of fresh interpreters importing the CLI and building its parser."""
    times = []
    for _ in range(count):
        t0 = time.perf_counter()
        # no timeout: with one, the wait polls at up to 50 ms steps and quantizes the time
        subprocess.run([sys.executable, "-c", "import sheetqv.cli as c; c.build_parser()"], check=True)
        times.append(time.perf_counter() - t0)
    return times


def pass_kind(trace: int, done: int) -> str:
    if not trace:
        return "plain"
    if done == 0:
        return "warmup"
    return "plain" if done % 2 else "traced"


def blas_info(np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError):
        return {"name": None, "version": None}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spans", help="where to write the last traced pass's spans")
    args = ap.parse_args(argv)

    import numpy as np
    import sheetqv
    from sheetqv import cli

    source = Path(sheetqv.__file__).resolve()
    if ROOT / "src" not in source.parents:
        sys.exit(f"sheetqv was imported from {source}, not from this checkout")

    os.chdir(ROOT)
    os.makedirs(workloads.OUT_DIR, exist_ok=True)
    ops = workloads.operations(args.workload, args.seed)
    # With tracing, a first untraced pass warms up the process so that the
    # untraced and traced passes compared for trace.overhead_s are both warm.
    # Without tracing, set-up is probed before the first pass and after each
    # one, so that its median spans the run as the passes do.
    probes = 0 if args.trace else SETUP_PROBES
    passes = []
    start = time.perf_counter()
    setup = probe_setup(probes)
    longest = 0.0
    while True:
        kind = pass_kind(args.trace, len(passes))
        tracer = tracing.Tracer() if kind == "traced" else None
        t0 = time.perf_counter()
        passes.append({"kind": kind, **run_pass(cli, ops, tracer)})
        if tracer is not None and args.spans:
            tracer.dump(args.spans)
        setup += probe_setup(probes)
        longest = max(longest, time.perf_counter() - t0)
        owed = args.trace and len(passes) < 3
        if not owed and time.perf_counter() - start + longest > args.seconds:
            break

    result = {
        "passes": passes,
        "setup_s": setup,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "manifest": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "blas": blas_info(np),
            "sheetqv": str(source.parent.relative_to(ROOT)),
        },
    }
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
