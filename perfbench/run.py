"""Benchmark entry point: run one workload, check its outputs, print metrics.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from anywhere inside a checkout of the repository; it builds nothing and
imports ``sheetqv`` from the checkout's ``src``. The workload runs in one
worker process (``worker.py``) with as many BLAS threads as this process may
use cores. Set-up time is the median over fresh interpreters, started by the
worker around its passes, importing ``sheetqv.cli`` and building its parser.
Human-readable lines come first; the last line of stdout is the JSON result
whose metrics are the ones ``BENCHMARK.json`` names (end-to-end with
``--trace 0``, per-layer with ``--trace 1``). Everything else, with the run
manifest and every output digest, goes to ``.perfbench_out/result-*.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORKER_TIMEOUT_S = 170
SELF_SUM_TOLERANCE = 0.01  # layers' self times must add up to the traced wall time within 1%

if not (ROOT / "src" / "sheetqv" / "cli.py").is_file():
    sys.exit(f"perfbench: no sheetqv sources under {ROOT / 'src'}; run it from a full checkout")
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from perfbench import checks, layers, workloads  # noqa: E402


def worker_env(threads: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    return env


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True, timeout=30)
    return out.stdout.strip() or None


def spec_metrics(trace: int) -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def judge(ops, passes, golden) -> tuple[dict, dict]:
    """Check every execution; return per-op failure lists and output digests."""
    reasons, digests = {}, {}
    for i, op in enumerate(ops):
        file_sha = None
        if op.out is not None:
            try:
                checks.check_file(op, ROOT / op.out)
                file_sha = passes[-1]["executions"][i]["file_sha256"]
            except (checks.CheckError, OSError) as e:
                reasons.setdefault(op.name, []).append(f"output file: {e}")
        expected = None
        if golden is not None:
            expected = golden.get(op.name)
            if expected is None or expected["argv"] != list(op.argv):
                raise SystemExit(f"golden.json does not describe operation {op.name}")
        failed = 0
        for p in passes:
            why = checks.failures(op, p["executions"][i], file_sha, expected)
            if why:
                failed += 1
                reasons.setdefault(op.name, []).extend(why)
        first = passes[0]["executions"][i]
        digests[op.name] = {
            "argv": list(op.argv),
            "exit": first["exit"],
            "stdout_sha256": hashlib.sha256(first["stdout"].encode()).hexdigest(),
            "file_sha256": file_sha,
            "failed": failed,
        }
    return reasons, digests


def launch_worker(workload: str, seed: int, seconds: float, trace: int, env: dict) -> dict:
    """Run the workload in a worker process and return what it wrote."""
    out_dir = ROOT / workloads.OUT_DIR
    out_dir.mkdir(exist_ok=True)
    raw = out_dir / f"worker-{workload}-seed{seed}-trace{trace}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out", str(raw)]
    if trace:
        cmd += ["--spans", str(out_dir / f"spans-{workload}-seed{seed}.json")]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: worker exited with {proc.returncode}")
    result = json.loads(raw.read_text())
    raw.unlink()
    return result


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    out_dir = ROOT / workloads.OUT_DIR
    threads = len(os.sched_getaffinity(0))
    env = worker_env(threads)
    result = launch_worker(workload, seed, seconds, trace, env)

    ops = workloads.operations(workload, seed)
    golden = None
    if seed == workloads.GOLDEN_SEED:
        golden = json.loads((HERE / "golden.json").read_text())[workload]
    passes = result["passes"]
    reasons, digests = judge(ops, passes, golden)
    for op in ops:
        if op.out is not None and (ROOT / op.out).exists():
            (ROOT / op.out).unlink()

    attempted = len(ops) * len(passes)
    failed = sum(d["failed"] for d in digests.values())
    plain = [p for p in passes if p["kind"] == "plain"]
    traced = [p for p in passes if p["kind"] == "traced"]
    metrics = {}
    if not trace:
        metrics["setup_s"] = (statistics.median(result["setup_s"]), "s")
        metrics["wall_s"] = (statistics.median(p["wall_s"] for p in plain), "s")
        metrics["peak_rss_mb"] = (result["peak_rss_mb"], "MB")
        metrics["fail_ratio"] = (failed / attempted, "failed/attempted")
        for i, op in enumerate(ops):
            t = statistics.median(p["executions"][i]["seconds"] for p in plain)
            metrics[op.metric] = (metrics.get(op.metric, (0.0,))[0] + t, "s")
    self_sum_ok = True
    if trace:
        for name, (_, unit) in traced[0]["layers"].items():
            metrics[name] = (statistics.median(p["layers"][name][0] for p in traced), unit)
        wall = statistics.median(p["wall_s"] for p in traced)
        metrics["trace.wall_s"] = (wall, "s")
        metrics["trace.self_sum_s"] = (statistics.median(p["self_sum_s"] for p in traced), "s")
        metrics["trace.overhead_s"] = (wall - statistics.median(p["wall_s"] for p in plain), "s")
        self_sum_ok = all(abs(p["self_sum_s"] - p["wall_s"]) <= SELF_SUM_TOLERANCE * p["wall_s"]
                          for p in traced)

    manifest = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "commit": commit(), "src_sha256": source_digest(),
        **result["manifest"],
        "blas_threads": threads, "nproc": threads,
        "passes": [[p["kind"], p["wall_s"]] for p in passes],
        "setup_samples_s": result["setup_s"],
        "op_seconds": {op.name: [p["executions"][i]["seconds"] for p in passes] for i, op in enumerate(ops)},
        "argv": {op.name: list(op.argv) for op in ops},
    }
    report = {
        "manifest": manifest,
        "correct": failed == 0 and self_sum_ok,
        "attempted": attempted,
        "failed": failed,
        "failures": reasons,
        "self_sum_ok": self_sum_ok,
        "outputs": digests,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (out_dir / f"result-{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(report, indent=1))
    return report


def print_report(report: dict) -> None:
    m = report["manifest"]
    print(f"== {m['workload']}  seed {m['seed']}  trace {m['trace']}  "
          f"passes {len(m['passes'])}  blas threads {m['blas_threads']}")
    print("manifest " + json.dumps(m))
    for name, d in report["outputs"].items():
        print(f"output {name}: exit {d['exit']} stdout {d['stdout_sha256'][:16]} "
              f"file {(d['file_sha256'] or '-')[:16]} failed {d['failed']}")
    for name, reasons in report["failures"].items():
        for reason in reasons:
            print(f"FAILED {name}: {reason}")
    if m["trace"] and not report["self_sum_ok"]:
        print("FAILED layers' self times do not add up to the traced wall time")
    for name, metric in report["metrics"].items():
        label = " (computed)" if name in layers.COMPUTED else ""
        print(f"metric {name:34s} {metric['value']:.6g} {metric['unit']}{label}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=workloads.GOLDEN_SEED)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be non-negative and --seconds positive")

    names = spec_metrics(args.trace)
    chosen = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    reports = [run_workload(w, args.seed, args.seconds, args.trace) for w in chosen]
    for report in reports:
        print_report(report)
    single = len(reports) == 1
    print(json.dumps({
        "correct": all(r["correct"] for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": {
            (name if single else f"{r['manifest']['workload']}.{name}"): r["metrics"][name]
            for r in reports for name in names
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
