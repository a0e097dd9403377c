"""Every command runs under the benchmark's tracer as it runs without it.

``perfbench.layers`` wraps sheetqv functions and binds some of their
parameters by name (``inc``, ``path``, ``n``, ``method``, ``gamma``, ...).
A traced run must exit with the same code, print the same bytes and write
the same file, count what it draws and writes, record each hooked layer's
span, keep one σ partial-sum span per cutoff, and leave every module as it
found it. perfbench is only imported here.
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import layers, tracing  # noqa: E402
from sheetqv import cli, fieldsim, kernel, mcverify, qv, sigma  # noqa: E402

M = 20
H = ("--alpha", "0.35", "--beta", "0.35", "--M", str(M), "--seed", "7")
MODULES = (cli, fieldsim, kernel, mcverify, qv, sigma)


def _traced_calls(argv, out=None):
    """Run argv untraced and traced, check both exit alike, print the same
    bytes and write the same ``out`` file, and that every module is restored,
    and return the traced run's span counts, its counters and the file's bytes."""
    want = _run(argv, out)
    before = [dict(vars(m)) for m in MODULES]
    t = tracing.Tracer()
    try:
        layers.install(t)
        got = _run(argv, out)
    finally:
        t.restore()
    assert got == want
    after = [dict(vars(m)) for m in MODULES]
    assert all(a.keys() == b.keys() and all(a[k] is b[k] for k in a) for a, b in zip(after, before))
    return tracing.summarize(t.names, t.starts, t.ends, t.parents)["calls"], t.counts, got[2]


def _run(argv, out):
    """Exit code, stdout and the bytes of ``out`` (None if none) of one run."""
    text = io.StringIO()
    with contextlib.redirect_stdout(text), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    written = None
    if out is not None and out.exists():
        written = out.read_bytes()
        out.unlink()  # the next run writes it anew
    return code, text.getvalue(), written


@pytest.mark.parametrize("argv,streams,reference", [
    (("verify", "--which", "var", *H, "--n-list", "4", "8"), M, False),
    (("verify", "--which", "var", *H, "--n-list", "8"), M, False),
    (("verify", "--which", "charfn", *H, "--n", "8"), 2 * M, True),
    (("verify", "--which", "stable", *H, "--n", "6", "--z-kind", "indicator_center"), 2 * M, True),
    (("verify", "--which", "ks", *H, "--M", "100", "--n", "8"), 100, False),  # ks needs M >= 100
], ids=["var", "var-one-size", "charfn", "stable", "ks"])
def test_traced_check_prints_the_untraced_bytes(argv, streams, reference):
    calls, _, _ = _traced_calls(argv)
    assert calls["fieldsim.streams"] == streams
    assert ("mcverify.reference" in calls) == reference
    assert calls.get("mcverify.bootstrap", 0) == (2 if reference else 0)  # both SE steps, through the hook


def test_traced_sigma_keeps_one_partial_span_per_cutoff():
    # cutoffs 4 .. 4e6: the last two split their blocks with a worker thread,
    # which opens no span
    calls, _, _ = _traced_calls(("sigma", "--alpha", "0.35", "--beta", "0.4", "--tol", "1e-10"))
    assert calls["sigma.partial"] == 7


S = ("--alpha", "0.35", "--beta", "0.4", "--seed", "7")
FIELD = {"fieldsim.factor", "fieldsim.streams", "fieldsim.sample"}
FILE = object()  # stands for the output file's size
# the normals one n = 16 field draws: (m, m) with m the factor width
NORMALS = {"cholesky": 16 * 16, "circulant": 32 * 32}


@pytest.mark.parametrize("argv,spans,counts", [
    *[
        (("sample", *S, "--n", "16", "--method", m, "--format", "csv"), FIELD | {"fieldsim.prefix"},
         {"fieldsim.normals": NORMALS[m], "fieldsim.prefix.bytes": 32 * 16 * 16})
        for m in NORMALS
    ],
    *[
        (("sample", *S, "--n", "16", "--method", m, "--format", "bin"), FIELD | {"fieldsim.prefix", "fieldsim.write"},
         {"fieldsim.normals": NORMALS[m], "fieldsim.write.bytes": FILE})
        for m in NORMALS
    ],
    *[
        (("qv", *S, "--n", "16", "--method", m), FIELD | {"qv.statistic", "qv.csv"},
         {"fieldsim.normals": NORMALS[m], "qv.csv.bytes": FILE})
        for m in NORMALS
    ],
    (("verify", "--which", "mean", *S, "--n-list", "8", "16"), {"mcverify.mean_decay", "mcverify.exact"}, {}),
    (("verify", "--which", "kernel-props", *S, "--cases", "100"),
     {"mcverify.kernel_suite", "kernel.incr_cov", "kernel.delta_incr_inner"}, {}),
], ids=[
    "sample-cholesky-csv", "sample-circulant-csv", "sample-cholesky-bin", "sample-circulant-bin",
    "qv-cholesky", "qv-circulant", "mean", "kernel-props",
])
def test_traced_command_writes_the_untraced_bytes(tmp_path, argv, spans, counts):
    out = tmp_path / "out"
    if argv[0] != "verify":
        argv = (*argv, "--out", str(out))
    calls, got, written = _traced_calls(argv, out)
    assert (written is not None) == (argv[0] != "verify")
    assert spans <= calls.keys()
    assert {k: got[k] for k in counts} == {k: len(written) if v is FILE else v for k, v in counts.items()}
