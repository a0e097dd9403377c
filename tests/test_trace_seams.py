"""The Monte Carlo checks and sigma run under the benchmark's tracer as they run without it.

``perfbench.layers`` wraps sheetqv functions and binds some of their
parameters by name. A traced run must print the same bytes, count the
streams it draws, record the reference side's span, keep one σ partial-sum
span per cutoff, and leave every module as it found it. perfbench is only
imported here.
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


def _traced_calls(argv):
    """Run argv untraced and traced, check both print the same bytes and
    every module is restored, and return the traced run's span counts."""
    want = _stdout(argv)
    before = [dict(vars(m)) for m in MODULES]
    t = tracing.Tracer()
    try:
        layers.install(t)
        got = _stdout(argv)
    finally:
        t.restore()
    assert got == want
    after = [dict(vars(m)) for m in MODULES]
    assert all(a.keys() == b.keys() and all(a[k] is b[k] for k in a) for a, b in zip(after, before))
    return tracing.summarize(t.names, t.starts, t.ends, t.parents)["calls"]


def _stdout(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return code, out.getvalue()


@pytest.mark.parametrize("argv,streams,reference", [
    (("verify", "--which", "var", *H, "--n-list", "4", "8"), M, False),
    (("verify", "--which", "var", *H, "--n-list", "8"), M, False),
    (("verify", "--which", "charfn", *H, "--n", "8"), 2 * M, True),
    (("verify", "--which", "stable", *H, "--n", "6", "--z-kind", "indicator_center"), 2 * M, True),
    (("verify", "--which", "ks", *H, "--M", "100", "--n", "8"), 100, False),  # ks needs M >= 100
], ids=["var", "var-one-size", "charfn", "stable", "ks"])
def test_traced_check_prints_the_untraced_bytes(argv, streams, reference):
    calls = _traced_calls(argv)
    assert calls["fieldsim.streams"] == streams
    assert ("mcverify.reference" in calls) == reference


def test_traced_sigma_keeps_one_partial_span_per_cutoff():
    # cutoffs 4 .. 4e6: the last two split their blocks with a worker thread,
    # which opens no span
    calls = _traced_calls(("sigma", "--alpha", "0.35", "--beta", "0.4", "--tol", "1e-10"))
    assert calls["sigma.partial"] == 7
