"""Correctness checks on the outputs of one operation.

An execution of an operation fails when it raises, exits 2, breaks an output
invariant, or, on the golden seed, differs from the frozen output. A record
with ``pass: false`` is a result, not a failure.
"""

from __future__ import annotations

import json
import math

import numpy as np

from sheetqv.fieldsim import read_field

SIGMA_KEYS = {"sigma", "sigma_squared", "cutoff", "tail_bound"}
VERIFY_KEYS = {"test", "params", "estimate", "se", "reference", "provenance", "pass"}


class CheckError(ValueError):
    pass


def _finite(obj) -> bool:
    if isinstance(obj, bool) or obj is None or isinstance(obj, str):
        return True
    if isinstance(obj, (int, float)):
        return math.isfinite(obj)
    if isinstance(obj, list):
        return all(_finite(v) for v in obj)
    if isinstance(obj, dict):
        return all(_finite(v) for v in obj.values())
    return False


def _number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def records(stdout: str) -> list:
    """The JSON records of an operation's stdout, one per line."""
    try:
        return [json.loads(line) for line in stdout.splitlines()]
    except json.JSONDecodeError as e:
        raise CheckError(f"stdout is not JSON lines: {e}") from None


def check_stdout(op, exit_code, stdout: str) -> None:
    """Record schema, finite numbers, and exit 1 exactly when a record fails."""
    recs = records(stdout)
    if len(recs) != op.records:
        raise CheckError(f"{len(recs)} records on stdout, expected {op.records}")
    for r in recs:
        if not isinstance(r, dict):
            raise CheckError("record is not a JSON object")
        if not _finite(r):
            raise CheckError(f"record holds a non-finite or non-JSON value: {r}")
        if op.command == "sigma":
            if set(r) != SIGMA_KEYS or not all(_number(v) for v in r.values()):
                raise CheckError(f"malformed sigma record: {r}")
        elif not (VERIFY_KEYS <= set(r) <= VERIFY_KEYS | {"extra"}
                  and isinstance(r["pass"], bool) and isinstance(r["params"], dict)
                  and all(_number(r[k]) for k in ("estimate", "se", "reference"))):
            raise CheckError(f"malformed verify record: {r}")
    expected = 1 if any(r.get("pass") is False for r in recs) else 0
    if exit_code != expected:
        raise CheckError(f"exit code {exit_code}, expected {expected}")


def check_file(op, path) -> None:
    """The output file matches the command line and holds finite node values."""
    n = int(op.flag("--n"))
    alpha, beta = float(op.flag("--alpha")), float(op.flag("--beta"))
    if op.command == "sample":
        try:
            field = read_field(path)
        except (ValueError, OSError) as e:
            raise CheckError(f"unreadable field file: {e}") from None
        if (field.n, field.hurst.alpha, field.hurst.beta) != (n, alpha, beta):
            raise CheckError("field header does not match the command line")
        values = field.values
    else:
        with open(path) as fh:
            header = fh.readline().rstrip("\n").split(",")
        if header != [str(n), repr(alpha), repr(beta), op.flag("--weight")]:
            raise CheckError(f"unexpected CSV header {header}")
        try:
            values = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        except ValueError as e:
            raise CheckError(f"unreadable CSV: {e}") from None
    if values.shape != (n + 1, n + 1):
        raise CheckError(f"shape {values.shape}, expected {(n + 1, n + 1)}")
    if not np.all(np.isfinite(values)):
        raise CheckError("non-finite values in the output file")
    if np.any(values[0]) or np.any(values[:, 0]):
        raise CheckError("values on the axes are not zero")


def failures(op, execution: dict, file_sha256: str | None, golden: dict | None) -> list[str]:
    """Reasons one execution failed; empty when it succeeded.

    ``file_sha256`` is the digest of the checked output file (None if that
    check failed); ``golden`` is the frozen output of the golden seed.
    """
    if execution["error"] is not None:
        return [f"raised {execution['error']}"]
    out = []
    if execution["exit"] == 2:
        out.append("exit 2")
    try:
        check_stdout(op, execution["exit"], execution["stdout"])
    except CheckError as e:
        out.append(str(e))
    if op.out is not None and (file_sha256 is None or execution["file_sha256"] != file_sha256):
        out.append("output file missing, invalid, or not the checked one")
    if golden is not None:
        for key in ("exit", "stdout", "file_sha256"):
            if execution[key] != golden[key]:
                out.append(f"{key} differs from the golden output")
    return out
