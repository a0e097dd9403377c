"""The worker-thread helper's contract, and that every second-core layer goes through it."""

import ast
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import sheetqv
from sheetqv._threads import alongside

SRC = Path(sheetqv.__file__).parent


def fails():
    raise ArithmeticError("worker failed")


def _wait_for(failed):
    for _ in range(10_000):
        if failed:
            return list(failed)
        threading.Event().wait(0.001)
    raise AssertionError("the worker's error never reached the list")


def test_fn_runs_on_another_thread_and_is_joined():
    ran = []
    before = threading.active_count()
    with alongside(lambda a, b: ran.append((threading.get_ident(), a + b)), 2, 3) as failed:
        pass
    assert ran == [(ran[0][0], 5)] and ran[0][0] != threading.get_ident()
    assert failed == []
    assert threading.active_count() == before


def test_worker_error_is_raised_when_the_block_is_left():
    before = threading.active_count()
    body = []
    with pytest.raises(ArithmeticError, match="worker failed"):
        with alongside(fails):
            body.append("ran")
    assert body == ["ran"]
    assert threading.active_count() == before


def test_block_error_wins_over_the_worker_error():
    before = threading.active_count()
    with pytest.raises(KeyError, match="block failed"):
        with alongside(fails) as failed:
            _wait_for(failed)  # the worker has failed before the block does
            raise KeyError("block failed")
    assert threading.active_count() == before


def test_yielded_list_holds_the_worker_error_while_the_block_runs():
    before = threading.active_count()
    with pytest.raises(ArithmeticError):
        with alongside(fails) as failed:
            seen = _wait_for(failed)
    assert len(seen) == 1 and isinstance(seen[0], ArithmeticError)
    assert threading.active_count() == before


def test_block_error_waits_for_the_worker():
    # the worker is joined before the block's error leaves the with statement
    done, release = [], threading.Event()

    def slow():
        release.wait(5)
        done.append(True)

    before = threading.active_count()
    with pytest.raises(KeyError):
        with alongside(slow):
            release.set()
            raise KeyError("block failed")
    assert done == [True]
    assert threading.active_count() == before


def _names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module


def _thread_constructions(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr == "Thread":
                yield node
            elif isinstance(func, ast.Name) and func.id == "Thread":
                yield node


def test_only_the_helper_starts_a_thread():
    starts, banned = {}, set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        starts[path.name] = len(list(_thread_constructions(tree)))
        for name in _names(tree):
            if name in ("Condition", "ThreadPoolExecutor", "concurrent.futures", "concurrent"):
                banned.add((path.name, name))
    assert {name for name, k in starts.items() if k} == {"_threads.py"}
    assert starts["_threads.py"] == 1
    assert banned == set()


def _modules_after(code):
    out = subprocess.run(
        [sys.executable, "-c", code + "\nimport sys\nprint(' '.join(sorted(sys.modules)))"],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(SRC.parent)},
    )
    return set(out.stdout.split())


def test_cli_start_up_loads_no_queue_or_futures():
    loaded = _modules_after("import sheetqv.cli")
    assert "queue" not in loaded and "concurrent.futures" not in loaded


def test_monte_carlo_suite_loads_no_futures():
    loaded = _modules_after(
        "from sheetqv.cli import main\n"
        "import contextlib, io\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "    code = main(['verify', '--which', 'stable', '--alpha', '0.35', '--beta', '0.35',\n"
        "                 '--seed', '1', '--n', '8', '--M', '20'])\n"
        "assert code in (0, 1), code"
    )
    assert "queue" in loaded  # the suite ran its chunks
    assert "concurrent.futures" not in loaded
