"""Property test of the exit-code contract over generated command lines.

Every argv either runs (exit 0), reports a failed check (exit 1, exactly
when some printed record has ``pass: false``), or is refused (exit 2) with
exactly one stderr line, no record and no output file. An uncaught
exception, which the console script would turn into exit 1, fails the test
with its traceback.

The flag values are drawn from lists that cover each branch: admissible,
inadmissible, boundary and invalid Hurst indices; grid sizes up to 16 and
above the sampler cap; replication counts up to 200; unknown names; text
that argparse cannot convert for the integer and number flags. Their
σ series stop by cutoff 4·10⁶ or are refused at once, so each example is
cheap (a σ tolerance such as 1e-6 at β = 0.6 walks 10⁸ terms for seconds).
A config file may set any key too, with values of the wrong JSON type among
its draws.
"""

import contextlib
import io
import json
import math
import os
import tempfile

from hypothesis import example, given, settings, strategies as st

from sheetqv.cli import EXIT_CONFIG, EXIT_OK, EXIT_TEST_FAILURE, main

# (valid values, invalid values) per flag; an invalid value is drawn one time in twenty
HURST = (["0.35", "0.4", "0.3", "0.45", "0.2", "0.25", "0.5", "0.6", "0.75", "0.9"],
         ["0", "1", "-0.1", "nan", "inf", "x"])
TOLS = (["1e-10", "1e-3", "inf"], ["1e-300", "0", "-1", "nan", "x"])
SIZES = (["1", "2", "3", "4", "8", "16"], ["0", "-1", "5000", "2.5", "x"])
REPS = (["2", "50", "100", "200"], ["1", "0", "-1", "2.5", "x"])
SEEDS = (["0", "1", "7"], ["-1", "2.5", "x"])
WEIGHTS = (["constant_one", "identity", "square", "cosine"], ["user_table", "nope"])
METHODS = (["cholesky", "circulant"], ["fft"])
FORMATS = (["csv", "bin"], ["txt"])
SUITES = (["mean", "var", "ks", "charfn", "stable", "kernel-props"], ["nope"])
Z_KINDS = (["cos_corner", "indicator_center"], ["nope"])
CASES = (["1", "100"], ["0", "2.5", "x"])
OUT = (["OUT"], [])  # replaced by a path in a fresh directory

# Every key can come from the config file too, where a value can also have the wrong JSON type.
# A flag given on the command line overrides the file's value.
_NOT_A_STRING = [["x"], {"x": "y"}, True, 1]
_HURST = ([0.35, 0.4, 0.3, 0.2, 0.5, 0.6, 0.9], [0, 1, float("nan"), "0.35", [0.35], True])
CONFIG = {
    "alpha": _HURST,
    "beta": _HURST,
    "tol": ([1e-10, 1e-3], [0, -1, float("inf"), "1e-3", {}]),
    "n": ([1, 2, 4, 8, 16], [0, 5000, 2.5, True, "8"]),
    "n_list": ([[4], [2, 4], [4, 8]], [[], [8, 16.5], 8, "8"]),
    "M": ([2, 50, 100, 200], [1, 2.5, "200", None]),
    "seed": ([0, 1, 7], [-1, 1.5, "1", [1]]),
    "cases": ([1, 100], [0, "100", False]),
    "method": (METHODS[0], METHODS[1] + _NOT_A_STRING),
    "format": (FORMATS[0], FORMATS[1] + _NOT_A_STRING),
    "weight": (WEIGHTS[0], WEIGHTS[1] + _NOT_A_STRING),
    "which": (SUITES[0], SUITES[1] + _NOT_A_STRING),
    "z_kind": (Z_KINDS[0], Z_KINDS[1] + _NOT_A_STRING),
    # an integer (or a bool) out would be opened as a file descriptor, so the number drawn is 2.5
    "out": (OUT[0], [["x"], {"x": "y"}, 2.5]),
    # points and lambda_grid have no flag
    "points": ([[[0.5, 1.0], [1.0, 0.5]], [[1.0, 1.0]], [[0.0, 0.0], [1.0, 1.0], [0.25, 0.75]]],
               [[[1.5, 0.5]], [], "abc"]),
    "lambda_grid": ([[-1.0, 0.5], [0.0], [2.0, -5.0, 1.0]], [[1.0, 10.0], [], [float("nan")], "abc"]),
}


def _value(choices):
    valid, invalid = choices
    return st.integers(0, 19).flatmap(lambda k: st.sampled_from(invalid if k == 0 and invalid else valid))


def _flag(name, choices, always=False):
    """``[name, value]``; unless ``always``, absent one time in twenty to test defaults and _require."""
    pair = _value(choices).map(lambda v: [name, v])
    if always:
        return pair
    return st.integers(0, 19).flatmap(lambda k: st.just([]) if k == 0 else pair)


def _flags(command, *pairs):
    return st.tuples(*pairs).map(lambda parts: [command, *(tok for part in parts for tok in part)])


_HURST_FLAGS = [_flag("--alpha", HURST), _flag("--beta", HURST)]
_SAMPLE_FLAGS = [*_HURST_FLAGS, _flag("--seed", SEEDS), _flag("--n", SIZES), _flag("--method", METHODS),
                 _flag("--out", OUT)]
# verify always gets its grid sizes and replication count: the defaults (n = 64, M = 5000) cost seconds
def _order(tok):
    # a size's numeric order; text that is no number goes last
    return float(tok) if tok.lstrip("-").replace(".", "", 1).isdigit() else math.inf


_N_LIST = st.lists(_value(SIZES), min_size=1, max_size=3, unique=True).map(
    lambda v: ["--n-list", *sorted(v, key=_order)])

COMMANDS = st.one_of(
    _flags("sigma", *_HURST_FLAGS, _flag("--tol", TOLS)),
    _flags("sample", *_SAMPLE_FLAGS, _flag("--format", FORMATS)),
    _flags("qv", *_SAMPLE_FLAGS, _flag("--weight", WEIGHTS)),
    _flags(
        "verify", *_HURST_FLAGS, _flag("--seed", SEEDS), _flag("--which", SUITES),
        _flag("--n", SIZES, always=True), _flag("--M", REPS, always=True), _N_LIST,
        _flag("--weight", WEIGHTS), _flag("--z-kind", Z_KINDS), _flag("--cases", CASES, always=True),
    ),
)
_VALID = ["--alpha", "0.35", "--beta", "0.4", "--seed", "1", "--M", "200"]
CONFIGS = st.one_of(st.none(), st.fixed_dictionaries({}, optional={k: _value(v) for k, v in CONFIG.items()}))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(argv=COMMANDS, config=CONFIGS)
# one run of each verify suite, however the generated examples fall
@example(argv=["verify", "--which", "mean", *_VALID, "--n-list", "2", "4", "8"], config=None)
@example(argv=["verify", "--which", "var", *_VALID, "--n-list", "4", "8"], config=None)
# a decreasing list and equal sizes: the sorted, unique generator never draws them
@example(argv=["verify", "--which", "var", *_VALID, "--n-list", "8", "4"], config=None)
@example(argv=["verify", "--which", "var", *_VALID, "--n-list", "8", "8"], config=None)
@example(argv=["verify", "--which", "ks", *_VALID, "--n", "8"], config=None)
@example(argv=["verify", "--which", "charfn", *_VALID, "--n", "8"], config={"points": [[1.0, 1.0]]})
@example(argv=["verify", "--which", "stable", *_VALID, "--n", "8", "--z-kind", "indicator_center"], config=None)
@example(argv=["verify", "--which", "kernel-props", *_VALID, "--cases", "100"], config=None)
# a value of the wrong JSON type where no flag overrides it: the generator draws these only by chance
@example(argv=["verify", *_VALID, "--n", "8"], config={"which": ["ks"]})
@example(argv=["sample", *_VALID[:6], "--n", "4"], config={"out": 2.5})
# a weight the suite does not judge: the generator draws it for ks and mean only by chance
@example(argv=["verify", "--which", "ks", *_VALID, "--n", "8", "--weight", "square"], config=None)
@example(argv=["verify", "--which", "mean", *_VALID, "--n-list", "2", "4", "--weight", "cosine"], config=None)
def test_every_command_line_runs_fails_a_check_or_is_refused(argv, config):
    with tempfile.TemporaryDirectory() as tmp:
        argv = [f"{tmp}/out" if tok == "OUT" else tok for tok in argv]
        if config is not None:
            with open(f"{tmp}/cfg.json", "w") as fh:
                json.dump({k: f"{tmp}/out" if v == "OUT" else v for k, v in config.items()}, fh)
            argv += ["--config", f"{tmp}/cfg.json"]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        wrote = os.path.exists(f"{tmp}/out")
    assert code in (EXIT_OK, EXIT_TEST_FAILURE, EXIT_CONFIG)
    records = [json.loads(line) for line in out.getvalue().splitlines()]
    failed = any(r.get("pass") is False for r in records)
    assert (code == EXIT_TEST_FAILURE) == failed, (argv, config, code)
    if code == EXIT_CONFIG:
        assert (len(err.getvalue().splitlines()), records, wrote) == (1, [], False), (argv, config, err.getvalue())
