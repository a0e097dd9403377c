"""Limiting-constant series: exact values, bracketing, and regime checks."""

import importlib
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from sheetqv.kernel import HurstPair, InputError, rho_range
from sheetqv.sigma import (
    _BLOCK,
    CutoffError,
    RegimeError,
    _axis_sum_sq,
    _exact_parts,
    sigma,
    sigma_series,
    sigma_squared_partial,
    tail_constant,
)

# the package re-exports the function sigma, which hides the module attribute
sigma_module = importlib.import_module("sheetqv.sigma")

# Frozen references computed by direct two-sided summation of
# (1/8) (sum_c rho_a(c)^2)(sum_d rho_b(d)^2) out to |c| = 2e6 with fsum.
SIGMA2_035_035 = 2.3236365946489688
SIGMA2_035_040 = 2.2394032553028795
SIGMA2_030_045 = 2.2753227482063108


def test_brownian_case_is_sqrt_two():
    assert sigma(HurstPair(0.5, 0.5), 1e-12) == math.sqrt(2.0)


def test_brownian_partial_sum_has_zero_tail():
    res = sigma_squared_partial(HurstPair(0.5, 0.5), 0)
    assert res.value == 2.0
    assert res.tail_bound == 0.0


@pytest.mark.parametrize(
    "a,b,ref",
    [
        (0.35, 0.35, SIGMA2_035_035),
        (0.35, 0.40, SIGMA2_035_040),
        (0.30, 0.45, SIGMA2_030_045),
    ],
)
def test_sigma_matches_direct_summation(a, b, ref):
    assert sigma(HurstPair(a, b), 1e-9) ** 2 == pytest.approx(ref, rel=1e-8)


def test_bracketing_invariant():
    h = HurstPair(0.35, 0.35)
    for cutoff in (4, 40, 400):
        res = sigma_squared_partial(h, cutoff)
        assert res.value <= SIGMA2_035_035 <= res.value + res.tail_bound


def test_partial_sums_increase_and_tails_shrink():
    h = HurstPair(0.3, 0.45)
    prev = sigma_squared_partial(h, 4)
    for cutoff in (40, 400, 4000):
        cur = sigma_squared_partial(h, cutoff)
        assert cur.value >= prev.value
        assert cur.tail_bound < prev.tail_bound
        prev = cur


def test_tail_bound_dominates_true_tail():
    # bound at cutoff N must cover everything the sum gains beyond N
    h = HurstPair(0.35, 0.4)
    res = sigma_squared_partial(h, 50)
    far = sigma_squared_partial(h, 500_000)
    assert far.value - res.value <= res.tail_bound


def test_tail_constant():
    assert tail_constant(0.5) == 0.0
    assert tail_constant(0.35) == pytest.approx(0.7 * 0.3, rel=1e-15)


def test_regime_rejection():
    with pytest.raises(RegimeError):
        sigma(HurstPair(0.8, 0.3), 1e-6)
    with pytest.raises(RegimeError):
        sigma_squared_partial(HurstPair(0.3, 0.76), 10)
    # boundary 3/4 itself diverges
    with pytest.raises(RegimeError):
        sigma(HurstPair(0.75, 0.5), 1e-6)


def test_input_validation():
    h = HurstPair(0.35, 0.35)
    with pytest.raises(ValueError):
        sigma(h, 0.0)
    with pytest.raises(ValueError):
        sigma_squared_partial(h, -1)
    # nan compares false with everything: it must not pass as a tolerance that cutoff 4 meets
    with pytest.raises(InputError, match="tol must be positive"):
        sigma_series(h, float("nan"))
    assert issubclass(RegimeError, InputError)


def test_sigma_tolerance_is_honored():
    h = HurstPair(0.35, 0.35)
    loose = sigma(h, 1e-2) ** 2
    tight = sigma(h, 1e-10) ** 2
    assert loose <= tight <= SIGMA2_035_035 * (1 + 1e-8)
    assert abs(tight - SIGMA2_035_035) <= 1e-9 * SIGMA2_035_035


def test_tail_bound_survives_tails_below_an_ulp_of_the_axis_sums(monkeypatch):
    # the axis sum and tail at alpha = beta = 0.3 near cutoff 1e8, without walking the series:
    # (s + t)^2 - s^2 rounds to 0 there, and the bound must not claim sigma^2 exactly
    s, t = 4.5, 2.5e-16
    monkeypatch.setattr(sigma_module, "_axis_sum_sq", lambda gamma, cutoff, carry=None: s)
    monkeypatch.setattr(sigma_module, "_axis_tail", lambda gamma, cutoff: t)
    assert 0.125 * ((s + t) * (s + t) - s * s) == 0.0
    res = sigma_squared_partial(HurstPair(0.3, 0.3), 10**8)
    assert res.value == 0.125 * s * s
    assert res.tail_bound == 0.125 * (s * t + s * t + t * t) > 0.0


def _axis_sum_sq_one_list(gamma, cutoff):
    """The axis sum with every term in one list: the streamed sum's oracle."""
    terms = rho_range(gamma, 1, cutoff + 1) ** 2
    return 4.0 + 2.0 * math.fsum(terms.tolist())


GAMMAS = [0.05, 0.3, 0.35, 0.4, 0.45, 0.5, 0.6, 0.74]


@pytest.mark.parametrize(
    "cutoff", [0, 1, 4, 40, 400, 4_000, 40_000, _BLOCK, _BLOCK + 1, 400_000, 4_000_000]
)
def test_streamed_axis_sum_equals_one_list_fsum(cutoff):
    for gamma in GAMMAS:
        assert _axis_sum_sq(gamma, cutoff) == _axis_sum_sq_one_list(gamma, cutoff), gamma


def _span_block(span, size=1000, seed=0):
    """Positive floats with random 53-bit significands whose binary
    exponents run over exactly e .. e + span."""
    rng = np.random.default_rng(seed)
    t = np.ldexp(rng.uniform(1.0, 2.0, size), rng.integers(0, span + 1, size))
    t[0], t[-1] = 1.0, np.nextafter(2.0**(span + 1), 0.0)
    return t


def _crafted_blocks():
    yield "tie-low", [1.0, 2.0**-53]
    yield "tie-up", [1.0, 2.0**-53, 2.0**-105]
    yield "tie-even-down", [1.0, 1.0 + 2.0**-52]  # 2 + half an ulp
    yield "tie-even-up", [1.0 + 2.0**-52, 1.0 + 2.0**-51]  # 2 + 1.5 ulp
    yield "single", [0.1]
    yield "zeros", np.zeros(7)
    yield "zero-and-positive", [0.0, 0.3, 0.7]
    yield "subnormal", [5e-324, 1e-310, 2.0**-1022]
    yield "near-subnormal", [2.0**-1022, 3.0 * 2.0**-1020]
    yield "smallest-scalable", [2.0**-970, 3.0 * 2.0**-966]
    yield "tiny", np.linspace(1e-300, 2e-300, 999)
    yield "huge", np.linspace(1e300, 2e300, 999)
    for span in (0, 7, 8, 9, 10, 11, 40):
        yield f"span-{span}", _span_block(span)
    for seed in range(6):
        rng = np.random.default_rng(seed)
        yield f"random-{seed}", rng.uniform(0.5, 200.0, 1 << 16) * 2.0 ** rng.integers(-600, 600)


BLOCKS = {name: np.asarray(t, dtype=float) for name, t in _crafted_blocks()}


def _parts_of_a_copy(t):
    return _exact_parts(t.copy(), np.empty(t.size, np.int64))


@pytest.mark.parametrize("name", BLOCKS)
def test_exact_parts_sum_to_the_fsum_of_the_terms(name):
    t = BLOCKS[name]
    parts = _parts_of_a_copy(t)
    assert math.fsum(parts) == math.fsum(t.tolist())
    if isinstance(parts, memoryview):
        assert parts.tolist() == t.tolist()
    else:
        assert len(parts) == 2 and all(type(p) is float for p in parts)


@pytest.mark.parametrize(
    "name,exact",
    [("single", True), ("tie-even-down", True), ("span-8", True), ("huge", True),
     ("smallest-scalable", True), ("span-9", False), ("span-40", False),
     ("zeros", False), ("zero-and-positive", False), ("subnormal", False),
     ("near-subnormal", False), ("tiny", False)],
)
def test_exact_parts_fall_back_outside_the_exact_case(name, exact):
    assert isinstance(_parts_of_a_copy(BLOCKS[name]), memoryview) is not exact


def _record_blocks(monkeypatch):
    """Every block's parts, keyed by its first lag, and the threads that built them.

    Two threads build the blocks, so the order of the calls is a race and
    only the block's start identifies it.
    """
    parts, threads = {}, {}
    block_parts = sigma_module._block_parts

    def recording(gamma, lo, hi, steps, buffers):
        parts[gamma, lo] = block_parts(gamma, lo, hi, steps, buffers)
        threads[gamma, lo] = threading.get_ident()
        return parts[gamma, lo]

    monkeypatch.setattr(sigma_module, "_block_parts", recording)
    return parts, threads


def test_axis_sum_blocks_after_the_first_are_two_floats(monkeypatch):
    parts, _ = _record_blocks(monkeypatch)
    _axis_sum_sq(0.35, 4_000_000)
    assert sorted(lo for _, lo in parts) == list(range(1, 4_000_001, _BLOCK))
    assert isinstance(parts[0.35, 1], memoryview)  # the first block spans 1 down to ~2^-41
    assert all(isinstance(p, tuple) for (_, lo), p in parts.items() if lo > 1)


def _series_partials(monkeypatch, h, tol):
    """sigma_series(h, tol) and the partial sum it built at each cutoff, in order."""
    seen = []
    partial = sigma_module.sigma_squared_partial

    def recording(h, cutoff, _carry=None):
        seen.append(partial(h, cutoff, _carry=_carry))
        return seen[-1]

    with monkeypatch.context() as m:
        m.setattr(sigma_module, "sigma_squared_partial", recording)
        res = sigma_series(h, tol)
    assert seen[-1] is res
    assert [r.cutoff for r in seen] == [4 * 10**k for k in range(len(seen))]
    return seen


def _bits(res):
    return res.value.hex(), res.cutoff, res.tail_bound.hex()


@pytest.mark.parametrize(
    "a,b,last",
    [(0.35, 0.4, 4_000_000), (0.3, 0.45, 4_000_000), (0.45, 0.45, 4_000_000),
     (0.35, 0.35, 400_000), (0.5, 0.5, 4)],
)
def test_series_equals_the_partial_sum_from_lag_1_at_every_cutoff(monkeypatch, a, b, last):
    h = HurstPair(a, b)
    seen = _series_partials(monkeypatch, h, 1e-10)
    assert seen[-1].cutoff == last
    for res in seen:
        assert _bits(res) == _bits(sigma_squared_partial(h, res.cutoff)), res.cutoff


def test_tolerance_met_at_cutoff_4_starts_no_thread(monkeypatch):
    h = HurstPair(0.35, 0.4)
    _, threads = _record_blocks(monkeypatch)
    (res,) = _series_partials(monkeypatch, h, 1e-2)
    assert res.cutoff == 4 and set(threads.values()) == {threading.get_ident()}
    assert _bits(res) == _bits(sigma_squared_partial(h, 4))


def test_small_blocks_split_one_cutoff_between_both_threads(monkeypatch):
    # blocks of 7 lags: the cutoff 4000 adds 515 blocks to each axis, handed
    # out under a short switch interval so the threads interleave often
    monkeypatch.setattr(sigma_module, "_BLOCK", 7)
    h = HurstPair(0.35, 0.4)
    _, threads = _record_blocks(monkeypatch)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        seen = _series_partials(monkeypatch, h, 2e-7)
    finally:
        sys.setswitchinterval(interval)
    assert seen[-1].cutoff == 4000
    for gamma in (h.alpha, h.beta):
        late = {threads[gamma, lo] for lo in range(401, 4001, 7)}
        assert len(late) == 2, gamma
    for res in seen:
        assert _bits(res) == _bits(sigma_squared_partial(h, res.cutoff)), res.cutoff


def test_worker_exception_propagates_and_threads_end(monkeypatch):
    caller = threading.get_ident()
    block_parts = sigma_module._block_parts

    def failing(*args):
        if threading.get_ident() != caller:
            raise ArithmeticError("worker failed")
        return block_parts(*args)

    monkeypatch.setattr(sigma_module, "_block_parts", failing)
    before = threading.active_count()
    with pytest.raises(ArithmeticError, match="worker failed"):
        sigma_series(HurstPair(0.35, 0.4), 1e-10)
    assert threading.active_count() == before


@pytest.mark.parametrize("block", [7, _BLOCK])
@pytest.mark.parametrize("gamma", [0.3, 0.45])
def test_streamed_axis_sum_at_block_boundaries(monkeypatch, gamma, block):
    monkeypatch.setattr(sigma_module, "_BLOCK", block)
    for cutoff in (block - 1, block, block + 1, 2 * block, 3 * block + 1, 40_000):
        assert _axis_sum_sq(gamma, cutoff) == _axis_sum_sq_one_list(gamma, cutoff)


def test_axis_sum_memory_is_bounded():
    tracemalloc.start()
    try:
        _axis_sum_sq(0.4, 4_000_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_cutoff_cap_raises(monkeypatch):
    monkeypatch.setattr(sigma_module, "_CUTOFF_CAP", 400)
    with pytest.raises(CutoffError, match="within cutoff 400"):
        sigma_series(HurstPair(0.7, 0.7), 1e-10)
