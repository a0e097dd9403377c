"""Exact sampler: factorizations, covariance agreement, determinism, I/O."""

import io
import math
import threading
import tracemalloc
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from sheetqv import csvtext, fieldsim
from sheetqv.fieldsim import (
    GridField,
    PURPOSE_SHEET,
    factor_1d,
    field_from_increments,
    increment_cov_1d,
    prefix_nodes,
    read_field,
    replication_rng,
    sample_increments,
    standard_normals,
    write_field,
)
from sheetqv.kernel import HurstPair, cov_point, incr_cov, rho_range
from sheetqv.mcverify import _node_chunks

H = HurstPair(0.35, 0.4)


def increment_stack(h, n, seed, reps, method="cholesky"):
    """Increments of replications 0 .. reps-1 as the Monte Carlo suites draw them, (reps, n, n)."""
    stack = np.empty((reps, n, n))

    def work(inc, nodes, rows):
        stack[rows] = inc

    _node_chunks(h, n, seed, reps, work, method=method)
    return stack


@pytest.mark.parametrize("purpose", [PURPOSE_SHEET, 2])
@pytest.mark.parametrize("mc,m", [(7, 15), (15, 64), (32, 64), (64, 128)])
def test_coarse_draws_are_a_prefix_of_the_fine_draws(mc, m, purpose):
    # the stream contract the shared two-grid pass rests on
    fine = standard_normals(11, 5, 3, purpose, (m, m))
    coarse = standard_normals(11, 5, 3, purpose, (mc, mc))
    assert np.array_equal(fine.reshape(3, -1)[:, : mc * mc].reshape(3, mc, mc), coarse)


def test_increment_cov_1d_matches_2d_kernel():
    # tensor product of the 1D matrices must reproduce incr_cov entrywise
    n = 6
    ma = increment_cov_1d(H.alpha, n)
    mb = increment_cov_1d(H.beta, n)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for k in range(1, n + 1):
                for l in range(1, n + 1):
                    assert ma[i - 1, k - 1] * mb[j - 1, l - 1] == pytest.approx(
                        incr_cov(H, n, i, j, k, l), rel=1e-12, abs=1e-300
                    )


@pytest.mark.parametrize("method", ["cholesky", "circulant"])
@pytest.mark.parametrize("gamma", [0.2, 0.35, 0.5, 0.7])
def test_factor_reconstructs_covariance(method, gamma):
    n = 24
    fac = factor_1d(gamma, n, method)
    got = fac @ fac.T
    want = increment_cov_1d(gamma, n)
    assert np.abs(got - want).max() < 1e-14


def _lag_matrix_cov_1d(gamma, n):
    """Reference: rho gathered over the full n x n matrix of lags."""
    lags = np.subtract.outer(np.arange(n), np.arange(n))
    return 0.5 * float(n) ** (-2.0 * gamma) * rho_range(gamma, 0, n)[np.abs(lags)]


def _index_gather_circulant_factor(gamma, n):
    """Reference: the circulant factor gathered as b[(j - i) mod 2n] by an (n, 2n) index."""
    r = 0.5 * float(n) ** (-2.0 * gamma) * rho_range(gamma, 0, n + 1)
    lam = np.clip(np.fft.fft(np.concatenate([r, r[-2:0:-1]])).real, 0.0, None)
    b = np.fft.ifft(np.sqrt(lam)).real
    m = 2 * n
    return b[(np.arange(m)[None, :] - np.arange(n)[:, None]) % m]


ASSEMBLY_NS = [1, 2, 3, 64, 1024, 2048]
ASSEMBLY_GAMMAS = [0.05, 0.35, 0.4, 0.5, 0.74]


@pytest.mark.parametrize("n", ASSEMBLY_NS)
@pytest.mark.parametrize("gamma", ASSEMBLY_GAMMAS)
def test_toeplitz_covariance_is_bit_identical_to_lag_matrix(gamma, n):
    got = increment_cov_1d(gamma, n)
    assert got.flags.c_contiguous
    assert np.array_equal(got, _lag_matrix_cov_1d(gamma, n))


@pytest.mark.parametrize("n", ASSEMBLY_NS)
@pytest.mark.parametrize("gamma", ASSEMBLY_GAMMAS)
def test_circulant_factor_is_bit_identical_to_index_gather(gamma, n):
    got = factor_1d(gamma, n, "circulant")
    assert got.shape == (n, 2 * n) and got.flags.c_contiguous
    assert np.array_equal(got, _index_gather_circulant_factor(gamma, n))


def test_increment_cov_1d_memory_is_one_matrix():
    # the n x n result is 32 MB; a lag matrix and its gathers would be 160 MB
    tracemalloc.start()
    try:
        increment_cov_1d(0.35, 2048)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 48 * 2**20


def test_factor_shapes():
    assert factor_1d(0.3, 10, "cholesky").shape == (10, 10)
    assert factor_1d(0.3, 10, "circulant").shape == (10, 20)


def test_factor_validation():
    with pytest.raises(ValueError):
        factor_1d(1.0, 8)
    with pytest.raises(ValueError):
        factor_1d(0.3, 0)
    with pytest.raises(ValueError):
        factor_1d(0.3, 8, "fft-magic")
    with pytest.raises(ValueError):
        factor_1d(0.3, 5000)


@pytest.mark.parametrize("method", ["cholesky", "circulant"])
def test_empirical_covariance_of_increments(method):
    # n=4: all 16x16 covariances within 4 SE of the exact kernel values
    n, reps = 4, 4000
    h = HurstPair(0.35, 0.35)
    stack = increment_stack(h, n, seed=11, reps=reps, method=method)
    flat = stack.reshape(reps, -1)
    emp = flat.T @ flat / reps
    bad = 0
    for a in range(n * n):
        i, j = divmod(a, n)
        for b in range(n * n):
            k, l = divmod(b, n)
            exact = incr_cov(h, n, i + 1, j + 1, k + 1, l + 1)
            prod = flat[:, a] * flat[:, b]
            se = prod.std(ddof=1) / math.sqrt(reps)
            if abs(emp[a, b] - exact) > 4.0 * se:
                bad += 1
    assert bad <= 0.02 * (n * n) ** 2  # ~1% expected at 4 SE


def test_node_covariance_matches_cov_point():
    # node values from prefix sums must match the sheet kernel
    n, reps = 4, 6000
    stack = increment_stack(H, n, seed=13, reps=reps)
    nodes = np.zeros((reps, n + 1, n + 1))
    nodes[:, 1:, 1:] = stack.cumsum(axis=1).cumsum(axis=2)
    pts = [(1, 1), (2, 3), (4, 4), (3, 1)]
    for ia, ja in pts:
        for ib, jb in pts:
            prod = nodes[:, ia, ja] * nodes[:, ib, jb]
            exact = cov_point(H, (ia / n, ja / n), (ib / n, jb / n))
            se = prod.std(ddof=1) / math.sqrt(reps)
            assert abs(prod.mean() - exact) <= 4.0 * se


def test_brownian_increments_are_white():
    n, reps = 4, 4000
    hb = HurstPair(0.5, 0.5)
    stack = increment_stack(hb, n, seed=17, reps=reps)
    flat = stack.reshape(reps, -1)
    emp = flat.T @ flat / reps
    off = emp - np.diag(np.diag(emp))
    assert np.abs(np.diag(emp) - 1.0 / (n * n)).max() < 5.0 / (n * n * math.sqrt(reps))
    assert np.abs(off).max() < 5.0 / (n * n * math.sqrt(reps))


def test_methods_agree_in_distribution():
    # same exact covariance, so long-run second moments coincide
    n = 8
    fa_c = factor_1d(H.alpha, n, "cholesky")
    fa_e = factor_1d(H.alpha, n, "circulant")
    assert np.abs(fa_c @ fa_c.T - fa_e @ fa_e.T).max() < 1e-14


def test_determinism_same_key():
    s1 = sample_increments(H, 8, replication_rng(5, 3, PURPOSE_SHEET))
    s2 = sample_increments(H, 8, replication_rng(5, 3, PURPOSE_SHEET))
    assert np.array_equal(s1.values, s2.values)


def test_streams_differ_across_key_components():
    base = sample_increments(H, 8, replication_rng(5, 3, PURPOSE_SHEET)).values
    other_rep = sample_increments(H, 8, replication_rng(5, 4, PURPOSE_SHEET)).values
    other_purpose = sample_increments(H, 8, replication_rng(5, 3, 1)).values
    other_seed = sample_increments(H, 8, replication_rng(6, 3, PURPOSE_SHEET)).values
    assert not np.array_equal(base, other_rep)
    assert not np.array_equal(base, other_purpose)
    assert not np.array_equal(base, other_seed)


def test_batch_equals_per_replication_sampling():
    # the chunked sampler of the Monte Carlo suites draws replication r's own field
    for method in ("cholesky", "circulant"):
        stack = increment_stack(H, 6, seed=21, reps=5, method=method)
        for r in range(5):
            single = sample_increments(H, 6, replication_rng(21, r, PURPOSE_SHEET), method)
            assert np.array_equal(stack[r], single.values)


@pytest.mark.parametrize("method", ["cholesky", "circulant"])
@pytest.mark.parametrize("n", [1, 2, 3, 64, 257, 300])
@pytest.mark.parametrize("alpha, beta", [(0.35, 0.4), (0.05, 0.74), (0.5, 0.5)])
def test_sample_increments_is_the_two_sided_product(alpha, beta, n, method):
    # one factor at a time gives the bits of F_alpha Z F_beta^T on the same draws
    h = HurstPair(alpha, beta)
    fa, fb = factor_1d(alpha, n, method), factor_1d(beta, n, method)
    z = replication_rng(8, n, PURPOSE_SHEET).standard_normal((fa.shape[1], fb.shape[1]))
    got = sample_increments(h, n, replication_rng(8, n, PURPOSE_SHEET), method).values
    assert np.array_equal(got, fa @ z @ fb.T)


def test_sample_increments_holds_one_factor_at_a_time():
    # n = 512 circulant: Z is 8 MiB, F_alpha and F_alpha Z 4 MiB each; F_beta
    # or the result live beside them would pass the bound
    n = 512
    sample_increments(H, n, replication_rng(0), "circulant")  # warm any lazy numpy state
    tracemalloc.start()
    try:
        sample_increments(H, n, replication_rng(0), "circulant")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    m = 2 * n
    assert peak < 8 * (m * m + n * m + n * m) + 2**20  # Z, F_alpha, F_alpha Z and 1 MiB


def test_field_from_increments_axes_and_recovery():
    inc = sample_increments(H, 12, replication_rng(9, 0, PURPOSE_SHEET))
    field = field_from_increments(inc)
    assert np.all(field.values[0, :] == 0.0)
    assert np.all(field.values[:, 0] == 0.0)
    # re-differencing recovers the increments to rounding error (prefix
    # summation and differencing are not bit-exact inverses in floats)
    rediff = np.diff(np.diff(field.values, axis=0), axis=1)
    assert np.abs(rediff - inc.values).max() < 1e-13


@pytest.mark.parametrize("shape", [(1, 1), (1, 4), (5, 3), (6, 6), (3, 1, 1), (4, 5, 5), (2, 3, 4, 2)])
def test_prefix_nodes_is_a_zero_padded_double_cumsum(shape):
    values = np.random.default_rng(1).standard_normal(shape)
    nodes = prefix_nodes(values)
    assert nodes.shape == shape[:-2] + (shape[-2] + 1, shape[-1] + 1)
    assert np.array_equal(nodes[..., 1:, 1:], values.cumsum(-2).cumsum(-1))
    assert not nodes[..., 0, :].any() and not nodes[..., :, 0].any()


def test_prefix_nodes_allocates_only_its_result():
    values = np.random.default_rng(2).standard_normal((4, 256, 256))
    tracemalloc.start()
    try:
        nodes = prefix_nodes(values)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * nodes.nbytes  # two cumsum temporaries would make it 3x


def test_field_roundtrip_binary(tmp_path):
    inc = sample_increments(H, 10, replication_rng(2, 0, PURPOSE_SHEET))
    field = field_from_increments(inc)
    path = tmp_path / "field.bin"
    write_field(path, field)
    back = read_field(path)
    assert back.n == 10
    assert back.hurst == H
    assert np.array_equal(back.values, field.values)


def test_write_field_copies_nothing(tmp_path):
    values = np.random.default_rng(4).standard_normal((1025, 1025))
    path = tmp_path / "field.bin"
    tracemalloc.start()
    try:
        write_field(path, GridField(1024, values, H))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * values.nbytes  # astype, then tobytes, made it 2x
    assert path.read_bytes()[16:] == values.astype("<f8").tobytes()
    # arrays that are not C-contiguous little-endian still give row-major <f8 bytes
    for other in (values[:9, :9].T, values[:9, :9].astype(">f8")):
        write_field(path, GridField(8, other, H))
        assert path.read_bytes()[16:] == other.astype("<f8").tobytes(order="C")


def test_read_field_rejects_garbage(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 28)
    with pytest.raises(ValueError):
        read_field(path)


# values whose %.17g text is easy to get wrong: nan, infinities, signed zero,
# the smallest subnormal and numbers near the largest double
SPECIAL = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 1.0 / 3.0, -2.5e-17])


def _per_value_lines(rows, end):
    """Reference: one f-string per value, joined row by row."""
    return "".join(",".join(f"{v:.17g}" for v in row) + end for row in rows)


def _csv_lines(rows, end):
    fh = io.StringIO()
    fieldsim.write_csv_rows(fh, rows, end)
    return fh.getvalue()


def _shapes(values):
    """Rows of three values when the count allows, else one column."""
    return values.map(lambda flat: flat.reshape(-1, 1) if flat.size % 3 else flat.reshape(-1, 3))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    rows=st.one_of(
        _shapes(arrays(np.uint64, st.integers(1, 60)).map(lambda u: u.view(np.float64))),
        _shapes(arrays(np.float64, st.integers(1, 60), elements=st.floats())),
        _shapes(arrays(np.float64, st.integers(1, 60), elements=st.floats(-1e16, 1e16))),
    ),
    end=st.sampled_from(["\n", "\r\n"]),
)
def test_csv_text_equals_per_value_format(rows, end):
    # bit patterns, hypothesis' edge floats (nan, inf, subnormals, -0.0) and the fast range
    assert _csv_lines(rows, end) == _per_value_lines(rows, end)


def _ties():
    """Values exactly halfway between two 17-digit decimals, with decimal exponents 12, 13 and 14."""
    out = []
    for digits, frac_bits in (("1234567890123", 5), ("12345678901234", 4), ("123456789012345", 3)):
        for odd in (1, 3, 5, 7):
            v = int(digits) + odd * 2.0**-frac_bits
            d = Decimal(v).as_tuple().digits
            assert len(d) == 18 and d[-1] == 5  # exactly representable, and a tie
            out.append(v)
    return out


def _edge_values():
    powers = [10.0**k for k in range(-12, 18)] + [float(f"1e{k}") for k in range(-12, 18)]
    near = [np.nextafter(p, toward) for p in powers for toward in (0.0, np.inf)]
    edges = [1e-11, 1e15, 9.9999999999999995e-07, 123456789012345.125, 5e-12, 9.5e-12, 2.0**51, 5e15, 9.999999999999998e15]
    edges += [np.nextafter(e, toward) for e in (1e-11, 1e15) for toward in (0.0, np.inf)]
    values = np.array(powers + near + edges + _ties())
    return np.concatenate([values, -values, SPECIAL])


def test_no_double_in_the_fast_range_rounds_up_to_a_power_of_ten():
    # 17 digits of |v| with decimal exponent X in [-11, 14] reach 10^(X+1) only
    # for |v| within 5e-18 (relative) below it, closer than a double's spacing,
    # so only the largest double below each power could; the encoder relies on none doing so
    for k in range(-10, 16):
        power = Decimal(10) ** k
        below = float(power)
        if Decimal(below) >= power:
            below = math.nextafter(below, 0.0)
        assert Decimal(f"{below:.17g}") < power


@pytest.mark.parametrize("end", ["\n", "\r\n"])
@pytest.mark.parametrize("cols", [1, 7])
def test_csv_text_at_digit_and_range_edges(cols, end):
    # powers of ten and their neighbours, 17th-digit ties, and the ends of the fast range
    values = _edge_values()
    rows = np.resize(values, (-(-values.size // cols), cols))
    assert _csv_lines(rows, end) == _per_value_lines(rows, end)
    for empty in (np.zeros((3, 0)), np.zeros((0, cols))):
        assert _csv_lines(empty, end) == _per_value_lines(empty, end)


def _statistic_like(rows, cols, seed=5):
    values = np.random.default_rng(seed).standard_normal((rows, cols)).cumsum(axis=1)
    values[:, 0] = 0.0
    return values


@pytest.mark.parametrize("block_rows,rows", [(3, 1), (3, 2), (3, 3), (3, 4), (3, 31), (1, 400)])
def test_blocks_end_on_row_boundaries(monkeypatch, block_rows, rows):
    # blocks of 3 rows: 1, block - 1, block and block + 1 rows, and many blocks;
    # then 400 one-row blocks, where a block laid out or written out of turn changes the text
    monkeypatch.setattr(csvtext, "_BLOCK", block_rows * 7)
    encode, threads = csvtext._encode, []

    def recorded(*args):
        threads.append(threading.get_ident())
        return encode(*args)

    monkeypatch.setattr(csvtext, "_encode", recorded)
    values = _statistic_like(rows, 7)
    values[-1, -3:] = SPECIAL[:3]
    for end in ("\n", "\r\n"):
        assert _csv_lines(values, end) == _per_value_lines(values, end)
    assert threads == [threading.get_ident()] * (2 * -(-rows // block_rows))


class _Writes:
    def __init__(self, fail=False, keep=True):
        self.texts, self.fail, self.keep = [], fail, keep

    def write(self, text):
        if self.fail:
            raise OSError("disk full")
        if self.keep:
            self.texts.append(text)


def test_each_write_carries_at_most_one_block(monkeypatch):
    # five-row blocks of 9 values, and the default block at n = 1024
    for block, shape in ((5 * 9, (23, 9)), (csvtext._BLOCK, (80, 1025))):
        monkeypatch.setattr(csvtext, "_BLOCK", block)
        values = _statistic_like(*shape)
        fh = _Writes()
        fieldsim.write_csv_rows(fh, values, "\n")
        assert "".join(fh.texts) == _per_value_lines(values, "\n")
        assert max(t.count(",") + t.count("\n") for t in fh.texts) <= block


def test_csv_heap_is_bounded_at_any_size():
    # memory is O(block) at any n: 1025 rows peak no higher than two blocks of
    # the same width, nor than one block's scratch and lines
    values, devnull = _statistic_like(1025, 1025), _Writes(fail=False, keep=False)
    fieldsim.write_csv_rows(devnull, values[:2], "\n")  # tables and lazy numpy state

    def peak(rows):
        tracemalloc.start()
        try:
            fieldsim.write_csv_rows(devnull, rows, "\r\n")
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # per value: seven 8-byte arrays, the six 8-byte rows of t, four flags,
    # five groups and their digits, its field and its line
    block = csvtext._BLOCK * (7 * 8 + 6 * 8 + 4 + 5 * 8 + 5 * 4 + 2 * csvtext._LINE)
    whole = peak(values)
    assert whole <= peak(values[: 2 * (csvtext._BLOCK // 1025)]) + 2**20
    assert whole <= block + 2**20


@pytest.mark.parametrize("where", ["caller"])
def test_errors_come_out_and_threads_end(monkeypatch, where):
    # a failed write leaves the call and no thread behind
    monkeypatch.setattr(csvtext, "_BLOCK", 4 * 9)
    before = threading.active_count()
    with pytest.raises(OSError):
        fieldsim.write_csv_rows(_Writes(fail=where == "caller"), _statistic_like(40, 9), "\n")
    assert threading.active_count() == before
