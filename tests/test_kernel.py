"""Kernel formulas against brute-force expansions and known special cases."""

import numpy as np
import pytest

from sheetqv.kernel import (
    HurstPair,
    Rect,
    cov_point,
    delta_incr_inner,
    incr_cov,
    k_gamma,
    point_rect_cov,
    rho,
    rho_range,
)

H = HurstPair(0.35, 0.4)


# --- independent oracles -----------------------------------------------------


def incr_cov_bruteforce(h, n, i, j, k, l):
    """Expand both rectangular increments into 4 node values each: 16 terms."""
    total = 0.0
    for a1 in (0, 1):
        for b1 in (0, 1):
            for a2 in (0, 1):
                for b2 in (0, 1):
                    sign = (-1) ** (a1 + b1 + a2 + b2)
                    p1 = ((i - 1 + a1) / n, (j - 1 + b1) / n)
                    p2 = ((k - 1 + a2) / n, (l - 1 + b2) / n)
                    total += sign * cov_point(h, p1, p2)
    return total


def point_rect_bruteforce(h, pt, r):
    return (
        cov_point(h, pt, (r.t1, r.t2))
        - cov_point(h, pt, (r.s1, r.t2))
        - cov_point(h, pt, (r.t1, r.s2))
        + cov_point(h, pt, (r.s1, r.s2))
    )


def random_admissible(rng):
    while True:
        a, b = rng.uniform(0.05, 0.49, 2)
        if a + b > 0.5:
            return HurstPair(a, b)


# --- k_gamma ------------------------------------------------------------------


def test_k_gamma_brownian_is_min():
    assert k_gamma(0.5, 0.3, 0.7) == pytest.approx(0.3, abs=1e-15)


def test_k_gamma_diagonal():
    assert k_gamma(0.3, 1.0, 1.0) == 1.0
    assert k_gamma(0.35, 0.25, 0.5) == pytest.approx(
        0.5 * (0.25**0.7 + 0.5**0.7 - 0.25**0.7)
    )


def test_k_gamma_symmetric():
    rng = np.random.default_rng(0)
    for _ in range(100):
        g, a, b = rng.uniform(0.01, 0.99), rng.uniform(), rng.uniform()
        assert k_gamma(g, a, b) == k_gamma(g, b, a)


def test_k_gamma_domain():
    with pytest.raises(ValueError):
        k_gamma(0.0, 0.1, 0.2)
    with pytest.raises(ValueError):
        k_gamma(1.0, 0.1, 0.2)


# --- cov_point ------------------------------------------------------------------


def test_cov_point_vanishes_on_axes():
    assert cov_point(H, (0.0, 0.7), (0.3, 0.4)) == 0.0
    assert cov_point(H, (0.3, 0.4), (0.5, 0.0)) == 0.0


def test_cov_point_brownian_sheet():
    hb = HurstPair(0.5, 0.5)
    assert cov_point(hb, (0.3, 0.8), (0.6, 0.4)) == pytest.approx(0.3 * 0.4)


def test_cov_point_unit_corner_variance():
    assert cov_point(H, (1.0, 1.0), (1.0, 1.0)) == 1.0


def test_cov_point_symmetric():
    rng = np.random.default_rng(1)
    for _ in range(200):
        h = random_admissible(rng)
        p1, p2 = tuple(rng.uniform(size=2)), tuple(rng.uniform(size=2))
        assert cov_point(h, p1, p2) == cov_point(h, p2, p1)


def test_cov_point_gram_psd():
    rng = np.random.default_rng(2)
    for _ in range(20):
        h = random_admissible(rng)
        pts = [tuple(rng.uniform(size=2)) for _ in range(32)]
        gram = np.array([[cov_point(h, p, q) for q in pts] for p in pts])
        assert np.linalg.eigvalsh(gram).min() >= -1e-10


# --- rho ------------------------------------------------------------------------


def test_rho_at_zero():
    for g in (0.1, 0.35, 0.5, 0.7):
        assert rho(g, 0) == 2.0


def test_rho_brownian_telescopes():
    assert rho(0.5, 3) == 0.0
    assert rho(0.5, -7) == 0.0


def test_rho_even():
    for c in range(-6, 7):
        assert rho(0.3, c) == rho(0.3, -c)


def test_rho_explicit_value():
    expected = 6.0**0.6 + 4.0**0.6 - 2.0 * 5.0**0.6
    assert rho(0.3, 5) == pytest.approx(expected, rel=1e-15)
    # second difference of a concave power is negative off the origin
    assert rho(0.3, 5) < 0


def rho_masked(gamma, c):
    """rho at an array of lags, one masked array pow per term: the bit oracle."""
    a = np.abs(c).astype(float)

    def p(x):
        out = np.zeros_like(x)
        nz = x > 0
        out[nz] = x[nz] ** (2.0 * gamma)
        return out

    return p(a + 1) + p(np.abs(a - 1)) - 2.0 * p(a)


def _lag_ranges():
    yield 0, 6  # holds 0 and 1
    yield 1, 2
    yield 3_999_990, 4_000_001  # a block far from 0
    yield 10**8 - 70_000 + 1, 10**8 + 1
    for n in (1, 2, 64, 2048):
        yield 0, n  # the lags of the n x n covariance
        yield 0, n + 1  # and of its circulant embedding
    for lo in (0, 1, 2, 4_000_000):
        for size in (0, 1, 2, 3, 1000):
            yield lo, lo + size


@pytest.mark.parametrize("gamma", [0.05, 0.3, 0.35, 0.45, 0.5, 0.74])
def test_rho_range_is_bit_identical_to_masked_pow(gamma):
    for lo, hi in _lag_ranges():
        got = rho_range(gamma, lo, hi)
        assert got.shape == (hi - lo,)
        np.testing.assert_array_equal(got, rho_masked(gamma, np.arange(lo, hi)))


# --- incr_cov -------------------------------------------------------------------


def test_incr_cov_variance():
    n = 8
    assert incr_cov(H, n, 3, 5, 3, 5) == pytest.approx(
        n ** (-2 * (H.alpha + H.beta)), rel=1e-14
    )


def test_incr_cov_brownian_independence():
    hb = HurstPair(0.5, 0.5)
    assert incr_cov(hb, 8, 1, 1, 3, 1) == 0.0


def test_incr_cov_matches_bruteforce():
    h = HurstPair(0.35, 0.35)
    got = incr_cov(h, 8, 1, 1, 3, 2)
    assert got == pytest.approx(incr_cov_bruteforce(h, 8, 1, 1, 3, 2), abs=1e-14)


def test_incr_cov_randomized_oracle():
    rng = np.random.default_rng(3)
    for _ in range(300):
        h = random_admissible(rng)
        n = int(rng.integers(2, 33))
        i, j, k, l = (int(v) for v in rng.integers(1, n + 1, size=4))
        assert incr_cov(h, n, i, j, k, l) == pytest.approx(
            incr_cov_bruteforce(h, n, i, j, k, l), abs=1e-10
        )


def test_incr_cov_stationary():
    rng = np.random.default_rng(4)
    for _ in range(100):
        h = random_admissible(rng)
        n = 32
        i, j = (int(v) for v in rng.integers(1, 17, size=2))
        k, l = (int(v) for v in rng.integers(1, 17, size=2))
        s, t = (int(v) for v in rng.integers(0, 16, size=2))
        assert incr_cov(h, n, i, j, k, l) == pytest.approx(
            incr_cov(h, n, i + s, j + t, k + s, l + t), rel=1e-12, abs=1e-300
        )


def test_incr_cov_index_range():
    with pytest.raises(IndexError):
        incr_cov(H, 8, 0, 1, 1, 1)
    with pytest.raises(IndexError):
        incr_cov(H, 8, 1, 1, 9, 1)


# --- point_rect_cov ---------------------------------------------------------------


def test_point_rect_cov_axis_point():
    r = Rect(0.25, 0.75, 0.25, 0.75)
    assert point_rect_cov(H, (0.0, 0.5), r) == 0.0


def test_point_rect_cov_degenerate_rect():
    r = Rect(0.4, 0.4, 0.2, 0.8)
    assert point_rect_cov(H, (0.5, 0.5), r) == 0.0


def test_point_rect_cov_matches_bruteforce():
    h = HurstPair(0.3, 0.4)
    r = Rect(0.25, 0.75, 0.25, 0.75)
    assert point_rect_cov(h, (0.5, 0.5), r) == pytest.approx(
        point_rect_bruteforce(h, (0.5, 0.5), r), abs=1e-14
    )


def test_point_rect_cov_bound_randomized():
    rng = np.random.default_rng(5)
    for _ in range(2000):
        h = random_admissible(rng)
        s1, t1 = np.sort(rng.uniform(size=2))
        s2, t2 = np.sort(rng.uniform(size=2))
        pt = tuple(rng.uniform(size=2))
        val = abs(point_rect_cov(h, pt, Rect(s1, t1, s2, t2)))
        bound = (t1 - s1) ** (2 * h.alpha) * (t2 - s2) ** (2 * h.beta)
        assert val <= bound + 1e-12


# --- delta_incr_inner ---------------------------------------------------------------


def test_delta_incr_inner_zero_corner():
    assert delta_incr_inner(H, 8, 1, 4, 2, 2) == 0.0
    assert delta_incr_inner(H, 8, 4, 1, 2, 2) == 0.0


def test_delta_incr_inner_brownian_disjoint():
    hb = HurstPair(0.5, 0.5)
    # corner rectangle [0,3/8]^2 does not touch cell (5,6)
    assert delta_incr_inner(hb, 8, 4, 4, 5, 6) == 0.0


def test_delta_incr_inner_matches_bruteforce():
    h = HurstPair(0.35, 0.4)
    n = 16
    got = delta_incr_inner(h, n, 5, 7, 5, 7)
    cell = Rect(4 / n, 5 / n, 6 / n, 7 / n)
    assert got == pytest.approx(point_rect_bruteforce(h, (4 / n, 6 / n), cell), abs=1e-14)


def test_delta_incr_inner_randomized_oracle_and_bound():
    rng = np.random.default_rng(6)
    for _ in range(300):
        h = random_admissible(rng)
        n = int(rng.integers(2, 33))
        k, l, i, j = (int(v) for v in rng.integers(1, n + 1, size=4))
        got = delta_incr_inner(h, n, k, l, i, j)
        cell = Rect((i - 1) / n, i / n, (j - 1) / n, j / n)
        want = point_rect_bruteforce(h, ((k - 1) / n, (l - 1) / n), cell)
        assert got == pytest.approx(want, abs=1e-10)
        assert abs(got) <= n ** (-2 * (h.alpha + h.beta)) + 1e-12


# --- array calls ----------------------------------------------------------------------


def _pow2g_before(x, gamma):
    return 0.0 if x == 0.0 else abs(x) ** (2.0 * gamma)


def _rho_before(gamma, c):
    return _pow2g_before(c + 1, gamma) + _pow2g_before(c - 1, gamma) - 2.0 * _pow2g_before(c, gamma)


def _k_before(gamma, s1, s2):
    return 0.5 * (_pow2g_before(s1, gamma) + _pow2g_before(s2, gamma) - _pow2g_before(s1 - s2, gamma))


def _incr_cov_before(h, n, i, j, k, l):
    """The scalar formulas as they were before array calls: Python floats and **."""
    scale = float(n) ** (-2.0 * (h.alpha + h.beta))
    return 0.25 * scale * _rho_before(h.alpha, k - i) * _rho_before(h.beta, l - j)


def _delta_incr_inner_before(h, n, k, l, i, j):
    p1, p2 = (k - 1) / n, (l - 1) / n
    d1 = _k_before(h.alpha, p1, i / n) - _k_before(h.alpha, p1, (i - 1) / n)
    d2 = _k_before(h.beta, p2, j / n) - _k_before(h.beta, p2, (j - 1) / n)
    return d1 * d2


def _random_cases(seed, size=2000):
    """Admissible (alpha, beta), grid sizes and 1-based indices (i, j, k, l).

    A third of the cases have n in {1, 2, 32}; half have lags k - i and l - j
    in {-1, 0, 1}; every seventh has i = 1, k = n, j = n and l = 1.
    """
    rng = np.random.default_rng(seed)
    a, b = rng.uniform(0.05, 0.49, (2, 4 * size))
    keep = a + b > 0.5
    alpha, beta = a[keep][:size], b[keep][:size]
    n = rng.integers(1, 33, size)
    n[: size // 3] = rng.choice([1, 2, 32], size // 3)
    i, j = rng.integers(1, n + 1), rng.integers(1, n + 1)
    near = rng.uniform(size=size) < 0.5
    k = np.where(near, np.clip(i + rng.integers(-1, 2, size), 1, n), rng.integers(1, n + 1))
    l = np.where(near, np.clip(j + rng.integers(-1, 2, size), 1, n), rng.integers(1, n + 1))
    i[::7], k[::7], j[::7], l[::7] = 1, n[::7], n[::7], 1
    assert {-1, 0, 1} <= set(k - i) and {-1, 0, 1} <= set(l - j)
    assert {1, 2, 32} <= set(n) and np.any((i == 1) & (k == n))
    return alpha, beta, n, i, j, k, l


def _scalar_cases(cases):
    """Each case as (HurstPair, n, i, j, k, l) of Python floats and ints."""
    for a, b, *idx in zip(*(v.tolist() for v in cases)):
        yield HurstPair(a, b), *idx


@pytest.mark.parametrize("seed", [65, 101])
def test_array_calls_equal_the_per_case_scalar_loop(seed):
    cases = _random_cases(seed)
    alpha, beta, n, i, j, k, l = cases
    h = HurstPair(alpha, beta)
    per_case_incr = [incr_cov(*c) for c in _scalar_cases(cases)]
    per_case_delta = [delta_incr_inner(hh, nn, kk, ll, ii, jj) for hh, nn, ii, jj, kk, ll in _scalar_cases(cases)]
    assert np.array_equal(incr_cov(h, n, i, j, k, l), per_case_incr)
    assert np.array_equal(delta_incr_inner(h, n, k, l, i, j), per_case_delta)
    assert np.array_equal(rho(alpha, k - i), [rho(a, c) for a, c in zip(alpha.tolist(), (k - i).tolist())])


def _bits(x):
    return float(x).hex()


def test_scalar_calls_return_the_same_floats_as_before():
    for c in _scalar_cases(_random_cases(7, size=1000)):
        h, n, i, j, k, l = c
        assert _bits(incr_cov(*c)) == _bits(_incr_cov_before(*c))
        inner = (h, n, k, l, i, j)
        assert _bits(delta_incr_inner(*inner)) == _bits(_delta_incr_inner_before(*inner))
        assert _bits(rho(h.alpha, k - i)) == _bits(_rho_before(h.alpha, k - i))
        assert _bits(k_gamma(h.beta, (l - 1) / n, j / n)) == _bits(_k_before(h.beta, (l - 1) / n, j / n))


def test_float_power_is_libm_pow():
    # The array kernel calls equal the scalar ones only while np.float_power's
    # float64 loop is libm's pow, as Python's ** is; np.power may use a SIMD
    # kernel instead. A numpy that changes this must fail here, not move the
    # golden outputs' last bits.
    rng = np.random.default_rng(11)
    x = np.concatenate([rng.uniform(1e-3, 40.0, 50_000), np.arange(0.0, 4097.0), rng.uniform(0, 1, 10_000)])
    y = 2.0 * rng.uniform(0.01, 0.99, x.size)
    assert np.array_equal(np.float_power(x, y), [a**b for a, b in zip(x.tolist(), y.tolist())])
    assert np.float_power(0.0, 0.02) == 0.0


def _with_one(v, at, value):
    v = np.array(v)
    v[at] = value
    return v


@pytest.mark.parametrize("at", [0, 17, -1])
def test_array_calls_check_every_element(at):
    alpha, beta, n, i, j, k, l = _random_cases(3, size=50)
    h = HurstPair(alpha, beta)
    with pytest.raises(IndexError, match=f"index 0 out of range 1..{n[at]}$"):
        incr_cov(h, n, i, j, _with_one(k, at, 0), l)
    with pytest.raises(IndexError, match=f"index {n[at] + 1} out of range"):
        delta_incr_inner(h, n, k, l, i, _with_one(j, at, n[at] + 1))
    with pytest.raises(IndexError):
        incr_cov(h, _with_one(n, at, 0), i, j, k, l)
    for bad in (0.0, 1.0, np.nan):
        with pytest.raises(ValueError, match="alpha must lie in"):
            HurstPair(_with_one(alpha, at, bad), beta)
        with pytest.raises(ValueError, match="gamma must lie in"):
            k_gamma(_with_one(beta, at, bad), 0.25, 0.5)
    s = np.linspace(0.0, 0.5, 50)
    with pytest.raises(ValueError):
        Rect(s, _with_one(s + 0.1, at, -0.1), s, s + 0.1)
    with pytest.raises(ValueError, match=r"point \(1.5, 0.25\) outside"):
        point_rect_cov(h, (_with_one(s, at, 1.5), 0.25), Rect(s, s + 0.1, s, s + 0.1))


# --- HurstPair / Rect validation -----------------------------------------------------


def test_hurst_admissible_flags():
    assert HurstPair(0.35, 0.4).admissible()
    assert not HurstPair(0.2, 0.25).admissible()  # sum too small
    assert not HurstPair(0.6, 0.3).admissible()  # alpha too large
    assert HurstPair(0.5, 0.5).series_convergent()
    assert not HurstPair(0.8, 0.3).series_convergent()


def test_hurst_range_validation():
    with pytest.raises(ValueError):
        HurstPair(0.0, 0.5)
    with pytest.raises(ValueError):
        HurstPair(0.5, 1.0)


def test_rect_validation():
    with pytest.raises(ValueError):
        Rect(0.5, 0.4, 0.0, 1.0)
    with pytest.raises(ValueError):
        Rect(0.0, 1.2, 0.0, 1.0)
