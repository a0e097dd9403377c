"""CSV text of float64 arrays, byte for byte that of Python's %.17g.

``write_rows`` writes each row of a 2-D array as one line of %.17g values
joined by commas. Finite values whose decimal exponent X lies in [-11, 14]
get their 17 significant digits exactly with integer arithmetic in numpy
(``_quotient``), and their text is laid out in a byte matrix (``_encode``);
every other value is formatted by Python. Blocks go in pairs to the calling
thread and one worker thread, in scratch that lives in anonymous memory
mappings.
"""

from __future__ import annotations

import functools
import math
import mmap

import numpy as np

from ._threads import alongside

_BLOCK = 1 << 16  # values per block: memory is O(block) at any n
_PIECE = 1 << 11  # values per str written, and per fallback %-format
_FIELD = 24  # bytes of a value's %.17g text at most, sign included
_LINE = _FIELD + 2  # a field and its separator, "," or the line end
_KEY0 = 64  # sort key of decimal exponent 0; the keys of -11 .. 15 are 53 .. 79
_FALLBACK = np.uint64(255)  # sort key of the values Python formats
_E8, _E16, _E17 = np.uint64(10**8), np.uint64(10**16), np.uint64(10**17)
_U32, _LO32, _ONE = np.uint64(32), np.uint64(0xFFFFFFFF), np.uint64(1)
_MANTISSA, _HIDDEN_BIT = np.uint64((1 << 52) - 1), np.uint64(1 << 52)


@functools.cache
def _tables():
    """Low and high 32-bit halves of 5^0 .. 5^27, and the ASCII of 0000 .. 9999
    as uint32, followed by the same groups with their trailing zeros as spaces.
    Built in 16- and 8-bit steps: int64 temporaries left a megabyte of freed heap."""
    pow5 = np.array([5**j for j in range(28)], np.uint64)  # 5^27 < 2^63
    d = np.arange(10_000, dtype=np.uint16)
    quads = np.empty((2, 10_000, 4), np.uint8)
    zero = np.ones(10_000, bool)  # this digit and all after it are 0
    for j, scale in reversed(list(enumerate((1000, 100, 10, 1)))):
        digit = (d // scale % 10).astype(np.uint8)
        zero &= digit == 0
        quads[0, :, j] = digit + ord("0")
        quads[1, :, j] = np.where(zero, ord(" "), quads[0, :, j])
    return pow5 & _LO32, pow5 >> _U32, quads.view(np.uint32).reshape(-1)


def _mapped(*specs):
    """Arrays of the given (dtype, shape) in one anonymous memory mapping,
    unmapped when the last of them is dropped.

    Scratch from the heap would stay resident once freed: glibc keeps freed
    chunks below its trim threshold, and a worker thread's arena keeps its
    peak. Blocks formatted in heap temporaries left 20-46 MB resident after
    a ``qv`` at n = 1024, which a later operation's peak RSS then carried.
    """
    sizes = [-(-np.dtype(dtype).itemsize * math.prod(shape) // 64) * 64 for dtype, shape in specs]
    memory = np.frombuffer(mmap.mmap(-1, max(sum(sizes), 1)), np.uint8)
    arrays, at = [], 0
    for (dtype, shape), size in zip(specs, sizes):
        arrays.append(memory[at : at + size].view(dtype)[: math.prod(shape)].reshape(shape))
        at += size
    return arrays


class _Scratch:
    """The arrays one thread formats blocks of up to ``size`` values in."""

    def __init__(self, size: int):
        (self.xf, self.x, self.e, self.m, self.q, self.lanes, self.packed, self.t, self.flags,
         self.groups, self.dig, self.fields) = _mapped(
            (np.float64, (size,)), (np.int64, (size,)), (np.int64, (size,)),
            (np.uint64, (size,)), (np.uint64, (size,)), (np.uint64, (size,)),
            (np.uint64, (size,)), (np.uint64, (6, size)), (np.bool_, (4, size)),
            (np.int64, (size, 5)), (np.uint32, (size, 5)), (np.uint8, (size, _LINE)),
        )
        self.lanes.fill(1)
        self.lanes[:1] = 0
        np.cumsum(self.lanes, out=self.lanes)  # 0, 1, 2, ... without an arange in the heap


def _quotient(m, e, x, q, up, t) -> None:
    """floor(|v| 10^(16-x)) into q for |v| = m 2^(e-53), and into up whether
    rounding it half to even goes up.

    m 5^(16-x) is a 128-bit (hi, lo) pair built from 32-bit limbs
    (5^27 < 2^63), shifted right by s = 37 + x - e, which is 1 .. 63 when
    x in [-11, 14] is the decimal exponent of |v| or one off it. Works in
    the six rows of t and allocates nothing.
    """
    p_lo, p_hi, _ = _tables()
    s, pl, ph, a, b, c = t
    np.subtract(16, x, out=a.view(np.int64))
    np.take(p_lo, a.view(np.int64), out=pl, mode="clip")
    np.take(p_hi, a.view(np.int64), out=ph, mode="clip")
    np.subtract(x, e, out=s.view(np.int64))
    s += np.uint64(37)
    np.bitwise_and(m, _LO32, out=a)  # m's low limb
    np.right_shift(m, _U32, out=b)  # and its high limb
    np.multiply(b, ph, out=q)  # q gathers hi: high limb times high limb ...
    np.multiply(a, ph, out=c)
    np.multiply(b, pl, out=ph)
    np.multiply(a, pl, out=a)  # low limb times low limb
    np.right_shift(a, _U32, out=pl)  # pl gathers the middle 64 bits
    for cross in (c, ph):
        np.bitwise_and(cross, _LO32, out=b)
        pl += b
        np.right_shift(cross, _U32, out=b)
        q += b  # ... plus the high halves of both cross products ...
    np.right_shift(pl, _U32, out=b)
    q += b  # ... plus the middle's carry
    a &= _LO32
    pl <<= _U32
    a |= pl  # lo
    np.subtract(np.uint64(64), s, out=b)
    q <<= b
    np.right_shift(a, s, out=b)
    q |= b  # (hi, lo) >> s
    np.left_shift(_ONE, s, out=b)
    b -= _ONE
    a &= b  # the remainder
    b >>= _ONE
    b += _ONE  # half the last unit, 2^(s-1)
    np.bitwise_and(q, _ONE, out=c)
    a += c
    np.greater(a, b, out=up)  # above half, or at half with q odd


def _encode(block: np.ndarray, scratch: _Scratch, lines: np.ndarray, end: bytes) -> None:
    """Lay out the lines of ``write_rows`` for a 2-D block of rows in
    ``lines``, one field of ``_LINE`` bytes per value; the spaces in it are
    not text.

    Each finite value whose %.17g decimal exponent X lies in [-11, 14] gets
    its 17 significant digits N exactly, rounded half to even, from
    ``_quotient``: X starts at floor(log10|v|), and an unrounded quotient
    outside [10^16, 10^17) moves it by one and is computed again. Rounding
    never reaches 10^17 here: that takes |v| within 5e-18 (relative) below
    10^(X+1), closer than a double's spacing, and the largest double below
    each power of ten in range is farther (a test checks them all). The
    values are sorted by X, and each exponent's text is laid out by column
    slices, with spaces for the sign of a positive value, for stripped
    trailing zeros and a bare '.', and as padding. Every other value
    (zeros, subnormals, |v| < 1e-11 or >= 1e15, NaN, infinities) gets
    Python's %.17g. The fields then go back to their places and take their
    separators. Arrays of the size of the block live in ``scratch`` and
    ``lines``.
    """
    rows, cols = block.shape
    k = rows * cols
    v = np.ascontiguousarray(block, dtype=np.float64).reshape(-1)
    bits = v.view(np.uint64)
    xf, x, e, m, q = scratch.xf[:k], scratch.x[:k], scratch.e[:k], scratch.m[:k], scratch.q[:k]
    t = scratch.t[:, :k]
    fast, up, b0, b1 = scratch.flags[:, :k]
    np.abs(v, out=xf)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.log10(xf, out=xf)
    np.floor(xf, out=xf)
    np.greater_equal(xf, -11, out=fast)
    np.less_equal(xf, 14, out=b0)
    fast &= b0
    x.fill(0)  # every lane computes; only the fast ones are kept
    np.copyto(x, xf, casting="unsafe", where=fast)
    np.bitwise_and(bits, _MANTISSA, out=m)
    m |= _HIDDEN_BIT
    np.right_shift(bits, np.uint64(52), out=e.view(np.uint64))
    e &= 0x7FF
    e -= 1022
    _quotient(m, e, x, q, up, t)
    np.less(q, _E16, out=b0)
    np.greater_equal(q, _E17, out=b1)
    b0 |= b1
    b0 &= fast
    off = np.flatnonzero(b0)
    if off.size:
        xo = x[off] + np.where(q[off] < _E16, -1, 1)
        ok = (xo >= -11) & (xo <= 14)
        xo[~ok] = 0
        qo, uo = np.empty(off.size, np.uint64), np.empty(off.size, bool)
        _quotient(m[off], e[off], xo, qo, uo, np.empty((6, off.size), np.uint64))
        ok &= (qo >= _E16) & (qo < _E17)
        x[off], q[off], up[off], fast[off] = xo, qo, uo, ok
    np.add(q, _ONE, out=q, where=up)  # below 10^17: no double in range rounds up to a power of ten

    # sort by X, the values Python formats last; a lane's index rides in the low half
    packed = scratch.packed[:k]
    np.add(x, _KEY0, out=packed.view(np.int64))
    np.logical_not(fast, out=b0)
    np.copyto(packed, _FALLBACK, where=b0)
    packed <<= _U32
    packed |= scratch.lanes[:k]
    packed.sort()
    nf = int(np.searchsorted(packed, _FALLBACK << _U32))
    spans = []
    if nf:
        for key in range(int(packed[0] >> _U32), int(packed[nf - 1] >> _U32) + 1):
            lo, hi = np.searchsorted(packed, [np.uint64(key) << _U32, np.uint64(key + 1) << _U32])
            if hi > lo:
                spans.append((key - _KEY0, int(lo), int(hi)))
    packed &= _LO32
    order = packed.view(np.int64)

    fields = scratch.fields[:k]
    fields.fill(ord(" "))
    if nf:
        # d0 and four groups of four digits; a group and all after it zero use the stripped table
        n, top, product = t[0, :nf], t[1, :nf], t[2, :nf]
        np.take(q, order[:nf], out=n, mode="clip")
        groups = scratch.groups[:nf]
        np.floor_divide(n, _E16, out=top)
        np.copyto(groups[:, 0], top.view(np.int64))
        np.multiply(top, _E16, out=product)
        n -= product  # the last 16 digits
        np.floor_divide(n, _E8, out=top)  # the first eight of them
        np.multiply(top, _E8, out=product)
        n -= product  # the last eight
        for g, eight in ((1, top), (3, n)):
            np.floor_divide(eight.view(np.int64), 10_000, out=groups[:, g])
            np.multiply(groups[:, g], 10_000, out=groups[:, g + 1])
            np.subtract(eight.view(np.int64), groups[:, g + 1], out=groups[:, g + 1])
        after, zero = b0[:nf], b1[:nf]
        after.fill(True)  # every group after this one is zero
        for g in (4, 3, 2, 1):
            np.equal(groups[:, g], 0, out=zero)
            np.add(groups[:, g], 10_000, out=groups[:, g], where=after)
            after &= zero
        digits = scratch.dig[:nf]
        np.take(_tables()[2], groups, out=digits, mode="clip")
        digits = digits.view(np.uint8)[:, 3:]  # (nf, 17)
        sign = t[1, :nf]
        np.take(bits, order[:nf], out=sign, mode="clip")
        sign >>= np.uint64(63)
        sign *= np.uint64(ord("-") - ord(" "))
        sign += np.uint64(ord(" "))
        np.copyto(fields[:nf, 0], sign, casting="unsafe")
        for xg, lo, hi in spans:
            _lay_out(fields[lo:hi], digits[lo:hi], xg, b0[lo:hi])
    for lo in range(nf, k, _PIECE):
        values = v[order[lo : lo + _PIECE]].tolist()
        text = (b"%-24.17g" * len(values)) % tuple(values)
        fields[lo : lo + len(values), :_FIELD] = np.frombuffer(text, np.uint8).reshape(-1, _FIELD)

    lines = lines[:k]
    np.put(lines.view(f"V{_LINE}").reshape(k), order, fields.view(f"V{_LINE}").reshape(k), mode="clip")
    lines = lines.reshape(rows, cols, _LINE)
    lines[:, :-1, _FIELD] = ord(",")
    lines[:, -1, _FIELD : _FIELD + len(end)] = np.frombuffer(end, np.uint8)


def _lay_out(fields: np.ndarray, digits: np.ndarray, x: int, bare: np.ndarray) -> None:
    """Write the %.17g text of values with decimal exponent x after their sign
    byte: fixed notation for -4 <= x < 17, else d.ddd with the exponent. The
    digits carry spaces for trailing zeros, which stay only in a fraction."""
    if -4 <= x < 0:
        fields[:, 1 : 2 - x] = np.frombuffer(b"0.000"[: 1 - x], np.uint8)
        fields[:, 2 - x : 19 - x] = digits
        return
    if x >= 0:
        np.maximum(digits[:, : x + 1], ord("0"), out=fields[:, 1 : x + 2])
        fields[:, x + 3 : 19] = digits[:, x + 1 :]
        dot = x + 2
    else:
        fields[:, 1] = digits[:, 0]
        fields[:, 3:19] = digits[:, 1:]
        fields[:, 19:23] = np.frombuffer(b"e%+03d" % x, np.uint8)
        dot = 2
    fields[:, dot] = ord(".")
    np.equal(fields[:, dot + 1], ord(" "), out=bare)  # no fraction digit follows
    np.copyto(fields[:, dot], ord(" "), where=bare)


def _write_lines(fh, lines: np.ndarray) -> None:
    """Write laid-out lines without their spaces, ``_PIECE`` values per ``write``."""
    for lo in range(0, len(lines), _PIECE):
        fh.write(lines[lo : lo + _PIECE].tobytes().translate(None, b" ").decode("ascii"))


def write_rows(fh, rows: np.ndarray, end: str) -> None:
    """Write each row of a 2-D array as one line of %.17g values joined by commas.

    ``end`` is the line end ("\\n" or "\\r\\n"). The text is byte for byte that
    of ``"%.17g" % v`` for every value: ``_encode`` computes it exactly with
    integer arithmetic in numpy for finite values with decimal exponents in
    [-11, 14] (|v| from 1e-11 to below 1e15) and hands every other value to
    Python's ``%``. Blocks of about ``_BLOCK`` values (whole rows) go in
    pairs: the worker of ``alongside`` lays out the second block of a pair in
    lane 1's scratch and lines while the calling thread lays out the first in
    lane 0's and writes it; the second is written once the worker is joined.
    An odd last block, or a single one, is the calling thread's alone, and
    only it writes, ``_PIECE`` values per ``write``. At most two blocks are
    laid out and not yet written, so memory is O(block) at any size, and the
    blocks' arrays are unmapped on return. The worker calls nothing that
    perfbench hooks.
    """
    cols = rows.shape[1]
    if cols == 0:  # every line is its end alone
        fh.write(end * rows.shape[0])
        return
    step = max(1, _BLOCK // cols)
    starts = range(0, rows.shape[0], step)
    if not starts:
        return
    size = min(step, rows.shape[0]) * cols
    end = end.encode("ascii")
    _tables()  # built once, before two threads could race to build it
    lines = _mapped(*[(np.uint8, (size, _LINE))] * min(2, len(starts)))
    lanes = [(_Scratch(size), lane_lines) for lane_lines in lines]  # (scratch, lines) of a thread
    counts = [0, 0]  # values laid out in each lane

    def encode(i, lane):
        block = rows[starts[i] : starts[i] + step]
        _encode(block, *lanes[lane], end)
        counts[lane] = block.size

    def write(lane):
        _write_lines(fh, lanes[lane][1][: counts[lane]])

    pairs = len(starts) // 2 * 2
    for i in range(0, pairs, 2):
        with alongside(encode, i + 1, 1):
            encode(i, 0)
            write(0)
        write(1)
    if pairs < len(starts):
        encode(pairs, 0)
        write(0)
