"""Float64 columns to CSV text, byte for byte Python's ``repr``, in whole-array steps.

``write_rows(columns, write)`` hands ``write`` the CSV lines of equal-length
float64 columns: every value's ``repr``, then ``,``, or ``\\n`` after a
row's last value. The text equals ``",".join(map(repr, row)) + "\\n"`` over
the rows. ``format_rows(block)`` returns the same text of a
(rows, columns) block as bytes.

The digits are Schubfach's (R. Giulietti, "The Schubfach way to render
doubles", 2020; the algorithm of JDK 19's ``Double.toString``). A normal
double v = c·2^q has a rounding interval R_v; with k = floor(log10 2^q),
the shortest decimal in R_v is the one multiple of 10^(k+1) in it, if there
is one, and otherwise the multiple of 10^k nearest v (ties to an even
digit). Three products of c·2^q with a 126-bit approximation g of 10^-k,
rounded to odd, place v and both ends of R_v against those multiples
exactly. The products are 128 bits wide and are formed from 32-bit limbs in
``uint64``, all over the block at once. The shortest decimal is the one
Python's ``repr`` prints, so the digits agree with it.

The text follows ``repr``'s layout: exponent form when the decimal point
position decpt is at most -4 or above 16 (``1e-05``, ``1.5e+300``, at least
two exponent digits), positional otherwise, with ``.0`` on integral values.
Each value's characters are gathered from a per-value record of 28 bytes
(its digits 2 to 17, its leading digit, the constant characters, its
separator and its exponent digits) through a template picked by sign,
digit count and layout class; the templates pad with NUL, which is dropped
before the bytes are returned.

Zeros take templates of their own. Subnormals, infinities and NaNs are
formatted by ``repr`` one by one. Subnormals are among them because their
significand lacks the hidden bit: v·10^-k need not have the 16 or 17
digits the kernel lays out, and for the smallest of them JDK's Schubfach
keeps two digits where ``repr`` keeps one (``4.9E-324`` against
``5e-324``).

The tables are built on the first call of ``_tables``, not at import: g
for the 617 decimal exponents k, in Python ints, spread with k and the
product's shift over the 4 096 cases of exponent field and power of two;
the digit and exponent characters; the layouts by decpt; the templates.

Every array the kernel forms lives in one workspace per thread, sized for
``CAPACITY`` floats and kept in a ``threading.local``: each numpy step
writes into it with ``out=``, so a call allocates no temporary of the
block's size and the allocator never returns and re-faults its pages (the
one allocation left is a gather slice's text, under 13 kB). The workspace
is built on a thread's first ``write_rows`` call and holds 2.55 MB for the
life of the thread: 296 bytes a float, and 128 kB for one gather slice.
``write_rows`` cuts the columns into blocks of ``CAPACITY // len(columns)``
whole rows, stacks each block into the workspace and passes its text to
``write`` as a view of the workspace, valid only during that call: the
next block overwrites it. A thread formats one block at a time.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from functools import cache
from typing import Callable, Sequence

import numpy as np

__all__ = ["CAPACITY", "format_rows", "write_rows"]

# Floats per kernel call, and the size of the workspace (296 bytes a float).
# In a sweep of the `panels` benchmark (8 s runs, seeds 31-33, 2-core host),
# 4 096, 6 144, 8 192, 12 288 and 16 384 raised peak RSS by 1.4, 1.9, 2.5,
# 3.6 and 4.0 MB over 1 536-float blocks of an allocating kernel, and the
# throughput by 8-21 %, 14-22 %, 8-25 %, 13-28 % and 24-30 %; 8 192 is the
# largest that keeps the rise under 3 MB.
CAPACITY = 8192

_K_MIN, _K_MAX = -324, 292  # the decimal exponents k that normal doubles need
_DIGITS = 17  # a normal double's decimal, scaled to 17 digits
_LAYOUTS = 24  # decpt -3..16 positional, then exponent form by exponent sign and width
_WIDTH = 25  # "-1.2345678901234567e-308" and its separator
_DECPT = 400  # decpt offset in the layout table; |decpt| stays below 330
_GATHER = 512  # values gathered per index array

# Bytes of a value's record, seven words of four: digits 2..17, then the
# leading digit and ".e-", then "+0", the separator and a NUL, then the
# three exponent digits and a NUL. Word j of value i is row j, column i of
# the workspace's (7, CAPACITY) words.
_RECORD = 28
_LEAD, _DOT, _E, _MINUS, _PLUS, _ZERO, _SEP, _NUL, _EXP = 16, 17, 18, 19, 20, 21, 22, 23, 24
_COMMA_WORD, _NEWLINE_WORD = np.frombuffer(b"+0,\0+0\n\0", dtype=np.uint32)
_LEAD_WORDS = np.frombuffer(b"".join(b"%d.e-" % d for d in range(10)), dtype=np.uint32)
_GROUP_ROWS = np.arange(0, 40000, 10000)[:, np.newaxis]  # each group's row of the lengths
_ZEROS = 2 * (_DIGITS + 1) * _LAYOUTS  # the templates of 0.0 and -0.0

_M32 = np.uint64(0xFFFFFFFF)
_M63 = np.uint64(2**63 - 1)
_FRACTION = np.uint64((1 << 52) - 1)
_HIDDEN = np.uint64(1 << 52)
_STEPS = np.array([[10], [1]], dtype=np.uint64)  # from each candidate below to the one above


def _layout(negative: bool, n: int, layout: int) -> list:
    """Record bytes of ``repr``'s text, and its separator, for ``n`` significant digits."""
    digits = [_LEAD, *range(n - 1)]  # the record bytes of the n digits
    rows = [_MINUS] if negative else []
    if layout < 20:
        decpt = layout - 3
        if decpt <= 0:
            rows += [_ZERO, _DOT] + [_ZERO] * -decpt + digits
        elif decpt < n:
            rows += digits[:decpt] + [_DOT] + digits[decpt:]
        else:
            rows += digits + [_ZERO] * (decpt - n) + [_DOT, _ZERO]
    else:
        negative_exp, three = divmod(layout - 20, 2)
        rows += digits[:1] + ([_DOT] + digits[1:] if n > 1 else [])
        rows += [_E, _MINUS if negative_exp else _PLUS] + [_EXP, _EXP + 1, _EXP + 2][1 - three :]
    return rows + [_SEP]


def _powers_of_ten() -> list:
    """g = floor(10^-k 2^-r) + 1 for each k, with r chosen so that 2^125 <= g < 2^126."""
    g = []
    for k in range(_K_MIN, _K_MAX + 1):
        if k <= 0:
            p = 10**-k
            r = p.bit_length() - 126
            g.append((p >> r if r >= 0 else p << -r) + 1)
        else:
            p = 10**k
            g.append((1 << (p.bit_length() + 125)) // p + 1)
    return g


@cache
def _tables() -> tuple:
    """(binades, group chars, exponent chars, group lengths, layouts, templates, offsets), read-only.

    ``binades[:, e]`` holds, for the biased exponent e & 2047 and, when e >= 2048,
    a zero fraction field: the 32-bit halves of g0 and g1 (g = g1·2^63 + g0,
    taken from the 617 powers of ten), the decimal exponent k, g1 itself,
    the shift h, and how far below 4c the rounding interval reaches (2, or 1
    for a power of two above the smallest binade). Exponent fields 0 and
    2047 take the entries of 1 and 2046; their values go to ``repr``. The
    group and exponent characters are words of four bytes, indexed by a
    group's value and by |decpt - 1|. A template lists the byte positions of
    its text in the workspace's words for value 0; row i of ``offsets`` moves
    them to value i of a gather slice.
    """
    g = _powers_of_ten()
    binades = []
    for e in range(4096):
        q = min(max(e % 2048, 1), 2046) - 1075
        irregular = e >= 2048 and q > -1074
        k = (q * 661_971_961_083 - irregular * 274_743_187_321) >> 41
        h = q + ((-k * 913_124_641_741) >> 38) + 2
        g0, g1 = g[k - _K_MIN] & (2**63 - 1), g[k - _K_MIN] >> 63
        binades.append([g0 % 2**32, g1 % 2**32, g0 >> 32, g1 >> 32, k % 2**64, g1, h, 2 - irregular])
    binades = np.array(binades, dtype=np.uint64).T.copy()

    group = np.arange(10000)
    places = np.array([1000, 100, 10, 1])[:, np.newaxis]
    chars = (group // places % 10 + 48).astype(np.uint8)  # (4, 10000): digit j of each group
    zeros = np.cumprod(chars[::-1] == 48, axis=0).sum(axis=0)  # trailing zeros, 4 for 0
    # digits up to a group's last nonzero one, counted from the leading digit;
    # 0 for a zero group, but 1 for a zero first group, so that the maximum is n
    lengths = ((4 - zeros + 4 * np.arange(4)[:, np.newaxis] + 1) * (zeros < 4)).astype(np.uint8)
    lengths[0, 0] = 1
    exponent_chars = np.zeros((_DECPT, 4), dtype=np.uint8)
    exponent_chars[:, :3] = np.arange(_DECPT)[:, np.newaxis] // places[1:].T % 10 + 48
    decpt = np.arange(2 * _DECPT) - _DECPT
    layouts = np.where(
        (decpt >= -3) & (decpt <= 16), decpt + 3, 20 + 2 * (decpt < 1) + (np.abs(decpt - 1) >= 100)
    ).astype(np.uint64)
    # template (sign·18 + n)·24 + layout; n = 0 is never used
    rows = [
        _layout(negative, n, layout) if n else [_NUL]
        for negative in (False, True)
        for n in range(_DIGITS + 1)
        for layout in range(_LAYOUTS)
    ]
    rows += [[_ZERO, _DOT, _ZERO, _SEP], [_MINUS, _ZERO, _DOT, _ZERO, _SEP]]
    templates = np.array([row + [_NUL] * (_WIDTH - len(row)) for row in rows], dtype=np.int64)
    templates = (templates >> 2) * (4 * CAPACITY) + (templates & 3)  # record byte -> word row, byte
    # 4i on row i, stored whole: numpy buffers an add with a broadcast (rows, 1) column
    offsets = np.repeat(4 * np.arange(_GATHER)[:, np.newaxis], _WIDTH, axis=1)
    words = chars.T.copy().view(np.uint32).ravel(), exponent_chars.view(np.uint32).ravel()
    tables = (binades, *words, lengths, layouts, templates, offsets)
    for table in tables:
        table.flags.writeable = False
    return tables


_U64_ROWS, _FLAG_ROWS = 31, 7  # the workspace's uint64 and bool rows


class _Workspace:
    """Every array the kernel forms, for up to ``CAPACITY`` floats.

    ``values`` holds a block that a caller stacks into it. The kernel's
    per-value arrays are rows of ``u64``, ``flags`` and ``u8``, viewed as
    (rows, count) for a call of count floats, so that every run of rows is
    contiguous; a row is reused once its value is spent, and the compact
    text takes rows 16-19 of ``u64``. ``words`` has rows of CAPACITY, as
    the templates' byte positions assume. ``index``, ``gathered`` and
    ``mask`` hold one gather slice.
    """

    def __init__(self) -> None:
        self.values = np.empty(CAPACITY)
        self.u64 = np.empty(_U64_ROWS * CAPACITY, dtype=np.uint64)
        self.flags = np.empty(_FLAG_ROWS * CAPACITY, dtype=bool)
        self.u8 = np.empty(5 * CAPACITY, dtype=np.uint8)
        self.words = np.empty((_RECORD // 4, CAPACITY), dtype=np.uint32)
        self.index = np.empty((_GATHER, _WIDTH), dtype=np.int64)
        self.gathered = np.empty((_GATHER, _WIDTH), dtype=np.uint8)
        self.mask = np.empty((_GATHER, _WIDTH), dtype=bool)


_local = threading.local()


def _workspace() -> _Workspace:
    """This thread's workspace, built on its first call."""
    try:
        return _local.workspace
    except AttributeError:
        _local.workspace = _Workspace()
        return _local.workspace


def _shortest(bits: np.ndarray, r: np.ndarray, flag: np.ndarray) -> tuple:
    """Schubfach's shortest decimal f·10^k of normal doubles, as (f, k).

    f and k are rows 0 and 6 of the (31, count) uint64 rows ``r``; every
    other row of ``r``, and rows 0-3 of the bool rows ``flag``, are scratch.
    """
    count = len(bits)
    c, e, binade = r[0], r[1], r[2:10]
    np.bitwise_and(bits, _FRACTION, out=c)
    np.right_shift(bits, 52, out=e)
    e &= 0x7FF
    np.equal(c, 0, out=flag[0])
    np.add(e, 2048, out=e, where=flag[0])
    _tables()[0].take(e.view(np.int64), axis=1, out=binade, mode="clip")
    g_lo, g_hi = binade[0:2, np.newaxis], binade[2:4, np.newaxis]
    k, g1, h, lower = binade[4:]
    c |= _HIDDEN
    # v and the two ends of its interval, times 4·2^h, each times g0 and g1
    cp_hi, cp = r[10:13], r[13:16]
    np.left_shift(c, 2, out=cp[0])
    np.subtract(cp[0], lower, out=cp[1])
    np.add(cp[0], 2, out=cp[2])
    np.left_shift(cp, h, out=cp)
    z = binade[5:8]  # the rows of g1, h and lower, each spent before z overwrites it
    for j in (2, 1, 0):
        np.multiply(g1, cp[j], out=z[j])
    # high 64 bits of the 128-bit products, from 32-bit limbs; once the middle
    # sums u are formed, cp's low limbs are spent and high takes their rows
    np.right_shift(cp, 32, out=cp_hi)
    cp &= _M32
    u, v = r[19:25].reshape(2, 3, count), r[25:31].reshape(2, 3, count)
    np.multiply(g_lo, cp, out=u)
    u >>= 32
    np.multiply(g_hi, cp, out=v)
    u += v
    high = r[13:19].reshape(2, 3, count)
    np.bitwise_and(u, _M32, out=high)
    np.multiply(g_lo, cp_hi, out=v)
    high += v
    high >>= 32
    u >>= 32
    high += u
    np.multiply(g_hi, cp_hi, out=v)
    high += v
    # floor(g·cp / 2^127), its lost bits folded into the lowest bit (round to odd)
    z >>= 1
    z += high[0]
    bounds = high[1]
    vb, vbl, vbr = bounds
    np.right_shift(z, 63, out=u[0])
    bounds += u[0]
    z &= _M63
    z += _M63
    z >>= 63
    bounds |= z

    # The candidates below v: the multiple of 10^(k+1), then of 10^k; the
    # interval holds both ends' candidates, or one, or neither. An odd c
    # leaves the interval's own ends out.
    out = e
    np.bitwise_and(c, 1, out=out)
    below, above, wide, t1, t2 = r[19:21], r[21:23], r[25:27], r[2], r[3]
    s = below[1]
    np.right_shift(vb, 2, out=s)
    np.floor_divide(s, 10, out=below[0])
    below[0] *= 10
    np.add(below, _STEPS, out=above)
    below_in, one_in = flag[0:2], flag[2:4]
    np.add(vbl, out, out=t1)
    np.left_shift(below, 2, out=wide)
    np.less_equal(t1, wide, out=below_in)
    np.left_shift(above, 2, out=wide)
    wide += out
    np.less_equal(wide, vbr, out=one_in)
    np.not_equal(below_in, one_in, out=one_in)
    np.copyto(above, below, where=below_in)  # the picked candidates
    # both or neither of s and s + 1: the nearer to v, the even one on a tie
    f = c
    np.bitwise_and(s, 1, out=t1)
    t1 += vb
    np.left_shift(s, 2, out=t2)
    t2 += 2
    t2 -= t1  # -2..2, so its top bit is set exactly when vb + (s & 1) > 4s + 2
    t2 >>= 63
    np.add(s, t2, out=f)
    np.copyto(f, above[1], where=one_in[1])
    np.copyto(f, above[0], where=one_in[0])
    return f, k.view(np.int64)


def _text(ws: _Workspace, values: np.ndarray, columns: int) -> np.ndarray:
    """The CSV text of whole rows of ``columns`` floats, as a uint8 view of ``ws.u64``.

    ``values`` holds the rows one after another, at most CAPACITY floats.
    """
    _, group_chars, exponent_chars, lengths, layouts, templates, offsets = _tables()
    count = len(values)
    bits = values.view(np.uint64)
    r = ws.u64[: _U64_ROWS * count].reshape(_U64_ROWS, count)
    flag = ws.flags[: _FLAG_ROWS * count].reshape(_FLAG_ROWS, count)
    f, k = _shortest(bits, r, flag)

    # 17 digits: the leading one, then four groups of four
    short = flag[4]
    np.less(f, 10**16, out=short)
    np.multiply(f, 10, out=f, where=short)
    f = f.view(np.int64)
    decpt, top, lead, scratch = (row.view(np.int64) for row in r[10:14])
    t1, t2, pair = r[2], r[3], r[25:27].view(np.int64)
    np.add(k, _DIGITS, out=decpt)
    np.subtract(decpt, 1, out=decpt, where=short)
    np.floor_divide(f, 10**8, out=top)
    np.floor_divide(top, 10**8, out=lead)
    groups = r[19:23].view(np.int64)  # upper and lower half of each group of eight
    halves, upper = groups[1::2], groups[0::2]
    np.multiply(lead, 10**8, out=halves[0])
    np.subtract(top, halves[0], out=halves[0])
    np.multiply(top, 10**8, out=halves[1])
    np.subtract(f, halves[1], out=halves[1])
    np.floor_divide(halves, 10**4, out=upper)
    np.multiply(upper, 10**4, out=pair)
    halves -= pair
    words = ws.words[:, :count]
    for j in range(4):
        group_chars.take(groups[j], out=words[j], mode="clip")
    _LEAD_WORDS.take(lead, out=words[4], mode="clip")
    words[5] = _COMMA_WORD
    words[5, columns - 1 :: columns] = _NEWLINE_WORD
    np.subtract(decpt, 1, out=scratch)
    np.absolute(scratch, out=scratch)
    exponent_chars.take(scratch, out=words[6], mode="clip")

    # significant digits: up to the last nonzero digit of the last nonzero group
    groups += _GROUP_ROWS
    digits = ws.u8[: 5 * count].reshape(5, count)
    lengths.take(groups, out=digits[:4], mode="clip")
    n = digits[4]
    np.maximum.reduce(digits[:4], axis=0, out=n)
    negative, template, doubled = r[14], r[15], r[16]
    np.right_shift(bits, 63, out=negative)
    np.add(decpt, _DECPT, out=scratch)
    layouts.take(scratch, out=template, mode="clip")
    np.copyto(t1, n)
    np.multiply(negative, _DIGITS + 1, out=t2)
    t1 += t2
    t1 *= _LAYOUTS
    template += t1
    np.left_shift(bits, 1, out=doubled)  # the bits without the sign
    zero, normal = flag[5], flag[6]
    np.equal(doubled, 0, out=zero)
    np.add(negative, _ZEROS, out=template, where=zero)
    # subnormals, infinities and NaNs, exponent fields 0 and 2047, go to repr
    doubled -= np.uint64(1 << 53)
    np.less(doubled, np.uint64(2046 << 53), out=normal)
    normal |= zero
    specials = [] if normal.all() else np.flatnonzero(~normal).tolist()

    # in slices, so that the index stays small; each slice's NUL padding is
    # dropped as it is copied into the text, rows 16-19, spent by now
    template = template.view(np.int64)
    source = ws.words.view(np.uint8).ravel()
    text = ws.u64.view(np.uint8)[16 * 8 * count : (16 * 8 + _WIDTH) * count]
    end = 0
    for start in range(0, count, _GATHER):
        stop = min(start + _GATHER, count)
        size = stop - start
        index, gathered, mask = ws.index[:size], ws.gathered[:size], ws.mask[:size]
        templates.take(template[start:stop], axis=0, out=index, mode="clip")
        index += offsets[:size]
        source[4 * start :].take(index, out=gathered, mode="clip")  # words from value start on
        for i in specials[bisect_left(specials, start) : bisect_left(specials, stop)]:
            separator = b"\n" if i % columns == columns - 1 else b","
            value = repr(float(values[i])).encode() + separator
            gathered[i - start] = np.frombuffer(value.ljust(_WIDTH, b"\0"), dtype=np.uint8)
        np.not_equal(gathered, 0, out=mask)
        piece = gathered[mask]
        text[end : end + len(piece)] = piece
        end += len(piece)
    return text[:end]


def write_rows(columns: Sequence[np.ndarray], write: Callable[[np.ndarray], object]) -> None:
    """Pass the CSV text of equal-length float columns to ``write``, a block of rows a call.

    A block is ``CAPACITY // len(columns)`` whole rows, stacked into this
    thread's workspace; its text is a uint8 view of the workspace, valid
    only during the call. Raises ``ValueError`` unless there are 1 to
    ``CAPACITY`` columns.
    """
    width = len(columns)
    if not 1 <= width <= CAPACITY:
        raise ValueError(f"expected 1 to {CAPACITY} columns, got {width}")
    length = len(columns[0])
    ws = _workspace()
    step = CAPACITY // width
    for start in range(0, length, step):
        rows = min(step, length - start)
        values = ws.values[: rows * width]
        block = values.reshape(rows, width)
        for j, column in enumerate(columns):
            block[:, j] = column[start : start + rows]
        write(_text(ws, values, width))


def format_rows(block: np.ndarray) -> bytes:
    """The CSV text of a (rows, columns) float64 block, each value as ``repr`` gives it."""
    pieces = []
    write_rows(list(np.asarray(block, dtype=np.float64).T), lambda text: pieces.append(text.tobytes()))
    return b"".join(pieces)
