"""Float64 blocks to CSV text, byte for byte Python's ``repr``, in whole-array steps.

``format_rows(block)`` returns the bytes of a (rows, columns) float64 block
as CSV lines: every value's ``repr``, then ``,``, or ``\\n`` after a row's
last value. It equals ``",".join(map(repr, row)) + "\\n"`` over the rows.

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
"""

from __future__ import annotations

from functools import cache

import numpy as np

__all__ = ["format_rows"]

_K_MIN, _K_MAX = -324, 292  # the decimal exponents k that normal doubles need
_DIGITS = 17  # a normal double's decimal, scaled to 17 digits
_LAYOUTS = 24  # decpt -3..16 positional, then exponent form by exponent sign and width
_WIDTH = 25  # "-1.2345678901234567e-308" and its separator
_DECPT = 400  # decpt offset in the layout table; |decpt| stays below 330
_GATHER = 512  # values gathered per index array

# Bytes of a value's record, seven words of four: digits 2..17, then the
# leading digit and ".e-", then "+0", the separator and a NUL, then the
# three exponent digits and a NUL.
_RECORD = 28
_LEAD, _DOT, _E, _MINUS, _PLUS, _ZERO, _SEP, _NUL, _EXP = 16, 17, 18, 19, 20, 21, 22, 23, 24
_LEAD_WORD = np.frombuffer(b"0.e-", dtype=np.uint32)[0]
_GROUP_ROWS = np.arange(0, 40000, 10000)[:, np.newaxis]  # each group's row of the lengths
_ZEROS = 2 * (_DIGITS + 1) * _LAYOUTS  # the templates of 0.0 and -0.0

_M32 = np.uint64(0xFFFFFFFF)
_M63 = np.uint64(2**63 - 1)


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
    """(binades, group chars, exponent chars, group lengths, layouts, templates), read-only.

    ``binades[:, e]`` holds, for the biased exponent e & 2047 and, when e >= 2048,
    a zero fraction field: the 32-bit halves of g0 and g1 (g = g1·2^63 + g0,
    taken from the 617 powers of ten), g1 itself, the shift h, the decimal
    exponent k, and how far below 4c the rounding interval reaches (2, or 1
    for a power of two above the smallest binade). Exponent fields 0 and
    2047 take the entries of 1 and 2046; their values go to ``repr``. The
    group and exponent characters are words of four bytes, indexed by a
    group's value and by |decpt - 1|.
    """
    g = _powers_of_ten()
    binades = []
    for e in range(4096):
        q = min(max(e % 2048, 1), 2046) - 1075
        irregular = e >= 2048 and q > -1074
        k = (q * 661_971_961_083 - irregular * 274_743_187_321) >> 41
        h = q + ((-k * 913_124_641_741) >> 38) + 2
        g0, g1 = g[k - _K_MIN] & (2**63 - 1), g[k - _K_MIN] >> 63
        binades.append([g0 % 2**32, g1 % 2**32, g0 >> 32, g1 >> 32, g1, h, k % 2**64, 2 - irregular])
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
    words = chars.T.copy().view(np.uint32).ravel(), exponent_chars.view(np.uint32).ravel()
    tables = (binades, *words, lengths, layouts, templates)
    for table in tables:
        table.flags.writeable = False
    return tables


def _shortest(bits: np.ndarray) -> tuple:
    """Schubfach's shortest decimal f·10^k of normal doubles, as (f, k)."""
    t = bits & np.uint64((1 << 52) - 1)
    exponent = (bits >> 52) & 0x7FF
    binade = _tables()[0].take(exponent + (t == 0) * np.uint64(2048), axis=1)
    g_lo, g_hi = binade[0:2, np.newaxis], binade[2:4, np.newaxis]
    g1, h, k, lower = binade[4:]
    c = t | np.uint64(1 << 52)
    # v and the two ends of its interval, times 4·2^h, each times g0 and g1
    cb = c << 2
    cp = np.array([cb, cb - lower, cb + 2])
    cp <<= h
    # high 64 bits of the 128-bit products, from 32-bit limbs
    cp_lo, cp_hi = cp & _M32, cp >> 32
    u = g_lo * cp_lo
    u >>= 32
    u += g_hi * cp_lo
    high = u & _M32
    high += g_lo * cp_hi
    high >>= 32
    u >>= 32
    high += u
    high += g_hi * cp_hi
    # floor(g·cp / 2^127), its lost bits folded into the lowest bit (round to odd)
    z = g1 * cp
    z >>= 1
    z += high[0]
    vb, vbl, vbr = (high[1] + (z >> 63)) | (((z & _M63) + _M63) >> 63)

    # The candidates below v: the multiple of 10^(k+1), then of 10^k; the
    # interval holds both ends' candidates, or one, or neither. An odd c
    # leaves the interval's own ends out.
    out = c & 1
    s = vb >> 2
    below = np.array([s // 10 * 10, s])
    above = below + np.array([[10], [1]], dtype=np.uint64)
    below_in = vbl + out <= below << 2
    one_in = below_in != ((above << 2) + out <= vbr)
    picked = np.where(below_in, below, above)
    # both or neither of s and s + 1: the nearer to v, the even one on a tie
    nearest = s + (vb + (s & 1) > (s << 2) + 2)
    f = np.where(one_in[0], picked[0], np.where(one_in[1], picked[1], nearest))
    return f, k.view(np.int64)


def format_rows(block: np.ndarray) -> bytes:
    """The CSV text of a (rows, columns) float64 block, each value as ``repr`` gives it."""
    block = np.ascontiguousarray(block, dtype=np.float64)
    rows, columns = block.shape
    _, group_chars, exponent_chars, lengths, layouts, templates = _tables()
    bits = block.view(np.uint64).ravel()
    count = len(bits)
    f, k = _shortest(bits)

    # 17 digits: the leading one, then four groups of four
    short = f < 10**16
    f = np.where(short, f * 10, f).view(np.int64)
    decpt = (k + _DIGITS) - short
    high = f // 10**8
    lead = high // 10**8
    halves = np.array([high - lead * 10**8, f - high * 10**8])
    upper = halves // 10**4
    lower = halves - upper * 10**4
    groups = np.array([upper[0], lower[0], upper[1], lower[1]])
    words = np.empty((_RECORD // 4, count), dtype=np.uint32)
    group_chars.take(groups, out=words[:4])
    words[4] = _LEAD_WORD
    np.add(lead, 48, out=words[4:5].view(np.uint8)[0, ::4], casting="unsafe")
    separators = b"+0,\0" * (columns - 1) + b"+0\n\0"
    words[5].reshape(rows, columns)[...] = np.frombuffer(separators, dtype=np.uint32)
    exponent_chars.take(np.abs(decpt - 1), out=words[6])

    # significant digits: up to the last nonzero digit of the last nonzero group
    n = lengths.take(groups + _GROUP_ROWS).max(axis=0)
    negative = bits >> 63
    template = (negative * (_DIGITS + 1) + n) * _LAYOUTS + layouts.take(decpt + _DECPT)
    doubled = bits << 1  # the bits without the sign
    zero = doubled == 0
    template = np.where(zero, _ZEROS + negative, template)

    # in slices, so that no index array outgrows the small temporaries
    source = words.T.copy().view(np.uint8).ravel()  # the records, one after another
    text = np.empty((count, _WIDTH), dtype=np.uint8)
    offsets = np.arange(0, count * _RECORD, _RECORD)[:, np.newaxis]
    for start in range(0, count, _GATHER):
        part = slice(start, start + _GATHER)
        index = templates.take(template[part], axis=0)
        index += offsets[part]
        source.take(index, out=text[part])
    # subnormals, infinities and NaNs: exponent fields 0 and 2047
    normal = doubled - np.uint64(1 << 53) < np.uint64(2046 << 53)
    if not (normal | zero).all():
        for i in np.flatnonzero(~(normal | zero)).tolist():
            value = repr(float(block.flat[i])).encode() + (b"\n" if i % columns == columns - 1 else b",")
            text[i] = np.frombuffer(value.ljust(_WIDTH, b"\0"), dtype=np.uint8)
    return text[text != 0].tobytes()
