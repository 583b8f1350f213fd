"""repr's text of whole numpy columns, a block of cells at a time.

cells() lays every value of a few equal-length columns out as the bytes
that repr(float(x)) or repr(int(x)) gives, one fixed-width row of bytes
a cell, with PAD in the unused positions; text() drops the PAD bytes of
a whole frame of such rows, separators included, in one pass.  A column
that holds one value throughout (one bit pattern, so -0.0 and each NaN
payload stay apart) is formatted once and its cell repeated.

The digits of a float are the shortest that read back to it, and among
those the closest to it, as repr prints them.  They come from Schubfach
(R. Giulietti, "The Schubfach way to render doubles", 2020) in 64-bit
integer arithmetic: the 128-bit products g * cp it needs are summed from
32-bit limbs.  A cell is then laid out by CPython's 'r' rules: exponent
form when decpt <= -4 or decpt > 16 (value = 0.DIGITS * 10**decpt), with
at least two exponent digits; otherwise fixed form, with ".0" on integral
values; "-" on negative values and -0.0.  Past its sign byte, a layout
depends only on the digit count and decpt, so it is one row of a table
of byte indices built at import, and laying out a cell is one gather.
Subnormal, infinite and NaN cells are spelled by a caller's function.
Integer cells are repr of each value, written into PAD-filled rows.
"""

from __future__ import annotations

import numpy as np

__all__: list = []

# widest cell: -2.2250738585072014e-308
WIDTH = 24
PAD = 0

# most cells formatted in one pass, whose temporaries peak at about 390
# bytes a cell: a block of 1024 rows and up to six columns is one pass.
# Five such columns took 1.2x the time in passes of 3072 cells and 1.3x
# in 2048; eight in one pass of 8192 took 0.88x the time of two passes,
# at 1.7x the peak (BENCH_24.json)
_PASS = 6144

_U = np.uint64
_M32 = _U(0xFFFFFFFF)
_32 = _U(32)
_POW10 = 10 ** np.arange(20, dtype=_U)
# "0000".."9999" as four ASCII bytes each, read as one uint32
_CHUNKS = np.stack(np.meshgrid(*[np.arange(48, 58, dtype=np.uint8)] * 4, indexing="ij"),
                   axis=-1).reshape(-1, 4).view(np.uint32)[:, 0]
# g(e) = floor(10**e / 2**r) + 1 with r = floor(e log2 10) - 125, so that
# 2**125 < g <= 2**126, as four 32-bit limbs (axis 0), for the e = -k of
# every normal double (axis 1)
_E_MIN, _E_MAX = -292, 324


def _g(e: int) -> int:
    r = ((e * 1741647) >> 19) - 125
    if e < 0:
        return (1 << -r) // 10**-e + 1
    return (10**e >> r if r >= 0 else 10**e << -r) + 1


_G = np.frombuffer(b"".join(_g(e).to_bytes(16, "big") for e in range(_E_MIN, _E_MAX + 1)),
                   dtype=">u4").reshape(-1, 4).T.astype(_U)

# a cell's source bytes, 8 words of 4: 20 digits (a float's 17 at 3..19),
# the exponent's 4 digits, then the fixed bytes, whose source columns
# these are (_PAD's byte is PAD)
_ZERO, _DOT, _E, _MINUS, _PLUS, _PAD = range(24, 30)
_FIXED_WORDS = np.frombuffer(b"0.e-+\0\0\0", dtype=np.uint32)
# layout classes: fixed forms by decpt -3..16 and n = 1..17, then
# exponent forms by the exponent's sign and width and n
_N_FIXED = 20 * 17


def _float_layout(decpt: int, n: int) -> list:
    """Source bytes of repr of 0.DIGITS * 10**decpt, n digits, no sign."""
    digits = list(range(3, 3 + n))
    if decpt <= -4 or decpt > 16:
        exp = decpt - 1
        return (digits[:1] + ([_DOT] + digits[1:] if n > 1 else [])
                + [_E, _MINUS if exp < 0 else _PLUS]
                + list(range(24 - max(2, len(str(abs(exp)))), 24)))
    if decpt <= 0:
        return [_ZERO, _DOT] + [_ZERO] * -decpt + digits
    if decpt < n:
        return digits[:decpt] + [_DOT] + digits[decpt:]
    return digits + [_ZERO] * (decpt - n) + [_DOT, _ZERO]


def _table() -> np.ndarray:
    rows = [_float_layout(decpt, n) for decpt in range(-3, 17) for n in range(1, 18)]
    # exponents +16, +100, -5 and -100 stand for their sign and width
    rows += [_float_layout(decpt, n) for decpt in (17, 101, -4, -99)
             for n in range(1, 18)]
    return np.array([row + [_PAD] * (WIDTH - 1 - len(row)) for row in rows],
                    dtype=np.uint8)


_TABLE = _table()


def _round_to_odd(g: np.ndarray, cp: np.ndarray) -> np.ndarray:
    """floor(g cp / 2**128), its last bit set when bits 64..127 are not 0.

    g holds the four 32-bit limbs of g (most significant first), each
    (n,), and cp < 2**61 is (3, n): the three products of a cell at once.
    g exceeds 10**e / 2**r by less than 1, so g cp exceeds the exact
    product by less than 2**61: the bits below 2**64 are left out of the
    test, as in Schubfach's r_o.
    """
    g3, g2, g1, g0 = g
    p1, p0 = cp >> _32, cp & _M32
    # column sums of the 32-bit limb products at 2**32, 2**64 and 2**96,
    # each carried into the next; in place, as temporaries cost more here
    column, inexact = g0 * p0 >> _32, []
    for g_p0, g_p1 in ((g1, g0), (g2, g1), (g3, g2)):
        a, b = g_p0 * p0, g_p1 * p1
        column += a & _M32
        column += b & _M32
        inexact.append((column & _M32) != 0)
        column >>= _32
        column += a >> _32
        column += b >> _32
    column += g3 * p1
    column |= inexact[1] | inexact[2]
    return column


def _shortest(bits: np.ndarray) -> tuple:
    """Shortest round-trip digits d and exponent k, x = d 10**k, of the
    positive normal doubles with these bit patterns."""
    exponent = (bits >> _U(52)).astype(np.int64)
    fraction = bits & _U((1 << 52) - 1)
    c = fraction | _U(1 << 52)
    q = exponent - 1075
    # the gap below x is half the gap above at a power of two
    closer = (fraction == 0) & (exponent > 1)
    k = (q * 1262611 - closer * 524031) >> 22
    h = (q + ((-k * 1741647) >> 19) + 3).astype(_U)
    cb = c << _U(2)
    g = np.take(_G, -k - _E_MIN, axis=1)
    vbl, vb, vbr = _round_to_odd(g, np.stack([cb - _U(2) + closer, cb, cb + _U(2)]) << h)
    # vb = 4 x / 10**k rounded to odd, s of 16 or 17 digits; the digits
    # are one fewer when exactly one of the multiples of 10 around s lies
    # in the rounding interval [lower, upper] / 4, else those of whichever
    # of s and s + 1 alone lies in it, else of the closer, ties to even;
    # the ends of the interval belong to it when c is even
    odd = c & _U(1)
    lower, upper = vbl + odd, vbr - odd
    s = vb >> _U(2)
    sp = s // _U(10)
    up_in, wp_in = lower <= sp * _U(40), sp * _U(40) + _U(40) <= upper
    shorter = (s >= _U(10)) & (up_in != wp_in)
    u_in, w_in = lower <= s * _U(4), s * _U(4) + _U(4) <= upper
    mid = s * _U(4) + _U(2)
    closest = s + ((vb > mid) | ((vb == mid) & (s & _U(1) == 1)))
    d = np.where(shorter, sp + wp_in, np.where(u_in != w_in, s + w_in, closest))
    return d, k + shorter


def _source(u: np.ndarray, exponent) -> np.ndarray:
    """Each cell's 32 source bytes: the 20 digits of u, the 4 of exponent,
    the fixed bytes."""
    source = np.empty((len(u), 8), dtype=np.uint32)
    high = u // _U(10**8)
    top = high // _U(10**8)
    source[:, 0] = _CHUNKS[top]
    # divisions by a scalar: numpy does these fast, divmod slowly
    for word, part in ((1, high - top * _U(10**8)), (3, u - high * _U(10**8))):
        part = part.astype(np.uint32)
        upper = part // np.uint32(10**4)
        source[:, word] = _CHUNKS[upper]
        source[:, word + 1] = _CHUNKS[part - upper * np.uint32(10**4)]
    source[:, 5] = _CHUNKS[exponent]
    source[:, 6:] = _FIXED_WORDS
    return source.view(np.uint8)


def _lay_out(source: np.ndarray, cls: np.ndarray, negative) -> np.ndarray:
    """(cells, WIDTH) bytes: the sign, then the bytes of each cell's layout
    class from its source, in one gather."""
    out = np.empty((len(cls), WIDTH), dtype=np.uint8)
    out[:, 0] = np.where(negative, ord("-"), PAD)
    out[:, 1:] = source.reshape(-1)[_TABLE[cls] + 32 * np.arange(len(cls))[:, None]]
    return out


def _float_cells(x: np.ndarray, spell) -> np.ndarray:
    magnitude = x.view(_U) & _U((1 << 63) - 1)
    # biased exponent 1..2046; 0 (zero, subnormal) wraps around
    normal = (magnitude >> _U(52)) - _U(1) < _U(0x7FE)
    d, k = _shortest(np.where(normal, magnitude, _U(0x3FF << 52)))
    d[~normal] = 0
    zero = d == 0
    n = np.searchsorted(_POW10, d, side="right")
    decpt = k + n
    decpt[zero] = 1
    exp = np.abs(decpt - 1)
    # d scaled to 17 digits, at source bytes 3..19; n counts them without
    # the trailing zeros
    source = _source(d * _POW10[17 - n], np.minimum(exp, 9999))
    n = 17 - np.argmax(source[:, 19:2:-1] != 48, axis=1)
    n[zero] = 1
    fixed = (decpt > -4) & (decpt <= 16)
    form = 2 * (decpt < 0) + (exp >= 100)
    cls = np.where(fixed, (decpt + 3) * 17, _N_FIXED + form * 17) + n - 1
    cells = _lay_out(source, cls, np.signbit(x))
    for i in np.flatnonzero(~normal & (magnitude != 0)):
        text = spell(float(x[i])).encode()
        cells[i] = PAD
        cells[i, :len(text)] = np.frombuffer(text, dtype=np.uint8)
    return cells


def cells(columns: list, spell=repr) -> np.ndarray:
    """(len(columns), rows, WIDTH) bytes of repr of every value, PAD-filled.

    The columns are equal-length 1-D arrays: float ones are formatted as
    repr(float(x)), the others as repr(int(x)).  spell(float(x)) gives the
    text of subnormal, infinite and NaN cells (repr for CSV, json.dumps
    for JSON, which spells NaN and Infinity).  A column whose values all
    have one bit pattern is formatted from its first value; the values
    of the float columns are formatted together, in passes of at most
    _PASS cells.
    """
    rows = len(columns[0])
    out = np.empty((len(columns), rows, WIDTH), dtype=np.uint8)
    floats = {}
    for i, column in enumerate(columns):
        column = np.asarray(column)
        x = column.astype(np.float64 if column.dtype.kind == "f" else np.int64, copy=False)
        bits = x.view(_U)
        # the end cells first: few varying columns pass that test, so few
        # pay for the whole comparison
        if rows and bits[-1] == bits[0] and (bits == bits[0]).all():
            x = x[:1]
        if x.dtype == np.float64:
            floats[i] = x
        else:
            out[i] = np.array(list(map(repr, x.tolist())), dtype=f"S{WIDTH}").view(
                np.uint8).reshape(-1, WIDTH)
    if floats:
        values = np.concatenate(list(floats.values()))
        passes = np.array_split(values, max(1, -(-len(values) // _PASS)))
        formatted = np.concatenate([_float_cells(part, spell) for part in passes])
        start = 0
        for i, x in floats.items():
            out[i] = formatted[start:start + len(x)]
            start += len(x)
    return out


def text(frame: np.ndarray) -> str:
    """The bytes of frame, in order, without its PAD bytes."""
    return frame.tobytes().translate(None, bytes([PAD])).decode("ascii")
