"""How a table becomes bytes: repr's text of whole numpy columns, a block
of _PASS formatted cells at a time, framed as CSV or JSON by the writers.

cells() lays every value of a few equal-length columns out as the bytes
that repr(float(x)) or repr(int(x)) gives, one fixed-width row of bytes
a cell, with PAD in the unused positions; text() drops the PAD bytes of
a whole frame of such rows, separators included, in one pass.  A column
that holds one value throughout (one bit pattern, so -0.0 and each NaN
payload stay apart) is formatted once and its cell repeated, so a block
of a table is sized by its other columns: those that vary over the
whole table.

The digits of a float are the shortest that read back to it, and among
those the closest to it, as repr prints them.  They come from Schubfach
(R. Giulietti, "The Schubfach way to render doubles", 2020) in 64-bit
integer arithmetic: the 128-bit products g * cp it needs are summed from
32-bit limbs.  A cell is then laid out by CPython's 'r' rules: exponent
form when decpt <= -4 or decpt > 16 (value = 0.DIGITS * 10**decpt), with
at least two exponent digits; otherwise fixed form, with ".0" on integral
values; "-" on negative values and -0.0.  A layout depends only on the
digit count and decpt, so it is one row of a table of byte indices built
at import, whose first index is the cell's sign byte, and laying out a
cell is one gather.  The trailing zeros that the layout leaves out are
counted from the 4-digit chunks that the digits are looked up by.
Subnormal, infinite and NaN cells are spelled by a
caller's function.  Integer cells are repr of each value, written into
PAD-filled rows.
"""

from __future__ import annotations

import json
import math
from typing import IO, TYPE_CHECKING, Optional

import numpy as np

if TYPE_CHECKING:
    from .dynamics import Trajectory

__all__ = ["write_trajectory_csv", "write_trajectory_json"]

# widest cell: -2.2250738585072014e-308
WIDTH = 24
PAD = 0

# formatted cells of a block, in one pass, whose temporaries peak at
# about 330 bytes a cell; a column constant over the whole table adds
# one formatted cell, so the CSV writer divides _PASS by the other
# columns (a block of a kernel table went from 1536 to 2048 rows,
# BENCH_33.json), though its frame still takes 25 bytes for every row
# of every column and cells' output WIDTH for every row of every
# distinct column.  Five columns took 1.2x the time in passes of 3072
# cells and 1.3x in 2048, eight in one pass of 8192 0.88x that of two
# passes at 1.7x the peak (BENCH_24.json), and blocks of 1024 rows
# 1.02-1.03x that of blocks of _PASS cells (BENCH_32.json)
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
# these are (_PAD's byte is PAD), and last the sign, PAD or "-": the
# fixed bytes of a positive and of a negative cell are _FIXED_WORDS
_ZERO, _DOT, _E, _MINUS, _PLUS, _PAD = range(24, 30)
_SIGN = 31
_FIXED_WORDS = np.frombuffer(b"0.e-+\0\0\0" b"0.e-+\0\0-", dtype=_U)
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
    return np.array([[_SIGN] + row + [_PAD] * (WIDTH - 1 - len(row)) for row in rows],
                    dtype=np.uint8)


# intp, as np.take wants its indices
_TABLE = _table().astype(np.intp)
# the trailing zeros of each 4-digit chunk "0000".."9999", 4 for "0000"
_TRAILING = sum(np.arange(10**4) % 10**j == 0 for j in range(1, 5)).astype(np.uint8)


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


def _source(u: np.ndarray, exponent, negative: np.ndarray) -> tuple:
    """Each cell's 32 source bytes: the 20 digits of u, the 4 of exponent,
    the fixed bytes and the sign, "-" where negative; and the trailing
    zeros of u, 16 where u is 0, for u of 17 digits or 0.

    The digits come in 4-digit chunks, looked up by their values, and the
    trailing zeros from the four chunks below the top one: those of the
    last chunk, plus those of the one above it while the chunks below it
    are "0000".
    """
    # int64, u < 10**17: numpy divides it by a scalar fast, divmod
    # slowly, and gathers by its own index type without a cast
    u = u.view(np.int64)
    source = np.empty((len(u), 8), dtype=np.uint32)
    high = u // 10**8
    top = high // 10**8
    source[:, 0] = _CHUNKS[top]
    zeros = None
    for word, part in ((1, high - top * 10**8), (3, u - high * 10**8)):
        upper = part // 10**4
        lower = part - upper * 10**4
        source[:, word] = _CHUNKS[upper]
        source[:, word + 1] = _CHUNKS[lower]
        # the trailing zeros of the chunks upper, lower: 8 when part is 0
        chunks = _TRAILING[lower]
        chunks += _TRAILING[upper] * (lower == 0)
        zeros = chunks if zeros is None else chunks + zeros * (chunks == 8)
    source[:, 5] = _CHUNKS[exponent]
    source.view(_U)[:, 3] = _FIXED_WORDS[negative.view(np.uint8)]
    return source.view(np.uint8), zeros


def _lay_out(source: np.ndarray, cls: np.ndarray) -> np.ndarray:
    """(cells, WIDTH) bytes of each cell's layout class from its source,
    sign first, in one gather: the class's row of _TABLE, offset in
    place by the cell's first source byte.
    """
    index = np.take(_TABLE, cls, axis=0)
    index += 32 * np.arange(len(cls))[:, None]
    return np.take(source.reshape(-1), index)


def _digits(magnitude: np.ndarray, other, negative: np.ndarray) -> tuple:
    """The source bytes (see _source) and layout class of each cell of
    these magnitudes, laid out as 0.0 where other is set (None: nowhere)."""
    # 1.0 stands in for the other cells: decpt = 1, and d = 0 lays it out
    # as 0.0
    d, k = _shortest(magnitude if other is None
                     else np.where(other, _U(0x3FF << 52), magnitude))
    # d has 15 to 17 digits: s has 16 or 17 (see _shortest), d one fewer
    # when shorter
    n = 15 + (d >= _POW10[15]) + (d >= _POW10[16])
    decpt = k + n
    # at most 324: decpt - 1 is the decimal exponent of a normal double
    exp = np.abs(decpt - 1)
    if other is not None:
        d[other] = 0
    # d scaled to 17 digits, at source bytes 3..19, of which n - 1 =
    # 16 - zeros follow the first without the trailing zeros
    source, zeros = _source(d * _POW10[17 - n], exp, negative)
    fixed = (decpt > -4) & (decpt <= 16)
    form = 2 * (decpt < 0) + (exp >= 100)
    return source, np.where(fixed, (decpt + 3) * 17, _N_FIXED + form * 17) + 16 - zeros


def _float_cells(x: np.ndarray, spell) -> np.ndarray:
    magnitude = x.view(_U) & _U((1 << 63) - 1)
    # biased exponent 1..2046; 0 (zero, subnormal) wraps around
    normal = (magnitude >> _U(52)) - _U(1) < _U(0x7FE)
    other = None if normal.all() else ~normal
    # _digits' temporaries are freed before the gather's index, the
    # largest array, is made: a pass peaks at 330, not 350, bytes a cell
    cells = _lay_out(*_digits(magnitude, other, np.signbit(x)))
    if other is not None:
        # laid out as 0.0; the non-zero ones are spelled over
        for i in np.flatnonzero(other & (magnitude != 0)):
            text = spell(float(x[i])).encode()
            cells[i] = PAD
            cells[i, :len(text)] = np.frombuffer(text, dtype=np.uint8)
    return cells


def _values(column) -> np.ndarray:
    """The column as float64, or as int64 if it is not a float column."""
    column = np.asarray(column)
    return column.astype(np.float64 if column.dtype.kind == "f" else np.int64, copy=False)


def _constant(x: np.ndarray) -> bool:
    """Whether x has values, all of one bit pattern."""
    bits = x.view(_U)
    # the end cells first: few varying columns pass that test, so few
    # pay for the whole comparison
    return len(bits) > 0 and bits[-1] == bits[0] and (bits == bits[0]).all()


def cells(columns: list, spell=repr) -> np.ndarray:
    """(len(columns), rows, WIDTH) bytes of repr of every value, PAD-filled.

    The columns are equal-length 1-D arrays: float ones are formatted as
    repr(float(x)), the others as repr(int(x)).  spell(float(x)) gives the
    text of subnormal, infinite and NaN cells (repr for CSV, json.dumps
    for JSON, which spells NaN and Infinity).  A column whose values all
    have one bit pattern is formatted from its first value; the values
    of the float columns are formatted together, in one pass, whose
    temporaries peak at about 330 bytes a cell: the writers pass blocks
    of _PASS formatted cells, besides one of each column constant over
    their whole table.
    """
    rows = len(columns[0])
    out = np.empty((len(columns), rows, WIDTH), dtype=np.uint8)
    floats = {}
    for i, column in enumerate(columns):
        x = _values(column)
        if _constant(x):
            x = x[:1]
        if x.dtype == np.float64:
            floats[i] = x
        else:
            out[i] = np.array(list(map(repr, x.tolist())), dtype=f"S{WIDTH}").view(
                np.uint8).reshape(-1, WIDTH)
    if floats:
        formatted = _float_cells(np.concatenate(list(floats.values())), spell)
        start = 0
        for i, x in floats.items():
            out[i] = formatted[start:start + len(x)]
            start += len(x)
    return out


def text(frame: np.ndarray) -> bytes:
    """The bytes of frame, in order, without its PAD bytes."""
    return frame.tobytes().translate(None, bytes([PAD]))


def _write_csv(stream: IO[bytes], metadata: dict, table: dict,
               clamped: bool = False) -> None:
    """# key = value lines, the header row and the rows of the columns.

    metadata gives the # lines, and clamped adds underflow_clamped = true;
    table maps each header name to its column.  A cell holds the bytes of
    repr(float(x)), or of repr(int(x)) in an integer column, so floats
    parse back exactly and an integer column stays 0/1.  Each distinct
    column object is formatted once a block, so a column under two names
    costs one formatting, and a column whose values all have one bit
    pattern costs one cell a block.  A block holds _PASS cells of the
    distinct columns that vary over the table (_PASS // varying rows),
    and its cells, commas and newlines are one byte frame of 25 bytes a
    cell, written without its padding.
    """
    lines = [f"# {key} = {value}\n" for key, value in metadata.items()]
    if clamped:
        lines.append("# underflow_clamped = true\n")
    lines.append(",".join(table) + "\n")
    stream.write("".join(lines).encode())
    columns = list(table.values())
    distinct = {id(column): column for column in columns}
    order = [list(distinct).index(id(column)) for column in columns]
    varying = sum(not _constant(_values(column)) for column in distinct.values())
    rows = max(1, _PASS // max(1, varying))
    for start in range(0, len(columns[0]), rows):
        block = cells([column[start:start + rows] for column in distinct.values()])
        frame = np.empty((block.shape[1], len(columns), WIDTH + 1), dtype=np.uint8)
        # a column at a time: one fancy index of the transposed block makes
        # a temporary of the block's size, and took 1.3-2.5x the time on
        # the 2048 rows of a kernel table (BENCH_33.json)
        for j, i in enumerate(order):
            frame[:, j, :-1] = block[i]
        frame[:, :, -1] = ord(",")
        frame[:, -1, -1] = ord("\n")
        stream.write(text(frame))


def write_trajectory_csv(trajectory: Trajectory, stream: IO[bytes],
                         metadata: Optional[dict] = None) -> None:
    """The trajectory's table (Trajectory.table) with # metadata lines."""
    _write_csv(stream, metadata or {}, trajectory.table(),
               trajectory.underflow_clamped)


# the frame, not json.dumps(block.tolist()): writing the staircase's
# 37501 rows took 168 against 396 ms, and 2402 log-grid rows 15 against 34
def _write_json_array(stream: IO[bytes], values: np.ndarray) -> None:
    """json.dumps(values.tolist()), written a block of _PASS values at a time.

    Each block of rows is one byte frame: every value's cell from cells,
    with the brackets of the inner lists that it opens and closes and the
    ", " after it, but for the last value; json.dumps spells the
    non-finite values NaN, Infinity and -Infinity.
    """
    depth = values.ndim - 1
    rows = max(1, _PASS // math.prod(values.shape[1:]))
    stream.write(b"[")
    for start in range(0, len(values), rows):
        block = values[start:start + rows]
        frame = np.zeros(block.shape + (WIDTH + 2 * depth + 2,), dtype=np.uint8)
        frame[..., depth:depth + WIDTH] = cells(
            [block.reshape(-1)], json.dumps).reshape(block.shape + (WIDTH,))
        frame[..., -2:] = np.frombuffer(b", ", dtype=np.uint8)
        for axis in range(1, values.ndim):
            # a list along axis opens before its first value, closes after its last
            outer = (slice(None),) * axis
            frame[outer + (0,) * (values.ndim - axis) + (axis - 1,)] = ord("[")
            frame[outer + (-1,) * (values.ndim - axis) + (-2 - axis,)] = ord("]")
        if start + rows >= len(values):
            frame.reshape(-1, frame.shape[-1])[-1, -2:] = PAD
        stream.write(text(frame))
    stream.write(b"]")


def write_trajectory_json(trajectory: Trajectory, stream: IO[bytes],
                          metadata: Optional[dict] = None) -> None:
    """Full complex amplitudes as arrays of [re, im] pairs.

    The bytes are those of json.dump(payload, stream, sort_keys=True) and
    a newline, written key by key in sorted order: the scalars and the
    metadata by json.dumps(..., sort_keys=True), and the two arrays by
    _write_json_array in blocks of rows, so their nested lists are never
    built whole.
    """
    # (re, im) float view of the amplitudes: no copy of a complex128 array
    pairs = np.ascontiguousarray(trajectory.amplitudes, dtype=complex).view(
        float).reshape(len(trajectory), -1, 2)
    stream.write(b'{"amplitudes": ')
    _write_json_array(stream, pairs)
    stream.write(f', "gamma": {json.dumps(trajectory.gamma)}, "metadata": '
                 f'{json.dumps(dict(metadata or {}), sort_keys=True)}, "times": '.encode())
    _write_json_array(stream, np.asarray(trajectory.times, dtype=float))
    stream.write(', "underflow_clamped": '
                 f'{json.dumps(trajectory.underflow_clamped)}}}\n'.encode())
