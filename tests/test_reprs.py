"""The block formatter writes exactly the bytes of repr, cell by cell."""

import io
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chiralchain import reprs


def texts(cells):
    """The text of each row of a (cells, WIDTH) byte array."""
    return [row[row != reprs.PAD].tobytes().decode("ascii") for row in cells]


def assert_float_reprs(values):
    values = np.asarray(values, dtype=np.float64)
    got = texts(reprs.cells([values])[0])
    assert got == [repr(x) for x in values.tolist()]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
# +-0, +-inf, a NaN with a payload, the smallest subnormal, the largest
# double and the smallest normal
@example([0, 1 << 63, 0x7FF << 52, 0xFFF << 52, 0x7FF8_0000_0000_0001, 1,
          0x7FEF_FFFF_FFFF_FFFF, 1 << 52])
def test_float_cells_are_repr_of_any_bit_pattern(patterns):
    assert_float_reprs(np.array(patterns, dtype=np.uint64).view(np.float64))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-2**63, 2**63 - 1), min_size=1, max_size=64))
@example([-2**63, 2**63 - 1, 0, -1, 10**17, -10**17, 10**18 - 1, 10**18])
def test_int_cells_are_repr_of_any_int64(values):
    column = np.array(values, dtype=np.int64)
    assert texts(reprs.cells([column])[0]) == [repr(v) for v in values]


def neighbours(values):
    values = np.asarray(values, dtype=np.float64)
    return np.concatenate([np.nextafter(values, -np.inf), values,
                           np.nextafter(values, np.inf)])


def test_float_cells_sweep_the_powers_and_the_layout_boundaries():
    twos = neighbours(np.ldexp(1.0, np.arange(-1074, 1024)))
    tens = neighbours([float(f"1e{k}") for k in range(-307, 309)])
    # repr switches to the exponent form below 1e-4 and from 1e16 on
    edges = neighbours([1e-4, 1e16, 9.999999999999999e-5, 9999999999999998.0,
                        0.001, 1e15, 123456789012345.6])
    special = [5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]
    values = np.concatenate([twos, tens, edges, special])
    values = values[np.isfinite(values)]
    assert_float_reprs(np.concatenate([values, -values]))


def test_cells_of_mixed_columns_and_their_spelling():
    floats = np.array([np.nan, -np.inf, 1.5e-310, 0.25])
    ints = np.array([True, False, True, False])
    cells = reprs.cells([floats, ints, floats.astype(np.float32)], json.dumps)
    assert texts(cells[0]) == ["NaN", "-Infinity", "1.5e-310", "0.25"]
    assert texts(cells[1]) == ["1", "0", "1", "0"]
    assert texts(cells[2]) == ["NaN", "-Infinity", "0.0", "0.25"]
    assert reprs.cells([np.zeros(0), np.zeros(0, dtype=int)]).shape == (2, 0, reprs.WIDTH)


@pytest.mark.parametrize("shape", [(7,), (7, 3, 2), (0, 2, 2)])
def test_json_array_is_json_dumps_of_the_list(shape):
    values = np.geomspace(1e-320, 1e300, int(np.prod(shape))).reshape(shape)
    values.reshape(-1)[:4] = [np.nan, np.inf, -np.inf, -0.0][:values.size]
    out = io.BytesIO()
    # two rows per block, so blocks end inside the nested lists' rows
    with mock.patch.object(reprs, "_PASS", 2 * math.prod(shape[1:])):
        reprs._write_json_array(out, values)
    assert out.getvalue() == json.dumps(values.tolist()).encode()


# one bit pattern each: both zeros, a NaN with a payload, the smallest
# subnormal and a value in the exponent form
REPEATED = [0.0, -0.0, np.uint64(0x7FF8_0000_0000_0001).view(np.float64), 5e-324, 1e16]


@pytest.mark.parametrize("spell", [repr, json.dumps])
@pytest.mark.parametrize("rows", [1, 5])
def test_repeated_columns_are_the_text_of_their_value(spell, rows):
    repeated = [np.full(rows, value) for value in REPEATED]
    # differs from its first value only in the sign bit, or in the payload
    zeros = np.where(np.arange(rows) % 2, -0.0, 0.0)
    nans = np.array([0x7FF8_0000_0000_0001 + i for i in range(rows)],
                    dtype=np.uint64).view(np.float64)
    columns = repeated + [zeros, nans]
    cells = reprs.cells(columns, spell)
    for column, got in zip(columns, cells):
        assert texts(got) == [spell(x) for x in column.tolist()]


def test_int_and_flag_columns_are_repr_of_each_value():
    flags = np.array([True, False, True, True])
    extremes = np.array([-2**63, 2**63 - 1, 0, -7])
    columns = [flags, np.ones(4, dtype=bool), np.zeros(4, dtype=int),
               np.full(4, -2**63), extremes, flags.astype(np.int8)]
    cells = reprs.cells(columns + [np.linspace(0.0, 1.0, 4)])
    for column, got in zip(columns, cells):
        assert texts(got) == [repr(int(v)) for v in column.tolist()]
    assert texts(cells[-1]) == ["0.0", "0.3333333333333333", "0.6666666666666666", "1.0"]


def test_a_column_repeats_in_one_block_and_varies_in_the_next():
    # the blocks of three rows: repeated, varying, varying only in the
    # sign of a zero, repeated with the other value
    tail = np.array([1.5, 1.5, 1.5, 1.5, 2.5, 1.5, 0.0, -0.0, 0.0, 2.5, 2.5, 2.5])
    flags = np.array([1, 1, 1, 0, 1, 1, 0, 0, 0, 1, 1, 1])
    table = {"x": np.arange(12.0), "tail": tail, "flag": flags,
             "constant": np.full(12, -0.0)}
    out = io.BytesIO()
    # four columns: twelve cells a block are three rows
    with mock.patch.object(reprs, "_PASS", 12):
        reprs._write_csv(out, {}, table)
    lines = ["x,tail,flag,constant\n"]
    lines += [f"{x!r},{t!r},{f!r},-0.0\n"
              for x, t, f in zip(table["x"].tolist(), tail.tolist(), flags.tolist())]
    assert out.getvalue().decode().splitlines(True) == lines
