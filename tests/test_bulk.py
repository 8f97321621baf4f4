"""The row writer against the first recipe it replaced, byte for byte."""

import io

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given

from chei2d import _bulk
from chei2d._bulk import write_rows
from oracle import reference_rows

_INT64 = np.iinfo(np.int64)
_SPECIAL_FLOATS = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e16, 1e-5,
                   0.0001, 1e22, 1.7976931348623157e308, 0.1, -2.5]


def _written(header_lines, *columns, sep):
    buf = io.StringIO()
    write_rows(buf, header_lines, *columns, sep=sep)
    return buf.getvalue()


def _column(kind, values):
    if kind == "bool":
        return np.asarray([v % 2 == 1 for v in values], dtype=bool)
    if kind == "float64":
        return np.asarray(values, dtype=np.float64)
    info = np.iinfo(kind)
    return np.asarray([min(max(v, info.min), info.max) for v in values], dtype=kind)


_KINDS = ["int64", "int32", "uint8", "bool", "float64"]


@st.composite
def row_sets(draw):
    n = draw(st.integers(0, 30))
    kinds = draw(st.lists(st.sampled_from(_KINDS), max_size=5))
    columns = []
    for kind in kinds:
        if kind == "float64":
            element = st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                                st.sampled_from(_SPECIAL_FLOATS))
        else:
            element = st.one_of(st.integers(_INT64.min, _INT64.max),
                                st.integers(-12, 12),
                                st.sampled_from([_INT64.min, _INT64.max, 0]))
        columns.append(_column(kind, draw(st.lists(element, min_size=n, max_size=n))))
    header = draw(st.lists(st.text(st.characters(min_codepoint=32, max_codepoint=126)),
                           max_size=3))
    return header, columns, draw(st.sampled_from([" ", "\t", ","]))


@given(row_sets())
def test_write_rows_matches_reference(rows):
    header, columns, sep = rows
    assert _written(header, *columns, sep=sep) == reference_rows(header, *columns, sep=sep)


@pytest.mark.parametrize("sep", [" ", "\t", ","])
@pytest.mark.parametrize("columns", [
    [np.array([_INT64.min, _INT64.max, 0, -1, 1, -10, 10, 99, -100])],
    [np.array([-5, 3], dtype=np.int32), np.array([0, 255], dtype=np.uint8),
     np.array([True, False])],
    [np.array(_SPECIAL_FLOATS)],
    [np.array(_SPECIAL_FLOATS), np.arange(len(_SPECIAL_FLOATS))[::-1]],
    [np.zeros(0, dtype=np.int64), np.zeros(0)],
    [],
])
def test_write_rows_edge_values(columns, sep):
    for header in ([], ["only a header", "columns: a b"]):
        assert _written(header, *columns, sep=sep) == reference_rows(header, *columns, sep=sep)


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_write_rows_around_the_chunk_size(offset):
    n = _bulk._CHUNK_ROWS + offset
    rng = np.random.default_rng(n)
    columns = [rng.integers(-10**12, 10**12, n), rng.random(n) * 10.0 ** rng.integers(-8, 8, n),
               np.arange(1, n + 1), rng.random(n) < 0.5]
    assert _written(["h"], *columns, sep=" ") == reference_rows(["h"], *columns, sep=" ")
