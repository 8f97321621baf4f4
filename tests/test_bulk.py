"""The row writer against the first recipe it replaced, byte for byte,
its float formatter against ``repr``, and the readers' single open of a
path that cannot be read twice."""

import contextlib
import io
import os
import sys
import threading
from unittest import mock

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given

from chei2d import TwoDRanking, _bulk, read_edge_list, read_rank_table, synth_scale_free
from chei2d._bulk import _CHUNK_ROWS, _READ_BYTES, _float_bytes, write_rows
from chei2d.cli import main
from conftest import bernoulli_graph
from oracle import reference_rows, serialize_rank_table

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


def _float_texts(values):
    """Each value's text as the writer formats it, one chunk of rows at a
    time, and the rows of each chunk that took ``repr`` itself."""
    texts, fallbacks = [], []
    for start in range(0, values.size, _CHUNK_ROWS):
        matrix, rows = _float_bytes(values[start:start + _CHUNK_ROWS])
        texts += [bytes(row[row != 0]).decode("ascii") for row in matrix]
        fallbacks.append(rows + start)
    return texts, np.concatenate(fallbacks)


def _neighbours(centers, steps):
    """``centers`` and the ``steps`` doubles on each side of each."""
    centers = np.asarray(centers, dtype=np.float64)
    out = [centers]
    for toward in (np.inf, -np.inf):
        value = centers
        for _ in range(steps):
            value = np.nextafter(value, toward)
            out.append(value)
    return np.concatenate(out)


def _assert_reprs(values):
    texts, _ = _float_texts(values)
    expected = list(map(repr, values.tolist()))
    wrong = [(v.hex(), t, e) for v, t, e in zip(values.tolist(), texts, expected) if t != e]
    assert not wrong, wrong[:10]


def test_float_text_of_random_bit_patterns_is_repr():
    values = np.random.default_rng(17).integers(0, 2 ** 64, 150_000, dtype=np.uint64).view(np.float64)
    assert np.any(values < 0) and np.any(np.isnan(values)) and np.any(np.abs(values) < 2.2e-308)
    specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324,
                         2.2250738585072014e-308, 1.7976931348623157e308])
    _assert_reprs(np.concatenate([values, specials]))


def test_float_text_around_short_decimals_is_repr():
    rng = np.random.default_rng(5)
    decimals = [float(f"{rng.integers(1, 10 ** d)}e{rng.integers(-320, 300)}")
                for d in rng.integers(1, 16, 6000)]
    decimals += [float(f"{m}e{k}") for m in (1, 15, 25, 5, 9999, 123456789) for k in range(-25, 25)]
    values = _neighbours(decimals, 3)
    _assert_reprs(np.concatenate([values, -values]))


def test_float_text_around_powers_of_ten_and_two_is_repr():
    tens = [float(f"1e{k}") for k in range(-323, 309)]
    twos = np.ldexp(1.0, np.arange(-1074, 1024))
    _assert_reprs(_neighbours(np.concatenate([tens, twos]), 20))


@pytest.mark.parametrize("size", [1, _CHUNK_ROWS - 1, _CHUNK_ROWS + 1])
def test_float_text_of_a_chunk_and_its_edges_is_repr(size):
    rng = np.random.default_rng(size)
    values = rng.random(size) * 10.0 ** rng.integers(-12, 18, size) * rng.choice([-1, 1], size)
    _assert_reprs(values)
    assert _written([], values, sep=" ") == reference_rows([], values, sep=" ")


def test_float_text_of_strided_columns_is_repr():
    # a grid's columns, as the density and matrix files write them
    grid = np.random.default_rng(9).random((300, 300)) * 1e-3
    grid[grid < 5e-4] = 0.0
    assert _written([], *grid.T, sep=",") == reference_rows([], *grid.T, sep=",")


def test_float_text_takes_repr_only_where_needed():
    values = np.array([1.5, 0.0, -0.0, np.nan, np.inf, 0.5, 2.0 ** -1074, 1e-250, 1e250, 0.1])
    texts, fallbacks = _float_texts(values)
    assert texts == list(map(repr, values.tolist()))
    assert fallbacks.tolist() == [1, 2, 3, 4, 5, 6, 7, 8]


def test_float_text_goes_through_repr_where_repr_is_not_short_and_for_few_values():
    values = np.random.default_rng(2).random(_bulk._FEW_FLOATS) * 1e-5
    expected = reference_rows([], values, sep=" ")
    with mock.patch.object(_bulk, "_float_bytes", wraps=_float_bytes) as formatter:
        assert _written([], values, sep=" ") == expected
        assert formatter.call_count == 1
        assert _written([], values[1:], sep=" ") == reference_rows([], values[1:], sep=" ")
        with mock.patch.object(sys, "float_repr_style", "legacy"):
            assert _written([], values, sep=" ") == expected
        assert formatter.call_count == 1


def test_benchmark_size_rank_columns_take_no_fallback():
    """A fallback keeps the bytes but loses the speed, so this checks that
    P and P* of a ranking at the benchmark's size never take it."""
    ranking = TwoDRanking.compute(synth_scale_free(100_000, 2.1, 2.7, 5, links=1_000_000))
    for column in (ranking.pagerank.probabilities, ranking.cheirank.probabilities):
        texts, fallbacks = _float_texts(column)
        assert fallbacks.size == 0
        assert texts == list(map(repr, column.tolist()))


@pytest.mark.parametrize("text", ["", "\n", "a", "a\n", "\n\n", "a\nb", "ab\r\ncd\re\n",
                                  "xy\n" * 9 + "tail", "x\n" * 9])
def test_split_lines_gives_the_lines_a_text_stream_gives(text):
    with mock.patch.object(_bulk, "_READ_BYTES", 3):  # several slices of lines
        lines = list(_bulk.split_lines(text))
    assert lines == [line.removesuffix("\n") for line in io.StringIO(text)]


@pytest.mark.parametrize("sep", ["", "  ", "é"])
def test_write_rows_rejects_a_bad_sep_before_writing(sep):
    buf = io.StringIO()
    with pytest.raises(ValueError):
        write_rows(buf, ["header"], np.arange(3), sep=sep)
    assert buf.getvalue() == ""


@pytest.mark.parametrize("columns", [
    [np.arange(_bulk._CHUNK_ROWS), np.arange(_bulk._CHUNK_ROWS + 1)],
    [np.arange(3), np.arange(2)],
    [np.zeros(0), np.arange(1)],
    [np.arange(6).reshape(2, 3)],
    [np.int64(4)],
])
def test_write_rows_rejects_unequal_columns_before_writing(columns):
    buf = io.StringIO()
    with pytest.raises(ValueError, match="equal length"):
        write_rows(buf, ["header"], *columns)
    assert buf.getvalue() == ""


_EDGES = b"# nodes 4\n1 2\n2 3\n3 1\n3 4\n"


def _rank_table() -> bytes:
    ranking = TwoDRanking.compute(bernoulli_graph(1, n=25))
    return serialize_rank_table(ranking, {"alpha": 0.85}).encode()


def _read_fifo(path, data: bytes, read):
    """``read(path)`` of a new FIFO at ``path`` that a thread feeds
    ``data``; it fails where the reader opened the FIFO twice."""
    os.mkfifo(path)
    done = threading.Event()
    released = []

    def writer():
        with open(path, "wb") as fp:  # opens once the reader has
            fp.write(data)
        # A reader that opened the FIFO again would wait for a writer
        # forever: release it with an empty one, and fail.
        if not done.wait(5.0):
            with contextlib.suppress(OSError):
                os.close(os.open(path, os.O_WRONLY | os.O_NONBLOCK))
                released.append(path)

    thread = threading.Thread(target=writer)
    thread.start()
    try:
        result = read(path)
    finally:
        done.set()
        thread.join()
    assert not released, "the reader opened the FIFO a second time"
    return result


def test_readers_read_a_fifo_once(tmp_path):
    table = _rank_table()
    links = _read_fifo(tmp_path / "edges", _EDGES, lambda p: read_edge_list(p).link_count)
    ranks = _read_fifo(tmp_path / "ranks", table, lambda p: read_rank_table(p)[0].K)
    assert links == 4
    assert np.array_equal(ranks, read_rank_table(io.StringIO(table.decode()))[0].K)


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
def test_readers_read_a_drained_pipe_once():
    table = _rank_table()
    results = []
    for data, read in ((_EDGES, lambda p: read_edge_list(p).link_count),
                       (table, lambda p: read_rank_table(p)[0].K.tolist())):
        r, w = os.pipe()
        os.write(w, data)  # both fit the pipe's buffer
        os.close(w)
        try:
            results.append(read(f"/dev/fd/{r}"))
        finally:
            os.close(r)
    assert results[0] == 4
    assert results[1] == read_rank_table(io.StringIO(table.decode()))[0].K.tolist()


def test_rank_of_a_fifo_names_a_malformed_line_past_the_first_block(tmp_path, capsys):
    lines = [f"{i} {i % 997 + 1}\n" for i in range(1, 60_001)]
    bad = 50_000
    lines[bad - 1] = "1 2 x y\n"
    data = "".join(lines).encode()
    assert len("".join(lines[:bad]).encode()) > _READ_BYTES
    out = tmp_path / "out"
    code = _read_fifo(tmp_path / "edges", data, lambda p: main(["rank", str(p), "--out", str(out)]))
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: line {bad}: ") and "Traceback" not in err
