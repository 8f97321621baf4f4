"""The row writer against the first recipe it replaced, byte for byte,
and the readers' single open of a path that cannot be read twice."""

import contextlib
import io
import os
import threading

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given

from chei2d import TwoDRanking, _bulk, read_edge_list, read_rank_table
from chei2d._bulk import write_rows
from chei2d.cli import main
from chei2d.graph import _READ_BYTES
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
