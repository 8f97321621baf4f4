import io
import re
from unittest import mock

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given

from chei2d import TwoDRanking, _bulk, rank_order, read_rank_table, tableio
from chei2d._bulk import load_rows
from conftest import bernoulli_graph
from oracle import first_undecodable_line, serialize_rank_table


def test_round_trip_is_bit_exact():
    g = bernoulli_graph(1, n=25)
    ranking = TwoDRanking.compute(g)
    text = serialize_rank_table(ranking, {"alpha": 0.85, "tol": 1e-10})
    back, params = read_rank_table(io.StringIO(text))
    assert np.array_equal(back.pagerank.probabilities, ranking.pagerank.probabilities)
    assert np.array_equal(back.cheirank.probabilities, ranking.cheirank.probabilities)
    assert np.array_equal(back.K, ranking.K)
    assert np.array_equal(back.Kstar, ranking.Kstar)
    assert params["alpha"] == 0.85
    assert params["tol"] == 1e-10
    assert params["pagerank_iterations"] == ranking.pagerank.iterations_used
    assert params["cheirank_residual"] == ranking.cheirank.residual
    # the table holds no residual history
    assert back.pagerank.residual_history == back.cheirank.residual_history == ()
    assert len(ranking.pagerank.residual_history) == ranking.pagerank.iterations_used


def test_serialization_is_deterministic():
    g = bernoulli_graph(2, n=10)
    ranking = TwoDRanking.compute(g)
    assert serialize_rank_table(ranking, {"alpha": 0.85}) == serialize_rank_table(
        ranking, {"alpha": 0.85}
    )


def test_read_rejects_broken_permutation():
    ids = "rank table node ids must cover 1..N exactly once"
    for text, message in [
        ("1 0.5 1 0.5 1\n2 0.5 1 0.5 2\n",
         "rank table K column is not the rank order of its probabilities"),
        ("1 0.5 1 0.5 1\n1 0.5 2 0.5 2\n", ids),  # a repeated id
        ("0 0.5 1 0.5 1\n2 0.5 2 0.5 2\n", ids),  # id 0
        ("1 0.5 1 0.5 1\n2 0.5 2 0.5 2\n4 0.5 3 0.5 3\n", ids),  # id N+1
        ("1 0.5 1 0.5 1\n3 0.5 2 0.5 2\n", ids),  # a gap
        ("1 0.5 1 0.5 1\n9223372036854775808 0.5 2 0.5 2\n",
         "rank table line 2: malformed values"),  # an id above int64
    ]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            read_rank_table(io.StringIO(text))


@pytest.mark.parametrize("key, value, message", [
    ("pagerank_iterations", "1e400", "pagerank_iterations=1e400 is not a non-negative integer"),
    ("pagerank_iterations", "nan", "pagerank_iterations=nan is not a non-negative integer"),
    ("cheirank_iterations", "2.5", "cheirank_iterations=2.5 is not a non-negative integer"),
    ("cheirank_iterations", "-1", "cheirank_iterations=-1 is not a non-negative integer"),
    ("pagerank_residual", "small", "pagerank_residual=small is not a number"),
    ("cheirank_converged", "2", "cheirank_converged=2 is not 0 or 1"),
    ("cheirank_converged", "1.0", "cheirank_converged=1.0 is not 0 or 1"),
    ("N", "7", "N=7, but the table holds 40 rows"),
    ("N", "40.0", "N=40.0, but the table holds 40 rows"),
    ("N", "40", None),
    ("pagerank_residual", "0", None),
])
def test_read_checks_the_header_values_of_rank_vectors(key, value, message):
    lines, _ = _table_lines()
    at = next(i for i, line in enumerate(lines) if line.startswith(f"# {key}="))
    lines[at] = f"# {key}={value}\n"
    bulk, loop = _bulk_and_loop("".join(lines))
    assert bulk == loop
    if message is None:
        assert not isinstance(bulk, str)
    else:
        assert bulk == f"rank table line {at + 1}: {message}"


def test_read_rejects_wrong_column_count():
    with pytest.raises(ValueError):
        read_rank_table(io.StringIO("1 0.5 1\n"))


def test_read_rejects_empty():
    with pytest.raises(ValueError):
        read_rank_table(io.StringIO("# only a comment\n"))


def test_read_accepts_any_row_order():
    g = bernoulli_graph(3, n=8)
    ranking = TwoDRanking.compute(g)
    lines = serialize_rank_table(ranking).splitlines()
    header = [l for l in lines if l.startswith("#")]
    rows = [l for l in lines if not l.startswith("#")]
    shuffled = "\n".join(header + rows[::-1]) + "\n"
    back, _ = read_rank_table(io.StringIO(shuffled))
    assert np.array_equal(back.K, ranking.K)


# -- bulk parse against the line loop ------------------------------------------


def _table_lines():
    """A 40-node table's lines and the index of its first row."""
    ranking = TwoDRanking.compute(bernoulli_graph(4, n=40))
    lines = serialize_rank_table(ranking, {"alpha": 0.85}).splitlines(keepends=True)
    return lines, next(i for i, line in enumerate(lines) if not line.startswith("#"))


def _read_outcome(text):
    try:
        ranking, params = read_rank_table(io.StringIO(text))
    except ValueError as exc:
        return str(exc)
    vectors = (ranking.pagerank.probabilities, ranking.K,
               ranking.cheirank.probabilities, ranking.Kstar)
    return [v.tolist() for v in vectors], params


def _bulk_and_loop(text):
    with mock.patch.object(tableio, "load_rows", lambda *args: None):
        loop = _read_outcome(text)
    return _read_outcome(text), loop


def _load_rows_spy():
    """A load_rows that keeps each parse it returns, and the parses."""
    parsed = []

    def spy(*args):
        parsed.append(load_rows(*args))
        return parsed[-1]

    return spy, parsed


def test_bulk_read_matches_line_loop():
    lines, _ = _table_lines()
    spy, parsed = _load_rows_spy()
    with mock.patch.object(tableio, "load_rows", spy):
        bulk, loop = _bulk_and_loop("".join(lines))
    assert parsed[0].size == 40
    assert bulk == loop


def test_small_blocks_read_the_table_in_bulk_block_by_block():
    lines, _ = _table_lines()
    spy, parsed = _load_rows_spy()
    with mock.patch.object(_bulk, "_READ_BYTES", 256), \
            mock.patch.object(tableio, "load_rows", spy):
        bulk, loop = _bulk_and_loop("".join(lines))
    assert len(parsed) > 1
    assert sum(rows.size for rows in parsed) == 40
    assert bulk == loop


# Bytes per read below the default: a block per line or less.
_SMALL_READS = [1, 3, 8, 32]

_ROW_EDITS = [
    (lambda row: row.replace(" ", "  ", 1), None),
    (lambda row: row.replace(" ", "\t"), None),
    (lambda row: "+" + row, None),
    (lambda row: row + "\n", None),
    (lambda row: row + "# late comment\n", None),
    (lambda row: row.rstrip("\n") + " 7\n", "expected 5 columns"),
    (lambda row: " ".join(row.split()[:4]) + "\n", "expected 5 columns"),
    (lambda row: row.replace(" ", " x", 1), "malformed values"),
    (lambda row: row.replace(" ", ".0 ", 1), "malformed values"),
    (lambda row: row.replace(" ", "e0 ", 1), "malformed values"),
    (lambda row: row[0] + "_" + row[1:], None),  # "3_1": Python's int reads 31
    (lambda row: "99999999999999999999" + row, "malformed values"),
    (lambda row: row.replace(" ", " nan_", 1), "malformed values"),
    (lambda row: row.replace("\n", "\r\n"), None),
    (lambda row: row + "# alpha=0.5\n", None),
]


@pytest.mark.parametrize("edit, message", _ROW_EDITS)
def test_row_edit_deep_in_body_matches_line_loop(edit, message):
    lines, first = _table_lines()
    k = first + 30
    lines[k] = edit(lines[k])
    bulk, loop = _bulk_and_loop("".join(lines))
    assert bulk == loop
    if message is None:
        assert not isinstance(bulk, str)
    else:
        assert bulk == f"rank table line {k + 1}: {message}"


@pytest.mark.parametrize("edit, message", _ROW_EDITS)
@pytest.mark.parametrize("read_bytes", _SMALL_READS)
def test_row_edit_in_small_blocks_matches_line_loop(edit, message, read_bytes):
    with mock.patch.object(_bulk, "_READ_BYTES", read_bytes):
        test_row_edit_deep_in_body_matches_line_loop(edit, message)


# -- a path reads as a text-mode stream does ----------------------------------


def _table_bytes_cases():
    text = serialize_rank_table(TwoDRanking.compute(bernoulli_graph(5, n=12)), {"alpha": 0.85})
    first = text.index("\n1 ") + 1
    data, crlf = text.encode(), text.replace("\n", "\r\n").encode()
    return {
        "crlf": crlf,
        "crlf header": (text[:first].replace("\n", "\r\n") + text[first:]).encode(),
        "lone cr in header": data.replace(b"# N=12\n", b"# N=12\r"),
        "lone cr in body": data.replace(b"\n3 ", b"\r3 "),
        "invalid utf-8 in body": data.replace(b"\n2 ", b"\n2\xff "),
        "invalid utf-8 in crlf body": crlf.replace(b"\n7 ", b"\n7\xff "),
        "invalid utf-8 in lone cr body": data.replace(b"\n", b"\r").replace(b"\r7 ", b"\r7\xff "),
        "invalid utf-8 in header": data.replace(b"# N=12", b"# N=\xe912"),
        "utf-8 comment": data.replace(b"# N=12\n", b"# N=12\n# caf\xc3\xa9\n"),
    }


@pytest.mark.parametrize("name", list(_table_bytes_cases()))
def test_read_path_reads_as_text_mode(tmp_path, name):
    path = tmp_path / "ranks.tsv"
    path.write_bytes(_table_bytes_cases()[name])

    def outcome(read):
        try:
            ranking, params = read()
        except ValueError as exc:
            return type(exc), str(exc)
        return ranking.K.tolist(), ranking.Kstar.tolist(), params

    def text_mode():
        with open(path, encoding="utf-8") as fp:
            return read_rank_table(fp)

    line = first_undecodable_line(path)
    if line is None:
        assert outcome(lambda: read_rank_table(path)) == outcome(text_mode)
    else:  # where the stream fails to decode, the path read names the line
        with pytest.raises(ValueError, match=f"^line {line}: invalid UTF-8"):
            read_rank_table(path)


@pytest.mark.parametrize("name", list(_table_bytes_cases()))
@pytest.mark.parametrize("read_bytes", _SMALL_READS)
def test_read_path_in_small_blocks_reads_as_text_mode(tmp_path, name, read_bytes):
    with mock.patch.object(_bulk, "_READ_BYTES", read_bytes):
        test_read_path_reads_as_text_mode(tmp_path, name)


@pytest.mark.parametrize("read_bytes", [16, 1 << 18])
def test_a_bad_header_value_yields_to_a_later_byte_that_is_not_utf8(tmp_path, read_bytes):
    """Text mode decodes the whole file before its header is read, so the
    bad byte in a row is named, not the bad header value before it."""
    path = tmp_path / "ranks.tsv"
    data = _table_bytes_cases()["invalid utf-8 in body"]
    path.write_bytes(re.sub(rb"pagerank_iterations=\d+", b"pagerank_iterations=x", data))
    line = first_undecodable_line(path)
    assert line > 11  # past the header
    with mock.patch.object(_bulk, "_READ_BYTES", read_bytes):
        with pytest.raises(ValueError, match=f"^line {line}: invalid UTF-8"):
            read_rank_table(path)


def test_read_names_a_byte_order_mark(tmp_path):
    path = tmp_path / "ranks.tsv"
    table = serialize_rank_table(TwoDRanking.compute(bernoulli_graph(1, n=5)))
    path.write_bytes(b"\xef\xbb\xbf" + table.encode())
    message = r"^line 1: starts with a UTF-8 byte-order mark \(U\+FEFF\)"
    with pytest.raises(ValueError, match=message):
        read_rank_table(path)
    with pytest.raises(ValueError, match=message):
        read_rank_table(io.StringIO(path.read_text(encoding="utf-8")))


def test_read_invalid_utf8_message(tmp_path):
    path = tmp_path / "ranks.tsv"
    path.write_bytes(_table_bytes_cases()["invalid utf-8 in header"])
    with pytest.raises(ValueError, match=(
            r"^line 2: invalid UTF-8, byte 0xe9 \(invalid continuation byte\)$")):
        read_rank_table(path)


@pytest.mark.parametrize("edit", [
    lambda k: k[::-1],                     # ranks reversed
    lambda k: np.where(k == 1, 2, k),      # rank 1 missing, rank 2 twice
    lambda k: np.where(k == 1, 0, k),      # rank out of range
    lambda k: np.where(k == 1, k.size + 1, k),
])
def test_read_rejects_k_that_is_not_the_rank_order(edit):
    ranking = TwoDRanking.compute(bernoulli_graph(6, n=15))
    lines = serialize_rank_table(ranking).splitlines(keepends=True)
    rows = [line.split() for line in lines if not line.startswith("#")]
    k = edit(np.array([int(row[2]) for row in rows]))
    text = "".join(f"{r[0]} {r[1]} {kk} {r[3]} {r[4]}\n" for r, kk in zip(rows, k))
    with pytest.raises(ValueError, match="K column is not the rank order"):
        read_rank_table(io.StringIO(text))


def test_read_rejects_a_repeated_rank_whose_probabilities_still_descend():
    # rank 1 is missing; node 2 ranks second as it should, node 1 too
    with pytest.raises(ValueError, match="K column is not the rank order"):
        read_rank_table(io.StringIO("1 0.625 2 0.5 1\n2 0.375 2 0.5 2\n"))


def test_read_ties_must_rank_in_ascending_id():
    text = "1 0.25 2 0.5 1\n2 0.25 1 0.5 2\n3 0.5 3 0.0 3\n"
    with pytest.raises(ValueError, match="K column is not the rank order"):
        read_rank_table(io.StringIO(text))
    good, _ = read_rank_table(io.StringIO("1 0.25 2 0.5 1\n2 0.25 3 0.5 2\n3 0.5 1 0.0 3\n"))
    assert good.pagerank.order.tolist() == [3, 1, 2]
    assert good.cheirank.order.tolist() == [1, 2, 3]


@given(st.lists(st.sampled_from([0.0, 0.125, 0.25, 0.5]), min_size=1, max_size=8), st.data())
def test_rank_check_agrees_with_rank_order(p, data):
    p = np.asarray(p)
    truth = rank_order(p)
    k = np.asarray(data.draw(
        st.sampled_from([truth.tolist()]) | st.permutations(truth.tolist())
        | st.lists(st.integers(0, p.size + 1), min_size=p.size, max_size=p.size)
    ))
    text = "".join(f"{i} {pi!r} {ki} 1.0 {i}\n"
                   for i, (pi, ki) in enumerate(zip(p.tolist(), k), 1))
    try:
        ranking, _ = read_rank_table(io.StringIO(text))
    except ValueError as exc:
        assert not np.array_equal(k, truth)
        assert "K column is not the rank order" in str(exc)
    else:
        assert np.array_equal(k, truth)
        assert np.array_equal(ranking.pagerank.order[ranking.K - 1], np.arange(1, p.size + 1))
