import io
from unittest import mock

import numpy as np
import pytest

from chei2d import TwoDRanking, read_rank_table, tableio
from chei2d._bulk import load_rows
from conftest import bernoulli_graph
from oracle import serialize_rank_table


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


def test_serialization_is_deterministic():
    g = bernoulli_graph(2, n=10)
    ranking = TwoDRanking.compute(g)
    assert serialize_rank_table(ranking, {"alpha": 0.85}) == serialize_rank_table(
        ranking, {"alpha": 0.85}
    )


def test_read_rejects_broken_permutation():
    text = "1 0.5 1 0.5 1\n2 0.5 1 0.5 2\n"
    with pytest.raises(ValueError):
        read_rank_table(io.StringIO(text))


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


def test_bulk_read_matches_line_loop():
    lines, _ = _table_lines()
    parsed = []

    def spy(*args):
        parsed.append(load_rows(*args))
        return parsed[-1]

    with mock.patch.object(tableio, "load_rows", spy):
        bulk, loop = _bulk_and_loop("".join(lines))
    assert parsed[0].size == 40
    assert bulk == loop


@pytest.mark.parametrize("edit, message", [
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
])
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
