"""Rank-table text format.

One node per line, "node_id P K Pstar Kstar", preceded by '#' metadata
lines carrying the computation parameters (alpha, tolerance, iteration
counts, residuals).  Floats are written with full round-trip precision
so a table re-read reproduces the vectors bit for bit.
"""

from __future__ import annotations

import io
from array import array
from typing import IO

import numpy as np

from ._bulk import (
    decode_file,
    decode_text,
    encode_text,
    leading_block_end,
    load_rows,
    write_rows,
)
from .ranking import RankVector, TwoDRanking

__all__ = ["write_rank_table", "read_rank_table"]

_MAGIC = "chei2d-rank-table"
# One row of the bulk table parse: node_id P K Pstar Kstar.
_ROW = np.dtype([("node", np.int64), ("p", np.float64), ("k", np.int64),
                 ("pstar", np.float64), ("kstar", np.int64)])


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _vector_params(name: str, v: RankVector) -> list[tuple[str, object]]:
    return [
        (f"{name}_iterations", v.iterations_used),
        (f"{name}_residual", float(v.residual)),
        (f"{name}_converged", v.converged),
    ]


def write_rank_table(ranking: TwoDRanking, destination, params: dict | None = None) -> None:
    """Write the paired table to a path or text stream.

    ``params`` entries (e.g. alpha, tol, filter settings) are emitted as
    '# key=value' header lines in sorted key order for byte stability.
    """
    if hasattr(destination, "write"):
        _write(ranking, destination, params)
    else:
        with open(destination, "w", encoding="utf-8") as fp:
            _write(ranking, fp, params)


def _write(ranking: TwoDRanking, fp: IO[str], params: dict | None) -> None:
    header = [_MAGIC, f"N={ranking.node_count}"]
    header += [f"{key}={_format_value(value)}" for key, value in sorted((params or {}).items())]
    for name, vec in (("pagerank", ranking.pagerank), ("cheirank", ranking.cheirank)):
        header += [f"{key}={_format_value(value)}" for key, value in _vector_params(name, vec)]
    header.append("columns: node_id P K Pstar Kstar")
    write_rows(
        fp, header,
        np.arange(1, ranking.node_count + 1), ranking.pagerank.probabilities, ranking.K,
        ranking.cheirank.probabilities, ranking.Kstar,
        sep=" ",
    )


def _coerce(text: str):
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def read_rank_table(source) -> tuple[TwoDRanking, dict]:
    """Read a table back into a :class:`TwoDRanking` plus its header
    parameters, from a path (read as bytes) or a text stream.  Raises
    ValueError on malformed rows, on probabilities that are negative or
    not finite, and when K or K* is not the rank order of its probability
    column (descending, ties by node id)."""
    if hasattr(source, "read"):
        return _read(encode_text(source.read()), decode_text)
    with open(source, "rb") as fp:
        return _read(fp.read(), decode_file)


def _read(data: bytes, decode) -> tuple[TwoDRanking, dict]:
    """``decode`` turns bytes into the text the line loop reads; it runs
    on the leading block alone when the body is read in bulk."""
    start = leading_block_end(data, lambda line: not line or line.startswith(b"#"))
    rows = load_rows(data, start, b".eE+-", _ROW)
    if rows is None:
        params, columns = _parse_lines(io.StringIO(decode(data)))
    else:
        params, _ = _parse_lines(io.StringIO(decode(data[:start])))
        columns = [rows[name] for name in _ROW.names]
    node_id, p, k, ps, ks = columns
    if not node_id.size:
        raise ValueError("rank table holds no data rows")
    if not np.array_equal(np.sort(node_id), np.arange(1, node_id.size + 1)):
        raise ValueError("rank table node ids must cover 1..N exactly once")
    by_node = np.argsort(node_id)
    p, k, ps, ks = p[by_node], k[by_node], ps[by_node], ks[by_node]

    def build(name: str, prob: np.ndarray, index: np.ndarray, column: str) -> RankVector:
        return RankVector(
            prob, _rank_permutation(prob, index, column), index,
            iterations_used=int(params.get(f"{name}_iterations", 0)),
            residual=float(params.get(f"{name}_residual", 0.0)),
            converged=bool(params.get(f"{name}_converged", 1)),
        )

    ranking = TwoDRanking(build("pagerank", p, k, "K"), build("cheirank", ps, ks, "Kstar"))
    return ranking, params


def _rank_permutation(prob: np.ndarray, index: np.ndarray, column: str) -> np.ndarray:
    """The node ids in rank order, after an O(N) check that ``index`` is
    the rank order of ``prob`` (see :func:`rank_order`): every rank 1..N
    once, probabilities non-increasing along the ranks, equal ones in
    ascending id."""
    if not np.all(np.isfinite(prob)) or np.any(prob < 0):
        raise ValueError("probabilities must be finite and nonnegative")
    n = prob.size
    if np.all((index >= 1) & (index <= n)):
        order = np.zeros(n, dtype=np.int64)
        order[index - 1] = np.arange(1, n + 1)
        ranked = prob[order - 1]
        if (np.all(order) and not np.any(ranked[1:] > ranked[:-1])
                and not np.any((ranked[1:] == ranked[:-1]) & (order[1:] < order[:-1]))):
            return order
    raise ValueError(f"rank table {column} column is not the rank order of its probabilities")


def _parse_lines(lines) -> tuple[dict, list[np.ndarray]]:
    """The line loop: header parameters and the five columns in file order."""
    params: dict = {}
    columns = [array(code) for code in "qdqdq"]
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if "=" in body:
                key, _, value = body.partition("=")
                params[key.strip()] = _coerce(value.strip())
            continue
        tokens = line.split()
        if len(tokens) != 5:
            raise ValueError(f"rank table line {lineno}: expected 5 columns")
        try:
            for column, cast, token in zip(columns, (int, float, int, float, int), tokens):
                column.append(cast(token))
        except (ValueError, OverflowError):
            raise ValueError(f"rank table line {lineno}: malformed values") from None
    return params, [np.frombuffer(column, dtype=column.typecode) for column in columns]
