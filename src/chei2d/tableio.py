"""Rank-table text format.

One node per line, "node_id P K Pstar Kstar", preceded by '#' metadata
lines carrying the computation parameters (alpha, tolerance, iteration
counts, residuals).  Floats are written with full round-trip precision
so a table re-read reproduces the vectors bit for bit.
"""

from __future__ import annotations

import io
import struct
from typing import IO

import numpy as np

from ._bulk import (
    decode_file,
    decode_text,
    encode_text,
    load_rows,
    read_blocks,
    write_rows,
)
from .ranking import RankVector, TwoDRanking

__all__ = ["write_rank_table", "read_rank_table"]

_MAGIC = "chei2d-rank-table"
# One row of a table, as both parses give it: node_id P K Pstar Kstar.
_ROW = np.dtype([("node", np.int64), ("p", np.float64), ("k", np.int64),
                 ("pstar", np.float64), ("kstar", np.int64)])
_RECORD = struct.Struct("=qdqdq")  # the bytes of one _ROW record
# The header values that become RankVector fields, by key suffix: a check
# of the value and what it must be.
_HEADER_VALUES = {
    "_iterations": (lambda v: type(v) is int and v >= 0, "a non-negative integer"),
    "_residual": (lambda v: type(v) in (int, float), "a number"),
    "_converged": (lambda v: type(v) is int and v in (0, 1), "0 or 1"),
}


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
        return _read(io.BytesIO(encode_text(source.read())), decode_text)
    with open(source, "rb") as fp:
        return _read(fp, decode_file)


def _read(fp, decode) -> tuple[TwoDRanking, dict]:
    """The table in the binary stream ``fp``, read by :func:`read_blocks` with ``decode``."""
    header = {}
    rows = np.concatenate(list(read_blocks(
        fp, lambda line: not line or line.startswith(b"#"),
        lambda block: load_rows(block, 0, _ROW),
        lambda text, first_line: _parse_lines(text, first_line, header), decode)))
    n, node = rows.size, rows["node"]
    if not n:
        raise ValueError("rank table holds no data rows")
    line, declared = header.get("N", (None, n))
    if type(declared) is not int or declared != n:
        raise ValueError(f"rank table line {line}: N={declared}, but the table holds {n} rows")
    params = {key: value for key, (_, value) in header.items()}
    by_node = np.full(n, -1)  # each node's row: the ids' inverse permutation
    if np.all((node >= 1) & (node <= n)):
        by_node[node - 1] = np.arange(n)
    if np.any(by_node < 0):
        raise ValueError("rank table node ids must cover 1..N exactly once")
    p, k, ps, ks = (rows[name][by_node] for name in ("p", "k", "pstar", "kstar"))
    del rows, node, by_node

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


def _parse_lines(text: str, first_line: int, header: dict) -> np.ndarray:
    """The line loop: the rows of the lines of ``text`` numbered from
    ``first_line``, in file order.  Their header parameters go into
    ``header``, each as ``(line, value)``."""
    rows = bytearray()
    for lineno, raw in enumerate(text.split("\n"), first_line):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if "=" in body:
                key, _, text = (part.strip() for part in body.partition("="))
                value = _coerce(text)
                for suffix, (valid, wanted) in _HEADER_VALUES.items():
                    if key.endswith(suffix) and not valid(value):
                        raise ValueError(f"rank table line {lineno}: {key}={text} is not {wanted}")
                header[key] = (lineno, value)
            continue
        tokens = line.split()
        if len(tokens) != 5:
            raise ValueError(f"rank table line {lineno}: expected 5 columns")
        try:
            node, p, k, pstar, kstar = tokens
            rows += _RECORD.pack(int(node), float(p), int(k), float(pstar), int(kstar))
        except (ValueError, struct.error):
            raise ValueError(f"rank table line {lineno}: malformed values") from None
    return np.frombuffer(rows, dtype=_ROW)
