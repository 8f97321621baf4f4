"""References used only by the tests: dense operators for small graphs,
the link-reversed graph, the graph a filter's mask describes, rank
vectors paired from raw weights, the text of an edge list and of a rank
table in memory, and the row text of a data file."""

import io

import numpy as np

from chei2d import (
    DEFAULT_ALPHA,
    DirectedGraph,
    RankVector,
    TwoDRanking,
    write_edge_list,
    write_rank_table,
)

_DENSE_LIMIT = 2000


def _dense_stochastic(g: DirectedGraph) -> np.ndarray:
    n = g.node_count
    if n > _DENSE_LIMIT:
        raise ValueError(f"dense path refuses graphs larger than {_DENSE_LIMIT} nodes")
    S = np.zeros((n, n))
    np.add.at(S, (g.dst - 1, g.src - 1), g.weight)
    out_strength = np.bincount(g.src, weights=g.weight, minlength=n + 1)[1:]
    filled = out_strength > 0
    S[:, filled] /= out_strength[filled]
    S[:, ~filled] = 1.0 / n
    return S


def dense_google_matrix(g: DirectedGraph, alpha: float = DEFAULT_ALPHA) -> np.ndarray:
    """Full damped matrix for small graphs; element (i-1, j-1) is the
    transition weight from node j to node i."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must be in (0, 1]")
    n = g.node_count
    return alpha * _dense_stochastic(g) + (1.0 - alpha) / n


def dense_solve_oracle(g: DirectedGraph, alpha: float = DEFAULT_ALPHA) -> np.ndarray:
    """Exact stationary probabilities by a dense direct solve.

    Solves (I - alpha*S) p = (1-alpha)/N and renormalizes; S carries the
    dangling columns explicitly as uniform.  Instances up to a few
    thousand nodes only.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    n = g.node_count
    S = _dense_stochastic(g)
    p = np.linalg.solve(np.eye(n) - alpha * S, np.full(n, (1.0 - alpha) / n))
    return p / p.sum()


def reversed_graph(g: DirectedGraph) -> DirectedGraph:
    """``g`` with every link direction flipped: an involution that swaps
    the in- and out-degree vectors exactly."""
    return DirectedGraph.from_links(g.node_count, g.dst, g.src, g.weight,
                                    weighted=g.weighted, collapse=False)


def filtered_graph(result) -> DirectedGraph:
    """The graph of a :class:`chei2d.FilterResult`: its source's links,
    each one reversed where the mask holds.  It has the source's node and
    link counts."""
    g, mask = result.source, result.mask
    src, dst = g.src, g.dst
    return DirectedGraph.from_links(
        g.node_count, np.where(mask, dst, src), np.where(mask, src, dst),
        g.weight, weighted=g.weighted, collapse=False,
    )


def ranking_from_probabilities(p, pstar) -> TwoDRanking:
    """Pair two nonnegative weight vectors, each divided by its total."""
    vectors = [np.asarray(v, dtype=np.float64) for v in (p, pstar)]
    if min(v.sum() for v in vectors) <= 0:
        raise ValueError("cannot normalize a zero probability vector")
    return TwoDRanking(*(RankVector.from_probabilities(v / v.sum()) for v in vectors))


def serialize_edge_list(g: DirectedGraph) -> str:
    """:func:`write_edge_list`'s text of ``g`` as a string."""
    buf = io.StringIO()
    write_edge_list(g, buf)
    return buf.getvalue()


def serialize_rank_table(ranking: TwoDRanking, params: dict | None = None) -> str:
    buf = io.StringIO()
    write_rank_table(ranking, buf, params=params)
    return buf.getvalue()


def first_undecodable_line(path) -> int | None:
    """The 1-based line of the first byte of ``path`` that is not UTF-8,
    counted as a text-mode stream counts lines; None when every byte
    decodes."""
    with open(path, encoding="utf-8", errors="surrogateescape") as fp:
        for lineno, line in enumerate(fp, 1):
            if any("\udc80" <= c <= "\udcff" for c in line):
                return lineno
    return None


def reference_rows(header_lines, *columns, sep: str = "\t") -> str:
    """Data-file text by the first recipe: each header line as '# line',
    then every value as ``repr`` of its ``.tolist()`` element joined by
    ``sep``, bool columns as 0/1."""
    text = "".join(f"# {line}\n" for line in header_lines)
    arrays = [np.asarray(c) for c in columns]
    arrays = [a.astype(np.int64) if a.dtype == bool else a for a in arrays]
    if not arrays:
        return text
    row = sep.join(["{!r}"] * len(arrays)) + "\n"
    return text + "".join(map(row.format, *(a.tolist() for a in arrays)))
