"""References used only by the tests: dense operators for small graphs,
the link-reversed graph, the graph a filter's mask describes, rank
vectors paired from raw weights, the text of an edge list and of a rank
table in memory, the row text of a data file, and the whole-array
recipes of the passes over every link (the inversion mask, the fraction
curve, the flow field and the matrix render), which gather one value per
link at once where the library walks the links block by block."""

import io

import numpy as np

from chei2d import (
    DEFAULT_ALPHA,
    DirectedGraph,
    FlowField,
    RankVector,
    TwoDRanking,
    write_edge_list,
    write_rank_table,
)
from chei2d.stats import bin_ranks

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


# -- whole-array recipes of the link passes ----------------------------------


def reference_mask(g: DirectedGraph, values, eta: float, mode: str) -> np.ndarray:
    """The inversion mask from each link's two endpoint values, gathered
    whole: strict inequalities, and eta=inf as the limit."""
    values = np.asarray(values)
    at_src, at_dst = values[g.src - 1], values[g.dst - 1]
    if mode == "probability":
        if np.isinf(eta):
            return at_src > 0.0
        return eta * at_src > at_dst
    if np.isinf(eta):
        return np.ones(at_src.size, dtype=bool)
    return at_src < eta * at_dst


def reference_fraction_curve(g: DirectedGraph, etas, mode: str, ranking: RankVector):
    """The mean of each eta's whole mask."""
    values = ranking.probabilities if mode == "probability" else ranking.index.astype(np.float64)
    return np.array([reference_mask(g, values, float(eta), mode).mean() if g.link_count else 0.0
                     for eta in np.asarray(etas, dtype=np.float64)])


def reference_flow(g: DirectedGraph, r: TwoDRanking, cells: int, scale: str = "log",
                   per_link_average: bool = False) -> FlowField:
    """The flow field by one ``bincount`` over all links at once."""
    n = r.node_count
    cx = bin_ranks(r.K, n, cells, scale)
    cy = bin_ranks(r.Kstar, n, cells, scale)
    shape, size = (cells, cells), cells * cells
    counts = np.bincount(cx * cells + cy, minlength=size).reshape(shape)
    source_cell = (cx * cells + cy)[g.src - 1]
    link_counts = np.bincount(source_cell, minlength=size).reshape(shape)
    sum_x, sum_y = (
        np.bincount(source_cell, weights=c.astype(np.float64)[g.dst - 1],
                    minlength=size).reshape(shape) - link_counts * at_cell
        for c, at_cell in zip((cx, cy), np.indices(shape))
    )
    empty = (counts == 0) | (link_counts == 0)
    denom = (link_counts if per_link_average else counts).astype(np.float64)
    dx = np.divide(sum_x, denom, out=np.zeros(shape), where=~empty)
    dy = np.divide(sum_y, denom, out=np.zeros(shape), where=~empty)
    return FlowField(scale, counts, dx, dy, empty)


def reference_render(g: DirectedGraph, k_index, cells: int, alpha: float = DEFAULT_ALPHA,
                     raw_window: int = 200):
    """(coarse grid, raw window) of the matrix render, every link's value
    and cell gathered at once and summed by one ``bincount``."""
    n = g.node_count
    k = np.asarray(k_index, dtype=np.int64)
    raw_window = min(int(raw_window), n)
    block = (k - 1) * cells // n
    ranks_per_block = np.bincount(np.arange(n) * cells // n, minlength=cells)
    src, dst = g.src - 1, g.dst - 1
    if g.weighted:
        strength = np.bincount(src, weights=g.weight, minlength=n)
    else:
        strength = g.out_degree.astype(np.float64)
    vals = alpha * g.weight
    vals /= strength[src]
    dangling = np.flatnonzero(strength == 0.0)

    grid = ((1.0 - alpha) / n) * np.outer(ranks_per_block, ranks_per_block)
    grid += (alpha / n) * np.outer(ranks_per_block, np.bincount(block[dangling], minlength=cells))
    flat = block[dst] * cells + block[src]
    grid += np.bincount(flat, weights=vals, minlength=cells * cells).reshape(cells, cells)

    raw = np.full((raw_window, raw_window), (1.0 - alpha) / n)
    raw[:, k[dangling[k[dangling] <= raw_window]] - 1] += alpha / n
    in_window = (k[src] <= raw_window) & (k[dst] <= raw_window)
    np.add.at(raw, (k[dst][in_window] - 1, k[src][in_window] - 1), vals[in_window])
    return grid, raw
