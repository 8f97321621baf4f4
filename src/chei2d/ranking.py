"""PageRank and CheiRank by power iteration.

The damped transition operator alpha*S + (1-alpha)/N acts without ever
materializing an N x N matrix: real links live in a sparse matrix and
dangling columns are folded into a per-application scalar.  CheiRank is,
by definition, the PageRank of the link-reversed graph, computed from
the graph's own links with tail and head swapped.

scipy is imported by the two operator builders alone, so it loads at a
process's first :class:`StochasticOperator` build: importing chei2d, and
the commands that build no operator, do without its import time.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .graph import _BLOCK_LINKS, DirectedGraph

__all__ = [
    "DEFAULT_ALPHA",
    "DEFAULT_TOL",
    "DEFAULT_MAX_ITER",
    "RankVector",
    "TwoDRanking",
    "StochasticOperator",
    "normalized_links",
    "tail_strength",
    "rank_order",
    "pagerank",
    "cheirank",
]

DEFAULT_ALPHA = 0.85
DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 1000


def rank_order(probabilities) -> np.ndarray:
    """1-based rank of every node: descending probability, ties broken by
    ascending node id.  Entry ``i-1`` is the rank position of node ``i``."""
    p = np.asarray(probabilities, dtype=np.float64)
    if p.ndim != 1 or p.size == 0:
        raise ValueError("probabilities must be a non-empty vector")
    if not np.all(np.isfinite(p)) or np.any(p < 0):
        raise ValueError("probabilities must be finite and nonnegative")
    by_rank = np.argsort(-p)
    # The sort leaves equal probabilities in any order: put each run of
    # them in ascending id by one more sort, of (run, id) as one key.
    tied = p[by_rank[1:]] == p[by_rank[:-1]]
    if tied.any():
        in_run = np.zeros(p.size, dtype=bool)
        in_run[1:] = tied
        in_run[:-1] |= tied
        at = np.flatnonzero(in_run)
        run = np.cumsum(np.concatenate(([True], ~tied)))[at]
        members = by_rank[at]
        by_rank[at] = members[np.argsort(run * p.size + members)]
    index = np.empty(p.size, dtype=np.int64)
    index[by_rank] = np.arange(1, p.size + 1)
    return index


@dataclass(frozen=True, eq=False)
class RankVector:
    """A probability per node plus the rank permutation derived from it.

    ``order[r-1]`` is the node id holding rank ``r``; ``index[i-1]`` is
    the rank of node ``i``.  Probabilities are non-increasing along
    ``order``.  ``converged`` is False when the iteration stopped at
    ``max_iter`` with the residual still above tolerance.
    ``residual_history`` holds each iteration's L1 residual, the last one
    ``residual``; it is empty for a vector not solved here (one read from
    a rank table).
    """

    probabilities: np.ndarray
    order: np.ndarray
    index: np.ndarray
    iterations_used: int = 0
    residual: float = 0.0
    converged: bool = True
    residual_history: tuple[float, ...] = ()

    def __post_init__(self):
        p = np.ascontiguousarray(self.probabilities, dtype=np.float64)
        order = np.ascontiguousarray(self.order, dtype=np.int64)
        index = np.ascontiguousarray(self.index, dtype=np.int64)
        if not (p.size == order.size == index.size) or p.size == 0:
            raise ValueError("rank vector arrays must be non-empty and equal length")
        for arr in (p, order, index):
            arr.setflags(write=False)
        object.__setattr__(self, "probabilities", p)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "residual_history", tuple(map(float, self.residual_history)))

    @property
    def node_count(self) -> int:
        return int(self.probabilities.size)

    @classmethod
    def from_probabilities(
        cls,
        probabilities,
        *,
        iterations_used: int = 0,
        residual: float = 0.0,
        converged: bool = True,
        residual_history: tuple[float, ...] = (),
    ) -> "RankVector":
        p = np.asarray(probabilities, dtype=np.float64)
        index = rank_order(p)
        order = np.empty(p.size, dtype=np.int64)
        order[index - 1] = np.arange(1, p.size + 1)
        return cls(
            p,
            order,
            index,
            iterations_used=iterations_used,
            residual=residual,
            converged=converged,
            residual_history=residual_history,
        )

    def probability_by_rank(self) -> np.ndarray:
        """Probabilities reordered by rank position (non-increasing)."""
        return self.probabilities[self.order - 1]


@dataclass(frozen=True, eq=False)
class TwoDRanking:
    """Paired PageRank/CheiRank view of one node set."""

    pagerank: RankVector
    cheirank: RankVector

    def __post_init__(self):
        if self.pagerank.node_count != self.cheirank.node_count:
            raise ValueError("paired rank vectors must cover the same node set")

    @property
    def node_count(self) -> int:
        return self.pagerank.node_count

    @property
    def K(self) -> np.ndarray:
        """PageRank index per node."""
        return self.pagerank.index

    @property
    def Kstar(self) -> np.ndarray:
        """CheiRank index per node."""
        return self.cheirank.index

    @classmethod
    def compute(
        cls,
        g: DirectedGraph,
        alpha: float = DEFAULT_ALPHA,
        tol: float = DEFAULT_TOL,
        max_iter: int = DEFAULT_MAX_ITER,
    ) -> "TwoDRanking":
        return cls(
            pagerank(g, alpha=alpha, tol=tol, max_iter=max_iter),
            cheirank(g, alpha=alpha, tol=tol, max_iter=max_iter),
        )


def normalized_links(at_tail, weight, alpha: float) -> np.ndarray:
    """The damped operator's one normalization rule: the value
    ``alpha * w / s`` of each link, where ``s`` is the strength of its
    tail.  A column's strength is the total weight of the links leaving
    it, and a column of zero strength is dangling.  ``at_tail`` holds
    each link's ``s``."""
    values = alpha * weight
    values /= at_tail
    return values


def tail_strength(graph: DirectedGraph) -> np.ndarray:
    """Each column's strength for PageRank's operator of ``graph``.  A
    weighted strength adds its links' weights in link order, one block of
    whole rows at a time."""
    if graph.weighted:
        strength = np.zeros(graph.node_count)
        for links, tails, _ in graph.link_blocks():
            first = tails[0]
            tails -= first
            sums = np.bincount(tails, weights=graph.weight[links])
            strength[first:first + sums.size] = sums
    else:  # integer sums, exact in any order
        strength = graph.out_degree.astype(np.float64)
    return strength


def _has_parallel_links(graph: DirectedGraph) -> bool:
    """Whether two links share their source and destination.  Links are
    sorted by (src, dst), so such links are neighbours in one row."""
    same = graph.heads[1:] == graph.heads[:-1]
    row_starts = graph.indptr[(graph.indptr > 0) & (graph.indptr < graph.link_count)]
    same[row_starts - 1] = False
    return bool(same.any())


def _unweighted_matrix(graph: DirectedGraph, alpha: float, swap):
    """(matrix, dangling columns) of a graph without parallel links, the
    links where ``swap`` holds inverted: any such graph under a bool, an
    unweighted one under a mask.  Sorts nothing.

    Under a bool the matrix is the layout as it stands, on the graph's own
    ``heads`` and ``indptr``: read by column (CSC) it is PageRank's, read
    by row (CSR) CheiRank's.  Each link is valued by
    :func:`normalized_links` at its tail's strength; a unit weight's value
    ``alpha / s`` is computed per node and taken per link.

    Under a mask the kept links give PageRank's structure: the counting
    transpose of the layout restricted to them, whose rows list their
    tails in ascending order.  The swapped links give CheiRank's: the
    layout restricted to them.  Both are canonical CSR with a link count
    per entry, and their sum counts at most two links an entry, a kept
    ``u -> v`` and a swapped ``v -> u``.  Each entry is then valued
    ``alpha / s`` of its tail column times its count; ``x * 2 == x + x``,
    so the values equal the summed links' bit for bit."""
    import scipy.sparse as sp

    n, heads, indptr = graph.node_count, graph.heads, graph.indptr
    shape = (n, n)
    if not np.ndim(swap):
        # a tail's strength: the weight leaving it, or for CheiRank entering it
        if not swap:
            strength = tail_strength(graph)
        elif graph.weighted:
            strength = np.bincount(heads, weights=graph.weight, minlength=n)
        else:
            strength = np.bincount(heads, minlength=n).astype(np.float64)
        dangling = np.flatnonzero(strength == 0.0)
        if graph.weighted:
            at_tail = strength[heads] if swap else graph.at_source(strength)
            data = normalized_links(at_tail, graph.weight, alpha)
        else:
            value = np.divide(alpha, strength, out=strength, where=strength > 0.0)
            data = value[heads] if swap else graph.at_source(value)
        layout = sp.csr_matrix if swap else sp.csc_matrix
        return layout((data, heads, indptr), shape=shape), dangling

    # the swapped links before each row start
    running = np.zeros(graph.link_count + 1, dtype=heads.dtype)
    np.cumsum(swap, out=running[1:])
    swapped_ptr = running[indptr]
    kept_ptr = indptr - swapped_ptr
    # Each part's columns, split a block at a time: no whole-length index.
    # The indices are in range, and "clip" writes to `out` unbuffered.
    swapped_columns = np.empty(int(running[-1]), dtype=heads.dtype)
    kept_columns = np.empty(graph.link_count - swapped_columns.size, dtype=heads.dtype)
    for start in range(0, graph.link_count, _BLOCK_LINKS):
        stop = min(start + _BLOCK_LINKS, graph.link_count)
        part, columns = swap[start:stop], heads[start:stop]
        columns.take(np.flatnonzero(part), mode="clip",
                     out=swapped_columns[running[start]:running[stop]])
        columns.take(np.flatnonzero(~part), mode="clip",
                     out=kept_columns[start - running[start]:stop - running[stop]])
    del running

    # Each array is dropped once used: together they set the build's peak.
    kept = sp.csr_matrix((np.ones(kept_columns.size, dtype=np.int8), kept_columns, kept_ptr),
                         shape=shape).T.tocsr()
    del kept_columns
    swapped = sp.csr_matrix((np.ones(swapped_columns.size, dtype=np.int8), swapped_columns,
                             swapped_ptr), shape=shape)
    # a tail's strength: its kept out-links and its swapped in-links
    strength = np.diff(kept_ptr) + np.bincount(swapped_columns, minlength=n)
    del swapped_columns, kept_ptr, swapped_ptr
    counts = kept + swapped
    del kept, swapped

    strength = strength.astype(np.float64)
    dangling = np.flatnonzero(strength == 0.0)
    value = np.divide(alpha, strength, out=strength, where=strength > 0.0)
    data = value[counts.indices]
    if counts.nnz < graph.link_count:  # entries a kept and a swapped link share
        data *= counts.data
    return sp.csr_matrix((data, counts.indices, counts.indptr), shape=shape), dangling


def _summed_matrix(graph: DirectedGraph, alpha: float, swap):
    """(matrix, dangling columns) of a weighted graph under a mask, or of
    a graph with parallel links, the links where ``swap`` holds inverted:
    every link as (tail, head, weight), valued by :func:`normalized_links`,
    and parallel links summed as the graph the swapped links form sums
    them.  That graph's links are sorted by (tail, head, weight).  Only a
    weighted graph under a mask is sorted to match: under a bool the links
    are already in (tail, head, weight) or (head, tail, weight) order,
    which adds each tail's and each entry's links in the same order, and
    an unweighted graph's sums are exact integers of equal duplicates."""
    import scipy.sparse as sp

    n, weight, dst = graph.node_count, graph.weight, graph.heads
    src = graph.at_source(np.arange(n, dtype=dst.dtype))
    tail = np.where(swap, dst, src)
    head = np.where(swap, src, dst)
    del src
    if graph.weighted and np.ndim(swap):
        order = np.lexsort((weight, head, tail))
        tail, head, weight = tail[order], head[order], weight[order]
        del order
    strength = np.bincount(tail, weights=weight, minlength=n)
    data = normalized_links(strength[tail], weight, alpha)
    dangling = np.flatnonzero(strength == 0.0)
    return sp.csr_matrix((data, (head, tail)), shape=(n, n)), dangling


class StochasticOperator:
    """Sparse action of the damped operator alpha*S + (1-alpha)/N.

    Columns of real links are normalized by :func:`normalized_links`;
    dangling columns stay implicit and contribute their probability mass
    uniformly at application time, keeping memory at O(links + N).

    Rows are heads and columns tails.  ``reverse`` is a bool, which swaps
    every link's tail and head or none, or a boolean array with one entry
    per link (in ``graph``'s link order), which swaps the links where it
    is True.  The result is exactly the operator of the graph with those
    links inverted: ``reverse=True`` (CheiRank) that of the link-reversed
    graph, ``reverse=False`` (PageRank) that of ``graph``.

    - Under a bool, a graph without parallel links, weighted or not, is
      its CSR layout as it stands, with no sort, transpose or copy of it:
      PageRank's matrix is the layout read by column (CSC), CheiRank's
      the layout read by row (CSR).  Both share the graph's ``heads`` and
      ``indptr`` and add only a value per link.
    - Under a mask, an unweighted graph without parallel links is built
      with no sort either: the kept links' counting transpose and the
      swapped links' layout, each restricted to its links, summed.
    - A weighted graph under a mask, and any graph with parallel links,
      take one summing recipe: every link as (tail, head, weight), each
      valued by its tail's strength, and parallel links summed by scipy's
      ``(data, (row, col))`` constructor in the order that the graph the
      swapped links form would sum them (a weighted graph's links are
      sorted by (tail, head, weight) under a mask).

    scipy's CSR and CSC products both add each row's terms in ascending
    column order from zero, so the storage form changes no sum.
    """

    def __init__(self, graph: DirectedGraph, alpha: float = DEFAULT_ALPHA, *,
                 reverse: bool | np.ndarray = False):
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        if np.ndim(reverse) == 0:
            reverse = bool(reverse)
        else:
            reverse = np.asarray(reverse)
            if reverse.dtype != bool or reverse.shape != (graph.link_count,):
                raise ValueError("reverse must be a bool or one bool per link")
        self.graph = graph
        self.alpha = float(alpha)
        if (graph.weighted and np.ndim(reverse)) or _has_parallel_links(graph):
            self.matrix, self.dangling = _summed_matrix(graph, self.alpha, reverse)
        else:
            self.matrix, self.dangling = _unweighted_matrix(graph, self.alpha, reverse)

    @property
    def node_count(self) -> int:
        return self.graph.node_count

    def apply(self, v) -> np.ndarray:
        """One application of the operator to a probability vector.

        Output = alpha*S_link v + [alpha * (mass on dangling nodes)
        + (1 - alpha)] / N, which preserves the total probability."""
        v = np.asarray(v, dtype=np.float64)
        n = self.node_count
        if v.shape != (n,):
            raise ValueError("vector length does not match node count")
        out = self.matrix.dot(v)
        dangling_mass = float(v[self.dangling].sum())
        out += (self.alpha * dangling_mass + (1.0 - self.alpha)) / n
        return out


def pagerank(
    g: DirectedGraph,
    alpha: float = DEFAULT_ALPHA,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> RankVector:
    """Stationary probability of the damped operator by power iteration.

    Starts from the uniform vector and iterates until the L1 change per
    step drops below ``tol`` or ``max_iter`` is reached; in the latter
    case the result carries ``converged=False`` rather than raising.
    """
    return _power_iteration(g, alpha, tol, max_iter, reverse=False)


def cheirank(
    g: DirectedGraph,
    alpha: float = DEFAULT_ALPHA,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> RankVector:
    """PageRank of the link-reversed graph, equal bit for bit to the
    ``pagerank`` of that graph, from ``g``'s own links."""
    return _power_iteration(g, alpha, tol, max_iter, reverse=True)


def _power_iteration(g: DirectedGraph, alpha, tol, max_iter,
                     reverse: bool | np.ndarray) -> RankVector:
    """The stationary vector of ``StochasticOperator(g, alpha, reverse=reverse)``.

    A solve in a bool direction is looked up in the graph's memo of held
    solves (``DirectedGraph._solves``) and returned as it is while it is
    held anywhere; a rank vector is immutable, so callers may share it.
    A mask is solved every time."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    if not tol > 0.0:  # NaN included
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    alpha, tol, max_iter = float(alpha), float(tol), operator.index(max_iter)
    key = None
    if not np.ndim(reverse):
        key = (bool(reverse), alpha, tol, max_iter)
        held = g._solves.get(key)
        if held is not None:
            return held
    op = StochasticOperator(g, alpha=alpha, reverse=reverse)
    n = g.node_count
    v = np.full(n, 1.0 / n)
    history = []
    for iterations in range(1, max_iter + 1):
        nxt = op.apply(v)
        # the L1 change, in the buffer of the v it replaces
        np.subtract(nxt, v, out=v)
        residual = float(np.abs(v, out=v).sum())
        history.append(residual)
        v = nxt
        if residual < tol:
            break
    del op, nxt  # the operator's values, 8 B/link, before the rank order
    result = RankVector.from_probabilities(
        v,
        iterations_used=iterations,
        residual=residual,
        converged=residual < tol,
        residual_history=tuple(history),
    )
    if key is not None:
        g._solves[key] = result
    return result
