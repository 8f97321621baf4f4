"""PageRank and CheiRank by power iteration.

The damped transition operator alpha*S + (1-alpha)/N acts without ever
materializing an N x N matrix: real links live in a sparse matrix and
dangling columns are folded into a per-application scalar.  CheiRank is,
by definition, the PageRank of the link-reversed graph, computed from
the graph's own links with tail and head swapped.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .graph import DirectedGraph

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
    by_rank = np.argsort(-p, kind="stable")
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
    """

    probabilities: np.ndarray
    order: np.ndarray
    index: np.ndarray
    iterations_used: int = 0
    residual: float = 0.0
    converged: bool = True

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

    @classmethod
    def from_probabilities(cls, p, pstar) -> "TwoDRanking":
        """Pair two nonnegative weight vectors, each divided by its total."""
        vectors = [np.asarray(v, dtype=np.float64) for v in (p, pstar)]
        if min(v.sum() for v in vectors) <= 0:
            raise ValueError("cannot normalize a zero probability vector")
        return cls(*(RankVector.from_probabilities(v / v.sum()) for v in vectors))


def normalized_links(strength, at_tail, weight, alpha: float):
    """The damped operator's one normalization rule: (the value
    ``alpha * w / s`` of each link, where ``s`` is the strength of its
    tail, the 0-based dangling columns).  A column's strength is the total
    weight of the links leaving it, and a column of zero strength is
    dangling.  ``at_tail`` holds each link's ``s``."""
    values = alpha * weight
    values /= at_tail
    return values, np.flatnonzero(strength == 0.0)


def tail_strength(graph: DirectedGraph, reverse: bool = False):
    """(each column's strength, the strength of each link's tail in
    ``graph``'s link order) for the operator of ``graph``, or of its
    reversal with ``reverse``.  Every strength adds its links' weights in
    link order, as ``np.bincount`` over the tails would."""
    if not graph.weighted:  # integer sums, exact in any order
        degree = graph.in_degree if reverse else graph.out_degree
        strength = degree.astype(np.float64)
    elif reverse:
        strength = np.bincount(graph.dst, weights=graph.weight,
                               minlength=graph.node_count + 1)[1:]
    else:
        # a CSR product with ones adds each row's values left to right
        strength = _layout_matrix(graph, graph.weight) @ np.ones(graph.node_count)
    if reverse:
        return strength, strength[graph.dst - 1]
    return strength, graph.at_source(strength)


def _layout_matrix(graph: DirectedGraph, data) -> sp.csr_matrix:
    """``data``, one value per link, as a CSR matrix on ``graph``'s layout:
    row ``i - 1`` holds node ``i``'s out-links, in link order."""
    n = graph.node_count
    return sp.csr_matrix((data, graph.dst - 1, graph.indptr), shape=(n, n))


def _swapped_links(graph: DirectedGraph, swap: np.ndarray):
    """``graph``'s links as (tail, head, weight), with 0-based tails and
    heads, each link's tail and head swapped where ``swap`` holds.

    The order keeps the operator equal bit for bit to that of the graph
    the swapped links form, whose links are sorted by (tail, head,
    weight).  An unweighted graph keeps its own link order, as its
    strengths are exact integer sums and its duplicates are equal; a
    weighted graph is sorted."""
    swap = np.asarray(swap)
    if swap.dtype != bool or swap.shape != (graph.link_count,):
        raise ValueError("reverse must be a bool or one bool per link")
    src = graph.src
    tail = np.where(swap, graph.dst, src)
    head = np.where(swap, src, graph.dst)
    tail -= 1
    head -= 1
    if not graph.weighted:
        return tail, head, graph.weight
    order = np.lexsort((graph.weight, head, tail))
    return tail[order], head[order], graph.weight[order]


class StochasticOperator:
    """Sparse action of the damped operator alpha*S + (1-alpha)/N.

    Columns of real links are normalized by :func:`normalized_links`;
    dangling columns stay implicit and contribute their probability mass
    uniformly at application time, keeping memory at O(links + N).

    The matrix is built from the graph's CSR layout, with no sort of the
    links.  Its rows are heads and its columns tails.

    - ``reverse=True`` (CheiRank) is exactly the operator of
      ``graph.reverse()``.  Its heads are the graph's sources, so its
      matrix is the layout as it stands:
      ``csr_matrix((data, dst - 1, indptr))``.
    - ``reverse=False`` (PageRank) has the destinations as heads.  Its
      matrix is scipy's counting transpose of that layout, which lists
      each row's links in link order.
    - A boolean array with one entry per link (in ``graph``'s link order)
      swaps the links where it is True.  The result is exactly the
      operator of the graph with those links inverted.  This path alone
      materializes each link's tail and head.

    Each then sums parallel links with ``sum_duplicates``, in the order
    that the graph the swapped links form would sum them.
    """

    def __init__(self, graph: DirectedGraph, alpha: float = DEFAULT_ALPHA, *,
                 reverse: bool | np.ndarray = False):
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        self.graph = graph
        self.alpha = float(alpha)
        n = graph.node_count
        if np.ndim(reverse) == 0:
            data, self.dangling = normalized_links(
                *tail_strength(graph, bool(reverse)), graph.weight, self.alpha)
            matrix = _layout_matrix(graph, data)
            if not reverse:
                matrix = matrix.T.tocsr()
        else:
            tail, head, weight = _swapped_links(graph, reverse)
            strength = np.bincount(tail, weights=weight, minlength=n)
            data, self.dangling = normalized_links(strength, strength[tail], weight, self.alpha)
            matrix = sp.csr_matrix((data, (head, tail)), shape=(n, n))
        matrix.sum_duplicates()
        self.matrix = matrix

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
    """PageRank of the link-reversed graph, equal bit for bit to
    ``pagerank(g.reverse())``, from ``g``'s own links."""
    return _power_iteration(g, alpha, tol, max_iter, reverse=True)


def _power_iteration(g: DirectedGraph, alpha, tol, max_iter,
                     reverse: bool | np.ndarray) -> RankVector:
    """The stationary vector of ``StochasticOperator(g, alpha, reverse=reverse)``."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    op = StochasticOperator(g, alpha=alpha, reverse=reverse)
    n = g.node_count
    v = np.full(n, 1.0 / n)
    for iterations in range(1, max_iter + 1):
        nxt = op.apply(v)
        residual = float(np.abs(nxt - v).sum())
        v = nxt
        if residual < tol:
            break
    return RankVector.from_probabilities(
        v,
        iterations_used=iterations,
        residual=residual,
        converged=residual < tol,
    )

