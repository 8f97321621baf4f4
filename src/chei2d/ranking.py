"""PageRank and CheiRank by power iteration.

The damped transition operator alpha*S + (1-alpha)/N acts without ever
materializing an N x N matrix: real links live in a sparse matrix and
dangling columns are folded into a per-application scalar.  CheiRank is,
by definition, the PageRank of the link-reversed graph, computed from
the graph's own links with tail and head swapped.  A dense direct solver
is provided as a test oracle for small instances.
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
    "rank_order",
    "pagerank",
    "cheirank",
    "dense_google_matrix",
    "dense_solve_oracle",
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


def normalized_links(node_count: int, tail, weight, alpha: float):
    """The damped operator's one normalization rule: (the value
    ``alpha * w / strength[tail - 1]`` of each link, the 0-based dangling
    columns), where a column's strength is the total weight of the links
    leaving it and a column of zero strength is dangling."""
    strength = np.bincount(tail, weights=weight, minlength=node_count + 1)[1:]
    return alpha * weight / strength[tail - 1], np.flatnonzero(strength == 0.0)


def _oriented_links(graph: DirectedGraph, reverse: bool | np.ndarray):
    """``graph``'s links as (tail, head, weight), each link's tail and head
    swapped where ``reverse`` holds.

    The order keeps the operator equal bit for bit to that of the graph
    the swapped links form, whose links are sorted by (tail, head,
    weight).  A scalar ``reverse`` returns the graph's own arrays: within
    every column they list the terms of the strength and duplicate sums
    in that sorted order already.  Under a per-link mask an unweighted
    graph keeps its own order too, as its strengths are exact integer
    sums and its duplicates are equal; a weighted graph is sorted."""
    if np.ndim(reverse) == 0:
        if reverse:
            return graph.dst, graph.src, graph.weight
        return graph.src, graph.dst, graph.weight
    swap = np.asarray(reverse)
    if swap.dtype != bool or swap.shape != (graph.link_count,):
        raise ValueError("reverse must be a bool or one bool per link")
    tail = np.where(swap, graph.dst, graph.src)
    head = np.where(swap, graph.src, graph.dst)
    if not graph.weighted:
        return tail, head, graph.weight
    order = np.lexsort((graph.weight, head, tail))
    return tail[order], head[order], graph.weight[order]


class StochasticOperator:
    """Sparse action of the damped operator alpha*S + (1-alpha)/N.

    Columns of real links are normalized by :func:`normalized_links`;
    dangling columns stay implicit and contribute their probability mass
    uniformly at application time, keeping memory at O(links + N).

    ``reverse`` swaps links' tail and head: a bool applies to every link,
    so ``reverse=True`` is exactly the operator of ``graph.reverse()``,
    and a boolean array with one entry per link (in ``graph``'s link
    order) swaps the links where it is True.  The result is exactly the
    operator of the graph with those links inverted, built from
    ``graph``'s own arrays.
    """

    def __init__(self, graph: DirectedGraph, alpha: float = DEFAULT_ALPHA, *,
                 reverse: bool | np.ndarray = False):
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        self.graph = graph
        self.alpha = float(alpha)
        n = graph.node_count
        tail, head, weight = _oriented_links(graph, reverse)
        data, self.dangling = normalized_links(n, tail, weight, self.alpha)
        self.matrix = sp.csr_matrix((data, (head - 1, tail - 1)), shape=(n, n))

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


_DENSE_LIMIT = 2000


def _dense_stochastic(g: DirectedGraph) -> np.ndarray:
    n = g.node_count
    if n > _DENSE_LIMIT:
        raise ValueError(f"dense path refuses graphs larger than {_DENSE_LIMIT} nodes")
    S = np.zeros((n, n))
    np.add.at(S, (g.dst - 1, g.src - 1), g.weight)
    filled = g.out_strength > 0
    S[:, filled] /= g.out_strength[filled]
    S[:, ~filled] = 1.0 / n
    return S


def dense_google_matrix(g: DirectedGraph, alpha: float = DEFAULT_ALPHA) -> np.ndarray:
    """Full damped matrix for small graphs; element (i-1, j-1) is the
    transition weight from node j to node i.  Test and rendering oracle."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must be in (0, 1]")
    n = g.node_count
    return alpha * _dense_stochastic(g) + (1.0 - alpha) / n


def dense_solve_oracle(g: DirectedGraph, alpha: float = DEFAULT_ALPHA) -> np.ndarray:
    """Exact stationary probabilities by a dense direct solve.

    Solves (I - alpha*S) p = (1-alpha)/N and renormalizes; S carries the
    dangling columns explicitly as uniform.  Only intended for tests on
    instances up to a few thousand nodes.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    n = g.node_count
    S = _dense_stochastic(g)
    p = np.linalg.solve(np.eye(n) - alpha * S, np.full(n, (1.0 - alpha) / n))
    return p / p.sum()
