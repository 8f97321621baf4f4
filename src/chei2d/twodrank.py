"""Single ordering over the (K, K*) plane and subset-local re-ranking.

The combined order lists nodes by their appearance on the border of a
square grown from the top-left corner of the plane: ascending
max(K, K*), then ascending min(K, K*), remaining ties by node id.  The
convention reduces to plain PageRank order when the two rankings agree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ranking import TwoDRanking

__all__ = ["TwoDRankOrder", "LocalRanks", "two_d_rank", "local_rank"]


@dataclass(frozen=True, eq=False)
class TwoDRankOrder:
    """``order[r-1]`` is the node id at combined rank r; ``index[i-1]``
    the combined rank of node i."""

    order: np.ndarray
    index: np.ndarray


def two_d_rank(r: TwoDRanking) -> TwoDRankOrder:
    """Combined square-border ordering of a paired ranking.

    The nodes on the border max(K, K*) = m are the node at PageRank rank
    m, where its K* is at most m, and the node at CheiRank rank m, where
    its K is below m: at most two, taken in the order of their other
    rank, then of their id.  So the order follows from the two rank
    orders in O(N), with no sort."""
    n = r.node_count
    m = np.arange(1, n + 1)
    a, b = r.pagerank.order, r.cheirank.order  # the nodes at rank m
    a_other, b_other = r.Kstar.take(a - 1), r.K.take(b - 1)
    b_first = (b_other < a_other) | ((b_other == a_other) & (b < a))
    a_kept, b_kept = a_other <= m, b_other < m
    del a_other, b_other
    pair, kept = np.stack([a, b], axis=1), np.stack([a_kept, b_kept], axis=1)
    # where b leads, it goes first (in place: no whole-length temporaries)
    np.copyto(pair[:, 0], b, where=b_first)
    np.copyto(pair[:, 1], a, where=b_first)
    np.copyto(kept[:, 0], b_kept, where=b_first)
    np.copyto(kept[:, 1], a_kept, where=b_first)
    order = pair[kept]  # by m, then within m
    del pair, kept
    index = np.empty(n, dtype=np.int64)
    index[order - 1] = m
    return TwoDRankOrder(order, index)


@dataclass(frozen=True, eq=False)
class LocalRanks:
    """Subset members (ascending id) with their local rank positions."""

    node_ids: np.ndarray
    k_local: np.ndarray
    kstar_local: np.ndarray


def local_rank(r: TwoDRanking, subset) -> LocalRanks:
    """Ranks within a subset, preserving the global order.

    ``k_local`` of a member is its 1-based position among subset members
    sorted by global K; likewise ``kstar_local``.  Both are bijections on
    1..|subset|.
    """
    ids = np.unique(np.asarray(list(subset), dtype=np.int64))
    if ids.size == 0:
        raise ValueError("subset must be non-empty")
    if ids.min() < 1 or ids.max() > r.node_count:
        raise ValueError("subset ids must lie in [1, node_count]")

    def positions(global_index: np.ndarray) -> np.ndarray:
        member_ranks = global_index[ids - 1]
        local = np.empty(ids.size, dtype=np.int64)
        local[np.argsort(member_ranks)] = np.arange(1, ids.size + 1)
        return local

    return LocalRanks(ids, positions(r.K), positions(r.Kstar))
