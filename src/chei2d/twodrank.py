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
    """Combined square-border ordering of a paired ranking."""
    n = r.node_count
    k, kstar = r.K, r.Kstar
    # max and min both lie in 1..n, so this key orders by max, then min;
    # a stable sort leaves remaining ties in ascending id
    key = np.maximum(k, kstar) * (n + 1) + np.minimum(k, kstar)
    order = np.argsort(key, kind="stable") + 1
    index = np.empty(n, dtype=np.int64)
    index[order - 1] = np.arange(1, n + 1)
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
