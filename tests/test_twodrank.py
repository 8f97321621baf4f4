import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given

from chei2d import TwoDRanking, local_rank, two_d_rank
from oracle import ranking_from_probabilities
from strategies import rankings


def ranking_from_indexes(k, kstar) -> TwoDRanking:
    k = np.asarray(k, dtype=np.float64)
    kstar = np.asarray(kstar, dtype=np.float64)
    n = k.size
    return ranking_from_probabilities(n + 1 - k, n + 1 - kstar)


def test_top_corner_gets_rank_one():
    r = ranking_from_indexes([1, 2, 3], [1, 3, 2])
    combined = two_d_rank(r)
    assert combined.order[0] == 1
    assert combined.index[0] == 1


def test_square_border_order_example():
    # node 1 at (2,2), node 2 at (1,3), node 3 at (3,1): the (2,2) shell
    # comes first, then the two s=3 nodes ordered by min then id
    r = ranking_from_indexes([2, 1, 3], [2, 3, 1])
    combined = two_d_rank(r)
    assert list(combined.order) == [1, 2, 3]


def test_correlated_ranking_reduces_to_pagerank_order():
    k = [4, 1, 3, 2, 5]
    r = ranking_from_indexes(k, k)
    combined = two_d_rank(r)
    assert np.array_equal(combined.index, r.K)


@given(rankings())
def test_two_d_rank_bijection_and_shell_monotone(r):
    combined = two_d_rank(r)
    n = r.node_count
    assert sorted(combined.order) == list(range(1, n + 1))
    shells = np.maximum(r.K, r.Kstar)[combined.order - 1]
    assert np.all(np.diff(shells) >= 0)


def test_local_rank_full_subset_is_global():
    r = ranking_from_indexes([3, 1, 2], [2, 3, 1])
    ranks = local_rank(r, {1, 2, 3})
    assert np.array_equal(ranks.k_local, r.K[ranks.node_ids - 1])
    assert np.array_equal(ranks.kstar_local, r.Kstar[ranks.node_ids - 1])


def test_local_rank_two_members():
    # node 1 holds global K=5 and node 2 holds global K=17
    remaining = [k for k in range(1, 21) if k not in (5, 17)]
    k = np.array([5, 17] + remaining)
    r = ranking_from_indexes(k, np.arange(1, 21))
    ranks = local_rank(r, {1, 2})
    pos = dict(zip(ranks.node_ids.tolist(), ranks.k_local.tolist()))
    assert pos[1] == 1 and pos[2] == 2


def test_local_rank_singleton():
    r = ranking_from_indexes([2, 1, 3], [3, 2, 1])
    ranks = local_rank(r, {3})
    assert list(ranks.k_local) == [1]
    assert list(ranks.kstar_local) == [1]


def test_local_rank_rejects_empty_and_out_of_range():
    r = ranking_from_indexes([1, 2], [2, 1])
    with pytest.raises(ValueError):
        local_rank(r, set())
    with pytest.raises(ValueError):
        local_rank(r, {0, 1})
    with pytest.raises(ValueError):
        local_rank(r, {3})


@given(rankings(min_n=3))
def test_local_rank_preserves_global_order(r):
    n = r.node_count
    subset = list(range(1, n + 1, 2))
    ranks = local_rank(r, subset)
    assert sorted(ranks.k_local) == list(range(1, len(subset) + 1))
    by_global = np.argsort(r.K[ranks.node_ids - 1])
    assert np.array_equal(ranks.k_local[by_global], np.arange(1, len(subset) + 1))


@given(rankings(min_n=4))
def test_local_rank_shrinking_subset_keeps_relative_order(r):
    n = r.node_count
    big = list(range(1, n + 1))
    small = big[: n // 2]
    big_ranks = local_rank(r, big)
    small_ranks = local_rank(r, small)
    big_pos = {int(i): int(v) for i, v in zip(big_ranks.node_ids, big_ranks.k_local)}
    small_pos = {
        int(i): int(v) for i, v in zip(small_ranks.node_ids, small_ranks.k_local)
    }
    members = sorted(small_pos)
    for x in members:
        for y in members:
            if big_pos[x] < big_pos[y]:
                assert small_pos[x] < small_pos[y]


@st.composite
def paired_indexes(draw):
    """K and K* permutations of 1..n, K* often a partial copy of K, so
    that nodes share a shell and sit on the diagonal."""
    n = draw(st.integers(1, 30))
    k = draw(st.permutations(range(1, n + 1)))
    kstar = list(draw(st.permutations(range(1, n + 1))))
    fixed = draw(st.lists(st.integers(0, n - 1), max_size=n))
    for i in fixed:
        j = kstar.index(k[i])  # swap so that node i + 1 has K* == K
        kstar[i], kstar[j] = kstar[j], kstar[i]
    return k, kstar


@given(paired_indexes())
def test_two_d_rank_matches_lexsort_reference(indexes):
    r = ranking_from_indexes(*indexes)
    ids = np.arange(1, r.node_count + 1)
    shell, within = np.maximum(r.K, r.Kstar), np.minimum(r.K, r.Kstar)
    order = ids[np.lexsort((ids, within, shell))]
    combined = two_d_rank(r)
    assert np.array_equal(combined.order, order)
    assert np.array_equal(combined.index[order - 1], ids)


@st.composite
def mirrored_indexes(draw):
    """K and K* permutations of 1..n where drawn pairs of nodes sit at
    (j, m) and (m, j): on one border with the same smaller rank, so that
    only their ids order them.  The other nodes are random or on the
    diagonal."""
    n = draw(st.integers(1, 40))
    k = draw(st.permutations(range(1, n + 1)))
    kstar = list(k)
    nodes = draw(st.permutations(range(n)))
    pairs = draw(st.integers(0, n // 2))
    for a, b in zip(nodes[:pairs], nodes[pairs:2 * pairs]):
        kstar[a], kstar[b] = k[b], k[a]
    rest = nodes[2 * pairs:]
    shuffled = draw(st.permutations([kstar[i] for i in rest]))
    for i, value in zip(rest, shuffled):
        kstar[i] = value
    return k, kstar


@given(st.one_of(paired_indexes(), mirrored_indexes()))
def test_two_d_rank_matches_the_argsort_key(indexes):
    r = ranking_from_indexes(*indexes)
    n = r.node_count
    key = np.maximum(r.K, r.Kstar) * (n + 1) + np.minimum(r.K, r.Kstar)
    order = np.argsort(key, kind="stable") + 1
    combined = two_d_rank(r)
    assert np.array_equal(combined.order, order)
    assert np.array_equal(combined.index[order - 1], np.arange(1, n + 1))
