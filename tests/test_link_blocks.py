"""The link-block walk and the passes built on it.

``DirectedGraph.link_blocks`` yields runs of whole rows; the inversion
mask, the fraction curve, the flow field and the matrix render each walk
those blocks.  Each pass is compared, with ``np.array_equal``, to its
whole-array recipe in ``tests/oracle.py``, at blocks of 1, 2 and 7 links
and at the default, on graphs with hub rows longer than a block,
dangling rows, no links at all, weights and parallel links.
"""

import random

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import chei2d.graph
from chei2d import (
    DirectedGraph,
    RankVector,
    compute_flow,
    filter_links_by_prob,
    filter_links_by_rank,
    matrix_density_render,
    measure_fraction_curve,
)
from oracle import (
    ranking_from_probabilities,
    reference_flow,
    reference_fraction_curve,
    reference_mask,
    reference_render,
)
from strategies import walk_graphs

BLOCKS = st.sampled_from([1, 2, 7, chei2d.graph._BLOCK_LINKS])
EMPTY = DirectedGraph.from_links(4, [], [])
HUB = DirectedGraph.from_links(12, [3] * 11 + [1, 12], list(range(1, 12)) + [5, 5])


def with_blocks(size, call):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(chei2d.graph, "_BLOCK_LINKS", size)
        return call()


# Positive values per node for up to 30 nodes, few of them distinct, so that
# ties between a link's endpoints are common; a test takes the first N.
VALUES = st.lists(st.sampled_from([1.0, 1.25, 1.5, 2.0, 4.0]), min_size=30, max_size=30).map(
    np.array)


@given(walk_graphs(), BLOCKS)
@example(EMPTY, 1)
@example(HUB, 2)
def test_link_blocks_cover_the_links_in_whole_rows(g, size):
    walked = with_blocks(size, lambda: list(g.link_blocks()))
    bounds = [(links.start, links.stop) for links, _, _ in walked]
    # contiguous and in link order, every block non-empty
    assert [start for start, _ in bounds] == [0, *(stop for _, stop in bounds)][:len(bounds)]
    assert all(start < stop for start, stop in bounds)
    assert sum(stop - start for start, stop in bounds) == g.link_count
    row_starts = set(g.indptr.tolist())
    for i, (links, tails, heads) in enumerate(walked):
        assert links.start in row_starts and links.stop in row_starts
        assert tails.dtype == np.int64
        assert np.array_equal(tails, g.src[links] - 1)
        assert np.array_equal(heads, g.dst[links] - 1)
        # heads are read in place, never copied
        assert heads.base is g.heads and heads.dtype == g.heads.dtype
        # more links than a block only in a block of one row
        if links.stop - links.start > size:
            assert tails[0] == tails[-1]
        # and a block takes every whole row that fits
        if i + 1 < len(walked):
            next_tails = walked[i + 1][1]
            next_row = np.count_nonzero(next_tails == next_tails[0])
            assert links.stop - links.start + next_row > size


def test_link_blocks_put_a_hub_row_in_a_block_of_its_own():
    walked = with_blocks(2, lambda: list(HUB.link_blocks()))
    assert [(links.start, links.stop) for links, _, _ in walked] == [(0, 1), (1, 12), (12, 13)]


@given(walk_graphs(), BLOCKS, VALUES)
@example(EMPTY, 1, np.ones(30))
@example(HUB, 2, np.arange(30.0, 0.0, -1.0))
def test_inversion_mask_matches_the_whole_array_recipe(g, size, values):
    values = values[:g.node_count]
    p = RankVector.from_probabilities(values / values.sum())
    for eta in (0.0, 0.5, 1.0, 2.0, np.inf):
        got = with_blocks(size, lambda: filter_links_by_prob(g, p, eta).mask)
        assert np.array_equal(got, reference_mask(g, p.probabilities, eta, "probability"))
        got = with_blocks(size, lambda: filter_links_by_rank(g, values, eta).mask)
        assert np.array_equal(got, reference_mask(g, values, eta, "rank"))


@given(walk_graphs(), BLOCKS, st.sampled_from(["probability", "rank"]), VALUES)
@example(EMPTY, 1, "rank", np.ones(30))
@example(HUB, 2, "probability", np.arange(30.0, 0.0, -1.0))
def test_fraction_curve_matches_the_whole_array_recipe(g, size, mode, values):
    values = values[:g.node_count]
    p = RankVector.from_probabilities(values / values.sum())
    etas = [0.0, 0.5, 1.0, 2.0, 10.0, np.inf]
    got = with_blocks(size, lambda: measure_fraction_curve(g, etas, mode, ranking=p))
    assert np.array_equal(got, reference_fraction_curve(g, etas, mode, p))


@given(walk_graphs(), BLOCKS, st.integers(1, 6), st.sampled_from(["log", "linear"]),
       st.booleans(), VALUES, VALUES)
@example(EMPTY, 1, 3, "log", False, np.ones(30), np.ones(30))
@example(HUB, 2, 4, "linear", True, np.arange(30.0, 0.0, -1.0), np.ones(30))
def test_flow_matches_the_whole_array_recipe(g, size, cells, scale, per_link, p, pstar):
    n = max(g.node_count, 2)  # log binning needs two nodes
    g = DirectedGraph.from_links(n, g.src, g.dst, g.weight, weighted=g.weighted,
                                 collapse=False)
    r = ranking_from_probabilities(p[:n], pstar[:n])
    got = with_blocks(size, lambda: compute_flow(g, r, cells, scale, per_link))
    want = reference_flow(g, r, cells, scale, per_link)
    for name in ("counts", "dx", "dy", "empty"):
        assert np.array_equal(getattr(got, name), getattr(want, name))


@given(walk_graphs(), BLOCKS, st.integers(1, 9), st.integers(0, 12),
       st.sampled_from([0.85, 1.0]), st.randoms(use_true_random=False))
@example(EMPTY, 1, 3, 2, 0.85, random.Random(0))
@example(HUB, 2, 5, 12, 0.85, random.Random(1))
def test_matrix_render_matches_the_whole_array_recipe(g, size, cells, window, alpha, rnd):
    k = np.arange(1, g.node_count + 1)
    rnd.shuffle(k)
    got = with_blocks(size, lambda: matrix_density_render(g, k, cells, alpha, window))
    grid, raw = reference_render(g, k, cells, alpha, window)
    assert np.array_equal(got.coarse.values, grid)
    assert np.array_equal(got.raw, raw)
