"""Peak traced memory of the pass operations, of writing the edge list
and of reading it, on a graph of the benchmark's ``lib-solve`` size:
1.5e5 nodes and about 1.41e6 links.

Each pass bound is the operation's measured peak in bytes per link
(N-long and cells x cells arrays included) plus the 256 KB slack of the
edge-list read's bound.  A link gather indexes the per-node values by
the graph's int32 ``heads`` as they stand, with no int64 copy of
``dst``; unweighted operators are built with no sort.  Before both, the
peaks were 48.8 B/link (``filtered_cheirank``, set by the masked build),
37.2 (``matrix_density_render``) and 34.6 (``compute_flow``).

The inversion mask, the fraction curve, the flow field and the matrix
render walk the links in blocks of whole rows (``link_blocks``), so
their per-link temporaries are one block long.  The ``*_holds_one_block``
bounds are N-long, cells x cells and ``_BLOCK_LINKS``-long terms with no
per-link term; before the walk these passes peaked at 25.0-25.9 B/link (the
fraction curve), 18.6 (the flow field) and 29.2 (the render), and
``filtered_cheirank`` at 27.6, set by the mask's whole-length endpoint
values.  A weighted render sums its strengths block by block too; it
peaked at 25.7 B/link while they were summed over a whole-length
``src``.

The edge-list read takes its file ``_READ_BYTES`` at a time, and sorted
links go straight into the graph's layout, so its per-link term is the
int32 heads alone; holding the file and the parse's rows whole, it
peaked at 28.5 B/link.
"""

import os
import tracemalloc

import numpy as np
import pytest

from chei2d import (
    DirectedGraph,
    FilterConfig,
    StochasticOperator,
    TwoDRanking,
    compute_flow,
    filter_links_by_prob,
    filtered_cheirank,
    matrix_density_render,
    measure_fraction_curve,
    read_edge_list,
    synth_scale_free,
    write_edge_list,
)
from chei2d._bulk import write_rows
from chei2d.graph import _BLOCK_LINKS, _READ_BYTES

_SLACK = 262_144


@pytest.fixture(scope="module")
def solved():
    g = synth_scale_free(150_000, 2.1, 2.7, 15, links=1_500_000)
    assert g.link_count == 1_413_059
    g.out_degree, g.in_degree  # cached before any peak is taken
    return g, TwoDRanking.compute(g)


def _peak(operation) -> int:
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        operation()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_masked_operator_build_peak(solved):
    g, r = solved
    mask = filter_links_by_prob(g, r.pagerank, 10.0).mask
    # int32 indices, float64 values and an int8 link count per entry
    assert _peak(lambda: StochasticOperator(g, reverse=mask)) <= 14.4 * g.link_count + _SLACK


def test_filtered_cheirank_peak(solved):
    g, _ = solved
    # set by the filter: each link's two endpoint values and a product
    peak = _peak(lambda: filtered_cheirank(g, FilterConfig(eta=10.0)))
    assert peak <= 27.6 * g.link_count + _SLACK


def test_compute_flow_peak(solved):
    g, r = solved
    # each link's source cell and destination coordinate
    assert _peak(lambda: compute_flow(g, r, cells=25)) <= 19.5 * g.link_count + _SLACK


def test_matrix_density_render_peak(solved):
    g, r = solved
    # each link's value, its grid cell and its source's block
    peak = _peak(lambda: matrix_density_render(g, r.K, cells=500))
    assert peak <= 29.3 * g.link_count + _SLACK


def test_write_edge_list_peak(solved):
    g, _ = solved
    # one chunk of rows at a time, its src and dst derived from the layout;
    # whole-length src and dst columns would be 16 B/link
    with open(os.devnull, "w") as fp:
        assert _peak(lambda: write_edge_list(g, fp)) <= 4 * g.link_count


def test_filtered_cheirank_peak_is_the_masked_build_and_the_mask(solved):
    g, _ = solved
    # the masked build's bound and the 1 B/link mask, with PageRank's result
    # (probabilities, index and order: 24 B/node) held through the second
    # power iteration and that iteration's vectors (22 B/node)
    peak = _peak(lambda: filtered_cheirank(g, FilterConfig(eta=10.0)))
    assert peak <= (14.4 + 1) * g.link_count + 48 * g.node_count + _SLACK


def test_fraction_curve_holds_one_block(solved):
    g, r = solved
    etas = [0.0, 0.1, 1.0, 10.0, 100.0, 1000.0, float("inf")]
    # the ranks as floats (8 B/node) and a few N-long temporaries; per block
    # link, its tail, its two endpoint values, a product and a mask, and the
    # last block's tail and values while the next one is made
    peak = _peak(lambda: measure_fraction_curve(g, etas, "rank", ranking=r.pagerank))
    assert peak <= 24 * g.node_count + 40 * _BLOCK_LINKS + _SLACK


def test_compute_flow_holds_one_block(solved):
    g, r = solved
    # the binning's N-long arrays; per block link, its tail, its source
    # cell and its destination coordinate
    peak = _peak(lambda: compute_flow(g, r, cells=25))
    assert peak <= 48 * g.node_count + 16 * _BLOCK_LINKS + _SLACK


def test_matrix_density_render_holds_one_block(solved):
    g, r = solved
    cells = 500
    # the rank checks and per-node blocks and strengths; the grid, the
    # links' grid and an outer-product temporary; per block link, its tail,
    # value, cell and endpoint ranks
    peak = _peak(lambda: matrix_density_render(g, r.K, cells=cells))
    assert peak <= 32 * g.node_count + 24 * cells * cells + 48 * _BLOCK_LINKS + _SLACK


def test_weighted_matrix_density_render_holds_one_block(solved):
    g, r = solved
    weights = np.random.default_rng(5).random(g.link_count) + 0.5
    weighted = DirectedGraph.from_links(g.node_count, g.src, g.dst, weights, weighted=True)
    cells = 500
    # the unweighted render's bound: the strengths are summed block by
    # block too, where a whole-length int64 src was 8 B/link more
    peak = _peak(lambda: matrix_density_render(weighted, r.K, cells=cells))
    assert peak <= 32 * g.node_count + 24 * cells * cells + 48 * _BLOCK_LINKS + _SLACK


def test_read_edge_list_holds_the_heads_and_one_block(solved, tmp_path):
    g, _ = solved
    path = tmp_path / "edges.txt"
    write_edge_list(g, path)
    # The int32 heads, their buffer grown by up to a sixteenth; per node,
    # the blocks' row counts and the offsets; the block read and its
    # parse.  The file's bytes and the parse's 16 B/link rows held whole
    # were 28.5 B/link.
    peak = _peak(lambda: read_edge_list(path))
    assert peak <= 4.25 * g.link_count + 20 * g.node_count + 8 * _READ_BYTES + _SLACK


def test_read_of_unsorted_edge_list_peak(solved, tmp_path):
    g, _ = solved
    order = np.random.default_rng(3).permutation(g.link_count)
    path = tmp_path / "edges.txt"
    with open(path, "w") as fp:
        fp.write(f"N {g.node_count}\n")
        write_rows(fp, [], g.src[order], g.dst[order], sep=" ")
    # from_links's sort of the links, read as whole columns: no more than
    # the 46.3 B/link of reading the file whole and parsing it in one call
    peak = _peak(lambda: read_edge_list(path))
    assert peak <= 46.3 * g.link_count


def test_dropping_self_loops_keeps_unit_weights_implicit(tmp_path):
    rng = np.random.default_rng(7)
    n, links = 50_000, 400_000
    g = DirectedGraph.from_links(n, rng.integers(1, n + 1, links), rng.integers(1, n + 1, links))
    path = tmp_path / "edges.txt"
    write_edge_list(g, path)
    plain = _peak(lambda: read_edge_list(path))
    # the masked copies of src and dst (16 B/link) and the mask (1 B/link);
    # a float64 copy of the unit weights would be 8 B/link more
    flagged = _peak(lambda: read_edge_list(path, drop_self_loops=True))
    assert flagged <= plain + 17 * g.link_count + 65_536
