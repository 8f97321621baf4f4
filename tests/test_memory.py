"""Peak traced memory of the pass operations, of writing the edge list
and of reading it, on a graph of the benchmark's ``lib-solve`` size:
1.5e5 nodes and about 1.41e6 links.

Each pass bound is the operation's measured peak in bytes per link
(N-long and cells x cells arrays included) plus the 256 KB slack of the
edge-list read's bound.  A link gather indexes the per-node values by
the graph's int32 ``heads`` as they stand, with no int64 copy of
``dst``; unweighted operators are built with no sort.  Before both, the
peaks were 48.8 B/link (``filtered_cheirank``, set by the masked build),
37.2 (``matrix_density_render``) and 34.6 (``compute_flow``).  PageRank's
and CheiRank's operators are the graph's layout as it stands, weighted or
not, so their builds hold the links' values and per-node arrays alone;
built by a counting transpose and by the summing recipe, PageRank's
peaked at 14.3 B/link and a weighted graph's at 29.3.

A solve drops its operator before the rank order, and its loop takes
each residual in the buffer of the vector it replaces, so its peak is
its operator build's; holding the operator through the rank order and
two temporaries a step, ``pagerank`` peaked at 12.3 B/link.

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
peaked at 28.5 B/link.  The rank-table read takes its file the same way
and holds two copies of its 40 B rows at most; read whole, it peaked at
about 175 B/row.
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
    pagerank,
    read_edge_list,
    read_rank_table,
    synth_scale_free,
    write_edge_list,
    write_rank_table,
)
from chei2d._bulk import _READ_BYTES, write_rows
from chei2d.graph import _BLOCK_LINKS

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


@pytest.fixture(scope="module")
def weighted(solved):
    g, _ = solved
    weights = np.random.default_rng(5).random(g.link_count) + 0.5
    weighted = DirectedGraph.from_links(g.node_count, g.src, g.dst, weights, weighted=True)
    weighted.out_degree  # cached before any peak is taken, as in `solved`
    return weighted


def test_pagerank_operator_build_peak(solved):
    g, _ = solved
    # the layout as it stands, read by column: a value per link and two
    # N-long arrays
    peak = _peak(lambda: StochasticOperator(g))
    assert peak <= 8 * g.link_count + 16 * g.node_count + _SLACK


def test_pagerank_peak_is_its_operator_build(solved):
    g, _ = solved
    # `solved` holds the default solve, so a tol of its own is solved here.
    # The operator goes before the rank order, and the loop keeps two
    # N-long vectors: the build's bound holds the whole solve.
    peak = _peak(lambda: pagerank(g, tol=1e-9))
    assert peak <= 8 * g.link_count + 16 * g.node_count + _SLACK


@pytest.mark.parametrize("reverse", [False, True])
def test_weighted_operator_build_peak(weighted, reverse):
    # each link's tail strength and its value, and two N-long arrays
    peak = _peak(lambda: StochasticOperator(weighted, reverse=reverse))
    assert peak <= 16 * weighted.link_count + 16 * weighted.node_count + _SLACK


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


def test_read_of_edge_list_with_a_late_comment_holds_one_block_more(solved, tmp_path):
    g, _ = solved
    path = tmp_path / "edges.txt"
    write_edge_list(g, path)
    lines = path.read_bytes().splitlines(keepends=True)
    middle = len(lines) // 2
    path.write_bytes(b"".join([*lines[:middle], b"# c\n", *lines[middle:]]))
    # The sorted read's bound and the line loop's output for the one block
    # the bulk parse declines: three 8 B columns for lines of 4 B or more.
    # Read by the line loop from the comment on, it peaked at 31.4 B/link.
    peak = _peak(lambda: read_edge_list(path))
    assert peak <= (4.25 * g.link_count + 20 * g.node_count + 8 * _READ_BYTES + _SLACK
                    + 6 * _READ_BYTES)


def test_read_rank_table_holds_its_rows_twice_and_one_block(solved, tmp_path):
    g, r = solved
    path = tmp_path / "ranks.tsv"
    write_rank_table(r, path)
    # The blocks' 40 B rows and their concatenation; then the rows, each
    # node's row index and the four columns in node order.  The file, its
    # parse, sorted ids and their argsort, all whole, were about 175 B/row.
    peak = _peak(lambda: read_rank_table(path))
    assert peak <= 96 * g.node_count + 8 * _READ_BYTES + _SLACK


def test_read_of_rank_table_the_bulk_parse_declines_holds_one_block(solved, tmp_path):
    g, r = solved
    path = tmp_path / "ranks.tsv"
    write_rank_table(r, path)
    # A form feed before each newline: the bulk parse declines every block,
    # and the line loop reads each alone, within the bulk read's bound.
    # Read by the line loop from the first block on, it peaked at 149.9 B/row.
    path.write_bytes(path.read_bytes().replace(b"\n", b"\x0c\n"))
    peak = _peak(lambda: read_rank_table(path))
    assert peak <= 96 * g.node_count + 8 * _READ_BYTES + _SLACK


def test_read_of_crlf_rank_table_holds_its_text_not_a_stream_of_it(solved, tmp_path):
    g, r = solved
    path = tmp_path / "ranks.tsv"
    write_rank_table(r, path)
    path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    # Read in bulk block by block, as a table with plain newlines is, it
    # peaks at about 80 B/row.  Read whole by the line loop, it held its
    # bytes, their text and the text with its newlines translated, about
    # 65 B/row each; handed to the loop as an io.StringIO, whose buffer
    # holds 4 B/char more, it peaked at 363 B/row.
    peak = _peak(lambda: read_rank_table(path))
    assert peak <= 200 * g.node_count + 8 * _READ_BYTES + _SLACK


def test_read_of_crlf_rank_table_lets_its_bytes_go_before_translating(solved, tmp_path):
    g, r = solved
    path = tmp_path / "ranks.tsv"
    write_rank_table(r, path)
    path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    # Read in bulk block by block, it peaks at about 80 B/row.  Read whole
    # by the line loop, it held two copies of the text at most, about 65
    # B/row each, and the loop's 40 B rows; translated while the joined
    # bytes were still held, it peaked at 195 B/row.
    peak = _peak(lambda: read_rank_table(path))
    assert peak <= 150 * g.node_count + 8 * _READ_BYTES + _SLACK


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
