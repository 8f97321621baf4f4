"""Peak traced memory of the pass operations, and of writing the edge
list, on a graph of the benchmark's ``lib-solve`` size: 1.5e5 nodes and
about 1.41e6 links.

Each pass bound is the operation's measured peak in bytes per link
(N-long and cells x cells arrays included) plus the 256 KB slack of the
edge-list read's bound.  A link gather indexes the per-node values by
the graph's int32 ``heads`` as they stand, with no int64 copy of
``dst``; unweighted operators are built with no sort.  Before both, the
peaks were 48.8 B/link (``filtered_cheirank``, set by the masked build),
37.2 (``matrix_density_render``) and 34.6 (``compute_flow``).
"""

import os
import tracemalloc

import numpy as np
import pytest

from chei2d import (
    FilterConfig,
    StochasticOperator,
    TwoDRanking,
    compute_flow,
    filter_links_by_prob,
    filtered_cheirank,
    matrix_density_render,
    synth_scale_free,
    write_edge_list,
)

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
