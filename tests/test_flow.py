import io

import numpy as np
import pytest
from hypothesis import given

from chei2d import (
    DirectedGraph,
    TwoDRanking,
    compute_flow,
    fixed_point_cell,
    parse_edge_list,
)
from chei2d.stats import bin_ranks
from conftest import bernoulli_graph
from oracle import ranking_from_probabilities
from strategies import graphs


def ranking_for(g: DirectedGraph, seed: int = 0) -> TwoDRanking:
    """Distinct random probabilities so rank ties cannot occur."""
    rng = np.random.default_rng(seed)
    p = rng.permutation(np.arange(1.0, g.node_count + 1))
    ps = rng.permutation(np.arange(1.0, g.node_count + 1))
    return ranking_from_probabilities(p, ps)


def ranking_from_indexes(k, kstar) -> TwoDRanking:
    k = np.asarray(k, dtype=np.float64)
    kstar = np.asarray(kstar, dtype=np.float64)
    n = k.size
    return ranking_from_probabilities((n + 1 - k), (n + 1 - kstar))


def brute_flow(g, r, cells, scale, per_link=False):
    """Per-node dictionary re-aggregation of the same binning."""
    n = r.node_count
    cx = bin_ranks(r.K, n, cells, scale)
    cy = bin_ranks(r.Kstar, n, cells, scale)
    counts = np.zeros((cells, cells), dtype=int)
    for i in range(n):
        counts[cx[i], cy[i]] += 1
    sums = {}
    links = {}
    for s, d in zip(g.src, g.dst):
        cell = (cx[s - 1], cy[s - 1])
        vec = (cx[d - 1] - cx[s - 1], cy[d - 1] - cy[s - 1])
        ax, ay = sums.get(cell, (0.0, 0.0))
        sums[cell] = (ax + vec[0], ay + vec[1])
        links[cell] = links.get(cell, 0) + 1
    dx = np.zeros((cells, cells))
    dy = np.zeros((cells, cells))
    empty = np.ones((cells, cells), dtype=bool)
    for cell, (ax, ay) in sums.items():
        denom = links[cell] if per_link else counts[cell]
        dx[cell] = ax / denom
        dy[cell] = ay / denom
        empty[cell] = False
    return counts, dx, dy, empty


def test_internal_links_give_zero_vector_not_empty(three_cycle):
    r = ranking_for(three_cycle)
    field = compute_flow(three_cycle, r, cells=1, scale="linear")
    assert field.counts[0, 0] == 3
    assert field.dx[0, 0] == 0.0
    assert field.dy[0, 0] == 0.0
    assert not field.empty[0, 0]


def test_single_link_unit_vector():
    # node 1 alone in cell (0, 1) points at node 2 in cell (1, 1)
    g = parse_edge_list("N 4\n1 2\n")
    r = ranking_from_indexes([1, 2, 3, 4], [2, 3, 1, 4])
    field = compute_flow(g, r, cells=2, scale="log")
    assert field.counts[0, 1] == 1
    assert field.dx[0, 1] == 1.0
    assert field.dy[0, 1] == 0.0
    assert field.amplitude[0, 1] == 1.0
    assert not field.empty[0, 1]
    # occupied cells without outgoing links are empty, unoccupied too
    assert field.empty[1, 0] and field.empty[1, 1] and field.empty[0, 0]


def test_dangling_only_graph_all_empty():
    g = parse_edge_list("N 4\n")
    r = ranking_from_indexes([1, 2, 3, 4], [1, 2, 3, 4])
    field = compute_flow(g, r, cells=2, scale="log")
    assert field.empty.all()
    assert field.counts.sum() == 4


def test_per_link_average_divides_by_link_count():
    # node 1 is alone in cell (0, 0) and sends two links into cell (2, 2)
    g = parse_edge_list("N 6\n1 4\n1 5\n")
    r = ranking_from_indexes([1, 2, 3, 4, 5, 6], [1, 2, 3, 4, 5, 6])
    by_node = compute_flow(g, r, cells=3, scale="linear")
    by_link = compute_flow(g, r, cells=3, scale="linear", per_link_average=True)
    assert by_node.dx[0, 0] == pytest.approx(4.0)
    assert by_link.dx[0, 0] == pytest.approx(2.0)


@given(graphs(min_nodes=2))
def test_flow_linearity(g):
    r = ranking_for(g, seed=1)
    field = compute_flow(g, r, cells=4, scale="log")
    cx = bin_ranks(r.K, g.node_count, 4, "log")
    cy = bin_ranks(r.Kstar, g.node_count, 4, "log")
    raw_x = float(np.sum(cx[g.dst - 1] - cx[g.src - 1])) if g.link_count else 0.0
    raw_y = float(np.sum(cy[g.dst - 1] - cy[g.src - 1])) if g.link_count else 0.0
    assert np.sum(field.dx * field.counts) == pytest.approx(raw_x, abs=1e-9)
    assert np.sum(field.dy * field.counts) == pytest.approx(raw_y, abs=1e-9)


def test_flow_invariant_under_rank_preserving_relabel():
    g = bernoulli_graph(2, n=15)
    rng = np.random.default_rng(7)
    p = rng.permutation(np.arange(1.0, 16.0))
    ps = rng.permutation(np.arange(1.0, 16.0))
    r = ranking_from_probabilities(p, ps)
    field = compute_flow(g, r, cells=3, scale="log")

    sigma = rng.permutation(15)  # sigma[i] is the new 0-based id of node i+1
    relabeled = DirectedGraph.from_links(
        15, sigma[g.src - 1] + 1, sigma[g.dst - 1] + 1
    )
    p2 = np.empty(15)
    ps2 = np.empty(15)
    p2[sigma] = p
    ps2[sigma] = ps
    r2 = ranking_from_probabilities(p2, ps2)
    field2 = compute_flow(relabeled, r2, cells=3, scale="log")
    assert np.array_equal(field.counts, field2.counts)
    assert np.allclose(field.dx, field2.dx)
    assert np.allclose(field.dy, field2.dy)
    assert np.array_equal(field.empty, field2.empty)


def test_flow_matches_brute_force_per_node_and_per_link():
    for seed in range(6):
        n = 8 + seed
        g = bernoulli_graph(seed, n=n, density=0.2)
        r = ranking_for(g, seed=seed)
        for per_link in (False, True):
            field = compute_flow(g, r, cells=n, scale="linear",
                                 per_link_average=per_link)
            counts, dx, dy, empty = brute_flow(g, r, n, "linear", per_link)
            assert np.array_equal(field.counts, counts)
            assert np.allclose(field.dx, dx, atol=1e-12)
            assert np.allclose(field.dy, dy, atol=1e-12)
            # brute force marks cells without any outgoing link as empty
            assert np.array_equal(field.empty, empty)


def test_amplitude_is_euclidean_norm():
    g = parse_edge_list("N 9\n1 9\n")
    r = ranking_from_indexes(np.arange(1, 10), np.arange(1, 10)[::-1])
    field = compute_flow(g, r, cells=3, scale="linear")
    assert np.allclose(field.amplitude, np.hypot(field.dx, field.dy), atol=1e-12)


def test_fixed_point_cell_diagnostic(three_cycle):
    r = ranking_for(three_cycle)
    field = compute_flow(three_cycle, r, cells=1, scale="linear")
    assert fixed_point_cell(field) == (0, 0)
    g = parse_edge_list("N 4\n")
    empty_field = compute_flow(g, ranking_for(g), cells=2, scale="log")
    assert fixed_point_cell(empty_field) is None


def test_flow_tsv_shape():
    g = parse_edge_list("N 4\n1 2\n")
    r = ranking_from_indexes([1, 2, 3, 4], [2, 3, 1, 4])
    field = compute_flow(g, r, cells=2, scale="log")
    buf = io.StringIO()
    field.to_tsv(buf)
    rows = [l for l in buf.getvalue().splitlines() if not l.startswith("#")]
    assert len(rows) == 4
    i, istar, count, dx, dy, amp, empty = rows[1].split("\t")
    assert (i, istar) == ("0", "1")
    assert float(amp) == pytest.approx(np.hypot(float(dx), float(dy)))
    assert empty in ("0", "1")
