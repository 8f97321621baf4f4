import itertools

import numpy as np
import pytest
from hypothesis import given
import hypothesis.strategies as st

from chei2d import (
    DirectedGraph,
    FilterConfig,
    RankVector,
    TwoDRanking,
    analytic_fraction,
    cheirank,
    density_grid,
    filter_links_by_prob,
    filter_links_by_rank,
    filtered_cheirank,
    measure_fraction_curve,
    pagerank,
    parse_edge_list,
    synth_rank_ensemble,
    synth_scale_free,
)
from chei2d.spamfilter import MODES
from conftest import bernoulli_graph, fixture_graphs
from oracle import filtered_graph, reversed_graph
from strategies import graphs


# -- threshold filters ---------------------------------------------------


def test_prob_filter_eta_zero_inverts_nothing(three_cycle):
    p = pagerank(three_cycle)
    res = filter_links_by_prob(three_cycle, p, 0.0)
    assert res.fraction == 0.0
    assert res.inverted_count == 0
    assert filtered_graph(res) == three_cycle


def test_prob_filter_eta_inf_reverses_everything(three_cycle):
    p = pagerank(three_cycle)
    res = filter_links_by_prob(three_cycle, p, float("inf"))
    assert res.fraction == 1.0
    assert filtered_graph(res) == reversed_graph(three_cycle)


def test_prob_filter_two_node_hand_case():
    g = parse_edge_list("1 2\n")
    p = RankVector.from_probabilities(np.array([0.6, 0.4]))
    res = filter_links_by_prob(g, p, 0.5)
    # 0.5 * 0.6 = 0.3 < 0.4: the link stays
    assert res.fraction == 0.0
    assert filtered_graph(res) == g
    res2 = filter_links_by_prob(g, p, 0.8)
    # 0.8 * 0.6 = 0.48 > 0.4: inverted
    assert res2.fraction == 1.0


def test_rank_filter_thresholds():
    g = parse_edge_list("N 10\n3 10\n")
    k = np.arange(1, 11)
    assert filter_links_by_rank(g, k, 0.0).fraction == 0.0
    # K(src)=3 < 0.5 * K(dst)=5: inverted
    res = filter_links_by_rank(g, k, 0.5)
    assert res.fraction == 1.0
    assert filtered_graph(res) == parse_edge_list("N 10\n10 3\n")
    # large eta_k inverts every link
    assert filter_links_by_rank(g, k, 11.0).fraction == 1.0


def test_rank_filter_strict_inequality_keeps_ties():
    g = parse_edge_list("N 4\n2 2\n")
    k = np.arange(1, 5)
    assert filter_links_by_rank(g, k, 1.0).fraction == 0.0


@given(graphs(min_nodes=2), st.floats(0, 100))
def test_filter_conserves_link_count(g, eta):
    p = pagerank(g, tol=1e-8, max_iter=200)
    res = filter_links_by_prob(g, p, eta)
    assert filtered_graph(res).link_count == g.link_count
    assert filtered_graph(res).node_count == g.node_count
    assert res.fraction == (res.inverted_count / g.link_count if g.link_count else 0.0)


def test_fraction_monotone_in_eta():
    g = bernoulli_graph(4, n=40)
    p = pagerank(g)
    etas = np.array([0.0, 0.1, 0.5, 1.0, 2.0, 10.0, np.inf])
    fs = measure_fraction_curve(g, etas, mode="probability", ranking=p)
    assert fs[0] == 0.0
    assert fs[-1] == 1.0
    assert np.all(np.diff(fs) >= 0)
    fs_rank = measure_fraction_curve(g, etas[:-1], mode="rank", ranking=p)
    assert np.all(np.diff(fs_rank) >= 0)


def test_measure_curve_rejects_unsorted(three_cycle):
    with pytest.raises(ValueError):
        measure_fraction_curve(three_cycle, [1.0, 0.5], ranking=pagerank(three_cycle))


@pytest.mark.parametrize("nodes", [2, 4])
def test_measure_curve_rejects_ranking_of_another_graph(three_cycle, nodes):
    other = pagerank(parse_edge_list(f"N {nodes}\n1 2\n"))
    for mode in MODES:
        with pytest.raises(ValueError, match="rank vector does not match the graph"):
            measure_fraction_curve(three_cycle, [0.0, 1.0], mode, ranking=other)
    with pytest.raises(ValueError, match="rank vector does not match the graph"):
        filter_links_by_prob(three_cycle, other, 1.0)


@pytest.mark.parametrize("bad", [float("nan"), float("-inf"), -1.0])
def test_filter_values_reject_nan_and_negatives(three_cycle, bad):
    p = pagerank(three_cycle)
    with pytest.raises(ValueError):
        FilterConfig(eta=bad)
    with pytest.raises(ValueError):
        filter_links_by_prob(three_cycle, p, bad)
    with pytest.raises(ValueError):
        filter_links_by_rank(three_cycle, p.index, bad)
    with pytest.raises(ValueError):
        measure_fraction_curve(three_cycle, [bad, 1.0], ranking=p)


# -- filtered cheirank -----------------------------------------------------


def _same_vector(a, b):
    return np.array_equal(a.probabilities, b.probabilities) and np.array_equal(a.index, b.index)


def _weighted_graphs():
    rng = np.random.default_rng(3)
    src, dst = rng.integers(1, 9, 120), rng.integers(1, 9, 120)
    w = rng.choice([0.25, 1.0, 3.5, 7.0], 120)
    return [(f"weighted_collapse={collapse}",
             DirectedGraph.from_links(10, src, dst, w, weighted=True, collapse=collapse))
            for collapse in (True, False)]


def test_filtered_cheirank_endpoints():
    for (name, g), mode in itertools.product(fixture_graphs() + _weighted_graphs(), MODES):
        base = pagerank(g)
        at_zero = filtered_cheirank(g, FilterConfig(mode=mode, eta=0.0))
        assert _same_vector(at_zero.pagerank, base), (name, mode)
        assert _same_vector(at_zero.cheirank, base), (name, mode)
        at_inf = filtered_cheirank(g, FilterConfig(mode=mode, eta=float("inf")))
        assert _same_vector(at_inf.cheirank, cheirank(g)), (name, mode)


def test_filtered_cheirank_builds_no_graph(monkeypatch):
    g = _weighted_graphs()[1][1]
    constructions = []
    post_init = DirectedGraph.__post_init__

    def counting(self):
        constructions.append(self)
        post_init(self)

    monkeypatch.setattr(DirectedGraph, "__post_init__", counting)
    res = filtered_cheirank(g, FilterConfig(eta=1.0))
    assert constructions == []
    assert 0 < res.inverted_count < g.link_count
    filtered = filtered_graph(res)
    assert len(constructions) == 1
    mask = res.mask
    assert filtered == DirectedGraph.from_links(
        g.node_count, np.where(mask, g.dst, g.src), np.where(mask, g.src, g.dst), g.weight,
        weighted=True, collapse=False,
    )
    assert _same_vector(res.cheirank, pagerank(filtered))


def test_filtered_cheirank_takes_the_held_pagerank(builds):
    g = synth_scale_free(2000, 2.1, 2.7, 7, links=12000)
    ranking = TwoDRanking.compute(g)
    builds.clear()
    res = filtered_cheirank(g, FilterConfig(eta=10.0))
    # the masked operator alone: the PageRank that chose the links is held
    assert len(builds) == 1 and np.ndim(builds[0]) == 1
    assert res.pagerank is ranking.pagerank
    assert 0 < res.inverted_count < g.link_count


def test_filtered_cheirank_rank_mode_runs(three_cycle):
    res = filtered_cheirank(three_cycle, FilterConfig(mode="rank", eta=0.5))
    assert res.cheirank is not None
    assert filtered_graph(res).link_count == three_cycle.link_count


def test_filter_config_validation():
    with pytest.raises(ValueError):
        FilterConfig(mode="unknown")
    with pytest.raises(ValueError):
        FilterConfig(eta=-1.0)
    assert FilterConfig(eta=float("inf")).eta == float("inf")


def test_diagonal_mass_migrates_away_with_eta():
    # filtered CheiRank starts identical to PageRank (all mass on the
    # diagonal) and drifts toward the plain CheiRank as eta grows
    g = synth_scale_free(5000, 2.1, 2.7, seed=0)
    p = pagerank(g)
    masses = []
    for eta in (1.0, 10.0, 100.0):
        res = filtered_cheirank(g, FilterConfig(mode="probability", eta=eta))
        grid = density_grid(TwoDRanking(p, res.cheirank), cells=20, scale="log")
        i, j = np.indices(grid.values.shape)
        masses.append(grid.values[np.abs(i - j) <= 2].sum())
    assert all(b <= a + 1e-12 for a, b in zip(masses, masses[1:]))


# -- analytic model ---------------------------------------------------------


def test_analytic_fraction_knee_continuity():
    assert analytic_fraction(1.0, 1.0, 0.0) == pytest.approx(0.5, abs=1e-15)
    assert analytic_fraction(2.0, 0.4, 0.0) == pytest.approx(0.4, abs=1e-15)


def test_analytic_fraction_triangle_area():
    for eta in (0.0, 0.25, 0.5, 0.75, 1.0):
        assert analytic_fraction(eta, 1.0, 0.0) == pytest.approx(eta / 2, abs=1e-15)


def test_analytic_fraction_saturates():
    assert analytic_fraction(float("inf"), 0.4, 0.8) == 1.0
    assert analytic_fraction(1e9, 1.0, 0.0) == pytest.approx(1.0, abs=1e-8)


@given(
    st.floats(0.05, 1.0),
    st.floats(0.0, 0.95),
    st.floats(0.0, 20.0),
)
def test_analytic_fraction_is_continuous_and_bounded(a, nu, eta):
    knee = 1.0 / a
    left = analytic_fraction(knee * (1 - 1e-9), a, nu)
    right = analytic_fraction(knee * (1 + 1e-9), a, nu)
    assert abs(left - right) < 1e-6
    f = analytic_fraction(eta, a, nu)
    assert 0.0 <= f <= 1.0


def test_analytic_fraction_domain_errors():
    with pytest.raises(ValueError):
        analytic_fraction(1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        analytic_fraction(1.0, 1.2, 0.0)
    with pytest.raises(ValueError):
        analytic_fraction(1.0, 0.5, 1.0)
    with pytest.raises(ValueError):
        analytic_fraction(-0.5, 0.5, 0.0)
    with pytest.raises(ValueError, match="eta_k must be >= 0"):
        analytic_fraction(float("nan"), 1.0, 0.0)


# -- Monte Carlo agreement ---------------------------------------------------


def measured_errors(a, nu, links, seed=11, n=100_000):
    g = synth_rank_ensemble(n, links, a, nu, seed)
    k = np.arange(1, n + 1)
    errs = []
    for eta in (0.5, 1.0, 2.0, 5.0, 10.0):
        f = filter_links_by_rank(g, k, eta).fraction
        errs.append(abs(f - analytic_fraction(eta, a, nu)))
    return np.array(errs)


def test_monte_carlo_tracks_analytic_model():
    for a, nu in ((1.0, 0.0), (0.4, 0.0), (0.4, 0.8)):
        assert measured_errors(a, nu, links=200_000).max() < 0.02


def test_monte_carlo_error_shrinks_with_links():
    small = measured_errors(0.4, 0.8, links=20_000, seed=5).mean()
    large = measured_errors(0.4, 0.8, links=320_000, seed=5).mean()
    assert large < max(small, 0.004)


def test_synth_rank_ensemble_shape_and_determinism():
    g1 = synth_rank_ensemble(1000, 5000, 0.4, 0.8, seed=2)
    g2 = synth_rank_ensemble(1000, 5000, 0.4, 0.8, seed=2)
    assert g1 == g2
    assert g1.link_count == 5000
    assert g1.dst.max() <= 400
