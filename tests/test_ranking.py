import copy
import gc
import pickle
import sys
import threading
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given
import hypothesis.strategies as st

from chei2d import ranking
from chei2d import (
    DirectedGraph,
    RankVector,
    StochasticOperator,
    TwoDRanking,
    cheirank,
    pagerank,
    parse_edge_list,
    rank_order,
)
from conftest import CHAIN, THREE_CYCLE, bernoulli_graph
from oracle import dense_google_matrix, dense_solve_oracle, reversed_graph
from strategies import graphs, prob_vectors


# -- operator application ------------------------------------------------


def test_apply_single_node_fixed_point():
    op = StochasticOperator(parse_edge_list("N 1\n"), alpha=0.85)
    assert op.apply(np.array([1.0])) == pytest.approx([1.0], abs=0)


def test_apply_all_dangling_is_uniform():
    op = StochasticOperator(parse_edge_list("N 2\n"), alpha=0.85)
    assert op.apply(np.array([1.0, 0.0])) == pytest.approx([0.5, 0.5], abs=1e-15)


def test_apply_chain_hand_values(chain3):
    # 1->2->3 with node 3 dangling: each node gets the teleport+dangling
    # share (0.85/3 + 0.15)/3 and the two link targets add 0.85 * 1/3.
    out = StochasticOperator(chain3, alpha=0.85).apply(np.full(3, 1 / 3))
    share = (0.85 / 3 + 0.15) / 3
    assert out == pytest.approx([share, 0.85 / 3 + share, 0.85 / 3 + share], abs=1e-15)


def test_apply_dimension_mismatch(three_cycle):
    with pytest.raises(ValueError):
        StochasticOperator(three_cycle).apply(np.ones(4) / 4)


@given(graphs(), st.integers(0, 2**31 - 1))
def test_apply_preserves_probability(g, seed):
    rng = np.random.default_rng(seed)
    v = rng.random(g.node_count) + 1e-3
    v /= v.sum()
    out = StochasticOperator(g).apply(v)
    assert abs(out.sum() - 1.0) < 1e-12


# -- power iteration -------------------------------------------------------


def test_pagerank_three_cycle_uniform(three_cycle):
    p = pagerank(three_cycle)
    assert p.probabilities == pytest.approx([1 / 3] * 3, abs=1e-12)
    assert p.converged


def test_pagerank_chain_matches_hand_solve(chain3):
    p = pagerank(chain3, tol=1e-12)
    assert p.probabilities == pytest.approx([0.18442, 0.34117, 0.47441], abs=5e-6)
    assert np.max(np.abs(p.probabilities - dense_solve_oracle(chain3))) < 1e-8


def test_pagerank_star_hub_ranks_first():
    g = parse_edge_list("".join(f"{i} 11\n" for i in range(1, 11)))
    assert pagerank(g).index[10] == 1


def test_cheirank_star_hub_ranks_first():
    g = parse_edge_list("".join(f"11 {i}\n" for i in range(1, 11)))
    assert cheirank(g).index[10] == 1


def test_cheirank_three_cycle_uniform(three_cycle):
    assert cheirank(three_cycle).probabilities == pytest.approx([1 / 3] * 3, abs=1e-12)


def _assert_same_operator(a, b):
    # entry by entry, in one storage form: PageRank's matrix is CSC
    a_matrix, b_matrix = a.matrix.tocsr(), b.matrix.tocsr()
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(a_matrix, name), getattr(b_matrix, name))
    assert np.array_equal(a.dangling, b.dangling)


def _assert_cheirank_is_pagerank_of_reverse(g):
    a = cheirank(g)
    b = pagerank(reversed_graph(g))
    assert np.array_equal(a.probabilities, b.probabilities)
    assert np.array_equal(a.index, b.index)
    assert a.iterations_used == b.iterations_used
    _assert_same_operator(StochasticOperator(g, reverse=True),
                          StochasticOperator(reversed_graph(g)))


def _parallel_graph(seed):
    """Uncollapsed parallel links of different weights; nodes 9 and 10 dangle."""
    rng = np.random.default_rng(seed)
    return DirectedGraph.from_links(
        10, rng.integers(1, 9, 120), rng.integers(1, 9, 120),
        rng.choice([0.25, 1.0, 3.5, 7.0], 120), weighted=True, collapse=False,
    )


def test_cheirank_is_pagerank_of_reverse():
    for g in [bernoulli_graph(seed) for seed in range(5)] + [_parallel_graph(4)]:
        _assert_cheirank_is_pagerank_of_reverse(g)


@given(graphs(weighted=True))
def test_cheirank_is_pagerank_of_reverse_weighted(g):
    _assert_cheirank_is_pagerank_of_reverse(g)


def _assert_swap_mask_is_filtered_graph(g, mask):
    filtered = DirectedGraph.from_links(
        g.node_count, np.where(mask, g.dst, g.src), np.where(mask, g.src, g.dst),
        g.weight, weighted=g.weighted, collapse=False,
    )
    _assert_same_operator(StochasticOperator(g, reverse=mask), StochasticOperator(filtered))


@given(st.data(), st.booleans(), st.booleans())
def test_swap_mask_operator_is_filtered_graph_operator(data, weighted, collapse):
    g = data.draw(graphs(weighted=weighted, collapse=collapse))
    mask = np.array(data.draw(st.lists(st.booleans(), min_size=g.link_count,
                                       max_size=g.link_count)), dtype=bool)
    _assert_swap_mask_is_filtered_graph(g, mask)


def test_swap_mask_operator_on_many_parallel_links():
    for seed in range(20):
        g = _parallel_graph(seed)
        mask = np.random.default_rng(seed).random(g.link_count) < 0.5
        _assert_swap_mask_is_filtered_graph(g, mask)
        for uniform in (False, True):
            full = np.full(g.link_count, uniform)
            _assert_same_operator(StochasticOperator(g, reverse=full),
                                  StochasticOperator(g, reverse=uniform))


def _coo_reference_operator(g, reverse, alpha=0.85):
    """The operator's matrix and dangling columns by the COO recipe: every
    link as (tail, head, weight), tail and head swapped where ``reverse``
    holds, a weighted graph's swapped links sorted by (tail, head, weight),
    each valued alpha * w / (total weight leaving its tail), then
    ``csr_matrix((data, (head - 1, tail - 1)))``."""
    n, weight = g.node_count, g.weight
    if np.ndim(reverse) == 0:
        tail, head = (g.dst, g.src) if reverse else (g.src, g.dst)
    else:
        tail = np.where(reverse, g.dst, g.src)
        head = np.where(reverse, g.src, g.dst)
        if g.weighted:
            order = np.lexsort((weight, head, tail))
            tail, head, weight = tail[order], head[order], weight[order]
    strength = np.bincount(tail, weights=weight, minlength=n + 1)[1:]
    data = alpha * weight / strength[tail - 1]
    matrix = sp.csr_matrix((data, (head - 1, tail - 1)), shape=(n, n))
    return SimpleNamespace(matrix=matrix, dangling=np.flatnonzero(strength == 0.0))


def _assert_matches_coo_reference(g, mask):
    for reverse in (False, True, mask):
        _assert_same_operator(StochasticOperator(g, reverse=reverse),
                              _coo_reference_operator(g, reverse))


@given(st.data(), st.booleans(), st.booleans())
def test_operator_matches_coo_reference(data, weighted, collapse):
    g = data.draw(graphs(weighted=weighted, collapse=collapse))
    mask = np.array(data.draw(st.lists(st.booleans(), min_size=g.link_count,
                                       max_size=g.link_count)), dtype=bool)
    _assert_matches_coo_reference(g, mask)


def test_operator_matches_coo_reference_on_many_parallel_links():
    for seed in range(20):
        g = _parallel_graph(seed)
        _assert_matches_coo_reference(g, np.random.default_rng(seed).random(g.link_count) < 0.5)


def _has_parallel_links_by_pairs(g):
    return len(set(zip(g.src.tolist(), g.dst.tolist()))) < g.link_count


@given(st.data(), st.booleans())
def test_unweighted_builder_matches_coo_reference(data, collapse):
    g = data.draw(graphs(collapse=collapse))
    mask = np.array(data.draw(st.lists(st.booleans(), min_size=g.link_count,
                                       max_size=g.link_count)), dtype=bool)
    assert ranking._has_parallel_links(g) == _has_parallel_links_by_pairs(g)
    if ranking._has_parallel_links(g):
        return
    for reverse in (False, True, mask):
        matrix, dangling = ranking._unweighted_matrix(g, 0.85, reverse)
        _assert_same_operator(SimpleNamespace(matrix=matrix, dangling=dangling),
                              _coo_reference_operator(g, reverse))


def test_parallel_self_loops_keep_the_summing_path():
    # Five copies of one value, three kept and two swapped: the sort-free
    # parts would add them in another order than the filtered graph does.
    g = DirectedGraph.from_links(1, [1] * 5, [1] * 5, collapse=False)
    mask = np.array([False, False, False, True, True])
    assert ranking._has_parallel_links(g)
    _assert_swap_mask_is_filtered_graph(g, mask)
    for reverse in (False, True, mask):
        _assert_same_operator(StochasticOperator(g, reverse=reverse),
                              _coo_reference_operator(g, reverse))


def _weighted_copy(g, seed):
    weights = np.random.default_rng(seed).choice([0.5, 1.0, 2.0, 3.0], g.link_count)
    return DirectedGraph.from_links(g.node_count, g.src, g.dst, weights, weighted=True)


def test_unweighted_operator_sorts_nothing(monkeypatch):
    g = bernoulli_graph(3, n=60, density=0.2)
    mask = np.random.default_rng(3).random(g.link_count) < 0.5
    # both orientations of some links, so the parts share entries
    mask[::7] = True
    weighted = _weighted_copy(g, 3)
    # an unweighted graph under a bool or a mask, a weighted one under a bool
    builds = [(g, False), (g, True), (g, mask), (weighted, False), (weighted, True)]
    expected = [_coo_reference_operator(graph, reverse) for graph, reverse in builds]

    def refuse(*args, **kwargs):
        raise AssertionError("the sort-free builder sorted")

    for owner, name in [(np, "lexsort"), (np, "argsort"), (np, "sort"),
                        (sp.csr_matrix, "sort_indices"), (sp.csr_matrix, "sum_duplicates"),
                        (sp.csc_matrix, "sort_indices"), (sp.csc_matrix, "sum_duplicates"),
                        (ranking, "_summed_matrix")]:
        monkeypatch.setattr(owner, name, refuse)
    built = [StochasticOperator(graph, reverse=reverse) for graph, reverse in builds]
    monkeypatch.undo()
    for op, reference in zip(built, expected):
        _assert_same_operator(op, reference)


def test_cheirank_matrix_shares_the_graph_layout():
    g = bernoulli_graph(5, n=80, density=0.1)
    matrix = StochasticOperator(g, reverse=True).matrix
    assert np.shares_memory(matrix.indices, g.heads)
    assert np.shares_memory(matrix.indptr, g.indptr)


def test_bool_operators_are_the_graph_layout_as_it_stands():
    g = bernoulli_graph(5, n=80, density=0.1)
    # PageRank's matrix is the layout read by column, CheiRank's read by row
    for graph in (g, _weighted_copy(g, 5)):
        for reverse, layout in ((False, sp.csc_matrix), (True, sp.csr_matrix)):
            op = StochasticOperator(graph, reverse=reverse)
            assert type(op.matrix) is layout
            assert np.shares_memory(op.matrix.indices, graph.heads)
            assert np.shares_memory(op.matrix.indptr, graph.indptr)
            _assert_same_operator(op, _coo_reference_operator(graph, reverse))


def test_swap_mask_must_be_one_bool_per_link(three_cycle):
    for bad in (np.ones(2, dtype=bool), np.ones((3, 1), dtype=bool), [1, 0, 1]):
        with pytest.raises(ValueError, match="one bool per link"):
            StochasticOperator(three_cycle, reverse=bad)


def test_solvers_never_build_a_reversed_graph(monkeypatch):
    g = bernoulli_graph(1)
    expected = pagerank(reversed_graph(g))

    def refuse(self):
        raise AssertionError("the solver built a graph")

    monkeypatch.setattr(DirectedGraph, "__post_init__", refuse)
    assert np.array_equal(cheirank(g).probabilities, expected.probabilities)
    assert np.array_equal(TwoDRanking.compute(g).cheirank.probabilities,
                          expected.probabilities)


def test_unweighted_graph_rejects_non_unit_weights():
    # from_links drops the weights of an unweighted graph
    g = DirectedGraph.from_links(3, [1, 1, 2], [2, 3, 3], [2.0, 1.0, 1.0], collapse=False)
    assert list(g.weight) == [1.0, 1.0, 1.0]
    assert pagerank(g).probabilities.sum() == pytest.approx(1.0, abs=1e-12)


def test_pagerank_validates_parameters(three_cycle):
    for bad in ({"alpha": 0.0}, {"alpha": 1.0}, {"tol": 0.0}, {"tol": float("nan")},
                {"max_iter": 0}):
        with pytest.raises(ValueError):
            pagerank(three_cycle, **bad)


def test_non_convergence_is_warning_not_error():
    g = bernoulli_graph(0, n=40)
    p = pagerank(g, tol=1e-15, max_iter=3)
    assert not p.converged
    assert p.iterations_used == 3
    assert p.residual > 1e-15


def _reference_solve(op, tol, max_iter):
    """The power loop with a new residual array each step: (v, residuals)."""
    v = np.full(op.node_count, 1 / op.node_count)
    residuals = []
    for _ in range(max_iter):
        nxt = op.apply(v)
        residuals.append(float(np.abs(nxt - v).sum()))
        v = nxt
        if residuals[-1] < tol:
            break
    return v, residuals


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("tol, max_iter", [(1e-10, 1000), (1e-15, 3)])
def test_residual_history_is_the_reference_loop(reverse, tol, max_iter):
    for seed in range(5):
        g = bernoulli_graph(seed, n=40)
        solve = cheirank if reverse else pagerank
        r = solve(g, tol=tol, max_iter=max_iter)
        v, residuals = _reference_solve(StochasticOperator(g, reverse=reverse), tol, max_iter)
        # the loop's own buffers change no bit of the vector or the residuals
        assert np.array_equal(r.probabilities, v)
        assert r.residual_history == tuple(residuals)
        assert len(r.residual_history) == r.iterations_used
        assert r.residual_history[-1] == r.residual
        assert r.converged == (r.residual < tol)


def test_residual_history_is_a_tuple_of_floats():
    r = RankVector.from_probabilities([0.5, 0.5], residual_history=np.array([0.25, 0.0]))
    assert r.residual_history == (0.25, 0.0)
    assert all(type(x) is float for x in r.residual_history)
    assert RankVector.from_probabilities([0.5, 0.5]).residual_history == ()


def test_residual_decays_geometrically():
    # successive L1 residuals contract by about alpha per step
    for seed in range(10):
        g = bernoulli_graph(seed, n=25)
        op = StochasticOperator(g, alpha=0.85)
        v = np.full(25, 1 / 25)
        residuals = []
        for _ in range(60):
            nxt = op.apply(v)
            residuals.append(float(np.abs(nxt - v).sum()))
            v = nxt
        r = np.array(residuals)
        r = r[r > 1e-14]
        if r.size >= 3:
            ratio = (r[-1] / r[0]) ** (1.0 / (r.size - 1))
            assert ratio <= 0.85 + 0.05


# -- rank ordering ----------------------------------------------------------


def test_rank_order_basic():
    assert list(rank_order([0.5, 0.3, 0.2])) == [1, 2, 3]


def test_rank_order_tie_breaks_by_id():
    assert list(rank_order([0.4, 0.4, 0.2])) == [1, 2, 3]


def test_rank_order_uniform_is_identity():
    assert list(rank_order([0.2] * 5)) == [1, 2, 3, 4, 5]


def test_rank_order_rejects_bad_input():
    with pytest.raises(ValueError):
        rank_order([])
    with pytest.raises(ValueError):
        rank_order([0.5, -0.1])
    with pytest.raises(ValueError):
        rank_order([0.5, np.nan])


def _stable_rank_order(p):
    by_rank = np.argsort(-p, kind="stable")
    index = np.empty(p.size, dtype=np.int64)
    index[by_rank] = np.arange(1, p.size + 1)
    return index


@given(st.integers(1, 3000), st.integers(1, 8), st.integers(0, 2**32 - 1))
def test_rank_order_is_the_stable_sort_on_large_tie_classes(n, distinct, seed):
    rng = np.random.default_rng(seed)
    p = rng.choice(np.concatenate(([0.0, -0.0], rng.random(distinct))), n)
    assert np.array_equal(rank_order(p), _stable_rank_order(p))


def test_rank_order_is_the_stable_sort_on_a_pagerank_sized_vector():
    # 1.5e5 nodes, one tie class of 13,482 and 10,813 nodes in pairs
    rng = np.random.default_rng(7)
    p = rng.random(150_000)
    p[rng.permutation(p.size)[:13_482]] = p.min() / 2
    pairs = rng.permutation(p.size)[:10_813 * 2]
    p[pairs[1::2]] = p[pairs[::2]]
    assert np.array_equal(rank_order(p), _stable_rank_order(p))


@given(prob_vectors())
def test_rank_order_bijection_and_monotone(p):
    rv = RankVector.from_probabilities(p)
    assert sorted(rv.index) == list(range(1, p.size + 1))
    assert sorted(rv.order) == list(range(1, p.size + 1))
    assert np.all(np.diff(rv.probability_by_rank()) <= 0)
    # order and index invert each other
    assert np.array_equal(rv.order[rv.index - 1], np.arange(1, p.size + 1))


# -- dense oracle -----------------------------------------------------------


def test_oracle_three_cycle(three_cycle):
    assert dense_solve_oracle(three_cycle) == pytest.approx([1 / 3] * 3, abs=1e-14)


def test_oracle_refuses_large_graphs():
    from chei2d import DirectedGraph

    g = DirectedGraph.from_links(2001, [1], [2])
    with pytest.raises(ValueError):
        dense_solve_oracle(g)


def test_dense_google_matrix_columns_sum_to_one():
    for seed in range(3):
        g = bernoulli_graph(seed, n=15)
        G = dense_google_matrix(g, alpha=0.85)
        assert G.sum(axis=0) == pytest.approx(np.ones(15), abs=1e-12)


def test_power_iteration_agrees_with_oracle():
    for seed in range(10):
        g = bernoulli_graph(seed, n=10 + 4 * seed)
        p = pagerank(g, tol=1e-12)
        assert np.max(np.abs(p.probabilities - dense_solve_oracle(g))) < 1e-8


# -- held solves ---------------------------------------------------------------


def test_held_solve_is_returned_as_it_is(builds):
    g = bernoulli_graph(2)
    p, c = pagerank(g), cheirank(g)
    assert pagerank(g) is p
    assert cheirank(g) is c
    ranking = TwoDRanking.compute(g)
    assert ranking.pagerank is p and ranking.cheirank is c
    # equal parameters of other numeric types are the same solve
    assert pagerank(g, alpha=np.float64(0.85), tol=np.float64(1e-10),
                    max_iter=np.int64(1000)) is p
    assert builds == [False, True]
    assert not p.probabilities.flags.writeable


@pytest.mark.parametrize("change", [{"alpha": 0.8}, {"tol": 1e-9}, {"max_iter": 999}])
def test_any_other_parameter_misses(builds, change):
    g = bernoulli_graph(2)
    p, c = pagerank(g), cheirank(g)
    assert pagerank(g, **change) is not p
    assert cheirank(g, **change) is not c
    assert cheirank(g) is not p and pagerank(g) is not c
    assert builds == [False, True, False, True]


def test_mask_solve_is_never_held(builds):
    g = bernoulli_graph(2)
    p = pagerank(g)
    keep_all = np.zeros(g.link_count, dtype=bool)
    a = ranking._power_iteration(g, 0.85, 1e-10, 1000, reverse=keep_all)
    b = ranking._power_iteration(g, 0.85, 1e-10, 1000, reverse=keep_all)
    assert a is not b and a is not p
    assert np.array_equal(a.probabilities, p.probabilities)
    assert len(builds) == 3
    assert list(g._solves.values()) == [p]


def test_dropped_solves_leave_the_memo_empty(builds):
    g = bernoulli_graph(2)
    p, c = pagerank(g), cheirank(g)
    assert len(g._solves) == 2
    del p, c
    gc.collect()
    assert len(g._solves) == 0
    pagerank(g)
    assert builds == [False, True, False]


def test_cheirank_is_pagerank_of_reverse_when_held():
    g = bernoulli_graph(3)
    fresh_c, fresh_p = cheirank(g), pagerank(reversed_graph(g))
    r = reversed_graph(g)
    held_p = pagerank(r)
    for a, b in ((cheirank(g), held_p), (fresh_c, pagerank(r)), (cheirank(g), fresh_p)):
        assert np.array_equal(a.probabilities, b.probabilities)
        assert np.array_equal(a.index, b.index)
        assert a.residual_history == b.residual_history


@pytest.mark.parametrize("copy_graph", [lambda g: pickle.loads(pickle.dumps(g)), copy.deepcopy],
                         ids=["pickle", "deepcopy"])
def test_solved_graph_copies_equal_and_hold_no_solves(builds, copy_graph):
    g = bernoulli_graph(4)
    ranking = TwoDRanking.compute(g)
    h = copy_graph(g)
    assert h == g
    assert h.collapsed_duplicates == g.collapsed_duplicates
    assert not any(a.flags.writeable for a in (h.indptr, h.heads, h.weight))
    assert np.array_equal(h.out_degree, g.out_degree)
    assert len(builds) == 2
    p = pagerank(h)
    assert len(builds) == 3
    assert p is not ranking.pagerank
    assert np.array_equal(p.probabilities, ranking.pagerank.probabilities)
    assert pagerank(g) is ranking.pagerank


def test_threads_solving_one_graph_agree():
    # threads that race one miss may each solve, but they get equal
    # vectors, and the memo keeps one of them
    g = bernoulli_graph(5, n=300, density=0.05)
    reference = pagerank(bernoulli_graph(5, n=300, density=0.05))
    results, errors = [], []

    def solve():
        try:
            results.append(pagerank(g))
        except Exception as exc:  # reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            threads = [threading.Thread(target=solve) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
            assert errors == [] and len(results) == 6
            for r in results:
                assert np.array_equal(r.probabilities, reference.probabilities)
            assert any(r is pagerank(g) for r in results)
            results.clear()
            del r
            gc.collect()
            assert len(g._solves) == 0
    finally:
        sys.setswitchinterval(interval)
