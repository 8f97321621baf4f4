import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
import hypothesis.strategies as st

from chei2d import (
    RankVector,
    TwoDRanking,
    component_histogram,
    correlator,
    correlator_components,
    correlator_series,
    density_grid,
    fit_exponent,
    matrix_density_render,
    pagerank,
    parse_edge_list,
    point_count,
    point_count_curve,
    synth_scale_free,
    write_rank_table,
    ExponentFitError,
)
from conftest import bernoulli_graph
from oracle import dense_google_matrix
from strategies import rankings


def two_d(p, pstar) -> TwoDRanking:
    return TwoDRanking(
        RankVector.from_probabilities(p), RankVector.from_probabilities(pstar)
    )


def kappa_brute(r: TwoDRanking, tau: int) -> float:
    """Definition-level reimplementation: per-node loop, probabilities
    read by rank position, out-of-range shifted ranks dropped."""
    n = r.node_count
    p_by_rank = r.pagerank.probability_by_rank()
    total = 0.0
    for i in range(1, n + 1):
        shifted = int(r.K[i - 1]) + tau
        if 1 <= shifted <= n:
            total += p_by_rank[shifted - 1] * r.cheirank.probabilities[i - 1]
    return n * total - 1.0


# -- correlator ---------------------------------------------------------------


def test_correlator_uniform_is_exactly_zero():
    # power-of-two node count keeps the arithmetic exact in binary floats
    n = 64
    r = two_d(np.full(n, 1.0 / n), np.full(n, 1.0 / n))
    assert correlator(r, 0) == 0.0


def test_correlator_two_node_hand_case():
    r = two_d(np.array([0.7, 0.3]), np.array([0.6, 0.4]))
    assert correlator(r, 0) == pytest.approx(0.08, abs=1e-12)
    comps = correlator_components(r)
    assert comps == pytest.approx([0.84, 0.24], abs=1e-12)
    assert comps.sum() == pytest.approx(correlator(r, 0) + 1.0, abs=1e-12)


def test_correlator_rejects_large_tau():
    r = two_d(np.array([0.7, 0.3]), np.array([0.6, 0.4]))
    with pytest.raises(ValueError):
        correlator(r, 2)


@given(rankings(), st.integers(-15, 15))
def test_correlator_matches_brute_force(r, tau):
    if abs(tau) >= r.node_count:
        tau = tau % r.node_count
    assert correlator(r, tau) == pytest.approx(kappa_brute(r, tau), abs=1e-12)


@given(rankings(), st.integers(-15, 15))
def test_correlator_bounded_below(r, tau):
    if abs(tau) >= r.node_count:
        tau = tau % r.node_count
    assert correlator(r, tau) >= -1.0


@given(rankings())
def test_components_recompose_kappa(r):
    assert correlator_components(r).sum() == pytest.approx(
        correlator(r, 0) + 1.0, abs=1e-12
    )


def test_correlator_series_holds_scalar_at_zero():
    r = two_d(np.array([0.5, 0.3, 0.2]), np.array([0.2, 0.5, 0.3]))
    series = correlator_series(r, -2, 2)
    at_zero = series.kappa[series.tau == 0][0]
    assert at_zero == correlator(r, 0)
    assert series.tau.min() == -2 and series.tau.max() == 2
    assert series.kappa.tolist() == [correlator(r, t) for t in range(-2, 3)]


# Prints the correlator series of the rank table in argv[1], as hex bytes.
_SERIES_CHILD = """
import sys
from chei2d import correlator_series, read_rank_table
print(correlator_series(read_rank_table(sys.argv[1])[0]).kappa.tobytes().hex())
"""


def test_correlator_series_bits_depend_on_no_blas_setting(tmp_path):
    g = synth_scale_free(20_000, 2.1, 2.7, 7, links=200_000)
    path = tmp_path / "ranks.tsv"
    write_rank_table(TwoDRanking.compute(g), path)
    env = {k: v for k, v in os.environ.items() if not k.startswith("OPENBLAS")}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    # BLAS' threads and CPU kernels each add a dot product in their own order
    series = set()
    for setting in ({}, {"OPENBLAS_NUM_THREADS": "1"}, {"OPENBLAS_CORETYPE": "Haswell"},
                    {"OPENBLAS_CORETYPE": "Prescott"}):
        done = subprocess.run([sys.executable, "-c", _SERIES_CHILD, str(path)],
                              env=env | setting, capture_output=True, text=True, check=True)
        series.add(done.stdout)
    assert len(series) == 1


def test_correlator_series_clips_to_valid_window():
    r = two_d(np.array([0.5, 0.5]), np.array([0.5, 0.5]))
    series = correlator_series(r, -100, 100)
    assert series.tau.min() == -1 and series.tau.max() == 1


def test_random_permutation_kappa_within_bootstrap_band():
    # independent rankings concentrate kappa near zero; the band is five
    # bootstrap standard deviations from 200 reassignments
    rng = np.random.default_rng(42)
    n = 2000
    p = 1.0 / np.arange(1, n + 1) ** 0.9
    p /= p.sum()
    pstar_sorted = 1.0 / np.arange(1, n + 1) ** 0.6
    pstar_sorted /= pstar_sorted.sum()
    pstar = pstar_sorted[rng.permutation(n)]
    r = two_d(p, pstar)
    kappa = correlator(r, 0)
    boots = np.array(
        [
            n * np.dot(p, pstar_sorted[rng.permutation(n)]) - 1.0
            for _ in range(200)
        ]
    )
    sigma = boots.std()
    assert sigma > 0
    assert abs(kappa) < 5 * sigma


# -- histogram ----------------------------------------------------------------


def test_histogram_boundary_values():
    h = component_histogram([1e-8, 1e2], bins=200)
    assert h.counts[0] == 1
    assert h.counts[-1] == 1
    assert h.counts.sum() == 2
    assert h.out_of_range == 0


def test_histogram_empty():
    h = component_histogram([], bins=10, lo=0.1, hi=10)
    assert h.counts.sum() == 0
    assert h.out_of_range == 0


def test_histogram_log_center():
    h = component_histogram([1.0, 1.0, 1.0], bins=10, lo=0.1, hi=10)
    # 1.0 sits exactly on the middle edge; right-open bins place it above
    assert h.counts[5] == 3
    assert h.counts.sum() == 3


def test_histogram_out_of_range():
    h = component_histogram([1e-9, 0.5, 2e2, np.nan, -1.0], bins=10, lo=1e-8, hi=1e2)
    assert h.counts.sum() == 1
    assert h.out_of_range == 4


@given(st.lists(st.floats(-1e3, 1e3, allow_nan=False), max_size=50))
def test_histogram_accounts_for_every_sample(values):
    h = component_histogram(values, bins=20, lo=1e-2, hi=1e2)
    assert h.n_samples == len(values)


def test_histogram_tsv_columns():
    h = component_histogram([1.0, 2.0], bins=4, lo=0.1, hi=10)
    buf = io.StringIO()
    h.to_tsv(buf)
    rows = [l for l in buf.getvalue().splitlines() if not l.startswith("#")]
    assert len(rows) == 4
    lo, hi, count, freq = rows[0].split("\t")
    assert float(hi) > float(lo)
    assert count == "0"


# -- point count ----------------------------------------------------------------


def test_point_count_fully_correlated():
    n = 50
    p = np.linspace(1.0, 0.1, n)
    r = two_d(p, p)
    for m in (1, 7, 25, 50):
        assert point_count(r, m) == m


def test_point_count_bounds():
    r = two_d(np.array([0.5, 0.3, 0.2]), np.array([0.2, 0.3, 0.5]))
    assert point_count(r, 0) == 0
    assert point_count(r, 3) == 3
    with pytest.raises(ValueError):
        point_count(r, 4)


@given(rankings())
def test_point_count_monotone(r):
    counts = [point_count(r, m) for m in range(r.node_count + 1)]
    assert counts[0] == 0
    assert counts[-1] == r.node_count
    assert all(b >= a for a, b in zip(counts, counts[1:]))


def test_point_count_curve_matches_single_calls():
    rng = np.random.default_rng(3)
    p = rng.random(40) + 0.01
    ps = rng.random(40) + 0.01
    r = two_d(p / p.sum(), ps / ps.sum())
    sizes, deltas = point_count_curve(r, points=12)
    assert sizes[-1] == 40
    for m, d in zip(sizes, deltas):
        assert point_count(r, int(m)) == d


def test_point_count_random_permutation_hypergeometric():
    # overlap of a random n-subset with a fixed n-subset
    rng = np.random.default_rng(9)
    n = 10_000
    p = np.linspace(1.0, 0.1, n)
    r = two_d(p, p[rng.permutation(n)])
    for m in (n // 10, n // 4, n // 2):
        mean = m * m / n
        var = m * (m / n) * (1 - m / n) * (n - m) / (n - 1)
        assert abs(point_count(r, m) - mean) < 5 * np.sqrt(var)


# -- density grid ----------------------------------------------------------------


def test_density_grid_corner_cells():
    n = 100
    p = np.linspace(1.0, 0.1, n)
    r = two_d(p, p)
    grid = density_grid(r, cells=10, scale="log")
    # the K = K* = 1 node sits in cell (0, 0); the K = K* = N node in the last
    assert grid.values[0, 0] > 0
    assert grid.values[-1, -1] > 0


def test_density_grid_boundary_clamp():
    p = np.array([0.6, 0.4])
    r = two_d(p, p)
    grid = density_grid(r, cells=4, scale="log")
    assert grid.values[0, 0] == 0.5
    assert grid.values[-1, -1] == 0.5


@given(rankings())
def test_density_grid_mass_conservation(r):
    for scale in ("log", "linear"):
        grid = density_grid(r, cells=7, scale=scale)
        assert abs(grid.values.sum() - 1.0) < 1e-9


def test_density_grid_area_variant_is_not_normalized():
    rng = np.random.default_rng(1)
    p = rng.random(200) + 0.01
    ps = rng.random(200) + 0.01
    r = two_d(p / p.sum(), ps / ps.sum())
    grid = density_grid(r, cells=10, scale="log", divide_by_area=True)
    assert grid.values.sum() > 0
    assert grid.normalization == pytest.approx(grid.values.sum())


def test_density_grid_csv_and_json_round_trip():
    import json

    p = np.array([0.5, 0.3, 0.2])
    r = two_d(p, p)
    grid = density_grid(r, cells=3, scale="log")
    csv_buf, json_buf = io.StringIO(), io.StringIO()
    grid.to_csv(csv_buf)
    grid.to_json(json_buf)
    rows = [l for l in csv_buf.getvalue().splitlines() if not l.startswith("#")]
    parsed = np.array([[float(x) for x in row.split(",")] for row in rows])
    assert np.array_equal(parsed, grid.values)
    blob = json.loads(json_buf.getvalue())
    assert blob["cells"] == 3
    assert np.array_equal(np.array(blob["values"]), grid.values)


# -- matrix render ----------------------------------------------------------------


def test_matrix_render_no_links_constant_grid():
    g = parse_edge_list("N 6\n")
    render = matrix_density_render(g, np.arange(1, 7), cells=3, alpha=0.85)
    assert render.coarse.values == pytest.approx(np.full((3, 3), 6 / 9), abs=1e-12)
    assert render.coarse.values.sum() == pytest.approx(6, abs=1e-9)


def test_matrix_render_three_cycle_explicit(three_cycle):
    render = matrix_density_render(
        three_cycle, np.array([1, 2, 3]), cells=3, alpha=0.85, raw_window=3
    )
    hot = 0.85 + 0.15 / 3
    cold = 0.15 / 3
    expected = np.full((3, 3), cold)
    expected[1, 0] = expected[2, 1] = expected[0, 2] = hot
    assert render.coarse.values == pytest.approx(expected, abs=1e-12)
    assert render.raw == pytest.approx(expected, abs=1e-12)


def test_matrix_render_total_equals_node_count():
    for seed in range(3):
        g = bernoulli_graph(seed, n=40)
        k = pagerank(g).index
        render = matrix_density_render(g, k, cells=7, alpha=0.85)
        assert render.coarse.values.sum() == pytest.approx(40, abs=1e-9)


def test_matrix_render_matches_dense_oracle():
    # with one cell per rank the coarse grid is the permuted dense matrix
    for seed in range(3):
        g = bernoulli_graph(seed, n=12)
        p = pagerank(g)
        render = matrix_density_render(g, p.index, cells=12, alpha=0.85, raw_window=12)
        G = dense_google_matrix(g, alpha=0.85)
        permuted = G[np.ix_(p.order - 1, p.order - 1)]
        assert render.coarse.values == pytest.approx(permuted, abs=1e-12)
        assert render.raw == pytest.approx(permuted, abs=1e-12)


@pytest.mark.parametrize("k", [[1, 1, 3], [0, 1, 2], [1, 2, 4], [2, 3, 3], [1, 2],
                               [3, 1, 2, 4], [[1, 2, 3]]])
def test_matrix_render_rejects_a_k_index_that_is_no_permutation(three_cycle, k):
    with pytest.raises(ValueError, match=r"^k_index must be a permutation of 1\.\.node_count$"):
        matrix_density_render(three_cycle, np.array(k), cells=2)


def test_matrix_render_takes_any_permutation(three_cycle):
    for k in ([3, 1, 2], [2, 3, 1], [1, 3, 2]):
        render = matrix_density_render(three_cycle, np.array(k), cells=3)
        assert render.coarse.values.sum() == pytest.approx(3, abs=1e-12)


def test_matrix_render_clamps_raw_window(three_cycle):
    render = matrix_density_render(three_cycle, np.array([1, 2, 3]), cells=2,
                                   raw_window=50)
    assert render.raw.shape == (3, 3)


# -- exponent fit ----------------------------------------------------------------


def test_fit_exponent_exact_power_law():
    n = 500
    for beta in (0.9, 0.59):
        p = 1.0 / np.arange(1.0, n + 1) ** beta
        rv = RankVector.from_probabilities(p / p.sum())
        assert fit_exponent(rv, 10, n // 10) == pytest.approx(beta, abs=1e-9)


def test_fit_exponent_default_range():
    n = 400
    p = 1.0 / np.arange(1.0, n + 1) ** 0.75
    rv = RankVector.from_probabilities(p / p.sum())
    assert fit_exponent(rv) == pytest.approx(0.75, abs=1e-9)


def test_fit_exponent_excludes_zeros_and_errors_when_sparse():
    p = np.zeros(100)
    p[:5] = [0.5, 0.2, 0.15, 0.1, 0.05]
    rv = RankVector.from_probabilities(p)
    with pytest.raises(ExponentFitError):
        fit_exponent(rv, 1, 50)


def test_fit_exponent_validates_range():
    rv = RankVector.from_probabilities(np.full(30, 1 / 30))
    with pytest.raises(ValueError):
        fit_exponent(rv, 10, 5)
