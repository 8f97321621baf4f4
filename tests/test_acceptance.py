"""Acceptance battery: one test per numbered criterion.

Each test prints a PASS/FAIL line (visible with ``pytest -s``) and then
asserts.  The two transcription-network checks skip, not fail, when the
external datasets are not present under data/.
"""

import resource
import time
from pathlib import Path

import numpy as np
import pytest

from chei2d import (
    FilterConfig,
    RankVector,
    TwoDRanking,
    analytic_fraction,
    cheirank,
    component_histogram,
    compute_flow,
    correlator,
    correlator_components,
    correlator_series,
    density_grid,
    filter_links_by_rank,
    filtered_cheirank,
    fit_exponent,
    pagerank,
    point_count,
    point_count_curve,
    read_edge_list,
    synth_rank_ensemble,
    synth_scale_free,
)
from chei2d.cli import main as cli_main
from chei2d.stats import bin_ranks
from conftest import bernoulli_graph, fixture_graphs
from oracle import dense_solve_oracle, reversed_graph

DATA_DIR = Path(__file__).resolve().parent.parent / "data"


def report(num, name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {name} {detail}".rstrip())
    assert ok, f"criterion {num} failed: {name} {detail}"


def two_d(p, pstar) -> TwoDRanking:
    return TwoDRanking(
        RankVector.from_probabilities(p), RankVector.from_probabilities(pstar)
    )


def test_criterion_1_oracle_equivalence():
    started = time.perf_counter()
    worst = 0.0
    for seed in range(50):
        n = 10 + seed % 41
        g = bernoulli_graph(seed, n=n, density=0.1)
        p = pagerank(g, tol=1e-12)
        worst = max(worst, float(np.max(np.abs(p.probabilities - dense_solve_oracle(g)))))
    elapsed = time.perf_counter() - started
    report(
        1, "power iteration matches dense oracle",
        worst < 1e-8 and elapsed < 5.0,
        f"(worst {worst:.2e}, {elapsed:.2f}s)",
    )


def test_criterion_2_cheirank_identity():
    ok = True
    for name, g in fixture_graphs():
        a = cheirank(g)
        b = pagerank(reversed_graph(g))
        ok = ok and np.array_equal(a.probabilities, b.probabilities)
        ok = ok and np.array_equal(a.index, b.index)
    report(2, "cheirank(g) equals pagerank(reverse(g)) exactly", ok)


def test_criterion_3_correlator_fixtures():
    exact = all(
        correlator(two_d(np.full(n, 1.0 / n), np.full(n, 1.0 / n)), 0) == 0.0
        for n in (2, 64, 1024)
    )
    hand = two_d(np.array([0.7, 0.3]), np.array([0.6, 0.4]))
    hand_ok = abs(correlator(hand, 0) - 0.08) < 1e-12
    report(3, "correlator fixtures (uniform exact zero, 2-node 0.08)",
           exact and hand_ok)


def _transcription_kappa(path: Path) -> float:
    g = read_edge_list(path)
    return correlator(TwoDRanking.compute(g, tol=1e-12), 0)


@pytest.mark.skipif(
    not (DATA_DIR / "ecoli_transcription.txt").exists(),
    reason="E. coli transcription dataset not bundled (data/ecoli_transcription.txt)",
)
def test_criterion_3_ecoli_dataset():
    kappa = _transcription_kappa(DATA_DIR / "ecoli_transcription.txt")
    report(3, "E. coli transcription correlator", abs(kappa - (-0.0645)) <= 0.002,
           f"(kappa {kappa:.4f})")


@pytest.mark.skipif(
    not (DATA_DIR / "yeast_transcription.txt").exists(),
    reason="Yeast transcription dataset not bundled (data/yeast_transcription.txt)",
)
def test_criterion_3_yeast_dataset():
    kappa = _transcription_kappa(DATA_DIR / "yeast_transcription.txt")
    report(3, "Yeast transcription correlator", abs(kappa - (-0.0497)) <= 0.002,
           f"(kappa {kappa:.4f})")


def test_criterion_4_point_count_limits():
    started = time.perf_counter()
    n = 10_000
    p = np.linspace(1.0, 0.5, n)
    correlated = two_d(p, p)
    sizes, deltas = point_count_curve(correlated, n_values=np.arange(1, n + 1))
    correlated_ok = np.array_equal(deltas, np.arange(1, n + 1))

    rng = np.random.default_rng(9)
    shuffled = two_d(p, p[rng.permutation(n)])
    random_ok = True
    for m in (n // 10, n // 4, n // 2):
        mean = m * m / n
        sigma = np.sqrt(m * (m / n) * (1 - m / n) * (n - m) / (n - 1))
        random_ok = random_ok and abs(point_count(shuffled, m) - mean) < 5 * sigma
    elapsed = time.perf_counter() - started
    report(4, "point-count limits (correlated and random)",
           correlated_ok and random_ok and elapsed < 5.0, f"({elapsed:.2f}s)")


def test_criterion_5_analytic_fraction_monte_carlo():
    started = time.perf_counter()
    n, links = 100_000, 200_000
    k = np.arange(1, n + 1)
    worst = 0.0
    for a, nu in ((1.0, 0.0), (0.4, 0.0), (0.4, 0.8)):
        g = synth_rank_ensemble(n, links, a, nu, seed=11)
        for eta in (0.5, 1.0, 2.0, 5.0, 10.0):
            f = filter_links_by_rank(g, k, eta).fraction
            worst = max(worst, abs(f - analytic_fraction(eta, a, nu)))
    elapsed = time.perf_counter() - started
    report(5, "measured inversion fraction tracks the analytic model",
           worst < 0.02 and elapsed < 30.0,
           f"(worst {worst:.4f}, {elapsed:.1f}s)")


def test_criterion_6_filter_endpoints():
    tol = 1e-10
    worst = 0.0
    for name, g in fixture_graphs():
        base = pagerank(g, tol=tol)
        chei = cheirank(g, tol=tol)
        at_zero = filtered_cheirank(g, FilterConfig(eta=0.0, tol=tol))
        at_inf = filtered_cheirank(g, FilterConfig(eta=float("inf"), tol=tol))
        worst = max(
            worst,
            float(np.max(np.abs(at_zero.cheirank.probabilities - base.probabilities))),
            float(np.max(np.abs(at_inf.cheirank.probabilities - chei.probabilities))),
        )
    report(6, "filtered CheiRank endpoints match PageRank / CheiRank",
           worst <= 10 * tol, f"(worst {worst:.2e})")


def test_criterion_7_exponent_relation():
    started = time.perf_counter()
    g = synth_scale_free(10_000, 2.1, 2.7, seed=7)
    beta_in = fit_exponent(pagerank(g))
    beta_out = fit_exponent(cheirank(g))
    elapsed = time.perf_counter() - started
    report(
        7, "rank-decay exponents from degree exponents 2.1 / 2.7",
        0.75 <= beta_in <= 1.05 and 0.45 <= beta_out <= 0.75 and elapsed < 60.0,
        f"(beta={beta_in:.3f}, beta*={beta_out:.3f}, {elapsed:.1f}s)",
    )


def test_criterion_8_grid_and_flow_conservation():
    ok = True
    detail = ""
    for seed in range(3):
        g = bernoulli_graph(seed, n=60, density=0.08)
        r = TwoDRanking.compute(g)
        for scale in ("log", "linear"):
            grid = density_grid(r, cells=9, scale=scale)
            ok = ok and abs(grid.values.sum() - 1.0) < 1e-9
            field = compute_flow(g, r, cells=9, scale=scale)
            cx = bin_ranks(r.K, 60, 9, scale)
            cy = bin_ranks(r.Kstar, 60, 9, scale)
            raw_x = float(np.sum(cx[g.dst - 1] - cx[g.src - 1]))
            raw_y = float(np.sum(cy[g.dst - 1] - cy[g.src - 1]))
            ok = ok and abs(np.sum(field.dx * field.counts) - raw_x) < 1e-9
            ok = ok and abs(np.sum(field.dy * field.counts) - raw_y) < 1e-9
            # empty flags exactly where member nodes have no outgoing links
            outlinks = np.zeros((9, 9), dtype=int)
            np.add.at(outlinks, (cx[g.src - 1], cy[g.src - 1]), 1)
            ok = ok and np.array_equal(field.empty, (field.counts == 0) | (outlinks == 0))
    report(8, "density-grid and flow-field conservation", ok, detail)


def test_criterion_9_streaming_scale_proxy():
    # full-scale timings come from the benchmark in perfbench/; this proxy
    # keeps the gate fast while checking the same O(links) code path end
    # to end
    started = time.perf_counter()
    g = synth_scale_free(200_000, 2.1, 2.7, seed=1, links=2_000_000)
    r = TwoDRanking.compute(g)
    correlator_series(r, -5, 5)
    component_histogram(correlator_components(r))
    point_count_curve(r)
    density_grid(r, cells=100, scale="log")
    elapsed = time.perf_counter() - started
    peak_gb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1e6
    report(
        9, "rank + stats at streaming scale (proxy)",
        elapsed < 120.0 and peak_gb < 2.0,
        f"({g.link_count} links, {elapsed:.1f}s, peak rss {peak_gb:.2f} GB)",
    )


def test_criterion_10_cli_determinism(tmp_path):
    edges = tmp_path / "edges.txt"
    assert cli_main(["synth", "--nodes", "300", "--seed", "5",
                     "--out", str(tmp_path / "gen")]) == 0
    edges = tmp_path / "gen" / "edges.txt"
    blobs = []
    for sub in ("a", "b", "c"):
        out = tmp_path / sub
        assert cli_main(["rank", str(edges), "--out", str(out)]) == 0
        stats_out = tmp_path / f"{sub}_stats"
        assert cli_main(["stats", str(out / "ranks.tsv"),
                         "--out", str(stats_out)]) == 0
        blobs.append(
            (out / "ranks.tsv").read_bytes()
            + (stats_out / "correlator.tsv").read_bytes()
            + (stats_out / "components_hist.tsv").read_bytes()
            + (stats_out / "point_count.tsv").read_bytes()
        )
    report(10, "byte-identical CLI outputs across three reruns",
           blobs[0] == blobs[1] == blobs[2])
