"""Statistics over a two-dimensional ranking.

Rank correlators and their per-node components, log-scale histograms,
node-density grids on the (K, K*) plane, coarse-grained renders of the
damped transition matrix in the rank basis, and power-law exponent fits
of rank-probability decays.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from ._bulk import write_rows
from .graph import DirectedGraph
from .ranking import DEFAULT_ALPHA, RankVector, TwoDRanking, normalized_links, tail_strength

__all__ = [
    "CorrelatorSeries",
    "DensityGrid",
    "ExponentFitError",
    "Histogram",
    "MatrixRender",
    "bin_ranks",
    "check_flag_sizes",
    "check_render_size",
    "component_histogram",
    "correlator",
    "correlator_components",
    "correlator_series",
    "density_grid",
    "fit_exponent",
    "matrix_density_render",
    "point_count",
    "point_count_curve",
]


class ExponentFitError(ValueError):
    """Too few usable points to fit a power-law exponent."""


def bin_ranks(ranks, node_count: int, cells: int, scale: str) -> np.ndarray:
    """Cell index for 1-based ranks on a ``cells``-wide axis.

    Log scale: floor(cells * log_N rank); linear: floor(cells * rank/N).
    Both clamp into [0, cells-1], so rank N lands in the last cell.
    """
    if cells < 1:
        raise ValueError("cells must be >= 1")
    r = np.asarray(ranks, dtype=np.float64)
    if scale == "log":
        if node_count < 2:
            raise ValueError("log binning needs at least 2 nodes")
        x = np.log(r) / np.log(node_count)
    elif scale == "linear":
        x = r / node_count
    else:
        raise ValueError("scale must be 'linear' or 'log'")
    idx = np.floor(cells * x).astype(np.int64)
    return np.clip(idx, 0, cells - 1)


# -- correlators -------------------------------------------------------------


def correlator(r: TwoDRanking, tau: int = 0) -> float:
    """Rank-shifted correlation between the paired probability vectors.

    kappa(tau) = N * sum_i P(K(i)+tau) * P*(K*(i)) - 1, where P is read
    by rank position and terms with K(i)+tau outside [1, N] are dropped
    (never wrapped).  kappa(0) uses all N terms and vanishes for uniform
    vectors; the drop rule bounds every value below by -1.
    """
    tau = int(tau)
    if abs(tau) >= r.node_count:
        raise ValueError("|tau| must be smaller than the node count")
    return _shifted_correlator(*_rank_aligned(r), tau)


def _rank_aligned(r: TwoDRanking) -> tuple[np.ndarray, np.ndarray]:
    """P by PageRank position, and P* of the node at each PageRank position."""
    return r.pagerank.probability_by_rank(), r.cheirank.probabilities[r.pagerank.order - 1]


def _shifted_correlator(p_by_rank: np.ndarray, pstar_at_rank: np.ndarray, tau: int) -> float:
    n = p_by_rank.size
    if tau >= 0:
        s = np.dot(p_by_rank[tau:], pstar_at_rank[: n - tau])
    else:
        s = np.dot(p_by_rank[: n + tau], pstar_at_rank[-tau:])
    return float(n * s - 1.0)


@dataclass(frozen=True, eq=False)
class CorrelatorSeries:
    """kappa(tau) sampled over a contiguous range of shifts."""

    tau: np.ndarray
    kappa: np.ndarray

    def to_tsv(self, fp) -> None:
        write_rows(fp, ["columns: tau kappa"], self.tau, self.kappa)


def correlator_series(
    r: TwoDRanking, tau_min: int = -100, tau_max: int = 100
) -> CorrelatorSeries:
    """kappa(tau) for every integer shift in [tau_min, tau_max], clipped
    to the valid window |tau| < N."""
    if tau_min > tau_max:
        raise ValueError("tau_min must not exceed tau_max")
    n = r.node_count
    lo = max(tau_min, -(n - 1))
    hi = min(tau_max, n - 1)
    taus = np.arange(lo, hi + 1, dtype=np.int64)
    aligned = _rank_aligned(r)
    kappas = np.array([_shifted_correlator(*aligned, int(t)) for t in taus])
    return CorrelatorSeries(taus, kappas)


def correlator_components(r: TwoDRanking) -> np.ndarray:
    """Per-node contributions N * P(i) * P*(i); their sum is kappa(0) + 1."""
    return r.node_count * r.pagerank.probabilities * r.cheirank.probabilities


# -- histograms --------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Histogram:
    """Counts over ascending bin edges plus an out-of-range tally."""

    edges: np.ndarray
    counts: np.ndarray
    out_of_range: int

    @property
    def n_samples(self) -> int:
        return int(self.counts.sum()) + self.out_of_range

    def to_tsv(self, fp) -> None:
        write_rows(
            fp,
            ["columns: lo_edge hi_edge count frequency", f"out_of_range={self.out_of_range}"],
            self.edges[:-1], self.edges[1:], self.counts,
            self.counts / max(self.n_samples, 1),
        )


def component_histogram(
    values, bins: int = 200, lo: float = 1e-8, hi: float = 1e2
) -> Histogram:
    """Histogram with equal-width bins in log10 space over [lo, hi],
    where ``0 < lo < hi`` and ``hi`` is finite.

    Bins are right-open except the last, which is closed so ``hi`` lands
    inside.  Values outside [lo, hi] (or non-finite) count toward
    ``out_of_range``.  Defaults match a 200-bin scan of [1e-8, 1e2].
    """
    if bins < 1:
        raise ValueError("bins must be >= 1")
    if not 0 < lo < hi:
        raise ValueError("need 0 < lo < hi")
    if not np.isfinite(hi):
        raise ValueError("hi must be finite")
    v = np.asarray(values, dtype=np.float64)
    log_lo, log_hi = np.log10(lo), np.log10(hi)
    edges = 10.0 ** np.linspace(log_lo, log_hi, bins + 1)
    edges[0], edges[-1] = lo, hi
    ok = np.isfinite(v) & (v >= lo) & (v <= hi)
    if v.size:
        x = (np.log10(v[ok]) - log_lo) / (log_hi - log_lo)
        idx = np.clip(np.floor(bins * x).astype(np.int64), 0, bins - 1)
        counts = np.bincount(idx, minlength=bins)
    else:
        counts = np.zeros(bins, dtype=np.int64)
    return Histogram(edges, counts, int(v.size - ok.sum()))


# -- point-count correlator --------------------------------------------------


def point_count(r: TwoDRanking, n: int) -> int:
    """Number of nodes with both K <= n and K* <= n.  Monotone in n,
    0 at n=0 and N at n=N."""
    n = int(n)
    if not 0 <= n <= r.node_count:
        raise ValueError("n must be in [0, node_count]")
    return int(np.count_nonzero((r.K <= n) & (r.Kstar <= n)))


def point_count_curve(r: TwoDRanking, n_values=None, points: int = 100):
    """Point counts at a set of square sizes (default: ``points``
    log-spaced sizes from 1 to N, always including N).  Returns
    (sizes, counts)."""
    N = r.node_count
    if n_values is None:
        if points < 1:
            raise ValueError("points must be >= 1")
        n_values = np.unique(
            np.clip(np.rint(np.logspace(0, np.log10(N), points)).astype(np.int64), 1, N)
        )
    else:
        n_values = np.asarray(n_values, dtype=np.int64)
        if n_values.size == 0 or n_values.min() < 0 or n_values.max() > N:
            raise ValueError("square sizes must lie in [0, node_count]")
    worst = np.sort(np.maximum(r.K, r.Kstar))
    deltas = np.searchsorted(worst, n_values, side="right")
    return n_values, deltas.astype(np.int64)


# -- density grids -----------------------------------------------------------


@dataclass(frozen=True, eq=False)
class DensityGrid:
    """Square grid of cell values over the (K, K*) plane or the rank-basis
    matrix.  ``values[i, j]`` has i along the K (or destination-rank) axis
    and j along the K* (or source-rank) axis; ``normalization`` records
    the grid total (1 for node densities, N for matrix renders)."""

    values: np.ndarray
    scale: str
    normalization: float

    @property
    def cells(self) -> int:
        return int(self.values.shape[0])

    def to_csv(self, fp) -> None:
        header = [
            f"scale={self.scale}",
            f"cells={self.cells}",
            f"normalization={self.normalization!r}",
        ]
        write_rows(fp, header, *self.values.T, sep=",")

    def to_json(self, fp) -> None:
        # json.dumps takes the C encoder; json.dump, the pure-Python one
        fp.write(json.dumps(
            {
                "scale": self.scale,
                "cells": self.cells,
                "normalization": self.normalization,
                "values": self.values.tolist(),
            },
            sort_keys=True,
        ))
        fp.write("\n")


def density_grid(
    r: TwoDRanking,
    cells: int = 100,
    scale: str = "log",
    divide_by_area: bool = False,
) -> DensityGrid:
    """Node density on a cells x cells grid over the (K, K*) plane.

    Cell values are node counts divided by N, so the grid sums to one.
    ``divide_by_area`` instead divides each count by the number of
    (K, K*) lattice positions the cell covers (a display variant whose
    total is not normalized).
    """
    n = r.node_count
    if n < 2:
        raise ValueError("density grid needs at least 2 nodes")
    ix = bin_ranks(r.K, n, cells, scale)
    iy = bin_ranks(r.Kstar, n, cells, scale)
    counts = np.bincount(ix * cells + iy, minlength=cells * cells).reshape(cells, cells)
    if divide_by_area:
        per_axis = np.bincount(
            bin_ranks(np.arange(1, n + 1), n, cells, scale), minlength=cells
        )
        area = np.outer(per_axis, per_axis).astype(np.float64)
        values = np.divide(
            counts, area, out=np.zeros_like(area), where=area > 0
        )
    else:
        values = counts / n
    return DensityGrid(values, scale, float(values.sum()))


@dataclass(frozen=True, eq=False)
class MatrixRender:
    """Coarse-grained matrix density plus the raw top-left block."""

    coarse: DensityGrid
    raw: np.ndarray


def check_render_size(cells: int, raw_window: int) -> None:
    """Raise ValueError unless ``cells >= 1`` and ``raw_window >= 0``."""
    if cells < 1:
        raise ValueError("cells must be >= 1")
    if raw_window < 0:
        raise ValueError("raw_window must be >= 0")


# The sizes the CLI takes from its flags, each as (least, most).  A cells x
# cells grid, or a raw window, of float64 is then at most 32 MB, and a
# bins- or points-long vector 8 MB.
_FLAG_SIZES = {"cells": (1, 2000), "raw_window": (0, 2000),
               "bins": (1, 1_000_000), "points": (1, 1_000_000)}


def check_flag_sizes(**sizes: int) -> None:
    """Raise ValueError unless each size given by name (``cells``,
    ``raw_window``, ``bins``, ``points``) lies in its range, so that no
    flag asks for an allocation beyond its bound; checked before any
    input is read."""
    for name, value in sizes.items():
        least, most = _FLAG_SIZES[name]
        if value < least:
            raise ValueError(f"{name} must be >= {least}")
        if value > most:
            raise ValueError(f"{name} must be <= {most}")


def matrix_density_render(
    g: DirectedGraph,
    k_index,
    cells: int = 500,
    alpha: float = DEFAULT_ALPHA,
    raw_window: int = 200,
) -> MatrixRender:
    """Damped-matrix density in the rank basis, coarse-grained on square
    cells.

    The underlying element at (row, col) is the transition weight into
    the node of rank ``row`` from the node of rank ``col``; the grid sums
    the elements each cell covers, teleportation floor included, so the
    grid totals N.  ``raw`` is the top raw_window x raw_window block
    without coarse graining (clamped to N).
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must be in (0, 1]")
    check_render_size(cells, raw_window)
    n = g.node_count
    k = np.asarray(k_index, dtype=np.int64)
    if k.shape != (n,) or not np.array_equal(np.sort(k), np.arange(1, n + 1)):
        raise ValueError("k_index must be a permutation of 1..node_count")
    raw_window = min(int(raw_window), n)
    block = (k - 1) * cells // n
    ranks_per_block = np.bincount(np.arange(n) * cells // n, minlength=cells)
    strength = tail_strength(g)
    dangling = np.flatnonzero(strength == 0.0)

    grid = ((1.0 - alpha) / n) * np.outer(ranks_per_block, ranks_per_block)
    dangling_cols = np.bincount(block[dangling], minlength=cells)
    grid += (alpha / n) * np.outer(ranks_per_block, dangling_cols)
    raw = np.full((raw_window, raw_window), (1.0 - alpha) / n)
    # k is a permutation, so no column is named twice
    raw[:, k[dangling[k[dangling] <= raw_window]] - 1] += alpha / n

    # Links are added in link order, each cell's as one bincount over all
    # links would add them, to a zero grid that then joins the floor.
    links_grid = np.zeros(cells * cells)
    for links, tails, heads in g.link_blocks():
        vals = normalized_links(strength[tails], g.weight[links], alpha)
        cell = block[heads] * cells
        cell += block[tails]
        np.add.at(links_grid, cell, vals)
        k_src, k_dst = k[tails], k[heads]
        in_window = (k_src <= raw_window) & (k_dst <= raw_window)
        np.add.at(raw, (k_dst[in_window] - 1, k_src[in_window] - 1), vals[in_window])
    grid += links_grid.reshape(cells, cells)
    return MatrixRender(DensityGrid(grid, "linear", float(grid.sum())), raw)


# -- exponent fits -----------------------------------------------------------


def fit_exponent(p: RankVector, k_min: int = 10, k_max: int | None = None) -> float:
    """Power-law exponent of the rank-probability decay.

    Least-squares slope of log P against log K over rank positions
    [k_min, k_max] (default upper end N/10, skipping the flattened head
    and the depleted tail).  Returns beta > 0 for decaying profiles.
    Zero probabilities are excluded; fewer than 10 surviving points raise
    :class:`ExponentFitError`.
    """
    n = p.node_count
    if k_max is None:
        k_max = n // 10
    if not 1 <= k_min < k_max <= n:
        raise ValueError("need 1 <= k_min < k_max <= node_count")
    ranks = np.arange(k_min, k_max + 1, dtype=np.float64)
    vals = p.probability_by_rank()[k_min - 1 : k_max]
    mask = vals > 0
    if int(mask.sum()) < 10:
        raise ExponentFitError("fewer than 10 positive points in the fit range")
    slope = np.polyfit(np.log(ranks[mask]), np.log(vals[mask]), 1)[0]
    return float(-slope)
