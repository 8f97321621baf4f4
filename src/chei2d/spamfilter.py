"""Selective link inversion for manipulation-resistant CheiRank.

A link pointing at a much more popular node than its source is cheap to
plant and inflates the source's standing under plain reversal.  The
filters here invert only links that pass a popularity threshold, either
on PageRank probabilities (eta * P(src) > P(dst)) or directly on rank
indexes (K(src) < eta_k * K(dst)); the PageRank of the selectively
inverted graph is then the filtered CheiRank.  An analytic model of the
inverted-link fraction under a homogeneous link-density assumption is
included, together with a matching synthetic link ensemble.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .graph import DirectedGraph
from .ranking import (
    DEFAULT_ALPHA,
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    RankVector,
    _power_iteration,
    pagerank,
)

__all__ = [
    "FilterConfig",
    "FilterResult",
    "analytic_fraction",
    "check_eta",
    "filter_links_by_prob",
    "filter_links_by_rank",
    "filtered_cheirank",
    "measure_fraction_curve",
    "synth_rank_ensemble",
]

MODES = ("probability", "rank")


def check_eta(eta, name: str = "eta") -> None:
    """Raise ValueError unless every filter value in ``eta`` (a number or
    a sequence) is >= 0.  NaN and -inf are rejected; +inf is the limit
    that inverts every link."""
    if not np.all(np.asarray(eta, dtype=np.float64) >= 0):
        raise ValueError(f"{name} must be >= 0 (inf inverts every link), got {eta!r}")


@dataclass(frozen=True)
class FilterConfig:
    """Inversion-filter settings plus the iteration parameters used for
    the two PageRank computations around it.

    ``eta = inf`` is the all-links-inverted limit, which no finite eta
    reaches in probability mode since with teleportation every
    probability is positive.
    """

    mode: str = "probability"
    eta: float = 0.0
    alpha: float = DEFAULT_ALPHA
    tol: float = DEFAULT_TOL
    max_iter: int = DEFAULT_MAX_ITER

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        check_eta(self.eta)


@dataclass(frozen=True, eq=False)
class FilterResult:
    """Outcome of one filtering pass: the source graph and a read-only
    boolean ``mask``, one entry per link of ``source`` in its link order,
    True where the link is inverted: every link is either kept or
    reversed, never dropped or duplicated.  ``fraction`` is
    inverted_count / link_count (0 for an empty graph).  ``cheirank``
    and ``pagerank`` (the PageRank of the unfiltered graph that chose the
    inversions) are populated only by :func:`filtered_cheirank`.
    """

    source: DirectedGraph
    mask: np.ndarray
    cheirank: RankVector | None = None
    pagerank: RankVector | None = None

    @property
    def inverted_count(self) -> int:
        return int(np.count_nonzero(self.mask))

    @property
    def fraction(self) -> float:
        links = self.source.link_count
        return self.inverted_count / links if links else 0.0


def _inversion_mask(at_src: np.ndarray, at_dst: np.ndarray, eta: float, mode: str) -> np.ndarray:
    """Boolean per-link mask of inversions from the links' endpoint values.
    Strict inequalities: ties keep the original direction, so eta=0
    inverts nothing.  eta=inf takes the limit directly, so inf*0 is never
    evaluated."""
    if mode == "probability":
        if math.isinf(eta):
            return at_src > 0.0
        return eta * at_src > at_dst
    if math.isinf(eta):
        return np.ones(at_src.size, dtype=bool)
    return at_src < eta * at_dst


def _filter(g: DirectedGraph, values: np.ndarray, eta: float, mode: str) -> FilterResult:
    mask = np.empty(g.link_count, dtype=bool)
    for links, tails, heads in g.link_blocks():
        mask[links] = _inversion_mask(values[tails], values[heads], eta, mode)
    mask.setflags(write=False)
    return FilterResult(g, mask)


def filter_links_by_prob(g: DirectedGraph, p: RankVector, eta: float) -> FilterResult:
    """Reverse each link src->dst with eta * P(src) > P(dst), keep the rest.

    ``p`` must be the PageRank of ``g``.  eta=0 inverts nothing; eta=inf
    inverts every link whose source has positive probability (all of them
    under teleportation).
    """
    if p.node_count != g.node_count:
        raise ValueError("rank vector does not match the graph")
    check_eta(eta)
    return _filter(g, p.probabilities, eta, "probability")


def filter_links_by_rank(g: DirectedGraph, k_index, eta_k: float) -> FilterResult:
    """Reverse each link src->dst with K(src) < eta_k * K(dst).

    ``k_index`` is the 1-based rank per node.  eta_k=0 inverts nothing
    (no rank is below zero); eta_k large enough that eta_k * K exceeds N
    everywhere, eta_k=inf included, inverts all links.
    """
    k = np.asarray(k_index, dtype=np.float64)
    if k.shape != (g.node_count,):
        raise ValueError("rank index does not match the graph")
    check_eta(eta_k, "eta_k")
    return _filter(g, k, eta_k, "rank")


def filtered_cheirank(g: DirectedGraph, config: FilterConfig) -> FilterResult:
    """Filtered CheiRank of ``g``: rank, invert selectively, rank again.

    Computes the PageRank of the unfiltered graph, applies the configured
    filter to it once, then computes the PageRank of the filtered graph
    from ``g``'s own links with the selected ones swapped; no filtered
    graph is built.  The selected links are the only ones reversed: at
    eta=0 the result is the plain PageRank and at eta=inf the ordinary
    CheiRank, both bit for bit.
    """
    p = pagerank(g, alpha=config.alpha, tol=config.tol, max_iter=config.max_iter)
    if config.mode == "probability":
        result = filter_links_by_prob(g, p, config.eta)
    else:
        result = filter_links_by_rank(g, p.index, config.eta)
    chei = _power_iteration(g, config.alpha, config.tol, config.max_iter, reverse=result.mask)
    return replace(result, cheirank=chei, pagerank=p)


def analytic_fraction(eta_k: float, a: float, nu: float) -> float:
    """Model fraction of inverted links under the rank filter.

    Assumes links spread homogeneously along the source-rank axis while
    the destination rank K' is restricted to K' <= a*N with density
    decaying as 1/K'^nu.  Valid for 0 < a <= 1 and 0 <= nu < 1:

        f = (1-nu)/(2-nu) * a*eta_k                     for eta_k <= 1/a
        f = 1 + ((1-nu)/(2-nu) - 1) * (a*eta_k)^(nu-1)  for eta_k >  1/a

    Continuous at the knee eta_k = 1/a; at a=1, nu=0 the first branch is
    the triangle area eta_k/2.
    """
    if not 0.0 < a <= 1.0:
        raise ValueError("a must be in (0, 1]")
    if not 0.0 <= nu < 1.0:
        raise ValueError("nu must be in [0, 1)")
    if not eta_k >= 0:  # NaN included
        raise ValueError("eta_k must be >= 0")
    c = (1.0 - nu) / (2.0 - nu)
    x = a * eta_k
    if x <= 1.0:
        return c * x
    return 1.0 + (c - 1.0) * x ** (nu - 1.0)


def measure_fraction_curve(
    g: DirectedGraph,
    etas,
    mode: str = "probability",
    *,
    ranking: RankVector,
) -> np.ndarray:
    """Measured inverted-link fraction at each filter value.

    ``ranking`` is the PageRank of ``g``.  ``etas`` must be >= 0 and
    ascending (np.inf allowed as the last entries); the returned fractions
    are then non-decreasing because the inversion set only grows with the
    threshold.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    etas = np.asarray(etas, dtype=np.float64)
    if etas.ndim != 1 or etas.size == 0:
        raise ValueError("etas must be a non-empty vector")
    check_eta(etas, "etas")
    if np.any(np.diff(etas) < 0):
        raise ValueError("etas must be sorted ascending")
    if ranking.node_count != g.node_count:
        raise ValueError("rank vector does not match the graph")
    values = ranking.probabilities if mode == "probability" else ranking.index.astype(np.float64)
    inverted = np.zeros(etas.size, dtype=np.int64)
    for _, tails, heads in g.link_blocks():
        at_src, at_dst = values[tails], values[heads]
        for i, eta in enumerate(etas):
            inverted[i] += np.count_nonzero(_inversion_mask(at_src, at_dst, float(eta), mode))
    # a whole count over the link count, as a bool mask's mean divides it
    return inverted / g.link_count if g.link_count else np.zeros(etas.size)


def synth_rank_ensemble(
    node_count: int, links: int, a: float, nu: float, seed: int
) -> DirectedGraph:
    """Random link ensemble matching the :func:`analytic_fraction` model.

    Node ids double as rank positions (feed the identity permutation to
    the rank filter).  Sources are uniform over 1..N; destinations are
    restricted to 1..round(a*N) with density proportional to 1/K'^nu via
    inverse-CDF sampling.  Parallel links are kept so each sampled pair
    counts once in the measured fraction.
    """
    if node_count < 2:
        raise ValueError("node_count must be at least 2")
    if links < 1:
        raise ValueError("links must be positive")
    if not 0.0 < a <= 1.0:
        raise ValueError("a must be in (0, 1]")
    if not 0.0 <= nu < 1.0:
        raise ValueError("nu must be in [0, 1)")
    rng = np.random.default_rng(seed)
    k_max = max(1, int(round(a * node_count)))
    src = rng.integers(1, node_count + 1, size=links)
    u = rng.random(links)
    dst = np.ceil(k_max * u ** (1.0 / (1.0 - nu))).astype(np.int64)
    dst = np.clip(dst, 1, k_max)
    return DirectedGraph.from_links(node_count, src, dst, weighted=False, collapse=False)
