"""Two-dimensional ranking of directed networks.

PageRank orders nodes by how often incoming links are followed into
them; CheiRank does the same on the reversed graph, capturing outgoing
communicativity.  This package computes both by sparse power iteration
and provides the statistical apparatus over the paired ranking:
correlators, density grids, information-flow fields, combined 2D
ordering and spam-resistant filtered CheiRank.
"""

from .graph import (
    DirectedGraph,
    EdgeListParseError,
    GenerationError,
    parse_edge_list,
    read_edge_list,
    synth_scale_free,
    write_edge_list,
)
from .ranking import (
    DEFAULT_ALPHA,
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    RankVector,
    StochasticOperator,
    TwoDRanking,
    cheirank,
    pagerank,
    rank_order,
)
from .stats import (
    CorrelatorSeries,
    DensityGrid,
    ExponentFitError,
    Histogram,
    MatrixRender,
    bin_ranks,
    component_histogram,
    correlator,
    correlator_components,
    correlator_series,
    density_grid,
    fit_exponent,
    matrix_density_render,
    point_count,
    point_count_curve,
)
from .flow import FlowField, compute_flow, fixed_point_cell
from .spamfilter import (
    FilterConfig,
    FilterResult,
    analytic_fraction,
    filter_links_by_prob,
    filter_links_by_rank,
    filtered_cheirank,
    measure_fraction_curve,
    synth_rank_ensemble,
)
from .twodrank import LocalRanks, TwoDRankOrder, local_rank, two_d_rank
from .tableio import read_rank_table, write_rank_table

__version__ = "0.1.0"
