"""Link-direction flow field on the (K, K*) plane.

Every node sits in a grid cell determined by its two rank indexes; each
outgoing link contributes the cell-displacement vector toward its
destination, and the per-cell sum is averaged over the nodes inside the
cell.  Cells without member nodes, or whose members have no outgoing
links at all, are flagged empty to keep them distinct from cells whose
links genuinely average to zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._bulk import write_rows
from .graph import DirectedGraph
from .ranking import TwoDRanking
from .stats import bin_ranks

__all__ = ["FlowField", "compute_flow", "fixed_point_cell"]


@dataclass(frozen=True, eq=False)
class FlowField:
    """Average displacement vector per cell, in cell units.

    ``counts[i, j]`` is the number of member nodes of cell (i, j) with i
    along the K axis; ``dx``/``dy`` hold the average displacement (zero
    where ``empty``).
    """

    scale: str
    counts: np.ndarray
    dx: np.ndarray
    dy: np.ndarray
    empty: np.ndarray

    @property
    def cells(self) -> int:
        return int(self.counts.shape[0])

    @property
    def amplitude(self) -> np.ndarray:
        return np.hypot(self.dx, self.dy)

    def to_tsv(self, fp) -> None:
        header = [
            f"scale={self.scale}",
            f"cells={self.cells}",
            "columns: i istar n dx dy amplitude empty",
        ]
        i, j = np.indices(self.counts.shape)
        write_rows(
            fp, header, i.ravel(), j.ravel(), self.counts.ravel(), self.dx.ravel(),
            self.dy.ravel(), self.amplitude.ravel(), self.empty.ravel(),
        )


def compute_flow(
    g: DirectedGraph,
    r: TwoDRanking,
    cells: int,
    scale: str = "log",
    per_link_average: bool = False,
) -> FlowField:
    """Flow field of the graph's links over the ranked plane.

    Uses the same rank binning as the density grid.  Each link adds the
    vector (destination cell - source cell) to its source cell; the sum
    is divided by the cell's node count (dangling members dilute the
    average), or by its link count with ``per_link_average``.  Link
    weights are ignored: every link contributes one vector.
    """
    n = r.node_count
    if g.node_count != n:
        raise ValueError("graph and ranking cover different node sets")
    cx = bin_ranks(r.K, n, cells, scale)
    cy = bin_ranks(r.Kstar, n, cells, scale)
    shape = (cells, cells)
    size = cells * cells
    cell = cx * cells + cy
    counts = np.bincount(cell, minlength=size).reshape(shape)

    link_counts = np.zeros(size, dtype=np.int64)
    dst_sums = np.zeros((2, size))  # per source cell, each axis's destination coordinates
    for _, tails, heads in g.link_blocks():
        source_cell = cell[tails]
        link_counts += np.bincount(source_cell, minlength=size)
        for total, c in zip(dst_sums, (cx, cy)):
            total += np.bincount(source_cell, weights=c[heads], minlength=size)
    link_counts = link_counts.reshape(shape)
    # Each link adds its destination's coordinate and takes away its
    # source cell's; whole numbers, so the sums are exact in any order.
    sum_x, sum_y = (total.reshape(shape) - link_counts * at_cell
                    for total, at_cell in zip(dst_sums, np.indices(shape)))

    empty = (counts == 0) | (link_counts == 0)
    denom = (link_counts if per_link_average else counts).astype(np.float64)
    ok = ~empty
    dx = np.divide(sum_x, denom, out=np.zeros(shape), where=ok)
    dy = np.divide(sum_y, denom, out=np.zeros(shape), where=ok)
    return FlowField(scale, counts, dx, dy, empty)


def fixed_point_cell(field: FlowField) -> tuple[int, int] | None:
    """Cell of minimum amplitude among occupied non-empty cells, a
    diagnostic for the attractor of the average flow.  Ties resolve to
    the first cell in row-major order; None when every cell is empty."""
    ok = ~field.empty
    if not ok.any():
        return None
    amp = np.where(ok, field.amplitude, np.inf)
    flat = int(np.argmin(amp))
    return flat // field.cells, flat % field.cells
