"""Directed graphs over 1-based node ids.

Edge-list ingestion with duplicate collapsing, degree caches, link
reversal, byte-stable serialization and a seeded scale-free generator.
Graphs are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import io
import math
from array import array
from dataclasses import dataclass
from functools import cached_property
from typing import IO

import numpy as np

from ._bulk import leading_block_end, load_rows

__all__ = [
    "DirectedGraph",
    "EdgeListParseError",
    "GenerationError",
    "parse_edge_list",
    "read_edge_list",
    "serialize_edge_list",
    "write_edge_list",
    "synth_scale_free",
]

# Node ids and counts are stored as int64.
_MAX_ID = int(np.iinfo(np.int64).max)
# One link row of the bulk edge-list parse: exactly two integer ids.
_LINK_ROW = np.dtype([("src", np.int64), ("dst", np.int64)])


class EdgeListParseError(ValueError):
    """Malformed edge-list line; ``lineno`` is the offending 1-based line."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


class GenerationError(RuntimeError):
    """A synthetic degree sequence could not be realized."""


def _in_order(*keys: np.ndarray) -> bool:
    """Whether rows are in lexicographic order of ``keys``, the first key
    most significant.  An O(n) check that lets already-sorted links (an
    edge list written by :func:`serialize_edge_list`, for one) skip a
    stable sort, which would leave them unchanged."""
    tied = np.ones(keys[0].size - 1, dtype=bool)
    for key in keys:
        prev, cur = key[:-1], key[1:]
        if np.any(tied & (cur < prev)):
            return False
        tied &= cur == prev
    return True


@dataclass(frozen=True, eq=False)
class DirectedGraph:
    """A directed graph with nodes ``1 .. node_count``.

    Links are parallel arrays (src, dst, weight) kept sorted by
    (src, dst, weight).  Graphs built through :func:`parse_edge_list` or
    :meth:`from_links` have duplicate (src, dst) pairs collapsed (binary
    adjacency; weights summed in weighted mode).  Graphs assembled
    directly from arrays, e.g. by the link-inversion filter, may carry
    parallel links; each one then counts separately toward degrees and
    column normalization.

    Self-loops are legal and kept by default.  Node ids never appearing
    in a link are valid dangling nodes.
    """

    node_count: int
    src: np.ndarray
    dst: np.ndarray
    weight: np.ndarray
    weighted: bool = False
    collapsed_duplicates: int = 0

    def __post_init__(self):
        if self.node_count < 1:
            raise ValueError("node_count must be a positive integer")
        src = np.ascontiguousarray(self.src, dtype=np.int64)
        dst = np.ascontiguousarray(self.dst, dtype=np.int64)
        weight = np.ascontiguousarray(self.weight, dtype=np.float64)
        if not (src.ndim == dst.ndim == weight.ndim == 1):
            raise ValueError("link arrays must be one-dimensional")
        if not (src.size == dst.size == weight.size):
            raise ValueError("link arrays must have equal length")
        if src.size:
            if min(src.min(), dst.min()) < 1 or max(src.max(), dst.max()) > self.node_count:
                raise ValueError("link endpoint outside [1, node_count]")
            if not np.all(np.isfinite(weight)) or np.any(weight <= 0):
                raise ValueError("link weights must be positive and finite")
            if _in_order(src, dst, weight):
                # Copy as the sort would have: a graph never shares (and
                # then freezes) arrays its caller still holds.
                src, dst, weight = src.copy(), dst.copy(), weight.copy()
            else:
                order = np.lexsort((weight, dst, src))
                src, dst, weight = src[order], dst[order], weight[order]
        for arr in (src, dst, weight):
            arr.setflags(write=False)
        object.__setattr__(self, "src", src)
        object.__setattr__(self, "dst", dst)
        object.__setattr__(self, "weight", weight)

    # -- basic queries -----------------------------------------------------

    @property
    def link_count(self) -> int:
        return int(self.src.size)

    @cached_property
    def out_degree(self) -> np.ndarray:
        """Outgoing link count per node (index 0 holds node 1)."""
        deg = np.bincount(self.src, minlength=self.node_count + 1)[1:]
        deg.setflags(write=False)
        return deg

    @cached_property
    def in_degree(self) -> np.ndarray:
        """Incoming link count per node (index 0 holds node 1)."""
        deg = np.bincount(self.dst, minlength=self.node_count + 1)[1:]
        deg.setflags(write=False)
        return deg

    @cached_property
    def out_strength(self) -> np.ndarray:
        """Sum of outgoing link weights per node."""
        s = np.bincount(self.src, weights=self.weight, minlength=self.node_count + 1)[1:]
        s.setflags(write=False)
        return s

    @cached_property
    def dangling_nodes(self) -> np.ndarray:
        """0-based indices of nodes without outgoing links."""
        idx = np.flatnonzero(self.out_degree == 0)
        idx.setflags(write=False)
        return idx

    def reverse(self) -> "DirectedGraph":
        """Graph with every link direction flipped.  An involution that
        swaps the in- and out-degree vectors exactly."""
        return DirectedGraph(
            self.node_count, self.dst, self.src, self.weight, weighted=self.weighted
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, DirectedGraph):
            return NotImplemented
        return (
            self.node_count == other.node_count
            and self.weighted == other.weighted
            and np.array_equal(self.src, other.src)
            and np.array_equal(self.dst, other.dst)
            and np.array_equal(self.weight, other.weight)
        )

    # -- construction ------------------------------------------------------

    @classmethod
    def from_links(
        cls,
        node_count: int,
        src,
        dst,
        weight=None,
        *,
        weighted: bool = False,
        collapse: bool = True,
    ) -> "DirectedGraph":
        """Build a graph from link arrays.

        With ``collapse`` (the ingestion default) duplicate (src, dst)
        pairs merge into one link: weights are summed in weighted mode and
        forced to 1 otherwise.  ``collapse=False`` keeps the multiset.
        """
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        if weight is None:
            weight = np.ones(src.size, dtype=np.float64)
        else:
            weight = np.asarray(weight, dtype=np.float64)
        if not collapse:
            return cls(node_count, src, dst, weight, weighted=weighted)
        if not src.size:
            return cls(node_count, src, dst, weight, weighted=weighted)
        if _in_order(src, dst):
            s, d, w = src, dst, weight
        else:
            order = np.lexsort((dst, src))
            s, d, w = src[order], dst[order], weight[order]
        starts = np.concatenate(([True], (s[1:] != s[:-1]) | (d[1:] != d[:-1])))
        first = np.flatnonzero(starts)
        if weighted:
            merged = np.add.reduceat(w, first)
        else:
            merged = np.ones(first.size, dtype=np.float64)
        return cls(
            node_count,
            s[first],
            d[first],
            merged,
            weighted=weighted,
            collapsed_duplicates=int(s.size - first.size),
        )


def parse_edge_list(
    source: str | IO[str],
    *,
    weighted: bool = False,
    drop_self_loops: bool = False,
) -> DirectedGraph:
    """Parse ``"src dst [weight]"`` lines into a :class:`DirectedGraph`.

    Lines starting with ``#`` are comments; blank lines are skipped.  An
    optional header line ``N <count>`` declares the node count, otherwise
    it is the largest id seen (the larger of the two when both apply).
    Duplicate (src, dst) pairs collapse to one link, with weights summed
    in weighted mode.  In unweighted mode a third column is ignored.

    Raises :class:`EdgeListParseError` for malformed lines and
    :class:`ValueError` for out-of-domain values (non-positive ids,
    non-positive weights, empty input without a header).
    """
    text = source if isinstance(source, str) else source.read()
    start = leading_block_end(text, _is_head_line)
    links = load_rows(text[start:], b"", _LINK_ROW)
    if links is None or min(links["src"].min(), links["dst"].min()) < 1:
        declared, max_id, src, dst, weight = _parse_lines(io.StringIO(text), drop_self_loops)
    else:
        declared, *_ = _parse_lines(io.StringIO(text[:start]), drop_self_loops)
        src, dst = links["src"], links["dst"]
        max_id = int(max(src.max(), dst.max()))
        if drop_self_loops:
            keep = src != dst
            src, dst = src[keep], dst[keep]
        weight = None
    if max_id == 0 and declared is None:
        raise ValueError("empty edge list and no 'N <count>' header")
    node_count = max(max_id, declared or 0)
    return DirectedGraph.from_links(
        node_count, src, dst, weight if weighted else None, weighted=weighted
    )


def _is_head_line(line: str) -> bool:
    return not line or line.startswith("#") or line.split()[0] == "N"


def _parse_lines(lines, drop_self_loops: bool):
    """The line loop: (declared count or None, largest id, src, dst, weight)."""
    declared: int | None = None
    srcs, dsts, ws = array("q"), array("q"), array("d")
    max_id = 0
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if tokens[0] == "N":
            if len(tokens) != 2:
                raise EdgeListParseError(lineno, "header must be 'N <count>'")
            if declared is not None:
                raise EdgeListParseError(lineno, "duplicate node-count header")
            try:
                declared = int(tokens[1])
            except ValueError:
                raise EdgeListParseError(lineno, "node count must be an integer") from None
            if declared < 1:
                raise ValueError(f"line {lineno}: declared node count must be positive")
            if declared > _MAX_ID:
                raise EdgeListParseError(lineno, "node count exceeds the int64 range")
            continue
        if len(tokens) not in (2, 3):
            raise EdgeListParseError(
                lineno, f"expected 'src dst [weight]', got {len(tokens)} fields"
            )
        try:
            s, d = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise EdgeListParseError(lineno, "node ids must be integers") from None
        if s < 1 or d < 1:
            raise ValueError(f"line {lineno}: node ids must be positive")
        if s > _MAX_ID or d > _MAX_ID:
            raise EdgeListParseError(lineno, "node id exceeds the int64 range")
        w = 1.0
        if len(tokens) == 3:
            try:
                w = float(tokens[2])
            except ValueError:
                raise EdgeListParseError(lineno, "weight must be a real number") from None
            if not math.isfinite(w) or w <= 0:
                raise ValueError(f"line {lineno}: weight must be positive and finite")
        max_id = max(max_id, s, d)
        if drop_self_loops and s == d:
            continue
        srcs.append(s)
        dsts.append(d)
        ws.append(w)
    return (
        declared,
        max_id,
        np.frombuffer(srcs, dtype=np.int64),
        np.frombuffer(dsts, dtype=np.int64),
        np.frombuffer(ws, dtype=np.float64),
    )


def read_edge_list(path, **kwargs) -> DirectedGraph:
    """:func:`parse_edge_list` from a file path (UTF-8)."""
    with open(path, "r", encoding="utf-8") as fp:
        return parse_edge_list(fp, **kwargs)


def serialize_edge_list(g: DirectedGraph) -> str:
    """Byte-stable edge-list text: header, then links sorted by (src, dst).

    Weighted graphs carry a third column with full float precision.
    Parallel links serialize as repeated lines and will collapse again on
    re-parse; only collapsed graphs round-trip identically.
    """
    lines = [f"N {g.node_count}"]
    if g.weighted:
        lines.extend(
            f"{s} {d} {float(w)!r}" for s, d, w in zip(g.src, g.dst, g.weight)
        )
    else:
        lines.extend(f"{s} {d}" for s, d in zip(g.src, g.dst))
    return "\n".join(lines) + "\n"


def write_edge_list(g: DirectedGraph, path) -> None:
    with open(path, "w", encoding="utf-8") as fp:
        fp.write(serialize_edge_list(g))


def synth_scale_free(
    node_count: int,
    mu_in: float,
    mu_out: float,
    seed: int,
    *,
    links: int | None = None,
) -> DirectedGraph:
    """Random directed graph with power-law in/out-degree tails.

    Degree sequences are drawn from discrete power laws with exponents
    ``mu_in`` and ``mu_out`` and paired configuration-model style: each
    node contributes one stub per unit of degree and in-stubs are matched
    against a random permutation of out-stubs.  Stub totals are balanced
    by redistributing the out side multinomially over its sampled
    weights, so the pairing is always feasible; with ``links`` given,
    both sides are multinomial over power-law weights and the stub total
    is exactly ``links``.  Parallel pairs collapse to binary links and
    self-loops are kept.  Deterministic for a fixed seed.
    """
    if node_count < 10:
        raise ValueError("node_count must be at least 10")
    if mu_in <= 1 or mu_out <= 1:
        raise ValueError("power-law exponents must exceed 1")
    rng = np.random.default_rng(seed)
    ids = np.arange(1, node_count + 1, dtype=np.int64)
    if links is None:
        din = np.minimum(rng.zipf(mu_in, node_count), node_count)
        total = int(din.sum())
        w_out = rng.zipf(mu_out, node_count).astype(np.float64)
        dout = rng.multinomial(total, w_out / w_out.sum())
    else:
        if links < 1:
            raise ValueError("links must be positive")
        total = int(links)
        w_in = rng.zipf(mu_in, node_count).astype(np.float64)
        w_out = rng.zipf(mu_out, node_count).astype(np.float64)
        din = rng.multinomial(total, w_in / w_in.sum())
        dout = rng.multinomial(total, w_out / w_out.sum())
    if total <= 0 or int(dout.sum()) != total:
        raise GenerationError("stub totals could not be balanced")
    dst_stubs = np.repeat(ids, din)
    src_stubs = np.repeat(ids, dout)
    dst_stubs = dst_stubs[rng.permutation(total)]
    return DirectedGraph.from_links(node_count, src_stubs, dst_stubs, weighted=False)
