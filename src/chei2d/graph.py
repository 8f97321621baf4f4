"""Directed graphs over 1-based node ids.

A graph is one CSR layout by source, in scipy's index dtype: ``indptr``
(N + 1 offsets) and ``heads`` (0-based destinations), the indices of
CheiRank's matrix as they stand.  Link sources and 1-based ``dst`` are
derived on read, and unit weights are implicit.  Every graph is built
by :meth:`DirectedGraph.from_links`, the one place that sorts, collapses
and checks links, or by the edge-list reader straight from sorted text;
both end in one layout-assembly step.  Also here: edge-list ingestion in
blocks, byte-stable serialization and a seeded scale-free generator.
Graphs are immutable and thread-safe.
"""

from __future__ import annotations

import io
import math
from array import array
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import IO

import numpy as np

from ._bulk import (
    decode_file,
    decode_text,
    encode_text,
    leading_block_end,
    load_rows,
    write_rows,
)

__all__ = [
    "DirectedGraph",
    "EdgeListParseError",
    "GenerationError",
    "parse_edge_list",
    "read_edge_list",
    "write_edge_list",
    "synth_scale_free",
]

# Node ids and counts are read as int64.
_MAX_ID = int(np.iinfo(np.int64).max)
_MAX_INT32 = int(np.iinfo(np.int32).max)
# The link rows of the bulk edge-list parse: two integer ids, then a weight.
_LINK_ROW = np.dtype([("src", np.int64), ("dst", np.int64)])
_WEIGHTED_LINK_ROW = np.dtype([("src", np.int64), ("dst", np.int64), ("weight", np.float64)])
# Links per block of :meth:`DirectedGraph.link_blocks`, a few MB of
# per-link temporaries for the passes that walk the links.
_BLOCK_LINKS = 1 << 17
# Bytes an edge-list read takes from its file at once; the block of lines
# cut from them and its parse hold about seven times that.
_READ_BYTES = 1 << 18


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
    edge list written by :func:`write_edge_list`, for one) skip a
    stable sort, which would leave them unchanged."""
    tied = np.ones(max(keys[0].size - 1, 0), dtype=bool)
    for key in keys:
        prev, cur = key[:-1], key[1:]
        if np.any(tied & (cur < prev)):
            return False
        tied &= cur == prev
    return True


def _row_ends(src: np.ndarray, offset: int = 0):
    """(sources, ends) of sorted link sources: each source once, with the
    index just past its last link, links counted from ``offset``."""
    last = np.append(np.flatnonzero(src[1:] != src[:-1]), src.size - 1)
    return src[last], last + (offset + 1)


def _index_dtype(node_count: int, link_count: int) -> np.dtype:
    """scipy's index dtype for an N x N matrix of ``link_count`` entries,
    which it then takes as indices without a copy: int32, unless the node
    or link count exceeds it."""
    return np.dtype(np.int32 if max(node_count, link_count) <= _MAX_INT32 else np.int64)


@dataclass(frozen=True, eq=False, init=False)
class DirectedGraph:
    """A directed graph with nodes ``1 .. node_count``, stored as a CSR
    layout by source.

    Links are kept sorted by (src, dst, weight).  ``heads`` (each link's
    0-based destination) and ``weight`` list them in that order, and node
    ``i``'s out-links are the slice ``indptr[i - 1]:indptr[i]``; both
    index arrays are int32 unless a count needs int64.  ``src`` and the
    1-based int64 ``dst`` are derived on every read and never stored.
    An unweighted graph's unit weights are implicit: ``weight`` is a
    read-only view of a single 1.0.  So a graph holds 4 bytes per link
    (12 when weighted) plus 4 per node, twice that with int64 indices.

    :meth:`from_links` is the only public constructor; calling the class
    raises TypeError.  It takes links as (src, dst, weight) arrays in any
    order and sorts them by (src, dst), and a weighted graph's parallel
    links kept by ``collapse=False`` by weight as well.  An unweighted
    graph drops any weights it is given.  By default duplicate (src, dst)
    pairs collapse (binary adjacency; weights summed in the order given
    in weighted mode), as every reader and the generator build them.  A
    graph built with ``collapse=False``, e.g. the link-inversion filter's,
    may carry parallel links; each one then counts separately toward
    degrees and column normalization.

    Self-loops are legal and kept by default.  Node ids never appearing
    in a link are valid dangling nodes.
    """

    node_count: int
    indptr: np.ndarray
    heads: np.ndarray
    weight: np.ndarray
    weighted: bool
    collapsed_duplicates: int

    def __post_init__(self):
        """Freeze the layout; runs once for every graph built."""
        for arr in (self.indptr, self.heads, self.weight):
            arr.setflags(write=False)

    # -- basic queries -----------------------------------------------------

    @property
    def link_count(self) -> int:
        return int(self.heads.size)

    @property
    def src(self) -> np.ndarray:
        """Each link's source, derived from ``indptr`` on every read."""
        src = self.at_source(np.arange(1, self.node_count + 1))
        src.setflags(write=False)
        return src

    @property
    def dst(self) -> np.ndarray:
        """Each link's 1-based destination as int64, derived from
        ``heads`` on every read."""
        dst = self.heads.astype(np.int64)
        dst += 1
        dst.setflags(write=False)
        return dst

    def at_source(self, values) -> np.ndarray:
        """``values[src - 1]``, one entry per link from ``values`` (one
        per node) taken at the link's source, without building ``src``."""
        return np.repeat(values, self.out_degree)

    def link_blocks(self):
        """Walk the links in blocks of whole rows: yield ``(links, tails,
        heads)`` for runs of rows of about ``_BLOCK_LINKS`` links, a row
        longer than that in a block of its own.  ``links`` is the slice of
        the block's links in link order, ``tails`` their 0-based sources
        (int64) and ``heads`` their 0-based destinations, a view of
        :attr:`heads`.  Rows after the last link are never visited, so an
        empty graph yields nothing."""
        indptr, degree = self.indptr, self.out_degree
        start = 0
        while start < self.link_count:
            # the row of link `start`, past any empty rows that end there
            row = int(np.searchsorted(indptr, start, side="right")) - 1
            # the last row end within one block's reach, at least that row's;
            # the reach is capped at the link count, which fits indptr's dtype
            reach = min(start + _BLOCK_LINKS, self.link_count)
            end = max(int(np.searchsorted(indptr, reach, side="right")) - 1, row + 1)
            links = slice(start, int(indptr[end]))
            yield links, np.repeat(np.arange(row, end), degree[row:end]), self.heads[links]
            start = links.stop

    @cached_property
    def out_degree(self) -> np.ndarray:
        """Outgoing link count per node (index 0 holds node 1), int64 as
        ``in_degree`` is, whatever the dtype of ``indptr``."""
        deg = np.diff(self.indptr).astype(np.int64)
        deg.setflags(write=False)
        return deg

    @cached_property
    def in_degree(self) -> np.ndarray:
        """Incoming link count per node (index 0 holds node 1)."""
        deg = np.bincount(self.heads, minlength=self.node_count)
        deg.setflags(write=False)
        return deg

    def __eq__(self, other) -> bool:
        if not isinstance(other, DirectedGraph):
            return NotImplemented
        return (
            self.node_count == other.node_count
            and self.weighted == other.weighted
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.heads, other.heads)
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
        """Build a graph from link arrays in any order.

        Without ``weighted`` every weight is 1, whatever ``weight`` holds.
        With ``collapse`` (the ingestion default) duplicate (src, dst)
        pairs merge into one link, weights summed in the order given.
        ``collapse=False`` keeps the multiset, a weighted graph's parallel
        links sorted by weight.
        """
        if weight is None or not weighted:
            weight = np.broadcast_to(1.0, (np.size(src),))
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        weight = np.asarray(weight, dtype=np.float64)
        if not (src.ndim == dst.ndim == weight.ndim == 1):
            raise ValueError("link arrays must be one-dimensional")
        if not (src.size == dst.size == weight.size):
            raise ValueError("link arrays must have equal length")
        keys = (src, dst, weight) if weighted and not collapse else (src, dst)
        in_order = _in_order(*keys)
        if not in_order:
            order = np.lexsort(keys[::-1])
            src, dst = src[order], dst[order]
            if weighted:
                weight = weight[order]
            del order  # 8 B/link that nothing below needs
        collapsed = 0
        if collapse and src.size:
            starts = np.concatenate(([True], (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])))
            collapsed = int(src.size - np.count_nonzero(starts))
            if collapsed:
                first = np.flatnonzero(starts)
                src, dst = src[first], dst[first]
                if weighted:
                    weight = np.add.reduceat(weight, first)
        if weighted and in_order and not collapsed:
            weight = weight.copy()  # the copy a sort or a merge would have made
        if node_count < 1:
            raise ValueError("node_count must be a positive integer")
        if src.size:
            if min(src[0], dst.min()) < 1 or max(src[-1], dst.max()) > node_count:
                raise ValueError("link endpoint outside [1, node_count]")
            if weighted and (not np.all(np.isfinite(weight)) or np.any(weight <= 0)):
                raise ValueError("link weights must be positive and finite")
        heads = dst.astype(_index_dtype(node_count, dst.size))  # a copy, whatever the dtype
        heads -= 1
        rows = [_row_ends(src)] if src.size else []
        return cls._assemble(node_count, rows, heads, weight if weighted else None, collapsed)

    @classmethod
    def _assemble(cls, node_count: int, rows, heads: np.ndarray, weight, collapsed: int):
        """The graph of links in (src, dst) order whose endpoints are known
        to lie in ``1 .. node_count``.  For each ``(sources, ends)`` of
        ``rows`` in turn, node ``sources[i]``'s links end at ``ends[i]``;
        ``heads`` are the links' 0-based destinations, kept without a copy
        when already in the index dtype, and ``weight`` their weights, or
        None for an unweighted graph."""
        dtype = _index_dtype(node_count, heads.size)
        # Allocated before anything else N-long, so that a node count
        # beyond memory fails here.
        indptr = np.zeros(node_count + 1, dtype=dtype)
        for sources, ends in rows:
            indptr[sources] = ends  # a row's last entry gives its end
        # a node without links ends where the node before it does
        np.maximum.accumulate(indptr, out=indptr)
        graph = cls.__new__(cls)
        for name, value in (("node_count", node_count), ("indptr", indptr),
                            ("heads", heads.astype(dtype, copy=False)),
                            ("weight", np.broadcast_to(1.0, heads.shape) if weight is None
                             else weight),
                            ("weighted", weight is not None),
                            ("collapsed_duplicates", collapsed)):
            object.__setattr__(graph, name, value)
        graph.__post_init__()
        return graph


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
    return _read(io.BytesIO(encode_text(text)), lambda data, _: decode_text(data),
                 weighted, drop_self_loops)


def _blocks(fp):
    """The bytes of the binary stream ``fp``, read ``_READ_BYTES`` at a
    time, in blocks of whole lines; the last block ends where the stream
    does."""
    pending = []  # reads since the last newline
    while chunk := fp.read(_READ_BYTES):
        cut = chunk.rfind(b"\n") + 1
        if cut:
            block = b"".join([*pending, memoryview(chunk)[:cut]])
            pending = [chunk[cut:]]
            del chunk  # not held while the block is parsed
            yield block
        else:
            pending.append(chunk)
    if any(pending):
        yield b"".join(pending)


def _read(fp, decode, weighted: bool, drop_self_loops: bool) -> DirectedGraph:
    """The graph of the edge list in the binary stream ``fp``, read once,
    block by block.  ``decode(data, first_line)`` turns bytes that start
    at line ``first_line`` into the text the line loop reads.

    The leading block of header and comment lines is set aside, and the
    body's blocks are read in bulk until one declines; the line loop
    then reads the rest of the stream.  The leading block's text is
    decoded and parsed last, so that every outcome, errors and their
    line numbers included, is that of the line loop on the whole text.
    """
    blocks = _blocks(fp)
    head = bytearray()
    for block in blocks:
        start = leading_block_end(block, _is_head_line)
        head += block[:start]
        if start < len(block):
            break
    else:
        block, start = b"", 0  # no body
    links = _LinkRows(weighted, drop_self_loops)
    lines = head.count(b"\n")  # lines before the one at ``start``
    rest = b""
    for block in chain([block], blocks):
        parsed = _load_links(block, start)
        if parsed is None:
            rest = b"".join([block[start:], *blocks])
            break
        links.add(*parsed)
        lines += block.count(b"\n", start)
        start = 0
    head_text, rest_text = decode(head, 1), decode(rest, lines + 1)
    declared, *_ = _parse_lines(io.StringIO(head_text))
    declared, *parsed = _parse_lines(io.StringIO(rest_text), lines + 1, declared)
    links.add(*parsed)
    if links.max_id == 0 and declared is None:
        raise ValueError("empty edge list and no 'N <count>' header")
    return links.graph(max(links.max_id, declared or 0))


class _LinkRows:
    """The links of an edge list as its blocks are parsed.

    While the links of an unweighted read come sorted by (src, dst), with
    no repeated pair and every id within int32, as each file from
    :func:`write_edge_list` does, they are kept as the rows of the
    graph's layout: int32 heads, whose buffer grows by a sixteenth at a
    time and becomes the graph's, and where each block's rows end.  From
    the first links that break this on, they are kept as (src, dst[,
    weight]) columns for :meth:`DirectedGraph.from_links`, which sorts and
    collapses them.  Self-loops count toward the largest id before they
    are dropped."""

    def __init__(self, weighted: bool, drop_self_loops: bool):
        self.weighted, self.drop_self_loops = weighted, drop_self_loops
        self.max_id = 0
        self.heads, self.rows = array("i"), []
        self.last = (0, 0)  # the last link kept as a row
        self.columns = (array("q"), array("q"), array("d")) if weighted else None

    def add(self, src: np.ndarray, dst: np.ndarray, weight: np.ndarray) -> None:
        if not src.size:
            return
        self.max_id = max(self.max_id, int(src.max()), int(dst.max()))
        if self.drop_self_loops:
            keep = src != dst
            src, dst = src[keep], dst[keep]
            # unit weights stay implicit; only weights read from the file are kept
            weight = weight[keep] if weight.strides[0] else np.broadcast_to(1.0, src.shape)
            if not src.size:
                return
        if self.columns is None and self._continues_rows(src, dst):
            self.rows.append(_row_ends(src, len(self.heads)))
            heads = dst.astype(np.int32)
            heads -= 1
            self.heads.frombytes(heads.view(np.uint8))
            self.last = (int(src[-1]), int(dst[-1]))
            return
        if self.columns is None:
            self.columns = self._row_columns()
        # an unweighted read keeps no weight column
        for column, values in zip(self.columns, (src, dst, weight)):
            column.frombytes(np.ascontiguousarray(values, dtype=column.typecode).view(np.uint8))

    def _continues_rows(self, src: np.ndarray, dst: np.ndarray) -> bool:
        """Whether the links follow the rows in strict (src, dst) order, and
        ids and link count stay within int32."""
        if (self.max_id > _MAX_INT32 or len(self.heads) + src.size > _MAX_INT32
                or (int(src[0]), int(dst[0])) <= self.last):
            return False
        src_step, dst_step = np.diff(src), np.diff(dst)
        return bool(np.all((src_step > 0) | ((src_step == 0) & (dst_step > 0))))

    def _row_columns(self):
        """The rows kept so far as (src, dst) columns; the rows are let go."""
        src, dst, start = array("q"), array("q"), 0
        for sources, ends in self.rows:
            src.frombytes(np.repeat(sources, np.diff(ends, prepend=start)).view(np.uint8))
            start = ends[-1]
        dst.frombytes((np.frombuffer(self.heads, dtype=np.int32) + np.int64(1)).view(np.uint8))
        self.heads, self.rows = array("i"), []
        return src, dst

    def graph(self, node_count: int) -> DirectedGraph:
        """The graph of the links kept, on ``node_count`` nodes."""
        if self.columns is not None:
            columns = (np.frombuffer(c, dtype=c.typecode) for c in self.columns)
            return DirectedGraph.from_links(node_count, *columns, weighted=self.weighted)
        heads = np.frombuffer(self.heads, dtype=np.int32)
        return DirectedGraph._assemble(node_count, self.rows, heads, None, 0)


def _load_links(data: bytes, start: int = 0):
    """(src, dst, weight) of an edge-list body, from offset ``start`` of
    ``data``, read in bulk; or None where the line loop must decide: numpy
    declined the body, or it holds an id below 1 or a weight that is not
    finite and positive."""
    rows = load_rows(data, start, b"", _LINK_ROW)
    if rows is None:
        rows = load_rows(data, start, b".eE+-", _WEIGHTED_LINK_ROW)
        if rows is None or not np.all(np.isfinite(rows["weight"]) & (rows["weight"] > 0)):
            return None
    if rows.size and min(rows["src"].min(), rows["dst"].min()) < 1:
        return None
    # unit weights of two-column rows, without allocating them
    weight = rows["weight"] if "weight" in rows.dtype.names else np.broadcast_to(1.0, rows.shape)
    return rows["src"], rows["dst"], weight


def _is_head_line(line: bytes) -> bool:
    return not line or line.startswith(b"#") or line.split()[0] == b"N"


def _parse_lines(lines, first_line: int = 1, declared: int | None = None):
    """The line loop: (declared count or None, src, dst, weight) of
    ``lines`` numbered from ``first_line``, after lines that declared
    ``declared``."""
    srcs, dsts, ws = array("q"), array("q"), array("d")
    for lineno, raw in enumerate(lines, first_line):
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
        srcs.append(s)
        dsts.append(d)
        ws.append(w)
    return (
        declared,
        np.frombuffer(srcs, dtype=np.int64),
        np.frombuffer(dsts, dtype=np.int64),
        np.frombuffer(ws, dtype=np.float64),
    )


def read_edge_list(path, *, weighted: bool = False,
                   drop_self_loops: bool = False) -> DirectedGraph:
    """:func:`parse_edge_list` from a file path, opened once.  The file is
    read as bytes in blocks of about ``_READ_BYTES``, and its text is
    decoded (UTF-8, universal newlines) only where the line loop runs.
    An unweighted read of sorted links without repeats, as
    :func:`write_edge_list` writes them, builds the graph's layout block
    by block and holds neither the file nor a whole-length column."""
    with open(path, "rb") as fp:
        return _read(fp, decode_file, weighted, drop_self_loops)


def write_edge_list(g: DirectedGraph, destination) -> None:
    """Write ``g`` as byte-stable edge-list text to a path or text stream,
    block of links by block: the header ``N <count>``, then one line per
    link in (src, dst) order.

    Weighted graphs carry a third column with full float precision.
    Parallel links are written as repeated lines and collapse again on
    re-parse; only collapsed graphs round-trip identically."""
    if not hasattr(destination, "write"):
        with open(destination, "w", encoding="utf-8") as fp:
            write_edge_list(g, fp)
        return
    destination.write(f"N {g.node_count}\n")
    # each block's src and dst come from the layout: no whole-length column
    for links, tails, heads in g.link_blocks():
        tails += 1
        columns = [tails, heads + 1]
        if g.weighted:
            columns.append(g.weight[links])
        write_rows(destination, [], *columns, sep=" ")


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
    if not (mu_in > 1 and mu_out > 1):  # NaN included
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
