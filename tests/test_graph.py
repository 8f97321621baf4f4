import io
import tracemalloc
from unittest import mock

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given

from chei2d import (
    DirectedGraph,
    EdgeListParseError,
    parse_edge_list,
    read_edge_list,
    synth_scale_free,
    write_edge_list,
)
from chei2d import graph as graph_module
from chei2d._bulk import load_rows
from oracle import (
    first_undecodable_line,
    reference_rows,
    reversed_graph,
    serialize_edge_list,
)
from strategies import graphs, link_lines


def test_parse_three_cycle():
    g = parse_edge_list("1 2\n2 3\n3 1\n")
    assert g.node_count == 3
    assert g.link_count == 3
    assert list(g.out_degree) == [1, 1, 1]
    assert list(g.in_degree) == [1, 1, 1]


def test_parse_collapses_duplicates():
    g = parse_edge_list("1 2\n1 2\n")
    assert g.link_count == 1
    assert g.collapsed_duplicates == 1
    assert g.weight[0] == 1.0


def test_parse_weighted_sums_duplicates():
    g = parse_edge_list("1 2 0.5\n1 2 2.0\n", weighted=True)
    assert g.link_count == 1
    assert g.weight[0] == pytest.approx(2.5)


def test_parse_unweighted_ignores_weight_column():
    g = parse_edge_list("1 2 7.5\n")
    assert g.weight[0] == 1.0


def test_parse_empty_with_header():
    g = parse_edge_list("N 5\n")
    assert g.node_count == 5
    assert g.link_count == 0
    assert list(g.out_degree) == [0] * 5


def test_parse_empty_without_header():
    with pytest.raises(ValueError):
        parse_edge_list("")


def test_parse_comments_and_blanks():
    g = parse_edge_list("# comment\n\n1 2\n# another\n2 1\n")
    assert g.link_count == 2


def test_parse_malformed_line_reports_lineno():
    with pytest.raises(EdgeListParseError) as err:
        parse_edge_list("1 2\nnot numbers\n")
    assert err.value.lineno == 2


def test_parse_rejects_ids_beyond_int64():
    with pytest.raises(EdgeListParseError) as err:
        parse_edge_list("1 2\n2 99999999999999999999\n")
    assert err.value.lineno == 2
    with pytest.raises(EdgeListParseError) as err:
        parse_edge_list("N 99999999999999999999\n1 2\n")
    assert err.value.lineno == 1


def test_node_count_beyond_memory_fails_at_parse():
    # the offsets array is the first N-long allocation; 8 EiB is refused
    with pytest.raises(MemoryError):
        parse_edge_list("N 1000000000000000000\n1 2\n")


def test_parse_too_many_fields():
    with pytest.raises(EdgeListParseError):
        parse_edge_list("1 2 3 4\n")


def test_parse_rejects_nonpositive_ids():
    with pytest.raises(ValueError):
        parse_edge_list("0 2\n")
    with pytest.raises(ValueError):
        parse_edge_list("1 -3\n")


def test_parse_rejects_bad_weight():
    with pytest.raises(ValueError):
        parse_edge_list("1 2 0\n", weighted=True)
    with pytest.raises(EdgeListParseError):
        parse_edge_list("1 2 abc\n", weighted=True)


def test_parse_header_and_larger_id():
    g = parse_edge_list("N 3\n1 7\n")
    assert g.node_count == 7


def test_self_loops_kept_unless_dropped():
    g = parse_edge_list("1 1\n1 2\n")
    assert g.link_count == 2
    g2 = parse_edge_list("1 1\n1 2\n", drop_self_loops=True)
    assert g2.link_count == 1


def test_reverse_cycle(three_cycle):
    assert reversed_graph(three_cycle) == parse_edge_list("2 1\n3 2\n1 3\n")


def test_reverse_dangling_only_is_identity():
    g = parse_edge_list("N 4\n")
    assert reversed_graph(g) == g


def test_reverse_chain_swaps_degrees(chain3):
    r = reversed_graph(chain3)
    assert np.array_equal(r.out_degree, chain3.in_degree)
    assert np.array_equal(r.in_degree, chain3.out_degree)


@given(graphs())
def test_reverse_is_involution(g):
    assert reversed_graph(reversed_graph(g)) == g


@given(graphs(weighted=True))
def test_reverse_swaps_degree_vectors(g):
    r = reversed_graph(g)
    assert np.array_equal(r.in_degree, g.out_degree)
    assert np.array_equal(r.out_degree, g.in_degree)


@given(graphs())
def test_round_trip_unweighted(g):
    assert parse_edge_list(serialize_edge_list(g)) == g


@given(graphs(weighted=True))
def test_round_trip_weighted(g):
    assert parse_edge_list(serialize_edge_list(g), weighted=True) == g


@given(link_lines())
def test_duplicate_accounting(lines):
    text = "N 15\n" + "".join(f"{s} {d}\n" for s, d in lines)
    g = parse_edge_list(text)
    assert g.collapsed_duplicates + g.link_count == len(lines)


def test_links_in_order_are_copied_and_ties_sorted_by_weight():
    src, dst = np.array([1, 1, 2]), np.array([2, 3, 3])
    g = DirectedGraph.from_links(3, src, dst, np.ones(3), collapse=False)
    src[0] = 2
    assert g.src.tolist() == [1, 1, 2]
    parallel = DirectedGraph.from_links(2, [1, 1, 1], [2, 2, 2], [2.0, 1.0, 3.0],
                                        weighted=True, collapse=False)
    assert parallel.weight.tolist() == [1.0, 2.0, 3.0]


def test_collapsed_weights_are_summed_in_the_order_given():
    weights = [0.3, 0.2, 0.1]
    g = DirectedGraph.from_links(2, [1, 1, 1], [2, 2, 2], weights, weighted=True)
    assert g.weight.tolist() == [np.add.reduceat(weights, [0])[0]] == [0.6000000000000001]
    # summed in weight order, the same links would give 0.6
    assert np.add.reduceat(sorted(weights), [0])[0] == 0.6


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("src", [[1, 1, 2], [2, 1, 1], [1, 1, 1]])
def test_from_links_keeps_no_caller_array(src, weighted):
    src, dst, weight = np.array(src), np.array([2, 3, 3]), np.array([1.0, 2.0, 3.0])
    g = DirectedGraph.from_links(3, src, dst, weight, weighted=weighted)
    for arr in (g.indptr, g.dst, g.weight):
        assert not any(np.shares_memory(arr, caller) for caller in (src, dst, weight))


@given(st.data(), st.booleans(), st.booleans())
def test_links_are_rows_of_a_csr_layout(data, weighted, collapse):
    n = data.draw(st.integers(1, 12))
    pairs = data.draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n)), max_size=40))
    weights = data.draw(st.lists(st.sampled_from([0.5, 1.0, 3.0]),
                                 min_size=len(pairs), max_size=len(pairs)))
    src, dst = [s for s, _ in pairs], [d for _, d in pairs]
    g = DirectedGraph.from_links(n, src, dst, weights, weighted=weighted, collapse=collapse)
    links = sorted(zip(src, dst, weights if weighted else [1.0] * len(pairs)))
    if collapse:
        links = sorted({(s, d) for s, d, _ in links})
    assert g.src.tolist() == [link[0] for link in links]
    assert g.dst.tolist() == [link[1] for link in links]
    if not collapse:
        assert g.weight.tolist() == [link[2] for link in links]
    assert g.indptr.shape == (n + 1,) and g.indptr[0] == 0 and g.indptr[-1] == g.link_count
    assert np.all(np.diff(g.indptr) >= 0)
    assert np.array_equal(np.diff(g.indptr), g.out_degree)


def test_dangling_nodes_are_empty_rows():
    g = DirectedGraph.from_links(6, [4, 2, 4, 2], [1, 6, 6, 1], collapse=False)
    assert g.indptr.tolist() == [0, 0, 2, 2, 4, 4, 4]
    assert g.src.tolist() == [2, 2, 4, 4]
    assert g.dst.tolist() == [1, 6, 1, 6]
    assert g.out_degree.tolist() == [0, 2, 0, 2, 0, 0]


def test_unweighted_graph_holds_eight_bytes_per_link():
    rng = np.random.default_rng(0)
    n, links = 20_000, 200_000
    src, dst = rng.integers(1, n + 1, links), rng.integers(1, n + 1, links)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        g = DirectedGraph.from_links(n, src, dst)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert g.link_count > 0.99 * links
    # dst and indptr; the unit weights are one shared value
    assert retained <= 8 * g.link_count + 8 * (n + 1) + 16_384
    assert g.weight.strides == (0,)
    assert not g.weight.flags.writeable


def test_unweighted_graph_holds_four_bytes_per_link():
    rng = np.random.default_rng(0)
    n, links = 20_000, 200_000
    src, dst = rng.integers(1, n + 1, links), rng.integers(1, n + 1, links)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        g = DirectedGraph.from_links(n, src, dst)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # int32 heads and indptr
    assert retained <= 4 * g.link_count + 4 * (n + 1) + 16_384


@pytest.mark.parametrize("count, dtype", [(2**31 - 1, np.int32), (2**31, np.int64)])
def test_index_dtype_is_int32_while_both_counts_fit(count, dtype):
    assert graph_module._index_dtype(count, 0) == dtype
    assert graph_module._index_dtype(1, count) == dtype


def test_dst_is_derived_one_based_int64_and_read_only():
    g = DirectedGraph.from_links(6, [4, 2, 4, 2], [1, 6, 6, 1])
    assert g.heads.dtype == g.indptr.dtype == np.int32
    assert g.heads.tolist() == [0, 5, 0, 5]
    assert g.out_degree.dtype == g.in_degree.dtype == np.int64
    dst = g.dst
    assert dst.dtype == np.int64 and dst.tolist() == [1, 6, 1, 6]
    assert not np.shares_memory(dst, g.heads)
    with pytest.raises(ValueError, match="read-only"):
        dst[0] = 2


_DTYPES = [np.int64, np.int32, np.uint8, np.float64, np.float32, bool, np.complex128, "S3",
           object]


def at_destination(g, values):
    """``values`` at each link's destination, gathered block by block with
    the heads that ``link_blocks`` yields."""
    parts = [values[heads] for _, _, heads in g.link_blocks()]
    return np.concatenate(parts) if parts else values[:0]


@given(graphs(weighted=True, collapse=False), st.sampled_from(_DTYPES))
def test_at_destination_is_values_at_dst(g, dtype):
    values = (np.arange(g.node_count) * 7 % 5).astype(dtype)
    expected = values[g.dst - 1]
    out = at_destination(g, values)
    assert out.dtype == expected.dtype
    assert out.tolist() == expected.tolist()


@pytest.mark.parametrize("dtype", _DTYPES)
def test_at_destination_of_an_empty_graph(dtype):
    g = DirectedGraph.from_links(3, [], [])
    values = np.arange(3).astype(dtype)
    assert list(g.link_blocks()) == []
    out = at_destination(g, values)
    assert out.shape == (0,) and out.dtype == values[g.dst - 1].dtype


def test_at_destination_makes_no_int64_copy_of_dst():
    rng = np.random.default_rng(1)
    n, links = 20_000, 400_000
    g = DirectedGraph.from_links(n, rng.integers(1, n + 1, links), rng.integers(1, n + 1, links))
    values = rng.random(n)
    total = 0.0
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _, _, heads in g.link_blocks():
            assert np.shares_memory(heads, g.heads)
            total += values[heads].sum()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert total == pytest.approx(values[g.dst - 1].sum())
    # two blocks' int64 tails (the loop holds the last block while the walk
    # makes the next) and one block's gathered values: values is indexed by
    # heads as they stand, and dst - 1 would be 8 B/link more
    assert peak <= 24 * graph_module._BLOCK_LINKS + 16_384


@pytest.mark.parametrize("src, dst, weight", [
    ([1, 2], [2], [1.0, 1.0]),
    ([1, 2], [2, 1], [1.0, 1.0, 1.0]),
])
def test_from_links_rejects_unequal_lengths(src, dst, weight):
    for collapse in (True, False):
        with pytest.raises(ValueError, match="equal length"):
            DirectedGraph.from_links(3, src, dst, weight, weighted=True, collapse=collapse)


def test_serialize_sorted_by_source_then_destination():
    g = parse_edge_list("3 1\n1 5\n1 2\n")
    assert serialize_edge_list(g) == "N 5\n1 2\n1 5\n3 1\n"


def _edge_list_text(g: DirectedGraph) -> str:
    """The edge-list format by the first recipe: the header, then one
    ``src dst [weight]`` row per link in link order."""
    columns = (g.src, g.dst, g.weight) if g.weighted else (g.src, g.dst)
    return f"N {g.node_count}\n" + reference_rows([], *columns, sep=" ")


@given(graphs(weighted=True) | graphs())
def test_write_edge_list_writes_serialized_text(g):
    buf = io.StringIO()
    write_edge_list(g, buf)
    assert buf.getvalue() == _edge_list_text(g)


def test_write_edge_list_to_path(tmp_path):
    g = synth_scale_free(200, 2.1, 2.7, 3, links=1_000)
    write_edge_list(g, tmp_path / "edges.txt")
    assert (tmp_path / "edges.txt").read_bytes() == _edge_list_text(g).encode()


def test_degree_sum_matches_link_count():
    g = parse_edge_list("1 2\n1 3\n2 3\n3 3\n")
    assert int(g.out_degree.sum()) == g.link_count
    assert int(g.in_degree.sum()) == g.link_count


def test_synth_deterministic():
    a = synth_scale_free(10, 2.1, 2.7, seed=1)
    b = synth_scale_free(10, 2.1, 2.7, seed=1)
    assert a == b


def test_synth_link_budget():
    g = synth_scale_free(100, 2.1, 2.7, seed=0, links=500)
    assert 1 <= g.link_count <= 500
    assert int(g.out_degree.sum()) == g.link_count


def test_synth_rejects_bad_parameters():
    with pytest.raises(ValueError):
        synth_scale_free(5, 2.1, 2.7, seed=0)
    with pytest.raises(ValueError):
        synth_scale_free(100, 1.0, 2.7, seed=0)
    for mu in ((float("nan"), 2.7), (2.1, float("nan"))):
        with pytest.raises(ValueError, match="exponents must exceed 1"):
            synth_scale_free(100, *mu, seed=0)
    with pytest.raises(ValueError):
        synth_scale_free(100, 2.1, 2.7, seed=0, links=0)


def zipf_tail_mle(degrees, k_min=5):
    """Discrete power-law tail estimate: 1 + n / sum(log(k / (k_min - 1/2)))."""
    k = degrees[degrees >= k_min].astype(float)
    return 1.0 + k.size / np.sum(np.log(k / (k_min - 0.5)))


def test_synth_in_degree_exponent():
    g = synth_scale_free(10_000, 2.1, 2.7, seed=7)
    assert abs(zipf_tail_mle(g.in_degree) - 2.1) <= 0.15


# -- bulk parse against the line loop ------------------------------------------


def _outcome(parse, text, **kwargs):
    try:
        return parse(text, **kwargs)
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "lineno", None)


def _bulk_and_loop(text, **kwargs):
    """parse_edge_list's outcome as is, whether numpy's two-id row parse
    accepted the body, and the outcome with the bulk path declining every
    input."""
    accepted = []

    def spy(*args):
        rows = load_rows(*args)
        accepted.append(rows is not None)
        return rows

    with mock.patch.object(graph_module, "load_rows", spy):
        bulk = _outcome(parse_edge_list, text, **kwargs)
    with mock.patch.object(graph_module, "load_rows", lambda *args: None):
        loop = _outcome(parse_edge_list, text, **kwargs)
    return bulk, accepted[0], loop


def _assert_same(bulk, loop):
    assert bulk == loop
    if isinstance(loop, DirectedGraph):
        assert bulk.collapsed_duplicates == loop.collapsed_duplicates


@given(link_lines(), st.booleans(), st.booleans(), st.booleans())
def test_bulk_parse_matches_line_loop(lines, header, weighted, drop_self_loops):
    text = ("# generated\nN 15\n" if header else "") + "".join(
        f"{s} {d}\n" for s, d in lines
    )
    bulk, accepted, loop = _bulk_and_loop(
        text, weighted=weighted, drop_self_loops=drop_self_loops
    )
    _assert_same(bulk, loop)
    assert accepted == bool(lines)


@given(link_lines(), st.lists(st.floats(1e-300, 1e300), min_size=40, max_size=40),
       st.sampled_from(["{!r}", "{:.3e}", "{:g}", "{:.0f}."]), st.booleans(), st.booleans())
def test_bulk_weighted_parse_matches_line_loop(lines, weights, fmt, weighted,
                                               drop_self_loops):
    text = "".join(f"{s} {d} {fmt.format(w)}\n" for (s, d), w in zip(lines, weights))
    bulk, _, loop = _bulk_and_loop(text, weighted=weighted, drop_self_loops=drop_self_loops)
    _assert_same(bulk, loop)


@pytest.mark.parametrize("text, accepted", [
    ("1 2\n2 3\n3 1\n", True),
    ("# c\n\nN 9\n  # indented comment\n1 2\n", True),
    ("05 2\n007 5\n", True),
    ("1\t2\n3 \t 4\t\n", True),
    ("  1   2  \n\n \t \n3 4", True),
    ("1 2\n2 3\n\n\n", True),
    ("1 1\n1 2\n2 2\n1 2\n", True),
    ("9223372036854775807 1\n", True),
    ("+5 1\n", False),
    ("1_0 2\n", False),
    ("1 2\r\n2 3\r\n", False),
    ("1 2\r3 4\n", False),
    ("1 2\x0c\n", False),
    ("1 2\n# late comment\n2 3\n", False),
    ("1 2\nN 9\n", False),
    ("1 2\nN 1\n", False),
    ("١ 2\n", False),
    ("1 ٢\n", False),
    ("1 2 3\n2 3 4\n", False),
    ("1 2\n2 3 4\n", False),
    ("1 2 0.5\n1 2 2.0\n", False),
    ("1 2 0\n", False),
    ("1 2 abc\n", False),
    ("0 2\n", True),  # parsed in bulk, then declined by the id check
    ("1 2\n2 0\n", True),
    ("1 -3\n", False),
    ("1 2\n2 99999999999999999999\n", False),
    ("1 2\n9223372036854775808 1\n", False),
    ("1\n", False),
    ("1 2 3 4\n", False),
    ("1 2\nnot numbers\n", False),
    ("N5\n1 2\n", False),
    ("N 99999999999999999999\n1 2\n", True),
    ("N 0\n1 2\n", True),
    ("N x\n1 2\n", True),
    ("N 2\nN 3\n1 2\n", True),
    ("N 3\n", False),
    ("# only a comment\n", False),
    ("", False),
    # weighted rows (see test_weighted_rows_in_bulk for which are read in bulk)
    ("1 2 .5\n", False),
    ("1 2 5.\n", False),
    ("1 2 1e-3\n", False),
    ("N 4\n1 2 1.5\n2 3 2E+2\n3 3 1e-300\n", False),
    ("1 2 1e400\n", False),
    ("1 2 1e-400\n", False),
    ("1 2 -1\n", False),
    ("1 2 inf\n", False),
    ("1 2 1e\n", False),
    ("+5 2 1.0\n", False),
    ("1e3 2 1.0\n", False),
    ("1.0 2 1.0\n", False),
    ("1 2 1.0\n2 3\n", False),
    ("1 2\n2 3 1.0\n", False),
])
@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("drop_self_loops", [False, True])
def test_bulk_parse_corpus_matches_line_loop(text, accepted, weighted, drop_self_loops):
    bulk, bulk_accepted, loop = _bulk_and_loop(
        text, weighted=weighted, drop_self_loops=drop_self_loops
    )
    _assert_same(bulk, loop)
    assert bulk_accepted == accepted


@pytest.mark.parametrize("body, in_bulk", [
    ("1 2 .5\n", True),
    ("1 2 5.\n", True),
    ("1 2 1e-3\n2 1 2E+2\n", True),
    ("1 2 3\n2 3 4\n", True),
    ("+5 2 1.0\n", True),
    ("1 2 0.5\n1 2 2.0\n", True),
    # numpy reads these, but a weight that is not finite and positive, or an
    # id below 1, is left to the line loop and its line-numbered message
    ("1 2 1e400\n", False),
    ("1 2 1e-400\n", False),
    ("1 2 0\n", False),
    ("1 2 -1\n", False),
    ("0 2 1.5\n", False),
    # numpy declines these
    ("1e3 2 1.0\n", False),
    ("1 2 1.0\n2 3\n", False),
])
def test_weighted_rows_in_bulk(body, in_bulk):
    assert (graph_module._load_links(body.encode()) is not None) == in_bulk


def test_read_edge_list_translates_crlf(tmp_path):
    path = tmp_path / "crlf.txt"
    path.write_bytes(b"N 4\r\n1 2\r\n2 3\r\n\r\n")
    assert read_edge_list(path) == parse_edge_list("N 4\n1 2\n2 3\n")


def _read_text_mode(path, **kwargs):
    """read_edge_list as a text-mode stream reads the file: UTF-8 with
    universal newlines.  (Where the stream fails to decode, read_edge_list
    names the line instead.)"""
    with open(path, encoding="utf-8") as fp:
        return parse_edge_list(fp, **kwargs)


@pytest.mark.parametrize("data", [
    b"N 4\r\n1 2\r\n2 3\r\n\r\n",
    b"# c\r\nN 4\r\n1 2\n2 3\n",
    b"# c\r1 2\n2 3\n",
    b"1 2\r3 4\n",
    b"N 4\n1 2\n2 \xff3\n",
    b"# \xc3\x28 comment\n1 2\n2 3\n",
    b"1 2\n2 3\n# \xff\n",
    b"# caf\xc3\xa9\nN 3\n1 2\n",
    b"N 4\r\n1 2\r\n2 \xff3\r\n",
    b"# c\r1 2\r\n\r2 3\n3 \xc3\x28\n",
    b"1 2\n\xf0\x9f\x98\n",
])
@pytest.mark.parametrize("weighted", [False, True])
def test_read_edge_list_reads_as_text_mode(tmp_path, data, weighted):
    path = tmp_path / "edges.txt"
    path.write_bytes(data)
    bulk = _outcome(read_edge_list, path, weighted=weighted)
    line = first_undecodable_line(path)
    if line is None:
        assert bulk == _outcome(_read_text_mode, path, weighted=weighted)
    else:
        assert bulk[0] is ValueError and bulk[1].startswith(f"line {line}: invalid UTF-8")


def test_read_edge_list_lone_carriage_return_ends_a_line(tmp_path):
    path = tmp_path / "edges.txt"
    path.write_bytes(b"# c\r1 2\n2 3\n")
    assert read_edge_list(path) == parse_edge_list("1 2\n2 3\n")
    # a str is read as it is: the comment runs to the newline
    assert parse_edge_list("# c\r1 2\n2 3\n") == parse_edge_list("N 3\n2 3\n")


def test_read_edge_list_invalid_utf8_message(tmp_path):
    path = tmp_path / "edges.txt"
    path.write_bytes(b"N 4\n1 2\n2 \xff3\n")
    with pytest.raises(ValueError, match=(
            r"^line 3: invalid UTF-8, byte 0xff \(invalid start byte\)$")):
        read_edge_list(path)


def test_read_edge_list_holds_no_decoded_text(tmp_path):
    g = synth_scale_free(100_000, 2.1, 2.7, 4, links=200_000)
    path = tmp_path / "edges.txt"
    write_edge_list(g, path)
    size = path.stat().st_size
    tracemalloc.start()
    try:
        back = read_edge_list(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back == g
    # The file's bytes, the 16 B/link rows numpy parses from them and the
    # graph the rows become (8 B/link, 8 B/node).  One decoded copy of the
    # text (a byte per byte of the file) exceeds the slack.
    assert peak <= size + 24 * g.link_count + 8 * (g.node_count + 1) + 262_144


# -- the read in blocks against the line loop -----------------------------------


def _in_blocks(read_bytes, parse, *args, **kwargs):
    """``parse(*args, **kwargs)`` with edge lists read ``read_bytes`` at a
    time."""
    with mock.patch.object(graph_module, "_READ_BYTES", read_bytes):
        return parse(*args, **kwargs)


@st.composite
def edge_lists(draw):
    """Edge-list text whose links often come sorted by (src, dst), as
    write_edge_list writes them, sometimes with repeats, blank lines,
    comments, a header or weights."""
    lines = draw(link_lines(max_nodes=12, max_links=60))
    order = draw(st.sampled_from(["sorted", "sorted with repeats", "as drawn"]))
    if order == "sorted":
        lines = sorted(set(lines))
    elif order == "sorted with repeats":
        lines = sorted(lines)
    rows = [f"{s} {d}" for s, d in lines]
    for i in draw(st.lists(st.integers(0, len(rows)), max_size=3)):
        rows[i:i] = [draw(st.sampled_from(["", " \t ", "# comment"]))]
    if rows and draw(st.booleans()):
        for i in draw(st.lists(st.integers(0, len(rows) - 1), max_size=5)):
            rows[i] += draw(st.sampled_from([" 0.5", " 2", " 1e-3"]))
    head = draw(st.sampled_from(["", "N 12\n", "# c\n\nN 7\n"]))
    return head + "".join(row + "\n" for row in rows)


@pytest.mark.filterwarnings("error")
@given(edge_lists(), st.sampled_from([1, 3, 8, 32]), st.booleans(), st.booleans())
def test_read_in_small_blocks_matches_line_loop(text, read_bytes, weighted, drop_self_loops):
    bulk, _, loop = _in_blocks(read_bytes, _bulk_and_loop, text, weighted=weighted,
                               drop_self_loops=drop_self_loops)
    _assert_same(bulk, loop)


@given(link_lines(max_nodes=15), st.sampled_from([1, 3, 8, 32, 1 << 18]), st.booleans())
def test_read_in_blocks_keeps_every_line(lines, read_bytes, newline_at_end):
    # checked against the links themselves: the line loop reads the same blocks
    text = "N 15\n" + "\n".join(f"{s} {d}" for s, d in lines) + "\n" * newline_at_end
    src, dst = [s for s, _ in lines], [d for _, d in lines]
    expected = DirectedGraph.from_links(15, src, dst)
    assert _in_blocks(read_bytes, parse_edge_list, text) == expected


def _sorted_body(links: int = 240, nodes: int = 40) -> list[str]:
    """The lines of a write_edge_list file: a header, then distinct links
    sorted by (src, dst)."""
    rng = np.random.default_rng(links)
    g = DirectedGraph.from_links(nodes, rng.integers(1, nodes + 1, links),
                                 rng.integers(1, nodes + 1, links))
    buf = io.StringIO()
    write_edge_list(g, buf)
    return buf.getvalue().splitlines(keepends=True)


_DEEP = 180  # a line well past the first blocks of the reads below


def _edited(edit) -> str:
    lines = _sorted_body()
    assert len(lines) > _DEEP + 20
    edit(lines)
    return "".join(lines)


def _replace(text):
    def edit(lines):
        lines[_DEEP] = text
    return edit


def _insert(text):
    def edit(lines):
        lines[_DEEP:_DEEP] = [text]
    return edit


def _swap(lines):
    lines[_DEEP], lines[_DEEP + 1] = lines[_DEEP + 1], lines[_DEEP]


def _repeat(lines):
    lines[_DEEP:_DEEP] = [lines[_DEEP]]


def _hub(lines):
    # a row of 200 links, longer than many blocks, between rows of others
    src = int(lines[_DEEP].split()[0])
    body = [line for line in lines[1:] if int(line.split()[0]) != src]
    row = [f"{src} {d}\n" for d in range(1, 201)]
    at = next(i for i, line in enumerate(body) if int(line.split()[0]) > src)
    lines[1:] = body[:at] + row + body[at:]


def _weights(lines):
    for i in range(_DEEP, len(lines), 3):
        lines[i] = lines[i].rstrip("\n") + " 2.5\n"


def _weight_before_the_end(lines):
    lines[-2] = lines[-2].rstrip("\n") + " 0.25\n"


def _self_loops(lines):
    for i in range(1, len(lines), 7):
        src = lines[i].split()[0]
        lines[i] = f"{src} {src}\n"
    lines[1:] = sorted(set(lines[1:]), key=lambda line: tuple(map(int, line.split())))


@pytest.mark.parametrize("edit", [
    _replace("not numbers\n"),
    _replace("1 2 3 4\n"),
    _replace("7\n"),
    _replace("1 2 3\n4\n"),  # as many values as two 2-field lines
    _replace("3 0\n"),
    _replace(_sorted_body()[_DEEP].rstrip("\n") + "\r\n"),
    _replace(_sorted_body()[_DEEP].rstrip("\n") + "\r"),
    _insert("# a late comment\n"),
    _insert("N 99\n"),
    _insert("N 3\n"),
    _replace("40 99999999999999999999\n"),
    _replace("1 9223372036854775807\n"),
    _insert(" \t \n" * 60),
    _swap,
    _repeat,
    _hub,
    _weights,
    _weight_before_the_end,
    _self_loops,
    lambda lines: None,
], ids=["malformed", "four fields", "one field", "three and one fields", "zero id", "crlf",
        "lone cr", "late comment", "late header", "late small header", "20-digit id",
        "int64 max", "whitespace block", "unsorted", "repeat", "hub row", "weighted tail",
        "one weight", "self-loops", "unedited"])
@pytest.mark.parametrize("read_bytes", [1, 16, 64, 1 << 18])
@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("drop_self_loops", [False, True])
@pytest.mark.filterwarnings("error")
def test_deep_edits_in_blocks_match_line_loop(edit, read_bytes, weighted, drop_self_loops):
    text = _edited(edit)
    bulk, accepted, loop = _in_blocks(read_bytes, _bulk_and_loop, text, weighted=weighted,
                                      drop_self_loops=drop_self_loops)
    _assert_same(bulk, loop)
    if read_bytes < len(text) // 2:
        assert accepted  # the blocks before the edit are read in bulk


@pytest.mark.parametrize("edits, first_bad", [
    ({_DEEP: "2 \xff3\n"}, _DEEP + 1),
    ({_DEEP: "# caf\xc3\n"}, _DEEP + 1),
    # a malformed line before the bad byte: the bad byte is still named
    ({_DEEP - 10: "bad\n", _DEEP: "\xf0\x9f\n"}, _DEEP + 1),
    # universal newlines count a carriage return as a line end
    ({_DEEP - 10: "1 2\r3 4\r\n", _DEEP: "1 2\r\n2 \xff3\r\n"}, _DEEP + 3),
])
@pytest.mark.parametrize("read_bytes", [1, 16, 1 << 18])
def test_read_in_blocks_names_the_line_of_invalid_utf8(tmp_path, edits, first_bad, read_bytes):
    lines = _sorted_body()
    for i, text in edits.items():
        lines[i] = text
    path = tmp_path / "edges.txt"
    path.write_bytes("".join(lines).encode("latin-1"))
    assert first_undecodable_line(path) == first_bad
    with mock.patch.object(graph_module, "_READ_BYTES", read_bytes):
        with pytest.raises(ValueError, match=f"^line {first_bad}: invalid UTF-8"):
            read_edge_list(path)


@pytest.mark.parametrize("read_bytes", [1, 16, 1 << 18])
def test_read_in_blocks_is_read_as_text_mode(tmp_path, read_bytes):
    lines = _sorted_body()
    lines[_DEEP] = lines[_DEEP].rstrip("\n") + "\r\n"
    lines[_DEEP + 5] = lines[_DEEP + 5].rstrip("\n") + "\r"
    path = tmp_path / "edges.txt"
    path.write_bytes("".join(lines).encode())
    with mock.patch.object(graph_module, "_READ_BYTES", read_bytes):
        assert read_edge_list(path) == _read_text_mode(path)


def test_sorted_read_builds_the_layout_of_from_links(tmp_path):
    g = synth_scale_free(2_000, 2.1, 2.7, 3, links=20_000)
    path = tmp_path / "edges.txt"
    write_edge_list(g, path)
    with mock.patch.object(graph_module, "_READ_BYTES", 4096):
        back = read_edge_list(path)
    assert back == g and back.collapsed_duplicates == 0
    assert back.heads.dtype == g.heads.dtype and back.indptr.dtype == g.indptr.dtype
    assert not back.heads.flags.writeable and not back.indptr.flags.writeable
    assert back.weight.strides == (0,)
