import numpy as np
import pytest
from hypothesis import given

from chei2d import (
    EdgeListParseError,
    parse_edge_list,
    serialize_edge_list,
    synth_scale_free,
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
    assert three_cycle.reverse() == parse_edge_list("2 1\n3 2\n1 3\n")


def test_reverse_dangling_only_is_identity():
    g = parse_edge_list("N 4\n")
    assert g.reverse() == g


def test_reverse_chain_swaps_degrees(chain3):
    r = chain3.reverse()
    assert np.array_equal(r.out_degree, chain3.in_degree)
    assert np.array_equal(r.in_degree, chain3.out_degree)


@given(graphs())
def test_reverse_is_involution(g):
    assert g.reverse().reverse() == g


@given(graphs(weighted=True))
def test_reverse_swaps_degree_vectors(g):
    r = g.reverse()
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


def test_serialize_sorted_by_source_then_destination():
    g = parse_edge_list("3 1\n1 5\n1 2\n")
    assert serialize_edge_list(g) == "N 5\n1 2\n1 5\n3 1\n"


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
    with pytest.raises(ValueError):
        synth_scale_free(100, 2.1, 2.7, seed=0, links=0)


def zipf_tail_mle(degrees, k_min=5):
    """Discrete power-law tail estimate: 1 + n / sum(log(k / (k_min - 1/2)))."""
    k = degrees[degrees >= k_min].astype(float)
    return 1.0 + k.size / np.sum(np.log(k / (k_min - 0.5)))


def test_synth_in_degree_exponent():
    g = synth_scale_free(10_000, 2.1, 2.7, seed=7)
    assert abs(zipf_tail_mle(g.in_degree) - 2.1) <= 0.15
