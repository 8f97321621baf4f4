"""The row writer against the first recipe it replaced, byte for byte,
its float formatter against ``repr``, the row parser against ``int`` and
``float`` bit for bit, and the readers' single open of a path that
cannot be read twice."""

import contextlib
import decimal
import fractions
import io
import os
import sys
import threading
from unittest import mock

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given

from chei2d import TwoDRanking, _bulk, read_edge_list, read_rank_table, synth_scale_free, tableio
from chei2d import graph as graph_module
from chei2d._bulk import _CHUNK_ROWS, _READ_BYTES, _float_bytes, write_rows
from chei2d.cli import main
from conftest import bernoulli_graph
from oracle import reference_rows, serialize_rank_table

_INT64 = np.iinfo(np.int64)
_SPECIAL_FLOATS = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e16, 1e-5,
                   0.0001, 1e22, 1.7976931348623157e308, 0.1, -2.5]


def _written(header_lines, *columns, sep):
    buf = io.StringIO()
    write_rows(buf, header_lines, *columns, sep=sep)
    return buf.getvalue()


def _column(kind, values):
    if kind == "bool":
        return np.asarray([v % 2 == 1 for v in values], dtype=bool)
    if kind == "float64":
        return np.asarray(values, dtype=np.float64)
    info = np.iinfo(kind)
    return np.asarray([min(max(v, info.min), info.max) for v in values], dtype=kind)


_KINDS = ["int64", "int32", "uint8", "bool", "float64"]


@st.composite
def row_sets(draw):
    n = draw(st.integers(0, 30))
    kinds = draw(st.lists(st.sampled_from(_KINDS), max_size=5))
    columns = []
    for kind in kinds:
        if kind == "float64":
            element = st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                                st.sampled_from(_SPECIAL_FLOATS))
        else:
            element = st.one_of(st.integers(_INT64.min, _INT64.max),
                                st.integers(-12, 12),
                                st.sampled_from([_INT64.min, _INT64.max, 0]))
        columns.append(_column(kind, draw(st.lists(element, min_size=n, max_size=n))))
    header = draw(st.lists(st.text(st.characters(min_codepoint=32, max_codepoint=126)),
                           max_size=3))
    return header, columns, draw(st.sampled_from([" ", "\t", ","]))


@given(row_sets())
def test_write_rows_matches_reference(rows):
    header, columns, sep = rows
    assert _written(header, *columns, sep=sep) == reference_rows(header, *columns, sep=sep)


@pytest.mark.parametrize("sep", [" ", "\t", ","])
@pytest.mark.parametrize("columns", [
    [np.array([_INT64.min, _INT64.max, 0, -1, 1, -10, 10, 99, -100])],
    [np.array([-5, 3], dtype=np.int32), np.array([0, 255], dtype=np.uint8),
     np.array([True, False])],
    [np.array(_SPECIAL_FLOATS)],
    [np.array(_SPECIAL_FLOATS), np.arange(len(_SPECIAL_FLOATS))[::-1]],
    [np.zeros(0, dtype=np.int64), np.zeros(0)],
    [],
])
def test_write_rows_edge_values(columns, sep):
    for header in ([], ["only a header", "columns: a b"]):
        assert _written(header, *columns, sep=sep) == reference_rows(header, *columns, sep=sep)


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_write_rows_around_the_chunk_size(offset):
    n = _bulk._CHUNK_ROWS + offset
    rng = np.random.default_rng(n)
    columns = [rng.integers(-10**12, 10**12, n), rng.random(n) * 10.0 ** rng.integers(-8, 8, n),
               np.arange(1, n + 1), rng.random(n) < 0.5]
    assert _written(["h"], *columns, sep=" ") == reference_rows(["h"], *columns, sep=" ")


def _float_texts(values):
    """Each value's text as the writer formats it, one chunk of rows at a
    time, and the rows of each chunk that took ``repr`` itself."""
    texts, fallbacks = [], []
    for start in range(0, values.size, _CHUNK_ROWS):
        matrix, rows = _float_bytes(values[start:start + _CHUNK_ROWS])
        texts += [bytes(row[row != 0]).decode("ascii") for row in matrix]
        fallbacks.append(rows + start)
    return texts, np.concatenate(fallbacks)


def _neighbours(centers, steps):
    """``centers`` and the ``steps`` doubles on each side of each."""
    centers = np.asarray(centers, dtype=np.float64)
    out = [centers]
    for toward in (np.inf, -np.inf):
        value = centers
        for _ in range(steps):
            value = np.nextafter(value, toward)
            out.append(value)
    return np.concatenate(out)


def _assert_reprs(values):
    texts, _ = _float_texts(values)
    expected = list(map(repr, values.tolist()))
    wrong = [(v.hex(), t, e) for v, t, e in zip(values.tolist(), texts, expected) if t != e]
    assert not wrong, wrong[:10]


def test_float_text_of_random_bit_patterns_is_repr():
    values = np.random.default_rng(17).integers(0, 2 ** 64, 150_000, dtype=np.uint64).view(np.float64)
    assert np.any(values < 0) and np.any(np.isnan(values)) and np.any(np.abs(values) < 2.2e-308)
    specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324,
                         2.2250738585072014e-308, 1.7976931348623157e308])
    _assert_reprs(np.concatenate([values, specials]))


def test_float_text_around_short_decimals_is_repr():
    rng = np.random.default_rng(5)
    decimals = [float(f"{rng.integers(1, 10 ** d)}e{rng.integers(-320, 300)}")
                for d in rng.integers(1, 16, 6000)]
    decimals += [float(f"{m}e{k}") for m in (1, 15, 25, 5, 9999, 123456789) for k in range(-25, 25)]
    values = _neighbours(decimals, 3)
    _assert_reprs(np.concatenate([values, -values]))


def test_float_text_around_powers_of_ten_and_two_is_repr():
    tens = [float(f"1e{k}") for k in range(-323, 309)]
    twos = np.ldexp(1.0, np.arange(-1074, 1024))
    _assert_reprs(_neighbours(np.concatenate([tens, twos]), 20))


@pytest.mark.parametrize("size", [1, _CHUNK_ROWS - 1, _CHUNK_ROWS + 1])
def test_float_text_of_a_chunk_and_its_edges_is_repr(size):
    rng = np.random.default_rng(size)
    values = rng.random(size) * 10.0 ** rng.integers(-12, 18, size) * rng.choice([-1, 1], size)
    _assert_reprs(values)
    assert _written([], values, sep=" ") == reference_rows([], values, sep=" ")


def test_float_text_of_strided_columns_is_repr():
    # a grid's columns, as the density and matrix files write them
    grid = np.random.default_rng(9).random((300, 300)) * 1e-3
    grid[grid < 5e-4] = 0.0
    assert _written([], *grid.T, sep=",") == reference_rows([], *grid.T, sep=",")


def test_float_text_takes_repr_only_where_needed():
    values = np.array([1.5, 0.0, -0.0, np.nan, np.inf, 0.5, 2.0 ** -1074, 1e-250, 1e250, 0.1])
    texts, fallbacks = _float_texts(values)
    assert texts == list(map(repr, values.tolist()))
    assert fallbacks.tolist() == [1, 2, 3, 4, 5, 6, 7, 8]


def test_float_text_goes_through_repr_where_repr_is_not_short_and_for_few_values():
    values = np.random.default_rng(2).random(_bulk._FEW_FLOATS) * 1e-5
    expected = reference_rows([], values, sep=" ")
    with mock.patch.object(_bulk, "_float_bytes", wraps=_float_bytes) as formatter:
        assert _written([], values, sep=" ") == expected
        assert formatter.call_count == 1
        assert _written([], values[1:], sep=" ") == reference_rows([], values[1:], sep=" ")
        with mock.patch.object(sys, "float_repr_style", "legacy"):
            assert _written([], values, sep=" ") == expected
        assert formatter.call_count == 1


def test_benchmark_size_rank_columns_take_no_fallback():
    """A fallback keeps the bytes but loses the speed, so this checks that
    P and P* of a ranking at the benchmark's size never take it."""
    ranking = TwoDRanking.compute(synth_scale_free(100_000, 2.1, 2.7, 5, links=1_000_000))
    for column in (ranking.pagerank.probabilities, ranking.cheirank.probabilities):
        texts, fallbacks = _float_texts(column)
        assert fallbacks.size == 0
        assert texts == list(map(repr, column.tolist()))


@pytest.mark.parametrize("sep", ["", "  ", "é"])
def test_write_rows_rejects_a_bad_sep_before_writing(sep):
    buf = io.StringIO()
    with pytest.raises(ValueError):
        write_rows(buf, ["header"], np.arange(3), sep=sep)
    assert buf.getvalue() == ""


@pytest.mark.parametrize("columns", [
    [np.arange(_bulk._CHUNK_ROWS), np.arange(_bulk._CHUNK_ROWS + 1)],
    [np.arange(3), np.arange(2)],
    [np.zeros(0), np.arange(1)],
    [np.arange(6).reshape(2, 3)],
    [np.int64(4)],
])
def test_write_rows_rejects_unequal_columns_before_writing(columns):
    buf = io.StringIO()
    with pytest.raises(ValueError, match="equal length"):
        write_rows(buf, ["header"], *columns)
    assert buf.getvalue() == ""


# -- the row parser against a line loop's int() and float() ------------------

_INTS = np.dtype([("a", np.int64), ("b", np.int64)])
_MIXED = np.dtype([("a", np.int64), ("x", np.float64), ("b", np.int64), ("y", np.float64)])
_FLOATS = np.dtype([("x", np.float64)])


def _loop_rows(text: str, dtype):
    """The records a line loop reads from ``text``: one per non-blank line,
    each token through ``int`` or ``float``; None where a line fails."""
    records = []
    for line in text.split("\n"):
        tokens = line.split()
        if not tokens:
            continue
        if len(tokens) != len(dtype.names):
            return None
        try:
            record = tuple(float(t) if dtype[j] == np.float64 else int(t)
                           for j, t in enumerate(tokens))
        except ValueError:
            return None
        if any(type(v) is int and not _INT64.min <= v <= _INT64.max for v in record):
            return None
        records.append(record)
    return np.array(records, dtype=dtype)


def _bulk_rows(text: str, dtype, start: int = 0):
    return _bulk.load_rows(text.encode(), start, dtype)


def _assert_bit_equal(bulk, loop):
    assert bulk is not None and loop is not None
    assert bulk.dtype == loop.dtype and bulk.tobytes() == loop.tobytes(), (bulk, loop)


_DIGIT_RUNS = st.text(alphabet="0123456789", min_size=1, max_size=26)


@st.composite
def float_tokens(draw):
    """Text that ``float`` reads: a sign, up to 26 digits on each side of
    an optional point, and an optional exponent; or a ``repr``."""
    whole, part = draw(_DIGIT_RUNS), draw(_DIGIT_RUNS)
    mantissa = draw(st.sampled_from([whole, whole + ".", f"{whole}.{part}", "." + part]))
    exponent = draw(st.sampled_from(["", "e", "E"]))
    if exponent:
        exponent += draw(st.sampled_from(["", "+", "-"])) + draw(
            st.text(alphabet="0123456789", min_size=1, max_size=5))
    return draw(st.one_of(st.just(draw(st.sampled_from(["", "+", "-"])) + mantissa + exponent),
                          st.floats(allow_nan=False, allow_infinity=False).map(repr)))


_INT_TOKENS = st.one_of(
    st.integers(-_INT64.max, _INT64.max).map(str),
    st.integers(0, 999).map(lambda v: f"{v:05d}"),  # leading zeros
    st.sampled_from([str(_INT64.max), "0", "-0", "+7"]))
_BLANKS = st.sampled_from([" ", "\t", "  ", " \t ", "\t\t"])


@st.composite
def mixed_texts(draw):
    """Rows of _MIXED with runs of blanks between tokens, blanks before and
    after them and blank lines between rows."""
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        tokens = [draw(_INT_TOKENS), draw(float_tokens()), draw(_INT_TOKENS), draw(float_tokens())]
        lines.append(draw(st.sampled_from(["", " ", "\t"])) + "".join(
            token + draw(_BLANKS) for token in tokens[:-1]) + tokens[-1]
            + draw(st.sampled_from(["", " ", "\t "])))
        lines += [draw(st.sampled_from(["", " ", "\t"]))] * draw(st.integers(0, 1))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


@given(mixed_texts())
def test_load_rows_reads_every_valid_row_as_int_and_float_do(text):
    bulk, loop = _bulk_rows(text, _MIXED), _loop_rows(text, _MIXED)
    if loop.size:
        _assert_bit_equal(bulk, loop)
    else:  # no rows: an empty block declines, blank lines give none
        assert bulk is None or not bulk.size


@given(st.lists(st.text(alphabet="0123456789.eE+-", min_size=1, max_size=14), min_size=1,
                max_size=20))
def test_load_rows_accepts_a_float_token_exactly_where_float_does(tokens):
    text = "\n".join(tokens) + "\n"
    bulk, loop = _bulk_rows(text, _FLOATS), _loop_rows(text, _FLOATS)
    assert (bulk is None) == (loop is None)
    if loop is not None:
        _assert_bit_equal(bulk, loop)


_INT_TEXT = st.text(alphabet="0123456789+-", min_size=1, max_size=21)


@given(st.lists(st.tuples(_INT_TEXT, _INT_TEXT), min_size=1, max_size=10))
def test_load_rows_reads_integers_as_int_does_or_declines(pairs):
    text = "".join(f"{a} {b}\n" for a, b in pairs)
    bulk, loop = _bulk_rows(text, _INTS), _loop_rows(text, _INTS)
    if bulk is not None:
        _assert_bit_equal(bulk, loop)
    # digits alone, up to 19 of them, within int64: always read in bulk
    tokens = [t for pair in pairs for t in pair]
    if all(t.isdigit() and len(t) <= 19 and int(t) <= _INT64.max for t in tokens):
        _assert_bit_equal(bulk, loop)


@st.composite
def shaped_float_tokens(draw):
    """Float tokens of the shapes the parse reads differently: a point
    right after one digit or after several or none, no point, exponents
    of 1 to 3 digits with and without a sign, leading zeros, mantissas
    of over 19 digits, and the ``repr`` of doubles of any magnitude."""
    whole = draw(st.sampled_from(["", "0", "7", "42", "007", "12345678901234567890123"]))
    point = draw(st.sampled_from(["", ".", ".5", ".25", ".000123", ".1234567890123456",
                                  ".12345678901234567890123"]))
    if not whole and point in ("", "."):
        whole = "3"
    exponent = draw(st.sampled_from(["", "e-05", "E+16", "e5", "e-5", "e+123", "e-300", "E07"]))
    sign = draw(st.sampled_from(["", "", "-", "+"]))
    doubles = st.floats(allow_nan=False, allow_infinity=False).map(repr)
    return draw(st.one_of(st.just(sign + whole + point + exponent), doubles))


@st.composite
def laid_out_blocks(draw):
    """Rows of _MIXED as bytes: tokens parted by one-byte or longer gaps,
    lines with blanks before and after them, blank lines, and line ends
    of newline, CRLF and a lone CR."""
    one_byte = draw(st.booleans())
    gaps = st.sampled_from([" ", "\t"] if one_byte else [" ", "\t", "  ", " \t", "\t\t "])
    ends = st.sampled_from(draw(st.sampled_from([["\n"], ["\r\n"], ["\n", "\r\n"],
                                                 ["\n", "\r\n", "\r"]])))
    text = ""
    for _ in range(draw(st.integers(1, 40))):
        tokens = [draw(_INT_TOKENS), draw(shaped_float_tokens()), draw(_INT_TOKENS),
                  draw(shaped_float_tokens())]
        lead = "" if one_byte else draw(st.sampled_from(["", " ", "\t"]))
        trail = "" if one_byte else draw(st.sampled_from(["", " ", "\t "]))
        text += lead + "".join(t + draw(gaps) for t in tokens[:-1]) + tokens[-1] + trail
        text += draw(ends)
        if not one_byte and draw(st.integers(0, 4)) == 0:
            text += draw(st.sampled_from(["", " ", "\t"])) + draw(ends)  # a blank line
    return text.encode()


def _rows_read_in_blocks(data: bytes, read_bytes: int):
    """The rows of ``data`` as the readers take them: bulk parses of its
    blocks, ``read_bytes`` read at a time, and the line loop for each block
    the bulk parse declines."""
    with mock.patch.object(_bulk, "_READ_BYTES", read_bytes):
        return np.concatenate(list(_bulk.read_blocks(
            io.BytesIO(data), lambda line: not line,
            lambda block: _bulk.load_rows(block, 0, _MIXED),
            lambda text, first_line: _loop_rows(text, _MIXED), _bulk.decode_file)))


@given(laid_out_blocks(), st.one_of(st.integers(1, 64), st.just(_READ_BYTES)))
def test_blocks_of_every_layout_read_as_the_line_loop_reads(data, read_bytes):
    loop = _loop_rows(_bulk.decode_file(data), _MIXED)
    _assert_bit_equal(_rows_read_in_blocks(data, read_bytes), loop)


@given(st.lists(shaped_float_tokens(), min_size=1, max_size=30), st.booleans())
def test_load_rows_reads_every_float_shape_as_float_does(tokens, crlf):
    text = "".join(token + ("\r\n" if crlf else "\n") for token in tokens)
    _assert_bit_equal(_bulk_rows(text, _FLOATS), _loop_rows(text, _FLOATS))


@pytest.mark.parametrize("text", [
    "1 2\n3 4\n",
    "1\t2\n3\t\t4\n",
    "1     2\n3 \t 4\n",
    "  1 2\n\t3 4\n",
    "1 2  \n3 4\t\n",
    "\n\n1 2\n\n \t \n3 4\n\n",
    "1 2\n3 4",
    " \n\t\n",
    "1 2\r\n3 4\r\n",
])
def test_load_rows_reads_blank_layouts_in_bulk(text):
    _assert_bit_equal(_bulk_rows(text, _INTS), _loop_rows(text, _INTS))


@pytest.mark.parametrize("text", [
    "1 2\r3 4\n", "1 2\x0c\n", "1\x0b2\n", "1 2\n# c\n", "1 2 3\n",
    "1 2\n3\n", "1 2\n3 4 5\n", "", "١ 2\n",
])
def test_load_rows_declines_what_the_line_loop_must_decide(text):
    assert _bulk_rows(text, _INTS) is None


@pytest.mark.parametrize("token, value", [
    (str(_INT64.max), _INT64.max),
    ("1" * 19, int("1" * 19)),
    ("0" * 19, 0),
    ("0000000000000000042", 42),
    (str(_INT64.max + 1), None),
    ("1" * 20, None),
    ("0" * 20, None),  # int() reads it, but more than 19 digits go to the loop
    ("+5", None),
    ("-5", None),
    ("1.0", None),
    ("1e5", None),
    ("5.", None),
])
def test_load_rows_integer_edges(token, value):
    rows = _bulk_rows(f"1 {token}\n", _INTS)
    if value is None:
        assert rows is None
    else:
        assert rows["b"].tolist() == [value]


@pytest.mark.parametrize("token, value", [("+5", 5), ("-5", -5), ("-0", 0), ("+", None),
                                          ("1.0", None), ("1e5", None), ("5-", None)])
def test_load_rows_reads_a_signed_integer_beside_floats_as_int_does(token, value):
    rows = _bulk_rows(f"{token} 0.5 1 2.5\n", _MIXED)
    if value is None:
        assert rows is None
    else:
        assert rows["a"].tolist() == [value]


_HALFWAY = [
    "9007199254740993",  # 2**53 + 1, between two doubles
    "9007199254740993.0000000000001",
    "1.00000000000000011102230246251565404236316680908203125",  # 1 + 2**-53
    "1.00000000000000011102230246251565404236316680908203124",
    "1.00000000000000011102230246251565404236316680908203126",
    "2.2250738585072011e-308",
    "2.2250738585072012e-308",
    "0.1000000000000000055511151231257827021181583404541015625",
    "7.2057594037927933e16",
    "1.7976931348623157e308",
    "1.7976931348623158e308",
    "4.9406564584124654e-324",
    "2.4703282292062328e-324",
]


@pytest.mark.parametrize("token", [
    ".5", "5.", "-.5", "+5.", "1E+05", "1e-05", "2E2", "1e-400", "-1e-400", "1e400", "-1e400",
    "-0.0", "0e999", "0.0000000000000000000000000000001", "1234567890123456789012345",
    "1234567890123.456789012345", "0.1234567890123456789012345e-30", "1e0000000000000000000005",
    "123456789012345678", "12345678901234567890", "1" * 19 + "e-30", "5e-324", "1e-184", "1e216",
    "1e-185", "1e217", *_HALFWAY])
def test_load_rows_reads_floats_as_float_does(token):
    _assert_bit_equal(_bulk_rows(f"{token}\n", _FLOATS), _loop_rows(f"{token}\n", _FLOATS))


@pytest.mark.parametrize("token", [".", "e5", "5e", "5e+", "+", "-", "1.5.5", "1e5.5", "1e5e5",
                                   "--5", "5-", ".e5", "1_0", "inf", "nan", "0x10", "1,5"])
def test_load_rows_declines_what_float_rejects(token):
    assert _bulk_rows(f"{token}\n", _FLOATS) is None


def _midpoints(count: int, digits: int, seed: int):
    """Decimals of ``digits`` significant digits nearest the points halfway
    between adjacent doubles of random magnitude."""
    rng = np.random.default_rng(seed)
    low = rng.integers(1, 2 ** 63, count, dtype=np.uint64).view(np.float64)
    low = low[np.isfinite(low) & (low != 0)]
    high = np.nextafter(low, np.inf)
    with decimal.localcontext() as context:
        context.prec = 60
        return [format((decimal.Decimal(a) + decimal.Decimal(b)) / 2, f".{digits - 1}e")
                for a, b in zip(low.tolist(), high.tolist())]


@pytest.mark.parametrize("digits", [16, 17, 18, 19, 20])
def test_load_rows_reads_near_halfway_decimals_as_float_does(digits):
    text = "\n".join(_midpoints(4000, digits, digits)) + "\n"
    _assert_bit_equal(_bulk_rows(text, _FLOATS), _loop_rows(text, _FLOATS))


def _exact_ties(odd_multiples, exponents):
    """(m, q) of the decimals m * 10**-q, m below 10**19 and q the least,
    that equal each odd multiple of 2**(exponent - 1): exactly halfway
    between two doubles where the multiple has 54 bits."""
    ties = []
    for odd, exponent in zip(odd_multiples, exponents):
        tie = fractions.Fraction(int(odd)) * fractions.Fraction(2) ** (int(exponent) - 1)
        q = next(q for q in range(80) if (tie * 10 ** q).denominator == 1)
        if tie * 10 ** q < 10 ** 19:
            ties.append((int(tie * 10 ** q), q))
    return ties


def _random_ties(count: int, seed: int):
    rng = np.random.default_rng(seed)
    return _exact_ties(2 * rng.integers(2 ** 52, 2 ** 53, count) + 1, rng.integers(-20, 10, count))


def test_load_rows_reads_exact_ties_as_float_does():
    # float rounds a tie to even, and a product off by its last bits
    # rounds about half of them the other way
    ties = _random_ties(20_000, 1)
    assert len(ties) > 5000
    text = "".join(f"{m}e-{q}\n" for m, q in ties)
    _assert_bit_equal(_bulk_rows(text, _FLOATS), _loop_rows(text, _FLOATS))


def test_scaled_decimals_is_never_sure_of_an_exact_tie():
    # below a power of two the doubles are twice as dense: 2**54 - 1 times
    # a power of two lies halfway between 2**54 - 2 and 2**54 times it
    below_powers = _exact_ties([2 ** 54 - 1] * 70, range(-60, 10))
    ties = _random_ties(2000, 2) + below_powers
    assert len(below_powers) > 5
    mantissa = np.array([m for m, _ in ties], dtype=np.uint64)
    _, sure = _bulk._scaled_decimals(mantissa, -np.array([q for _, q in ties]))
    assert not sure.any()


def test_load_rows_reads_from_start_and_reaches_the_block_edges():
    text = "# header\n" + "7 0.25 8 1e-3\n" * 3 + "12345678901234567 9.5e300 1 .5"
    start = text.index("\n") + 1
    _assert_bit_equal(_bulk_rows(text, _MIXED, start), _loop_rows(text[start:], _MIXED))
    for tail in ("1", "1 2", "12 3\n"):  # blocks shorter than a word
        _assert_bit_equal(_bulk_rows(tail, _INTS if " " in tail else _FLOATS),
                          _loop_rows(tail, _INTS if " " in tail else _FLOATS))


def _edge_list_text() -> str:
    rows = [f"{s}\t{d}" if s % 3 else f"  {s}   {d}  " for s, d in zip(range(1, 400),
                                                                   range(400, 1, -1))]
    return "# edges\nN 500\n" + "\n".join(rows[:200]) + "\n\n" + "\n".join(rows[200:]) + "\n"


@pytest.mark.parametrize("read_bytes", [1, 2, 3, 5, 7, 8, 9, 16, 31, 64])
def test_small_blocks_read_as_the_line_loop_reads(read_bytes, tmp_path):
    rng = np.random.default_rng(3)
    weighted = "".join(f"{s} {d} {w!r}\n" for s, d, w in zip(
        range(1, 200), range(200, 1, -1), (rng.random(199) * 1e-3 + 1e-9).tolist()))
    table = _rank_table().decode().replace(" ", "\t ")
    cases = [(_edge_list_text(), read_edge_list, graph_module),
             (weighted, lambda p: read_edge_list(p, weighted=True), graph_module),
             (table, lambda p: read_rank_table(p)[0].K.tolist(), tableio)]
    for text, read, module in cases:
        path = tmp_path / "data.txt"
        path.write_text(text)
        parsed = []

        def spy(*args):
            parsed.append(_bulk.load_rows(*args))
            return parsed[-1]

        with mock.patch.object(_bulk, "_READ_BYTES", read_bytes):
            with mock.patch.object(module, "load_rows", spy):
                bulk = read(path)
            with mock.patch.object(module, "load_rows", lambda *args: None):
                loop = read(path)
        assert bulk == loop
        assert any(rows is not None and rows.size for rows in parsed)


_EDGES = b"# nodes 4\n1 2\n2 3\n3 1\n3 4\n"


def _rank_table() -> bytes:
    ranking = TwoDRanking.compute(bernoulli_graph(1, n=25))
    return serialize_rank_table(ranking, {"alpha": 0.85}).encode()


def _read_fifo(path, data: bytes, read):
    """``read(path)`` of a new FIFO at ``path`` that a thread feeds
    ``data``; it fails where the reader opened the FIFO twice."""
    os.mkfifo(path)
    done = threading.Event()
    released = []

    def writer():
        with open(path, "wb") as fp:  # opens once the reader has
            fp.write(data)
        # A reader that opened the FIFO again would wait for a writer
        # forever: release it with an empty one, and fail.
        if not done.wait(5.0):
            with contextlib.suppress(OSError):
                os.close(os.open(path, os.O_WRONLY | os.O_NONBLOCK))
                released.append(path)

    thread = threading.Thread(target=writer)
    thread.start()
    try:
        result = read(path)
    finally:
        done.set()
        thread.join()
    assert not released, "the reader opened the FIFO a second time"
    return result


def test_readers_read_a_fifo_once(tmp_path):
    table = _rank_table()
    links = _read_fifo(tmp_path / "edges", _EDGES, lambda p: read_edge_list(p).link_count)
    ranks = _read_fifo(tmp_path / "ranks", table, lambda p: read_rank_table(p)[0].K)
    assert links == 4
    assert np.array_equal(ranks, read_rank_table(io.StringIO(table.decode()))[0].K)


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
def test_readers_read_a_drained_pipe_once():
    table = _rank_table()
    results = []
    for data, read in ((_EDGES, lambda p: read_edge_list(p).link_count),
                       (table, lambda p: read_rank_table(p)[0].K.tolist())):
        r, w = os.pipe()
        os.write(w, data)  # both fit the pipe's buffer
        os.close(w)
        try:
            results.append(read(f"/dev/fd/{r}"))
        finally:
            os.close(r)
    assert results[0] == 4
    assert results[1] == read_rank_table(io.StringIO(table.decode()))[0].K.tolist()


def test_rank_of_a_fifo_names_a_malformed_line_past_the_first_block(tmp_path, capsys):
    lines = [f"{i} {i % 997 + 1}\n" for i in range(1, 60_001)]
    bad = 50_000
    lines[bad - 1] = "1 2 x y\n"
    data = "".join(lines).encode()
    assert len("".join(lines[:bad]).encode()) > _READ_BYTES
    out = tmp_path / "out"
    code = _read_fifo(tmp_path / "edges", data, lambda p: main(["rank", str(p), "--out", str(out)]))
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: line {bad}: ") and "Traceback" not in err
