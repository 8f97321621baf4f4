"""Bulk reading and writing of numeric rows, on bytes.

The edge-list, rank-table and subset readers each keep a line loop that
is the only source of their accept/reject rules and error messages.
This module is their fast path, on bytes: :func:`read_blocks` takes a
file block by block, sets aside its header and comment lines, and has a
bulk parse such as :func:`load_rows` (numpy's C text parsers) read each
block after them.  A parse declines (returns None) any block it could
read differently from the line loop, which then parses the decoded text
from there on (see :func:`split_lines`); only then is the text decoded.

:func:`write_rows` writes the rows of every data file.  Per chunk of
rows it fills a fixed-width byte matrix, one row per line: integers as
right-aligned decimal digits, floats as the bytes of their ``repr``,
NUL where a value has no byte, and one byte column for each separator
and the newline.  The matrix without its NUL bytes is the chunk's text.
Float64 text is made in numpy (:func:`_float_bytes`): the shortest
decimal that reads back as each value, found exactly with Dekker's
double-double products, laid out as ``repr`` lays it out.  Values it
cannot settle go through ``repr`` itself, as do short columns and every
value where ``sys.float_repr_style`` is not ``"short"``.
"""

from __future__ import annotations

import functools
import io
import math
import sys
import warnings
from itertools import chain
from typing import IO

import numpy as np

_DIGITS_AND_WHITESPACE = b"0123456789 \t\n"
# Rows write_rows formats at once.  The float formatter holds about 30
# 8-byte temporaries per row, so a chunk's peak is a few MB.
_CHUNK_ROWS = 1 << 13
# Bytes a reader takes from its file at once; the block of lines cut
# from them and its parse hold about seven times that.
_READ_BYTES = 1 << 18
_INT64_MAX = np.iinfo(np.int64).max
# Decimal exponents e (10**e <= |x| < 10**(e + 1)) of the floats that
# numpy formats: their scales 10**(16 - e), and the values, stay clear of
# overflow in Dekker's split and of subnormals.
_EXPONENTS = range(-200, 201)
# Shorter float64 columns go through repr: the formatter's hundred-odd
# numpy calls cost about 0.3 ms whatever the length, repr 1 us a value.
_FEW_FLOATS = 256
_SPLITTER = float(2 ** 27 + 1)
_MANTISSA = np.uint64(2 ** 52 - 1)
_POWERS_OF_TEN = 10 ** np.arange(17, dtype=np.int64)


def write_rows(fp: IO[str], header_lines, *columns, sep: str = "\t") -> None:
    """Write each header line as '# line', then one row per index of the
    equal-length ``columns``, values separated by the one-byte ``sep``.
    A bad ``sep`` or columns of unequal length raise ValueError before
    anything is written.

    Each value's text is ``repr`` of its ``.tolist()`` element: ints as
    ``str`` prints them, floats with round-trip precision, and bool
    columns as 0/1.  Integer, bool and float64 columns are formatted in
    numpy, and other columns through ``repr``; all become byte columns
    of one fixed-width matrix per chunk of rows, which bounds the memory
    a write holds.
    """
    arrays = [np.asarray(c) for c in columns]
    separator = np.frombuffer(sep.encode("ascii"), dtype=np.uint8)
    if separator.size != 1:
        raise ValueError("sep must be a single ASCII character")
    if any(a.ndim != 1 for a in arrays) or len({a.size for a in arrays}) > 1:
        raise ValueError("columns must be one-dimensional and of equal length")
    fp.writelines(f"# {line}\n" for line in header_lines)
    for start in range(0, len(arrays[0]) if arrays else 0, _CHUNK_ROWS):
        fields = [_field_bytes(a[start:start + _CHUNK_ROWS]) for a in arrays]
        rows = fields[0].shape[0]
        parts = []
        for field in fields:
            parts += [field, np.broadcast_to(separator, (rows, 1))]
        parts[-1] = np.broadcast_to(np.uint8(ord("\n")), (rows, 1))
        matrix = np.concatenate(parts, axis=1)
        fp.write(matrix[matrix != 0].tobytes().decode("ascii"))


def _field_bytes(values: np.ndarray) -> np.ndarray:
    """One row of bytes per value whose bytes other than NUL, in order,
    are the value's text."""
    if values.dtype.kind in "biu":
        return _int_bytes(values)
    if (values.dtype == np.float64 and values.size >= _FEW_FLOATS
            and sys.float_repr_style == "short"):
        return _float_bytes(values)[0]
    return _repr_bytes(values)


def _repr_bytes(values: np.ndarray) -> np.ndarray:
    """``repr`` of each value, left-aligned and padded with NUL."""
    text = np.array(list(map(repr, values.tolist())), dtype="S")
    return text.view(np.uint8).reshape(values.size, text.itemsize)


def _float_bytes(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The bytes of each float64's ``repr`` (see :func:`_field_bytes`),
    and the rows that took ``repr`` itself.  The bytes are made in numpy
    where :func:`_shortest_digits` finds the digits for sure.  The rest
    go through ``repr``: zeros, inf, nan, subnormals, powers of two (their
    rounding interval is lopsided), magnitudes outside ``_EXPONENTS``,
    and values where a decision fell within 2**-90 of a tie."""
    magnitude = np.abs(values)
    least = _decimal_scales()[0]
    taken = ((magnitude >= least[0]) & (magnitude < least[-1])
             & (magnitude.view(np.uint64) & _MANTISSA != 0))
    digits, count, exponent, sure = _shortest_digits(np.where(taken, magnitude, 1.5))
    out = _layout(digits, count, exponent, np.signbit(values))
    rows = np.flatnonzero(~(taken & sure))
    if rows.size:
        text = _repr_bytes(values[rows])
        if text.shape[1] > out.shape[1]:
            out = np.pad(out, ((0, 0), (0, text.shape[1] - out.shape[1])))
        out[rows] = 0
        out[rows, :text.shape[1]] = text
    return out, rows


def _split(x: np.ndarray):
    """Dekker's split of doubles into two halves of at most 26 bits, whose
    products are exact."""
    scaled = x * _SPLITTER
    top = scaled - (scaled - x)
    return top, x - top


@functools.cache
def _decimal_scales():
    """``(least, hi, hi_top, hi_bottom, lo)``, indexed by a decimal
    exponent e of ``_EXPONENTS`` less its first.  ``least`` is the least
    double at or above 10**e, for one e past the range too.  10**(16 - e)
    is the sum of ``hi``, the nearest double, and ``lo``, the double
    nearest the rest; ``hi_top`` and ``hi_bottom`` are hi's Dekker
    halves.  Made with Python integers, whose division rounds correctly."""
    least, hi, lo = [], [], []
    for e in range(_EXPONENTS.start, _EXPONENTS.stop + 1):
        num, den = (10 ** e, 1) if e >= 0 else (1, 10 ** -e)
        nearest = num / den
        n, d = nearest.as_integer_ratio()
        least.append(nearest if n * den >= num * d else math.nextafter(nearest, math.inf))
        num, den = (10 ** (16 - e), 1) if e <= 16 else (1, 10 ** (e - 16))
        nearest = num / den
        n, d = nearest.as_integer_ratio()
        hi.append(nearest)
        lo.append((num * d - n * den) / (den * d))
    hi = np.array(hi[:-1])
    return (np.array(least), hi, *_split(hi), np.array(lo[:-1]))


def _shortest_digits(x: np.ndarray):
    """``(digits, count, exponent, sure)`` of positive doubles ``x`` in
    the range of ``_EXPONENTS`` whose mantissa bits are not all zero.

    The shortest decimal that reads back as x, and of those the closest
    to x, is ``count`` digits times 10**(exponent - count + 1): the one
    ``repr`` prints.  ``digits`` holds it as a 17-digit int64, zeros after
    the first ``count``.  It is exact where ``sure``; elsewhere a decision
    fell within 2**-90 of a tie, and only ``repr`` can say.

    On the scale y = x * 10**(16 - exponent), which lies in [10**16,
    10**17), the decimals that read back as x are the integers less than
    half x's ulp, scaled, away from y (ties aside).  Dekker's products of
    x and the scale's hi + lo give y to about 2**-104 of it, as an int64
    and a fraction.  The shortest decimal is the multiple of the largest
    10**j that lies in that interval, and it is y rounded to a multiple
    of 10**j."""
    least, hi, hi_top, hi_bottom, lo = _decimal_scales()
    exponent = np.floor(np.log10(x)).astype(np.int64)
    np.clip(exponent, _EXPONENTS.start, _EXPONENTS.stop - 1, out=exponent)
    at = exponent - _EXPONENTS.start
    exponent -= x < least[at]  # log10 may round across a power of ten
    exponent += x >= least[at + 1]
    at = exponent - _EXPONENTS.start
    top, bottom = _split(x)
    scale, scale_top, scale_bottom = hi[at], hi_top[at], hi_bottom[at]
    y = x * scale
    rest = ((top * scale_top - y) + top * scale_bottom + bottom * scale_top
            + bottom * scale_bottom + x * lo[at])
    whole = np.floor(rest)
    fraction = rest - whole
    scaled = y.astype(np.int64) + whole.astype(np.int64)  # y is an even integer
    half_ulp = (x.view(np.uint64) & ~_MANTISSA).view(np.float64) * (scale * 2.0 ** -53)
    margin = y * 2.0 ** -90
    below, above = fraction - half_ulp, fraction + half_ulp
    sure = ((np.abs(below - np.rint(below)) >= margin)
            & (np.abs(above - np.rint(above)) >= margin)
            & (scaled >= 10 ** 16) & (scaled < 10 ** 17))
    before = scaled + np.floor(below).astype(np.int64)  # the integer before the interval
    last = scaled + np.ceil(above).astype(np.int64) - 1  # the interval's last integer
    # j, up to 16: a multiple of 10**j lies in the interval where before
    # and last differ once j digits are dropped.  Most values keep 16 or
    # 17 digits, so few rows are left to divide after the first steps.
    dropped = np.zeros_like(scaled)
    rows = np.arange(scaled.size)
    for _ in range(16):
        before, last = before // 10, last // 10
        found = before != last
        rows, before, last = rows[found], before[found], last[found]
        if not rows.size:
            break
        dropped[rows] += 1
    step = _POWERS_OF_TEN[dropped]
    quotient, remainder = np.divmod(scaled, step)
    # twice y's distance past the midpoint of the multiples around it
    past_half = (2 * remainder - step).astype(np.float64) + 2 * fraction
    sure &= np.abs(past_half) >= 2 * margin
    digits = (quotient + (past_half > 0)) * step
    carried = digits == 10 ** 17  # rounded up to the next power of ten
    digits[carried] = 10 ** 16
    exponent += carried
    return digits, 17 - dropped, exponent, sure


@functools.cache
def _affixes():
    """The text before and after a float's digits, as 8-byte rows padded
    with NUL, per decimal exponent e of ``_EXPONENTS`` and one past them,
    indexed from the first: before, at 2 * index + (1 if negative), the
    '-' and the '0.' and leading zeros of e = -4..-1; after, 'e±XX' for e
    outside -4..15."""
    before, after = [], []
    for e in range(_EXPONENTS.start, _EXPONENTS.stop + 1):
        lead = "0." + "0" * (-e - 1) if -4 <= e < 0 else ""
        before += [lead, "-" + lead]
        after.append("" if -4 <= e <= 15 else f"e{e:+03d}")
    return tuple(np.frombuffer(b"".join(t.encode().ljust(8, b"\0") for t in texts), dtype=np.uint64)
                 for texts in (before, after))


def _layout(digits: np.ndarray, count: np.ndarray, exponent: np.ndarray,
            negative: np.ndarray) -> np.ndarray:
    """The bytes of ``repr`` of the floats :func:`_shortest_digits` gave,
    NUL where a row has no byte: positional for exponents -4..15, with
    '.0' after a whole number, and d.ddde±XX otherwise.  Each digit slot
    up to the last one a point follows has a column for the point and
    one for the zero of '.0' after it."""
    n = digits.size
    glyphs = np.empty((17, n), dtype=np.uint8)  # digit j of each value in row j
    rest, quotient = digits.copy(), np.empty_like(digits)
    for j in range(16, -1, -1):
        np.floor_divide(rest, 10, out=quotient)
        rest -= quotient * 10
        glyphs[j] = rest
        rest, quotient = quotient, rest
    glyphs += ord("0")
    glyphs *= np.arange(17)[:, None] < count
    positional = (exponent >= -4) & (exponent <= 15)
    # The slot the point follows: none when it comes before the digits, in
    # 0.000ddd, or when d.ddde±XX has one digit.
    point = np.where(positional, exponent, np.where(count > 1, 0, -1))
    slots = max(int(point.max()), 0) + 1
    spare = max(int(count.max()), slots) - slots  # digit columns after the slots
    out = np.empty((n, 11 + 3 * slots + spare), dtype=np.uint8)
    before, after = _affixes()
    at = exponent - _EXPONENTS.start
    out[:, :6] = before.take(2 * at + negative).view(np.uint8).reshape(n, 8)[:, :6]
    out[:, -5:] = after.take(at).view(np.uint8).reshape(n, 8)[:, :5]
    head = glyphs[:slots].T
    slot = np.arange(slots)
    # a whole number's places after its last digit are zeros
    places = slot <= np.where(positional, exponent, -1)[:, None]
    out[:, 6:6 + 3 * slots:3] = np.where((head == 0) & places, np.uint8(ord("0")), head)
    at_point = slot == point[:, None]
    out[:, 7:7 + 3 * slots:3] = at_point * np.uint8(ord("."))
    whole = positional & (count <= exponent + 1)
    out[:, 8:8 + 3 * slots:3] = (at_point & whole[:, None]) * np.uint8(ord("0"))
    out[:, 6 + 3 * slots:-5] = glyphs[slots:slots + spare].T
    return out


def _int_bytes(values: np.ndarray) -> np.ndarray:
    """Right-aligned decimal digits, made by repeated divmod on the whole
    column, with '-' before each negative value."""
    negative = values < 0
    magnitude = values.astype(np.uint64)
    # uint64 negation wraps to the absolute value, int64's minimum included
    np.negative(magnitude, out=magnitude, where=negative)
    signed = bool(negative.any())
    width = len(str(int(magnitude.max()))) + signed
    out = np.zeros((values.size, width), dtype=np.uint8)
    digit = np.empty_like(magnitude)
    for j in range(width - 1, signed - 1, -1):
        shown = magnitude > 0  # digits left to write
        np.divmod(magnitude, 10, out=(magnitude, digit))
        digit += ord("0")
        if j < width - 1:  # the last digit shows even for 0
            digit *= shown
        out[:, j] = digit
    if signed:
        rows = np.flatnonzero(negative)
        out[rows, (out[rows] != 0).argmax(axis=1) - 1] = ord("-")
    return out


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


def read_blocks(fp, is_head, load, add, decode) -> tuple[str, str, int]:
    """``(head, rest, first_line)`` of the binary stream ``fp``, read once
    in blocks.  ``head`` is the text of the leading block of lines that
    pass ``is_head`` (see :func:`leading_block_end`).  ``load(block,
    start, newlines)`` parses each body block from offset ``start``, which
    holds ``newlines`` newlines from there, and ``add`` takes each parse,
    until ``load`` declines (returns None).  ``rest`` is the text from
    there on, from 1-based line ``first_line``, both made by
    ``decode(data, first_line)``.  The caller's line loop reads ``head``,
    then ``rest`` (see :func:`split_lines`): every outcome and error is
    the line loop's."""
    blocks = _blocks(fp)
    head = bytearray()
    for block in blocks:
        start = leading_block_end(block, is_head)
        head += block[:start]
        if start < len(block):
            break
    else:
        block, start = b"", 0  # no body
    lines = head.count(b"\n") + 1  # the line at ``start``
    for block in chain([block], blocks):
        newlines = block.count(b"\n", start)
        parsed = load(block, start, newlines)
        if parsed is None:
            return decode(head, 1), decode(b"".join([block[start:], *blocks]), lines), lines
        add(parsed)
        lines += newlines
        start = 0
    return decode(head, 1), "", lines


def split_lines(text: str):
    """The lines of ``text`` without their newlines, as ``text.split("\n")``
    gives them but for an empty last one, split about ``_READ_BYTES``
    characters at a time: what a line loop reads ``text`` by, holding no
    more than those lines beside it."""
    start = 0
    while start < len(text):
        end = text.find("\n", start + _READ_BYTES) + 1 or len(text)
        lines = text[start:end].split("\n")
        if text[end - 1] == "\n":
            lines.pop()
        yield from lines
        start = end


def leading_block_end(data: bytes, is_head) -> int:
    """Offset of the first line of ``data`` whose stripped bytes fail
    ``is_head`` or that holds a carriage return; ``len(data)`` when no
    line does.  A carriage return ends the block because where it breaks
    a line depends on how the text is decoded, so the body, and the line
    loop with it, starts there."""
    pos = 0
    while pos < len(data):
        end = data.find(b"\n", pos) + 1 or len(data)
        line = data[pos:end]
        if b"\r" in line or not is_head(line.strip()):
            break
        pos = end
    return pos


def load_rows(data: bytes, start: int, symbols: bytes, dtype: np.dtype,
              newlines: int | None = None) -> np.ndarray | None:
    """One ``dtype`` record per non-blank line of the block ``data`` from
    offset ``start`` on, or None.

    None when that part is empty, holds a byte other than ASCII digits,
    space, tab, newline and ``symbols``, or when numpy rejects it: a
    line whose field count differs from ``dtype``'s, an integer outside
    int64 or a malformed number.  Those bytes rule out what Python's
    ``int``/``float`` read differently from numpy (underscores, non-ASCII
    digits, ``inf``/``nan``) and carriage returns, which a line loop over
    a string does not split on.  Rows of int64 fields alone are parsed
    by :func:`_integer_rows`, and by ``np.loadtxt`` from a stream over
    ``data`` where that declines, as other rows are.  ``newlines``, the
    count of newlines from ``start`` where the caller has it, bounds the
    rows ``np.loadtxt`` allocates.
    """
    if start >= len(data):
        return None
    if data[start:].translate(None, _DIGITS_AND_WHITESPACE + symbols):
        return None
    if not symbols and all(dtype[name] == np.int64 for name in dtype.names):
        rows = _integer_rows(data, start, dtype)
        if rows is not None:
            return rows
    stream = io.BytesIO(data)
    stream.seek(start)
    # At most one row per line: given that bound, numpy allocates the rows
    # once instead of growing a buffer, and warns that blank lines do not
    # count toward it, and that a block of them alone holds no rows.
    max_rows = None if newlines is None else newlines + 1
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "Input line|loadtxt: input contained", UserWarning)
            return np.loadtxt(stream, dtype=dtype, ndmin=1, max_rows=max_rows)
    except ValueError:
        return None


def _integer_rows(data: bytes, start: int, dtype: np.dtype):
    """:func:`load_rows` of digits and whitespace into int64 fields, by
    one ``np.fromstring`` call: no rows for blank lines alone, and None
    where a non-blank line holds other than one field per ``dtype``
    field or a value reads as int64's maximum, which ``np.fromstring``
    also gives for any larger one.

    ``np.fromstring`` reads the numbers whatever lines they are on, and
    whitespace alone as one 0, so each field's line is checked from
    where its digits start."""
    text = np.frombuffer(data, dtype=np.uint8, offset=start)
    digit = text >= ord("0")  # the rest is whitespace
    if not digit.any():
        return np.zeros(0, dtype=dtype)  # blank lines alone
    field_starts = np.empty(text.size, dtype=np.int8)
    field_starts[0] = digit[0]
    np.greater(digit[1:], digit[:-1], out=field_starts[1:])
    line_starts = np.flatnonzero(text[:-1] == ord("\n")) + 1
    # Fields per line, counted in int8 so that nothing is cast: a count
    # wraps past 127, but a line whose count wrapped to 0 or to the field
    # count holds more values than that, which the total then shows.
    per_line = np.add.reduceat(field_starts, np.concatenate(([0], line_starts)),
                               dtype=np.int8)
    fields = len(dtype.names)
    if np.any((per_line != fields) & (per_line != 0)):
        return None
    try:
        values = np.fromstring(data[start:] if start else data, dtype=np.int64, sep=" ")
    except ValueError:
        return None
    if values.size != fields * np.count_nonzero(per_line):
        return None
    if values.max() == _INT64_MAX:
        return None
    return values.view(dtype)


def encode_text(text: str) -> bytes:
    """The bytes of a text a reader was handed as ``str``; lone surrogates
    survive the round trip through :func:`decode_text`."""
    return text.encode("utf-8", "surrogatepass")


def decode_text(data: bytes, first_line: int = 1) -> str:
    """Inverse of :func:`encode_text`: the text exactly as handed over,
    carriage returns included; ``first_line``, as in :func:`decode_file`, is unused."""
    return data.decode("utf-8", "surrogatepass")


def decode_file(data: bytes, first_line: int = 1) -> str:
    """A file's bytes as ``open(path, encoding="utf-8").read()`` returns
    them: strict UTF-8 with universal newlines.  Bytes that are not UTF-8
    raise ValueError naming the 1-based line of the first bad byte, as
    universal newlines count lines, ``data`` starting at line
    ``first_line``."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        before = data[:exc.start]
        lineno = first_line + before.count(b"\n") + before.count(b"\r") - before.count(b"\r\n")
        raise ValueError(f"line {lineno}: invalid UTF-8, byte 0x{data[exc.start]:02x} "
                         f"({exc.reason})") from None
    return text.replace("\r\n", "\n").replace("\r", "\n")
