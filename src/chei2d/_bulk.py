"""Bulk reading and writing of numeric rows, on bytes.

The edge-list, rank-table and subset readers each keep a line loop that
is the only source of their accept/reject rules and error messages.
This module is their fast path, on bytes: :func:`read_blocks` takes a
file block by block, sets aside its header and comment lines, and has a
bulk parse such as :func:`load_rows` read each block after them.  A
parse declines (returns None) any block it could read differently from
the line loop, which then reads that block's decoded text alone, and the
next block goes back to the bulk parse.  Only the blocks the line loop
reads are decoded.

:func:`load_rows` parses rows of int64 and float64 fields in numpy,
each value bit-identical to ``int`` or ``float`` of its token.  Token
and line bounds come from byte comparisons; digit strings are read 8
bytes at a time from an aligned copy of the block and combined with
integer multiplies, shifts and masks (SWAR); a float's digits m and
decimal exponent q are rounded to the double nearest m * 10**q with
Dekker's double-double products on the table the formatter below uses
(Clinger's and Lemire's method).  ``float`` itself reads a float that
lies too near a tie between two doubles to be sure of, or has more than
19 significant digits or a power of ten outside the table.

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
import math
import sys
from itertools import chain
from typing import IO

import numpy as np

# Rows write_rows formats at once.  The float formatter holds about 30
# 8-byte temporaries per row, so a chunk's peak is a few MB.
_CHUNK_ROWS = 1 << 13
# Bytes a reader takes from its file at once; the block of lines cut
# from them and its parse hold about nine times that.
_READ_BYTES = 1 << 18
_INT32_MAX = np.iinfo(np.int32).max
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
_U64_POWERS_OF_TEN = 10 ** np.arange(20, dtype=np.uint64)
_ASCII_ZEROS = np.uint64(int.from_bytes(b"0" * 8, "little"))
# Bytes as uint8 scalars, so that comparisons and arithmetic on a block
# take numpy's uint8 loops.
_TAB, _NEWLINE, _RETURN, _SPACE = (np.uint8(ord(c)) for c in "\t\n\r ")
_ZERO, _TEN = np.uint8(ord("0")), np.uint8(10)


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
    """Right-aligned decimal digits, made by repeated division of the
    whole column by 10, with '-' before each negative value."""
    negative = values < 0
    magnitude = values.astype(np.uint64)
    # uint64 negation wraps to the absolute value, int64's minimum included
    np.negative(magnitude, out=magnitude, where=negative)
    signed = bool(negative.any())
    width = len(str(int(magnitude.max()))) + signed
    out = np.zeros((values.size, width), dtype=np.uint8)
    rest, quotient = magnitude, np.empty_like(magnitude)
    for j in range(width - 1, signed - 1, -1):
        shown = rest > 0  # digits left to write
        np.floor_divide(rest, 10, out=quotient)
        rest -= quotient * 10  # the digit: a multiply and a subtract, not a second division
        rest += ord("0")
        if j < width - 1:  # the last digit shows even for 0
            rest *= shown
        out[:, j] = rest
        rest, quotient = quotient, rest
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


def read_blocks(fp, is_head, load, parse, decode):
    """The parses of the binary stream ``fp``, read once in blocks.  First
    ``parse(text, 1)`` of the leading block of lines that pass ``is_head``
    (see :func:`leading_block_end`); then, for each block of the body,
    ``load(block)``, its bulk parse, or, where that declines (returns
    None), ``parse(text, line)`` of that block alone, from its 1-based
    first line; the next block goes back to ``load``.  ``text`` is
    ``decode(data, line)`` of the block's bytes, so only the blocks a
    line loop reads are decoded.

    Every outcome and error is the line loop's, but for a UTF-8 byte-order
    mark before the first line, a ValueError that names it.  Decoded text
    keeps the mark, and no line loop reads it as a number or a '#'.  Text
    mode decodes a whole file before it reads a line, so where ``parse``
    raises ValueError the later blocks are decoded, and the first byte
    that is not UTF-8 among them raises instead."""
    blocks = _blocks(fp)
    first = next(blocks, b"")
    if first.startswith(b"\xef\xbb\xbf"):
        raise ValueError("line 1: starts with a UTF-8 byte-order mark (U+FEFF); "
                         "save the text without it")
    head, body = bytearray(), iter(())
    for block in chain([first], blocks):
        start = leading_block_end(block, is_head)
        head += block[:start]
        if start < len(block):
            body = chain([block[start:]], blocks)
            break
    del first, block
    line = 1  # the first line of ``data``
    for data in chain([head], body):
        parsed = None if data is head else load(data)
        if parsed is None:
            text = decode(data, line)
            try:
                parsed = parse(text, line)
            except ValueError:
                for data in body:
                    line += text.count("\n")
                    text = decode(data, line)
                raise
            # universal newlines count a lone carriage return as a line end
            line += text.count("\n")
        else:
            # numpy counts bytes several times faster than bytes.count
            line += np.count_nonzero(np.frombuffer(data, dtype=np.uint8) == ord("\n"))
        yield parsed


def leading_block_end(data: bytes, is_head) -> int:
    """Offset of the first line of ``data`` whose stripped bytes fail
    ``is_head`` or that holds a carriage return other than one right
    before its newline; ``len(data)`` when no line does.  A lone carriage
    return ends the block because where it breaks a line depends on how
    the text is decoded, so the body, and the line loop with it, starts
    there."""
    pos = 0
    while pos < len(data):
        end = data.find(b"\n", pos) + 1 or len(data)
        line = data[pos:end]
        if line.count(b"\r") != line.endswith(b"\r\n") or not is_head(line.strip()):
            break
        pos = end
    return pos


def load_rows(data: bytes, start: int, dtype: np.dtype) -> np.ndarray | None:
    """One ``dtype`` record per non-blank line of the block ``data`` from
    offset ``start`` on, or None.

    The fields are int64 and float64, and each value is the one ``int``
    or ``float`` reads from the line's token for it: tokens are split by
    runs of spaces and tabs, and a line may start and end with them.
    None when that part is empty, holds a byte other than ASCII digits,
    space, tab, newline, a carriage return right before a newline and,
    where ``dtype`` has a float field, ``.eE+-``, or when a line's token
    count differs from the field count, a token is not a number, or an
    integer has more than 19 digits or lies outside int64.  Those bytes
    rule out what ``int`` and ``float`` read but this parse does not
    (underscores, non-ASCII digits, ``inf``/``nan``), and lone carriage
    returns, which universal newlines read as line ends and a line loop
    over a string does not.  An integer may carry a sign only where
    ``dtype`` has a float field, as numpy's text reader, which this parse
    replaced, took them.  Blocks over 2 GB, whose offsets int32 does not
    hold, are declined too.

    The parse is numpy's, about fifty array operations a block of
    integers and a hundred with float fields.  Where every gap between
    tokens is one byte, the tokens' bounds are the blanks' offsets (see
    :func:`_tokens`).  Digit strings are read 8 bytes at a time (see
    :func:`_eight_digits`), and one or two digits as single bytes.  A
    float is its decimal digits m times a power of ten q, rounded to the
    nearest double by :func:`_scaled_decimals`; ``float`` itself reads
    the few tokens for which that cannot be sure.  Its point and
    exponent mark are looked for where the common shapes put them (see
    :func:`_shaped_marks`), and among all the block's symbols only where
    that does not account for every symbol.
    """
    if start >= len(data) or len(data) > _INT32_MAX:
        return None
    floats = np.array([dtype[name] == np.float64 for name in dtype.names])
    any_float = bool(floats.any())
    text = np.frombuffer(data, dtype=np.uint8)
    body = text[start:]
    tokens = _tokens(text, start, floats.size)
    if tokens is None:
        return None
    starts, ends, blanks = tokens
    # bytes above space other than digits (uint8 operands: numpy's uint8 loops)
    symbols = body.size - blanks - np.count_nonzero(np.subtract(body, _ZERO) < _TEN)
    if not any_float and symbols:
        return None  # integers alone, and a byte other than a digit
    fields, count = floats.size, starts.size
    if not count:
        return np.zeros(0, dtype=dtype)  # blank lines alone
    # the block from byte 8 of aligned words, zero before and after it,
    # so that the 8 bytes before any offset lie in two words (see
    # _eight_digits)
    words = np.zeros(len(data) // 8 + 2, dtype=np.uint64)
    words.view(np.uint8)[8:8 + len(data)] = text
    if not any_float:
        values = _integers(words, starts, ends)
        return None if values is None else values.view(dtype)
    lead = text.take(starts)  # a leading sign, on a token of any field
    negative = lead == ord("-")
    begin = starts + (negative | (lead == ord("+")))
    del lead
    signs = np.count_nonzero(begin - starts)
    out = np.empty(count // fields, dtype=dtype)
    for kind in (False, True):  # the integer fields, then the float fields
        columns = np.flatnonzero(floats == kind)
        if not columns.size:
            continue

        def pick(a):
            return a.reshape(-1, fields)[:, columns].ravel()

        field_begin, field_end = pick(begin), pick(ends)
        if kind:
            marks = _shaped_marks(text, field_begin, field_end, symbols - signs)
            if marks is None:
                marks = _marks(text, start + np.flatnonzero((body > _SPACE) & (body - _ZERO >= _TEN)),
                               field_begin, field_end, signs)
            value = None if marks is None else _floats(
                data, text, words, pick(starts), field_begin, field_end, *marks)
        else:
            value = _integers(words, field_begin, field_end)
        if value is None:
            return None
        if signs:
            np.negative(value, out=value, where=pick(negative))
        value = value.reshape(out.size, -1)
        for j, column in enumerate(columns):
            out[dtype.names[column]] = value[:, j]
    return out


def _tokens(text: np.ndarray, start: int, fields: int):
    """``(starts, ends, blanks)``: int32 offsets of the tokens of ``text``
    from ``start`` on, runs of bytes above space, and the count of the
    other bytes; or None where one of those is not a blank (space, tab,
    newline, or a carriage return right before a newline) or the tokens
    do not make one row of ``fields`` tokens a line.

    Where the part starts with a token and every gap between tokens is
    one byte, as in every file this package writes, the blanks' offsets
    are the tokens' ends and, one byte on, the next tokens' starts, and
    a gap byte is a newline exactly where a row ends.  Otherwise the
    bounds are where ``solid`` changes, and the rows are checked by
    :func:`_one_row_a_line`."""
    body = text[start:]
    solid = body > _SPACE
    gaps = np.flatnonzero(~solid)
    count = np.count_nonzero(solid[1:] > solid[:-1]) + bool(solid[0])  # token starts
    if solid[0] and gaps.size == count - solid[-1]:
        gap = body.take(gaps)
        newline = gap == _NEWLINE
        newlines = np.count_nonzero(newline)
        # a row's last token ends at a newline or at the end of the block,
        # and no other token does
        if (np.count_nonzero(gap == _SPACE) + np.count_nonzero(gap == _TAB) + newlines != gap.size
                or (newlines + solid[-1]) * fields != count
                or not newline[fields - 1::fields].all()):
            return None
        ends = np.full(count, body.size, dtype=np.int32)
        ends[:gaps.size] = gaps
        ends += start
        starts = np.empty_like(ends)
        starts[0] = start
        np.add(ends[:-1], 1, out=starts[1:])
        return starts, ends, gaps.size
    returns = np.count_nonzero(body == _RETURN)
    if returns and returns != np.count_nonzero((body[:-1] == _RETURN) & (body[1:] == _NEWLINE)):
        return None  # a lone carriage return
    if gaps.size != returns + sum(np.count_nonzero(body == c) for c in (_SPACE, _TAB, _NEWLINE)):
        return None  # a form feed or another control byte
    bounds = np.flatnonzero(np.diff(solid, prepend=False, append=False)).astype(np.int32)
    bounds += start
    starts, ends = bounds[0::2].copy(), bounds[1::2].copy()
    del bounds
    if starts.size and (starts.size % fields or not _one_row_a_line(text, starts, ends, fields)):
        return None
    return starts, ends, gaps.size


def _one_row_a_line(text: np.ndarray, starts: np.ndarray, ends: np.ndarray, fields: int) -> bool:
    """Whether each line's tokens make one row of ``fields`` tokens: the
    gap before a token holds a newline exactly where the token starts a
    row.  A gap of one byte is that byte; only longer ones, runs of
    blanks or blank lines, are looked up among the newlines."""
    after = ends[:-1]
    breaks = text.take(after) == ord("\n")
    long = np.flatnonzero(starts[1:] - after > 1)
    if long.size:
        newlines = np.flatnonzero(text == ord("\n"))
        breaks[long] = (np.searchsorted(newlines, starts[long + 1])
                        > np.searchsorted(newlines, after[long]))
    rows = np.append(breaks, True).reshape(-1, fields)
    return bool(rows[:, -1].all()) and not rows[:, :-1].any()


def _shaped_marks(text: np.ndarray, begin: np.ndarray, ends: np.ndarray, symbols: int):
    """:func:`_marks` of the float tokens from ``begin`` to ``ends`` where
    each has its point, if any, right after its first digit and its mark,
    if any, before a sign and two digits, as ``repr`` writes a float
    between 1e-99 and 1e100; or None where ``symbols``, the count of the
    block's bytes above space other than digits and leading signs, is not
    the count of those points, marks and signs.

    Each point, mark and sign found lies in its own token, on a byte of
    its own, so where they are every one of those bytes, every other byte
    of every token is a digit."""
    pointed = (text.take(begin + 1, mode="clip") == ord(".")) & (begin + 1 < ends)
    mark_at = ends - 4
    sign = text.take(ends - 3, mode="clip").view(np.int8)
    exponent_sign = (sign == ord("+")).view(np.int8) - (sign == ord("-"))
    marked = (((text.take(mark_at, mode="clip") | 0x20) == ord("e"))
              & (exponent_sign != 0) & (mark_at > begin))
    if np.count_nonzero(pointed) + 2 * np.count_nonzero(marked) != symbols:
        return None
    mark = np.where(marked, mark_at, ends)
    point = np.where(pointed, begin + 1, mark)
    exponent_sign *= marked
    return point, mark, exponent_sign


def _marks(text: np.ndarray, at: np.ndarray, begin: np.ndarray, ends: np.ndarray,
           leading_signs: int):
    """``(point, mark, exponent_sign)`` of the float tokens from ``begin``,
    after any leading sign, to ``ends``, from the offsets ``at`` of the
    block's bytes above space other than digits; or None where one of
    those is out of place.  ``point`` and ``mark`` are the offsets of a
    token's decimal point and of its 'e' or 'E', the mark where there is
    no point and the end where there is no mark; ``exponent_sign`` is -1,
    0 or 1 for a '-', no sign or a '+' right after the mark.

    Each point and mark must lie in a float token, at most one of each a
    token.  Every other byte must be a sign: one of the block's
    ``leading_signs`` or one right after a mark.  Those are counted where
    they must lie, so their count equals the other bytes' only where
    there is no sign elsewhere and no byte other than '+' and '-'."""
    glyph = text.take(at)
    mark_at = np.compress((glyph | 0x20) == ord("e"), at)
    point_at = np.compress(glyph == ord("."), at)
    mark_owner, point_owner = _owners(mark_at, begin, ends), _owners(point_at, begin, ends)
    if mark_owner is None or point_owner is None:
        return None
    sign = text.take(mark_at + 1, mode="clip").view(np.int8)
    sign = (sign == ord("+")).view(np.int8) - (sign == ord("-"))
    if at.size - mark_at.size - point_at.size != leading_signs + np.count_nonzero(sign):
        return None
    mark = ends.copy()
    mark[mark_owner] = mark_at
    point = mark.copy()
    point[point_owner] = point_at
    exponent_sign = np.zeros(begin.size, dtype=np.int8)
    exponent_sign[mark_owner] = sign
    return point, mark, exponent_sign


def _owners(offsets: np.ndarray, begin: np.ndarray, ends: np.ndarray) -> np.ndarray | None:
    """The token from ``begin`` to ``ends`` that holds each of the sorted
    ``offsets``, or None where one lies in none of them or two in one."""
    if offsets.size == begin.size and np.all(begin <= offsets) and np.all(offsets < ends):
        return np.arange(offsets.size)  # one in each
    owner = np.searchsorted(begin, offsets, "right") - 1
    if offsets.size and (owner[0] < 0 or np.any(owner[1:] == owner[:-1])
                         or np.any(offsets >= ends.take(owner))):
        return None
    return owner


def _integers(words: np.ndarray, begin: np.ndarray, ends: np.ndarray) -> np.ndarray | None:
    """The int64 values of the digit strings from ``begin`` to ``ends``, or
    None where one is empty, longer than 19 digits or outside int64."""
    count = ends - begin
    if count.min() < 1 or count.max() > 19:
        return None
    value, _ = _digit_values(words, ends, count)
    if value.max() > np.uint64(_INT64_MAX):
        return None
    return value.view(np.int64)


def _floats(data, text, words, starts, begin, ends, point, mark, exponent_sign):
    """The magnitudes of the float tokens from ``starts`` to ``ends``, as
    ``float`` reads them, from their digits' ``begin`` and the ``point``,
    ``mark`` and ``exponent_sign`` of :func:`_marks`; or None where a token
    is not a number: a point after its mark, no digit before its mark or
    none after it."""
    pointed = point < mark
    whole_count = point - begin
    part_count = mark - point - pointed
    # the exponent's digits and the mark: none where there is no mark, and
    # 1 where the mark has no digit after it
    exponent_count = ends - mark - (exponent_sign != 0)
    if not (np.all(point <= mark) and np.all(whole_count + part_count > 0)
            and np.all(exponent_count != 1)):
        return None
    exponent_count -= exponent_count > 0
    whole, whole_fits = _digits(text, words, point, whole_count)
    part, part_fits = _digit_values(words, mark, part_count)
    exponent, exponent_fits = _digits(text, words, ends, exponent_count)
    # m = whole * 10**part_count + part, exact below 10**19
    exact = whole < _U64_POWERS_OF_TEN.take(np.clip(19 - part_count, 0, 19))
    exact &= whole_fits & part_fits & exponent_fits
    mantissa = whole * _U64_POWERS_OF_TEN.take(np.minimum(part_count, 19)) + part
    scale = np.minimum(exponent, np.uint64(1 << 20)).astype(np.int64)
    scale *= exponent_sign | 1  # -1 for a '-', 1 otherwise
    scale -= part_count
    values, sure = _scaled_decimals(mantissa, scale)
    for row in np.flatnonzero(~(exact & sure)).tolist():
        values[row] = abs(float(data[starts[row]:ends[row]]))
    return values


def _digits(text: np.ndarray, words: np.ndarray, end: np.ndarray, count: np.ndarray):
    """:func:`_digit_values` of the ``count`` digits before each offset
    ``end``, read as single bytes where no count is over 2: a float's
    whole part and exponent, as ``repr`` writes them."""
    if count.max() > 2:
        return _digit_values(words, end, count)
    value = text.take(end - 1, mode="clip") ^ _ZERO  # each byte a digit's value
    value *= count > 0
    if count.max() == 2:
        tens = text.take(end - 2, mode="clip") ^ _ZERO
        tens *= count > 1
        value += tens * np.uint8(10)
    return value.astype(np.uint64), True


def _digit_values(words: np.ndarray, end: np.ndarray, count: np.ndarray):
    """``(value, fits)`` of the ``count`` decimal digits before each offset
    ``end`` of a block, in ``words`` as :func:`load_rows` lays it out:
    ``value`` is exact where ``fits``, where the count is at most 24 and
    the value below 10**19.  A string takes up to three words of 8
    digits, each read by :func:`_eight_digits`, the second and third for
    all strings where most are that long and else for the longer ones
    alone."""
    value = _eight_digits(words, end, np.minimum(count, 8))
    fits = count <= 24
    for k in (1, 2):
        longer = count > 8 * k
        rows = np.count_nonzero(longer)
        if not rows:
            break
        if 2 * rows < count.size:
            rows = np.flatnonzero(longer)
            digits = _eight_digits(words, end.take(rows) - 8 * k,
                                   np.minimum(count.take(rows) - 8 * k, 8))
        else:  # a string of none gives 0
            rows = slice(None)
            digits = _eight_digits(words, end - 8 * k, np.clip(count - 8 * k, 0, 8))
        if k == 2:
            fits[rows] &= digits < 1000
        digits *= np.uint64(10 ** (8 * k))  # wraps only where it does not fit
        value[rows] += digits
    return value, fits


def _eight_digits(words: np.ndarray, end: np.ndarray, count: np.ndarray) -> np.ndarray:
    """The values of the ``count`` (0 to 8) digits before each offset
    ``end`` of a block, in ``words`` as :func:`load_rows` lays it out:
    from byte 8 of an array of aligned little-endian words, with zero
    bytes around it.

    The 8 bytes before ``end`` are the end of one aligned word and the
    start of the next, joined by two shifts, so that the last digit is
    the top byte: a little-endian word's first byte is its least
    significant.  The bytes below the digits are shifted out, leading
    zeros of the number, and the digits combine in pairs, fours and
    eights: three multiply-shift-mask steps (SWAR)."""
    at = (end >> 3).astype(np.intp)  # the word that holds the byte 8 before end
    word = words.take(at)
    at += 1
    high = words.take(at)
    shift = at.view(np.uint64)  # at's buffer, for the shifts
    np.bitwise_and(end, 7, out=shift, casting="unsafe")
    shift <<= np.uint64(3)
    word >>= shift
    np.subtract(np.uint64(64), shift, out=shift)
    high <<= shift  # a shift of 64 leaves 0
    word |= high
    del high
    word ^= _ASCII_ZEROS
    np.subtract(8, count, out=shift, casting="unsafe")
    shift <<= np.uint64(3)
    word >>= shift
    word <<= shift
    del at, shift
    word *= np.uint64(10 << 8 | 1)
    word >>= np.uint64(8)
    word &= np.uint64(0x00FF00FF00FF00FF)
    word *= np.uint64(100 << 16 | 1)
    word >>= np.uint64(16)
    word &= np.uint64(0x0000FFFF0000FFFF)
    word *= np.uint64(10000 << 32 | 1)
    word >>= np.uint64(32)
    return word


def _scaled_decimals(mantissa: np.ndarray, scale: np.ndarray):
    """``(values, sure)``: each ``mantissa * 10**scale`` rounded to the
    nearest double, exact where ``sure``; mantissas are below 10**19.

    The mantissa is the sum of a double and a small integer, 10**scale
    that of the table's ``hi`` and ``lo`` (see :func:`_decimal_scales`),
    and Dekker's split products give their product to about 2**-100 of
    it as a double y and a rest.  y + rest rounded is the nearest double
    to the product, unless the product lies within that error of a point
    halfway between two doubles: sure where the rounded sum lies more
    than 2**-90 of it from one.  Zero is sure; scales outside the table
    are not."""
    least, hi, hi_top, hi_bottom, lo = _decimal_scales()
    at = 16 - scale - _EXPONENTS.start  # 10**scale = 10**(16 - e), at e's index
    inside = (at >= 0) & (at < hi.size)
    at[~inside] = 0
    x = mantissa.astype(np.float64)
    below = (mantissa - x.astype(np.uint64)).view(np.int64).astype(np.float64)  # |m - x| <= 2**10
    top, bottom = _split(x)
    scale_hi, scale_top, scale_bottom = hi.take(at), hi_top.take(at), hi_bottom.take(at)
    y = x * scale_hi
    rest = ((top * scale_top - y) + top * scale_bottom + bottom * scale_top
            + bottom * scale_bottom + (x * lo.take(at) + below * scale_hi))
    values = y + rest
    off = (y - values) + rest  # the sum's distance from its rounded value
    bits = values.view(np.uint64)
    half_ulp = (bits & ~_MANTISSA).view(np.float64) * 2.0 ** -53
    # below a power of two the doubles are twice as dense
    half_ulp[(off < 0) & (bits & _MANTISSA == 0)] *= 0.5
    sure = inside & (half_ulp - np.abs(off) > values * 2.0 ** -90) | (mantissa == 0)
    return values, sure


def encode_text(text: str) -> bytes:
    """The bytes of a text a reader was handed as ``str``; lone surrogates
    survive the round trip through :func:`decode_text`."""
    return text.encode("utf-8", "surrogatepass")


def decode_text(data, first_line: int = 1) -> str:
    """Inverse of :func:`encode_text` on the bytes-like ``data``: the text
    exactly as handed over, carriage returns included.  ``first_line``,
    which :func:`decode_file` names lines from, is unused."""
    return data.decode("utf-8", "surrogatepass")


def decode_file(data, first_line: int = 1) -> str:
    """The bytes-like ``data``, a file's from its 1-based line
    ``first_line`` on, as ``open(path, encoding="utf-8").read()`` returns
    them: strict UTF-8 with universal newlines.  Bytes that are not UTF-8
    raise ValueError naming the line of the first bad byte, as universal
    newlines count lines."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        before = data[:exc.start]
        lineno = first_line + before.count(b"\n") + before.count(b"\r") - before.count(b"\r\n")
        raise ValueError(f"line {lineno}: invalid UTF-8, byte 0x{data[exc.start]:02x} "
                         f"({exc.reason})") from None
    return text.replace("\r\n", "\n").replace("\r", "\n")
