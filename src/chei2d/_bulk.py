"""Bulk reading and writing of numeric rows, on bytes.

The edge-list and rank-table readers each keep a line loop that is the
only source of their accept/reject rules and error messages.  This
module is their fast path, on bytes: :func:`read_blocks` takes a file
block by block, sets aside its header and comment lines, and has a bulk
parse such as :func:`load_rows` (numpy's C text parsers) read each block
after them.  A parse declines (returns None) any block it could read
differently from the line loop, which then parses the decoded text from
there on; only then is the text decoded.

:func:`write_rows` writes the rows of every data file.  Per chunk of
rows it fills a fixed-width byte matrix, one row per line: integers as
right-aligned decimal digits, floats as the bytes of their ``repr``,
unused bytes NUL, and one byte column for each separator and the
newline.  The matrix without its NUL bytes is the chunk's text.
"""

from __future__ import annotations

import io
import warnings
from itertools import chain
from typing import IO

import numpy as np

_DIGITS_AND_WHITESPACE = b"0123456789 \t\n"
# Rows write_rows formats at once: a few MB of bytes and float reprs.
_CHUNK_ROWS = 1 << 14
# Bytes a reader takes from its file at once; the block of lines cut
# from them and its parse hold about seven times that.
_READ_BYTES = 1 << 18
_INT64_MAX = np.iinfo(np.int64).max


def write_rows(fp: IO[str], header_lines, *columns, sep: str = "\t") -> None:
    """Write each header line as '# line', then one row per index of the
    equal-length ``columns``, values separated by the one-byte ``sep``.
    A bad ``sep`` or columns of unequal length raise ValueError before
    anything is written.

    Each value's text is ``repr`` of its ``.tolist()`` element: ints as
    ``str`` prints them, floats with round-trip precision, and bool
    columns as 0/1.  Integer and bool columns are formatted as digits in
    numpy, and other columns through ``repr``; both become byte columns
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
    """One row of bytes per value, its text left- or right-aligned and
    padded with NUL."""
    if values.dtype.kind in "biu":
        return _int_bytes(values)
    text = np.array(list(map(repr, values.tolist())), dtype="S")
    return text.view(np.uint8).reshape(values.size, text.itemsize)


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
    start)`` parses each body block from offset ``start`` and ``add``
    takes each parse, until ``load`` declines (returns None).  ``rest``
    is the text from there on, from 1-based line ``first_line``, both
    made by ``decode(data, first_line)``.  The caller's line loop reads
    ``head``, then ``rest``: every outcome and error is the line loop's."""
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
        parsed = load(block, start)
        if parsed is None:
            return decode(head, 1), decode(b"".join([block[start:], *blocks]), lines), lines
        add(parsed)
        lines += block.count(b"\n", start)
        start = 0
    return decode(head, 1), "", lines


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


def load_rows(data: bytes, start: int, symbols: bytes,
              dtype: np.dtype) -> np.ndarray | None:
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
    ``data`` where that declines, as other rows are.
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
    lines = data.count(b"\n", start) + 1
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "Input line|loadtxt: input contained", UserWarning)
            return np.loadtxt(stream, dtype=dtype, ndmin=1, max_rows=lines)
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
