"""Bulk reading and writing of numeric rows, on bytes.

The edge-list and rank-table readers each keep a line loop that is the
only source of their accept/reject rules and error messages.  This
module is their fast path.  A reader holds the file as bytes:
:func:`leading_block_end` finds where its header and comment lines end,
and :func:`load_rows` has numpy's C text parser read the rest in one
call.  It declines (returns None) any body it could read differently
from the line loop, which then parses the decoded text of the whole
file again; only then is the text decoded.

:func:`write_rows` writes the rows of every data file.  Per chunk of
rows it fills a fixed-width byte matrix, one row per line: integers as
right-aligned decimal digits, floats as the bytes of their ``repr``,
unused bytes NUL, and one byte column for each separator and the
newline.  The matrix without its NUL bytes is the chunk's text.
"""

from __future__ import annotations

import io
import warnings
from typing import IO

import numpy as np

_DIGITS_AND_WHITESPACE = b"0123456789 \t\n"
# Rows write_rows formats at once: a few MB of bytes and float reprs.
_CHUNK_ROWS = 1 << 14
# Body bytes load_rows checks at once.
_CHECK_BYTES = 1 << 20


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
    """One ``dtype`` record per non-blank line of ``data`` from offset
    ``start`` on, or None.

    None when the body is empty, holds a byte other than ASCII digits,
    space, tab, newline and ``symbols``, or when numpy rejects it: a
    line whose field count differs from ``dtype``'s, an integer outside
    int64 or a malformed number.  Those bytes rule out what Python's
    ``int``/``float`` read differently from numpy (underscores, non-ASCII
    digits, ``inf``/``nan``) and carriage returns, which a line loop over
    a string does not split on.  The body is checked in chunks and parsed
    from a stream over ``data``; neither copies it whole.
    """
    if start >= len(data):
        return None
    allowed = _DIGITS_AND_WHITESPACE + symbols
    for pos in range(start, len(data), _CHECK_BYTES):
        if data[pos:pos + _CHECK_BYTES].translate(None, allowed):
            return None
    stream = io.BytesIO(data)
    stream.seek(start)
    # At most one row per line: given that bound, numpy allocates the rows
    # once instead of growing a buffer, and warns that blank lines do not
    # count toward it.
    lines = data.count(b"\n", start) + 1
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "Input line", UserWarning)
            return np.loadtxt(stream, dtype=dtype, ndmin=1, max_rows=lines)
    except ValueError:
        return None


def encode_text(text: str) -> bytes:
    """The bytes of a text a reader was handed as ``str``; lone surrogates
    survive the round trip through :func:`decode_text`."""
    return text.encode("utf-8", "surrogatepass")


def decode_text(data: bytes) -> str:
    """Inverse of :func:`encode_text`: the text exactly as handed over,
    carriage returns included."""
    return data.decode("utf-8", "surrogatepass")


def decode_file(data: bytes) -> str:
    """A file's bytes as ``open(path, encoding="utf-8").read()`` returns
    them: strict UTF-8 with universal newlines.  Bytes that are not UTF-8
    raise ValueError naming the 1-based line of the first bad byte, as
    universal newlines count lines."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        before = data[:exc.start]
        lineno = 1 + before.count(b"\n") + before.count(b"\r") - before.count(b"\r\n")
        raise ValueError(f"line {lineno}: invalid UTF-8, byte 0x{data[exc.start]:02x} "
                         f"({exc.reason})") from None
    return text.replace("\r\n", "\n").replace("\r", "\n")
