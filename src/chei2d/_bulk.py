"""Bulk reading and writing of numeric rows.

The edge-list and rank-table readers each keep a line loop that is the
only source of their accept/reject rules and error messages.  This
module is their fast path: numpy's C text parser reads the body of a
file in one call, and declines (returns None) any body it could read
differently from the line loop, which then parses the whole file again.
:func:`write_rows` writes the rows of every data file.
"""

from __future__ import annotations

import io
from typing import IO

import numpy as np

_DIGITS_AND_WHITESPACE = b"0123456789 \t\n"
_CHUNK_ROWS = 1 << 16


def write_rows(fp: IO[str], header_lines, *columns, sep: str = "\t") -> None:
    """Write each header line as '# line', then one row per index of the
    equal-length ``columns``.

    Every value prints through ``repr`` of its ``.tolist()`` element, so
    ints print as ``str`` does and floats with round-trip precision; bool
    columns print as 0/1.  Rows are formatted in chunks, which bounds the
    memory held by the row text.
    """
    fp.writelines(f"# {line}\n" for line in header_lines)
    arrays = [np.asarray(c) for c in columns]
    arrays = [a.astype(np.int64) if a.dtype == bool else a for a in arrays]
    row = sep.join(["{!r}"] * len(arrays)) + "\n"
    for start in range(0, len(arrays[0]) if arrays else 0, _CHUNK_ROWS):
        chunk = (a[start:start + _CHUNK_ROWS].tolist() for a in arrays)
        fp.write("".join(map(row.format, *chunk)))


def leading_block_end(text: str, is_head) -> int:
    """Offset of the first line of ``text`` whose stripped content fails
    ``is_head``; ``len(text)`` when every line passes."""
    pos = 0
    while pos < len(text):
        end = text.find("\n", pos) + 1 or len(text)
        if not is_head(text[pos:end].strip()):
            break
        pos = end
    return pos


def load_rows(body: str, symbols: bytes, dtype: np.dtype) -> np.ndarray | None:
    """One ``dtype`` record per non-blank line of ``body``, or None.

    None when ``body`` is empty, holds a byte other than ASCII digits,
    space, tab, newline and ``symbols``, or when numpy rejects it: a
    line whose field count differs from ``dtype``'s, an integer outside
    int64 or a malformed number.  Those bytes rule out what Python's
    ``int``/``float`` read differently from numpy (underscores, non-ASCII
    digits, ``inf``/``nan``) and carriage returns, which a line loop over
    a string does not split on.
    """
    try:
        data = body.encode("ascii")
    except UnicodeEncodeError:
        return None
    if not data or data.translate(None, _DIGITS_AND_WHITESPACE + symbols):
        return None
    try:
        return np.loadtxt(io.BytesIO(data), dtype=dtype, ndmin=1)
    except ValueError:
        return None
