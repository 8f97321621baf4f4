#!/usr/bin/env python3
"""Sweep the data files' float writer against ``repr``, and the row
parser against ``float``.

Formats float64 values as every data file writes them, in chunks of the
writer's row count, and compares each value's text with ``repr``:
random bit patterns over the whole range (negatives, subnormals, zeros,
inf and nan among them), the 1-3 ulp neighbours of short decimals, and
the 50 doubles on each side of every power of ten and of two.  Then
parses text as the readers do, in blocks of rows, and compares each
value with ``float`` of its text, bit for bit: the ``repr`` of every
finite value above, random decimals of 1 to 25 digits, and decimals of
16 to 20 digits nearest the points halfway between adjacent doubles.
Last, whole rank-table rows ``node P K Pstar Kstar`` made from the
finite values above by ``write_rows`` are read back by ``load_rows``
block by block, as ``read_rank_table`` reads them, and compared with
``int`` and ``float`` of their tokens.  Prints, per set, how many values took the fallback (``repr`` when
writing, ``float`` when reading) and how many differ, and exits 1 on any
difference.

    PYTHONPATH=src python scripts/float_repr_sweep.py --values 2000000 --seed 1
"""

import argparse
import decimal
import io
from unittest import mock

import numpy as np

from chei2d import _bulk
from chei2d._bulk import _CHUNK_ROWS, _float_bytes, write_rows
from chei2d.tableio import _ROW as _TABLE_ROW

_ULPS = 50  # doubles on each side of a power of ten or two
_BLOCK_ROWS = 1 << 14  # rows of one parsed block, about a read's worth
_ROW = np.dtype([("x", np.float64)])


def _around(centers: np.ndarray, steps: int) -> np.ndarray:
    """``centers`` and the ``steps`` doubles on each side of each."""
    out = [centers]
    for toward in (np.inf, -np.inf):
        value = centers
        for _ in range(steps):
            value = np.nextafter(value, toward)
            out.append(value)
    return np.concatenate(out)


def value_sets(count: int, seed: int):
    """(name, float64 values) of each set the sweep compares."""
    rng = np.random.default_rng(seed)
    yield "random bit patterns", rng.integers(0, 2 ** 64, count, dtype=np.uint64).view(np.float64)
    digits = rng.integers(1, 16, max(count // 7, 1))
    decimals = [float(f"{rng.integers(1, 10 ** d)}e{rng.integers(-330, 300)}") for d in digits]
    yield "short decimals and 1-3 ulps around", _around(np.array(decimals), 3)
    yield "around powers of ten", _around(np.array([float(f"1e{k}") for k in range(-323, 309)]), _ULPS)
    yield "around powers of two", _around(np.ldexp(1.0, np.arange(-1074, 1024)), _ULPS)


def text_sets(values: np.ndarray, count: int, seed: int):
    """(name, texts) of each set the parse compares: the ``repr`` of the
    finite ``values``, and ``count`` random decimals and midpoints."""
    yield "reprs read back", list(map(repr, values[np.isfinite(values)].tolist()))
    rng = np.random.default_rng(seed)
    texts = []
    for d, e, point, sign in zip(rng.integers(1, 26, count).tolist(),
                                 rng.integers(-330, 310, count).tolist(),
                                 rng.integers(0, 27, count).tolist(),
                                 rng.choice(["", "-", "+"], count).tolist()):
        digits = "".join(map(str, rng.integers(0, 10, d).tolist()))
        point = min(point, d)
        texts.append(f"{sign}{digits[:point]}.{digits[point:]}e{e}")
    yield "random decimals of 1-25 digits", texts
    low = rng.integers(1, 2 ** 63, max(count // 5, 1), dtype=np.uint64).view(np.float64)
    low = low[np.isfinite(low) & (low != 0)]
    high = np.nextafter(low, np.inf)
    with decimal.localcontext() as context:
        context.prec = 60
        midpoints = [(decimal.Decimal(a) + decimal.Decimal(b)) / 2
                     for a, b in zip(low.tolist(), high.tolist())]
        texts = [format(m, f".{d - 1}e") for m in midpoints for d in range(16, 21)]
    yield "near-halfway decimals of 16-20 digits", texts


def compare(values: np.ndarray) -> tuple[int, list[tuple[float, str, str]]]:
    """Fallback count and the (value, text, repr) of each mismatch."""
    fallbacks, mismatches = 0, []
    for start in range(0, values.size, _CHUNK_ROWS):
        chunk = values[start:start + _CHUNK_ROWS]
        matrix, fallback = _float_bytes(chunk)
        fallbacks += fallback.size
        rows = np.concatenate([matrix, np.full((chunk.size, 1), ord("\n"), np.uint8)], axis=1)
        texts = rows[rows != 0].tobytes().decode("ascii").split("\n")[:-1]
        expected = list(map(repr, chunk.tolist()))
        if len(texts) != len(expected):
            texts = [f"<{len(texts)} lines for {len(expected)} values>"] * len(expected)
        mismatches += [(v, t, e) for v, t, e in zip(chunk.tolist(), texts, expected) if t != e]
    return fallbacks, mismatches


def compare_parse(texts: list[str]) -> tuple[int, list[tuple[str, str, str]]]:
    """Count of values ``float`` itself read, and the (text, parsed,
    ``float``) of each mismatch."""
    # _bulk looks ``float`` up in its globals first: a counting one there
    # counts the fallbacks
    fallback = mock.Mock(wraps=float)
    mismatches = []
    with mock.patch.object(_bulk, "float", fallback, create=True):
        for start in range(0, len(texts), _BLOCK_ROWS):
            block = texts[start:start + _BLOCK_ROWS]
            rows = _bulk.load_rows(("\n".join(block) + "\n").encode(), 0, _ROW)
            expected = np.array([float(text) for text in block])
            if rows is None:
                mismatches += [(text, "declined", repr(v)) for text, v in zip(block, expected)]
                continue
            wrong = np.flatnonzero(rows["x"].view(np.uint64) != expected.view(np.uint64))
            mismatches += [(block[i], repr(rows["x"][i].item()), repr(expected[i].item()))
                           for i in wrong.tolist()]
    return fallback.call_count, mismatches


def compare_table(values: np.ndarray, seed: int) -> tuple[int, int, list[tuple[str, str, str]]]:
    """Row count, count of values ``float`` itself read, and the (token,
    parsed, expected) of each mismatch, for the rank-table rows made from
    the finite ``values``, two a row, with random ids and ranks."""
    finite = values[np.isfinite(values)]
    n = finite.size // 2
    rng = np.random.default_rng(seed)
    columns = (np.arange(1, n + 1), finite[:n], rng.permutation(n) + 1, finite[n:2 * n],
               rng.permutation(n) + 1)
    fp = io.StringIO()
    write_rows(fp, [], *columns, sep=" ")
    data = fp.getvalue().encode()
    fallback = mock.Mock(wraps=float)
    with mock.patch.object(_bulk, "float", fallback, create=True):
        parts = [_bulk.load_rows(block, 0, _TABLE_ROW) for block in _bulk._blocks(io.BytesIO(data))]
    if any(rows is None for rows in parts):
        return n, fallback.call_count, [("<a block>", "declined", "rows")]
    rows = np.concatenate(parts)
    tokens = data.decode("ascii").split()
    mismatches = []
    for j, name in enumerate(_TABLE_ROW.names):
        kind = float if _TABLE_ROW[name] == np.float64 else int
        expected = np.array([kind(t) for t in tokens[j::5]], dtype=_TABLE_ROW[name])
        wrong = np.flatnonzero(rows[name].view(np.uint64) != expected.view(np.uint64))
        mismatches += [(tokens[5 * i + j], repr(rows[name][i].item()), repr(expected[i].item()))
                       for i in wrong.tolist()]
    return n, fallback.call_count, mismatches


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--values", type=int, default=2_000_000,
                        help="random bit patterns; a seventh as many short decimals, "
                             "a quarter as many random decimals to parse")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    failed = False
    written = []
    for name, values in value_sets(args.values, args.seed):
        fallbacks, mismatches = compare(values)
        print(f"{name}: {values.size} values, {fallbacks} through repr "
              f"({fallbacks / values.size:.2%}), {len(mismatches)} mismatches")
        for value, text, expected in mismatches[:10]:
            print(f"  {value.hex()}: wrote {text!r}, repr {expected!r}")
        failed |= bool(mismatches)
        written.append(values)
    for name, texts in text_sets(np.concatenate(written), max(args.values // 4, 1), args.seed):
        fallbacks, mismatches = compare_parse(texts)
        print(f"{name}: {len(texts)} values, {fallbacks} through float "
              f"({fallbacks / len(texts):.2%}), {len(mismatches)} mismatches")
        for text, parsed, expected in mismatches[:10]:
            print(f"  {text}: read {parsed}, float {expected}")
        failed |= bool(mismatches)
    rows, fallbacks, mismatches = compare_table(np.concatenate(written), args.seed)
    print(f"rank-table rows read back: {rows} rows, {fallbacks} floats through float "
          f"({fallbacks / max(2 * rows, 1):.2%}), {len(mismatches)} mismatches")
    for text, parsed, expected in mismatches[:10]:
        print(f"  {text}: read {parsed}, expected {expected}")
    failed |= bool(mismatches)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
