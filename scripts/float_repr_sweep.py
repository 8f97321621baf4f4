#!/usr/bin/env python3
"""Sweep the data files' float writer against ``repr``.

Formats float64 values as every data file writes them, in chunks of the
writer's row count, and compares each value's text with ``repr``:
random bit patterns over the whole range (negatives, subnormals, zeros,
inf and nan among them), the 1-3 ulp neighbours of short decimals, and
the 50 doubles on each side of every power of ten and of two.  Prints,
per set, how many values took the ``repr`` fallback and how many
differ, and exits 1 on any difference.

    PYTHONPATH=src python scripts/float_repr_sweep.py --values 2000000 --seed 1
"""

import argparse

import numpy as np

from chei2d._bulk import _CHUNK_ROWS, _float_bytes

_ULPS = 50  # doubles on each side of a power of ten or two


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


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--values", type=int, default=2_000_000,
                        help="random bit patterns; a seventh as many short decimals")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    failed = False
    for name, values in value_sets(args.values, args.seed):
        fallbacks, mismatches = compare(values)
        print(f"{name}: {values.size} values, {fallbacks} through repr "
              f"({fallbacks / values.size:.2%}), {len(mismatches)} mismatches")
        for value, text, expected in mismatches[:10]:
            print(f"  {value.hex()}: wrote {text!r}, repr {expected!r}")
        failed |= bool(mismatches)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
