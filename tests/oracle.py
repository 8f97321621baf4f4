"""Dense references for small graphs, an in-memory rank table and the
row text of a data file, used only by the tests."""

import io

import numpy as np

from chei2d import DEFAULT_ALPHA, DirectedGraph, TwoDRanking, write_rank_table

_DENSE_LIMIT = 2000


def _dense_stochastic(g: DirectedGraph) -> np.ndarray:
    n = g.node_count
    if n > _DENSE_LIMIT:
        raise ValueError(f"dense path refuses graphs larger than {_DENSE_LIMIT} nodes")
    S = np.zeros((n, n))
    np.add.at(S, (g.dst - 1, g.src - 1), g.weight)
    out_strength = np.bincount(g.src, weights=g.weight, minlength=n + 1)[1:]
    filled = out_strength > 0
    S[:, filled] /= out_strength[filled]
    S[:, ~filled] = 1.0 / n
    return S


def dense_google_matrix(g: DirectedGraph, alpha: float = DEFAULT_ALPHA) -> np.ndarray:
    """Full damped matrix for small graphs; element (i-1, j-1) is the
    transition weight from node j to node i."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must be in (0, 1]")
    n = g.node_count
    return alpha * _dense_stochastic(g) + (1.0 - alpha) / n


def dense_solve_oracle(g: DirectedGraph, alpha: float = DEFAULT_ALPHA) -> np.ndarray:
    """Exact stationary probabilities by a dense direct solve.

    Solves (I - alpha*S) p = (1-alpha)/N and renormalizes; S carries the
    dangling columns explicitly as uniform.  Instances up to a few
    thousand nodes only.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    n = g.node_count
    S = _dense_stochastic(g)
    p = np.linalg.solve(np.eye(n) - alpha * S, np.full(n, (1.0 - alpha) / n))
    return p / p.sum()


def serialize_rank_table(ranking: TwoDRanking, params: dict | None = None) -> str:
    buf = io.StringIO()
    write_rank_table(ranking, buf, params=params)
    return buf.getvalue()


def reference_rows(header_lines, *columns, sep: str = "\t") -> str:
    """Data-file text by the first recipe: each header line as '# line',
    then every value as ``repr`` of its ``.tolist()`` element joined by
    ``sep``, bool columns as 0/1."""
    text = "".join(f"# {line}\n" for line in header_lines)
    arrays = [np.asarray(c) for c in columns]
    arrays = [a.astype(np.int64) if a.dtype == bool else a for a in arrays]
    if not arrays:
        return text
    row = sep.join(["{!r}"] * len(arrays)) + "\n"
    return text + "".join(map(row.format, *(a.tolist() for a in arrays)))
