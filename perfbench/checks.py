"""Output checks, independent of chei2d's own code.

Rank tables and result files are parsed here with numpy, and the damped
PageRank operator is rebuilt with scipy.sparse from the generated links,
so a fault in the program's operator or table reader cannot hide itself.
Each check reads the outputs of the first pass on each of the
workload's graphs under the run's work directory and returns (worst L1
residual, failure texts, iteration counts read from the outputs).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import scipy.sparse as sp

ALPHA = 0.85
RESIDUAL_BOUND = 1e-8  # the dense oracle's agreement bound


def residual_l1(src0: np.ndarray, dst0: np.ndarray, n: int, p: np.ndarray) -> float:
    """L1 norm of G p - p for the damped operator G of the links src0 -> dst0
    (0-based, each link counted once, dangling columns uniform)."""
    out_degree = np.bincount(src0, minlength=n).astype(np.float64)
    link = sp.csr_matrix((1.0 / out_degree[src0], (dst0, src0)), shape=(n, n))
    dangling_mass = p[out_degree == 0].sum()
    gp = ALPHA * (link @ p) + (ALPHA * dangling_mass + (1.0 - ALPHA) * p.sum()) / n
    return float(np.abs(gp - p).sum())


def rank_order_errors(name: str, p: np.ndarray, k: np.ndarray) -> list[str]:
    """K must rank P descending, ties broken by ascending node id."""
    n = p.size
    by_rank = np.lexsort((np.arange(n), -p))
    expected = np.empty(n, dtype=np.int64)
    expected[by_rank] = np.arange(1, n + 1)
    bad = np.count_nonzero(expected != k)
    return [f"{name}: {bad} ranks differ from the rank order of the probabilities"] if bad else []


def _vector_errors(name, src0, dst0, n, p, k) -> tuple[float, list[str]]:
    res = residual_l1(src0, dst0, n, p)
    errors = rank_order_errors(name, p, k)
    if not res <= RESIDUAL_BOUND:
        errors.append(f"{name}: fixed-point residual {res:.3e} above {RESIDUAL_BOUND:g}")
    return res, errors


def _links(inputs: Path, graph: int) -> tuple[np.ndarray, np.ndarray]:
    src = np.load(inputs / f"src{graph}.npy").astype(np.int64) - 1
    dst = np.load(inputs / f"dst{graph}.npy").astype(np.int64) - 1
    return src, dst


def read_rank_table(path: Path) -> tuple[np.ndarray, dict]:
    """(rows as an (N, 5) float array, header key=value pairs)."""
    params = {}
    with open(path, encoding="utf-8") as fp:
        for line in fp:
            if not line.startswith("#"):
                break
            key, eq, value = line[1:].strip().partition("=")
            if eq:
                params[key.strip()] = value.strip()
    rows = np.loadtxt(path, comments="#", dtype=np.float64, ndmin=2)
    return rows, params


def _data_rows(path: Path, delimiter=None) -> np.ndarray:
    return np.loadtxt(path, comments="#", delimiter=delimiter, dtype=np.float64, ndmin=2)


def _is_permutation(values: np.ndarray, n: int) -> bool:
    return values.size == n and np.array_equal(np.sort(values), np.arange(1, n + 1))


def check_cli(inputs: Path, work: Path, meta: dict) -> tuple[float, list[str], dict]:
    """Pass j is the first pass on graph j.  Iteration counts are the
    median over the graphs."""
    worst, errors, iters = 0.0, [], {"pagerank": [], "cheirank": []}
    n = meta["nodes"]
    for graph in range(meta["graphs"]):
        out = work / f"pass{graph}"
        rows, params = read_rank_table(out / "rank" / "ranks.tsv")
        if rows.shape != (n, 5) or not np.array_equal(rows[:, 0], np.arange(1, n + 1)):
            errors.append(f"graph {graph}: ranks.tsv: expected {n} rows with node ids 1..N")
            continue
        src, dst = _links(inputs, graph)
        p, k = rows[:, 1], rows[:, 2].astype(np.int64)
        ps, ks = rows[:, 3], rows[:, 4].astype(np.int64)
        r1, e1 = _vector_errors("P", src, dst, n, p, k)
        r2, e2 = _vector_errors("P*", dst, src, n, ps, ks)
        worst = max(worst, r1, r2)
        errors += [f"graph {graph}: {e}" for e in e1 + e2 + _analysis_errors(out, n)]
        for name in iters:
            iters[name].append(int(params.get(f"{name}_iterations", 0)))
    return worst, errors, {name: int(np.median(v)) for name, v in iters.items() if v}


def _analysis_errors(out: Path, n: int) -> list[str]:
    """The stats, density and twodrank outputs of one pass."""
    errors: list[str] = []
    density = _data_rows(out / "density" / "density.csv", delimiter=",")
    if abs(density.sum() - 1.0) > 1e-9:
        errors.append(f"density.csv sums to {density.sum()!r}, not 1")
    with open(out / "density" / "density.json", encoding="utf-8") as fp:
        if abs(np.sum(json.load(fp)["values"]) - 1.0) > 1e-9:
            errors.append("density.json does not sum to 1")

    corr = _data_rows(out / "stats" / "correlator.tsv")
    if not (np.array_equal(corr[:, 0], np.arange(-100, 101)) and np.isfinite(corr[:, 1]).all()):
        errors.append("correlator.tsv: expected finite kappa for tau -100..100")
    hist = _data_rows(out / "stats" / "components_hist.tsv")
    with open(out / "stats" / "components_hist.tsv", encoding="utf-8") as fp:
        outside = next(int(line.split("=")[1]) for line in fp if "out_of_range=" in line)
    if int(hist[:, 2].sum()) + outside != n:
        errors.append("components_hist.tsv: counts do not add up to N")
    points = _data_rows(out / "stats" / "point_count.tsv")
    if np.any(np.diff(points[:, 1]) < 0) or points[-1, 1] != n:
        errors.append("point_count.tsv: counts not non-decreasing up to N")

    two = _data_rows(out / "twodrank" / "twodrank.tsv").astype(np.int64)
    node, pos, k, ks = two.T
    if not (_is_permutation(node, n) and np.array_equal(pos, np.arange(1, n + 1))):
        errors.append("twodrank.tsv: not an ordering of 1..N")
    elif not np.array_equal(node, node[np.lexsort((node, np.minimum(k, ks), np.maximum(k, ks)))]):
        errors.append("twodrank.tsv: order is not by (max(K,K*), min(K,K*), id)")
    else:
        k_of, ks_of = np.empty(n + 1, np.int64), np.empty(n + 1, np.int64)
        k_of[node], ks_of[node] = k, ks
        local = _data_rows(out / "twodrank" / "local_ranks.tsv").astype(np.int64)
        ids = local[:, 0]
        expected_ids = np.arange(10, n + 1, 10)
        if not np.array_equal(ids, expected_ids):
            errors.append("local_ranks.tsv: node ids are not the subset")
        else:
            for col, glob, label in ((1, k_of, "K"), (2, ks_of, "K*")):
                want = np.empty(ids.size, np.int64)
                want[np.argsort(glob[ids])] = np.arange(1, ids.size + 1)
                if not np.array_equal(local[:, col], want):
                    errors.append(f"local_ranks.tsv: local {label} ranks wrong")
    return errors


def check_lib_solve(inputs: Path, work: Path, meta: dict) -> tuple[float, list[str], dict]:
    worst, errors = 0.0, []
    for graph in range(meta["graphs"]):
        residual, errs = _check_lib_graph(inputs, work, meta["nodes"], graph)
        worst = max(worst, residual)
        errors += [f"graph {graph}: {e}" for e in errs]
    return worst, errors, {}


def _check_lib_graph(inputs: Path, work: Path, n: int, graph: int) -> tuple[float, list[str]]:
    results = work / f"lib_results{graph}.npz"
    need = ("P", "K", "Pstar", "Kstar", "filtered_P", "filtered_K", "filtered_inverted",
            "filtered_fraction", "curve", "flow_counts", "matrix_coarse")
    with np.load(results) as z:
        got = {name: z[name] for name in z.files}
    missing = [name for name in need if name not in got]
    if missing:
        return 0.0, [f"lib-solve results missing: {', '.join(missing)}"]
    src, dst = _links(inputs, graph)
    r1, errors = _vector_errors("P", src, dst, n, got["P"], got["K"])
    r2, e2 = _vector_errors("P*", dst, src, n, got["Pstar"], got["Kstar"])
    errors += e2

    p = got["P"]
    inverted = 10.0 * p[src] > p[dst]
    if int(inverted.sum()) != int(got["filtered_inverted"][0]):
        errors.append("filtered_cheirank: inverted-link count differs from eta*P(src) > P(dst)")
    fsrc, fdst = np.where(inverted, dst, src), np.where(inverted, src, dst)
    r3, e3 = _vector_errors("filtered P", fsrc, fdst, n, got["filtered_P"], got["filtered_K"])
    errors += e3

    curve = got["curve"]
    if curve.size != 7 or np.any(np.diff(curve) < 0) or curve.min() < 0 or curve.max() > 1:
        errors.append("fraction curve is not non-decreasing in [0, 1]")
    elif abs(curve[3] - got["filtered_fraction"][0]) > 1e-12:
        errors.append("fraction curve at eta=10 differs from filtered_cheirank's fraction")
    if int(got["flow_counts"].sum()) != n:
        errors.append("flow cell counts do not add up to N")
    if abs(got["matrix_coarse"].sum() - n) > 1e-6 * n:
        errors.append("matrix render does not sum to N")
    return max(r1, r2, r3), errors


CHECKS = {"cli": check_cli, "lib-solve": check_lib_solve}
