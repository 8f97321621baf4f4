"""Command-line front end: ingest, rank, analyze, serialize.

Every run writes its data files into --out plus a manifest.json
recording the command line, the parsed arguments, output names and
timing; ``chei2d rerun manifest.json --out DIR`` replays a recorded run.
Exit codes: 0 success, 1 usage or input error, 2 numeric warning (a
ranking did not converge; outputs are still written).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from array import array
from pathlib import Path

import numpy as np

from . import __version__
from ._bulk import decode_file, load_rows, read_blocks, write_rows
from .flow import compute_flow, fixed_point_cell
from .graph import read_edge_list, synth_scale_free, write_edge_list
from .ranking import (
    DEFAULT_ALPHA,
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    RankVector,
    TwoDRanking,
    pagerank,
)
from .spamfilter import FilterConfig, check_eta, filtered_cheirank, measure_fraction_curve
from .stats import (
    check_flag_sizes,
    component_histogram,
    correlator,
    correlator_components,
    correlator_series,
    density_grid,
    matrix_density_render,
    point_count_curve,
)
from .tableio import read_rank_table, write_rank_table
from .twodrank import local_rank, two_d_rank

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_WARN = 2

DEFAULT_ETA_LIST = "0,0.1,1,10,100,1000,inf"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # raise instead of argparse's SystemExit(2): usage problems exit 1
    def error(self, message):  # noqa: A003
        raise UsageError(message)


def _jsonable(value):
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    return value


def _write_manifest(out_dir: Path, args, argv, outputs, extra, vectors, started) -> None:
    manifest = {
        "tool": "chei2d",
        "version": __version__,
        "command": args.command,
        "argv": list(argv),
        "parameters": _jsonable(
            {k: v for k, v in vars(args).items() if k not in ("func", "command", "out")}
        ),
        "outputs": list(outputs),
        "wall_clock_s": time.perf_counter() - started,
    }
    manifest.update(_jsonable(extra))
    if vectors:
        manifest["iterations"] = {name: v.iterations_used for name, v in vectors.items()}
        manifest["residuals"] = {name: v.residual for name, v in vectors.items()}
        manifest["residual_history"] = {name: list(v.residual_history)
                                        for name, v in vectors.items()}
    path = out_dir / "manifest.json"
    with open(path, "w", encoding="utf-8") as fp:
        json.dump(manifest, fp, indent=2, sort_keys=True)
        fp.write("\n")
    print(f"wrote {path}")


def _convergence_exit(vectors: dict[str, RankVector]) -> int:
    """EXIT_WARN after a warning naming each vector that did not converge,
    with its last residual and iteration count; EXIT_OK if all did."""
    stalled = [
        f"{name} (residual {v.residual:.3g} after {v.iterations_used} iterations)"
        for name, v in vectors.items()
        if not v.converged
    ]
    if not stalled:
        return EXIT_OK
    print("warning: power iteration did not converge: " + "; ".join(stalled),
          file=sys.stderr)
    return EXIT_WARN


# -- commands ----------------------------------------------------------------
#
# Each command only computes.  It returns its data files as name -> writer
# (called with an open text file), its manifest extras, and the rank
# vectors whose convergence sets the exit code; main writes all of them.


def _read_graph(args):
    return read_edge_list(
        args.input, weighted=args.weighted, drop_self_loops=args.drop_self_loops
    )


def cmd_rank(args):
    g = _read_graph(args)
    ranking = TwoDRanking.compute(g, alpha=args.alpha, tol=args.tol, max_iter=args.max_iter)
    header = {"alpha": args.alpha, "tol": args.tol, "max_iter": args.max_iter,
              "weighted": args.weighted}
    files = {"ranks.tsv": lambda fp: write_rank_table(ranking, fp, header)}
    extra = {"node_count": g.node_count, "link_count": g.link_count}
    return files, extra, {"pagerank": ranking.pagerank, "cheirank": ranking.cheirank}


def cmd_stats(args):
    check_flag_sizes(bins=args.bins, points=args.delta_points)
    ranking, _ = read_rank_table(args.ranks)
    series = correlator_series(ranking, args.tau_min, args.tau_max)
    comps = correlator_components(ranking)
    hist = component_histogram(comps, bins=args.bins, lo=args.hist_lo, hi=args.hist_hi)
    sizes, deltas = point_count_curve(ranking, points=args.delta_points)
    files = {
        "correlator.tsv": series.to_tsv,
        "components_hist.tsv": hist.to_tsv,
        "point_count.tsv": lambda fp: write_rows(fp, ["columns: n delta"], sizes, deltas),
    }
    return files, {"kappa": correlator(ranking, 0), "node_count": ranking.node_count}, {}


def cmd_density(args):
    check_flag_sizes(cells=args.cells)
    ranking, _ = read_rank_table(args.ranks)
    grid = density_grid(
        ranking, cells=args.cells, scale=args.scale, divide_by_area=args.divide_by_area
    )
    return {"density.csv": grid.to_csv, "density.json": grid.to_json}, {}, {}


def cmd_flow(args):
    check_flag_sizes(cells=args.cells)
    g = _read_graph(args)
    ranking, _ = read_rank_table(args.ranks)
    field = compute_flow(
        g, ranking, cells=args.cells, scale=args.scale,
        per_link_average=args.per_link,
    )
    fixed = fixed_point_cell(field)
    extra = {"fixed_point_cell": None if fixed is None else list(fixed)}
    return {"flow.tsv": field.to_tsv}, extra, {}


def _parse_eta_list(text: str) -> list[float]:
    values = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            values.append(float(token))
        except ValueError:
            raise UsageError(f"bad eta value: {token!r}") from None
    if not values:
        raise UsageError("empty eta list")
    check_eta(values)
    if any(b < a for a, b in zip(values, values[1:])):
        raise UsageError("eta list must be ascending")
    return values


def cmd_filter(args):
    single = args.eta is not None or args.eta_k is not None
    if single and args.eta_list is not None:
        raise UsageError("--eta-list cannot be combined with a single filter value")
    if args.eta is not None and args.mode == "rank":
        raise UsageError("--eta is the probability filter; use --eta-k for rank mode")
    if args.eta_k is not None and args.mode == "probability":
        raise UsageError("--eta-k is the rank filter; use --eta for probability mode")
    mode = "rank" if args.eta_k is not None else (args.mode or "probability")
    g = _read_graph(args)

    if single:
        eta = args.eta if args.eta is not None else args.eta_k
        config = FilterConfig(
            mode=mode, eta=eta, alpha=args.alpha, tol=args.tol, max_iter=args.max_iter
        )
        result = filtered_cheirank(g, config)
        ranking = TwoDRanking(result.pagerank, result.cheirank)
        header = {
            "alpha": args.alpha, "tol": args.tol, "max_iter": args.max_iter,
            "filter_mode": mode,
            "filter_eta": eta,
            "inverted_links": result.inverted_count,
            "inverted_fraction": result.fraction,
        }
        files = {"filtered_ranks.tsv": lambda fp: write_rank_table(ranking, fp, header)}
        extra = {"inverted_links": result.inverted_count, "fraction": result.fraction}
        return files, extra, {"pagerank": result.pagerank, "filtered cheirank": result.cheirank}

    etas = _parse_eta_list(args.eta_list or DEFAULT_ETA_LIST)
    base = pagerank(g, alpha=args.alpha, tol=args.tol, max_iter=args.max_iter)
    fractions = measure_fraction_curve(g, etas, mode=mode, ranking=base)

    def write_curve(fp):
        write_rows(fp, [f"mode={mode}", "columns: eta f"], etas, fractions)

    files = {"fraction_curve.tsv": write_curve}
    return files, {"fractions": list(fractions)}, {"pagerank": base}


def cmd_matrix(args):
    check_flag_sizes(cells=args.cells, raw_window=args.raw_window)
    g = _read_graph(args)
    computed = {}
    if args.ranks:
        ranking, _ = read_rank_table(args.ranks)
        if ranking.node_count != g.node_count:
            raise ValueError("rank table does not match the graph")
        k_index = ranking.K
    else:
        p = pagerank(g, alpha=args.alpha, tol=args.tol, max_iter=args.max_iter)
        computed["pagerank"] = p
        k_index = p.index
    render = matrix_density_render(
        g, k_index, cells=args.cells, alpha=args.alpha, raw_window=args.raw_window
    )

    def write_raw(fp):
        write_rows(fp, [f"raw_window={render.raw.shape[0]}"], *render.raw.T, sep=",")

    files = {
        "gmatrix_coarse.csv": render.coarse.to_csv,
        "gmatrix_coarse.json": render.coarse.to_json,
        "gmatrix_raw.csv": write_raw,
    }
    return files, {}, computed


_SUBSET_ROW = np.dtype([("node", np.int64)])


def _read_subset(path, node_count: int) -> np.ndarray:
    """Node ids of a subset file, one per line; ``#`` comments and blank
    lines are skipped.  Each id must lie in [1, node_count].  The file is
    read in blocks as the edge-list and rank-table readers read theirs:
    a block of plain ids in range is parsed in bulk, and
    :func:`_parse_subset`, the only source of the rules and messages,
    reads the others."""

    def load(block):
        rows = load_rows(block, 0, _SUBSET_ROW)
        ids = None if rows is None else rows["node"]
        if ids is not None and ids.size and (ids.min() < 1 or ids.max() > node_count):
            return None  # for the line loop to name the line
        return ids

    try:
        with open(path, "rb") as fp:
            return np.concatenate(list(read_blocks(
                fp, lambda line: not line or line.startswith(b"#"), load,
                lambda text, first_line: _parse_subset(text, first_line, node_count),
                decode_file)))
    except ValueError as exc:
        raise ValueError(f"subset {exc}") from None


def _parse_subset(text: str, first_line: int, node_count: int) -> np.ndarray:
    """The line loop of :func:`_read_subset`: the ids of the lines of
    ``text`` numbered from ``first_line``."""
    ids = array("q")
    for lineno, raw in enumerate(text.split("\n"), first_line):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            node = int(line)
        except ValueError:
            raise ValueError(f"line {lineno}: node id must be an integer, got {line!r}") from None
        if not 1 <= node <= node_count:
            raise ValueError(f"line {lineno}: node id {node} outside [1, {node_count}]")
        ids.append(node)
    return np.frombuffer(ids, dtype=np.int64)


def cmd_twodrank(args):
    ranking, _ = read_rank_table(args.ranks)
    order = two_d_rank(ranking).order

    def write_combined(fp):
        write_rows(
            fp, ["columns: node_id twodrank K Kstar"],
            order, np.arange(1, order.size + 1),
            ranking.K[order - 1], ranking.Kstar[order - 1],
        )

    files = {"twodrank.tsv": write_combined}
    extra = {}
    if args.subset:
        ranks = local_rank(ranking, _read_subset(args.subset, ranking.node_count))
        files["local_ranks.tsv"] = lambda fp: write_rows(
            fp, ["columns: node_id k_local kstar_local"],
            ranks.node_ids, ranks.k_local, ranks.kstar_local,
        )
        extra["subset_size"] = int(ranks.node_ids.size)
    return files, extra, {}


def cmd_synth(args):
    g = synth_scale_free(
        args.nodes, args.mu_in, args.mu_out, args.seed, links=args.links
    )
    files = {"edges.txt": lambda fp: write_edge_list(g, fp)}
    return files, {"node_count": g.node_count, "link_count": g.link_count}, {}


def _recorded_argv(args) -> list[str]:
    """The argv a manifest recorded, its ``--out`` replaced by ``args.out``
    when that is given."""
    with open(args.manifest, "r", encoding="utf-8") as fp:
        manifest = json.load(fp)
    if not isinstance(manifest, dict) or not manifest.get("argv"):
        raise ValueError("manifest carries no argv to replay")
    recorded = manifest["argv"]
    if not isinstance(recorded, list) or not all(isinstance(a, str) for a in recorded):
        raise ValueError("manifest argv must be a list of strings")
    if args.out is not None:
        if "--out" in recorded:
            i = recorded.index("--out")
            if i + 1 >= len(recorded):
                raise ValueError("manifest argv ends with a dangling --out")
            recorded[i + 1] = args.out
        else:
            recorded += ["--out", args.out]
    return recorded


# -- parser ------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="chei2d", description=__doc__)
    parser.add_argument("--version", action="version", version=f"chei2d {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run_opts = argparse.ArgumentParser(add_help=False)
    run_opts.add_argument("--out", default="chei2d-out", help="output directory")

    iter_opts = argparse.ArgumentParser(add_help=False)
    iter_opts.add_argument("--alpha", type=float, default=DEFAULT_ALPHA)
    iter_opts.add_argument("--tol", type=float, default=DEFAULT_TOL)
    iter_opts.add_argument("--max-iter", type=int, default=DEFAULT_MAX_ITER)

    graph_opts = argparse.ArgumentParser(add_help=False)
    graph_opts.add_argument("--weighted", action="store_true",
                            help="normalize columns by link weights")
    graph_opts.add_argument("--drop-self-loops", action="store_true")

    p = sub.add_parser("rank", parents=[run_opts, iter_opts, graph_opts],
                       help="PageRank + CheiRank table for an edge list")
    p.add_argument("input", help="edge-list file")
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("stats", parents=[run_opts],
                       help="correlator series, component histogram, point counts")
    p.add_argument("ranks", help="rank table from 'chei2d rank'")
    p.add_argument("--tau-min", type=int, default=-100)
    p.add_argument("--tau-max", type=int, default=100)
    p.add_argument("--bins", type=int, default=200)
    p.add_argument("--hist-lo", type=float, default=1e-8)
    p.add_argument("--hist-hi", type=float, default=1e2)
    p.add_argument("--delta-points", type=int, default=100)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("density", parents=[run_opts],
                       help="node-density grid over the ranked plane")
    p.add_argument("ranks")
    p.add_argument("--cells", type=int, default=100)
    p.add_argument("--scale", choices=("linear", "log"), default="log")
    p.add_argument("--divide-by-area", action="store_true")
    p.set_defaults(func=cmd_density)

    p = sub.add_parser("flow", parents=[run_opts, graph_opts],
                       help="link flow field over the ranked plane")
    p.add_argument("input", help="edge-list file")
    p.add_argument("ranks", help="rank table for the same graph")
    p.add_argument("--cells", type=int, default=25)
    p.add_argument("--scale", choices=("linear", "log"), default="log")
    p.add_argument("--per-link", action="store_true",
                   help="average over links instead of nodes")
    p.set_defaults(func=cmd_flow)

    p = sub.add_parser("filter", parents=[run_opts, iter_opts, graph_opts],
                       help="selective link inversion and filtered CheiRank")
    grp = p.add_mutually_exclusive_group()
    grp.add_argument("--eta", type=float,
                     help="probability-filter value (inf inverts every link)")
    grp.add_argument("--eta-k", type=float,
                     help="rank-filter value (inf inverts every link)")
    p.add_argument("--eta-list", default=None,
                   help=f"fraction curve over these values (default {DEFAULT_ETA_LIST})")
    p.add_argument("--mode", choices=("probability", "rank"), default=None)
    p.add_argument("input", help="edge-list file")
    p.set_defaults(func=cmd_filter)

    p = sub.add_parser("matrix", parents=[run_opts, iter_opts, graph_opts],
                       help="coarse-grained transition matrix in the rank basis")
    p.add_argument("input", help="edge-list file")
    p.add_argument("--ranks", default=None, help="reuse an existing rank table")
    p.add_argument("--cells", type=int, default=500)
    p.add_argument("--raw-window", type=int, default=200)
    p.set_defaults(func=cmd_matrix)

    p = sub.add_parser("twodrank", parents=[run_opts],
                       help="combined 2D ordering and subset-local ranks")
    p.add_argument("ranks")
    p.add_argument("--subset", default=None, help="file with one node id per line")
    p.set_defaults(func=cmd_twodrank)

    p = sub.add_parser("synth", parents=[run_opts],
                       help="synthetic scale-free edge list")
    p.add_argument("--nodes", type=int, required=True)
    p.add_argument("--mu-in", type=float, default=2.1)
    p.add_argument("--mu-out", type=float, default=2.7)
    p.add_argument("--links", type=int, default=None,
                   help="exact link budget (default: sampled degree total)")
    p.add_argument("--seed", type=int, default=0, help="generator seed")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("rerun", help="replay a recorded run from its manifest")
    p.add_argument("manifest")
    p.add_argument("--out", default=None, help="redirect outputs to this directory")

    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    argv = list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "rerun":
            argv = _recorded_argv(args)
            args = parser.parse_args(argv)
            if args.command == "rerun":
                raise UsageError("a manifest cannot replay rerun")
        started = time.perf_counter()
        files, extra, vectors = args.func(args)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        for name, write in files.items():
            with open(out / name, "w", encoding="utf-8") as fp:
                write(fp)
            print(f"wrote {out / name}")
        _write_manifest(out, args, argv, files, extra, vectors, started)
        return _convergence_exit(vectors)
    except (UsageError, OSError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
