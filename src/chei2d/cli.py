"""Command-line front end: ingest, rank, analyze, serialize.

Every run writes its data files into --out plus a manifest.json
recording the command line, resolved parameters, output names and
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
from pathlib import Path

import numpy as np

from . import __version__
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
from .spamfilter import FilterConfig, filtered_cheirank, measure_fraction_curve
from .stats import (
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


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _emit(out_dir: Path, name: str, write_fn) -> str:
    path = out_dir / name
    with open(path, "w", encoding="utf-8") as fp:
        write_fn(fp)
    print(f"wrote {path}")
    return name


def _write_manifest(out_dir, command, argv, parameters, outputs, extra=None, started=None):
    manifest = {
        "tool": "chei2d",
        "version": __version__,
        "command": command,
        "argv": list(argv),
        "parameters": _jsonable(parameters),
        "outputs": list(outputs),
        "wall_clock_s": 0.0 if started is None else time.perf_counter() - started,
    }
    if extra:
        manifest.update(_jsonable(extra))
    path = out_dir / "manifest.json"
    with open(path, "w", encoding="utf-8") as fp:
        json.dump(manifest, fp, indent=2, sort_keys=True)
        fp.write("\n")
    print(f"wrote {path}")


def _iteration_meta(ranking: TwoDRanking) -> dict:
    return {
        "iterations": {
            "pagerank": ranking.pagerank.iterations_used,
            "cheirank": ranking.cheirank.iterations_used,
        },
        "residuals": {
            "pagerank": ranking.pagerank.residual,
            "cheirank": ranking.cheirank.residual,
        },
    }


def _rank_params(args) -> dict:
    return {"alpha": args.alpha, "tol": args.tol, "max_iter": args.max_iter}


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


def cmd_rank(args, argv) -> int:
    started = time.perf_counter()
    g = read_edge_list(
        args.input, weighted=args.weighted, drop_self_loops=args.drop_self_loops
    )
    ranking = TwoDRanking.compute(g, alpha=args.alpha, tol=args.tol, max_iter=args.max_iter)
    out = _out_dir(args)
    params = _rank_params(args) | {
        "input": str(args.input),
        "weighted": args.weighted,
        "drop_self_loops": args.drop_self_loops,
    }
    header = {"alpha": args.alpha, "tol": args.tol, "max_iter": args.max_iter,
              "weighted": args.weighted}
    outputs = [_emit(out, "ranks.tsv", lambda fp: write_rank_table(ranking, fp, header))]
    _write_manifest(
        out, "rank", argv, params, outputs,
        extra=_iteration_meta(ranking)
        | {"node_count": g.node_count, "link_count": g.link_count},
        started=started,
    )
    return _convergence_exit({"pagerank": ranking.pagerank, "cheirank": ranking.cheirank})


def cmd_stats(args, argv) -> int:
    started = time.perf_counter()
    ranking, _ = read_rank_table(args.ranks)
    series = correlator_series(ranking, args.tau_min, args.tau_max)
    comps = correlator_components(ranking)
    hist = component_histogram(comps, bins=args.bins, lo=args.hist_lo, hi=args.hist_hi)
    sizes, deltas = point_count_curve(ranking, points=args.delta_points)
    out = _out_dir(args)

    def write_deltas(fp):
        fp.write("# columns: n delta\n")
        for n, d in zip(sizes, deltas):
            fp.write(f"{n}\t{d}\n")

    outputs = [
        _emit(out, "correlator.tsv", series.to_tsv),
        _emit(out, "components_hist.tsv", hist.to_tsv),
        _emit(out, "point_count.tsv", write_deltas),
    ]
    params = {
        "ranks": str(args.ranks),
        "tau_min": args.tau_min,
        "tau_max": args.tau_max,
        "bins": args.bins,
        "hist_lo": args.hist_lo,
        "hist_hi": args.hist_hi,
        "delta_points": args.delta_points,
    }
    _write_manifest(
        out, "stats", argv, params, outputs,
        extra={"kappa": correlator(ranking, 0), "node_count": ranking.node_count},
        started=started,
    )
    return EXIT_OK


def cmd_density(args, argv) -> int:
    started = time.perf_counter()
    ranking, _ = read_rank_table(args.ranks)
    grid = density_grid(
        ranking, cells=args.cells, scale=args.scale, divide_by_area=args.divide_by_area
    )
    out = _out_dir(args)
    outputs = [
        _emit(out, "density.csv", grid.to_csv),
        _emit(out, "density.json", grid.to_json),
    ]
    params = {
        "ranks": str(args.ranks),
        "cells": args.cells,
        "scale": args.scale,
        "divide_by_area": args.divide_by_area,
    }
    _write_manifest(out, "density", argv, params, outputs, started=started)
    return EXIT_OK


def cmd_flow(args, argv) -> int:
    started = time.perf_counter()
    g = read_edge_list(
        args.input, weighted=args.weighted, drop_self_loops=args.drop_self_loops
    )
    ranking, _ = read_rank_table(args.ranks)
    field = compute_flow(
        g, ranking, cells=args.cells, scale=args.scale,
        per_link_average=args.per_link,
    )
    out = _out_dir(args)
    outputs = [_emit(out, "flow.tsv", field.to_tsv)]
    params = {
        "input": str(args.input),
        "ranks": str(args.ranks),
        "cells": args.cells,
        "scale": args.scale,
        "per_link": args.per_link,
        "weighted": args.weighted,
    }
    fixed = fixed_point_cell(field)
    _write_manifest(
        out, "flow", argv, params, outputs,
        extra={"fixed_point_cell": None if fixed is None else list(fixed)},
        started=started,
    )
    return EXIT_OK


def _parse_eta_list(text: str) -> list[float]:
    values = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            values.append(float("inf") if token == "inf" else float(token))
        except ValueError:
            raise UsageError(f"bad eta value: {token!r}") from None
    if not values:
        raise UsageError("empty eta list")
    if any(b < a for a, b in zip(values, values[1:])):
        raise UsageError("eta list must be ascending")
    return values


def cmd_filter(args, argv) -> int:
    started = time.perf_counter()
    single = args.eta is not None or args.eta_k is not None or args.eta_inf
    if single and args.eta_list is not None:
        raise UsageError("--eta-list cannot be combined with a single filter value")
    if args.eta is not None and args.mode == "rank":
        raise UsageError("--eta is the probability filter; use --eta-k for rank mode")
    if args.eta_k is not None and args.mode == "probability":
        raise UsageError("--eta-k is the rank filter; use --eta for probability mode")
    mode = "rank" if args.eta_k is not None else (args.mode or "probability")

    g = read_edge_list(
        args.input, weighted=args.weighted, drop_self_loops=args.drop_self_loops
    )
    out = _out_dir(args)
    params = _rank_params(args) | {
        "input": str(args.input),
        "weighted": args.weighted,
        "mode": mode,
    }

    if single:
        eta = args.eta if args.eta is not None else args.eta_k
        if args.eta_inf:
            eta = float("inf")
        eta_inf = math.isinf(eta)
        config = FilterConfig(
            mode=mode, eta=0.0 if eta_inf else eta, eta_inf=eta_inf,
            alpha=args.alpha, tol=args.tol, max_iter=args.max_iter,
        )
        result = filtered_cheirank(g, config)
        ranking = TwoDRanking(result.pagerank, result.cheirank)
        header = {
            "alpha": args.alpha, "tol": args.tol, "max_iter": args.max_iter,
            "filter_mode": mode,
            "filter_eta": "inf" if eta_inf else eta,
            "inverted_links": result.inverted_count,
            "inverted_fraction": result.fraction,
        }
        outputs = [
            _emit(out, "filtered_ranks.tsv",
                  lambda fp: write_rank_table(ranking, fp, header)),
        ]
        params |= {"eta": eta, "fraction": result.fraction}
        _write_manifest(
            out, "filter", argv, params, outputs,
            extra={
                "inverted_links": result.inverted_count,
                "fraction": result.fraction,
            } | _iteration_meta(ranking),
            started=started,
        )
        return _convergence_exit(
            {"pagerank": result.pagerank, "filtered cheirank": result.cheirank}
        )

    etas = _parse_eta_list(args.eta_list or DEFAULT_ETA_LIST)
    base = pagerank(g, alpha=args.alpha, tol=args.tol, max_iter=args.max_iter)
    fractions = measure_fraction_curve(g, etas, mode=mode, ranking=base)

    def write_curve(fp):
        fp.write(f"# mode={mode}\n")
        fp.write("# columns: eta f\n")
        for eta, f in zip(etas, fractions):
            tag = "inf" if math.isinf(eta) else repr(eta)
            fp.write(f"{tag}\t{float(f)!r}\n")

    outputs = [_emit(out, "fraction_curve.tsv", write_curve)]
    params |= {"etas": etas}
    _write_manifest(
        out, "filter", argv, params, outputs,
        extra={"fractions": list(fractions)}, started=started,
    )
    return _convergence_exit({"pagerank": base})


def cmd_matrix(args, argv) -> int:
    started = time.perf_counter()
    g = read_edge_list(
        args.input, weighted=args.weighted, drop_self_loops=args.drop_self_loops
    )
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
        fp.write(f"# raw_window={render.raw.shape[0]}\n")
        for row in render.raw:
            fp.write(",".join(repr(float(x)) for x in row) + "\n")

    out = _out_dir(args)
    outputs = [
        _emit(out, "gmatrix_coarse.csv", render.coarse.to_csv),
        _emit(out, "gmatrix_coarse.json", render.coarse.to_json),
        _emit(out, "gmatrix_raw.csv", write_raw),
    ]
    params = _rank_params(args) | {
        "input": str(args.input),
        "cells": args.cells,
        "raw_window": args.raw_window,
        "ranks": str(args.ranks) if args.ranks else None,
        "weighted": args.weighted,
    }
    _write_manifest(out, "matrix", argv, params, outputs, started=started)
    return _convergence_exit(computed)


def _read_subset(path, node_count: int) -> list[int]:
    """Node ids of a subset file, one per line; ``#`` comments and blank
    lines are skipped.  Each id must lie in [1, node_count]."""
    ids = []
    with open(path, "r", encoding="utf-8") as fp:
        for lineno, raw in enumerate(fp, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                node = int(line)
            except ValueError:
                raise ValueError(
                    f"subset line {lineno}: node id must be an integer, got {line!r}"
                ) from None
            if not 1 <= node <= node_count:
                raise ValueError(
                    f"subset line {lineno}: node id {node} outside [1, {node_count}]"
                )
            ids.append(node)
    return ids


def cmd_twodrank(args, argv) -> int:
    started = time.perf_counter()
    ranking, _ = read_rank_table(args.ranks)
    combined = two_d_rank(ranking)
    out = _out_dir(args)

    def write_combined(fp):
        fp.write("# columns: node_id twodrank K Kstar\n")
        for pos, node in enumerate(combined.order, 1):
            fp.write(f"{node}\t{pos}\t{ranking.K[node - 1]}\t{ranking.Kstar[node - 1]}\n")

    outputs = [_emit(out, "twodrank.tsv", write_combined)]
    extra = {}
    if args.subset:
        ranks = local_rank(ranking, _read_subset(args.subset, ranking.node_count))

        def write_local(fp):
            fp.write("# columns: node_id k_local kstar_local\n")
            for node, kl, ksl in zip(ranks.node_ids, ranks.k_local, ranks.kstar_local):
                fp.write(f"{node}\t{kl}\t{ksl}\n")

        outputs.append(_emit(out, "local_ranks.tsv", write_local))
        extra["subset_size"] = int(ranks.node_ids.size)
    params = {
        "ranks": str(args.ranks),
        "subset": str(args.subset) if args.subset else None,
    }
    _write_manifest(out, "twodrank", argv, params, outputs, extra=extra, started=started)
    return EXIT_OK


def cmd_synth(args, argv) -> int:
    started = time.perf_counter()
    g = synth_scale_free(
        args.nodes, args.mu_in, args.mu_out, args.seed, links=args.links
    )
    out = _out_dir(args)
    path = out / "edges.txt"
    write_edge_list(g, path)
    print(f"wrote {path}")
    params = {
        "nodes": args.nodes,
        "mu_in": args.mu_in,
        "mu_out": args.mu_out,
        "links": args.links,
        "seed": args.seed,
    }
    _write_manifest(
        out, "synth", argv, params, ["edges.txt"],
        extra={"node_count": g.node_count, "link_count": g.link_count},
        started=started,
    )
    return EXIT_OK


def cmd_rerun(args, argv) -> int:
    with open(args.manifest, "r", encoding="utf-8") as fp:
        manifest = json.load(fp)
    recorded = list(manifest.get("argv", []))
    if not recorded:
        raise ValueError("manifest carries no argv to replay")
    if args.out is not None:
        if "--out" in recorded:
            i = recorded.index("--out")
            if i + 1 >= len(recorded):
                raise ValueError("manifest argv ends with a dangling --out")
            recorded[i + 1] = args.out
        else:
            recorded += ["--out", args.out]
    return main(recorded)


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
    grp.add_argument("--eta", type=float, help="probability-filter value")
    grp.add_argument("--eta-k", type=float, help="rank-filter value")
    grp.add_argument("--eta-inf", action="store_true", help="invert all links")
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
    p.set_defaults(func=cmd_rerun)

    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    argv = list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args, argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
