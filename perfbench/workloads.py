"""The benchmark's workloads: how each one's inputs are generated, how its
process sets up, and what one timed pass runs.

Every call into chei2d goes through a public name looked up at call time
(``chei2d.cli.main``, ``chei2d.<function>``), so the tracer's wrappers
see it.  No call passes a thread count or a seed, except the generator's
seed to ``synth_scale_free``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import time
from pathlib import Path

import numpy as np

MU_IN, MU_OUT = 2.1, 2.7
ETAS = [0.0, 0.1, 1.0, 10.0, 100.0, 1000.0, float("inf")]  # the CLI's default list
FILTER_ETA = 10.0

# Sizes of the generated graphs behind each workload's input.
SIZES = {
    "cli": {"nodes": 100_000, "links": 1_000_000},
    "lib-solve": {"nodes": 150_000, "links": 1_500_000},
}
WORKLOADS = tuple(SIZES)
# Graphs per workload, taken in turn by the passes.  A graph's work depends
# on its seed (about one seed in seven collapses to under half its link
# budget around a giant hub, and a power iteration takes 24 to 93 steps),
# and the median pass over five graphs moves far less with the seed than
# one graph's pass.
GRAPHS = 5


def graph_seeds(seed: int) -> list[int]:
    """Generator seeds of a workload's graphs; distinct seeds never share one."""
    return [seed * GRAPHS + j for j in range(GRAPHS)]


def array_hash(a: np.ndarray) -> str:
    a = np.ascontiguousarray(a)
    h = hashlib.sha256(f"{a.dtype.str}{a.shape}".encode())
    h.update(a.tobytes())
    return h.hexdigest()


def file_hash(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fp:
        for block in iter(lambda: fp.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


# -- input generation (runs in its own process) -------------------------------


def generate(workload: str, seed: int, out: Path, timing_only: bool = False) -> dict:
    """Write the workload's inputs into ``out`` and return their facts.
    With ``timing_only`` only the generator's steps that the traced run
    times are taken (the graphs, and the cli workload's edge lists);
    ``out`` is then a throwaway directory."""
    import chei2d

    size = SIZES[workload]
    meta = {"workload": workload, "seed": seed, "nodes": size["nodes"], "links": 0,
            "collapsed_duplicates": 0, "synth_scale_free_s": 0.0,
            "write_edge_list_s": 0.0, "edge_list_lines": [], "graphs": GRAPHS}
    for j, graph_seed in enumerate(graph_seeds(seed)):
        t = time.perf_counter()
        g = chei2d.synth_scale_free(size["nodes"], MU_IN, MU_OUT, graph_seed,
                                    links=size["links"])
        meta["synth_scale_free_s"] += time.perf_counter() - t
        meta["links"] += g.link_count
        meta["collapsed_duplicates"] += int(g.collapsed_duplicates)
        _write_graph_inputs(workload, g, out, meta, j, timing_only)
    return meta


def _write_graph_inputs(workload, g, out: Path, meta: dict, j: int, timing_only: bool):
    import chei2d

    if workload == "cli":
        t = time.perf_counter()
        chei2d.write_edge_list(g, out / f"edges{j}.txt")
        meta["write_edge_list_s"] += time.perf_counter() - t
        meta["edge_list_lines"].append(g.link_count + 1)
    if timing_only:
        return
    if workload == "cli" and j == 0:
        ids = np.arange(10, g.node_count + 1, 10)
        (out / "subset.txt").write_text("".join(f"{i}\n" for i in ids))
    # The generator's link arrays as they come: lib-solve's set-up hands
    # them to from_links, and the checks rebuild the operator from them.
    np.save(out / f"src{j}.npy", g.src)
    np.save(out / f"dst{j}.npy", g.dst)


# -- set-up and passes (run in the measured process) -------------------------


def setup(workload: str, inputs: Path, meta: dict) -> dict:
    """Everything before the first timed operation."""
    import chei2d
    import chei2d.cli  # noqa: F401

    state: dict = {"graphs": []}
    if workload == "lib-solve":
        for j in range(meta["graphs"]):
            src = np.load(inputs / f"src{j}.npy")
            dst = np.load(inputs / f"dst{j}.npy")
            state["graphs"].append(chei2d.DirectedGraph.from_links(meta["nodes"], src, dst))
    return state


def _cli(argv: list[str]):
    import chei2d.cli

    with contextlib.redirect_stdout(io.StringIO()):
        code = chei2d.cli.main(argv)
    if code != 0:
        raise RuntimeError(f"chei2d {argv[0]} exited {code}")


def operations(workload: str, inputs: Path, out: Path, state: dict, graph: int) -> list:
    """One pass, on the workload's graph number ``graph``, as a list of
    (span name, callable) operations run in order.
    A CLI command's span is named after it; its self time is the CLI's own
    code.  The library calls' spans are the benchmark's glue."""
    if workload == "cli":
        # rank, then the analysis commands on the table it just wrote
        ranks = str(out / "rank" / "ranks.tsv")
        return [
            ("cli.rank", lambda: _cli(["rank", str(inputs / f"edges{graph}.txt"),
                                       "--out", str(out / "rank")])),
            ("cli.stats", lambda: _cli(["stats", ranks, "--out", str(out / "stats")])),
            ("cli.density", lambda: _cli(["density", ranks, "--out", str(out / "density")])),
            ("cli.twodrank", lambda: _cli(["twodrank", ranks, "--subset",
                                       str(inputs / "subset.txt"),
                                       "--out", str(out / "twodrank")])),
        ]
    return _lib_operations(state, state["graphs"][graph])


def _lib_operations(state: dict, g) -> list:
    import chei2d

    res = state["results"] = {}

    def compute():
        res["ranking"] = chei2d.TwoDRanking.compute(g)

    def filtered():
        res["filtered"] = chei2d.filtered_cheirank(g, chei2d.FilterConfig(eta=FILTER_ETA))

    def curve():
        res["curve"] = chei2d.measure_fraction_curve(
            g, ETAS, ranking=res["ranking"].pagerank)

    def flow():
        res["flow"] = chei2d.compute_flow(g, res["ranking"], cells=25)

    def matrix():
        res["matrix"] = chei2d.matrix_density_render(g, res["ranking"].K, cells=500)

    return [("op.TwoDRanking.compute", compute), ("op.filtered_cheirank", filtered),
            ("op.measure_fraction_curve", curve), ("op.compute_flow", flow),
            ("op.matrix_density_render", matrix)]


def lib_arrays(state: dict) -> dict[str, np.ndarray]:
    """The lib-solve pass's results as named arrays, for hashing and checks."""
    res = state.get("results", {})
    out: dict[str, np.ndarray] = {}
    if "ranking" in res:
        r = res["ranking"]
        out |= {"P": r.pagerank.probabilities, "K": r.K,
                "Pstar": r.cheirank.probabilities, "Kstar": r.Kstar}
    if "filtered" in res:
        f = res["filtered"]
        out |= {"filtered_P": f.cheirank.probabilities, "filtered_K": f.cheirank.index,
                "filtered_inverted": np.array([f.inverted_count]),
                "filtered_fraction": np.array([f.fraction])}
    if "curve" in res:
        out["curve"] = np.asarray(res["curve"])
    if "flow" in res:
        fl = res["flow"]
        out |= {"flow_counts": fl.counts, "flow_dx": fl.dx, "flow_dy": fl.dy,
                "flow_empty": fl.empty}
    if "matrix" in res:
        out |= {"matrix_coarse": res["matrix"].coarse.values, "matrix_raw": res["matrix"].raw}
    return out


def lib_iterations(state: dict) -> dict[str, int]:
    res = state.get("results", {})
    iters = {}
    if "ranking" in res:
        iters["pagerank"] = int(getattr(res["ranking"].pagerank, "iterations_used", 0))
        iters["cheirank"] = int(getattr(res["ranking"].cheirank, "iterations_used", 0))
    if "filtered" in res:
        iters["filtered"] = int(getattr(res["filtered"].cheirank, "iterations_used", 0))
    return iters


def output_hashes(workload: str, out: Path, state: dict) -> dict[str, str]:
    """sha256 of every data file a pass wrote; manifest.json holds the wall
    clock and is left out.  lib-solve writes no files, so its result
    arrays are hashed instead."""
    if workload == "lib-solve":
        return {name: array_hash(a) for name, a in lib_arrays(state).items()}
    return {str(p.relative_to(out)): file_hash(p) for p in sorted(out.rglob("*"))
            if p.is_file() and p.name != "manifest.json"}


def load_meta(inputs: Path) -> dict:
    return json.loads((inputs / "meta.json").read_text())
