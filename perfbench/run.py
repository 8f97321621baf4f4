"""chei2d benchmark: two workloads, output checks, per-layer tracing.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Inputs for (workload, seed) are
generated once by chei2d's own generator, in a separate process, and
kept under .perfbench/inputs.  The measured process then sets up and
runs passes in a closed loop (one caller; the next operation starts
when the previous one returns): an untimed warm-up pass, then timed
passes until about S seconds of them have run, at least two.  A
workload with several graphs takes them in turn, one per pass; the
first pass on each graph is the one whose outputs are checked.

--trace 0 reports the end-to-end metrics: setup_s (median of several
set-ups, each from process start to the first timed operation), wall_s
(median timed pass) and peak_rss_mb.  --trace 1 alternates traced and
untraced passes after the warm-up and reports the per-layer metrics
instead.  Both print the sha256 of every data file the first pass on
each of the workload's graphs wrote, then one JSON line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402
from spans import summarize  # noqa: E402

DEADLINE_S = 170.0
# Set-ups per untraced run; setup_s is their median.  CLI set-up is a
# fraction of a second and noisy, lib-solve's is several seconds.
SETUPS = {"cli": 5, "lib-solve": 3}
KEEP_INPUTS = 12  # input sets kept per workload, most recently used first
CLI_COMMANDS = ("rank", "stats", "density", "twodrank")

# Span names (as the tracer derives them) behind the plain self-time
# metrics.  Times ending in _s are self times per traced pass: a span's
# duration minus that of the spans nested in it.
SELF_TIME_SPANS = {
    "graph.read_edge_list_s": "graph.read_edge_list",
    "graph.from_links_s": "graph.DirectedGraph.from_links",
    "graph.reverse_s": "graph.DirectedGraph.reverse",
    "ranking.apply_s": "ranking.StochasticOperator.apply",
    "ranking.operator_build_s": "ranking.StochasticOperator.__init__",
    "ranking.pagerank_s": "ranking.pagerank",
    "ranking.rank_order_s": "ranking.rank_order",
    "tableio.write_rank_table_s": "tableio.write_rank_table",
    "tableio.read_rank_table_s": "tableio.read_rank_table",
    "stats.correlator_series_s": "stats.correlator_series",
    "stats.correlator_s": "stats.correlator",
    "stats.correlator_components_s": "stats.correlator_components",
    "stats.density_grid_s": "stats.density_grid",
    "stats.component_histogram_s": "stats.component_histogram",
    "stats.point_count_curve_s": "stats.point_count_curve",
    "stats.matrix_density_render_s": "stats.matrix_density_render",
    "flow.compute_flow_s": "flow.compute_flow",
    "spamfilter.filtered_cheirank_s": "spamfilter.filtered_cheirank",
    "spamfilter.filter_links_by_prob_s": "spamfilter.filter_links_by_prob",
    "spamfilter.measure_fraction_curve_s": "spamfilter.measure_fraction_curve",
    "twodrank.two_d_rank_s": "twodrank.two_d_rank",
    "twodrank.local_rank_s": "twodrank.local_rank",
    **{f"cli.{cmd}.self_s": f"cli.{cmd}" for cmd in CLI_COMMANDS},
}


class BenchError(Exception):
    pass


def _child(mode: str, cfg: dict, deadline: float) -> dict:
    """Run worker.py in a fresh interpreter and return its result file."""
    env = dict(os.environ)
    env.pop("CHEI2D_THREADS", None)  # measure the CLI's own default
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    result = Path(cfg["result"])
    result.unlink(missing_ok=True)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), mode, json.dumps(cfg)],
            env=env, cwd=ROOT, stdout=sys.stderr,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} process exceeded the run's time limit") from None
    if proc.returncode != 0 or not result.is_file():
        raise BenchError(f"{mode} process exited {proc.returncode}")
    return json.loads(result.read_text())


def _inputs(workload: str, seed: int, deadline: float) -> tuple[Path, bool]:
    """The workload's inputs for ``seed``, and whether this call made them
    (else they are kept from an earlier run).  Once made they are never
    rewritten, so the output-hash records kept with them always refer to
    the same inputs."""
    base = STATE / "inputs"
    path = base / f"{workload}-{seed}"
    if (path / "meta.json").is_file():
        path.touch()
        return path, False
    others = sorted((p for p in base.glob(f"{workload}-*") if p != path),
                    key=lambda p: p.stat().st_mtime, reverse=True)
    for stale in others[KEEP_INPUTS - 1:]:
        shutil.rmtree(stale, ignore_errors=True)
    tmp = base / f".tmp-{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    try:
        _child("gen", {"workload": workload, "seed": seed, "inputs": str(tmp),
                       "result": str(tmp / "meta.json")}, deadline)
        os.sync()  # so that writing the inputs back does not overlap the timing
        shutil.rmtree(path, ignore_errors=True)
        tmp.rename(path)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return path, True


def _generator_times(workload: str, seed: int, deadline: float) -> dict:
    """Time chei2d's generator again, in a throwaway directory, so that a
    traced run reports it without touching the kept inputs."""
    tmp = STATE / "inputs" / f".gen-{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    try:
        meta = _child("gen", {"workload": workload, "seed": seed, "inputs": str(tmp),
                              "result": str(tmp / "meta.json"), "timing_only": True},
                      deadline)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    os.sync()
    return {k: meta[k] for k in ("synth_scale_free_s", "write_edge_list_s")}


def _declared(section: str) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def _code_hash() -> str:
    h = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()[:16]


def _hash_record_errors(inputs: Path, hashes: dict) -> list[str]:
    """Compare with the hashes an earlier run of the same code and seed wrote."""
    record = inputs / f"hashes-{_code_hash()}.json"
    if not record.is_file():
        record.write_text(json.dumps(hashes, indent=1, sort_keys=True))
        return []
    earlier = json.loads(record.read_text())
    differ = sorted(k for k in earlier.keys() | hashes.keys() if earlier.get(k) != hashes.get(k))
    return [f"output hash differs from an earlier run of the same code: {k}" for k in differ]


def _layer_metrics(res: dict, meta: dict, iters: dict, residual: float) -> dict:
    rows = []
    traced_graphs = [i % meta["graphs"] for i, t in enumerate(res["traced"]) if t]
    for spans, graph in zip(res["pass_spans"], traced_graphs):
        s = summarize(spans)

        def get(name, key):
            return s.get(name, {}).get(key, 0)

        m = {metric: get(span, "self_s") for metric, span in SELF_TIME_SPANS.items()}
        read_total = get("graph.read_edge_list", "total_s")
        m["graph.read_edge_list_lines_per_s"] = (
            meta["edge_list_lines"][graph] * get("graph.read_edge_list", "calls") / read_total
            if read_total else 0.0)
        apply_total = get("ranking.StochasticOperator.apply", "total_s")
        m["ranking.apply_calls"] = get("ranking.StochasticOperator.apply", "calls")
        m["ranking.apply_bytes_computed"] = get("ranking.StochasticOperator.apply", "note")
        m["ranking.apply_gbps_computed"] = (
            m["ranking.apply_bytes_computed"] / apply_total / 1e9 if apply_total else 0.0)
        m["ranking.operator_builds"] = get("ranking.StochasticOperator.__init__", "calls")
        table_total = get("tableio.read_rank_table", "total_s")
        m["tableio.read_rank_table_calls"] = get("tableio.read_rank_table", "calls")
        m["tableio.rows_per_s"] = (
            meta["nodes"] * m["tableio.read_rank_table_calls"] / table_total
            if table_total else 0.0)
        m["trace.unattributed_s"] = get("pass", "self_s") + sum(
            v["self_s"] for name, v in s.items() if name.startswith("op."))
        rows.append(m)
    out = {k: statistics.median(r[k] for r in rows) for k in rows[0]}

    walls, traced = res["walls"], res["traced"]
    setup = summarize(res["setup_spans"])
    out |= {
        "graph.from_links_setup_s": setup.get("graph.DirectedGraph.from_links",
                                              {}).get("total_s", 0.0),
        "graph.synth_scale_free_s": meta["synth_scale_free_s"],
        "graph.write_edge_list_s": meta["write_edge_list_s"],
        "graph.links": meta["links"],
        "graph.collapsed_duplicates": meta["collapsed_duplicates"],
        "ranking.pagerank_iters": iters.get("pagerank", 0),
        "ranking.cheirank_iters": iters.get("cheirank", 0),
        "ranking.filtered_iters": iters.get("filtered", 0),
        "ranking.check_residual_l1": residual,
        "cli.output_bytes": statistics.median(res["output_bytes"]),
        "trace.overhead_s": (
            statistics.median(w for w, t in zip(walls, traced) if t)
            - statistics.median(w for w, t in zip(walls[1:], traced[1:]) if not t)),
    }
    return out


def _layer_shares(res: dict) -> dict[str, float]:
    """Share of the traced pass time spent in each module's own code."""
    totals: dict[str, float] = {}
    wall = 0.0
    for spans in res["pass_spans"]:
        for name, v in summarize(spans).items():
            if name == "pass":
                wall += v["total_s"]
            layer = "unattributed" if name == "pass" or name.startswith("op.") else (
                name.split(".")[0])
            totals[layer] = totals.get(layer, 0.0) + v["self_s"]
    return {k: round(v / wall, 4) for k, v in sorted(totals.items(), key=lambda kv: -kv[1])}


def bench(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    units = _declared("per_layer" if trace else "end_to_end")
    inputs, made = _inputs(workload, seed, deadline)
    meta = workloads.load_meta(inputs)
    if trace and not made:
        meta |= _generator_times(workload, seed, deadline)
    work = STATE / "work" / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cfg = {"workload": workload, "inputs": str(inputs), "work": str(work),
           "seconds": seconds, "trace": trace, "result": str(work / "result.json")}

    setups = []
    for _ in range(0 if trace else SETUPS[workload] - 1):
        started = time.monotonic()
        setups.append(_child("run", cfg | {"setup_only": True}, deadline)["ready"] - started)
    started = time.monotonic()
    res = _child("run", cfg | {"setup_only": False}, deadline)
    setups.append(res["ready"] - started)

    try:
        residual, errors, iters = checks.CHECKS[workload](inputs, work, meta)
    except Exception as exc:  # a missing or malformed output fails the check
        residual, errors, iters = 2.0, [f"output check raised {exc!r}"], {}
    if not math.isfinite(residual):
        residual = 2.0  # the largest L1 distance of two probability vectors
    errors += _hash_record_errors(inputs, res["hashes"])
    if "iterations" in res:  # lib-solve: per graph, as the passes returned them
        iters = {name: statistics.median(v) for name, v in res["iterations"].items()}
    attempted = res["attempted"]
    failed = min(attempted, res["failed"] + (1 if errors else 0))
    for text in res["errors"] + errors:
        print(f"failure: {text.rstrip()}", file=sys.stderr)

    passes = len(res["walls"])
    print(f"{workload} seed={seed}: {passes} passes, {attempted} operations")
    print("pass walls, warm-up first (s): " + " ".join(f"{w:.3f}" for w in res["walls"]))
    if trace:
        metrics = _layer_metrics(res, meta, iters, residual)
        print("layer shares of traced pass time: " + json.dumps(_layer_shares(res)))
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(res["walls"][1:]),
            "peak_rss_mb": res["rss_mb"],
        }
    if metrics.keys() != units.keys():
        raise BenchError("measured metrics differ from BENCHMARK.json's: "
                         + ", ".join(sorted(metrics.keys() ^ units.keys())))
    metrics = {name: metrics[name] for name in units}
    for name, value in metrics.items():
        print(f"  {name:40s} {value:.6g} {units[name]}")
    print(f"  {'fail_frac':40s} {failed / attempted:.6g} ratio ({failed} of {attempted} failed)")
    print("output sha256: " + json.dumps(res["hashes"], sort_keys=True))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "chei2d" / "cli.py").is_file():
        print(f"error: no chei2d sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
