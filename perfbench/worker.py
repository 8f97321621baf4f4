"""Child processes of the benchmark.

    worker.py gen CONFIG   generate one workload's inputs
    worker.py run CONFIG   set up, then run timed passes (or only set up)

CONFIG is a JSON object; results go to the file it names as "result"
(for gen, the inputs' meta.json).
Input generation has its own process so that it cannot set the peak RSS
of the measured one.
"""

from __future__ import annotations

import gc
import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import workloads
from spans import Tracer, subtree


def run(cfg: dict) -> dict:
    workload, inputs, work = cfg["workload"], Path(cfg["inputs"]), Path(cfg["work"])
    meta = workloads.load_meta(inputs)
    tracer = Tracer() if cfg["trace"] else None
    if tracer:
        tracer.install()
    state = workloads.setup(workload, inputs, meta)
    ready = time.monotonic()
    if tracer:
        tracer.uninstall()
    result = {"ready": ready}
    if cfg["setup_only"]:
        return result

    walls, traced_flags, pass_roots, output_bytes = [], [], [], []
    attempted = failed = 0
    errors: list[str] = []
    first_hashes: dict[int, dict] = {}  # graph -> hashes of its first pass
    iterations: dict[str, list[int]] = {}
    while True:
        index = len(walls)
        graph = index % meta["graphs"]
        # Pass 0 is an untraced warm-up; the passes after it are timed.  The
        # first pass on each graph is the one checked.  With tracing, traced
        # and untraced passes alternate, so trace.overhead_s compares warm passes.
        traced = tracer is not None and index % 2 == 1
        out = work / f"pass{index}"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        ops = workloads.operations(workload, inputs, out, state, graph)
        gc.collect()
        if traced:
            tracer.install()
            root = tracer.open("pass")
        t0 = time.perf_counter()
        for name, op in ops:
            attempted += 1
            try:
                if traced:
                    tracer.wrap(op, name)()
                else:
                    op()
            except Exception:
                failed += 1
                errors.append(f"pass {index} {name}: {traceback.format_exc(limit=3)}")
        walls.append(time.perf_counter() - t0)
        if traced:
            tracer.close(root)
            tracer.uninstall()
            pass_roots.append(root[0])
        traced_flags.append(traced)

        hashes = workloads.output_hashes(workload, out, state)
        output_bytes.append(sum(p.stat().st_size for p in out.rglob("*") if p.is_file()))
        if graph not in first_hashes:
            first_hashes[graph] = hashes
            if workload == "lib-solve":
                np.savez(work / f"lib_results{graph}.npz", **workloads.lib_arrays(state))
                for name, count in workloads.lib_iterations(state).items():
                    iterations.setdefault(name, []).append(count)
        else:
            shutil.rmtree(out, ignore_errors=True)
            if hashes != first_hashes[graph]:
                failed += 1
                errors.append(f"pass {index}: output hashes differ from the first "
                              f"pass on graph {graph}")
        state.pop("results", None)

        timed = walls[1:]  # timed passes take the graphs in turn from graph 1
        if (len(timed) >= meta["graphs"]
                and sum(timed) + sum(timed) / len(timed) > cfg["seconds"]):
            break

    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    hashes = {f"graph{g}/{k}": v for g, h in first_hashes.items() for k, v in h.items()}
    if iterations:
        result["iterations"] = iterations
    result |= {
        "walls": walls, "traced": traced_flags, "attempted": attempted,
        "failed": failed, "errors": errors, "hashes": hashes,
        "output_bytes": output_bytes,
    }
    if tracer:
        result["setup_spans"] = tracer.spans[:pass_roots[0]]
        result["pass_spans"] = [subtree(tracer.spans, root) for root in pass_roots]
    return result


def main(argv: list[str]) -> int:
    mode, cfg = argv[0], json.loads(argv[1])
    if mode == "gen":
        result = workloads.generate(cfg["workload"], cfg["seed"], Path(cfg["inputs"]),
                                    cfg.get("timing_only", False))
    else:
        result = run(cfg)
    Path(cfg["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
