"""The benchmark's own pass and output checks, on graphs of 2,000 nodes
and 20,000 links, so that a change which breaks a name the benchmark
calls fails here."""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import checks  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_first_passes_pass_the_checks(workload, tmp_path, monkeypatch):
    monkeypatch.setitem(workloads.SIZES, workload, {"nodes": 2_000, "links": 20_000})
    inputs, work = tmp_path / "inputs", tmp_path / "work"
    inputs.mkdir()
    meta = workloads.generate(workload, 1, inputs)
    state = workloads.setup(workload, inputs, meta)
    for j in range(meta["graphs"]):
        out = work / f"pass{j}"
        out.mkdir(parents=True)
        for _, operation in workloads.operations(workload, inputs, out, state, j):
            operation()
        assert workloads.output_hashes(workload, out, state)
        if workload == "lib-solve":
            np.savez(work / f"lib_results{j}.npz", **workloads.lib_arrays(state))
    residual, errors, _ = checks.CHECKS[workload](inputs, work, meta)
    assert errors == []
    assert residual <= checks.RESIDUAL_BOUND
