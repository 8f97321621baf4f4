"""The scripts under scripts/ run end to end at tiny sizes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SURVEY_FILES = [
    "graph/edges.txt", "rank/ranks.tsv", "stats/components_hist.tsv", "stats/correlator.tsv",
    "stats/point_count.tsv", "density/density.csv", "density/density.json", "flow/flow.tsv",
    "matrix/gmatrix_coarse.csv", "matrix/gmatrix_raw.csv", "filter_curve/fraction_curve.tsv",
    "filter_eta10/filtered_ranks.tsv", "twodrank/twodrank.tsv",
]
FRACTION_FILES = ["fraction_a1.0_nu0.0.tsv", "fraction_a0.4_nu0.0.tsv",
                  "fraction_a0.4_nu0.8.tsv"]


@pytest.mark.parametrize("script, args, files", [
    ("synthetic_survey.py", ["--nodes", "2000"], SURVEY_FILES),
    ("fraction_model_check.py", ["--nodes", "2000", "--links", "8000"], FRACTION_FILES),
])
def test_script_runs(tmp_path, script, args, files):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    out = tmp_path / "out"
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args, "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    for name in files:
        path = out / name
        assert path.is_file() and path.stat().st_size > 0, name


def test_float_repr_sweep_finds_no_mismatch():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "float_repr_sweep.py"),
         "--values", "20000", "--seed", "3"],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    # four sets written against repr, three parsed against float, and
    # rank-table rows parsed against int and float
    assert len(lines) == 8 and all(line.endswith(", 0 mismatches") for line in lines), lines
