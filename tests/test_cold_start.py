"""scipy loads at a process's first operator build, and not before: the
commands that build no operator start without it.

Each check runs a fresh interpreter with ``PYTHONPATH`` set to ``src``,
since the test process itself has long imported scipy.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from chei2d.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"

# Runs each argv (a JSON list of lists, in argv[1]) through main and
# prints, per argv, its exit code and whether scipy is loaded after it.
CHILD = """
import json, sys
import chei2d, chei2d.cli
report = [["import", 0, "scipy" in sys.modules]]
for argv in json.loads(sys.argv[1]):
    code = chei2d.cli.main(argv)
    report.append([argv[0], code, "scipy" in sys.modules])
print(json.dumps(report))
"""


def _fresh(argvs) -> list:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(argvs)],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def ranked(tmp_path_factory):
    """A 2,000-node graph, its rank table and a subset file."""
    root = tmp_path_factory.mktemp("cold")
    assert main(["synth", "--nodes", "2000", "--seed", "4", "--out", str(root)]) == 0
    assert main(["rank", str(root / "edges.txt"), "--out", str(root)]) == 0
    (root / "subset.txt").write_text("".join(f"{i}\n" for i in range(1, 2001, 10)))
    return root


def test_import_leaves_scipy_unloaded():
    assert _fresh([]) == [["import", 0, False]]


def test_commands_without_an_operator_leave_scipy_unloaded(ranked, tmp_path):
    edges, ranks = str(ranked / "edges.txt"), str(ranked / "ranks.tsv")
    argvs = [
        ["synth", "--nodes", "2000", "--seed", "4"],
        ["stats", ranks],
        ["density", ranks],
        ["twodrank", ranks, "--subset", str(ranked / "subset.txt")],
        ["flow", edges, ranks],
        ["matrix", edges, "--ranks", ranks],
    ]
    argvs = [argv + ["--out", str(tmp_path / argv[0])] for argv in argvs]
    report = _fresh(argvs)
    assert report == [["import", 0, False]] + [[argv[0], 0, False] for argv in argvs]
    assert (tmp_path / "synth" / "edges.txt").read_bytes() == (ranked / "edges.txt").read_bytes()


def test_rank_loads_scipy(ranked, tmp_path):
    argv = ["rank", str(ranked / "edges.txt"), "--out", str(tmp_path)]
    assert _fresh([argv]) == [["import", 0, False], ["rank", 0, True]]
    assert (tmp_path / "ranks.tsv").read_bytes() == (ranked / "ranks.tsv").read_bytes()
