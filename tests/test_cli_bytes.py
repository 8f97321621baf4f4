"""Exact bytes of every CLI data file on a 3-node graph.

Each case runs one command and compares every file it writes, except
``manifest.json``, with the text pinned here.  A change that alters a
single byte of any data file fails this test.
"""

import pytest

from chei2d.cli import main

GRAPH = "1 2\n2 3\n1 3\n"
# Float weights, a duplicate (1, 2) line whose weights sum, and a self-loop.
WEIGHTED_GRAPH = "1 2 0.5\n2 3 1.25\n1 2 2.0\n1 3 0.75\n3 3 4.0\n3 1 1.5\n"

CASES = {
    "rank": (["rank", "{edges}"], {
        "ranks.tsv": (
            "# chei2d-rank-table\n"
            "# N=3\n"
            "# alpha=0.85\n"
            "# max_iter=1000\n"
            "# tol=1e-10\n"
            "# weighted=0\n"
            "# pagerank_iterations=22\n"
            "# pagerank_residual=8.911360538377266e-11\n"
            "# pagerank_converged=1\n"
            "# cheirank_iterations=22\n"
            "# cheirank_residual=8.911360538377266e-11\n"
            "# cheirank_converged=1\n"
            "# columns: node_id P K Pstar Kstar\n"
            "1 0.1975796493066859 3 0.5208693504502232 1\n"
            "2 0.28155100024309077 2 0.28155100024309077 2\n"
            "3 0.5208693504502232 1 0.1975796493066859 3\n"
        ),
    }),
    "stats": (["stats", "{ranks}", "--bins", "4", "--hist-lo", "0.1", "--hist-hi", "10"], {
        "components_hist.tsv": (
            "# columns: lo_edge hi_edge count frequency\n"
            "# out_of_range=0\n"
            "0.1\t0.31622776601683794\t3\t1.0\n"
            "0.31622776601683794\t1.0\t0\t0.0\n"
            "1.0\t3.1622776601683795\t0\t0.0\n"
            "3.1622776601683795\t10.0\t0\t0.0\n"
        ),
        "correlator.tsv": (
            "# columns: tau kappa\n"
            "-2\t-0.18608535928468783\n"
            "-1\t-0.12009228030862396\n"
            "0\t-0.144708001207007\n"
            "1\t-0.6662275126601409\n"
            "2\t-0.8828868465395411\n"
        ),
        "point_count.tsv": (
            "# columns: n delta\n"
            "1\t0\n"
            "2\t1\n"
            "3\t3\n"
        ),
    }),
    "rank-weighted": (["rank", "{weighted}", "--weighted", "--drop-self-loops"], {
        "ranks.tsv": (
            "# chei2d-rank-table\n"
            "# N=3\n"
            "# alpha=0.85\n"
            "# max_iter=1000\n"
            "# tol=1e-10\n"
            "# weighted=1\n"
            "# pagerank_iterations=73\n"
            "# pagerank_residual=9.957612512323522e-11\n"
            "# pagerank_converged=1\n"
            "# cheirank_iterations=57\n"
            "# cheirank_residual=5.889022602900695e-11\n"
            "# cheirank_converged=1\n"
            "# columns: node_id P K Pstar Kstar\n"
            "1 0.356434852096576 2 0.37949762390595887 1\n"
            "2 0.28305355715178154 3 0.2479293957799521 3\n"
            "3 0.3605115907516422 1 0.3725729803140888 2\n"
        ),
    }),
    "rank-weighted-self-loop": (["rank", "{weighted}", "--weighted"], {
        "ranks.tsv": (
            "# chei2d-rank-table\n"
            "# N=3\n"
            "# alpha=0.85\n"
            "# max_iter=1000\n"
            "# tol=1e-10\n"
            "# weighted=1\n"
            "# pagerank_iterations=26\n"
            "# pagerank_residual=2.6078972314991233e-11\n"
            "# pagerank_converged=1\n"
            "# cheirank_iterations=25\n"
            "# cheirank_residual=6.29709895338948e-11\n"
            "# cheirank_converged=1\n"
            "# columns: node_id P K Pstar Kstar\n"
            "1 0.19533678756790754 2 0.24605884487655147 2\n"
            "2 0.17772020724741375 3 0.15590265165514702 3\n"
            "3 0.626943005184679 1 0.5980385034683019 1\n"
        ),
    }),
    "flow-weighted-per-link": (
        ["flow", "{weighted}", "{wranks}", "--weighted", "--drop-self-loops", "--per-link",
         "--cells", "2"], {
            "flow.tsv": (
                "# scale=log\n"
                "# cells=2\n"
                "# columns: i istar n dx dy amplitude empty\n"
                "0\t0\t0\t0.0\t0.0\t0.0\t1\n"
                "0\t1\t1\t1.0\t-1.0\t1.4142135623730951\t0\n"
                "1\t0\t1\t-0.5\t1.0\t1.118033988749895\t0\n"
                "1\t1\t1\t-1.0\t0.0\t1.0\t0\n"
            ),
        }),
    "density": (["density", "{ranks}", "--cells", "2"], {
        "density.csv": (
            "# scale=log\n"
            "# cells=2\n"
            "# normalization=1.0\n"
            "0.0,0.3333333333333333\n"
            "0.3333333333333333,0.3333333333333333\n"
        ),
        "density.json": (
            "{\"cells\": 2, \"normalization\": 1.0, \"scale\": \"log\", \"values\": [[0.0, 0.3333333333333333], [0.3333333333333333, 0.3333333333333333]]}\n"
        ),
    }),
    "flow": (["flow", "{edges}", "{ranks}", "--cells", "2"], {
        "flow.tsv": (
            "# scale=log\n"
            "# cells=2\n"
            "# columns: i istar n dx dy amplitude empty\n"
            "0\t0\t0\t0.0\t0.0\t0.0\t1\n"
            "0\t1\t1\t0.0\t0.0\t0.0\t1\n"
            "1\t0\t1\t-1.0\t2.0\t2.23606797749979\t0\n"
            "1\t1\t1\t-1.0\t0.0\t1.0\t0\n"
        ),
    }),
    "filter-curve": (["filter", "{edges}"], {
        "fraction_curve.tsv": (
            "# mode=probability\n"
            "# columns: eta f\n"
            "0.0\t0.0\n"
            "0.1\t0.0\n"
            "1.0\t0.0\n"
            "10.0\t1.0\n"
            "100.0\t1.0\n"
            "1000.0\t1.0\n"
            "inf\t1.0\n"
        ),
    }),
    "filter-eta": (["filter", "{edges}", "--eta", "2"], {
        "filtered_ranks.tsv": (
            "# chei2d-rank-table\n"
            "# N=3\n"
            "# alpha=0.85\n"
            "# filter_eta=2.0\n"
            "# filter_mode=probability\n"
            "# inverted_fraction=0.6666666666666666\n"
            "# inverted_links=2\n"
            "# max_iter=1000\n"
            "# tol=1e-10\n"
            "# pagerank_iterations=22\n"
            "# pagerank_residual=8.911360538377266e-11\n"
            "# pagerank_converged=1\n"
            "# cheirank_iterations=1\n"
            "# cheirank_residual=0.0\n"
            "# cheirank_converged=1\n"
            "# columns: node_id P K Pstar Kstar\n"
            "1 0.1975796493066859 3 0.3333333333333333 1\n"
            "2 0.28155100024309077 2 0.3333333333333333 2\n"
            "3 0.5208693504502232 1 0.3333333333333333 3\n"
        ),
    }),
    "matrix": (["matrix", "{edges}", "--cells", "2", "--raw-window", "2"], {
        "gmatrix_coarse.csv": (
            "# scale=linear\n"
            "# cells=2\n"
            "# normalization=2.9999999999999996\n"
            "1.6166666666666667,0.95\n"
            "0.38333333333333336,0.05000000000000001\n"
        ),
        "gmatrix_coarse.json": (
            "{\"cells\": 2, \"normalization\": 2.9999999999999996, \"scale\": \"linear\", \"values\": [[1.6166666666666667, 0.95], [0.38333333333333336, 0.05000000000000001]]}\n"
        ),
        "gmatrix_raw.csv": (
            "# raw_window=2\n"
            "0.3333333333333333,0.9\n"
            "0.3333333333333333,0.05000000000000001\n"
        ),
    }),
    # Weighted strengths, the duplicate (1, 2) lines summed, and a self-loop.
    "matrix-weighted": (["matrix", "{weighted}", "--weighted", "--cells", "2",
                         "--raw-window", "3"], {
        "gmatrix_coarse.csv": (
            "# scale=linear\n"
            "# cells=2\n"
            "# normalization=2.9999999999999996\n"
            "1.246153846153846,0.95\n"
            "0.7538461538461538,0.05000000000000001\n"
        ),
        "gmatrix_coarse.json": (
            "{\"cells\": 2, \"normalization\": 2.9999999999999996, \"scale\": \"linear\", \"values\": [[1.246153846153846, 0.95], [0.7538461538461538, 0.05000000000000001]]}\n"
        ),
        "gmatrix_raw.csv": (
            "# raw_window=3\n"
            "0.6681818181818182,0.24615384615384617,0.9\n"
            "0.2818181818181818,0.05000000000000001,0.05000000000000001\n"
            "0.05000000000000001,0.7038461538461539,0.05000000000000001\n"
        ),
    }),
    "twodrank": (["twodrank", "{ranks}", "--subset", "{subset}"], {
        "local_ranks.tsv": (
            "# columns: node_id k_local kstar_local\n"
            "1\t2\t1\n"
            "3\t1\t2\n"
        ),
        "twodrank.tsv": (
            "# columns: node_id twodrank K Kstar\n"
            "2\t1\t2\t2\n"
            "1\t2\t3\t1\n"
            "3\t3\t1\t3\n"
        ),
    }),
    "filter-eta-k": (["filter", "{edges}", "--eta-k", "2"], {
        "filtered_ranks.tsv": (
            "# chei2d-rank-table\n"
            "# N=3\n"
            "# alpha=0.85\n"
            "# filter_eta=2.0\n"
            "# filter_mode=rank\n"
            "# inverted_fraction=0.3333333333333333\n"
            "# inverted_links=1\n"
            "# max_iter=1000\n"
            "# tol=1e-10\n"
            "# pagerank_iterations=22\n"
            "# pagerank_residual=8.911360538377266e-11\n"
            "# pagerank_converged=1\n"
            "# cheirank_iterations=22\n"
            "# cheirank_residual=8.911360538377266e-11\n"
            "# cheirank_converged=1\n"
            "# columns: node_id P K Pstar Kstar\n"
            "1 0.1975796493066859 3 0.28155100024309077 2\n"
            "2 0.28155100024309077 2 0.1975796493066859 3\n"
            "3 0.5208693504502232 1 0.5208693504502232 1\n"
        ),
    }),
    "filter-weighted-eta": (["filter", "{weighted}", "--weighted", "--eta", "2"], {
        "filtered_ranks.tsv": (
            "# chei2d-rank-table\n"
            "# N=3\n"
            "# alpha=0.85\n"
            "# filter_eta=2.0\n"
            "# filter_mode=probability\n"
            "# inverted_fraction=0.6\n"
            "# inverted_links=3\n"
            "# max_iter=1000\n"
            "# tol=1e-10\n"
            "# pagerank_iterations=26\n"
            "# pagerank_residual=2.6078972314991233e-11\n"
            "# pagerank_converged=1\n"
            "# cheirank_iterations=3\n"
            "# cheirank_residual=0.0\n"
            "# cheirank_converged=1\n"
            "# columns: node_id P K Pstar Kstar\n"
            "1 0.19533678756790754 2 0.07833333333333335 2\n"
            "2 0.17772020724741375 3 0.05000000000000001 3\n"
            "3 0.626943005184679 1 0.8716666666666667 1\n"
        ),
    }),
    "filter-weighted-eta-k": (["filter", "{weighted}", "--weighted", "--eta-k", "2"], {
        "filtered_ranks.tsv": (
            "# chei2d-rank-table\n"
            "# N=3\n"
            "# alpha=0.85\n"
            "# filter_eta=2.0\n"
            "# filter_mode=rank\n"
            "# inverted_fraction=0.6\n"
            "# inverted_links=3\n"
            "# max_iter=1000\n"
            "# tol=1e-10\n"
            "# pagerank_iterations=26\n"
            "# pagerank_residual=2.6078972314991233e-11\n"
            "# pagerank_converged=1\n"
            "# cheirank_iterations=3\n"
            "# cheirank_residual=0.0\n"
            "# cheirank_converged=1\n"
            "# columns: node_id P K Pstar Kstar\n"
            "1 0.19533678756790754 2 0.07833333333333335 2\n"
            "2 0.17772020724741375 3 0.05000000000000001 3\n"
            "3 0.626943005184679 1 0.8716666666666667 1\n"
        ),
    }),
    # Inverting 3 -> 1 lands on the existing 1 -> 3 link with another weight.
    "filter-weighted-parallel": (["filter", "{weighted}", "--weighted", "--eta", "0.5"], {
        "filtered_ranks.tsv": (
            "# chei2d-rank-table\n"
            "# N=3\n"
            "# alpha=0.85\n"
            "# filter_eta=0.5\n"
            "# filter_mode=probability\n"
            "# inverted_fraction=0.2\n"
            "# inverted_links=1\n"
            "# max_iter=1000\n"
            "# tol=1e-10\n"
            "# pagerank_iterations=26\n"
            "# pagerank_residual=2.6078972314991233e-11\n"
            "# pagerank_converged=1\n"
            "# cheirank_iterations=3\n"
            "# cheirank_residual=0.0\n"
            "# cheirank_converged=1\n"
            "# columns: node_id P K Pstar Kstar\n"
            "1 0.19533678756790754 2 0.05000000000000001 3\n"
            "2 0.17772020724741375 3 0.0723684210526316 2\n"
            "3 0.626943005184679 1 0.8776315789473685 1\n"
        ),
    }),
    "synth": (["synth", "--nodes", "10", "--links", "6", "--seed", "1"], {
        "edges.txt": (
            "N 10\n"
            "1 4\n"
            "2 3\n"
            "4 8\n"
            "7 6\n"
            "8 5\n"
        ),
    }),
}


@pytest.fixture
def paths(tmp_path):
    edges = tmp_path / "edges.txt"
    edges.write_text(GRAPH)
    subset = tmp_path / "subset.txt"
    subset.write_text("3\n1\n")
    ranks = tmp_path / "r"
    assert main(["rank", str(edges), "--out", str(ranks)]) == 0
    weighted = tmp_path / "weighted.txt"
    weighted.write_text(WEIGHTED_GRAPH)
    wranks = tmp_path / "rw"
    assert main(["rank", str(weighted), "--weighted", "--drop-self-loops",
                 "--out", str(wranks)]) == 0
    return {"edges": str(edges), "ranks": str(ranks / "ranks.tsv"), "subset": str(subset),
            "weighted": str(weighted), "wranks": str(wranks / "ranks.tsv")}


def _data_files(out):
    return {p.name: p.read_bytes().decode() for p in out.iterdir() if p.name != "manifest.json"}


@pytest.mark.parametrize("name", sorted(CASES))
def test_data_file_bytes(paths, tmp_path, name):
    argv, expected = CASES[name]
    out = tmp_path / name
    assert main([a.format(**paths) for a in argv] + ["--out", str(out)]) == 0
    assert _data_files(out) == expected


@pytest.mark.parametrize("name", sorted(CASES))
def test_rerun_reproduces_data_files(paths, tmp_path, name):
    argv, _ = CASES[name]
    first, again = tmp_path / "first", tmp_path / "again"
    assert main([a.format(**paths) for a in argv] + ["--out", str(first)]) == 0
    assert main(["rerun", str(first / "manifest.json"), "--out", str(again)]) == 0
    assert _data_files(again) == _data_files(first)
