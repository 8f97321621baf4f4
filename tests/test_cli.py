import json

import numpy as np
import pytest

import chei2d.cli
from chei2d import parse_edge_list
from chei2d.cli import main
from chei2d.stats import check_flag_sizes
from chei2d.tableio import read_rank_table
from conftest import CHAIN, THREE_CYCLE
from oracle import dense_solve_oracle


@pytest.fixture
def cycle_file(tmp_path):
    path = tmp_path / "cycle.txt"
    path.write_text(THREE_CYCLE)
    return path


@pytest.fixture
def chain_file(tmp_path):
    path = tmp_path / "chain.txt"
    path.write_text(CHAIN)
    return path


def run(*argv):
    return main([str(a) for a in argv])


def test_rank_three_cycle(cycle_file, tmp_path):
    out = tmp_path / "out"
    assert run("rank", cycle_file, "--out", out) == 0
    ranking, params = read_rank_table(out / "ranks.tsv")
    assert ranking.pagerank.probabilities == pytest.approx([1 / 3] * 3, abs=1e-9)
    assert ranking.cheirank.probabilities == pytest.approx([1 / 3] * 3, abs=1e-9)
    assert params["alpha"] == 0.85
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "rank"
    assert "ranks.tsv" in manifest["outputs"]
    assert manifest["node_count"] == 3


def test_rank_chain_matches_oracle(chain_file, tmp_path):
    out = tmp_path / "out"
    assert run("rank", chain_file, "--tol", "1e-12", "--out", out) == 0
    ranking, _ = read_rank_table(out / "ranks.tsv")
    oracle = dense_solve_oracle(parse_edge_list(CHAIN))
    assert np.max(np.abs(ranking.pagerank.probabilities - oracle)) < 1e-8


def test_rank_missing_file(tmp_path):
    assert run("rank", tmp_path / "nope.txt", "--out", tmp_path / "o") == 1


def test_rank_nonconvergence_exits_2_with_outputs(chain_file, tmp_path):
    out = tmp_path / "out"
    assert run("rank", chain_file, "--tol", "1e-15", "--max-iter", "2",
               "--out", out) == 2
    assert (out / "ranks.tsv").exists()
    assert (out / "manifest.json").exists()


def test_rank_nan_tolerance_is_error(chain_file, tmp_path, capsys):
    out = tmp_path / "out"
    assert run("rank", chain_file, "--tol", "nan", "--out", out) == 1
    assert "error: tol must be positive" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, output", [
    (["filter", "--eta", "10"], "filtered_ranks.tsv"),
    (["matrix"], "gmatrix_coarse.csv"),
])
def test_nonconvergence_warning_names_vector(chain_file, tmp_path, capsys, argv, output):
    out = tmp_path / "out"
    assert run(*argv, chain_file, "--max-iter", "1", "--tol", "1e-15",
               "--out", out) == 2
    err = capsys.readouterr().err
    assert "pagerank (residual" in err and "after 1 iterations" in err
    assert (out / output).exists()


@pytest.mark.parametrize("text, lineno", [
    ("1 2\n2 99999999999999999999\n", 2),
    ("N 99999999999999999999\n1 2\n", 1),
])
def test_rank_oversized_id_is_line_numbered_error(tmp_path, capsys, text, lineno):
    edges = tmp_path / "edges.txt"
    edges.write_text(text)
    assert run("rank", edges, "--out", tmp_path / "o") == 1
    assert f"error: line {lineno}: " in capsys.readouterr().err


def test_rank_node_count_beyond_memory_is_error(tmp_path, capsys):
    # numpy refuses the 8 EiB offsets array before allocating any of it
    edges = tmp_path / "edges.txt"
    edges.write_text("N 1000000000000000000\n1 2\n2 1\n")
    assert run("rank", edges, "--out", tmp_path / "o") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "EiB" in err and "Traceback" not in err


def test_filter_flag_conflict(cycle_file, tmp_path):
    assert run("filter", cycle_file, "--eta", "1", "--eta-k", "1",
               "--out", tmp_path / "o") == 1


def test_filter_mode_mismatch(cycle_file, tmp_path):
    assert run("filter", cycle_file, "--eta", "1", "--mode", "rank",
               "--out", tmp_path / "o") == 1


@pytest.mark.parametrize("argv", [
    ["--eta=-inf"], ["--eta", "nan"], ["--eta-k=-inf"], ["--eta-k", "nan"],
    ["--eta-list", "nan,1"], ["--eta-list=-inf,1"],
])
def test_filter_rejects_nan_and_negative_infinity(cycle_file, tmp_path, capsys, argv):
    out = tmp_path / "o"
    assert run("filter", cycle_file, *argv, "--out", out) == 1
    assert "must be >= 0" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("argv", [[], ["--eta", "2"], ["--eta-k", "2"]])
def test_filter_bad_edge_list_is_line_numbered_error(tmp_path, capsys, argv):
    edges = tmp_path / "bad.txt"
    edges.write_text("1 2\n2 x\n")
    out = tmp_path / "o"
    assert run("filter", edges, *argv, "--out", out) == 1
    err = capsys.readouterr().err
    assert "error: line 2: " in err and "Traceback" not in err
    assert not out.exists()


def test_filter_eta_inf_inverts_every_link(cycle_file, tmp_path):
    for flag in ("--eta", "--eta-k"):
        out = tmp_path / flag
        assert run("filter", cycle_file, flag, "inf", "--out", out) == 0
        _, params = read_rank_table(out / "filtered_ranks.tsv")
        assert params["inverted_links"] == 3 and params["filter_eta"] == float("inf")


def test_filter_eta_zero_reports_zero_fraction(cycle_file, tmp_path):
    out = tmp_path / "out"
    assert run("filter", cycle_file, "--eta", "0", "--out", out) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["fraction"] == 0.0
    ranking, params = read_rank_table(out / "filtered_ranks.tsv")
    assert params["inverted_links"] == 0
    # at eta=0 the filtered CheiRank equals the PageRank
    assert np.array_equal(
        ranking.pagerank.probabilities, ranking.cheirank.probabilities
    )


def test_filter_default_curve(cycle_file, tmp_path):
    out = tmp_path / "out"
    assert run("filter", cycle_file, "--out", out) == 0
    rows = [
        line.split("\t")
        for line in (out / "fraction_curve.tsv").read_text().splitlines()
        if not line.startswith("#")
    ]
    assert rows[0][0] == "0.0" and float(rows[0][1]) == 0.0
    assert rows[-1][0] == "inf" and float(rows[-1][1]) == 1.0
    fractions = [float(r[1]) for r in rows]
    assert fractions == sorted(fractions)


def test_stats_outputs(cycle_file, tmp_path):
    ranks = tmp_path / "r"
    stats = tmp_path / "s"
    assert run("rank", cycle_file, "--out", ranks) == 0
    assert run("stats", ranks / "ranks.tsv", "--out", stats) == 0
    manifest = json.loads((stats / "manifest.json").read_text())
    assert manifest["kappa"] == pytest.approx(0.0, abs=1e-9)
    corr = [
        line.split("\t")
        for line in (stats / "correlator.tsv").read_text().splitlines()
        if not line.startswith("#")
    ]
    at_zero = [float(k) for t, k in corr if int(t) == 0]
    assert at_zero == [pytest.approx(manifest["kappa"])]
    deltas = [
        line.split("\t")
        for line in (stats / "point_count.tsv").read_text().splitlines()
        if not line.startswith("#")
    ]
    assert int(deltas[-1][0]) == 3 and int(deltas[-1][1]) == 3


def test_density_grid_sums_to_one(cycle_file, tmp_path):
    ranks = tmp_path / "r"
    dens = tmp_path / "d"
    assert run("rank", cycle_file, "--out", ranks) == 0
    assert run("density", ranks / "ranks.tsv", "--cells", "2", "--out", dens) == 0
    blob = json.loads((dens / "density.json").read_text())
    assert sum(sum(row) for row in blob["values"]) == pytest.approx(1.0, abs=1e-9)


def test_flow_command(cycle_file, tmp_path):
    ranks = tmp_path / "r"
    flow = tmp_path / "f"
    assert run("rank", cycle_file, "--out", ranks) == 0
    assert run("flow", cycle_file, ranks / "ranks.tsv", "--cells", "2",
               "--out", flow) == 0
    lines = (flow / "flow.tsv").read_text().splitlines()
    assert sum(1 for l in lines if not l.startswith("#")) == 4


def test_matrix_three_cycle_explicit_grid(cycle_file, tmp_path):
    out = tmp_path / "m"
    assert run("matrix", cycle_file, "--cells", "3", "--raw-window", "3",
               "--out", out) == 0
    rows = [
        [float(x) for x in line.split(",")]
        for line in (out / "gmatrix_coarse.csv").read_text().splitlines()
        if not line.startswith("#")
    ]
    grid = np.array(rows)
    hot = 0.85 + 0.05
    assert grid.sum() == pytest.approx(3.0, abs=1e-9)
    assert sorted(np.round(grid.ravel(), 10)) == pytest.approx(
        [0.05] * 6 + [hot] * 3
    )
    raw = [
        [float(x) for x in line.split(",")]
        for line in (out / "gmatrix_raw.csv").read_text().splitlines()
        if not line.startswith("#")
    ]
    assert np.array(raw).shape == (3, 3)


@pytest.mark.parametrize("flag, value", [("--raw-window", "-4"), ("--cells", "0")])
def test_matrix_rejects_negative_window_and_empty_grid(cycle_file, tmp_path, capsys,
                                                       monkeypatch, flag, value):
    def refuse(*args, **kwargs):
        raise AssertionError("the graph was read or ranked before the check")

    monkeypatch.setattr(chei2d.cli, "pagerank", refuse)
    monkeypatch.setattr(chei2d.cli, "read_edge_list", refuse)
    out = tmp_path / "m"
    assert run("matrix", cycle_file, flag, value, "--out", out) == 1
    message = {"--raw-window": "raw_window must be >= 0", "--cells": "cells must be >= 1"}
    assert capsys.readouterr().err == f"error: {message[flag]}\n"
    assert not out.exists()


@pytest.mark.parametrize("command, flag, value, message", [
    ("density", "--cells", "0", "cells must be >= 1"),
    ("density", "--cells", "2001", "cells must be <= 2000"),
    ("flow", "--cells", "2001", "cells must be <= 2000"),
    ("matrix", "--cells", "2001", "cells must be <= 2000"),
    ("matrix", "--raw-window", "2001", "raw_window must be <= 2000"),
    ("stats", "--bins", "0", "bins must be >= 1"),
    ("stats", "--bins", "1000001", "bins must be <= 1000000"),
    ("stats", "--delta-points", "0", "points must be >= 1"),
    ("stats", "--delta-points", "100000000000000", "points must be <= 1000000"),
])
def test_flag_sizes_are_bounded_before_any_input_is_read(tmp_path, capsys, monkeypatch,
                                                         command, flag, value, message):
    def refuse(*args, **kwargs):
        raise AssertionError("an input was read before the check")

    for reader in ("read_edge_list", "read_rank_table", "pagerank"):
        monkeypatch.setattr(chei2d.cli, reader, refuse)
    inputs = {"density": ["ranks.tsv"], "stats": ["ranks.tsv"],
              "flow": ["edges.txt", "ranks.tsv"], "matrix": ["edges.txt"]}[command]
    out = tmp_path / "o"
    assert run(command, *inputs, flag, value, "--out", out) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_flag_sizes_accept_their_bounds():
    check_flag_sizes(cells=2000, raw_window=2000, bins=1_000_000, points=1_000_000)
    check_flag_sizes(cells=1, raw_window=0, bins=1, points=1)


def test_twodrank_with_subset(cycle_file, tmp_path):
    ranks = tmp_path / "r"
    out = tmp_path / "t"
    subset = tmp_path / "subset.txt"
    subset.write_text("1\n3\n")
    assert run("rank", cycle_file, "--out", ranks) == 0
    assert run("twodrank", ranks / "ranks.tsv", "--subset", subset,
               "--out", out) == 0
    combined = [
        line.split("\t")
        for line in (out / "twodrank.tsv").read_text().splitlines()
        if not line.startswith("#")
    ]
    assert len(combined) == 3
    assert [int(r[1]) for r in combined] == [1, 2, 3]
    local = [
        line.split("\t")
        for line in (out / "local_ranks.tsv").read_text().splitlines()
        if not line.startswith("#")
    ]
    assert [r[0] for r in local] == ["1", "3"]


@pytest.mark.parametrize("text, message", [
    ("1\nx\n", "subset line 2: node id must be an integer"),
    ("1\n\n99999999999999999999\n", "subset line 3: node id 99999999999999999999 outside"),
])
def test_twodrank_bad_subset_is_line_numbered_error(cycle_file, tmp_path, capsys,
                                                    text, message):
    ranks = tmp_path / "r"
    subset = tmp_path / "subset.txt"
    subset.write_text(text)
    assert run("rank", cycle_file, "--out", ranks) == 0
    assert run("twodrank", ranks / "ranks.tsv", "--subset", subset,
               "--out", tmp_path / "t") == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("data, message", [
    (b"1\n2\n\xff3\n", "subset line 3: invalid UTF-8, byte 0xff (invalid start byte)"),
    (b"1\r\n2\r\xff3\n", "subset line 3: invalid UTF-8, byte 0xff (invalid start byte)"),
    (b"1\r2\r\nx\n", "subset line 3: node id must be an integer, got 'x'"),
])
def test_twodrank_subset_is_decoded_as_edge_lists_are(cycle_file, tmp_path, capsys,
                                                      data, message):
    ranks = tmp_path / "r"
    subset = tmp_path / "subset.txt"
    subset.write_bytes(data)
    assert run("rank", cycle_file, "--out", ranks) == 0
    assert run("twodrank", ranks / "ranks.tsv", "--subset", subset,
               "--out", tmp_path / "t") == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_synth_command_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run("synth", "--nodes", "50", "--seed", "3", "--out", a) == 0
    assert run("synth", "--nodes", "50", "--seed", "3", "--out", b) == 0
    assert (a / "edges.txt").read_bytes() == (b / "edges.txt").read_bytes()


def test_repeat_runs_are_byte_identical(cycle_file, tmp_path):
    outs = []
    for sub in ("x", "y", "z"):
        out = tmp_path / sub
        assert run("rank", cycle_file, "--out", out) == 0
        outs.append((out / "ranks.tsv").read_bytes())
    assert outs[0] == outs[1] == outs[2]


def test_rerun_reproduces_outputs(cycle_file, tmp_path):
    first = tmp_path / "first"
    again = tmp_path / "again"
    assert run("rank", cycle_file, "--out", first) == 0
    assert run("rerun", first / "manifest.json", "--out", again) == 0
    assert (first / "ranks.tsv").read_bytes() == (again / "ranks.tsv").read_bytes()


def _manifest_file(tmp_path, manifest):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    return path


@pytest.mark.parametrize("manifest, message", [
    (["stats", "ranks.tsv"], "manifest carries no argv to replay"),
    ({"argv": []}, "manifest carries no argv to replay"),
    ({"argv": [1, 2]}, "manifest argv must be a list of strings"),
    ({"argv": "stats"}, "manifest argv must be a list of strings"),
    ({"argv": ["stats", "--out"]}, "manifest argv ends with a dangling --out"),
])
def test_rerun_rejects_malformed_manifest(tmp_path, capsys, manifest, message):
    path = _manifest_file(tmp_path, manifest)
    assert run("rerun", path, "--out", tmp_path / "o") == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_rerun_of_a_recorded_rerun_does_not_recurse(tmp_path, capsys):
    # the manifest names itself: a replay that ran it would never end
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"argv": ["rerun", str(path)]}))
    assert run("rerun", path) == 1
    assert capsys.readouterr().err == "error: a manifest cannot replay rerun\n"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("flags, message", [
    (["--hist-hi", "inf"], "hi must be finite"),
    (["--hist-hi", "1e400"], "hi must be finite"),
    (["--hist-hi", "nan"], "need 0 < lo < hi"),
    (["--hist-lo", "inf"], "need 0 < lo < hi"),
    (["--hist-lo", "0"], "need 0 < lo < hi"),
])
def test_stats_rejects_bad_histogram_bounds(chain_file, tmp_path, capsys, flags, message):
    ranks = tmp_path / "r"
    assert run("rank", chain_file, "--out", ranks) == 0
    capsys.readouterr()
    out = tmp_path / "s"
    assert run("stats", ranks / "ranks.tsv", *flags, "--out", out) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_unknown_command_is_usage_error():
    assert main(["frobnicate"]) == 1


def test_seed_is_a_synth_flag_only(cycle_file, tmp_path):
    assert run("rank", cycle_file, "--seed", "5", "--out", tmp_path / "o") == 1


def test_stats_rejects_malformed_table(tmp_path):
    bad = tmp_path / "bad.tsv"
    bad.write_text("1 0.5 1\n")
    assert run("stats", bad, "--out", tmp_path / "o") == 1


def test_stats_rejects_table_with_swapped_ranks(chain_file, tmp_path, capsys):
    ranks = tmp_path / "r"
    assert run("rank", chain_file, "--out", ranks) == 0
    rows = (ranks / "ranks.tsv").read_text().splitlines(keepends=True)
    first = next(i for i, line in enumerate(rows) if not line.startswith("#"))
    a, b = rows[first].split(" "), rows[first + 1].split(" ")
    a[2], b[2] = b[2], a[2]  # K stays a permutation of 1..N but no longer follows P
    rows[first], rows[first + 1] = " ".join(a), " ".join(b)
    (ranks / "ranks.tsv").write_text("".join(rows))
    assert run("stats", ranks / "ranks.tsv", "--out", tmp_path / "s") == 1
    assert "K column is not the rank order" in capsys.readouterr().err
