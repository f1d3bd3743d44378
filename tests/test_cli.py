"""Command-line behavior: outputs, flags, exit codes."""

from __future__ import annotations

import json

import pytest

from gridemd import read_records_csv
from gridemd.cli import main


@pytest.fixture
def grid_files(tmp_path):
    p = tmp_path / "p.txt"
    q = tmp_path / "q.txt"
    p.write_text("1 0\n0 0\n")
    q.write_text("0 0\n0 1\n")
    return str(p), str(q)


def test_dist_all_text(grid_files, capsys):
    fp, fq = grid_files
    assert main(["dist", fp, fq]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["m 2", "n 2", "mwd 2", "wd_vec 3", "qmwd 2"]


def test_dist_single_metric(grid_files, capsys):
    fp, fq = grid_files
    assert main(["dist", fp, fq, "--metric", "qmwd"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["m 2", "n 2", "qmwd 2"]


def test_dist_plan_text(grid_files, capsys):
    fp, fq = grid_files
    assert main(["dist", fp, fq, "--metric", "mwd", "--plan"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "mwd 2" in out
    k = out.index("plan 1")
    assert out[k + 1] == "0 0 1 1 1"


def test_dist_json(grid_files, capsys):
    fp, fq = grid_files
    assert main(["dist", fp, fq, "--json", "--plan"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["m"] == 2 and doc["n"] == 2
    assert doc["mwd"] == 2 and doc["wd_vec"] == 3 and doc["qmwd"] == 2
    assert doc["plan"] == [[0, 0, 1, 1, 1]]


def test_dist_plan_needs_mwd(grid_files, capsys):
    fp, fq = grid_files
    assert main(["dist", fp, fq, "--metric", "wdvec", "--plan"]) == 2
    assert "--plan" in capsys.readouterr().err


def test_dist_missing_file(grid_files, capsys):
    _, fq = grid_files
    assert main(["dist", "/nonexistent/p.txt", fq]) == 4
    assert "error:" in capsys.readouterr().err


def test_dist_malformed_grid(tmp_path, grid_files, capsys):
    fp, _ = grid_files
    bad = tmp_path / "bad.txt"
    for content in (b"1 zebra\n", b"\xff\xfe1 2\n"):  # a bad token; not UTF-8
        bad.write_bytes(content)
        assert main(["dist", fp, str(bad)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {bad}: ")


def test_dist_mismatched_grids(tmp_path, grid_files, capsys):
    fp, _ = grid_files
    other = tmp_path / "other.txt"
    other.write_text("1 2 3\n")
    assert main(["dist", fp, str(other)]) == 3


@pytest.mark.parametrize("metric", ["mwd", "qmwd", "wdvec", "all"])
def test_dist_transposed_shapes_rejected(tmp_path, metric, capsys):
    p = tmp_path / "p.txt"
    q = tmp_path / "q.txt"
    p.write_text("1 0 0\n0 0 1\n")
    q.write_text("0 1\n1 0\n0 0\n")
    assert main(["dist", str(p), str(q), "--metric", metric]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: grids are 2x3 vs 3x2\n"


def test_dist_mass_mismatch(tmp_path, grid_files, capsys):
    fp, _ = grid_files
    other = tmp_path / "heavy.txt"
    other.write_text("2 2\n2 2\n")
    assert main(["dist", fp, str(other)]) == 3


def test_usage_errors(capsys):
    assert main([]) == 2
    assert main(["dist"]) == 2
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "dist" in capsys.readouterr().out


def test_bench_writes_csv_and_summary(tmp_path, capsys):
    out = tmp_path / "records.csv"
    code = main([
        "bench", "--n", "3", "--m-min", "2", "--m-max", "3",
        "--trials", "4", "--seed", "9", "--out", str(out),
    ])
    assert code == 0
    with open(out, encoding="utf-8", newline="") as fh:
        records = read_records_csv(fh)
    assert len(records) == 8
    captured = capsys.readouterr()
    assert "mean_err_qmwd" in captured.out
    assert "wrote 8 records" in captured.err


def test_bench_rejects_bad_flags(tmp_path, capsys):
    out = tmp_path / "records.csv"
    code = main(["bench", "--m-min", "5", "--m-max", "2", "--out", str(out)])
    assert code == 3
    capsys.readouterr()


def test_bench_negative_cap_disables_it(tmp_path, capsys):
    out = tmp_path / "records.csv"
    code = main([
        "bench", "--n", "2", "--m-min", "2", "--m-max", "2", "--trials", "2",
        "--mwd-mass-cap", "-1", "--out", str(out),
    ])
    assert code == 0
    with open(out, encoding="utf-8", newline="") as fh:
        records = read_records_csv(fh)
    assert all(r.fail_reason != "mass_cap" for r in records)
    capsys.readouterr()


def test_plot_pipeline(tmp_path, capsys):
    records = tmp_path / "records.csv"
    chart = tmp_path / "charts.svg"
    assert main([
        "bench", "--n", "3", "--m-min", "2", "--m-max", "4",
        "--trials", "3", "--out", str(records),
    ]) == 0
    assert main(["plot", "--in", str(records), "--out", str(chart)]) == 0
    text = chart.read_text()
    assert text.startswith("<svg")
    assert text.count("<polyline") == 5
    capsys.readouterr()


def test_plot_missing_input(tmp_path, capsys):
    assert main(["plot", "--in", str(tmp_path / "nope.csv"),
                 "--out", str(tmp_path / "x.svg")]) == 4
    capsys.readouterr()


def test_plot_bad_csv(tmp_path, capsys):
    src = tmp_path / "bad.csv"
    header = (
        b"m,n,trial,seed,mwd,wd_vec,qmwd,err_wd,err_qmwd,"
        b"time_mwd_ns,time_qmwd_ns,time_wd_ns,excluded,fail_reason\n"
    )
    for content in (
        b"wrong,header\n",
        b"\xff\xfe1 2\n",  # not UTF-8
        header + b"2,8,0,1,10,12,11,nan,0.1,1,1,1,0,\n",
        header + b"2,8,0,1,10,12,11,0.2,inf,1,1,1,0,\n",
    ):
        src.write_bytes(content)
        assert main(["plot", "--in", str(src), "--out", str(tmp_path / "x.svg")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {src}: ")
    assert not (tmp_path / "x.svg").exists()


def test_plot_empty_records(tmp_path, capsys):
    src = tmp_path / "empty.csv"
    src.write_text(
        "m,n,trial,seed,mwd,wd_vec,qmwd,err_wd,err_qmwd,"
        "time_mwd_ns,time_qmwd_ns,time_wd_ns,excluded,fail_reason\n"
    )
    assert main(["plot", "--in", str(src), "--out", str(tmp_path / "x.svg")]) == 2
    capsys.readouterr()