"""End-to-end exercises of the command-line surface."""

import json

import pytest

from skelgraph.cli import main
from skelgraph.lineage import read_lineage


def files_of(directory):
    return {f.name: f.read_bytes() for f in sorted(directory.iterdir()) if f.is_file()}


def test_gen_path_manifest(tmp_path):
    out = tmp_path / "path3"
    assert main(["gen", "path", "--levels", "3", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["numLevels"] == 4
    assert len(manifest["levelFiles"]) == 4
    assert read_lineage(out).level_sizes() == [1, 2, 4, 8]


def test_gen_nhat_levels(tmp_path):
    out = tmp_path / "nhat"
    assert main(["gen", "nhat", "--levels", "4", "--out", str(out)]) == 0
    assert read_lineage(out).level_sizes() == [1, 1, 1, 1, 1]


def test_gen_grid2d_order(tmp_path):
    out = tmp_path / "grid"
    assert main(["gen", "grid2d", "--levels", "2", "--out", str(out)]) == 0
    assert read_lineage(out).levels[2].n == 16


def test_gen_round_trip_is_stable(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    main(["gen", "complete", "--levels", "2", "--out", str(a)])
    gg = read_lineage(a)
    from skelgraph.lineage import write_lineage

    write_lineage(b, gg, name="complete")
    assert files_of(a) == files_of(b)


def test_usage_errors_exit_one(tmp_path):
    assert main(["gen", "moebius", "--levels", "2", "--out", str(tmp_path / "x")]) == 1
    assert main(["gen", "path", "--out", str(tmp_path / "x")]) == 1
    assert main(["gen", "path", "--levels", "-2", "--out", str(tmp_path / "x")]) == 1


def test_product_with_oracle_check(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    main(["gen", "path", "--levels", "3", "--out", str(a)])
    main(["gen", "path", "--levels", "3", "--out", str(b)])
    out = tmp_path / "prod"
    code = main(["product", "cross", str(a), str(b), "--out", str(out), "--oracle-check"])
    assert code == 0
    assert read_lineage(out).level_sizes() == [1, 4, 12, 32]


def test_product_dilated_metadata(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    main(["gen", "nhat", "--levels", "4", "--out", str(a)])
    main(["gen", "nhat", "--levels", "4", "--out", str(b)])
    out = tmp_path / "dil"
    code = main([
        "product", "dilated", str(a), str(b),
        "--rho", "1", "2", "--out", str(out), "--levels", "4",
    ])
    assert code == 0
    meta = json.loads((out / "manifest.json").read_text())["metadata"]
    assert meta["rho"] == "1,2"
    assert meta["kind"] == "dilated-box"


def test_product_nway(tmp_path):
    dirs = []
    for name in ("a", "b", "c"):
        d = tmp_path / name
        main(["gen", "path", "--levels", "2", "--out", str(d)])
        dirs.append(str(d))
    out = tmp_path / "triple"
    assert main(["product", "nway-hat", *dirs, "--out", str(out)]) == 0
    assert read_lineage(out).level_sizes() == [1, 6, 24]


def test_thicken_command(tmp_path):
    src = tmp_path / "nhat"
    main(["gen", "nhat", "--levels", "3", "--out", str(src)])
    out = tmp_path / "th"
    assert main(["thicken", str(src), "--out", str(out)]) == 0
    assert read_lineage(out).level_sizes() == [1, 2, 3, 4]


def test_validate_command(tmp_path, capsys):
    src = tmp_path / "p"
    main(["gen", "path", "--levels", "2", "--out", str(src)])
    assert main(["validate", str(src)]) == 0
    assert "no issues" in capsys.readouterr().out


def test_validate_flags_corruption(tmp_path):
    src = tmp_path / "p"
    main(["gen", "path", "--levels", "2", "--out", str(src)])
    bad = (src / "prolong_00_01.mtx").read_text().replace("0.7071067811865476", "2.0")
    (src / "prolong_00_01.mtx").write_text(bad)
    assert main(["validate", str(src)]) == 2


@pytest.mark.parametrize("corrupt", [
    lambda text: "\n".join(text.splitlines()[:-2]) + "\n",
    lambda text: text.replace("coordinate real", "coordinate pattern", 1),
], ids=["truncated", "pattern-header"])
def test_validate_malformed_matrix_is_one_error_line(tmp_path, capsys, corrupt):
    src = tmp_path / "p"
    main(["gen", "path", "--levels", "3", "--out", str(src)])
    capsys.readouterr()
    target = src / "level_03.mtx"
    target.write_text(corrupt(target.read_text()))
    assert main(["validate", str(src)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "level_03.mtx" in err
    assert "Traceback" not in err and err.count("\n") == 1


def test_export_formats(tmp_path):
    src = tmp_path / "p"
    main(["gen", "path", "--levels", "2", "--out", str(src)])
    dot = tmp_path / "level.dot"
    assert main(["export", str(src), "--level", "2", "--format", "dot", "--out", str(dot)]) == 0
    text = dot.read_text()
    assert text.count(";") >= 4
    edges = tmp_path / "level.edges"
    assert main(["export", str(src), "--level", "2", "--format", "edges", "--out", str(edges)]) == 0
    assert edges.read_text() == "0 1\n1 2\n2 3\n"
    assert main(["export", str(src), "--level", "9", "--format", "dot", "--out", str(dot)]) == 1


def test_cnn_structure_counts(tmp_path):
    out = tmp_path / "cnn"
    code = main(["cnn-structure", "--grid-levels", "2", "--feature-levels", "2", "--out", str(out)])
    assert code == 0
    gg = read_lineage(out)
    assert gg.level_sizes() == [1, 6, 28]
    dot = (out / "top_level.dot").read_text()
    assert dot.count(";") >= 28  # at least one line per vertex
    node_lines = [ln for ln in dot.splitlines() if ln.strip().endswith(";") and "--" not in ln]
    assert len(node_lines) == 28


def test_cnn_structure_root_case(tmp_path):
    out = tmp_path / "cnn0"
    assert main(["cnn-structure", "--grid-levels", "0", "--feature-levels", "0", "--out", str(out)]) == 0
    assert read_lineage(out).level_sizes() == [1]


def test_bench_round_trip(tmp_path):
    out1, out2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
    args = ["bench", "--k", "3", "--bc", "1", "--budget", "30000", "--out"]
    assert main(args + [str(out1)]) == 0
    assert main(args + [str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    header = out1.read_text().splitlines()[0]
    assert header == "algorithm,cycle,work,residual"


def test_bench_zero_budget(tmp_path):
    out = tmp_path / "t.csv"
    assert main(["bench", "--k", "2", "--bc", "2", "--budget", "0", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 3  # header plus one initial row per default algorithm


def test_bench_rejects_unknown_algorithm(tmp_path):
    code = main([
        "bench", "--k", "2", "--bc", "1", "--budget", "100",
        "--algorithms", "sor", "--out", str(tmp_path / "t.csv"),
    ])
    assert code == 1


@pytest.mark.parametrize("argv", [["--help"], ["gen", "--help"], ["bench", "--help"]])
def test_help_exits_zero(argv, capsys):
    assert main(argv) == 0
    assert "usage" in capsys.readouterr().out
