"""End-to-end exercises of the command-line surface."""

import json
import resource
import shutil
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from skelgraph import lineage, skeletal
from skelgraph.cli import main
from skelgraph.graphs import Graph, empty_graph, loop_vertex
from skelgraph.lineage import GradedGraph, read_lineage
from skelgraph.sparse import SparseMatrix


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


def test_oracle_check_where_the_full_kronecker_product_did_not_fit(tmp_path, capsys):
    # the unpruned oracle needed 2.8 GB for the L=7 cross product alone
    a, b = tmp_path / "p", tmp_path / "c"
    main(["gen", "path", "--levels", "7", "--out", str(a)])
    main(["gen", "complete", "--levels", "7", "--out", str(b)])
    for kind in ("cross", "box", "strong"):
        capsys.readouterr()
        code = main(["product", kind, str(a), str(b), "--out", str(tmp_path / kind),
                     "--oracle-check"])
        assert code == 0
        assert "oracle check passed" in capsys.readouterr().out


@pytest.mark.parametrize("part", ["level", "inter map"])
@pytest.mark.parametrize("kind", ["box", "cross", "strong"])
def test_oracle_check_refuses_a_product_that_disagrees(tmp_path, capsys, monkeypatch, kind, part):
    a, b = tmp_path / "p", tmp_path / "c"
    main(["gen", "path", "--levels", "3", "--out", str(a)])
    main(["gen", "complete", "--levels", "3", "--out", str(b)])
    build = getattr(skeletal, f"skeletal_{kind}")

    def perturbed(*args):
        """The skeletal product with level 2 doubled, or one entry of map 1 dropped."""
        gg = build(*args)
        levels, inter = list(gg.levels), list(gg.inter)
        if part == "level":
            levels[2] = Graph(levels[2].adj.scale(2.0))
        else:
            m = inter[1]
            inter[1] = SparseMatrix(m.nrows, m.ncols, m.rows[1:], m.cols[1:], m.vals[1:])
        return GradedGraph(levels, inter, gg.prolong, gg.meta)

    monkeypatch.setattr(skeletal, f"skeletal_{kind}", perturbed)
    capsys.readouterr()
    out = tmp_path / "prod"
    assert main(["product", kind, str(a), str(b), "--oracle-check", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "oracle check failed: constructions disagree\n" and captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["product", "strong", "{a}", "{b}"], ["product", "nway-hat", "{a}", "{b}", "{a}"],
    ["product", "dilated", "{a}", "{b}", "--rho", "1", "2", "--levels", "5"],
    ["cnn-structure", "--grid-levels", "2", "--feature-levels", "2"]])
def test_products_refuse_a_level_over_the_entry_cap(tmp_path, capsys, monkeypatch, argv):
    a, b = tmp_path / "p", tmp_path / "c"
    main(["gen", "path", "--levels", "3", "--out", str(a)])
    main(["gen", "complete", "--levels", "3", "--out", str(b)])
    # the generators share the cap; grid2d(2), the deepest that cnn-structure
    # builds here, stores 48 entries at its top level
    monkeypatch.setattr(lineage, "MAX_TOP_ENTRIES", 48)
    capsys.readouterr()
    out = tmp_path / "prod"
    assert main([x.format(a=a, b=b) for x in argv] + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: product ")
    assert "entries, more than 48 (2**24)" in err
    assert not out.exists()


def test_thicken_refuses_a_top_level_over_the_entry_cap(tmp_path, capsys, monkeypatch):
    src = tmp_path / "p"
    main(["gen", "path", "--levels", "3", "--out", str(src)])
    # thicken's top level is the whole flat assembly, its largest matrix
    cap = lineage.assemble_flat(read_lineage(src)).adj.nnz
    flattened = []

    def recorded(gg):
        flattened.append(gg)
        return lineage.assemble_flat(gg)

    monkeypatch.setattr(skeletal, "assemble_flat", recorded)
    monkeypatch.setattr(lineage, "MAX_TOP_ENTRIES", cap)
    assert main(["thicken", str(src), "--out", str(tmp_path / "at")]) == 0 and flattened
    monkeypatch.setattr(lineage, "MAX_TOP_ENTRIES", cap - 1)
    flattened.clear()
    capsys.readouterr()
    out = tmp_path / "over"
    assert main(["thicken", str(src), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: thicken level 3 would store {cap:,} entries, more than {cap - 1:,} (2**24)\n"
    assert not flattened and not out.exists()


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
    lambda data: b"\n".join(data.splitlines()[:-2]) + b"\n",
    lambda data: data.replace(b"coordinate real", b"coordinate pattern", 1),
    lambda data: data.replace(b"8 8 7\n", b"8 8 8\n") + b"1 2 1.0\n",
    lambda data: data + b"1 1 1.0\n",
    lambda data: data.replace(b"\n8 7 ", b"\n9 7 "),
    lambda data: data.replace(b"real symmetric", b"real general", 1),
    lambda data: data.replace(b"\n8 7 1.0", b"\n8 7 -1.0"),
    lambda data: data.replace(b"8 8 7\n", b"8 9 7\n"),
    lambda data: data.replace(b"matrix coordinate", b"vector coordinate", 1),
    lambda data: data.replace(b"symmetric\n", b"symmetric\n% caf\xe9\n", 1),
    lambda data: data.replace(b"8 8 7\n", b"8 99999999999999999999993 7\n"),
], ids=["truncated", "pattern-header", "symmetric-upper-entry", "extra-entry", "index-out-of-range",
        "general-lower-triangle", "negative-value", "non-square", "vector-banner",
        "non-utf8-comment", "huge-dimension"])
def test_validate_malformed_matrix_is_one_error_line(tmp_path, capsys, corrupt):
    src = tmp_path / "p"
    main(["gen", "path", "--levels", "3", "--out", str(src)])
    capsys.readouterr()
    target = src / "level_03.mtx"
    target.write_bytes(corrupt(target.read_bytes()))
    assert main(["validate", str(src)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "level_03.mtx" in err
    assert "Traceback" not in err and err.count("\n") == 1


def test_validate_manifest_level_count_mismatch_is_one_error_line(tmp_path, capsys):
    src = tmp_path / "p"
    main(["gen", "path", "--levels", "3", "--out", str(src)])
    capsys.readouterr()
    manifest = json.loads((src / "manifest.json").read_text())
    manifest["numLevels"] = 3
    (src / "manifest.json").write_text(json.dumps(manifest))
    assert main(["validate", str(src)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "manifest.json" in err
    assert "Traceback" not in err and err.count("\n") == 1


@pytest.mark.parametrize("command", ["validate", "product"])
@pytest.mark.parametrize("corrupt", [
    lambda manifest: [manifest],
    lambda manifest: dict(manifest, levelFiles=None),
    lambda manifest: dict(manifest, interFiles=[1, 2]),
    lambda manifest: dict(manifest, metadata=5),
    lambda manifest: json.dumps(manifest).replace('"', "'"),
    lambda manifest: {k: v for k, v in manifest.items() if k != "numLevels"},
    lambda manifest: dict(manifest, interFiles=manifest["interFiles"][:-1]),
    lambda manifest: dict(manifest, prolongFiles=manifest["prolongFiles"][:-1]),
    lambda manifest: dict(manifest, levelFiles=["../p/" + f for f in manifest["levelFiles"]]),
    lambda manifest: dict(manifest, metadata=dict(manifest["metadata"], name=["x"])),
    lambda manifest: dict(manifest, name=5, metadata={}),
], ids=["list", "null-level-files", "non-string-file-names", "scalar-metadata", "invalid-json",
        "missing-num-levels", "inter-files-short", "prolong-files-short", "escaping-file-name",
        "list-metadata-name", "numeric-name"])
def test_malformed_manifest_is_one_error_line(tmp_path, capsys, corrupt, command):
    src = tmp_path / "p"
    main(["gen", "path", "--levels", "2", "--out", str(src)])
    capsys.readouterr()
    manifest = json.loads((src / "manifest.json").read_text())
    corrupted = corrupt(manifest)  # a str is written as it is
    (src / "manifest.json").write_text(
        corrupted if isinstance(corrupted, str) else json.dumps(corrupted))
    argv = {
        "validate": ["validate", str(src)],
        "product": ["product", "box", str(src), str(src), "--out", str(tmp_path / "out")],
    }[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "manifest.json" in err
    assert "Traceback" not in err and err.count("\n") == 1


# type swaps for manifest values, and short tokens for Matrix Market files: a
# damaged size line stays below 1,000, so no mutant asks for a large allocation
FUZZ_VALUES = [None, True, 5, 2.5, "x", [], ["x"], [1], {}, {"name": 5}]
FUZZ_TOKENS = [b"\xff", b"nan", b"-inf", b"-1", b"0", b"1.5", b"7", b"%", b" ", b"\n"]
FILE_LISTS = ("levelFiles", "interFiles", "prolongFiles")


def _lineage_mutants(rng, manifest, files, count):
    """Yield (what, manifest, files), one seeded fault each: every type swap of
    a manifest value; each file list with a name dropped or duplicated, or
    reordered; then ``count`` Matrix Market files truncated, with a byte
    overwritten, a token inserted or a line duplicated."""
    for key in ("name", "numLevels", "metadata", *FILE_LISTS):
        for value in FUZZ_VALUES:
            yield f"{key}={value!r}", dict(manifest, **{key: value}), files
    for key in FILE_LISTS:
        names = manifest[key]
        i = int(rng.integers(len(names)))
        for what, edited in (("drop", names[:i] + names[i + 1:]),
                             ("duplicate", names[:i + 1] + names[i:]),
                             ("reverse", names[::-1]), ("rotate", names[1:] + names[:1])):
            yield f"{key} {what} {i}", dict(manifest, **{key: edited}), files
    names = sorted(files)
    for case in range(count):
        name = names[case % len(names)]
        data = files[name]
        op, at = int(rng.integers(4)), int(rng.integers(len(data) + 1))
        if op == 0:
            data = data[:at]
        elif op == 1:
            data = data[:at] + bytes([int(rng.integers(256))]) + data[at + 1:]
        elif op == 2:
            data = data[:at] + FUZZ_TOKENS[int(rng.integers(len(FUZZ_TOKENS)))] + data[at:]
        else:
            lines = data.splitlines(keepends=True)
            i = int(rng.integers(len(lines)))
            data = b"".join(lines[:i + 1] + lines[i:])
        yield f"{name} op {op} at {at}: {data!r}", manifest, dict(files, **{name: data})


def test_commands_survive_damaged_lineage_directories(tmp_path, capsys):
    # every command refuses a damaged lineage in one error line, or runs on it
    main(["gen", "path", "--levels", "2", "--out", str(tmp_path / "p")])
    main(["gen", "complete", "--levels", "2", "--out", str(tmp_path / "c")])
    files = files_of(tmp_path / "p")
    manifest = json.loads(files.pop("manifest.json"))
    x, out = tmp_path / "x", str(tmp_path / "out")
    commands = [["validate", str(x)], ["product", "box", str(x), str(tmp_path / "c"), "--out", out],
                ["thicken", str(x), "--out", out],
                ["export", str(x), "--level", "1", "--out", str(tmp_path / "level.mtx")]]
    codes = []
    for what, damaged, damaged_files in _lineage_mutants(
            np.random.default_rng(18), manifest, files, 70):
        shutil.rmtree(x, ignore_errors=True)
        x.mkdir()
        for name, data in damaged_files.items():
            (x / name).write_bytes(data)
        (x / "manifest.json").write_text(json.dumps(damaged))
        capsys.readouterr()
        for argv in commands:
            try:
                code = main(argv)
            except Exception as exc:  # the CLI would end in a traceback
                pytest.fail(f"{what}: {argv[0]} raised {exc!r}")
            err = capsys.readouterr().err
            assert code in (0, 1, 2) and err.count("error:") <= 1, (what, argv[0], err)
            codes.append(code)
    # a damaged file is refused as bad (2) or runs (0), never taken for a usage error (1)
    assert set(codes) == {0, 2}


def test_missing_lineage_paths_exit_one(tmp_path, capsys):
    # a bad file exits 2, but a path that is not there is a usage error
    src = tmp_path / "p"
    main(["gen", "path", "--levels", "2", "--out", str(src)])
    capsys.readouterr()
    assert main(["validate", str(tmp_path / "absent")]) == 1
    (src / "level_01.mtx").unlink()
    assert main(["validate", str(src)]) == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 2 and "Traceback" not in err and err.count("\n") == 2


def test_validate_reports_inter_map_of_wrong_shape(tmp_path, capsys):
    src = tmp_path / "p"
    main(["gen", "path", "--levels", "2", "--out", str(src)])
    capsys.readouterr()
    manifest = json.loads((src / "manifest.json").read_text())
    manifest["interFiles"].reverse()
    (src / "manifest.json").write_text(json.dumps(manifest))
    assert main(["validate", str(src)]) == 2
    out = capsys.readouterr().out
    assert "inter map 0->1 has shape" in out


@pytest.mark.parametrize("stem, what, weights", [
    ("inter", "inter map", "pattern"),
    ("prolong", "prolongation", "prolong"),
])
def test_builds_refuse_a_map_of_the_wrong_shape_as_a_bad_file(tmp_path, capsys, stem, what, weights):
    # the map 0->1 copied over 1->2: validate, product and thicken all exit 2
    src, other = tmp_path / "p", tmp_path / "c"
    main(["gen", "path", "--levels", "2", "--out", str(src)])
    main(["gen", "complete", "--levels", "2", "--out", str(other)])
    shutil.copy(src / f"{stem}_00_01.mtx", src / f"{stem}_01_02.mtx")
    capsys.readouterr()
    message = f"{what} 1->2 has shape (2, 1), expected (4, 2)"
    assert main(["validate", str(src)]) == 2
    assert message in capsys.readouterr().out
    out = str(tmp_path / "out")
    for argv in (["product", "box", str(src), str(other), "--weights", weights, "--out", out],
                 ["product", "cross", str(other), str(src), "--weights", weights, "--out", out],
                 ["thicken", str(src), "--out", out]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == f"error: {src}: {message}\n"
    assert not Path(out).exists()


@pytest.mark.parametrize("flags", [
    ["--levels", "50"],
    ["--levels", "50", "--oracle-check"],
    ["--levels", "-1"],
    ["--levels", "-1", "--oracle-check"],
], ids=["deep", "deep-oracle", "negative", "negative-oracle"])
def test_product_refuses_depth_no_block_reaches(tmp_path, capsys, flags):
    a, b = tmp_path / "a", tmp_path / "b"
    main(["gen", "path", "--levels", "3", "--out", str(a)])
    main(["gen", "complete", "--levels", "3", "--out", str(b)])
    capsys.readouterr()
    out = tmp_path / "prod"
    assert main(["product", "cross", str(a), str(b), "--out", str(out), *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err and err.count("\n") == 1
    assert not out.exists()
    # the deepest level a block reaches stays allowed
    assert main(["product", "cross", str(a), str(b), "--out", str(out), "--levels", "6",
                 *flags[2:]]) == 0
    assert read_lineage(out).level_sizes()[-1] == 64


@pytest.mark.parametrize("kind", ["strong", "nway-hat", "nway-tilde", "dilated"])
def test_product_refuses_prolong_weights_it_cannot_apply(tmp_path, capsys, kind):
    a, b = tmp_path / "a", tmp_path / "b"
    main(["gen", "path", "--levels", "3", "--out", str(a)])
    main(["gen", "complete", "--levels", "3", "--out", str(b)])
    capsys.readouterr()
    out = tmp_path / "prod"
    assert main(["product", kind, str(a), str(b), "--out", str(out),
                 "--weights", "prolong"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err and err.count("\n") == 1
    assert not out.exists()


def test_product_refuses_infinite_dilation_rate(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    main(["gen", "path", "--levels", "2", "--out", str(a)])
    main(["gen", "complete", "--levels", "2", "--out", str(b)])
    capsys.readouterr()
    out = tmp_path / "prod"
    for rho in (["inf", "1"], ["1", "inf"], ["nan", "1"]):
        assert main(["product", "dilated", str(a), str(b), "--rho", *rho, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == "error: dilation rates must be finite\n"
    assert not out.exists()


@pytest.mark.parametrize("order", ["empty-first", "empty-second"])
@pytest.mark.parametrize("kind", ["box", "cross", "strong"])
def test_oracle_check_on_a_lineage_without_levels(tmp_path, capsys, kind, order):
    src, empty = tmp_path / "p", tmp_path / "empty"
    main(["gen", "path", "--levels", "2", "--out", str(src)])
    empty.mkdir()
    (empty / "manifest.json").write_text(json.dumps(
        {"numLevels": 0, "levelFiles": [], "interFiles": [], "prolongFiles": []}))
    capsys.readouterr()
    inputs = [str(empty), str(src)] if order == "empty-first" else [str(src), str(empty)]
    out = tmp_path / "prod"
    assert main(["product", kind, *inputs, "--oracle-check", "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("oracle check passed\n") and captured.err == ""
    assert read_lineage(out).level_sizes() == [0]


@pytest.mark.parametrize("kind", ["box", "cross", "strong"])
def test_product_of_two_lineages_without_levels(tmp_path, capsys, kind):
    empty = tmp_path / "empty"
    empty.mkdir()
    (empty / "manifest.json").write_text(json.dumps(
        {"numLevels": 0, "levelFiles": [], "interFiles": [], "prolongFiles": []}))
    for flags in ([], ["--oracle-check"]):
        out = tmp_path / f"prod{len(flags)}"
        assert main(["product", kind, str(empty), str(empty), *flags, "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.startswith("oracle check passed\n") == bool(flags)
        assert read_lineage(out).level_sizes() == [0]


@pytest.mark.parametrize("rho, message", [
    (["-1e-3", "1"], "dilation rates must be positive"),
    (["-inf", "1"], "dilation rates must be finite"),
    (["1", "-inf"], "dilation rates must be finite"),
], ids=["minus-1e-3-first", "minus-inf-first", "minus-inf-second"])
def test_product_reads_a_negative_dilation_rate_as_a_value(tmp_path, capsys, rho, message):
    a = tmp_path / "a"
    main(["gen", "path", "--levels", "2", "--out", str(a)])
    capsys.readouterr()
    out = tmp_path / "prod"
    assert main(["product", "dilated", str(a), str(a), "--rho", *rho, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


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


@pytest.mark.parametrize("argv", [
    ["gen", "path", "--levels", "24"],
    ["gen", "complete", "--levels", "13"],
    ["gen", "complete", "--levels", "1000000000"],
    ["gen", "grid2d", "--levels", "12"],
    ["cnn-structure", "--grid-levels", "12", "--feature-levels", "12"],
])
def test_generators_refuse_tops_that_cannot_fit(tmp_path, capsys, argv):
    # without the refusal each run would need gigabytes: a MemoryError then
    # fails the test under the address-space limit, before the machine runs out
    limits = resource.getrlimit(resource.RLIMIT_AS)
    mapped = int(Path("/proc/self/statm").read_text().split()[0]) * resource.getpagesize()
    soft = mapped + 2 ** 30
    if limits[1] != resource.RLIM_INFINITY:
        soft = min(soft, limits[1])
    resource.setrlimit(resource.RLIMIT_AS, (soft, limits[1]))
    tracemalloc.start()
    try:
        code = main(argv + ["--out", str(tmp_path / "out")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        resource.setrlimit(resource.RLIMIT_AS, limits)
    err = capsys.readouterr().err
    assert code == 1 and err.startswith("error: ") and err.count("\n") == 1
    assert "16,777,216 (2**24) entries" in err
    assert peak < 2 ** 20 and not (tmp_path / "out").exists()


def test_cnn_structure_refuses_the_feature_depth_before_building_the_grid(
        tmp_path, capsys, monkeypatch):
    built = []
    monkeypatch.setattr(lineage, "grid2d_lineage", built.append)
    out = tmp_path / "cnn"
    code = main(["cnn-structure", "--grid-levels", "11", "--feature-levels", "13",
                 "--out", str(out)])
    assert code == 1 and built == []
    assert capsys.readouterr().err == ("error: a complete lineage of depth 13 would store more "
                                       "than 16,777,216 (2**24) entries at its top level\n")
    assert not out.exists()


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


@pytest.mark.parametrize("budget", ["-1", "nan"])
def test_bench_refuses_a_negative_or_nan_budget(tmp_path, capsys, budget):
    code = main(["bench", "--k", "3", "--bc", "1", "--budget", budget,
                 "--out", str(tmp_path / "t.csv")])
    assert code == 1 and capsys.readouterr().err == "error: budget must be nonnegative\n"
    assert not (tmp_path / "t.csv").exists()


def test_bench_rejects_unknown_algorithm(tmp_path):
    code = main([
        "bench", "--k", "2", "--bc", "1", "--budget", "100",
        "--algorithms", "sor", "--out", str(tmp_path / "t.csv"),
    ])
    assert code == 1


def test_bench_refuses_k_whose_solvers_do_not_fit(tmp_path, capsys):
    code = main(["bench", "--k", "12", "--bc", "1", "--budget", "0",
                 "--out", str(tmp_path / "t.csv")])
    err = capsys.readouterr().err
    assert code == 1 and err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "t.csv").exists()


@pytest.mark.parametrize("argv", [["--help"], ["gen", "--help"], ["bench", "--help"]])
def test_help_exits_zero(argv, capsys):
    assert main(argv) == 0
    assert "usage" in capsys.readouterr().out


@pytest.mark.parametrize("argv, message", [
    (["product", "nway-hat", "{a}", "{a}", "--oracle-check"],
     "--oracle-check needs a pattern-weighted box/cross/strong product"),
    (["product", "cross", "{a}", "{a}", "{a}"], "binary products take exactly two inputs"),
    (["product", "dilated", "{a}"], "dilated products take exactly two inputs"),
    (["cnn-structure", "--grid-levels", "-1", "--feature-levels", "2"],
     "level counts must be nonnegative"),
], ids=["oracle-check-kind", "binary-arity", "dilated-arity", "cnn-negative-levels"])
def test_usage_checks_refuse_with_their_message(tmp_path, capsys, argv, message):
    a, out = tmp_path / "p", tmp_path / "out"
    main(["gen", "path", "--levels", "1", "--out", str(a)])
    capsys.readouterr()
    assert main([x.format(a=a) for x in argv] + ["--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def _address_capped(argv):
    """main(argv) under an address-space limit 1 GB above what is mapped now, with
    its traced peak: an allocation past the limit fails as a MemoryError, before
    the machine runs out."""
    limits = resource.getrlimit(resource.RLIMIT_AS)
    mapped = int(Path("/proc/self/statm").read_text().split()[0]) * resource.getpagesize()
    soft = mapped + 2 ** 30
    if limits[1] != resource.RLIM_INFINITY:
        soft = min(soft, limits[1])
    resource.setrlimit(resource.RLIMIT_AS, (soft, limits[1]))
    tracemalloc.start()
    try:
        return main(argv), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        resource.setrlimit(resource.RLIMIT_AS, limits)


@pytest.mark.parametrize("argv", [
    ["product", "cross", "{h}", "{h}", "--out", "{out}"],
    ["product", "box", "{h}", "{h}", "--out", "{out}"],
    ["export", "{h}", "--level", "0", "--format", "dot", "--out", "{out}"],
    ["thicken", "{h}", "--out", "{out}"],
    ["validate", "{h}"],
], ids=["product-cross", "product-box", "export-dot", "thicken", "validate"])
def test_reader_refuses_a_matrix_past_the_vertex_cap(tmp_path, capsys, argv):
    h, out = tmp_path / "huge", tmp_path / "out"
    main(["gen", "nhat", "--levels", "0", "--out", str(h)])
    (h / "level_00.mtx").write_text("%%MatrixMarket matrix coordinate real symmetric\n"
                                    "1000000000 1000000000 0\n")
    capsys.readouterr()
    code, peak = _address_capped([x.format(h=h, out=out) for x in argv])
    assert code == 2 and capsys.readouterr().err == (
        f"error: {h / 'level_00.mtx'}: shape (1000000000, 1000000000) exceeds "
        "16,777,216 (2**24) vertices\n")
    assert peak < 2 ** 20 and not out.exists()


def _empty_top(path, n):
    """A lineage of a looped root and an edgeless top level of n vertices."""
    lineage.write_lineage(path, GradedGraph([loop_vertex(), empty_graph(n)], [SparseMatrix(n, 1)]))


@pytest.mark.parametrize("kind", ["cross", "box", "strong"])
def test_products_refuse_a_level_over_the_vertex_cap(tmp_path, capsys, kind):
    # no entries at all, but level 2 pairs the two 8,192-vertex top levels
    a, out = tmp_path / "a", tmp_path / "out"
    _empty_top(a, 2 ** 13)
    code, peak = _address_capped(["product", kind, str(a), str(a), "--levels", "2",
                                  "--out", str(out)])
    assert code == 1 and capsys.readouterr().err == (
        "error: product level 2 would hold 67,108,864 vertices, more than 16,777,216 (2**24)\n")
    assert peak < 2 ** 22 and not out.exists()


def test_thicken_refuses_a_level_over_the_vertex_cap(tmp_path, capsys):
    # every level fits, but the thickened top level stacks all of them
    a, out = tmp_path / "a", tmp_path / "out"
    _empty_top(a, 2 ** 24)
    code, peak = _address_capped(["thicken", str(a), "--out", str(out)])
    assert code == 1 and capsys.readouterr().err == (
        "error: thicken level 1 would hold 16,777,217 vertices, more than 16,777,216 (2**24)\n")
    assert peak < 2 ** 20 and not out.exists()


@pytest.mark.parametrize("levels", ["25", "1000000000"])
def test_gen_nhat_refuses_a_depth_past_24(tmp_path, capsys, levels):
    out = tmp_path / "out"
    code, peak = _address_capped(["gen", "nhat", "--levels", levels, "--out", str(out)])
    assert code == 1 and capsys.readouterr().err == (
        f"error: a unit lineage of depth {levels} is deeper than 24\n")
    assert peak < 2 ** 20 and not out.exists()
    assert main(["gen", "nhat", "--levels", "24", "--out", str(out)]) == 0
