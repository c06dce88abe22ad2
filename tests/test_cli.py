"""Command-line behavior: subcommands, formats, exit codes."""

import contextlib
import csv
import io
import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rsmc
from rsmc import InvalidSpecError, PipelineConfig, run_pipeline
from rsmc.cli import main


@pytest.fixture
def path3(tmp_path):
    p = tmp_path / "path3.tsv"
    p.write_text("a\tb\nb\tc\n")
    return str(p)


@pytest.fixture
def sim_spec(tmp_path):
    doc = {
        "properties": ["P1", "P2"],
        "cases": {"P1": ["g1", "g2", "g3"], "P2": ["z1", "z2"]},
        "tables": {
            "P1": [[0, 0.6, 1.0], [0.6, 0, 0.7], [1.0, 0.7, 0]],
            "P2": [[0, 0.5], [0.5, 0]],
        },
        "weights": [2, 3],
        "assignments": {
            "u": {"P1": "g1", "P2": "z2"},
            "v": {"P1": "g3", "P2": "z1"},
            "w": {"P1": "g2", "P2": "z1"},
        },
    }
    p = tmp_path / "sim.json"
    p.write_text(json.dumps(doc))
    return str(p)


def test_detect_json(path3, capsys):
    assert main(["detect", "--input", path3, "--rsm", "sdf", "--epsilon", "1"]) == 0
    out, err = capsys.readouterr()
    doc = json.loads(out)
    assert doc["rsm"] == "sdf"
    assert doc["epsilon"] == 1.0
    assert doc["communities"] == [["a", "b"], ["b", "c"]]
    assert "2 maximal communities" in err


def test_detect_builtin_karate(capsys):
    assert main(["detect", "--builtin", "karate", "--rsm", "erf", "--epsilon", "1.5"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["communities"]) == 3


def test_detect_csv_and_dot(path3, capsys):
    assert main(["detect", "--input", path3, "--rsm", "sdf", "--epsilon", "1",
                 "--format", "csv"]) == 0
    assert capsys.readouterr().out == "a,b\nb,c\n"
    assert main(["detect", "--input", path3, "--rsm", "sdf", "--epsilon", "1",
                 "--format", "dot"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("graph communities {")
    assert '"a" -- "b";' in out


def test_detect_out_file(path3, tmp_path, capsys):
    target = tmp_path / "result.json"
    assert main(["detect", "--input", path3, "--rsm", "sdf", "--epsilon", "1",
                 "--out", str(target)]) == 0
    assert json.loads(target.read_text())["communities"] == [["a", "b"], ["b", "c"]]
    assert capsys.readouterr().out == ""


def test_detect_epsilon_required(path3, capsys):
    assert main(["detect", "--input", path3, "--rsm", "sdf"]) == 2
    assert main(["detect", "--input", path3, "--rsm", "sdf",
                 "--epsilon", "1", "--epsilon-sweep", "0:1:0.5"]) == 2


def test_detect_negative_epsilon(path3, capsys):
    assert main(["detect", "--input", path3, "--rsm", "sdf", "--epsilon", "-1"]) == 2


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_detect_non_finite_epsilon(path3, capsys, value):
    assert main(["detect", "--input", path3, "--rsm", "sdf", "--epsilon", value]) == 2
    assert len(capsys.readouterr().err.splitlines()) == 1


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_detect_non_finite_tol(path3, capsys, value):
    assert main(["detect", "--input", path3, "--rsm", "sdf", "--epsilon", "1",
                 "--tol", value]) == 2
    assert main(["detect", "--input", path3, "--rsm", "sdf", "--epsilon-sweep", "0:2:1",
                 "--tol", value]) == 2
    assert len(capsys.readouterr().err.splitlines()) == 2


def test_detect_epsilon_relating_every_pair(tmp_path, capsys):
    # a 1200-vertex star: every pair is within distance 2, so one community
    p = tmp_path / "star.tsv"
    p.write_text("".join(f"hub\tv{i}\n" for i in range(1199)))
    assert main(["detect", "--input", str(p), "--rsm", "sdf", "--epsilon", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["communities"]) == 1
    assert len(doc["communities"][0]) == 1200


def test_detect_sweep(path3, capsys):
    assert main(["detect", "--input", path3, "--rsm", "sdf",
                 "--epsilon-sweep", "0:2:1"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines() == ["epsilon,communities", "0,3", "1,2", "2,1"]


def test_detect_sweep_prints_one_summary_line(path3, sim_spec, capsys):
    assert main(["detect", "--input", path3, "--rsm", "sdf", "--epsilon-sweep", "0:2:1"]) == 0
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("sdf rsm on 3 vertices, 2 edges -> 1 to 3 maximal communities "
                          "over 3 epsilons (tol=1e-09) in ")
    assert main(["detect", "--similarity-spec", sim_spec, "--epsilon-sweep", "0:1:1"]) == 0
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("similarity rsm on 3 vertices -> ")


def test_detect_sweep_counts_in_one_call(path3, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr("rsmc.cli.count_maximal_communities",
                        lambda m, eps, tol: calls.append(list(eps)) or [0] * len(eps))
    monkeypatch.setattr("rsmc.cli.refine", None)
    monkeypatch.setattr("rsmc.cli.enumerate_maximal_communities", None)
    assert main(["detect", "--input", path3, "--rsm", "sdf", "--epsilon-sweep", "0:2:1"]) == 0
    assert calls == [[0.0, 1.0, 2.0]]


def test_detect_sweep_format(path3, capsys):
    argv = ["detect", "--input", path3, "--rsm", "sdf", "--epsilon-sweep", "0:2:1"]
    assert main(argv) == 0
    plain = capsys.readouterr().out
    assert main(argv + ["--format", "csv"]) == 0
    assert capsys.readouterr().out == plain
    for fmt in ("json", "dot"):
        assert main(argv + ["--format", fmt]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: --epsilon-sweep writes csv, not --format {fmt}\n"


def test_detect_sweep_malformed(path3, capsys):
    assert main(["detect", "--input", path3, "--rsm", "sdf",
                 "--epsilon-sweep", "0-2-1"]) == 2
    assert main(["detect", "--input", path3, "--rsm", "sdf",
                 "--epsilon-sweep", "2:0:1"]) == 2


def exit_code(argv):
    """What ``main`` returns, or the code of the SystemExit that argument parsing raises."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("argv", [
    ["detect", "--input", "{path3}", "--rsm", "sdf", "--epsilon", "1_5"],
    ["detect", "--input", "{path3}", "--rsm", "sdf", "--epsilon", "\u0661.\u0665"],
    ["detect", "--input", "{path3}", "--rsm", "sdf", "--epsilon-sweep", "0:2_5:1"],
    ["detect", "--input", "{path3}", "--rsm", "sdf", "--epsilon-sweep", "0:\u0662:1"],
    ["detect", "--input", "{path3}", "--rsm", "sdf", "--epsilon", "abc"],
    ["detect", "--input", "{path3}", "--rsm", "sdf", "--epsilon", "1", "--tol", "1_0"],
    ["validate-rsm", "--matrix", "{matrix}", "--tol", "1_0"],
    ["frobnicate"],
    [],
], ids=["epsilon-separator", "epsilon-arabic-indic", "sweep-separator", "sweep-arabic-indic",
        "epsilon-word", "detect-tol-separator", "validate-rsm-tol-separator",
        "unknown-command", "no-command"])
def test_bad_argument_is_one_error_line(path3, tmp_path, capsys, argv):
    # numbers on the command line follow the spelling rule of numbers in files
    matrix = tmp_path / "m.csv"
    matrix.write_text("0,1\n1,0\n")
    assert exit_code([a.format(path3=path3, matrix=matrix) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and len(captured.err.splitlines()) == 1


def test_help_still_prints_usage(capsys):
    assert exit_code(["detect", "-h"]) == 0
    assert capsys.readouterr().out.startswith("usage: rsmc detect")


def test_validate_rsm_follows_edge_direction(tmp_path, capsys):
    edges = tmp_path / "path.tsv"
    edges.write_text("a\tb\nb\tc\n")
    matrix = str(tmp_path / "m.csv")
    assert main(["matrix", "--input", str(edges), "--directed", "--rsm", "sdf",
                 "--out", matrix]) == 0
    assert main(["validate-rsm", "--matrix", matrix, "--input", str(edges), "--directed"]) == 0
    assert "disconnection pattern:     pass" in capsys.readouterr().out


@contextlib.contextmanager
def address_space_cap(headroom: int = 512 << 20):
    """Cap this process's address space ``headroom`` bytes above its current size.

    A loop that grows a list without bound then ends in MemoryError within
    seconds instead of taking the machine's memory.
    """
    resource = pytest.importorskip("resource")
    try:
        with open("/proc/self/statm") as fh:
            used = int(fh.read().split()[0]) * resource.getpagesize()
    except OSError:
        pytest.skip("no /proc/self/statm")
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    if hard != resource.RLIM_INFINITY and used + headroom > hard:
        pytest.skip("hard address-space limit too low")
    resource.setrlimit(resource.RLIMIT_AS, (used + headroom, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


@pytest.mark.parametrize("sweep", ["0:inf:1", "0:1:inf", "nan:1:1", "0:1:1e-12", "0:1:1e-6"])
def test_detect_sweep_unbounded_grid(path3, capsys, sweep):
    # a non-finite bound or a grid of more than a million epsilons is refused up front
    with address_space_cap():
        try:
            rc = main(["detect", "--input", path3, "--rsm", "sdf", "--epsilon-sweep", sweep])
        except MemoryError:  # caught here so the runaway list is freed before reporting
            rc = "MemoryError"
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ["detect", "--input", "{path3}", "--rsm", "sdf", "--similarity-spec", "{spec}",
     "--epsilon", "1"],
    ["detect", "--rsm", "sdf", "--matrix", "{matrix}", "--epsilon", "1"],
    ["detect", "--similarity-spec", "{spec}", "--matrix", "{matrix}", "--epsilon", "1"],
    ["detect", "--input", "{path3}", "--builtin", "karate", "--rsm", "sdf", "--epsilon", "1"],
    ["detect", "--input", "{path3}", "--epsilon", "1"],
    ["detect", "--epsilon", "1"],
    ["matrix"],
    ["validate-rsm", "--matrix", "{matrix}", "--input", "{path3}", "--builtin", "karate"],
    ["detect", "--matrix", "{matrix}", "--directed", "--epsilon", "1"],
    ["detect", "--similarity-spec", "{spec}", "--directed", "--epsilon", "1"],
    ["matrix", "--similarity-spec", "{spec}", "--directed"],
    ["validate-rsm", "--matrix", "{matrix}", "--directed"],
    ["detect", "--builtin", "karate", "--rsm", "sdf", "--directed", "--epsilon", "1"],
    ["matrix", "--builtin", "karate", "--rsm", "erf", "--directed"],
    ["validate-rsm", "--matrix", "{matrix}", "--builtin", "karate", "--directed"],
    ["detect", "--similarity-spec", "{spec}", "--input", "", "--epsilon", "1"],
    ["detect", "--matrix", "{matrix}", "--builtin", "", "--epsilon", "1"],
    ["validate-rsm", "--matrix", "{missing}", "--input", "{path3}", "--builtin", "karate"],
], ids=["graph-and-spec", "rsm-and-matrix", "spec-and-matrix", "input-and-builtin",
        "input-without-rsm", "no-source-detect", "no-source-matrix", "validate-rsm-two-graphs",
        "directed-matrix", "directed-spec", "directed-matrix-command",
        "validate-rsm-directed-without-graph", "directed-builtin-detect",
        "directed-builtin-matrix", "directed-builtin-validate-rsm", "spec-and-empty-input",
        "matrix-and-empty-builtin", "validate-rsm-two-graphs-missing-matrix"])
def test_source_conflict_exits_2(path3, sim_spec, tmp_path, capsys, argv):
    matrix = tmp_path / "m.csv"
    matrix.write_text("0,1,2\n1,0,1\n2,1,0\n")
    missing = tmp_path / "missing.csv"
    argv = [a.format(path3=path3, spec=sim_spec, matrix=matrix, missing=missing) for a in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and len(captured.err.splitlines()) == 1
    # the conflict is found before any file is read, so no file is named
    assert str(tmp_path) not in captured.err


def test_detect_similarity_source(sim_spec, capsys):
    assert main(["detect", "--similarity-spec", sim_spec, "--epsilon", "1.5"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["rsm"] == "similarity"
    assert ["v", "w"] in doc["communities"]


def test_detect_summary_line_counts_edges_only_for_a_graph(path3, sim_spec, capsys):
    assert main(["detect", "--input", path3, "--rsm", "sdf", "--epsilon", "1"]) == 0
    assert capsys.readouterr().err.startswith("sdf rsm on 3 vertices, 2 edges -> 2 maximal ")
    assert main(["detect", "--similarity-spec", sim_spec, "--epsilon", "1.5"]) == 0
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("similarity rsm on 3 vertices -> ")


def test_detect_csv_quotes_labels_with_commas(tmp_path, capsys):
    p = tmp_path / "commas.tsv"
    p.write_text("a,b\tc\nc\td\na,b\td\n")
    assert main(["detect", "--input", str(p), "--rsm", "sdf", "--epsilon", "1",
                 "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out == '"a,b",c,d\n'
    assert list(csv.reader(io.StringIO(out, newline=""))) == [["a,b", "c", "d"]]


def test_detect_external_matrix(tmp_path, capsys):
    mfile = tmp_path / "m.csv"
    mfile.write_text("0,1.0,9\n1.0,0,1.0\n9,1.0,0\n")
    assert main(["detect", "--matrix", str(mfile), "--epsilon", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["rsm"] == "external"
    assert doc["communities"] == [["0", "1"], ["1", "2"]]


def test_detect_directed_requires_both_directions(tmp_path, capsys):
    p = tmp_path / "d.tsv"
    p.write_text("a\tb\t1\nb\ta\t5\n")
    assert main(["detect", "--input", str(p), "--directed", "--rsm", "sdf",
                 "--epsilon", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["communities"] == [["a"], ["b"]]


def test_matrix_csv_json(path3, capsys):
    assert main(["matrix", "--input", path3, "--rsm", "sdf"]) == 0
    assert capsys.readouterr().out == "0.0,1.0,2.0\n1.0,0.0,1.0\n2.0,1.0,0.0\n"
    assert main(["matrix", "--input", path3, "--rsm", "erf", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["rsm"] == "erf"
    assert doc["values"][0][1] == pytest.approx(1.0)


def test_validate_rsm_pass_and_fail(path3, tmp_path, capsys):
    mfile = tmp_path / "m.csv"
    main(["matrix", "--input", path3, "--rsm", "sdf", "--out", str(mfile)])
    capsys.readouterr()
    assert main(["validate-rsm", "--matrix", str(mfile), "--input", path3]) == 0
    assert "pass" in capsys.readouterr().out

    bad = tmp_path / "bad.csv"
    bad.write_text("0,1\n2,0\n")
    assert main(["validate-rsm", "--matrix", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "asymmetry" in out


@pytest.mark.parametrize("name, text", [
    ("neg.csv", "0,-inf\n1,0\n"),
    ("neg.json", '{"values": [[0, -Infinity], [1, 0]]}'),
    ("huge.json", '{"values": [[0, 1' + "0" * 400 + '], [1, 0]]}'),
    ("huge.csv", "0,1e400\n1e400,0\n"),
    ("huge-float.json", '{"values": [[0, 1e400], [1e400, 0]]}'),
    ("null-tag.json", '{"rsm": null, "values": [[0, 1], [1, 0]]}'),
    ("object-tag.json", '{"rsm": {"x": [1]}, "values": [[0, 1], [1, 0]]}'),
    ("separator.csv", "0,1_0\n1_0,0\n"),
], ids=["csv-minus-inf", "json-minus-infinity", "json-int-overflow", "csv-float-overflow",
        "json-float-overflow", "json-null-tag", "json-object-tag", "csv-digit-separator"])
def test_validate_rsm_bad_entry_exits_2(tmp_path, capsys, name, text):
    bad = tmp_path / name
    bad.write_text(text)
    assert main(["validate-rsm", "--matrix", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1


@pytest.mark.parametrize("text, argv, message", [
    ("a\tb\t1_5\n", ["detect", "--input", "{f}", "--rsm", "sdf"], "line 1: bad weight '1_5'"),
    ("a\tb\t1\nb\tc\t\u0663\n", ["detect", "--input", "{f}", "--rsm", "sdf"],
     "line 2: bad weight '\u0663'"),
    ("0,1_0\n1_0,0\n", ["detect", "--matrix", "{f}"], "line 1: bad matrix entry '1_0'"),
], ids=["edge-list-separator", "edge-list-arabic-indic", "csv-separator"])
def test_number_that_is_not_plain_ascii_exits_2(tmp_path, capsys, text, argv, message):
    f = tmp_path / "input.txt"
    f.write_text(text, encoding="utf-8")
    assert main([a.format(f=f) for a in argv] + ["--epsilon", "1"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
def test_validate_rsm_bad_tol_exits_2(tmp_path, capsys, tol):
    mfile = tmp_path / "m.csv"
    mfile.write_text("0,1\n1,0\n")
    assert main(["validate-rsm", "--matrix", str(mfile), "--tol", tol]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1


def test_validate_rsm_dimension_mismatch(path3, tmp_path, capsys):
    bad = tmp_path / "two.csv"
    bad.write_text("0,1\n1,0\n")
    assert main(["validate-rsm", "--matrix", str(bad), "--input", path3]) == 2


def test_validate_similarity(sim_spec, tmp_path, capsys):
    assert main(["validate-similarity", "--spec", sim_spec]) == 0
    out = capsys.readouterr().out
    assert "table 'P1': pass" in out
    assert "spec: pass" in out

    doc = json.loads(open(sim_spec).read())
    doc["tables"]["P2"] = [[0, 0.5], [0.7, 0]]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["validate-similarity", "--spec", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "table 'P2': FAIL" in out
    assert "spec: FAIL" in out

    bad.write_text("{")
    assert main(["validate-similarity", "--spec", str(bad)]) == 2


@pytest.mark.parametrize("argv", [
    ["detect", "--similarity-spec", "{spec}", "--epsilon", "1.5"],
    ["validate-similarity", "--spec", "{spec}"],
], ids=["detect", "validate-similarity"])
def test_each_case_table_is_judged_once(sim_spec, caplog, capsys, argv):
    with caplog.at_level(logging.DEBUG, logger="rsmc.rsm"):
        assert main([a.format(spec=sim_spec) for a in argv]) == 0
    checks = [r for r in caplog.records if r.getMessage().startswith("triangle check of a")]
    assert len(checks) == 2  # one per table of the two-property spec


HUGE_INT = int("1" + "0" * 400)


@pytest.mark.parametrize("command", ["detect", "validate-similarity"])
@pytest.mark.parametrize("where", ["weights", "table"])
def test_similarity_integer_too_large_exits_2(sim_spec, tmp_path, capsys, command, where):
    doc = json.loads(open(sim_spec).read())
    if where == "weights":
        doc["weights"][1] = HUGE_INT
    else:
        doc["tables"]["P2"] = [[0, HUGE_INT], [HUGE_INT, 0]]
    spec = tmp_path / "huge.json"
    spec.write_text(json.dumps(doc))
    if command == "detect":
        argv = ["detect", "--similarity-spec", str(spec), "--epsilon", "1"]
    else:
        argv = ["validate-similarity", "--spec", str(spec)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "too large for a float" in err
    assert len(err.splitlines()) == 1


def test_datasets(capsys):
    assert main(["datasets"]) == 0
    out = capsys.readouterr().out
    assert "karate" in out
    assert "34 vertices, 78 edges" in out


def run_python_m_rsmc(*args: str, env: dict | None = None, **kwargs):
    """Run ``python -m rsmc`` on this checkout in a child process, output as text."""
    env = dict(os.environ, **(env or {}))
    src = str(Path(rsmc.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "rsmc", *args], capture_output=True,
                          text=True, env=env, timeout=60, **kwargs)


def test_python_m_rsmc_runs_the_cli():
    proc = run_python_m_rsmc("datasets", env={"PYTHONWARNINGS": "error"})
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert proc.stdout.startswith("karate\t34 vertices, 78 edges")


def test_similarity_collapse_is_one_stderr_line(sim_spec, tmp_path):
    doc = json.loads(Path(sim_spec).read_text())
    doc["assignments"]["u2"] = dict(doc["assignments"]["u"])
    spec = tmp_path / "collapse.json"
    spec.write_text(json.dumps(doc))
    proc = run_python_m_rsmc("detect", "--similarity-spec", str(spec), "--epsilon", "1")
    assert proc.returncode == 0
    collapse, summary = proc.stderr.splitlines()
    assert collapse == "1 vertex pair(s) collapse to zero relation strength: [('u', 'u2')]"
    assert summary.startswith("similarity rsm on 4 vertices -> ")


def _rlimit_as_2gib():
    import resource
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, resource.getrlimit(resource.RLIMIT_AS)[1]))


@pytest.mark.parametrize("argv", [
    ["detect", "--rsm", "sdf", "--epsilon", "1"],
    ["matrix", "--rsm", "erf"],
], ids=["detect-sdf", "matrix-erf"])
def test_matrix_too_large_for_memory_exits_2(tmp_path, argv):
    # the child alone runs under a 2 GiB address-space limit, which the
    # 20,000 x 20,000 float matrix (2.98 GiB) cannot fit in
    resource = pytest.importorskip("resource")
    hard = resource.getrlimit(resource.RLIMIT_AS)[1]
    if hard != resource.RLIM_INFINITY and hard < 2 << 30:
        pytest.skip("hard address-space limit below 2 GiB")
    p = tmp_path / "isolated.tsv"
    p.write_text("".join(f"v{i}\n" for i in range(20_000)))
    proc = run_python_m_rsmc(*argv, "--input", str(p), preexec_fn=_rlimit_as_2gib,
                             env={"OPENBLAS_NUM_THREADS": "1"})
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == ("error: out of memory: Unable to allocate 2.98 GiB for an array "
                           "with shape (20000, 20000) and data type float64\n")


@pytest.mark.parametrize("argv", [
    ["matrix", "--rsm", "sdf", "--input"],
    ["detect", "--rsm", "sdf", "--epsilon", "1e308", "--input"],
    ["matrix", "--rsm", "erf", "--input"],
    ["matrix", "--similarity-spec"],
], ids=["matrix-sdf", "detect-sdf", "matrix-erf", "matrix-similarity"])
def test_strength_too_large_for_a_float_exits_3(sim_spec, tmp_path, capsys, argv):
    if argv[-1] == "--input":
        p = tmp_path / "heavy.tsv"
        p.write_text("a\tb\t1e308\nb\tc\t1e308\n")
    else:
        doc = json.loads(Path(sim_spec).read_text())
        doc["weights"] = [1.5e308, 1.5e308]  # u to v sums to 2.25e308
        p = tmp_path / "heavy.json"
        p.write_text(json.dumps(doc))
    assert main([*argv, str(p)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "too large for a float" in captured.err


def test_input_error_exits(tmp_path, capsys):
    assert main(["detect", "--builtin", "nope", "--rsm", "sdf", "--epsilon", "1"]) == 2
    assert main(["detect", "--input", str(tmp_path / "absent.tsv"), "--rsm", "sdf",
                 "--epsilon", "1"]) == 2
    bad = tmp_path / "bad.tsv"
    bad.write_text("a\tb\t-1\n")
    assert main(["detect", "--input", str(bad), "--rsm", "sdf", "--epsilon", "1"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["detect", "--input", "{f}", "--rsm", "sdf", "--epsilon", "1"],
    ["detect", "--matrix", "{f}", "--epsilon", "1"],
    ["detect", "--similarity-spec", "{f}", "--epsilon", "1"],
    ["matrix", "--input", "{f}", "--rsm", "erf"],
    ["validate-rsm", "--matrix", "{f}"],
    ["validate-rsm", "--matrix", "{m}", "--input", "{f}"],
    ["validate-similarity", "--spec", "{f}"],
])
def test_non_utf8_file_exits_2(tmp_path, capsys, argv):
    bad = tmp_path / "latin1.txt"
    bad.write_bytes(b"a\tb\t1\n\xff\tc\n")
    good = tmp_path / "m.csv"
    good.write_text("0,1\n1,0\n")
    assert main([a.format(f=bad, m=good) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(bad) in err and "UTF-8" in err


@pytest.mark.parametrize("flag, text", [
    ("--input", "a\tb\t2\nb\tc\n"),
    ("--matrix", "0,1,9\n1,0,1\n9,1,0\n"),
    ("--matrix", '{"rsm": "erf", "values": [[0, 1, 9], [1, 0, 1], [9, 1, 0]]}'),
    ("--similarity-spec", None),
], ids=["edge-list", "csv-matrix", "json-matrix", "similarity-spec"])
def test_byte_order_mark_is_ignored(tmp_path, sim_spec, capsys, flag, text):
    if text is None:
        text = Path(sim_spec).read_text(encoding="utf-8")
    outs = []
    for name, prefix in (("plain", ""), ("bom", "\ufeff")):
        p = tmp_path / name
        p.write_text(prefix + text, encoding="utf-8")
        rsm = ["--rsm", "sdf"] if flag == "--input" else []
        assert main(["detect", flag, str(p), *rsm, "--epsilon", "1.5"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


def test_numerical_error_exits_3(tmp_path, capsys):
    p = tmp_path / "illcond.tsv"
    p.write_text("a\tb\t1e15\nb\tc\t1e-15\nc\td\t1e15\nd\te\t1e-15\n")
    assert main(["detect", "--input", str(p), "--rsm", "erf", "--epsilon", "1"]) == 3
    err = capsys.readouterr().err
    assert "error:" in err
    # the Cholesky factorisation itself finds L + J/n indefinite
    assert "not positive definite" in err and len(err.splitlines()) == 1


def test_erf_weight_too_small_to_invert_exits_3(tmp_path, capsys):
    p = tmp_path / "tiny.tsv"
    p.write_text("a b 1\nc d 5e-324\n")
    assert main(["detect", "--input", str(p), "--rsm", "erf", "--epsilon", "1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: edge (2, 3) weight 5e-324 is too small to invert\n"


def test_detect_is_deterministic(capsys):
    runs = []
    for _ in range(2):
        assert main(["detect", "--builtin", "karate", "--rsm", "erf",
                     "--epsilon", "1.5"]) == 0
        runs.append(capsys.readouterr().out)
    assert runs[0] == runs[1]


def test_run_pipeline_config_validation():
    with pytest.raises(InvalidSpecError):
        PipelineConfig(rsm="sdf", epsilon=1.0)
    with pytest.raises(InvalidSpecError):
        PipelineConfig(rsm="sdf", epsilon=1.0, input_path="x", builtin="karate")
    with pytest.raises(InvalidSpecError):
        PipelineConfig(rsm="warp", epsilon=1.0, input_path="x")
    with pytest.raises(InvalidSpecError):
        PipelineConfig(rsm="sdf", epsilon=-1.0, builtin="karate")
    with pytest.raises(InvalidSpecError):
        PipelineConfig(rsm="similarity", epsilon=1.0)
    with pytest.raises(InvalidSpecError):
        PipelineConfig(rsm="external", epsilon=1.0, input_path="x", matrix_path="y")
    with pytest.raises(InvalidSpecError):
        PipelineConfig(rsm="sdf", epsilon=1.0, builtin="karate", directed=True)


def test_run_pipeline_result_fields():
    cfg = PipelineConfig(rsm="erf", epsilon=1.5, builtin="karate")
    result = run_pipeline(cfg)
    assert result.matrix.n == 34
    assert result.community_count == 3
    assert result.labels[0] == "1"
    assert result.graph is not None
    assert result.wall_time >= 0
    again = run_pipeline(cfg)
    assert (again.matrix.values == result.matrix.values).all()
    assert again.communities == result.communities
