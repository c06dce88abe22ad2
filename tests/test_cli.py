"""Command-line behavior: subcommands, formats, exit codes."""

import contextlib
import json

import numpy as np
import pytest

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


def test_detect_sweep_malformed(path3, capsys):
    assert main(["detect", "--input", path3, "--rsm", "sdf",
                 "--epsilon-sweep", "0-2-1"]) == 2
    assert main(["detect", "--input", path3, "--rsm", "sdf",
                 "--epsilon-sweep", "2:0:1"]) == 2


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
], ids=["graph-and-spec", "rsm-and-matrix", "spec-and-matrix", "input-and-builtin",
        "input-without-rsm", "no-source-detect", "no-source-matrix", "validate-rsm-two-graphs",
        "directed-matrix", "directed-spec", "directed-matrix-command",
        "validate-rsm-directed-without-graph", "directed-builtin-detect",
        "directed-builtin-matrix", "directed-builtin-validate-rsm"])
def test_source_conflict_exits_2(path3, sim_spec, tmp_path, capsys, argv):
    matrix = tmp_path / "m.csv"
    matrix.write_text("0,1,2\n1,0,1\n2,1,0\n")
    argv = [a.format(path3=path3, spec=sim_spec, matrix=matrix) for a in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and len(captured.err.splitlines()) == 1


def test_detect_similarity_source(sim_spec, capsys):
    assert main(["detect", "--similarity-spec", sim_spec, "--epsilon", "1.5"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["rsm"] == "similarity"
    assert ["v", "w"] in doc["communities"]


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
], ids=["csv-minus-inf", "json-minus-infinity", "json-int-overflow", "csv-float-overflow",
        "json-float-overflow"])
def test_validate_rsm_bad_entry_exits_2(tmp_path, capsys, name, text):
    bad = tmp_path / name
    bad.write_text(text)
    assert main(["validate-rsm", "--matrix", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1


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


def test_input_error_exits(tmp_path, capsys):
    assert main(["detect", "--builtin", "nope", "--rsm", "sdf", "--epsilon", "1"]) == 2
    assert main(["detect", "--input", str(tmp_path / "absent.tsv"), "--rsm", "sdf",
                 "--epsilon", "1"]) == 2
    bad = tmp_path / "bad.tsv"
    bad.write_text("a\tb\t-1\n")
    assert main(["detect", "--input", str(bad), "--rsm", "sdf", "--epsilon", "1"]) == 2
    assert "error:" in capsys.readouterr().err


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
