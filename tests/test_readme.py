"""README.md's examples run as written, so they cannot drift from the API or the command line."""

import json
import re
import shlex
import shutil
from pathlib import Path

import pytest

import rsmc
from rsmc.cli import main

README = Path(__file__).parent.parent / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, re.M | re.S)
#: Each ``rsmc`` command of the shell blocks, with the comment lines just above it.
COMMANDS = re.findall(r"((?:^#.*\n)*)^(rsmc .*)$", "\n".join(
    re.findall(r"^```sh\n(.*?)^```", TEXT, re.M | re.S)), re.M)


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("source", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_python_block_runs(source):
    exec(compile(source, f"{README.name} python block", "exec"), {"__name__": "readme"})


@pytest.fixture
def readme_files(tmp_path, monkeypatch):
    """The files the command-line examples name, in a fresh working directory.

    ``net.tsv`` is the bundled karate graph, ``people.json`` the similarity
    document of the Library example and ``strengths.csv`` the sdf matrix of
    ``net.tsv``.
    """
    monkeypatch.chdir(tmp_path)
    shutil.copyfile(Path(rsmc.__file__).parent / "data" / "karate.tsv", tmp_path / "net.tsv")
    people = re.search(r'parse_similarity_json\("""(.*?)"""\)', TEXT, re.S).group(1)
    (tmp_path / "people.json").write_text(people, encoding="utf-8")
    assert main(["matrix", "--input", "net.tsv", "--rsm", "sdf", "--format", "csv",
                 "--out", "strengths.csv"]) == 0


#: A comment that says how many communities the command below it finds.
COUNT_COMMENT = re.compile(r"# (\d+) overlapping communities")


def test_readme_has_command_line_examples():
    assert len(COMMANDS) >= 9
    assert COUNT_COMMENT.match(COMMANDS[0][0])


@pytest.mark.parametrize("comment, line", COMMANDS, ids=[line for _, line in COMMANDS])
def test_readme_command_runs(readme_files, capsys, comment, line):
    assert main(shlex.split(line)[1:]) == 0
    count = COUNT_COMMENT.match(comment)
    if count:
        assert len(json.loads(capsys.readouterr().out)["communities"]) == int(count.group(1))
