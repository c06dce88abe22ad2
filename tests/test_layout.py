"""Package layout: no private names cross modules, and rsmc exports what it binds."""

import ast
import types
from pathlib import Path

import rsmc

SRC = Path(rsmc.__file__).parent


def test_no_private_name_imported_across_modules():
    crossings = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                crossings += [f"{path.name}: {alias.name}" for alias in node.names
                              if alias.name.startswith("_")]
    assert crossings == []


def test_all_lists_exactly_the_public_names():
    assert rsmc.__all__ == sorted(set(rsmc.__all__))
    public = {name for name, value in vars(rsmc).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert set(rsmc.__all__) == public
