"""Package layout: no private names cross modules, rsmc exports what it binds, no test-only code,
diagnostics only through logging, no settings read from the environment."""

import ast
import re
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


def test_every_public_function_is_exported_or_used():
    # a public function the package neither exports nor calls serves only the tests
    pyproject = (Path(__file__).parent.parent / "pyproject.toml").read_text(encoding="utf-8")
    used = set(re.findall(r'^\w+\s*=\s*"rsmc[\w.]*:(\w+)"', pyproject, re.M))
    defined = []
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            own = getattr(top, "name", None)
            if isinstance(top, ast.FunctionDef) and not own.startswith("_"):
                defined.append((path.name, own))
            for node in ast.walk(top):
                ref = getattr(node, "id", None) or getattr(node, "attr", None)
                if isinstance(node, (ast.Name, ast.Attribute)) and ref != own:
                    used.add(ref)
    assert [f"{module}: {name}" for module, name in defined
            if name not in rsmc.__all__ and name not in used] == []


def test_no_module_imports_warnings():
    # diagnostics are logging records; a warnings.warn would print a source line
    importers = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom) else [])
            importers += [path.name for name in names if name == "warnings"]
    assert importers == []


def test_no_module_reads_the_environment():
    # behaviour follows from arguments and inputs, never from a hidden knob
    readers = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv")
                    and isinstance(node.value, ast.Name) and node.value.id == "os"):
                readers.append(f"{path.name}:{node.lineno}: os.{node.attr}")
            if isinstance(node, ast.ImportFrom) and node.module == "os":
                readers += [f"{path.name}:{node.lineno}: from os import {alias.name}"
                            for alias in node.names if alias.name in ("environ", "getenv")]
    assert readers == []


def test_reachability_has_one_home():
    # "who cannot reach whom" is answered by graph.unreachable alone
    homes = []
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            homes += [f"{path.name}: {getattr(top, 'name', None)}" for node in ast.walk(top)
                      if isinstance(node, ast.keyword) and node.arg == "unweighted"]
    assert homes == ["graph.py: unreachable"]


def _callers(callee: str) -> list[str]:
    """"module: top-level name" for each call of ``callee``, by plain or dotted name."""
    callers = []
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            callers += [f"{path.name}: {getattr(top, 'name', None)}" for node in ast.walk(top)
                        if isinstance(node, ast.Call) and callee in (
                            getattr(node.func, "id", None), getattr(node.func, "attr", None))]
    return callers


def test_violations_have_one_recorder():
    # every axiom check hands its places and magnitudes to rsm.violations_at
    assert _callers("Violation") == ["rsm.py: violations_at"]


def test_one_thread_pool():
    # the triangle check's tiles are the only work split over threads
    assert _callers("ThreadPoolExecutor") == ["rsm.py: _two_leg_minima"]


def _is_object_dtype(node: ast.expr) -> bool:
    return (isinstance(node, ast.Name) and node.id == "object"
            or isinstance(node, ast.Constant) and node.value in ("O", "object"))


def test_no_module_builds_an_object_array():
    # a Python object per matrix entry is what the matrix writer and readers no longer hold
    object_arrays = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and any(
                    map(_is_object_dtype, node.args + [k.value for k in node.keywords
                                                       if k.arg == "dtype"])):
                object_arrays.append(f"{path.name}:{node.lineno}: {node.func.attr}")
    assert object_arrays == []


def test_cases_are_looked_up_once_per_spec():
    # SimilaritySpec resolves every vertex's case through one dict per table;
    # no other code searches a case list
    lookups = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if "case_index" in (getattr(node, "name", None), getattr(node, "attr", None),
                                getattr(node, "id", None)):
                lookups.append(f"{path.name}:{node.lineno}: case_index")
            if (isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "index"
                    and "cases" in ast.unparse(node.func.value)):
                lookups.append(f"{path.name}:{node.lineno}: {ast.unparse(node.func)}")
    assert lookups == []


def test_json_numbers_have_one_type_rule():
    # matrix rows, case-table rows and weights all test entry types against
    # rsm.JSON_NUMBER_TYPES; by type, since a bool is an int to isinstance
    homes, bool_tests = [], []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign) else [])
            homes += [path.name for t in targets
                      if isinstance(t, ast.Name) and t.id == "JSON_NUMBER_TYPES"]
            if (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
                    and any(isinstance(n, ast.Name) and n.id == "bool"
                            for arg in node.args[1:] for n in ast.walk(arg))):
                bool_tests.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    assert homes == ["rsm.py"]
    assert bool_tests == []


def test_one_pair_rule_and_components_as_arrays():
    # refine and the epsilon sweep read related pairs from community._related_pairs
    # alone, and components stay scipy's (count, labels) arrays
    reverse, leftovers = [], []
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        leftovers += [f"{path.name}: {name}" for name in ("ComponentPartition", ".components(")
                      if name in text]
        for top in ast.parse(text).body:
            reverse += [f"{path.name}: {getattr(top, 'name', None)}" for node in ast.walk(top)
                        if isinstance(node, ast.Subscript)
                        and ast.unparse(node) == "vals[cols, rows]"]
    assert leftovers == []
    assert reverse == ["community.py: _related_pairs"]


def _functions(path: Path):
    """("name" or "Class.method", node) for each top-level function and method in a module."""
    for top in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(top, ast.FunctionDef):
            yield top.name, top
        elif isinstance(top, ast.ClassDef):
            yield from ((f"{top.name}.{f.name}", f) for f in top.body
                        if isinstance(f, ast.FunctionDef))


def test_one_threshold_rule_and_pairs_checked_not_sorted():
    # community.threshold is the only check of epsilon and tol; the effective
    # edge graph checks the order of refine's pairs and never sorts them again
    callers, checks = [], {}
    for path in sorted(SRC.glob("*.py")):
        for name, func in _functions(path):
            called = {getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                      for node in ast.walk(func) if isinstance(node, ast.Call)}
            callers += [f"{path.name}: {name}"] * ("threshold" in called)
            if name == "EffectiveEdgeGraph.__post_init__":
                checks[name] = sorted(called & {"sort", "lexsort", "argsort", "unique", "sorted"})
    assert callers == ["cli.py: PipelineConfig.__post_init__", "community.py: refine",
                       "community.py: count_maximal_communities"]
    assert checks == {"EffectiveEdgeGraph.__post_init__": []}
    assert [path.name for path in sorted(SRC.glob("*.py"))
            if "NegativeEpsilonError" in path.read_text(encoding="utf-8")] == []


def test_blocks_read_in_one_place_and_values_assembled_in_one():
    # outside RsmMatrix only community._related_pairs reads a matrix's blocks, and
    # RsmMatrix.values is the only code that fills with +inf or scatters blocks in
    readers, fills = set(), set()
    for path in sorted(SRC.glob("*.py")):
        for name, func in _functions(path):
            where = f"{path.name}: {name}"
            for node in ast.walk(func):
                if (isinstance(node, ast.Attribute) and node.attr == "blocks"
                        and not name.startswith("RsmMatrix.")):
                    readers.add(where)
                if isinstance(node, ast.Call) and (
                        getattr(node.func, "attr", None) == "fill_diagonal"
                        or getattr(node.func, "attr", None) in ("full", "full_like")
                        and "inf" in ast.unparse(node)):
                    fills.add(where)
                if (isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store)
                        and "ix_" in ast.unparse(node.slice)):
                    fills.add(where)
    assert readers == {"community.py: _related_pairs"}
    assert fills == {"rsm.py: RsmMatrix.values"}


def test_one_detect_run():
    # detect and the sweep build one config and read one clock, both in cmd_detect;
    # run_pipeline is its three stages and times nothing
    cli = SRC / "cli.py"
    clocks, configs = set(), 0
    for name, func in _functions(cli):
        for node in ast.walk(func):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == "time"):
                clocks.add(name)
            if (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_config_from"
                    and name == "cmd_detect"):
                configs += 1
    assert "from time import" not in cli.read_text(encoding="utf-8")
    assert clocks == {"cmd_detect"}
    assert configs == 1
    assert [path.name for path in sorted(SRC.glob("*.py"))
            if "wall_time" in path.read_text(encoding="utf-8")] == []


def test_one_text_rule():
    # edge lists and CSV matrices split lines with graph.text_lines, and graph.number
    # alone holds the spelling of a number, for files and the command line alike
    texts = {path.name: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    assert [name for name, text in texts.items() if "splitlines" in text] == []
    assert [name for name, text in texts.items() if "is_ascii_number" in text] == []
    assert _callers("isascii") == ["graph.py: number"]
    assert _callers("text_lines") == ["graph.py: parse_edge_list", "rsm.py: rsm_from_csv"]


def test_one_bitset_builder():
    # detect and the sweep pack their bitsets in community._component_bitsets,
    # and the Tomita search is the only search either runs
    assert _callers("packbits") == ["community.py: _component_bitsets"]
    assert _callers("from_bytes") == ["community.py: _component_bitsets"]
    assert _callers("_maximal_cliques") == ["community.py: enumerate_maximal_communities",
                                            "community.py: count_maximal_communities"]
    assert [path.name for path in sorted(SRC.glob("*.py"))
            if "_component_cliques" in path.read_text(encoding="utf-8")] == []
