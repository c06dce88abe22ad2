"""Case tables, weighted combination, spec validation, JSON loading."""

import json
import logging
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rsmc import (
    CaseTable,
    InvalidSpecError,
    NumericalError,
    ParseError,
    RsmMatrix,
    RsmValidationReport,
    SimilaritySpec,
    Violation,
    combine_similarities,
    parse_similarity_json,
    validate_rsm,
)
from rsmc.similarity import TRIANGLE_SLACK

from oracles import (
    check_scaling,
    combine_similarity_oracle,
    exact_violations,
    loop_table_violations,
    triangle_breaks_oracle,
)


def similarity_warnings(caplog):
    return [r.getMessage() for r in caplog.records
            if r.name == "rsmc.similarity" and r.levelno == logging.WARNING]


def table(cases, rows):
    return CaseTable(cases=tuple(cases), values=np.array(rows, dtype=float))


def spec_doc(weights=(2.0, 3.0)):
    """Two-property document realizing the worked f = a1*s1 + a2*s2 example."""
    return {
        "properties": ["P1", "P2"],
        "cases": {"P1": ["g1", "g2", "g3"], "P2": ["z1", "z2"]},
        "tables": {
            "P1": [[0, 0.6, 1.0], [0.6, 0, 0.7], [1.0, 0.7, 0]],
            "P2": [[0, 0.5], [0.5, 0]],
        },
        "weights": list(weights),
        "assignments": {
            "u": {"P1": "g1", "P2": "z2"},
            "v": {"P1": "g3", "P2": "z1"},
            "w": {"P1": "g2", "P2": "z1"},
        },
    }


def spec_from(doc):
    return parse_similarity_json(json.dumps(doc))


# ---------------------------------------------------------------------------
# Table validation
# ---------------------------------------------------------------------------

def test_table_report_is_the_matrix_report():
    # a case table is judged by the matrix axioms: no graph, and its triangle slack as tol
    report = table(["a", "b", "c"], [[0, 1, 3], [1, 0, 1], [3, 1, 0]]).report
    assert type(report) is RsmValidationReport
    assert report.connectivity is None and report.tol == TRIANGLE_SLACK
    assert not report.triangle and not report.all_passed


def test_table_all_pass():
    report = table(["c1", "c2"], [[0, 1], [1, 0]]).report
    assert report.all_passed
    assert report.violations == ()


def test_table_symmetry_fail():
    report = table(["c1", "c2"], [[0, 1], [2, 0]]).report
    assert not report.symmetry
    assert any(v.kind == "asymmetry" and v.where == ("c1", "c2") for v in report.violations)


def test_table_coincidence_fail_on_diagonal():
    report = table(["c1", "c2"], [[0.5, 1], [1, 0]]).report
    assert not report.coincidence
    assert any(v.kind == "diagonal-nonzero" and v.where == ("c1",) for v in report.violations)


def test_table_coincidence_fail_off_diagonal_zero():
    report = table(["c1", "c2"], [[0, 0], [0, 0]]).report
    assert not report.coincidence
    assert any(v.kind == "offdiagonal-zero" for v in report.violations)


def test_table_negative_entry():
    report = table(["c1", "c2"], [[0, -1], [-1, 0]]).report
    assert not report.nonnegativity


def test_table_triangle_reported():
    report = table(["a", "b", "c"], [[0, 1, 3], [1, 0, 1], [3, 1, 0]]).report
    assert report.nonnegativity and report.coincidence and report.symmetry
    assert not report.triangle
    assert not report.all_passed
    assert any(v.kind == "triangle" and v.where == ("a", "b", "c") for v in report.violations)


def test_table_and_matrix_report_the_same_triangle_breaks():
    rng = np.random.RandomState(5)
    vals = np.triu(rng.uniform(0.1, 3.0, (7, 7)), k=1)
    vals += vals.T
    tol = 1e-12  # the slack every case table is judged at

    def breaks(violations):
        return [(tuple(str(x) for x in v.where), v.magnitude)
                for v in violations if v.kind == "triangle"]

    from_matrix = breaks(validate_rsm(RsmMatrix(values=vals, source_rsm="external"),
                                      tol=tol).violations)
    cases = [str(i) for i in range(len(vals))]
    from_table = breaks(table(cases, vals).report.violations)
    assert len(from_matrix) > 2
    assert from_table == from_matrix


def test_table_asymmetry_near_float_max_warns_nothing():
    report = table(["a", "b"], [[0.0, 1e308], [-1e308, 0.0]]).report
    assert [(v.where, v.magnitude) for v in report.violations if v.kind == "asymmetry"] == [
        (("a", "b"), float("inf"))
    ]


def test_table_structure_errors():
    with pytest.raises(InvalidSpecError):
        CaseTable(cases=(), values=np.zeros((0, 0)))
    with pytest.raises(InvalidSpecError):
        CaseTable(cases=("a", "a"), values=np.zeros((2, 2)))
    with pytest.raises(InvalidSpecError):
        CaseTable(cases=("a", "b"), values=np.zeros((3, 3)))
    with pytest.raises(InvalidSpecError):
        CaseTable(cases=("a", "b"), values=np.array([[0.0, np.inf], [np.inf, 0.0]]))


def test_table_integer_too_large_for_a_float():
    with pytest.raises(InvalidSpecError, match="too large for a float"):
        CaseTable(cases=("a", "b"), values=[[0, 10**400], [10**400, 0]])


@pytest.mark.parametrize("rows", [
    [[0, 1], [1]],
    [[0, "x"], [1, 0]],
    [[0, 1j], [1, 0]],
    [[0, "0_5"], ["0_5", 0]],
    np.array([[0, 1 + 2j], [1 + 2j, 0]]),
], ids=["ragged", "string", "complex", "numeric-string", "complex-array"])
def test_table_entries_that_are_not_reals_raise_invalid_spec(rows):
    with pytest.raises(InvalidSpecError, match="reals in rows of one length"):
        CaseTable(cases=("a", "b"), values=rows)


# ---------------------------------------------------------------------------
# Combination
# ---------------------------------------------------------------------------

def test_combine_reproduces_hand_arithmetic():
    m = combine_similarities(spec_from(spec_doc()))
    assert m.source_rsm == "similarity"
    # u vs v: 2 * s1(g1, g3) + 3 * s2(z2, z1) = 2 * 1.0 + 3 * 0.5
    assert m.values[0, 1] == 2 * 1.0 + 3 * 0.5 == 3.5
    assert m.values[1, 0] == 3.5
    assert (np.diag(m.values) == 0).all()


def test_combine_identical_assignments_collapse_with_warning(caplog):
    doc = spec_doc()
    doc["assignments"]["u2"] = dict(doc["assignments"]["u"])
    m = combine_similarities(spec_from(doc))
    assert any(re.search("collapse", msg) for msg in similarity_warnings(caplog))
    i, j = 0, list(doc["assignments"]).index("u2")
    assert m.values[i, j] == 0.0


def test_combine_single_discrete_metric_is_table_lookup(caplog):
    doc = {
        "properties": ["P"],
        "cases": {"P": ["a", "b", "c"]},
        "tables": {"P": [[0, 1, 1], [1, 0, 1], [1, 1, 0]]},
        "weights": [1.0],
        "assignments": {
            "v1": {"P": "a"}, "v2": {"P": "b"}, "v3": {"P": "c"}, "v4": {"P": "a"},
        },
    }
    m = combine_similarities(spec_from(doc))
    assert similarity_warnings(caplog)
    tab = np.array(doc["tables"]["P"], dtype=float)
    idx = [0, 1, 2, 0]
    for i in range(4):
        for j in range(4):
            assert m.values[i, j] == tab[idx[i], idx[j]]


#: Table entries that probe each check's edge: signed zeros and gaps that overflow.
HOSTILE_TABLE_ENTRIES = [-1.0, -0.0, 0.0, 0.5, 1.0, 2.0, 3.0, 1e308, -1e308, 1.7e308]


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10_000))
def test_table_report_matches_the_entry_loops(seed):
    rng = np.random.RandomState(seed)
    n = rng.randint(1, 7)
    names = tuple(f"c{i}" for i in range(n))
    vals = rng.choice(HOSTILE_TABLE_ENTRIES, (n, n))
    if rng.rand() < 0.5:  # mirrored, so that +-0.0 pairs and passing tables turn up
        upper = np.triu_indices(n)
        vals.T[upper] = vals[upper]
    report = table(names, vals).report
    found = loop_table_violations(names, vals)
    triangle = [Violation("triangle", (names[i], names[k], names[j]), excess)
                for i, k, j, excess in triangle_breaks_oracle(vals, TRIANGLE_SLACK)]
    assert exact_violations(report.violations) == exact_violations(
        found["negative"] + found["diagonal-nonzero"] + found["offdiagonal-zero"]
        + found["asymmetry"] + triangle)
    assert (report.nonnegativity, report.coincidence, report.symmetry, report.triangle) == (
        not found["negative"],
        not (found["diagonal-nonzero"] or found["offdiagonal-zero"]),
        not found["asymmetry"],
        not triangle,
    )


def test_table_offdiagonal_negative_zero_has_magnitude_zero():
    report = table(["a", "b"], [[0.0, -0.0], [-0.0, 0.0]]).report
    assert exact_violations(report.violations) == exact_violations([
        Violation("offdiagonal-zero", ("a", "b"), 0.0),
        Violation("offdiagonal-zero", ("b", "a"), 0.0),
    ])


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000))
def test_combine_matches_naive_oracle(seed):
    rng = np.random.RandomState(seed)
    k = rng.randint(1, 4)
    doc = {"properties": [], "cases": {}, "tables": {}, "weights": [], "assignments": {}}
    for p in range(k):
        name = f"P{p}"
        cases = [f"c{p}{i}" for i in range(rng.randint(2, 5))]
        base = rng.uniform(0.5, 3.0, size=(len(cases), len(cases)))
        sym = np.triu(base, 1) + np.triu(base, 1).T
        doc["properties"].append(name)
        doc["cases"][name] = cases
        doc["tables"][name] = sym.tolist()
        doc["weights"].append(float(rng.uniform(0.1, 5.0)))
    for v in range(rng.randint(2, 7)):
        doc["assignments"][f"v{v}"] = {
            f"P{p}": doc["cases"][f"P{p}"][rng.randint(len(doc["cases"][f"P{p}"]))]
            for p in range(k)
        }
    m = combine_similarities(spec_from(doc))
    labels, expected = combine_similarity_oracle(doc)
    assert labels == list(doc["assignments"])
    np.testing.assert_allclose(m.values, expected, rtol=0, atol=1e-12)


def test_combined_matrix_is_pseudometric_when_tables_are():
    m = combine_similarities(spec_from(spec_doc()))
    report = validate_rsm(m, tol=1e-12)
    assert report.nonnegativity and report.triangle and report.symmetry


def test_weight_scaling_scales_matrix():
    m = combine_similarities(spec_from(spec_doc()))
    scaled = combine_similarities(spec_from(spec_doc(weights=(2.0 * 4, 3.0 * 4))))
    assert check_scaling(m, scaled, 4.0, tol=1e-12)


def test_triangle_breaking_table_warns_but_returns(caplog):
    doc = spec_doc()
    doc["tables"]["P1"] = [[0, 1, 3], [1, 0, 1], [3, 1, 0]]
    m = combine_similarities(spec_from(doc))
    assert any(re.search("triangle", msg) for msg in similarity_warnings(caplog))
    assert m.values[0, 1] == 2 * 3 + 3 * 0.5


def test_combine_runs_no_triangle_check(caplog):
    spec = spec_from(spec_doc())
    with caplog.at_level(logging.DEBUG, logger="rsmc.rsm"):
        combine_similarities(spec)
    assert not [r for r in caplog.records if r.getMessage().startswith("triangle check of a")]


def test_combined_strength_too_large_for_a_float_raises():
    doc = spec_doc(weights=(1.0, 1.0))
    doc["tables"]["P1"] = [[0, 1e308, 1e308], [1e308, 0, 1e308], [1e308, 1e308, 0]]
    doc["tables"]["P2"] = [[0, 1e308], [1e308, 0]]
    with pytest.raises(NumericalError, match="too large for a float"):
        combine_similarities(spec_from(doc))


# ---------------------------------------------------------------------------
# Spec invariants
# ---------------------------------------------------------------------------

def test_spec_rejects_bad_weights():
    with pytest.raises(InvalidSpecError):
        spec_from(spec_doc(weights=(2.0,)))
    with pytest.raises(InvalidSpecError):
        spec_from(spec_doc(weights=(-1.0, 3.0)))
    with pytest.raises(InvalidSpecError):
        spec_from(spec_doc(weights=(0.0, 0.0)))


def test_spec_weight_too_large_for_a_float():
    spec = spec_from(spec_doc())
    with pytest.raises(InvalidSpecError, match="fit a float"):
        SimilaritySpec(properties=spec.properties, tables=spec.tables,
                       weights=(10**400, 3.0), assignments=spec.assignments)


def test_spec_allows_one_zero_weight(caplog):
    # with P1 muted, v and w (both z1) become indistinguishable
    m = combine_similarities(spec_from(spec_doc(weights=(0.0, 3.0))))
    assert any(re.search("collapse", msg) for msg in similarity_warnings(caplog))
    assert m.values[0, 1] == 3 * 0.5


def test_spec_rejects_incomplete_assignment():
    doc = spec_doc()
    del doc["assignments"]["u"]["P2"]
    with pytest.raises(InvalidSpecError):
        spec_from(doc)


def test_spec_rejects_unknown_case():
    doc = spec_doc()
    doc["assignments"]["u"]["P1"] = "g9"
    with pytest.raises(InvalidSpecError):
        spec_from(doc)


@pytest.mark.parametrize("case", ["g9", 1, ["g1"], {"g1": 0}, None],
                         ids=["unknown-string", "int", "list", "dict", "none"])
def test_spec_built_in_python_names_the_unknown_case(case):
    # an int is not its string spelling, and an unhashable case is unknown too
    t = table(["g1", "1"], [[0, 1], [1, 0]])
    with pytest.raises(InvalidSpecError) as info:
        SimilaritySpec(properties=("P",), tables={"P": t}, weights=(1.0,),
                       assignments={"u": {"P": "g1"}, "v": {"P": case}})
    assert str(info.value) == f"unknown case {case!r}; expected one of ('g1', '1')"


def test_spec_checks_each_vertex_in_turn_and_its_properties_in_declared_order():
    doc = spec_doc()
    doc["assignments"]["u"] = {"P2": "bad2", "P1": "bad1"}
    del doc["assignments"]["v"]["P2"]
    with pytest.raises(InvalidSpecError, match=r"^unknown case 'bad1'; expected one of \("):
        spec_from(doc)
    doc["assignments"]["u"] = {"P2": "z1", "P1": "g1"}
    with pytest.raises(InvalidSpecError, match="^vertex 'v' must assign exactly"):
        spec_from(doc)


def test_spec_keeps_every_vertex_case_position():
    spec = spec_from(spec_doc())
    assert spec.case_positions.tolist() == [[0, 2, 1], [1, 0, 0]]


def test_spec_rejects_axiom_breaking_tables():
    doc = spec_doc()
    doc["tables"]["P2"] = [[0, 0.5], [0.7, 0]]
    with pytest.raises(InvalidSpecError, match="asymmetry"):
        spec_from(doc)
    doc = spec_doc()
    doc["tables"]["P2"] = [[0.1, 0.5], [0.5, 0]]
    with pytest.raises(InvalidSpecError, match="diagonal"):
        spec_from(doc)
    doc = spec_doc()
    doc["tables"]["P2"] = [[0, -0.5], [-0.5, 0]]
    with pytest.raises(InvalidSpecError, match="negative"):
        spec_from(doc)


@pytest.mark.parametrize("raw", [[[0, 1], [1, 0]], np.array([[0.0, 1.0], [1.0, 0.0]]), None],
                         ids=["list", "array", "none"])
def test_spec_rejects_a_table_that_is_not_a_case_table(raw):
    with pytest.raises(InvalidSpecError, match="table for 'P' must be a CaseTable"):
        SimilaritySpec(properties=("P",), tables={"P": raw}, weights=(1.0,),
                       assignments={"u": {"P": "a"}})


@pytest.mark.parametrize("assignments", [[("u", {"P": "a"})], {"u": ["P"]}],
                         ids=["list-of-pairs", "list-of-properties"])
def test_spec_rejects_assignments_that_are_not_mappings(assignments):
    table = CaseTable(cases=("a",), values=[[0.0]])
    with pytest.raises(InvalidSpecError, match="assignments must map vertex labels"):
        SimilaritySpec(properties=("P",), tables={"P": table}, weights=(1.0,),
                       assignments=assignments)


def test_spec_rejects_duplicate_or_missing_structure():
    with pytest.raises(InvalidSpecError):
        SimilaritySpec(properties=(), tables={}, weights=(), assignments={"v": {}})
    doc = spec_doc()
    doc["properties"] = ["P1"]
    with pytest.raises(ParseError):
        spec_from(doc)
    spec = spec_from(spec_doc())
    with pytest.raises(InvalidSpecError, match=re.escape(
            "tables keyed by ['P1', 'P3'] but properties are ['P1', 'P2']")):
        SimilaritySpec(properties=("P1", "P2"), weights=(2.0, 3.0),
                       tables={"P1": spec.tables["P1"], "P3": spec.tables["P2"]},
                       assignments=spec.assignments)


def test_spec_empty_assignments():
    doc = spec_doc()
    doc["assignments"] = {}
    with pytest.raises(InvalidSpecError):
        spec_from(doc)


# ---------------------------------------------------------------------------
# JSON loading
# ---------------------------------------------------------------------------

def test_json_missing_keys():
    with pytest.raises(ParseError, match="missing"):
        parse_similarity_json('{"properties": []}')


def test_json_not_object():
    with pytest.raises(ParseError):
        parse_similarity_json("[1, 2]")
    with pytest.raises(ParseError):
        parse_similarity_json("{broken")


def test_json_duplicate_keys_rejected():
    doc = json.dumps(spec_doc())
    dup = doc.replace('"weights"', '"tables": {}, "weights"', 1)
    with pytest.raises(ParseError, match="duplicate"):
        parse_similarity_json(dup)


def test_json_bad_value_types():
    doc = spec_doc()
    doc["weights"] = ["heavy", 3]
    with pytest.raises(ParseError):
        spec_from(doc)
    doc = spec_doc()
    doc["tables"]["P2"] = [[0, "x"], ["x", 0]]
    with pytest.raises(ParseError):
        spec_from(doc)
    doc = spec_doc()
    doc["tables"]["P2"] = [[0, 0.5], [0.5]]
    with pytest.raises(ParseError, match="rows of different lengths"):
        spec_from(doc)
    doc = spec_doc()
    doc["assignments"]["u"] = "g1"
    with pytest.raises(ParseError):
        spec_from(doc)
    # a JSON true is a Python bool, which is an int: refused all the same
    not_numeric = re.escape(""""tables" for 'P2' must be a numeric matrix""")
    for row in ([0, True], [0.5, True], [True, False]):
        doc = spec_doc()
        doc["tables"]["P2"][1] = row
        with pytest.raises(ParseError, match=not_numeric):
            spec_from(doc)
    doc = spec_doc(weights=(1, True))
    with pytest.raises(ParseError, match='"weights" must be an array of numbers'):
        spec_from(doc)
    for key, value, message in (
            ("properties", ["P1", 2], '"properties" must be an array of strings'),
            ("properties", "P1", '"properties" must be an array of strings'),
            ("cases", [["g1"]], '"cases" and "tables" must be objects keyed by property'),
            ("tables", [[0]], '"cases" and "tables" must be objects keyed by property'),
            ("cases", {"P1": "g1", "P2": ["z1", "z2"]},
             """"cases" for 'P1' must be an array of strings"""),
            ("cases", {"P1": ["g1", "g2", "g3"], "P2": ["z1", None]},
             """"cases" for 'P2' must be an array of strings""")):
        doc = spec_doc()
        doc[key] = value
        with pytest.raises(ParseError, match=re.escape(message)):
            spec_from(doc)


def test_vertex_order_is_assignment_order():
    spec = spec_from(spec_doc())
    assert spec.vertex_labels == ("u", "v", "w")


@pytest.mark.parametrize("place", ["weights", "tables"])
def test_json_integer_over_the_digit_limit_reads_as_any_too_large_one(place):
    # Python's int refuses literals over 4300 digits; such a literal is too large for a float
    doc = json.dumps(spec_doc(weights=(2.0, 123456789)) if place == "weights" else spec_doc())
    if place == "tables":
        doc = doc.replace("[[0, 0.5], [0.5, 0]]", "[[0, 123456789], [0.5, 0]]")
    errors = []
    for digits in ("9" * 1000, "9" * 5000, "-" + "9" * 5000):
        with pytest.raises(ParseError) as caught:
            parse_similarity_json(doc.replace("123456789", digits))
        errors.append(str(caught.value))
    named = '"weights"' if place == "weights" else "\"tables\" for 'P2'"
    assert errors == [f"{named} holds an integer too large for a float"] * 3


def test_json_nested_too_deep_is_a_parse_error():
    doc = json.dumps(spec_doc()).replace('"weights"', '"deep": ' + "[" * 100_000 + ', "weights"')
    with pytest.raises(ParseError, match="^bad similarity JSON: maximum recursion depth"):
        parse_similarity_json(doc)
