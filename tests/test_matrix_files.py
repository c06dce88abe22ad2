"""Matrix files: the row-by-row readers against ``json.loads`` and a token loop, and
what writing and reading a matrix holds in memory."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rsmc import (DimensionMismatchError, ParseError, RsmMatrix, rsm_from_csv, rsm_from_json,
                  rsm_to_csv, rsm_to_json)

from oracles import json_loads_rsm, token_loop_csv_rsm


def outcome(read, text: str):
    """The matrix's bits, shape and tag, or the exception's class and message."""
    try:
        m = read(text)
    except Exception as exc:  # the two readers must fail alike, whatever the class
        return type(exc), str(exc)
    return m.values.tobytes(), m.values.shape, m.source_rsm


# ---------------------------------------------------------------------------
# Documents
# ---------------------------------------------------------------------------

NUMBERS = st.one_of(
    st.floats(0, 1e308, allow_nan=False).map(repr),
    st.integers(0, 10**20).map(str),
    st.sampled_from(["0", "0.0", "-0.0", "1e-05", "2.5E+3", "5e-324"]),
)
JSON_SPECIAL = st.sampled_from([
    '"inf"', "Infinity", "-Infinity", "NaN", "1e400", "-1e400", "1" + "0" * 400, "-1",
    "true", "null", '"x"', '"Infinity"', "[1]", '{"v": 1}', "[]",
])
CSV_SPECIAL = st.sampled_from([
    "inf", "Inf", "+inf", "-inf", "INFINITY", "infinity", " inf\t", "nan", "NaN", "1e400",
    "-1e400", "+2E999", "1_0", "\u0663", "0x1", "", "abc", " 2.5 ", "1\x1f", "1\x0c",
])
JSON_SPACE = st.text(" \t\n\r", max_size=2)
NESTED = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                 max_size=3),
    max_leaves=5,
).map(json.dumps)
TAGS = st.sampled_from(['"sdf"', '"erf"', '"x\\u00e9\\"y"', "3", "null", "Infinity", "[]"])
MUTATIONS = ("truncate", "replace", "trailing", "non-list row", "ragged", "extra row",
             "late bad token")


def _cells(draw, special) -> list[list[str]]:
    n = draw(st.integers(1, 4))
    cells = [[draw(NUMBERS) for _ in range(n)] for _ in range(n)]
    for _ in range(draw(st.integers(0, 2))):
        cells[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = draw(special)
    return cells


def _shape_mutation(draw, cells: list[list[str]], mutation: str | None, bad: str) -> None:
    """Apply a mutation that changes the rows rather than the characters."""
    if mutation == "ragged":
        row = cells[draw(st.integers(0, len(cells) - 1))]
        del row[draw(st.integers(0, len(row) - 1))]
    elif mutation == "extra row":
        cells.append(list(cells[-1]))
    elif mutation == "late bad token":
        cells[-1][draw(st.integers(0, len(cells[-1]) - 1))] = bad


def _text_mutation(draw, text: str, mutation: str | None) -> str:
    """Apply a mutation that changes the characters."""
    if mutation == "truncate":
        return text[:draw(st.integers(0, max(len(text) - 1, 0)))]
    if mutation == "replace" and text:
        at = draw(st.integers(0, len(text) - 1))
        return text[:at] + draw(st.sampled_from(",]}:x")) + text[at + 1:]
    if mutation == "trailing":
        return text + draw(st.sampled_from(["x", " 1", "{}", ",", "\n0,1"]))
    return text


@st.composite
def json_documents(draw, mutation=None):
    cells = _cells(draw, JSON_SPECIAL)
    _shape_mutation(draw, cells, mutation, '"huge"')

    def array(items):
        sep = draw(JSON_SPACE) + "," + draw(JSON_SPACE)
        return "[" + draw(JSON_SPACE) + sep.join(items) + draw(JSON_SPACE) + "]"

    rows = [array(row) for row in cells]
    if mutation == "non-list row":
        rows[draw(st.integers(0, len(rows) - 1))] = draw(st.sampled_from(["3", '"r"', "{}",
                                                                          "null"]))
    pairs = [(draw(st.sampled_from(['"values"', '"\\u0076alues"'])), array(rows))]
    for _ in range(draw(st.integers(0, 3))):
        pairs.append(draw(st.sampled_from([
            ('"rsm"', draw(TAGS)),
            ('"values"', draw(st.sampled_from(['"nope"', "[]", "[[0]]", "{}"]))),
            (json.dumps(draw(st.text(max_size=3))), draw(NESTED)),
        ])))
    pairs = draw(st.permutations(pairs))
    sep = draw(JSON_SPACE) + "," + draw(JSON_SPACE)
    body = sep.join(f"{k}{draw(JSON_SPACE)}:{draw(JSON_SPACE)}{v}" for k, v in pairs)
    text = draw(JSON_SPACE) + "{" + draw(JSON_SPACE) + body + draw(JSON_SPACE) + "}" + draw(
        JSON_SPACE)
    return _text_mutation(draw, text, mutation)


@st.composite
def csv_documents(draw, mutation=None):
    cells = _cells(draw, CSV_SPECIAL)
    _shape_mutation(draw, cells, mutation, "abc")
    lines = []
    for row in cells:
        lines += [" \t"] * draw(st.integers(0, 1))  # a blank line
        lines.append(",".join(row))
    breaks = st.sampled_from(["\n", "\r\n", "\r", "\x0b", "\x1c", " "])
    text = "".join(line + draw(breaks) for line in lines)
    return _text_mutation(draw, text, mutation)


# ---------------------------------------------------------------------------
# Differential tests
# ---------------------------------------------------------------------------

@settings(max_examples=400, deadline=None)
@given(json_documents())
def test_json_reader_matches_json_loads(text):
    assert outcome(rsm_from_json, text) == outcome(json_loads_rsm, text)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(MUTATIONS).flatmap(lambda m: json_documents(m)))
def test_json_reader_matches_json_loads_on_mutations(text):
    assert outcome(rsm_from_json, text) == outcome(json_loads_rsm, text)


@settings(max_examples=400, deadline=None)
@given(csv_documents())
def test_csv_reader_matches_token_loop(text):
    assert outcome(rsm_from_csv, text) == outcome(token_loop_csv_rsm, text)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(MUTATIONS).flatmap(lambda m: csv_documents(m)))
def test_csv_reader_matches_token_loop_on_mutations(text):
    assert outcome(rsm_from_csv, text) == outcome(token_loop_csv_rsm, text)


@pytest.mark.parametrize("text", [
    '{"values": [[0, 1], [1, 0]]}',
    '{"values": [[0, 1], [1, 0]], "values": [[0]]}',
    '{"rsm": 3, "values": [[0, "x"]]}',
    '{"values": [[0, "x"]], "y": [1,]}',
    '{"values": [[0, 1], [1, 0]],}',
    '{"values": [[0, 1], [1, 0], ]}',
    '{"values": [[0, 1] , [1, 0]] } x',
    '{"values": [[0, 1], [1, 0]]',
    '{"values": [[0], [1, 0]], "rsm": "a"}',
    '{"values": [[0, ' + "9" * 400 + '], [1, 0], [2]]}',
    '{"values": [[0, NaN], [1e400, 0]]}',
    '{"values": [[0, Infinity], [1e400, 0]]}',
    '{"values": [[' + "0, " * 5000 + '0]]}',
    "\ufeff{}",
    " \t[[0]]",
    '"values"',
    "",
    "{",
    "{}",
    '{"values" 1}',
    '{"values": }',
    "{1: 2}",
], ids=range(22))
def test_json_reader_matches_json_loads_on_edge_cases(text):
    assert outcome(rsm_from_json, text) == outcome(json_loads_rsm, text)


@pytest.mark.parametrize("text", [
    "0,1\n1,0\n",
    "0, 1\r\n1 ,0",
    "0,1\n1,0\nabc,1\n",
    "0,nan\n1,0,2\n",
    "0,1,2\n1,0\n",
    "\n\n",
    "0" + ",0" * 5000 + "\n",
    "0,1e400\n1,0\n",
    "0,\u0663\n1,0\n",
    "0,inf\n-inf,0\n",
    "0,1\f1,0\n",
    "0,1\u20281,0\n",
    "0,1\x851,0\n",
    "0, 1\n1,0\n",
    "0,\t1\n1 ,0\n",
    "0,inf\ninf,0\n",
    "0, +inf \n inf,0\n",
    "0,1e400\ninf,0\n",
    "0,-inf\ninf,0\n",
    "0,Inf\ninf,0\n",
    "0,infinity\ninf,0\n",
    "0,1inf\ninf,0\n",
    "0,infinf\ninf,0\n",
    "inf,1e400\ninf,0\n",
    "1e400,-inf\ninf,0\n",
], ids=range(25))
def test_csv_reader_matches_token_loop_on_edge_cases(text):
    assert outcome(rsm_from_csv, text) == outcome(token_loop_csv_rsm, text)


# The decoder itself refuses these two, so they stay out of the differential
# tests: ``int`` converts at most 4300 digits, and nesting is bounded by the
# recursion limit.

@pytest.mark.parametrize("text", [
    '{"values": [[0, {big}], [1, 0]]}',
    '{"values": [[0, -{big}], [1, 0]], "rsm": "sdf"}',
    '{"values": [[0], [{big}]]}',
    "[{big}]",
    '{"note": {big}, "values": [[0]]}',
], ids=["entry", "negative-entry", "ragged", "not-an-object", "other-key"])
def test_json_integer_over_the_digit_limit_reads_as_any_too_large_one(text):
    short, long = (text.replace("{big}", "9" * digits) for digits in (1000, 5000))
    assert outcome(rsm_from_json, long) == outcome(rsm_from_json, short)


@pytest.mark.parametrize("text", [
    "[" * 100_000,
    '{"values": [' + "[" * 100_000,
    '{"note": ' + "[" * 100_000 + "]" * 100_000 + ', "values": [[0]]}',
], ids=["not-an-object", "row", "other-key"])
def test_json_nested_too_deep_is_a_parse_error(text):
    with pytest.raises(ParseError, match="^bad matrix JSON: maximum recursion depth"):
        rsm_from_json(text)


# ---------------------------------------------------------------------------
# Memory
# ---------------------------------------------------------------------------

def _symmetric_with_gaps(n: int) -> RsmMatrix:
    """A bitwise-symmetric n x n matrix whose two vertex groups are +inf apart."""
    vals = np.triu(np.random.RandomState(0).random_sample((n, n)) * 10, 1)
    vals += vals.T
    k = n * 5 // 8
    vals[:k, k:] = vals[k:, :k] = np.inf
    return RsmMatrix(vals, "sdf")


def _peak_bytes(call, *args) -> int:
    tracemalloc.start()
    try:
        call(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# Measured at n = 400: the writers peaked at 3.4x (JSON) and 5.8x (CSV) the
# document when they mirrored the texts through an object array, 2.0x row by
# row. The readers peaked at 8 n^2 bytes plus 2.9x (JSON) and 3.1x (CSV) the
# text when they kept a Python float per entry, plus 0.16x and 1.04x now.

@pytest.mark.parametrize("write", [rsm_to_json, rsm_to_csv])
def test_writers_hold_little_beyond_the_document(write):
    m = _symmetric_with_gaps(400)
    doc = write(m)
    assert _peak_bytes(write, m) < 2.5 * len(doc)


@pytest.mark.parametrize("write, read, text_share", [
    (rsm_to_json, rsm_from_json, 1.0),
    (rsm_to_csv, rsm_from_csv, 2.0),
])
def test_readers_hold_the_array_and_no_entry_objects(write, read, text_share):
    m = _symmetric_with_gaps(400)
    doc = write(m)
    assert _peak_bytes(read, doc) < 8 * m.n ** 2 + text_share * len(doc)


@pytest.mark.parametrize("read, text", [
    (rsm_from_csv, "0" + ",0" * 19_999 + "\n"),
    (rsm_from_json, '{"values": [[0' + ", 0" * 19_999 + "]]}"),
], ids=["csv", "json"])
def test_a_wide_first_row_asks_for_no_more_memory_than_its_text(read, text):
    # one row of 20,000 entries cannot be square; its 3.2 GB matrix must not be allocated
    tracemalloc.start()
    try:
        with pytest.raises(DimensionMismatchError):
            read(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50 * len(text)
