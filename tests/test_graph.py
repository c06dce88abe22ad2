"""Edge-list parsing, graph invariants, components, serialization."""

import logging
import math
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import numpy as np

from rsmc import (
    DuplicateEdgeError,
    Graph,
    LabelError,
    ParseError,
    WeightError,
    parse_edge_list,
    serialize_edge_list,
)
from rsmc.graph import connected_components, unreachable

from graphgen import random_graph
from oracles import bfs_components, loop_graph_edges, reachable_sets, scale_weights


def test_parse_basic_two_edges():
    g = parse_edge_list("a\tb\t2.5\nb\tc", directed=False)
    assert g.vertex_count == 3
    assert g.edges == ((0, 1, 2.5), (1, 2, 1.0))
    assert g.labels == ("a", "b", "c")
    assert not g.directed


def test_parse_self_loop_dropped_with_count(caplog):
    with caplog.at_level(logging.WARNING, logger="rsmc.graph"):
        g = parse_edge_list("a\ta\t1.0\nb\tb\nb\tc", directed=False)
    assert g.vertex_count == 3
    assert g.edges == ((1, 2, 1.0),)
    assert [(r.name, r.levelno, r.getMessage()) for r in caplog.records] == [
        ("rsmc.graph", logging.WARNING, "dropped 2 self-loop(s) while parsing")]


def test_parse_negative_weight():
    with pytest.raises(WeightError):
        parse_edge_list("a\tb\t-1", directed=False)


def test_parse_zero_weight_rejected():
    with pytest.raises(WeightError):
        parse_edge_list("a\tb\t0", directed=False)


def test_parse_duplicate_edge():
    with pytest.raises(DuplicateEdgeError):
        parse_edge_list("a\tb\na\tb\t3", directed=False)


def test_parse_reversed_duplicate_undirected_only():
    with pytest.raises(DuplicateEdgeError):
        parse_edge_list("a\tb\nb\ta", directed=False)
    g = parse_edge_list("a\tb\nb\ta", directed=True)
    assert len(g.edges) == 2


def test_parse_comments_blanks_and_line_numbers():
    g = parse_edge_list("# header\n\na\tb\n", directed=False)
    assert len(g.edges) == 1
    with pytest.raises(ParseError) as exc:
        parse_edge_list("a\tb\nc\td\te\tf\n", directed=False)
    assert exc.value.line_number == 2


def test_parse_field_starting_with_hash_ends_the_line():
    # a comment may follow the fields; # inside a label is part of it
    g = parse_edge_list("a\tb\t1.0\t# note\nc\t#d\nx#y z # w\n#d\te\n", directed=False)
    assert g.labels == ("a", "b", "c", "x#y", "z")
    assert g.edges == ((0, 1, 1.0), (3, 4, 1.0))
    for text in ("a\tb\t1.0\t# note\n", "a\t#b\n", "a\t#b\n#b\tc\n", "a b #c d\n"):
        g = parse_edge_list(text, directed=False)
        assert parse_edge_list(serialize_edge_list(g), directed=False) == g
    isolated = parse_edge_list("a\t#b\n", directed=False)
    assert (isolated.labels, isolated.edges) == (("a",), ())


def test_parse_bad_weight_token():
    with pytest.raises(ParseError):
        parse_edge_list("a\tb\theavy", directed=False)
    with pytest.raises(ParseError):
        parse_edge_list("a\tb\tnan", directed=False)


def test_parse_empty_input():
    with pytest.raises(ParseError):
        parse_edge_list("# nothing here\n", directed=False)


def test_parse_isolated_vertex_declaration():
    g = parse_edge_list("a\nb\tc\n", directed=False)
    assert g.vertex_count == 3
    assert g.labels == ("a", "b", "c")
    assert len(g.edges) == 1


def test_parse_any_whitespace_run_separates_fields():
    g = parse_edge_list("1 2\n2 3\n", directed=False)
    assert g.vertex_count == 3
    assert len(g.edges) == 2
    mixed = parse_edge_list("a \t b\t  2.5\nb   c\n  d\t\n", directed=False)
    assert mixed.labels == ("a", "b", "c", "d")
    assert mixed.edges == ((0, 1, 2.5), (1, 2, 1.0))
    with pytest.raises(ParseError) as exc:
        parse_edge_list("a b\na b c d\n", directed=False)
    assert exc.value.line_number == 2


def test_parse_splits_only_at_line_ends_spaces_and_tabs():
    # str.splitlines and str.split would also break at a no-break space or a form feed
    g = parse_edge_list("a\u00a0b\n", directed=False)
    assert (g.labels, g.edges) == (("a\u00a0b",), ())
    with pytest.raises(ParseError, match="bad weight 'd'") as exc:
        parse_edge_list("a\tb\x0cc\td\n", directed=False)
    assert exc.value.line_number == 1
    g = parse_edge_list("a\tb\r\nb\u2028\tc\x85\rc\x85\td\x1c\n", directed=False)
    assert g.labels == ("a", "b", "b\u2028", "c\x85", "d\x1c")
    assert g.edges == ((0, 1, 1.0), (2, 3, 1.0), (3, 4, 1.0))
    with pytest.raises(ParseError) as exc:
        parse_edge_list("a\tb\rb\tc\r\nc\td\tx\n", directed=False)
    assert exc.value.line_number == 3
    for weight in ("1\x0c", "\x0b2", "3\x1f"):  # float would read each as a number
        with pytest.raises(ParseError, match=re.escape(repr(weight))):
            parse_edge_list(f"a\tb\t{weight}\n", directed=False)


def test_graph_rejects_bad_construction():
    with pytest.raises(ValueError):
        Graph(vertex_count=0, edges=(), directed=False)
    with pytest.raises(ValueError):
        Graph(vertex_count=2, edges=((0, 2, 1.0),), directed=False)
    with pytest.raises(ValueError):
        Graph(vertex_count=2, edges=((1, 1, 1.0),), directed=False)
    with pytest.raises(WeightError):
        Graph(vertex_count=2, edges=((0, 1, -2.0),), directed=False)
    with pytest.raises(WeightError):
        Graph(vertex_count=2, edges=((0, 1, float("inf")),), directed=False)
    with pytest.raises(DuplicateEdgeError):
        Graph(vertex_count=2, edges=((0, 1, 1.0), (1, 0, 2.0)), directed=False)
    with pytest.raises(ValueError, match=re.escape("got 1 labels for 2 vertices")):
        Graph(vertex_count=2, edges=(), directed=False, labels=("a",))


def test_graph_rejects_non_integral_vertex_index():
    for edges in (((0.5, 1, 1.0),), np.array([[0.0, 1.5, 1.0]])):
        with pytest.raises(ValueError, match=r"edge \(0\.\d, 1\.\d\).*not a whole number"):
            Graph(2, edges, False)
    with pytest.raises(ValueError, match="not a whole number"):
        Graph(3, ((0, 1, 1.0), (1, 2, 1.0), (-0.25, 1, 1.0)), True)


@pytest.mark.parametrize("edges", [
    [("0", "1", "1_0")],
    [("0", "1", "1")],
    [(0, 1, b"1")],
    [(0, 1, 2 + 3j)],
    np.array([(0, 1, 2 + 3j)]),  # numpy would keep the real part, with a warning
    [(0, 1, 1.0), (1, 2, "1"), (0, 7, 1.0)],  # refused before the later index out of range
], ids=["underscore", "string", "bytes", "complex", "complex-array", "before-later-error"])
def test_graph_refuses_string_and_complex_entries(edges):
    with pytest.raises(TypeError):
        Graph(3, edges, False)


def test_graph_refuses_an_earlier_bad_edge_before_a_string():
    with pytest.raises(ValueError, match="vertex index 5 out of range"):
        Graph(3, [(0, 1, 1.0), (0, 5, 1.0), (1, 2, "1")], False)


def test_graph_keeps_read_only_canonical_arrays():
    g = Graph(4, ((3, 1, 2.0), (0, 2, 0.5), (1, 0, 1.0)), False)
    assert g.edges == ((0, 1, 1.0), (0, 2, 0.5), (1, 3, 2.0))
    assert g.src.tolist() == [0, 0, 1] and g.dst.tolist() == [1, 2, 3]
    assert g.weights.tolist() == [1.0, 0.5, 2.0]
    with pytest.raises(ValueError):
        g.weights[0] = 5.0
    from_array = Graph(4, np.array([[1, 0, 1.0], [3, 1, 2.0], [2, 0, 0.5]]), False)
    assert from_array == g and hash(from_array) == hash(g)
    assert all(type(x) is t for e in from_array.edges for x, t in zip(e, (int, int, float)))
    assert Graph(2, np.empty((0, 3)), True).edges == ()


_BAD_INDICES = (-1, -3, 6, 2**53 + 1, 2**64, 10**400, math.nan, math.inf, -math.inf)
_BAD_WEIGHTS = (0.0, -0.0, -1.0, -1e-300, math.inf, -math.inf, math.nan)


@st.composite
def _edge_input(draw):
    """(n, edges, directed): mostly valid edges with a few duplicates, self-loops and bad values."""
    n = draw(st.integers(1, 6))
    directed = draw(st.booleans())
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                          .filter(lambda p: p[0] != p[1]), unique=True, max_size=10))
    edges = [(s, d, draw(st.floats(1e-3, 1e3))) for s, d in pairs]
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(["duplicate", "self-loop", "index", "weight"]))
        if not edges:
            break
        k = draw(st.integers(0, len(edges) - 1))
        s, d, w = edges[k]
        if kind == "duplicate":
            copy = (d, s) if draw(st.booleans()) else (s, d)
            edges.insert(draw(st.integers(0, len(edges))), (*copy, draw(st.floats(1e-3, 1e3))))
        elif kind == "self-loop":
            edges[k] = (s, s, w)
        elif kind == "index":
            bad = draw(st.sampled_from(_BAD_INDICES))
            edges[k] = (bad, d, w) if draw(st.booleans()) else (s, bad, w)
        else:
            edges[k] = (s, d, draw(st.sampled_from(_BAD_WEIGHTS)))
    form = draw(st.sampled_from(["tuple", "list", "array"]))
    if form == "array":
        try:
            return n, np.array(edges, dtype=float).reshape(-1, 3), directed
        except OverflowError:  # 10**400 has no float; keep the triples
            pass
    return n, (tuple(edges) if form == "tuple" else edges), directed


def _outcome(build):
    try:
        return "built", build()
    except Exception as exc:  # the type and message are what is compared
        return type(exc).__name__, str(exc)


@settings(max_examples=400, deadline=None)
@given(_edge_input())
# an edge floats cannot hold, after and before a duplicate
@example((3, ((0, 1, 1.0), (1, 0, 2.0), (10**400, 1, 1.0)), False))
@example((3, [(0, 1, 1.0), (2, 1, 1.0), (0, 1, 1.0), (1, 2)], True))
@example((3, ((0, 1, 1.0), (1, "x", 1.0), (1, 0, 1.0)), False))
def test_graph_validation_matches_edge_loop_oracle(case):
    n, edges, directed = case
    expected = _outcome(lambda: loop_graph_edges(n, edges, directed))
    assert _outcome(lambda: Graph(n, edges, directed).edges) == expected
    if expected[0] != "built":
        return
    g = Graph(n, edges, directed)
    for arr, dtype in ((g.src, np.intp), (g.dst, np.intp), (g.weights, np.float64)):
        assert arr.dtype == dtype and arr.shape == (len(g.edges),)
        assert not arr.flags.writeable
    assert tuple(zip(g.src.tolist(), g.dst.tolist(), g.weights.tolist())) == g.edges


def test_components_trivial_cases():
    assert connected_components(Graph(3, (), False)).component_count == 3
    path = Graph(3, ((0, 1, 1.0), (1, 2, 1.0)), False)
    assert connected_components(path).component_count == 1
    two = Graph(4, ((0, 1, 1.0), (2, 3, 1.0)), False)
    part = connected_components(two)
    assert part.component_count == 2
    assert part.assignment[0] == part.assignment[1]
    assert part.assignment[1] != part.assignment[2]
    assert part.assignment.tolist() == [0, 0, 1, 1]
    count, labels = part
    assert count == 2 and labels is part.assignment


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_components_ignore_direction(seed):
    rng = np.random.RandomState(seed)
    g = random_graph(rng, n_max=10, directed=True)
    flipped = Graph(
        vertex_count=g.vertex_count,
        edges=tuple((d, s, w) for s, d, w in g.edges),
        directed=True,
    )
    ours, theirs = connected_components(g).assignment, connected_components(flipped).assignment
    assert len(ours) == len(theirs) == g.vertex_count
    assert all(a == b for a, b in zip(ours, theirs))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10_000), st.booleans())
def test_components_match_bfs_oracle(seed, directed):
    # sparse, so most graphs have several components and isolated vertices
    rng = np.random.RandomState(seed)
    n = int(rng.randint(1, 30))
    p = rng.uniform(0, 3 / n)
    edges = tuple((i, j, 1.0) for i in range(n) for j in range(n)
                  if i != j and (directed or i < j) and rng.rand() < p)
    g = Graph(n, edges, directed)
    part = connected_components(g)
    assert (tuple(part.assignment.tolist()), part.component_count) == bfs_components(g)
    assert part.assignment.dtype.kind == "i" and part.assignment.shape == (n,)
    assert type(part.component_count) is int


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_component_count_equals_n_iff_edgeless(seed):
    rng = np.random.RandomState(seed)
    g = random_graph(rng, n_max=8)
    part = connected_components(g)
    assert (part.component_count == g.vertex_count) == (len(g.edges) == 0)


@st.composite
def _reach_graphs(draw):
    """A sparse random graph, a chain of directed cycles, or an edgeless graph."""
    kind = draw(st.sampled_from(["random", "cycles", "edgeless"]))
    if kind == "edgeless":
        return Graph(draw(st.integers(1, 6)), (), draw(st.booleans()))
    if kind == "random":
        n, directed = draw(st.integers(1, 12)), draw(st.booleans())
        pairs = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                             max_size=2 * n))
        pairs = {p if directed else tuple(sorted(p)) for p in pairs if p[0] != p[1]}
        return Graph(n, tuple((s, d, 1.0) for s, d in pairs), directed)
    # cycles of 1 to 4 vertices, each with one arc to the next, so the
    # condensation is a path whose far ends are several hops apart
    sizes = draw(st.lists(st.integers(1, 4), min_size=2, max_size=6))
    starts = np.cumsum([0] + sizes).tolist()
    arcs = {(a + k, a + (k + 1) % size) for a, size in zip(starts, sizes) if size > 1
            for k in range(size)}
    for i in range(len(sizes) - 1):
        arcs.add((starts[i] + draw(st.integers(0, sizes[i] - 1)),
                  starts[i + 1] + draw(st.integers(0, sizes[i + 1] - 1))))
    name = draw(st.permutations(range(starts[-1])))
    return Graph(starts[-1], tuple((name[s], name[d], 1.0) for s, d in arcs), True)


@settings(max_examples=300, deadline=None)
@given(_reach_graphs())
@example(Graph(1, (), False))
@example(Graph(1, (), True))
def test_unreachable_matches_bfs_oracle(g):
    n, reach = g.vertex_count, reachable_sets(g)
    mask = unreachable(g)
    assert mask.dtype == bool and mask.shape == (n, n)
    assert mask.tolist() == [[j not in reach[i] for j in range(n)] for i in range(n)]


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10_000), st.booleans())
def test_serialize_parse_round_trip(seed, directed):
    rng = np.random.RandomState(seed)
    g = random_graph(rng, n_max=10, directed=directed)
    assert parse_edge_list(serialize_edge_list(g), directed=directed) == g


def test_round_trip_keeps_isolated_vertices_and_labels():
    g = parse_edge_list("lonely\nx\ty\t0.25\n", directed=False)
    back = parse_edge_list(serialize_edge_list(g), directed=False)
    assert back == g
    assert back.labels == ("lonely", "x", "y")


def test_labels_holding_other_whitespace_round_trip():
    g = Graph(3, ((0, 1, 1.0), (1, 2, 2.0)), False, labels=("a\u00a0b", "c\u2028", "\x0cd"))
    assert parse_edge_list(serialize_edge_list(g), directed=False) == g


@pytest.mark.parametrize("labels, bad", [
    (("a b", "c"), "a b"),
    (("a\tb", "c"), "a\tb"),
    (("", "c"), ""),
    (("#a", "c"), "#a"),
    (("c", "a\rb"), "a\rb"),
    (("a", "a"), "a"),
    (("c", "a\nb"), "a\nb"),
])
def test_serialize_refuses_labels_that_do_not_round_trip(labels, bad):
    g = Graph(2, ((0, 1, 1.0),), False, labels=labels)
    with pytest.raises(LabelError, match=re.escape(repr(bad))):
        serialize_edge_list(g)


def test_scale_weights():
    g = Graph(3, ((0, 1, 2.0), (1, 2, 0.5)), False)
    doubled = scale_weights(g, 2.0)
    assert doubled.edges == ((0, 1, 4.0), (1, 2, 1.0))
    with pytest.raises(ValueError):
        scale_weights(g, 0.0)
    with pytest.raises(ValueError):
        scale_weights(g, float("nan"))
