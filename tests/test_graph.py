"""Edge-list parsing, graph invariants, components, serialization."""

import re

import pytest
from hypothesis import given, settings
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
from rsmc.graph import connected_components, scale_weights

from graphgen import random_graph
from oracles import bfs_components


def test_parse_basic_two_edges():
    g = parse_edge_list("a\tb\t2.5\nb\tc", directed=False)
    assert g.vertex_count == 3
    assert g.edges == ((0, 1, 2.5), (1, 2, 1.0))
    assert g.labels == ("a", "b", "c")
    assert not g.directed


def test_parse_self_loop_dropped_with_count():
    g = parse_edge_list("a\ta\t1.0", directed=False)
    assert g.vertex_count == 1
    assert g.edges == ()
    assert g.self_loops_dropped == 1


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


def test_components_trivial_cases():
    assert connected_components(Graph(3, (), False)).component_count == 3
    path = Graph(3, ((0, 1, 1.0), (1, 2, 1.0)), False)
    assert connected_components(path).component_count == 1
    two = Graph(4, ((0, 1, 1.0), (2, 3, 1.0)), False)
    part = connected_components(two)
    assert part.component_count == 2
    assert part.same_component(0, 1)
    assert not part.same_component(1, 2)
    assert part.components() == [[0, 1], [2, 3]]


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
    assert connected_components(g).assignment == connected_components(flipped).assignment


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
    assert (part.assignment, part.component_count) == bfs_components(g)
    assert all(type(c) is int for c in part.assignment)
    assert type(part.component_count) is int


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_component_count_equals_n_iff_edgeless(seed):
    rng = np.random.RandomState(seed)
    g = random_graph(rng, n_max=8)
    part = connected_components(g)
    assert (part.component_count == g.vertex_count) == (len(g.edges) == 0)


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


@pytest.mark.parametrize("labels, bad", [
    (("a b", "c"), "a b"),
    (("a\tb", "c"), "a\tb"),
    (("", "c"), ""),
    (("#a", "c"), "#a"),
    (("c", "a\u2028"), "a\u2028"),
    (("a", "a"), "a"),
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
