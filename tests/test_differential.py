"""Differential tests of the RSM builders against networkx."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rsmc import Graph, erf_matrix, sdf_matrix

from graphgen import random_connected_graph, random_graph

nx = pytest.importorskip("networkx")


def _to_networkx(g: Graph):
    h = nx.DiGraph() if g.directed else nx.Graph()
    h.add_nodes_from(range(g.vertex_count))
    h.add_weighted_edges_from(g.edges)
    return h


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_erf_matches_networkx_resistance_distance(seed):
    g = random_connected_graph(np.random.RandomState(seed), n_max=12)
    r = erf_matrix(g).values
    if g.vertex_count == 1:
        assert r.tolist() == [[0.0]]
        return
    expected = nx.resistance_distance(_to_networkx(g), weight="weight", invert_weight=True)
    for i in range(g.vertex_count):
        for j in range(g.vertex_count):
            assert r[i, j] == pytest.approx(expected[i][j], rel=1e-9, abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.booleans())
def test_sdf_matches_networkx_shortest_path_length(seed, directed):
    g = random_graph(np.random.RandomState(seed), n_max=12, directed=directed)
    d = sdf_matrix(g).values
    lengths = dict(nx.shortest_path_length(_to_networkx(g), weight="weight"))
    for i in range(g.vertex_count):
        for j in range(g.vertex_count):
            want = lengths[i].get(j, math.inf)
            if math.isinf(want):
                assert math.isinf(d[i, j])
            else:
                assert d[i, j] == pytest.approx(want, rel=1e-12, abs=1e-12)
