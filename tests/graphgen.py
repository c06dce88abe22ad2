"""Seeded random graph generators for the test corpus.

Every generator is a pure function of the passed RandomState, so a fixed
seed reproduces the exact corpus.
"""

from __future__ import annotations

import numpy as np

from rsmc import EffectiveEdgeGraph, Graph


def _weight(rng: np.random.RandomState, lo: float = 0.1, hi: float = 10.0) -> float:
    return float(rng.uniform(lo, hi))


def random_graph(rng: np.random.RandomState, n_max: int = 12,
                 directed: bool = False, unit_weights: bool = False) -> Graph:
    """Random graph, any connectivity, 1..n_max vertices."""
    n = int(rng.randint(1, n_max + 1))
    p = float(rng.uniform(0.1, 0.9))
    edges = []
    for i in range(n):
        for j in range(n):
            if i == j or (not directed and j <= i):
                continue
            if rng.rand() < p:
                edges.append((i, j, 1.0 if unit_weights else _weight(rng)))
    return Graph(vertex_count=n, edges=tuple(edges), directed=directed)


def random_connected_graph(rng: np.random.RandomState, n_max: int = 12,
                           unit_weights: bool = False, extra_p: float = 0.3) -> Graph:
    """Random spanning tree plus extra edges; always one component."""
    n = int(rng.randint(1, n_max + 1))
    present = set()
    order = rng.permutation(n)
    for idx in range(1, n):
        v = int(order[idx])
        u = int(order[rng.randint(0, idx)])
        present.add((min(u, v), max(u, v)))
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) not in present and rng.rand() < extra_p:
                present.add((i, j))
    edges = tuple(
        (u, v, 1.0 if unit_weights else _weight(rng)) for u, v in sorted(present)
    )
    return Graph(vertex_count=n, edges=edges, directed=False)


def random_tree(rng: np.random.RandomState, n_max: int = 12) -> Graph:
    return random_connected_graph(rng, n_max=n_max, extra_p=0.0)


def barbell(rng: np.random.RandomState, side_max: int = 6):
    """Two random connected graphs sharing exactly one vertex.

    Returns (graph, cut_vertex, left_vertices, right_vertices) where left
    and right exclude the shared vertex. Every left-right path passes
    through the cut vertex.
    """
    left = random_connected_graph(rng, n_max=side_max)
    right = random_connected_graph(rng, n_max=side_max)
    na = left.vertex_count
    offset = na - 1
    edges = list(left.edges)
    for s, d, w in right.edges:
        edges.append((s + offset, d + offset, w))
    n = na + right.vertex_count - 1
    g = Graph(vertex_count=n, edges=tuple(edges), directed=False)
    cut = offset
    return g, cut, list(range(na - 1)), list(range(na, n))


def path_graph(n: int, weight: float = 1.0) -> Graph:
    return Graph(
        vertex_count=n,
        edges=tuple((i, i + 1, weight) for i in range(n - 1)),
        directed=False,
    )


def cycle_graph(n: int, weight: float = 1.0) -> Graph:
    edges = [(i, i + 1, weight) for i in range(n - 1)] + [(0, n - 1, weight)]
    return Graph(vertex_count=n, edges=tuple(edges), directed=False)


def complete_graph(n: int, weight: float = 1.0) -> Graph:
    edges = tuple(
        (i, j, weight) for i in range(n) for j in range(i + 1, n)
    )
    return Graph(vertex_count=n, edges=edges, directed=False)


def random_eeg(rng: np.random.RandomState, n_max: int = 15) -> EffectiveEdgeGraph:
    """Random effective edge graph for community enumeration tests."""
    n = int(rng.randint(1, n_max + 1))
    p = float(rng.uniform(0.0, 1.0))
    edges = {
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if rng.rand() < p
    }
    # pairs as refine gives them: u < v, rows strictly ascending
    pairs = np.array(sorted(edges), dtype=np.intp).reshape(-1, 2)
    return EffectiveEdgeGraph(vertex_count=n, edges=pairs, epsilon=1.0, rsm_tag="external")


def edge_set(eeg: EffectiveEdgeGraph) -> set[tuple[int, int]]:
    """The edges of an effective edge graph as a set of (u, v) tuples."""
    return set(map(tuple, eeg.edges.tolist()))
