"""Independently implemented reference results for the test suite.

Everything here recomputes production quantities by a different algorithm:
Floyd-Warshall instead of per-source Dijkstra, an eigendecomposition
pseudoinverse instead of the shifted-inverse identity, plain double loops
instead of vectorized table lookups and thresholding, an edge loop instead
of scattered Laplacian entries, vertex-by-vertex removal instead of
low-links, a breadth-first search instead of scipy's component labelling,
and ``json.dumps`` instead of string building. Deliberately slow and simple.
"""

from __future__ import annotations

import json
import math
from collections import deque

import numpy as np


def floyd_warshall_distances(g) -> np.ndarray:
    """All-pairs shortest paths by the k-loop recurrence."""
    n = g.vertex_count
    dist = np.full((n, n), np.inf)
    np.fill_diagonal(dist, 0.0)
    for s, d, w in g.edges:
        dist[s, d] = min(dist[s, d], w)
        if not g.directed:
            dist[d, s] = min(dist[d, s], w)
    for k in range(n):
        dist = np.minimum(dist, dist[:, k][:, None] + dist[k, :][None, :])
    return dist


def edge_loop_laplacian(g) -> np.ndarray:
    """Weighted Laplacian accumulated one edge at a time, in edge order."""
    n = g.vertex_count
    lap = np.zeros((n, n))
    for s, d, w in g.edges:
        lap[s, s] += w
        lap[d, d] += w
        lap[s, d] -= w
        lap[d, s] -= w
    return lap


def eig_pseudoinverse(lap: np.ndarray, cutoff: float = 1e-10) -> np.ndarray:
    """Moore-Penrose pseudoinverse of a symmetric matrix via eigendecomposition.

    Eigenvalues at zero (relative to the spectral radius) are excluded from
    inversion rather than inverted into noise.
    """
    eigvals, eigvecs = np.linalg.eigh(lap)
    scale = max(1.0, float(np.abs(eigvals).max()))
    keep = np.abs(eigvals) > cutoff * scale
    inverted = np.zeros_like(eigvals)
    inverted[keep] = 1.0 / eigvals[keep]
    return (eigvecs * inverted) @ eigvecs.T


def resistance_matrix_oracle(g) -> np.ndarray:
    """Effective resistance for every vertex pair, +inf across components.

    Edge weights are resistances, so the Laplacian is assembled from
    conductances (1/weight). Uses its own adjacency/BFS plumbing and the
    eigendecomposition pseudoinverse, sharing no code with the production
    path.
    """
    n = g.vertex_count
    adj: list[list[int]] = [[] for _ in range(n)]
    for s, d, _ in g.edges:
        adj[s].append(d)
        adj[d].append(s)

    seen = [False] * n
    comps: list[list[int]] = []
    for start in range(n):
        if seen[start]:
            continue
        stack = [start]
        seen[start] = True
        comp = []
        while stack:
            u = stack.pop()
            comp.append(u)
            for nb in adj[u]:
                if not seen[nb]:
                    seen[nb] = True
                    stack.append(nb)
        comps.append(sorted(comp))

    out = np.full((n, n), np.inf)
    np.fill_diagonal(out, 0.0)
    for comp in comps:
        pos = {v: i for i, v in enumerate(comp)}
        k = len(comp)
        lap = np.zeros((k, k))
        for s, d, w in g.edges:
            if s in pos:
                a, b = pos[s], pos[d]
                c = 1.0 / w
                lap[a, a] += c
                lap[b, b] += c
                lap[a, b] -= c
                lap[b, a] -= c
        pinv = eig_pseudoinverse(lap)
        for i, u in enumerate(comp):
            for j, v in enumerate(comp):
                if u != v:
                    out[u, v] = pinv[i, i] + pinv[j, j] - 2.0 * pinv[i, j]
    return out


def combine_similarity_oracle(doc: dict) -> tuple[list[str], np.ndarray]:
    """Direct per-pair evaluation of the weighted similarity sum.

    Takes the raw JSON-shaped dict and loops over pairs and properties
    with plain Python arithmetic.
    """
    labels = list(doc["assignments"])
    props = doc["properties"]
    n = len(labels)
    out = np.zeros((n, n))
    for i, u in enumerate(labels):
        for j, v in enumerate(labels):
            total = 0.0
            for p_idx, prop in enumerate(props):
                cases = doc["cases"][prop]
                cu = cases.index(doc["assignments"][u][prop])
                cv = cases.index(doc["assignments"][v][prop])
                total += doc["weights"][p_idx] * doc["tables"][prop][cu][cv]
            out[i, j] = total
    return labels, out


def loop_refine_pairs(vals, epsilon: float, tol: float) -> list[list[int]]:
    """Pairs [i, j], i < j, with both directions <= epsilon + tol, by a double loop."""
    thr = epsilon + tol
    n = len(vals)
    return [[i, j] for i in range(n) for j in range(i + 1, n)
            if vals[i][j] <= thr and vals[j][i] <= thr]


def _adjacency_sets(g) -> list[set[int]]:
    """Neighbor sets of the underlying undirected graph."""
    adj: list[set[int]] = [set() for _ in range(g.vertex_count)]
    for src, dst, _ in g.edges:
        adj[src].add(dst)
        adj[dst].add(src)
    return adj


def bfs_components(g) -> tuple[tuple[int, ...], int]:
    """(component id per vertex, component count) by breadth-first search.

    Ids follow each component's smallest vertex, as in ``connected_components``.
    """
    adj = _adjacency_sets(g)
    assignment = [-1] * g.vertex_count
    count = 0
    for start in range(g.vertex_count):
        if assignment[start] != -1:
            continue
        queue = deque([start])
        assignment[start] = count
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if assignment[w] == -1:
                    assignment[w] = count
                    queue.append(w)
        count += 1
    return tuple(assignment), count


def brute_force_separations(g) -> list[tuple[int, list[list[int]]]]:
    """For every cut vertex w, the vertex groups its removal separates.

    Drops each vertex in turn and re-runs reachability inside its original
    component: O(n (n + m)), but obviously correct.
    """
    adj = _adjacency_sets(g)
    assignment, _ = bfs_components(g)
    out: list[tuple[int, list[list[int]]]] = []
    for w in range(g.vertex_count):
        comp = [v for v in range(g.vertex_count) if assignment[v] == assignment[w]]
        rest = [v for v in comp if v != w]
        if len(rest) < 2:
            continue
        unvisited = set(rest)
        parts: list[list[int]] = []
        while unvisited:
            start = min(unvisited)
            stack = [start]
            unvisited.discard(start)
            part = [start]
            while stack:
                u = stack.pop()
                for nb in adj[u]:
                    if nb in unvisited:
                        unvisited.discard(nb)
                        stack.append(nb)
                        part.append(nb)
            parts.append(sorted(part))
        if len(parts) > 1:
            out.append((w, parts))
    return out


def json_dumps_rsm(m) -> str:
    """The matrix JSON document written entry by entry through ``json.dumps``."""
    values = [["inf" if math.isinf(v) else float(v) for v in row] for row in m.values]
    return json.dumps({"rsm": m.source_rsm, "values": values}, indent=2) + "\n"


def csv_join_rsm(m) -> str:
    """The matrix CSV written entry by entry, ``repr`` per float."""
    lines = [",".join("inf" if math.isinf(v) else repr(float(v)) for v in row)
             for row in m.values]
    return "\n".join(lines) + "\n"
