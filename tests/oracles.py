"""Independently implemented reference results for the test suite.

Everything here recomputes production quantities by a different algorithm:
Floyd-Warshall instead of per-source Dijkstra, an eigendecomposition
pseudoinverse instead of the shifted-inverse identity, plain double loops
instead of vectorized table lookups and thresholding, an edge loop instead
of scattered Laplacian entries, vertex-by-vertex removal instead of
low-links, a breadth-first search instead of scipy's component labelling,
a loop over edges instead of array checks on a Graph's edges, a loop over
ordered pairs of separated groups instead of one block per group, a loop
over entries instead of masks for the other axiom checks, a breadth-first
search from every vertex instead of unweighted Dijkstra for reachability,
every vertex subset instead of a pivoted clique search, a triple loop over
Python floats instead of blocked array minima, and ``json.dumps`` instead of
string building. Deliberately slow and simple.

It also holds the reference checks that rsmc's pipeline never calls:
``brute_force_maximal_communities`` (every maximal community by exhaustive
subset search), ``is_community`` (completeness of one vertex set),
``scale_weights`` (a graph with every weight multiplied by alpha) and
``check_scaling`` (the alpha-scaling axiom over two matrices).
"""

from __future__ import annotations

import json
import math
from collections import deque
from itertools import combinations

import numpy as np

from rsmc import Community, DimensionMismatchError, Graph, Violation
from rsmc.rsm import AXIOM_TOL


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


def loop_sweep_counts(vals, epsilons, tol: float) -> list[int]:
    """Maximal-clique count of each epsilon's related pairs, over every vertex subset."""
    n = len(vals)
    counts = []
    for epsilon in epsilons:
        related = {tuple(pair) for pair in loop_refine_pairs(vals, epsilon, tol)}
        cliques = [set(c) for size in range(1, n + 1) for c in combinations(range(n), size)
                   if all(pair in related for pair in combinations(c, 2))]
        counts.append(sum(1 for c in cliques if not any(c < other for other in cliques)))
    return counts


def triangle_breaks_oracle(vals, tol: float) -> list[tuple[int, int, int, float]]:
    """(i, k, j, excess) for each finite entry above its shortest two-leg route plus tol.

    Rows in order, then columns; k is the first vertex of a shortest route.
    Python float sums overflow to +-inf without a warning.
    """
    rows = [[float(v) for v in row] for row in vals]
    n = len(rows)
    found = []
    for i in range(n):
        for j in range(n):
            best, via = math.inf, 0
            for k in range(n):
                leg = rows[i][k] + rows[k][j]
                if leg < best:
                    best, via = leg, k
            if math.isfinite(rows[i][j]) and not rows[i][j] <= best + tol:
                found.append((i, via, j, rows[i][j] - best))
    return found


class WeightError(Exception):
    """Raised by ``loop_graph_edges`` where rsmc raises its ``WeightError``."""


class DuplicateEdgeError(Exception):
    """Raised by ``loop_graph_edges`` where rsmc raises its ``DuplicateEdgeError``."""


def loop_graph_edges(n: int, edges, directed: bool) -> tuple:
    """The canonical edge tuple of a Graph, checked and canonicalised one edge at a time.

    This is the loop ``Graph.__post_init__`` once ran, kept as it was: the
    first bad edge raises ValueError, WeightError or DuplicateEdgeError (the
    two latter defined here, so tests compare exception names and messages).
    It truncates a vertex index that is not a whole number.
    """
    canonical = []
    seen = set()
    for src, dst, weight in edges:
        src, dst, weight = int(src), int(dst), float(weight)
        for v in (src, dst):
            if not 0 <= v < n:
                raise ValueError(f"vertex index {v} out of range")
        if src == dst:
            raise ValueError(f"self-loop on vertex {src} is not representable")
        if not math.isfinite(weight) or weight < 0:
            raise WeightError(f"edge ({src}, {dst}) has invalid weight {weight}")
        if weight == 0:
            raise WeightError(
                f"edge ({src}, {dst}) has weight 0; zero is reserved for self-relations"
            )
        if not directed and src > dst:
            src, dst = dst, src
        if (src, dst) in seen:
            raise DuplicateEdgeError(f"duplicate edge ({src}, {dst})")
        seen.add((src, dst))
        canonical.append((src, dst, weight))
    canonical.sort()
    return tuple(canonical)


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


def pairwise_cut_additivity(vals, g, tol: float) -> list:
    """Cut-additivity violations found one ordered pair of separated groups at a time.

    Groups come from ``brute_force_separations``; for each cut vertex w and
    each pair of its groups (a before b in group order, both ways round),
    every finite vals[a, b] farther than tol from vals[a, w] + vals[w, b]
    is a violation, row by row within the pair.
    """
    found = []
    for w, parts in brute_force_separations(g):
        for ai in range(len(parts)):
            for bi in range(len(parts)):
                if ai == bi:
                    continue
                a = np.asarray(parts[ai])
                b = np.asarray(parts[bi])
                direct = vals[np.ix_(a, b)]
                finite = np.isfinite(direct)
                with np.errstate(over="ignore", invalid="ignore"):
                    legs = vals[a, w][:, None] + vals[w, b][None, :]
                    dev = np.where(finite, np.abs(direct - legs), 0.0)
                bad = finite & ~(dev <= tol)
                for i, j in zip(*np.nonzero(bad)):
                    found.append(
                        Violation("cut-additivity", (int(a[i]), w, int(b[j])), float(dev[i, j]))
                    )
    return found


def reachable_sets(g) -> list[set[int]]:
    """For each vertex i, the vertices a breadth-first search from i reaches along the edges.

    An undirected graph's edges are walked both ways; a directed graph's only from src to dst.
    """
    out: list[set[int]] = [set() for _ in range(g.vertex_count)]
    for src, dst, _ in g.edges:
        out[src].add(dst)
        if not g.directed:
            out[dst].add(src)
    reach = []
    for start in range(g.vertex_count):
        seen = {start}
        queue = deque([start])
        while queue:
            for w in out[queue.popleft()]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        reach.append(seen)
    return reach


def loop_rsm_violations(vals, g, tol: float) -> dict[str, list]:
    """``validate_rsm``'s entrywise checks, one entry at a time over Python floats.

    Maps each kind that applies to its violations, row by row: "negative",
    "diagonal-nonzero", "offdiagonal-zero", "infinity-pattern" (only with a
    graph; +inf must sit exactly where ``reachable_sets`` misses j from i)
    and "asymmetry" (not on a directed graph; the gap of a pair with one
    +inf entry is +inf, and two +inf entries agree). The triangle and
    cut-additivity violations come from ``triangle_breaks_oracle`` and
    ``pairwise_cut_additivity``.
    """
    rows = [[float(v) for v in row] for row in vals]
    n = len(rows)
    found: dict[str, list] = {"negative": [], "diagonal-nonzero": [], "offdiagonal-zero": []}
    for i in range(n):
        for j in range(n):
            if rows[i][j] < -tol:
                found["negative"].append(Violation("negative", (i, j), rows[i][j]))
    for i in range(n):
        if not abs(rows[i][i]) <= tol:
            found["diagonal-nonzero"].append(Violation("diagonal-nonzero", (i,), rows[i][i]))
    for i in range(n):
        for j in range(n):
            if i != j and not rows[i][j] > tol:
                found["offdiagonal-zero"].append(Violation("offdiagonal-zero", (i, j), rows[i][j]))
    if g is not None:
        reach = reachable_sets(g)
        found["infinity-pattern"] = []
        for i in range(n):
            for j in range(n):
                if math.isinf(rows[i][j]) != (j not in reach[i]):
                    found["infinity-pattern"].append(
                        Violation("infinity-pattern", (i, j), rows[i][j]))
    if g is None or not g.directed:
        found["asymmetry"] = []
        for i in range(n):
            for j in range(i + 1, n):
                a, b = rows[i][j], rows[j][i]
                if math.isinf(a) and math.isinf(b):
                    continue
                gap = math.inf if math.isinf(a) or math.isinf(b) else abs(a - b)
                if not gap <= tol:
                    found["asymmetry"].append(Violation("asymmetry", (i, j), gap))
    return found


def loop_table_violations(names, vals) -> dict[str, list]:
    """A case table's entrywise checks, one entry at a time over Python floats.

    Maps "negative", "diagonal-nonzero", "offdiagonal-zero" (magnitude 0.0,
    whatever the sign of the zero) and "asymmetry" to their violations, row
    by row, each place named by its cases. The triangle violations come from
    ``triangle_breaks_oracle``.
    """
    rows = [[float(v) for v in row] for row in vals]
    n = len(rows)
    found: dict[str, list] = {
        "negative": [], "diagonal-nonzero": [], "offdiagonal-zero": [], "asymmetry": [],
    }
    for i in range(n):
        for j in range(n):
            if rows[i][j] < 0:
                found["negative"].append(Violation("negative", (names[i], names[j]), rows[i][j]))
    for i in range(n):
        if rows[i][i] != 0.0:
            found["diagonal-nonzero"].append(Violation("diagonal-nonzero", (names[i],), rows[i][i]))
    for i in range(n):
        for j in range(n):
            if i != j and rows[i][j] == 0.0:
                found["offdiagonal-zero"].append(
                    Violation("offdiagonal-zero", (names[i], names[j]), 0.0))
    for i in range(n):
        for j in range(i + 1, n):
            if rows[i][j] != rows[j][i]:
                found["asymmetry"].append(
                    Violation("asymmetry", (names[i], names[j]), abs(rows[i][j] - rows[j][i])))
    return found


def exact_violations(violations) -> list[tuple]:
    """Each violation as kind, places with their types, and the magnitude's type and bits."""
    return [(v.kind, tuple((type(x), x) for x in v.where), type(v.magnitude), v.magnitude.hex())
            for v in violations]


def json_dumps_rsm(m) -> str:
    """The matrix JSON document written entry by entry through ``json.dumps``."""
    values = [["inf" if math.isinf(v) else float(v) for v in row] for row in m.values]
    return json.dumps({"rsm": m.source_rsm, "values": values}, indent=2) + "\n"


def csv_join_rsm(m) -> str:
    """The matrix CSV written entry by entry, ``repr`` per float."""
    lines = [",".join("inf" if math.isinf(v) else repr(float(v)) for v in row)
             for row in m.values]
    return "\n".join(lines) + "\n"


class TooLargeError(Exception):
    """Raised by ``brute_force_maximal_communities`` above its size cap."""


class UnknownVertexError(Exception):
    """Raised by ``is_community`` for a vertex outside the graph."""


def is_community(members, eeg) -> bool:
    """True iff the induced subgraph on ``members`` is complete.

    The empty set and singletons count as communities.
    """
    ms = sorted({int(v) for v in members})
    for v in ms:
        if not 0 <= v < eeg.vertex_count:
            raise UnknownVertexError(f"vertex {v} not in graph of size {eeg.vertex_count}")
    pairs = set(map(tuple, eeg.edges.tolist()))
    return all(pair in pairs for pair in combinations(ms, 2))


def brute_force_maximal_communities(eeg) -> list[Community]:
    """Exhaustive-subset reference implementation of maximal-community search.

    Checks every nonempty vertex subset for completeness and keeps the ones
    no single vertex can extend (extension by one vertex is enough: adding v
    keeps a community a community iff v is adjacent to every member).
    Returns communities in the canonical order of
    ``enumerate_maximal_communities``; refuses graphs with more than 20 vertices.
    """
    n = eeg.vertex_count
    if n > 20:
        raise TooLargeError(f"exhaustive search over {n} vertices (limit 20)")
    adj_bits = [0] * n
    for u, v in eeg.edges.tolist():
        adj_bits[u] |= 1 << v
        adj_bits[v] |= 1 << u
    complete = np.zeros(1 << n, dtype=bool)
    complete[0] = True
    for s in range(1, 1 << n):
        v = (s & -s).bit_length() - 1
        rest = s & (s - 1)
        complete[s] = complete[rest] and (rest & ~adj_bits[v]) == 0
    found = []
    for s in range(1, 1 << n):
        if not complete[s]:
            continue
        extendable = any(
            not (s >> v) & 1 and (s & ~adj_bits[v]) == 0 for v in range(n)
        )
        if not extendable:
            found.append(tuple(v for v in range(n) if (s >> v) & 1))
    return [
        Community(members=frozenset(c), epsilon=eeg.epsilon, rsm_tag=eeg.rsm_tag)
        for c in sorted(found)
    ]


def scale_weights(g: Graph, alpha: float) -> Graph:
    """Return a copy of the graph with every weight multiplied by alpha > 0."""
    alpha = float(alpha)
    if not math.isfinite(alpha) or alpha <= 0:
        raise ValueError(f"alpha must be a positive finite real, got {alpha}")
    with np.errstate(over="ignore"):  # an overflowed weight is inf, which Graph rejects
        scaled = g.weights * alpha
    return Graph(vertex_count=g.vertex_count, edges=np.column_stack((g.src, g.dst, scaled)),
                 directed=g.directed, labels=g.labels)


def check_scaling(m, m_scaled, alpha: float, tol: float = AXIOM_TOL) -> bool:
    """True iff ``m_scaled`` equals ``alpha * m`` entrywise.

    Finite entries must agree within ``tol`` and the +inf patterns must be
    identical. ``m_scaled`` is expected to come from the same graph with all
    weights multiplied by ``alpha``.
    """
    alpha = float(alpha)
    if not (math.isfinite(alpha) and alpha > 0):
        raise ValueError(f"alpha must be a positive finite real, got {alpha}")
    if m.values.shape != m_scaled.values.shape:
        raise DimensionMismatchError(
            f"shape mismatch: {m.values.shape} vs {m_scaled.values.shape}"
        )
    inf_a = np.isinf(m.values)
    inf_b = np.isinf(m_scaled.values)
    if (inf_a != inf_b).any():
        return False
    finite = ~inf_a
    return bool(np.all(np.abs(m_scaled.values[finite] - alpha * m.values[finite]) <= tol))
