"""Refinement of an RSM matrix and enumeration of maximal communities.

Thresholding an RSM at a community parameter epsilon keeps the vertex pairs
related in both directions at strength <= epsilon and forgets weights and
directions; the survivors form the effective edge graph. A community is any
vertex set inducing a complete subgraph there, so the maximal communities
are exactly the maximal cliques.
"""

from __future__ import annotations

import csv
import json
import logging
import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Iterable, Iterator, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, minimum_spanning_tree

from .errors import ThresholdError
from .rsm import RsmMatrix

log = logging.getLogger(__name__)

#: Default additive slack for the g <= epsilon comparisons.
REFINE_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class EffectiveEdgeGraph:
    """Undirected unweighted graph of vertex pairs surviving refinement.

    ``edges`` is a read-only (m, 2) intp array of distinct pairs, u < v in
    each row and rows strictly ascending, as ``refine`` gives them; the
    constructor refuses any other order and never sorts. epsilon and rsm_tag
    record which thresholding produced the graph.
    """

    vertex_count: int
    edges: np.ndarray
    epsilon: float
    rsm_tag: str

    def __post_init__(self):
        n = self.vertex_count
        if not isinstance(n, int) or n < 1:
            raise ValueError(f"vertex_count must be a positive integer, got {n!r}")
        pairs = np.asarray(self.edges)
        if pairs.ndim != 2 or pairs.shape[1] != 2 or pairs.dtype.kind not in "iu":
            raise ValueError(f"edges must be (m, 2) int pairs, not {pairs.shape} {pairs.dtype}")
        edges = pairs.astype(np.intp)
        u, v = edges.T
        bad = (u < 0) | (u >= v) | (v >= n)
        bad[1:] |= (u[1:] < u[:-1]) | ((u[1:] == u[:-1]) & (v[1:] <= v[:-1]))
        if bad.any():
            row = int(bad.argmax())
            raise ValueError(f"edges row {row}, {pairs[row].tolist()}, is not a pair "
                             f"0 <= u < v < {n} after the row before it")
        edges.setflags(write=False)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "epsilon", float(self.epsilon))
        object.__setattr__(self, "rsm_tag", str(self.rsm_tag))


@dataclass(frozen=True)
class Community:
    """A vertex set whose members are all pairwise related at the recorded epsilon."""

    members: frozenset[int]
    epsilon: float
    rsm_tag: str

    def __post_init__(self):
        members = frozenset(int(v) for v in self.members)
        if not members:
            raise ValueError("a community has at least one member")
        object.__setattr__(self, "members", members)


def threshold(epsilon: float, tol: float) -> float:
    """The strength bound epsilon + tol, after checking both terms and their sum."""
    epsilon, tol = float(epsilon), float(tol)
    for name, value in (("epsilon", epsilon), ("tol", tol)):
        if not (math.isfinite(value) and value >= 0):
            raise ThresholdError(f"{name} must be a finite number >= 0, got {value}")
    thr = epsilon + tol
    # an infinite threshold would relate +inf pairs across components
    if not math.isfinite(thr):
        raise ThresholdError(f"epsilon + tol must be finite, got {epsilon} + {tol}")
    return thr


def _related_pairs(m: RsmMatrix, thr: float) -> tuple[np.ndarray, np.ndarray]:
    """The pairs u < v with m[u, v] and m[v, u] both <= thr, as an (k, 2) array
    of ascending rows, and each pair's weaker strength, the larger of the two.

    Only the matrix's blocks are scanned: every pair outside them is +inf.
    """
    none = np.empty(0, dtype=np.intp)  # so that no blocks still give int pairs
    us, vs, strengths = [none], [none], [np.empty(0)]
    for vertices, vals in m.blocks:
        # a flat scan is far faster than a 2-D np.nonzero; keep each pair once, i < j
        rows, cols = np.divmod(np.flatnonzero(vals <= thr), len(vals))
        upper = rows < cols
        rows, cols = rows[upper], cols[upper]
        weaker = np.maximum(vals[rows, cols], vals[cols, rows])
        both = weaker <= thr
        us.append(vertices[rows[both]])
        vs.append(vertices[cols[both]])
        strengths.append(weaker[both])
    u, v, weaker = np.concatenate(us), np.concatenate(vs), np.concatenate(strengths)
    if len(m.blocks) > 1:
        # each u lies in one block, whose pairs come by u and then v ascending,
        # so a stable sort by u alone orders the rows
        order = np.argsort(u, kind="stable")
        u, v, weaker = u[order], v[order], weaker[order]
    return np.column_stack([u, v]), weaker


def refine(m: RsmMatrix, epsilon: float, tol: float = REFINE_TOL) -> EffectiveEdgeGraph:
    """Threshold an RSM matrix into its effective edge graph.

    Edge {u, v} survives iff m[u][v] <= epsilon + tol and m[v][u] <= epsilon
    + tol. +inf entries never pass, so cross-component pairs can never share
    a community.
    """
    edges, _ = _related_pairs(m, threshold(epsilon, tol))
    return EffectiveEdgeGraph(
        vertex_count=m.n, edges=edges, epsilon=epsilon, rsm_tag=m.source_rsm
    )


def _bits(s: int) -> Iterator[int]:
    """Indices of the set bits of s, ascending."""
    while s:
        low = s & -s
        yield low.bit_length() - 1
        s ^= low


def _maximal_cliques(adj: list[int], degrees: list[int]) -> list[int]:
    """Every maximal clique of the graph with neighbourhoods ``adj``, as bitsets.

    Bron-Kerbosch with Tomita's pivot (the vertex of P | X with the most
    neighbours in P), run on an explicit stack of (R, P, X) bitset triples
    so the depth is bounded by memory rather than the recursion limit.
    Both loops walk their bitset lowest bit first. ``degrees`` bound each
    vertex's neighbour count from above and must not rise in bit order, so
    the pivot scan stops at the first vertex whose bound is at most the best
    count so far: every later vertex could only tie, and a tie keeps the
    earlier pivot. A branch whose P is empty or one vertex is settled at once
    and never goes on the stack, so ``adj`` must not be empty.
    """
    out = []
    stack = [(0, (1 << len(adj)) - 1, 0)]
    while stack:
        r, p, x = stack.pop()
        # a pivot adjacent to all of P but itself leaves at most one branch
        enough = p.bit_count() - 1
        pivot, best = -1, -1
        s = p | x
        while s:
            low = s & -s
            s ^= low
            u = low.bit_length() - 1
            if degrees[u] <= best:
                break
            count = (p & adj[u]).bit_count()
            if count > best:
                pivot, best = u, count
                if count >= enough:
                    break
        s = p & ~adj[pivot]
        while s:
            bit = s & -s
            s ^= bit
            near = adj[bit.bit_length() - 1]
            left = p & near
            if left & (left - 1):
                stack.append((r | bit, left, x & near))
            elif left:  # the branch's P is one vertex w: R + v + w, unless X extends it
                if not x & near & adj[left.bit_length() - 1]:
                    out.append(r | bit | left)
            elif not x & near:  # a leaf: R + v is maximal when nothing in X extends it
                out.append(r | bit)
            p ^= bit
            x |= bit
    return out


def _component_bitsets(n: int, edges: np.ndarray) -> tuple[
        np.ndarray, np.ndarray, list[tuple[np.ndarray, list[int], list[int]]],
        np.ndarray, np.ndarray]:
    """Components of the graph on n vertices with ``edges``, packed for the clique search.

    Returns each vertex's component label and each component's size; for
    every component of 3 or more vertices, in label order, its vertices by
    descending degree, ties by index (the bit order ``_maximal_cliques``
    wants), each one's neighbourhood as a bitset in which bit i stands for
    vertices[i], and their degrees; and the positions in ``edges`` of the
    pairs inside those components, ascending, with each one's (component,
    bit, bit) as rows of an array. A component of 1 or 2 vertices is its own
    one maximal clique, so callers take those in bulk.
    """
    u, v = edges.T
    count, labels = connected_components(
        csr_matrix((np.ones(len(u), dtype=bool), (u, v)), shape=(n, n)), directed=False)
    sizes = np.bincount(labels, minlength=count)
    degrees = np.bincount(u, minlength=n) + np.bincount(v, minlength=n)
    large = sizes >= 3
    ks = sizes[large]
    ends = np.cumsum(ks)
    order = np.flatnonzero(large[labels])
    # lexsort is stable and order ascending, so equal degrees keep index order
    order = order[np.lexsort((-degrees[order], labels[order]))]
    bit = np.empty(n, dtype=np.intp)
    bit[order] = np.arange(len(order)) - np.repeat(ends - ks, ks)
    inside = np.flatnonzero(large[labels[u]])
    pairs = np.column_stack([(np.cumsum(large) - 1)[labels[u[inside]]],
                             bit[u[inside]], bit[v[inside]]])
    # one stable sort groups the pairs by component, and each component is
    # packed from its own k x k square, so memory is bounded by the largest
    grouped = np.split(pairs[np.argsort(pairs[:, 0], kind="stable"), 1:],
                       np.cumsum(np.bincount(pairs[:, 0], minlength=len(ks)))[:-1])
    components = []
    for k, vertices, (a, b) in zip(ks.tolist(), np.split(order, ends[:-1]),
                                   (g.T for g in grouped)):
        square = np.zeros((k, k), dtype=bool)
        square[a, b] = square[b, a] = True
        adj = [int.from_bytes(row.tobytes(), "little")
               for row in np.packbits(square, axis=1, bitorder="little")]
        components.append((vertices, adj, degrees[vertices].tolist()))
    return labels, sizes, components, inside, pairs


def enumerate_maximal_communities(eeg: EffectiveEdgeGraph) -> list[Community]:
    """All maximal communities of an effective edge graph.

    These are exactly the maximal cliques, found component by component by
    an iterative Bron-Kerbosch search with Tomita pivoting over int bitsets:
    R, P, X and every neighbourhood are bitsets as wide as the component, so
    each step is an AND and a popcount, and the search keeps its own stack,
    so graphs of any size and density take the same path. A component's bits
    run by descending degree, so the pivot scan can stop at the first vertex
    too sparse to beat the best pivot so far. Isolated vertices come out as
    singletons. Output is canonically ordered (members ascending,
    communities lexicographic) so runs and implementations can be compared
    as plain lists.
    """
    n, edges = eeg.vertex_count, eeg.edges
    labels, sizes, components, _, _ = _component_bitsets(n, edges)
    # components of 1 or 2 vertices are their own cliques: isolated vertices
    # and edges whose ends have no other neighbour, each row already u < v
    found = [(v,) for v in np.flatnonzero(sizes[labels] == 1).tolist()]
    found += map(tuple, edges[sizes[labels[edges[:, 0]]] == 2].tolist())
    for vertices, adj, bound in components:
        local = vertices.tolist()
        found += [tuple(sorted([local[i] for i in _bits(c)]))
                  for c in _maximal_cliques(adj, bound)]
    return [
        Community(members=frozenset(c), epsilon=eeg.epsilon, rsm_tag=eeg.rsm_tag)
        for c in sorted(found)
    ]


def _forest_merges(n: int, edges: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Where the pairs ``edges``, taken in order, join two components.

    Returns the positions of those pairs in ``edges``, ascending, and the
    largest component after each. They are the edges of one spanning forest:
    the minimum one when each pair weighs its position, which scipy finds.
    """
    u, v = edges.T
    rank = np.arange(1, len(u) + 1, dtype=float)  # weights of 0 would be no edge
    forest = minimum_spanning_tree(csr_matrix((rank, (u, v)), shape=(n, n))).tocoo()
    first = np.argsort(forest.data)
    # union-find over the forest's edges in order; each joins two trees
    parent, size = list(range(n)), [1] * n
    largest, best = [], 1
    for a, b in zip(forest.row[first].tolist(), forest.col[first].tolist()):
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        parent[b] = a
        size[a] += size[b]
        best = max(best, size[a])
        largest.append(best)
    return forest.data[first].astype(np.intp) - 1, largest


def count_maximal_communities(m: RsmMatrix, epsilons: Iterable[float],
                              tol: float = REFINE_TOL) -> list[int]:
    """Number of maximal communities at each epsilon, in the order given.

    Equals ``len(enumerate_maximal_communities(refine(m, e, tol)))`` for each
    e, and raises the same errors for a bad epsilon or tol. The matrix is
    scanned once, for refine's pairs at the largest threshold, which are
    sorted by their weaker strength, so each epsilon's edges are a prefix of
    that order. Components are labelled and their bitsets packed once, at
    the largest threshold. Walking the thresholds downwards, the bits of
    every pair above each threshold are cleared, and each component of 3 or
    more vertices is searched as it stands; it holds every smaller component
    it splits into at that epsilon, and the search finds them too. Cliques
    are counted, never materialised as communities, and the spanning forest
    behind each epsilon's DEBUG line is computed only when DEBUG is on.
    """
    epsilons = list(epsilons)
    thresholds = [threshold(e, tol) for e in epsilons]
    if not thresholds:
        return []
    edges, strength = _related_pairs(m, max(thresholds))
    order = np.argsort(strength, kind="stable")
    strength, edges = strength[order], edges[order]
    stops = np.searchsorted(strength, thresholds, side="right").tolist()

    _, sizes, components, inside, pairs = _component_bitsets(m.n, edges)
    adjs = [adj for _, adj, _ in components]  # cleared in place, pair by pair
    trivial = int(sizes[sizes < 3].sum())  # vertices outside large components
    found, done = {}, len(inside)
    for stop in sorted(set(stops), reverse=True):
        upto = int(np.searchsorted(inside, stop))
        for c, a, b in pairs[upto:done].tolist():
            adjs[c][a] ^= 1 << b
            adjs[c][b] ^= 1 << a
        # each pair of a 2-vertex component in the prefix joins its two singletons
        found[stop] = trivial - (stop - upto) + sum(
            len(_maximal_cliques(adj, bound)) for _, adj, bound in components)
        done = upto

    if log.isEnabledFor(logging.DEBUG):
        merged, largest = _forest_merges(m.n, edges)
        for epsilon, stop in zip(epsilons, stops):
            joins = int(np.searchsorted(merged, stop))
            log.debug(
                "epsilon %g: %d related pairs, %d components (largest %d), "
                "%d maximal communities", epsilon, stop, m.n - joins,
                largest[joins - 1] if joins else 1, found[stop],
            )
    return [found[stop] for stop in stops]


# ---------------------------------------------------------------------------
# Output formats
# ---------------------------------------------------------------------------

def _label_table(n: int, labels: Sequence[str] | None) -> list[str]:
    if labels is None:
        return [str(i) for i in range(n)]
    if len(labels) < n:
        raise ValueError(f"{len(labels)} label(s) for {n} vertices")
    return [str(s) for s in labels[:n]]


def _member_labels(communities: Sequence[Community], labels: Sequence[str] | None,
                   spell=str) -> list[list[str]]:
    """Member labels of each community, members ascending, each label spelled once by ``spell``."""
    if not communities:
        raise ValueError("no communities to serialize")
    table = _label_table(max(max(c.members) for c in communities) + 1, labels)
    table = list(map(spell, table))
    return [[table[v] for v in sorted(c.members)] for c in communities]


def communities_to_json(communities: Sequence[Community],
                        labels: Sequence[str] | None = None) -> str:
    """JSON document {"epsilon":, "rsm":, "communities": [[labels...], ...]}.

    The layout is exactly that of ``json.dumps(doc, indent=2)``, one label
    per line, built from each label quoted once by ``json.dumps``: with an
    indent, ``json`` falls back to its pure-Python encoder.
    """
    rows = _member_labels(communities, labels, json.dumps)
    body = "\n    ],\n    [\n      ".join(",\n      ".join(row) for row in rows)
    return ('{\n  "epsilon": ' + json.dumps(communities[0].epsilon)
            + ',\n  "rsm": ' + json.dumps(communities[0].rsm_tag)
            + ',\n  "communities": [\n    [\n      ' + body + "\n    ]\n  ]\n}\n")


def communities_to_csv(communities: Sequence[Community],
                       labels: Sequence[str] | None = None) -> str:
    """One line per community: comma-separated member labels, ascending.

    A label holding a comma, a quote or a line break is quoted as in RFC 4180.
    """
    # csv quotes a field holding a character of the terminator, so rows end
    # "\r\n" there and are cut back to "\n" here; writerow returns what write does
    writer = csv.writer(SimpleNamespace(write=lambda line: line), lineterminator="\r\n")
    return "".join(writer.writerow(row)[:-2] + "\n" for row in _member_labels(communities, labels))


_PALETTE = (
    "#e41a1c", "#377eb8", "#ffff33", "#4daf4a", "#984ea3", "#ff7f00",
    "#a65628", "#f781bf", "#999999", "#66c2a5", "#fc8d62", "#8da0cb",
)


def communities_to_dot(eeg: EffectiveEdgeGraph, communities: Sequence[Community],
                       labels: Sequence[str] | None = None) -> str:
    """Graphviz rendering with nodes colored by community membership.

    Community i gets palette color i (cycling); a vertex in several maximal
    communities is drawn wedged with one color per membership.
    """
    table = _label_table(eeg.vertex_count, labels)

    def quoted(s: str) -> str:
        return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'

    colors_of: list[list[str]] = [[] for _ in range(eeg.vertex_count)]
    for i, c in enumerate(communities):
        for v in c.members:
            colors_of[v].append(_PALETTE[i % len(_PALETTE)])

    lines = ["graph communities {", "  node [style=filled];"]
    for v in range(eeg.vertex_count):
        colors = colors_of[v]
        if not colors:
            attrs = 'fillcolor="white"'
        elif len(colors) == 1:
            attrs = f'fillcolor="{colors[0]}"'
        else:
            attrs = f'fillcolor="{":".join(colors)}" style=wedged'
        lines.append(f"  {quoted(table[v])} [{attrs}];")
    for u, v in eeg.edges.tolist():
        lines.append(f"  {quoted(table[u])} -- {quoted(table[v])};")
    lines.append("}")
    return "\n".join(lines) + "\n"
