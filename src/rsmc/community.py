"""Refinement of an RSM matrix and enumeration of maximal communities.

Thresholding an RSM at a community parameter epsilon keeps the vertex pairs
related in both directions at strength <= epsilon and forgets weights and
directions; the survivors form the effective edge graph. A community is any
vertex set inducing a complete subgraph there, so the maximal communities
are exactly the maximal cliques.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .errors import (
    NegativeEpsilonError,
    ThresholdError,
    TooLargeError,
    UnknownVertexError,
)
from .rsm import RsmMatrix

log = logging.getLogger(__name__)

#: Default additive slack for the g <= epsilon comparisons.
REFINE_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class EffectiveEdgeGraph:
    """Undirected unweighted graph of vertex pairs surviving refinement.

    ``edges`` is a read-only (m, 2) intp array of distinct pairs, u < v in
    each row and rows ascending; it may be given as any iterable of pairs.
    epsilon and rsm_tag record which thresholding produced the graph.
    """

    vertex_count: int
    edges: np.ndarray
    epsilon: float
    rsm_tag: str

    def __post_init__(self):
        n = self.vertex_count
        if not isinstance(n, int) or n < 1:
            raise ValueError(f"vertex_count must be a positive integer, got {n!r}")
        pairs = self.edges
        if not isinstance(pairs, np.ndarray):
            pairs = np.array(list(pairs) or np.empty((0, 2), dtype=np.intp))
        if pairs.ndim != 2 or pairs.shape[1] != 2 or pairs.dtype.kind not in "iu":
            raise ValueError(f"edges must be (m, 2) int pairs, not {pairs.shape} {pairs.dtype}")
        lo, hi = np.sort(pairs.astype(np.intp), axis=1).T
        bad = (lo < 0) | (hi >= n) | (lo == hi)
        if bad.any():
            raise ValueError(f"edge {pairs[bad][0].tolist()} is a self-pair or outside range({n})")
        keys = np.unique(lo * n + hi)
        edges = np.column_stack(np.divmod(keys, n))
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


def _threshold(epsilon: float, tol: float) -> float:
    """The strength bound epsilon + tol, after checking both terms and their sum."""
    epsilon = float(epsilon)
    if math.isnan(epsilon) or epsilon < 0:
        raise NegativeEpsilonError(f"epsilon must be >= 0, got {epsilon}")
    tol = float(tol)
    if not (math.isfinite(tol) and tol >= 0):
        raise ThresholdError(f"tol must be a nonnegative finite real, got {tol}")
    thr = epsilon + tol
    # an infinite threshold would relate +inf pairs across components
    if not math.isfinite(thr):
        raise ThresholdError(f"epsilon + tol must be finite, got {epsilon} + {tol}")
    return thr


def _related_pairs(vals: np.ndarray, thr: float) -> tuple[np.ndarray, np.ndarray]:
    """Rows and columns of the pairs i < j with vals[i, j] <= thr, in row-major order."""
    # a flat scan is far faster than a 2-D np.nonzero; keep each pair once, i < j
    rows, cols = np.divmod(np.flatnonzero(vals <= thr), len(vals))
    upper = rows < cols
    return rows[upper], cols[upper]


def refine(m: RsmMatrix, epsilon: float, tol: float = REFINE_TOL) -> EffectiveEdgeGraph:
    """Threshold an RSM matrix into its effective edge graph.

    Edge {u, v} survives iff m[u][v] <= epsilon + tol and m[v][u] <= epsilon
    + tol. +inf entries never pass, so cross-component pairs can never share
    a community.
    """
    thr = _threshold(epsilon, tol)
    vals = m.values
    rows, cols = _related_pairs(vals, thr)
    both = vals[cols, rows] <= thr
    edges = np.column_stack([rows[both], cols[both]])
    return EffectiveEdgeGraph(
        vertex_count=m.n, edges=edges, epsilon=epsilon, rsm_tag=m.source_rsm
    )


def is_community(members: Iterable[int], eeg: EffectiveEdgeGraph) -> bool:
    """True iff the induced subgraph on ``members`` is complete.

    The empty set and singletons count as communities.
    """
    ms = sorted({int(v) for v in members})
    for v in ms:
        if not 0 <= v < eeg.vertex_count:
            raise UnknownVertexError(f"vertex {v} not in graph of size {eeg.vertex_count}")
    pairs = set(map(tuple, eeg.edges.tolist()))
    return all(pair in pairs for pair in combinations(ms, 2))


def _bits(s: int) -> Iterator[int]:
    """Indices of the set bits of s, ascending."""
    while s:
        low = s & -s
        yield low.bit_length() - 1
        s ^= low


def _maximal_cliques(adj: list[int]) -> list[int]:
    """Every maximal clique of the graph with neighbourhoods ``adj``, as bitsets.

    Bron-Kerbosch with Tomita's pivot (the vertex of P | X with the most
    neighbours in P), run on an explicit stack of (R, P, X) bitset triples
    so the depth is bounded by memory rather than the recursion limit.
    Both loops walk their bitset lowest bit first. A branch whose P is empty
    is a leaf and never goes on the stack, so ``adj`` must not be empty.
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
            if p & near:
                stack.append((r | bit, p & near, x & near))
            elif not x & near:  # a leaf: R + v is maximal when nothing in X extends it
                out.append(r | bit)
            p ^= bit
            x |= bit
    return out


def _component_cliques(n: int, edges: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray, list[tuple[np.ndarray, list[int]]]]:
    """Components of the graph on n vertices with ``edges``, and the cliques of the large ones.

    Returns each vertex's component label, each component's size, and for
    every component of 3 or more vertices its vertices ascending with its
    maximal cliques as bitsets in which bit i stands for vertices[i]. A
    component of 1 or 2 vertices is its own one maximal clique, so callers
    take those in bulk and only the larger ones are searched, each with
    bitsets only as wide as itself.
    """
    u, v = edges.T
    count, labels = connected_components(
        csr_matrix((np.ones(len(u), dtype=bool), (u, v)), shape=(n, n)), directed=False)
    sizes = np.bincount(labels, minlength=count)
    large = sizes >= 3
    if not large.any():
        return labels, sizes, []
    # the vertices of the large components, one component after another,
    # each ascending; their permuted adjacency is block diagonal, so each
    # component's rows are one run and its neighbourhoods one run of bits
    order = np.flatnonzero(large[labels])
    order = order[np.argsort(labels[order], kind="stable")]
    position = np.empty(n, dtype=np.intp)
    position[order] = np.arange(len(order))
    inside = large[labels[u]]
    pu, pv = position[u[inside]], position[v[inside]]
    dense = np.zeros((len(order), len(order)), dtype=bool)
    dense[pu, pv] = True
    dense[pv, pu] = True
    packed = np.packbits(dense, axis=1, bitorder="little")
    searched = []
    start = 0
    for k in sizes[large].tolist():
        # only the bytes holding this component's run of bits
        rows = packed[start:start + k, start >> 3:(start + k + 7) >> 3]
        shift, mask = start & 7, (1 << k) - 1
        searched.append((order[start:start + k], _maximal_cliques(
            [(int.from_bytes(row.tobytes(), "little") >> shift) & mask for row in rows])))
        start += k
    return labels, sizes, searched


def _canonical(cliques: Iterable[tuple[int, ...]], eeg: EffectiveEdgeGraph) -> list[Community]:
    """Communities from cliques given as ascending member tuples, in lexicographic order."""
    return [
        Community(members=frozenset(c), epsilon=eeg.epsilon, rsm_tag=eeg.rsm_tag)
        for c in sorted(cliques)
    ]


def enumerate_maximal_communities(eeg: EffectiveEdgeGraph) -> list[Community]:
    """All maximal communities of an effective edge graph.

    These are exactly the maximal cliques, found component by component by
    an iterative Bron-Kerbosch search with Tomita pivoting over int bitsets:
    R, P, X and every neighbourhood are bitsets as wide as the component, so
    each step is an AND and a popcount, and the search keeps its own stack,
    so graphs of any size and density take the same path. Isolated vertices
    come out as singletons. Output is canonically ordered (members
    ascending, communities lexicographic) so runs and implementations can be
    compared as plain lists.
    """
    n, edges = eeg.vertex_count, eeg.edges
    labels, sizes, searched = _component_cliques(n, edges)
    # components of 1 or 2 vertices are their own cliques: isolated vertices
    # and edges whose ends have no other neighbour, each row already u < v
    found = [(v,) for v in np.flatnonzero(sizes[labels] == 1).tolist()]
    found += map(tuple, edges[sizes[labels[edges[:, 0]]] == 2].tolist())
    for vertices, cliques in searched:
        local = vertices.tolist()
        found += [tuple(local[i] for i in _bits(c)) for c in cliques]
    return _canonical(found, eeg)


def count_maximal_communities(m: RsmMatrix, epsilons: Iterable[float],
                              tol: float = REFINE_TOL) -> list[int]:
    """Number of maximal communities at each epsilon, in the order given.

    Equals ``len(enumerate_maximal_communities(refine(m, e, tol)))`` for each
    e, and raises the same errors for a bad epsilon or tol. The matrix is
    scanned once: every pair related at the largest threshold is keyed by
    its weaker direction and the keys are sorted, so each epsilon's edges
    are a prefix of that order. Cliques are counted, never materialised as
    communities.
    """
    epsilons = list(epsilons)
    thresholds = [_threshold(e, tol) for e in epsilons]
    if not thresholds:
        return []
    vals = m.values
    top = max(thresholds)
    rows, cols = _related_pairs(vals, top)
    # a pair whose weaker direction exceeds top sorts after every prefix
    key = np.maximum(vals[rows, cols], vals[cols, rows])
    order = np.argsort(key, kind="stable")
    key = key[order]
    edges = np.column_stack([rows[order], cols[order]])
    counts = []
    for epsilon, thr in zip(epsilons, thresholds):
        # key <= thr compares the same floats refine compares, so the prefix
        # holds exactly the pairs refine keeps
        stop = int(np.searchsorted(key, thr, side="right"))
        _, sizes, searched = _component_cliques(m.n, edges[:stop])
        # a component of 1 or 2 vertices is one clique; only larger ones were searched
        found = int(np.count_nonzero(sizes <= 2)) + sum(len(c) for _, c in searched)
        log.debug(
            "epsilon %g: %d related pairs, %d components (largest %d), "
            "%d maximal communities", epsilon, stop, len(sizes), sizes.max(), found,
        )
        counts.append(found)
    return counts


def brute_force_maximal_communities(eeg: EffectiveEdgeGraph) -> list[Community]:
    """Exhaustive-subset reference implementation of maximal-community search.

    Checks every nonempty vertex subset for completeness and keeps the ones
    no single vertex can extend (extension by one vertex is enough: adding v
    keeps a community a community iff v is adjacent to every member).
    Intended as a test oracle; refuses graphs with more than 20 vertices.
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
            found.append(tuple(_bits(s)))
    return _canonical(found, eeg)


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
    """One line per community: comma-separated member labels, ascending."""
    return "".join(",".join(row) + "\n" for row in _member_labels(communities, labels))


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
