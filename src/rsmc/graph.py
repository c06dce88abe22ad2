"""Graph representation, edge-list parsing, and structural queries.

Vertices are dense 0-based indices; original string labels live in a side
table so matrix code can index arrays directly.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components as csgraph_components

from .errors import DuplicateEdgeError, LabelError, ParseError, WeightError

log = logging.getLogger(__name__)

Edge = tuple[int, int, float]


@dataclass(frozen=True)
class Graph:
    """Immutable weighted graph without multi-edges or self-loops.

    Edge weights are strictly positive finite reals (weight zero is reserved
    for a vertex's relation to itself and never appears on an edge). For an
    undirected graph every edge is stored canonically as (min, max); the edge
    tuple is kept sorted so equal graphs compare equal regardless of the
    order edges were supplied in.
    """

    vertex_count: int
    edges: tuple[Edge, ...]
    directed: bool
    labels: tuple[str, ...] | None = None
    self_loops_dropped: int = field(default=0, compare=False)

    def __post_init__(self):
        if not isinstance(self.vertex_count, int) or self.vertex_count < 1:
            raise ValueError("vertex_count must be a positive integer")
        if self.labels is None:
            labels = tuple(str(v) for v in range(self.vertex_count))
        else:
            labels = tuple(str(x) for x in self.labels)
            if len(labels) != self.vertex_count:
                raise ValueError(
                    f"got {len(labels)} labels for {self.vertex_count} vertices"
                )
        object.__setattr__(self, "labels", labels)

        canonical: list[Edge] = []
        seen: set[tuple[int, int]] = set()
        for src, dst, weight in self.edges:
            src, dst, weight = int(src), int(dst), float(weight)
            for v in (src, dst):
                if not 0 <= v < self.vertex_count:
                    raise ValueError(f"vertex index {v} out of range")
            if src == dst:
                raise ValueError(f"self-loop on vertex {src} is not representable")
            if not math.isfinite(weight) or weight < 0:
                raise WeightError(f"edge ({src}, {dst}) has invalid weight {weight}")
            if weight == 0:
                raise WeightError(
                    f"edge ({src}, {dst}) has weight 0; zero is reserved for self-relations"
                )
            if not self.directed and src > dst:
                src, dst = dst, src
            if (src, dst) in seen:
                raise DuplicateEdgeError(f"duplicate edge ({src}, {dst})")
            seen.add((src, dst))
            canonical.append((src, dst, weight))
        canonical.sort()
        object.__setattr__(self, "edges", tuple(canonical))


@dataclass(frozen=True)
class ComponentPartition:
    """Partition of vertices by undirected reachability."""

    assignment: tuple[int, ...]
    component_count: int

    def same_component(self, u: int, v: int) -> bool:
        return self.assignment[u] == self.assignment[v]

    def components(self) -> list[list[int]]:
        """Vertex lists per component id, each sorted ascending."""
        groups: list[list[int]] = [[] for _ in range(self.component_count)]
        for v, cid in enumerate(self.assignment):
            groups[cid].append(v)
        return groups


def edge_arrays(g: Graph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Source indices, destination indices and weights of the edges, in edge order."""
    edges = np.array(g.edges, dtype=float).reshape(-1, 3)
    return edges[:, 0].astype(np.intp), edges[:, 1].astype(np.intp), edges[:, 2]


def edge_csr(g: Graph) -> csr_matrix:
    """The weighted adjacency matrix, one stored entry per edge as (src, dst)."""
    src, dst, w = edge_arrays(g)
    return csr_matrix((w, (src, dst)), shape=(g.vertex_count, g.vertex_count))


def connected_components(g: Graph) -> ComponentPartition:
    """Partition vertices by undirected reachability.

    Component ids are assigned in order of each component's smallest vertex,
    so the result is deterministic and invariant under edge-direction
    reversal.
    """
    count, labels = csgraph_components(edge_csr(g), directed=False)
    return ComponentPartition(assignment=tuple(labels.tolist()), component_count=count)


def parse_edge_list(text: str, directed: bool = False) -> Graph:
    """Parse a whitespace-separated edge list into a Graph.

    Each line is either ``src<TAB>dst[<TAB>weight]`` (any run of spaces/tabs
    separates fields; weight defaults to 1.0) or a single token declaring an
    isolated vertex. Lines starting with ``#`` and blank lines are skipped.
    Vertex indices are assigned by order of first appearance; the original
    tokens are kept as labels.

    Self-loops are dropped (counted in ``self_loops_dropped``); a repeated
    ordered pair raises DuplicateEdgeError, a negative or zero weight raises
    WeightError, and anything else malformed raises ParseError carrying the
    line number.
    """
    index_of: dict[str, int] = {}
    order: list[str] = []
    edges: list[Edge] = []
    seen_pairs: set[tuple[int, int]] = set()
    dropped = 0

    def intern(token: str) -> int:
        if token not in index_of:
            index_of[token] = len(order)
            order.append(token)
        return index_of[token]

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) == 1:
            intern(tokens[0])
            continue
        if len(tokens) > 3:
            raise ParseError(f"expected at most 3 fields, got {len(tokens)}", lineno)
        src_tok, dst_tok = tokens[0], tokens[1]
        if len(tokens) == 3:
            try:
                weight = float(tokens[2])
            except ValueError:
                raise ParseError(f"bad weight {tokens[2]!r}", lineno) from None
            if math.isnan(weight):
                raise ParseError(f"bad weight {tokens[2]!r}", lineno)
        else:
            weight = 1.0
        src = intern(src_tok)
        dst = intern(dst_tok)
        if src == dst:
            dropped += 1
            continue
        if not math.isfinite(weight) or weight < 0:
            raise WeightError(f"line {lineno}: negative or non-finite weight {weight}")
        if weight == 0:
            raise WeightError(f"line {lineno}: weight 0 on edge {src_tok!r} -> {dst_tok!r}")
        a, b = (src, dst) if directed or src < dst else (dst, src)
        if (a, b) in seen_pairs:
            raise DuplicateEdgeError(
                f"line {lineno}: duplicate edge {src_tok!r} -> {dst_tok!r}"
            )
        seen_pairs.add((a, b))
        edges.append((src, dst, weight))

    if not order:
        raise ParseError("no vertices found")
    if dropped:
        log.warning("dropped %d self-loop(s) while parsing", dropped)
    return Graph(
        vertex_count=len(order),
        edges=tuple(edges),
        directed=directed,
        labels=tuple(order),
        self_loops_dropped=dropped,
    )


def serialize_edge_list(g: Graph) -> str:
    """Serialize a Graph to the tab-separated edge-list format.

    Every vertex is declared on its own line first (keeping index order and
    isolated vertices across a round trip), then each edge follows with its
    weight printed at full precision, so ``parse_edge_list(serialize_edge_list(g),
    g.directed) == g``. Labels are written verbatim, so a label the parser
    would read differently (empty, holding whitespace, starting with ``#``,
    or shared by two vertices) raises LabelError naming it.
    """
    labels = g.labels
    seen: set[str] = set()
    for label in labels:
        if label.split() != [label] or label.startswith("#") or label in seen:
            raise LabelError(f"vertex label {label!r} cannot be written to an edge list")
        seen.add(label)
    lines = list(labels)
    for src, dst, weight in g.edges:
        lines.append(f"{labels[src]}\t{labels[dst]}\t{weight!r}")
    return "\n".join(lines) + "\n"


def scale_weights(g: Graph, alpha: float) -> Graph:
    """Return a copy of the graph with every weight multiplied by alpha > 0."""
    alpha = float(alpha)
    if not math.isfinite(alpha) or alpha <= 0:
        raise ValueError(f"alpha must be a positive finite real, got {alpha}")
    return Graph(
        vertex_count=g.vertex_count,
        edges=tuple((s, d, w * alpha) for s, d, w in g.edges),
        directed=g.directed,
        labels=g.labels,
    )
