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

    ``edges`` comes as (src, dst, weight) triples or an (m, 3) array of
    whole-number vertex indices in range and strictly positive finite weights
    (zero is reserved for a vertex's relation to itself). Edges are kept sorted
    by (src, dst), src < dst when undirected, so equal graphs compare equal: as
    ``edges``, a tuple of (int, int, float), and as read-only ``src``, ``dst``
    (intp) and ``weights`` (float64) arrays.
    """

    vertex_count: int
    edges: tuple[Edge, ...]
    directed: bool
    labels: tuple[str, ...] | None = None
    self_loops_dropped: int = field(default=0, compare=False)
    src: np.ndarray = field(init=False, compare=False, repr=False)
    dst: np.ndarray = field(init=False, compare=False, repr=False)
    weights: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        n = self.vertex_count
        if not isinstance(n, int) or n < 1:
            raise ValueError("vertex_count must be a positive integer")
        labels = tuple(map(str, range(n) if self.labels is None else self.labels))
        if len(labels) != n:
            raise ValueError(f"got {len(labels)} labels for {n} vertices")
        object.__setattr__(self, "labels", labels)
        columns = _canonical_arrays(self.edges, n, self.directed)
        for name, column in zip(("src", "dst", "weights"), columns):
            column.setflags(write=False)
            object.__setattr__(self, name, column)
        object.__setattr__(self, "edges", tuple(zip(*(column.tolist() for column in columns))))


def _canonical_arrays(edges, n: int, directed: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Check edges as one float array and sort them; the first bad edge raises in ``_check_edge``."""
    try:
        arr = np.asarray(edges, dtype=float).reshape(len(edges), 3)
    except (TypeError, ValueError, OverflowError):
        for k, edge in enumerate(edges):  # raise at the first edge not three floats, or before
            try:
                np.asarray(edge, dtype=float).reshape(3)
            except (TypeError, ValueError, OverflowError):
                _canonical_arrays(edges[:k], n, directed)
                _check_edge(edge, n, directed)
        raise
    s, d, w = arr.T
    ok = (s != d) & np.isfinite(w) & (w > 0)
    for v in (s, d):
        ok &= (v >= 0) & (v < n) & (np.floor(v) == v)
    stop = len(ok) if ok.all() else int(np.argmin(ok))
    src, dst = s[:stop].astype(np.intp), d[:stop].astype(np.intp)
    if not directed:
        src, dst = np.minimum(src, dst), np.maximum(src, dst)
    order = np.lexsort((dst, src))  # stable: a repeated pair's later copies sort after it
    src, dst = src[order], dst[order]
    first = order[1:][(src[1:] == src[:-1]) & (dst[1:] == dst[:-1])].min(initial=stop)
    if first < len(ok):
        a, b = _check_edge(edges[first], n, directed)  # raises unless the edge is a duplicate
        raise DuplicateEdgeError(f"duplicate edge ({a}, {b})")
    return src, dst, w[order]


def _check_edge(edge, n: int, directed: bool) -> tuple[int, int]:
    """Raise the error one input edge gets on its own, or return its canonical pair."""
    s, d, weight = edge
    src, dst, weight = int(s), int(d), float(weight)
    for v, given in ((src, s), (dst, d)):
        if not 0 <= v < n:
            raise ValueError(f"vertex index {v} out of range")
        if float(given) != v:
            raise ValueError(f"edge ({float(s)!r}, {float(d)!r}): vertex index not a whole number")
    if src == dst:
        raise ValueError(f"self-loop on vertex {src} is not representable")
    if not math.isfinite(weight) or weight < 0:
        raise WeightError(f"edge ({src}, {dst}) has invalid weight {weight}")
    if weight == 0:
        raise WeightError(f"edge ({src}, {dst}) has weight 0; zero is reserved for self-relations")
    return (src, dst) if directed or src < dst else (dst, src)


@dataclass(frozen=True)
class ComponentPartition:
    """Partition of vertices by undirected reachability."""

    assignment: tuple[int, ...]
    component_count: int

    def components(self) -> list[list[int]]:
        """Vertex lists per component id, each sorted ascending."""
        labels = np.asarray(self.assignment)
        ends = np.cumsum(np.bincount(labels, minlength=self.component_count))
        return [part.tolist() for part in np.split(np.argsort(labels, kind="stable"), ends[:-1])]


def edge_csr(g: Graph) -> csr_matrix:
    """The weighted adjacency matrix, one stored entry per edge as (src, dst)."""
    return csr_matrix((g.weights, (g.src, g.dst)), shape=(g.vertex_count, g.vertex_count))


def connected_components(g: Graph) -> ComponentPartition:
    """Partition vertices by undirected reachability.

    Component ids are assigned in order of each component's smallest vertex,
    so the result is deterministic and invariant under edge-direction
    reversal.
    """
    count, labels = csgraph_components(edge_csr(g), directed=False)
    return ComponentPartition(assignment=tuple(labels.tolist()), component_count=count)


def is_ascii_number(token: str) -> bool:
    """Whether a token that ``float`` reads is spelled as the text formats allow.

    ``float`` alone also reads digit separators (``1_5``) and non-ASCII
    digits such as Arabic-Indic ones; edge lists and CSV matrices take neither.
    """
    return token.isascii() and "_" not in token


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
    index_of: dict[str, int] = {}  # in order of first appearance
    edges: list[Edge] = []
    seen_pairs: set[tuple[int, int]] = set()
    dropped = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        if len(tokens) == 1:
            index_of.setdefault(tokens[0], len(index_of))
            continue
        if len(tokens) > 3:
            raise ParseError(f"expected at most 3 fields, got {len(tokens)}", lineno)
        src_tok, dst_tok = tokens[0], tokens[1]
        try:
            weight = float(tokens[2]) if len(tokens) == 3 else 1.0
        except ValueError:
            weight = math.nan
        if math.isnan(weight) or len(tokens) == 3 and not is_ascii_number(tokens[2]):
            raise ParseError(f"bad weight {tokens[2]!r}", lineno)
        src = index_of.setdefault(src_tok, len(index_of))
        dst = index_of.setdefault(dst_tok, len(index_of))
        if src == dst:
            dropped += 1
            continue
        if not math.isfinite(weight) or weight < 0:
            raise WeightError(f"line {lineno}: negative or non-finite weight {weight}")
        if weight == 0:
            raise WeightError(f"line {lineno}: weight 0 on edge {src_tok!r} -> {dst_tok!r}")
        a, b = (src, dst) if directed or src < dst else (dst, src)
        if (a, b) in seen_pairs:
            raise DuplicateEdgeError(f"line {lineno}: duplicate edge {src_tok!r} -> {dst_tok!r}")
        seen_pairs.add((a, b))
        edges.append((src, dst, weight))

    if not index_of:
        raise ParseError("no vertices found")
    if dropped:
        log.warning("dropped %d self-loop(s) while parsing", dropped)
    return Graph(vertex_count=len(index_of), edges=edges, directed=directed,
                 labels=tuple(index_of), self_loops_dropped=dropped)


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
    lines = list(labels) + [f"{labels[s]}\t{labels[d]}\t{w!r}" for s, d, w in g.edges]
    return "\n".join(lines) + "\n"
