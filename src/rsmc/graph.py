"""Graph representation, edge-list parsing, and structural queries.

Vertices are dense 0-based indices; original string labels live in a side
table so matrix code can index arrays directly.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components as csgraph_components, dijkstra

from .errors import DuplicateEdgeError, LabelError, ParseError, WeightError

log = logging.getLogger(__name__)

Edge = tuple[int, int, float]


def real_array(values) -> np.ndarray:
    """A fresh float64 array of ``values``, which must be reals in rows of one length.

    ``np.array(values, dtype=float)`` alone reads a string entry with
    Python's ``float`` (so ``'1_0'`` is 10) and drops the imaginary part of
    a complex array; here a string or complex entry raises TypeError and
    ragged rows ValueError. An integer too large for a float raises
    OverflowError.
    """
    raw = np.asarray(values)
    if raw.dtype.kind in "USc" or raw.dtype == object and any(
            isinstance(v, (str, bytes, complex)) for v in raw.flat):
        raise TypeError("entries must be reals")
    return raw.astype(float)


@dataclass(frozen=True)
class Graph:
    """Immutable weighted graph without multi-edges or self-loops.

    ``edges`` comes as (src, dst, weight) triples or an (m, 3) array of
    whole-number vertex indices in range and strictly positive finite weights
    (zero is reserved for a vertex's relation to itself), all reals as
    ``real_array`` reads them: a string or complex entry raises TypeError,
    even one ``float`` would read. Edges are kept sorted
    by (src, dst), src < dst when undirected, so equal graphs compare equal: as
    ``edges``, a tuple of (int, int, float), and as read-only ``src``, ``dst``
    (intp) and ``weights`` (float64) arrays.
    """

    vertex_count: int
    edges: tuple[Edge, ...]
    directed: bool
    labels: tuple[str, ...] | None = None
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
    """Check edges as one float array and sort them; the first bad edge raises in ``_check_edge``,
    or in ``real_array`` for a string or complex entry that ``_check_edge`` reads."""
    try:
        arr = real_array(edges).reshape(len(edges), 3)
    except (TypeError, ValueError, OverflowError):
        for k, edge in enumerate(edges):  # raise at the first edge not three reals, or before
            try:
                real_array(edge).reshape(3)
            except (TypeError, ValueError, OverflowError):
                _canonical_arrays(edges[:k], n, directed)
                _check_edge(edge, n, directed)
                raise
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
    if any(isinstance(v, np.complexfloating) for v in edge):  # int() and float() of one warn
        raise TypeError("entries must be reals")
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


class Components(NamedTuple):
    """scipy's component count and int32 label array, labels by undirected reachability."""

    component_count: int
    assignment: np.ndarray


def edge_csr(g: Graph) -> csr_matrix:
    """The weighted adjacency matrix, one stored entry per edge as (src, dst)."""
    return csr_matrix((g.weights, (g.src, g.dst)), shape=(g.vertex_count, g.vertex_count))


def connected_components(g: Graph) -> Components:
    """Label vertices by undirected reachability, as ``count, labels``.

    Component ids are assigned in order of each component's smallest vertex,
    so the result is deterministic and invariant under edge-direction
    reversal.
    """
    return Components(*csgraph_components(edge_csr(g), directed=False))


def unreachable(g: Graph) -> np.ndarray:
    """Bool (n, n) mask, True where j cannot be reached from i along the edges.

    A vertex reaches its whole strong component (plain component if undirected), so one
    unweighted Dijkstra walks the condensation from each component with an edge out.
    """
    count, labels = csgraph_components(edge_csr(g), directed=g.directed, connection="strong")
    s, d = labels[g.src], labels[g.dst]
    s, d = s[s != d], d[s != d]  # edges between components; none on an undirected graph
    sources = np.unique(s)
    apart = ~np.eye(count, dtype=bool)
    dag = csr_matrix((np.ones(s.size), (s, d)), shape=(count, count))
    apart[sources] = np.isinf(dijkstra(dag, unweighted=True, indices=sources))
    return apart[:, labels][labels]  # gathering whole rows last leaves it C-ordered


def text_lines(text: str) -> list[str]:
    """The lines of a text input: they end at ``\\n``, ``\\r\\n`` or ``\\r`` and nowhere else,
    not at a form feed, ``\\x1c`` or U+2028."""
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text.split("\n")


def number(token: str) -> float:
    """``float(token)`` if the token is ASCII, without ``_`` and with nothing around it that
    ``float`` would skip (a form feed too), as text inputs spell numbers; else ValueError."""
    if not token.isascii() or "_" in token or token.strip() != token:
        raise ValueError(f"bad number {token!r}")
    return float(token)


def parse_edge_list(text: str, directed: bool = False) -> Graph:
    """Parse a space- or tab-separated edge list into a Graph.

    Lines end at ``\\n``, ``\\r\\n`` or ``\\r`` and nowhere else. Each line is
    either ``src<TAB>dst[<TAB>weight]`` (any run of spaces and tabs, and
    nothing else, separates fields; weight defaults to 1.0) or a single token
    declaring an isolated vertex; a field starting with ``#`` comments out the
    rest of its line, and a line left without fields is skipped. Any other
    character, a form feed or a no-break space too, is part of its field.
    Vertex indices are assigned by order of first appearance; the original
    tokens are labels.

    Self-loops are dropped (counted in one WARNING record); a repeated
    ordered pair raises DuplicateEdgeError, a negative or zero weight raises
    WeightError, and anything else malformed raises ParseError carrying the
    line number.
    """
    index_of: dict[str, int] = {}  # in order of first appearance
    edges: list[Edge] = []
    seen_pairs: set[tuple[int, int]] = set()
    dropped = 0
    for lineno, raw in enumerate(text_lines(text.replace("\t", " ")), start=1):
        tokens = raw.split(" ")  # not str.split(): it also breaks at form feeds
        if "" in tokens:  # a run of separators, or one at an end of the line
            tokens = list(filter(None, tokens))
        if "#" in raw:  # a field starting with # ends the line's fields
            tokens = next((tokens[:i] for i, t in enumerate(tokens) if t[0] == "#"), tokens)
        if not tokens:
            continue
        if len(tokens) == 1:
            index_of.setdefault(tokens[0], len(index_of))
            continue
        if len(tokens) > 3:
            raise ParseError(f"expected at most 3 fields, got {len(tokens)}", lineno)
        src_tok, dst_tok = tokens[0], tokens[1]
        try:
            weight = number(tokens[2]) if len(tokens) == 3 else 1.0
        except ValueError:
            weight = math.nan
        if math.isnan(weight):
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
                 labels=tuple(index_of))


def serialize_edge_list(g: Graph) -> str:
    """Serialize a Graph to the tab-separated edge-list format.

    Every vertex is declared on its own line first (keeping index order and
    isolated vertices across a round trip), then each edge follows with its
    weight printed at full precision, so ``parse_edge_list(serialize_edge_list(g),
    g.directed) == g``. Labels are written verbatim, so a label the parser
    would read differently (empty, holding a space, tab, ``\\n`` or ``\\r``,
    starting with ``#``, or shared by two vertices) raises LabelError naming it.
    """
    labels = g.labels
    seen: set[str] = set()
    for label in labels:
        if (not label or any(sep in label for sep in " \t\n\r") or label.startswith("#")
                or label in seen):
            raise LabelError(f"vertex label {label!r} cannot be written to an edge list")
        seen.add(label)
    lines = list(labels) + [f"{labels[s]}\t{labels[d]}\t{w!r}" for s, d, w in g.edges]
    return "\n".join(lines) + "\n"
