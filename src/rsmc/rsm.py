"""Relation strength measurement (RSM) matrices and their validation.

An RSM assigns every ordered vertex pair a nonnegative strength value where 0
means "same vertex", larger means weaker relation, and +inf means the pair is
disconnected. Two generators are provided (shortest-path distance and
effective electrical resistance) plus an axiom validator that works on any
matrix, including externally supplied ones.
"""

from __future__ import annotations

import json
import logging
import math
import os
import time
from collections.abc import Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import chain

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotri
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components as csgraph_components
from scipy.sparse.csgraph import dijkstra

from .errors import (
    DimensionMismatchError,
    DirectedInputError,
    MatrixValueError,
    NumericalError,
    ParseError,
    SingularityError,
    ThresholdError,
)
from .graph import Graph, connected_components, edge_csr, is_ascii_number

log = logging.getLogger(__name__)

SDF_TAG = "sdf"
ERF_TAG = "erf"
SIMILARITY_TAG = "similarity"
EXTERNAL_TAG = "external"

#: Tolerance for the pseudoinverse residuals.
RESIDUAL_TOL = 1e-9
#: Default tolerance for axiom checks.
AXIOM_TOL = 1e-8
#: How many violations a validation summary lists before counting the rest.
MAX_SHOWN_VIOLATIONS = 10
#: Largest row block, in bytes, of the triangle check's running minimum and
#: of the resistance assembly in ``erf_matrix``.
_BLOCK_BYTES = 2**19


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


@dataclass(frozen=True, eq=False)
class RsmMatrix:
    """Square matrix of relation strength values over extended nonnegative reals.

    +inf is an explicit sentinel for "no relation whatsoever"; it is never
    approximated by a large finite number. A read-only float64 ndarray (not
    a subclass) is kept as it is, so whoever made it read-only must not write to it through
    another view; any other array is copied and the copy frozen against
    writes. rsmc's own builders hand over fresh read-only arrays.
    """

    values: np.ndarray
    source_rsm: str

    def __post_init__(self):
        arr = self.values
        if not (type(arr) is np.ndarray and arr.dtype == np.float64
                and not arr.flags.writeable):
            try:
                arr = real_array(arr)
            except OverflowError:
                raise MatrixValueError("matrix holds an integer too large for a float") from None
            except (TypeError, ValueError):
                raise MatrixValueError("matrix entries must be reals in rows of one length") from None
            arr.setflags(write=False)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
            raise DimensionMismatchError(f"expected a nonempty square matrix, got shape {arr.shape}")
        lo = arr.min()  # NaN if any entry is NaN
        if np.isnan(lo):
            raise MatrixValueError("matrix entries must not be NaN")
        if lo == -math.inf:
            raise MatrixValueError("matrix entries must not be -inf")
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "source_rsm", str(self.source_rsm))

    @property
    def n(self) -> int:
        return self.values.shape[0]


def sdf_matrix(g: Graph) -> RsmMatrix:
    """All-pairs shortest-path distance matrix.

    Entry (i, j) is the minimum total weight over directed paths i -> j
    (undirected graphs traverse edges both ways), +inf when j is unreachable
    from i, and 0 on the diagonal. Weights are nonnegative by the Graph
    invariants, so per-source Dijkstra applies. On an undirected graph the
    matrix is exactly symmetric: each pair gets the smaller of its two
    directions, which can differ in the last bit as the two searches add a
    path's weights in opposite orders. A path length too large for a float
    raises NumericalError rather than reading as unreachable.
    """
    csr = edge_csr(g)
    dist = dijkstra(csr, directed=g.directed, return_predecessors=False)
    if not g.directed:
        np.minimum(dist, dist.T, out=dist)
    # every tentative distance is at most twice the weight total, so only a
    # heavier graph can overflow a path length into the +inf of "unreachable"
    with np.errstate(over="ignore"):
        heavy = g.weights.sum() > np.finfo(float).max / 2
    if heavy:
        hops = dijkstra(csr, directed=g.directed, unweighted=True, return_predecessors=False)
        overflowed = np.argwhere(np.isinf(dist) & np.isfinite(hops))
        if overflowed.size:
            i, j = overflowed[0]
            raise NumericalError(f"the shortest path length from {g.labels[i]} to "
                                 f"{g.labels[j]} is too large for a float")
    return _frozen(dist, SDF_TAG)


def _frozen(values: np.ndarray, tag: str) -> RsmMatrix:
    """An RsmMatrix over a fresh float64 array no one else holds, without copying it."""
    values.setflags(write=False)
    return RsmMatrix(values=values, source_rsm=tag)


def laplacian(g: Graph) -> np.ndarray:
    """Weighted graph Laplacian (degree matrix minus adjacency matrix).

    The degree of a vertex is the sum of the weights of its incident edges,
    added in edge order.
    """
    if g.directed:
        raise DirectedInputError("Laplacian is defined for undirected graphs only")
    n, src, dst, w = g.vertex_count, g.src, g.dst, g.weights
    lap = np.zeros((n, n))
    lap[src, dst] = lap[dst, src] = -w
    # edges are sorted with src < dst, so listing each vertex's edges as dst
    # before its edges as src adds them in the order a loop over edges would
    lap[np.diag_indices(n)] = np.bincount(
        np.concatenate([dst, src]), weights=np.concatenate([w, w]), minlength=n
    )
    return lap


def laplacian_pseudoinverse(component: Graph) -> np.ndarray:
    """Generalized inverse of the Laplacian of a connected undirected graph.

    Uses the identity pinv(L) = inv(L + J/n) - J/n where J is the all-ones
    matrix, exact for connected graphs. L is first divided by the power of
    two at or below its largest edge weight, which changes no digit, so the
    result does not depend on the unit the weights are given in. The
    shifted matrix is inverted through its Cholesky factor; the result is
    exactly symmetric. The normalised L and its pseudoinverse P must satisfy
    both L @ P @ L == L and L @ P == I - J/n within ``RESIDUAL_TOL``
    (max-norm), or NumericalError is raised. A disconnected input, or a
    shifted matrix the Cholesky factorisation finds not positive definite,
    raises SingularityError.
    """
    if component.directed:
        raise DirectedInputError("pseudoinverse is defined for undirected graphs only")
    started = time.perf_counter()
    n, src, dst, w = component.vertex_count, component.src, component.dst, component.weights
    a = laplacian(component)
    scale = math.ldexp(1.0, math.frexp(w.max())[1] - 1) if w.size else 1.0
    if scale != 1.0:  # dividing by 1.0 changes nothing
        a /= scale
    diag = np.arange(n)
    nonzero = (np.concatenate([src, dst, diag]), np.concatenate([dst, src, diag]))
    lap_values = a[nonzero]
    lap = csr_matrix((lap_values, nonzero), shape=(n, n))
    if csgraph_components(lap, directed=False, return_labels=False) != 1:
        raise SingularityError("input graph is disconnected; per-component Laplacians required")

    a += 1.0 / n
    # the C-order array goes in as its F-order transpose, the same symmetric
    # matrix, so LAPACK needs no copy; the inverse's valid triangle is then
    # the lower one of the C-order view
    factor, info = dpotrf(a.T, lower=0, clean=0, overwrite_a=1)
    if info == 0:
        inverse, info = dpotri(factor, lower=0, overwrite_c=1)
    if info != 0:
        raise SingularityError(f"Laplacian shift matrix is not positive definite (LAPACK info {info})")
    pinv = inverse.T
    for i in range(n - 1):
        pinv[i, i + 1:] = pinv[i + 1:, i]
    pinv -= 1.0 / n

    lp = lap @ pinv
    lpl = lap @ lp.T  # L P L, as P and L are symmetric
    lpl[nonzero] -= lap_values
    lpl_residual = float(np.abs(lpl, out=lpl).max())
    lp += 1.0 / n
    lp[diag, diag] -= 1.0
    lp_residual = float(np.abs(lp, out=lp).max())
    log.debug(
        "pseudoinverse of a %d-vertex component at scale %g: LPL residual %.3e, "
        "LP residual %.3e, %.3f s", n, scale, lpl_residual, lp_residual,
        time.perf_counter() - started,
    )
    for what, residual in (("", lpl_residual), (" of L P against I - J/n", lp_residual)):
        if not residual <= RESIDUAL_TOL:
            raise NumericalError(
                f"pseudoinverse residual{what} {residual:.3e} exceeds tolerance {RESIDUAL_TOL:.3e}"
            )
    if scale != 1.0:
        pinv /= scale
    return pinv


def erf_matrix(g: Graph) -> RsmMatrix:
    """Effective-resistance distance matrix of an undirected graph.

    Each edge acts as a resistor whose resistance is the edge weight, so the
    Laplacian is built over conductances (1/weight); for unit weights that is
    the plain adjacency Laplacian. Per connected component the pseudoinverse
    P yields R[i, j] = P[i, i] + P[j, j] - 2 P[i, j]; pairs in different
    components get +inf. The conductance convention is what makes resistance
    scale linearly when all weights scale. Components are solved one after
    another, an isolated vertex without a solve (its one entry is 0); the
    result is exactly symmetric. A resistance too large for a float raises
    NumericalError.
    """
    if g.directed:
        raise DirectedInputError("effective resistance is defined for undirected graphs only")
    n, src, dst = g.vertex_count, g.src, g.dst
    with np.errstate(divide="ignore", over="ignore"):
        conductance = 1.0 / g.weights
    too_small = np.flatnonzero(~np.isfinite(conductance))
    if too_small.size:
        s, d, weight = g.edges[too_small[0]]
        raise NumericalError(f"edge ({s}, {d}) weight {weight} is too small to invert")

    partition = connected_components(g)
    edge_comp = np.asarray(partition.assignment)[src]
    # edge indices grouped by component, in edge order within each group
    comp_edges = np.split(np.argsort(edge_comp, kind="stable"), np.cumsum(
        np.bincount(edge_comp, minlength=partition.component_count))[:-1])
    if partition.component_count == 1 and n > 1:
        values = None
    else:
        values = np.full((n, n), np.inf)
        np.fill_diagonal(values, 0.0)  # all an isolated vertex needs
    local = np.empty(n, dtype=np.intp)  # each vertex's index within its component
    for comp, edges in zip(partition.components(), comp_edges):
        if len(comp) == 1:
            continue
        local[comp] = np.arange(len(comp))
        rows = np.column_stack((local[src[edges]], local[dst[edges]], conductance[edges]))
        try:
            with np.errstate(over="raise"):
                pinv = laplacian_pseudoinverse(Graph(len(comp), rows, directed=False))
                _resistances_in_place(pinv)
        except FloatingPointError:
            raise NumericalError("an effective resistance is too large for a float") from None
        if values is None:
            values = pinv  # one component holds every vertex, in order
        else:
            values[np.ix_(comp, comp)] = pinv
    return _frozen(values, ERF_TAG)


def _resistances_in_place(pinv: np.ndarray) -> None:
    """Overwrite a pseudoinverse P with R[i, j] = (P[i, i] + P[j, j]) - 2 P[i, j].

    Rows go in blocks of at most ``_BLOCK_BYTES`` through one temporary, so
    no second n x n array is made. The diagonal comes out exactly 0, as
    P[i, i] + P[i, i] == 2 P[i, i].
    """
    k = len(pinv)
    diag = pinv.diagonal().copy()
    rows = max(1, _BLOCK_BYTES // (pinv.itemsize * k))
    temp = np.empty((min(rows, k), k))
    for start in range(0, k, rows):
        run = pinv[start:start + rows]
        sums = temp[:len(run)]
        np.add(diag[start:start + rows, None], diag, out=sums)
        run *= 2.0
        np.subtract(sums, run, out=run)


# ---------------------------------------------------------------------------
# Axiom validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Violation:
    """One axiom violation: which check, at which indices, how large."""

    kind: str
    where: tuple
    magnitude: float

    def __str__(self) -> str:
        return f"{self.kind} at {self.where}: {self.magnitude:g}"


def violations_at(kind: str, bad: np.ndarray, magnitude, names=None) -> list[Violation]:
    """A ``kind`` Violation at each True entry of the mask ``bad``, in row-major order.

    ``where`` holds the entry's indices as Python ints, or ``names[i]`` for
    each index i when ``names`` is given. The magnitude is the Python float
    of ``magnitude`` at that entry; a scalar counts for every entry.
    """
    at = np.nonzero(bad)
    spots = zip(*(index.tolist() for index in at))
    if names is not None:
        spots = (tuple(names[i] for i in spot) for spot in spots)
    sizes = np.broadcast_to(magnitude, bad.shape)[at].tolist()
    return [Violation(kind, where, size) for where, size in zip(spots, sizes)]


@dataclass(frozen=True)
class RsmValidationReport:
    """Per-axiom outcome of validating a matrix against the RSM axioms.

    Flags are None when a check was not applicable (no source graph supplied,
    or symmetry on a directed graph). ``triangle`` covers both the triangle
    inequality and the cut-vertex additivity equality.
    """

    tol: float
    nonnegativity: bool
    coincidence: bool
    connectivity: bool | None
    triangle: bool
    symmetry: bool | None
    violations: tuple[Violation, ...]

    @property
    def all_passed(self) -> bool:
        flags = (self.nonnegativity, self.coincidence, self.connectivity,
                 self.triangle, self.symmetry)
        return all(f is not False for f in flags)

    def summary_lines(self) -> list[str]:
        def show(flag: bool | None) -> str:
            if flag is None:
                return "skipped"
            return "pass" if flag else "FAIL"

        lines = [
            f"non-negativity:            {show(self.nonnegativity)}",
            f"coincidence (zero diag):   {show(self.coincidence)}",
            f"disconnection pattern:     {show(self.connectivity)}",
            f"triangle + cut additivity: {show(self.triangle)}",
            f"symmetry:                  {show(self.symmetry)}",
        ]
        if self.violations:
            lines.append(f"{len(self.violations)} violation(s), tol={self.tol:g}:")
            lines += [f"  {v}" for v in self.violations[:MAX_SHOWN_VIOLATIONS]]
            if len(self.violations) > MAX_SHOWN_VIOLATIONS:
                lines.append(f"  ... {len(self.violations) - MAX_SHOWN_VIOLATIONS} more")
        return lines


def _separations_by_cut_vertex(g: Graph) -> Iterator[tuple[int, list[list[int]]]]:
    """For every cut vertex w, the vertex groups its removal separates.

    Cut vertices of the underlying undirected graph come in ascending order;
    each one's groups are the connected components of its own component
    minus w, sorted, and ordered by their smallest vertex. One iterative
    Hopcroft-Tarjan depth-first search finds them in O(n + m): a tree child
    c of w whose low-link does not reach above w cuts off its whole subtree,
    which is a contiguous run of the preorder; the rest of the component is
    one more group unless w is the search root. Pairs are yielded one at a
    time because on a path the groups total O(n^2) vertices.
    """
    csr = edge_csr(g)
    adj = csr.maximum(csr.T).tolil().rows  # neighbours in the underlying undirected graph
    n = g.vertex_count
    disc = [-1] * n  # preorder position
    low = [0] * n
    size = [1] * n  # subtree size
    comp_start = [0] * n  # preorder position of the component's root
    cut_children: dict[int, list[int]] = {}
    order: list[int] = []
    for root in range(n):
        if disc[root] != -1:
            continue
        start = len(order)
        disc[root] = low[root] = start
        comp_start[root] = start
        order.append(root)
        stack = [(root, iter(adj[root]))]
        while stack:
            v, nbs = stack[-1]
            for u in nbs:
                if disc[u] == -1:
                    disc[u] = low[u] = len(order)
                    comp_start[u] = start
                    order.append(u)
                    stack.append((u, iter(adj[u])))
                    break
                if disc[u] < low[v]:
                    low[v] = disc[u]
            else:
                stack.pop()
                if stack:
                    p = stack[-1][0]
                    size[p] += size[v]
                    if low[v] < low[p]:
                        low[p] = low[v]
                    if low[v] >= disc[p]:
                        cut_children.setdefault(p, []).append(v)

    for w in sorted(cut_children):
        children = cut_children[w]
        parts = [sorted(order[disc[c]:disc[c] + size[c]]) for c in children]
        # the rest of w's component: its preorder run minus w and the cut-off
        # runs, which ascend in the order the children finished
        start = comp_start[w]
        end = start + size[order[start]]
        skip = [(disc[w], disc[w] + 1)] + [(disc[c], disc[c] + size[c]) for c in children]
        kept = []
        for lo, hi in skip:
            kept.append(order[start:lo])
            start = hi
        kept.append(order[start:end])
        rest = sorted(chain.from_iterable(kept))
        if rest:
            parts.append(rest)
        if len(parts) > 1:
            parts.sort(key=lambda part: part[0])
            yield w, parts


def _bitwise_symmetric(vals: np.ndarray) -> bool:
    """Whether a float64 matrix equals its transpose bit for bit.

    A plain ``==`` would not do: it holds between ``0.0`` and ``-0.0``,
    which ``repr`` spells differently.
    """
    bits = vals.view(np.int64)
    return bool((bits == bits.T).all())


def _two_leg_minima(vals: np.ndarray) -> tuple[np.ndarray, int, int, bool]:
    """best[i, j] = min over k of vals[i, k] + vals[k, j]; also rows per block, workers, symmetry.

    Rows are taken in blocks whose running minimum fits in ``_BLOCK_BYTES``,
    so it and the preallocated temporary beside it stay in L2 while k runs
    over every vertex. Blocks go to one thread each, up to the CPUs this
    process may run on; numpy's ``add`` and ``minimum`` release the GIL.
    Every sum is one float add and a minimum of floats is exact in any
    order, so the result does not depend on the blocking or the workers.
    Each block runs in a buffer of its own. On a bitwise-symmetric matrix a
    block computes only the columns from its own first row onward and
    mirrors them below the diagonal: float addition commutes, so best[j, i]
    takes the minimum of the same sums in the same order as best[i, j] and
    equals it bit for bit. The blocks then shrink down the matrix, and the
    pool hands them out in order, heaviest first.
    """
    n = len(vals)
    rows = max(1, _BLOCK_BYTES // (vals.itemsize * n))
    starts = range(0, n, rows)
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        cpus = os.cpu_count() or 1
    workers = min(cpus, len(starts))
    symmetric = _bitwise_symmetric(vals)
    best = np.empty_like(vals)

    def fill(start: int) -> None:
        stop = start + rows
        first = start if symmetric else 0
        # numpy's error state is per thread: an overflowed sum is +-inf, the right answer
        with np.errstate(over="ignore"):
            legs = vals[start:stop]
            run = legs[:, :1] + vals[0, first:]
            temp = np.empty_like(run)
            for k in range(1, n):
                np.add(legs[:, k:k + 1], vals[k, first:], out=temp)
                np.minimum(run, temp, out=run)
        best[start:stop, first:] = run
        if symmetric:
            best[stop:, start:stop] = run[:, rows:].T

    with ThreadPoolExecutor(workers) as pool:
        list(pool.map(fill, starts))
    return best, rows, workers, symmetric


def triangle_breaks(vals: np.ndarray, tol: float) -> list[tuple[int, int, int, float]]:
    """Every finite entry of a square matrix that breaks the triangle inequality.

    Entry (i, j) breaks it when it exceeds the shortest two-leg route
    vals[i, k] + vals[k, j] by more than ``tol``. Breaks come row by row as
    (i, k, j, excess), k being the first vertex of a shortest route. A
    bitwise-symmetric matrix has its shortest routes computed from the upper
    triangle and mirrored, with the same result. Logs one DEBUG line: size,
    whether the matrix was symmetric, blocking, workers, breaks and seconds.
    """
    started = time.perf_counter()
    best, rows, workers, symmetric = _two_leg_minima(vals)
    found = []
    with np.errstate(over="ignore"):
        bad = np.isfinite(vals) & ~(vals <= best + tol)
        for i, j in zip(*np.nonzero(bad)):
            k = int(np.argmin(vals[i] + vals[:, j]))
            found.append((int(i), k, int(j), float(vals[i, j] - best[i, j])))
    log.debug(
        "triangle check of a %d-vertex %smatrix in %d-row blocks on %d worker(s): "
        "%d break(s), %.3f s", len(vals), "symmetric " if symmetric else "", rows,
        workers, len(found), time.perf_counter() - started,
    )
    return found


def _check_cut_additivity(vals: np.ndarray, g: Graph, tol: float) -> list[Violation]:
    """Each finite vals[a, b] off vals[a, w] + vals[w, b] by more than tol, w a cut vertex between.

    Each of w's groups is checked against all the other groups at once. On
    a bitwise-symmetric matrix a group is checked only against the groups
    after it, and the deviations of the reverse pairs (b, w, a) are read
    from the same block: the add commutes, so they are equal bit for bit.
    The violations come by w, then by the group of a, the group of b, a and b.
    """
    symmetric = _bitwise_symmetric(vals)
    found: list[Violation] = []
    for w, parts in _separations_by_cut_vertex(g):
        members = np.concatenate(parts)
        part_of = np.repeat(np.arange(len(parts)), [len(part) for part in parts])
        hits = []  # (group of a, group of b, a, b, deviation), per block and direction
        stop = 0
        for part in parts:
            start, stop = stop, stop + len(part)
            a = members[start:stop]
            others = np.r_[start if symmetric else 0:start, stop:len(members)]
            b = members[others]
            direct = vals[np.ix_(a, b)]
            with np.errstate(over="ignore", invalid="ignore"):
                dev = vals[a, w][:, None] + vals[w, b][None, :]
                np.abs(np.subtract(direct, dev, out=dev), out=dev)
            i, j = np.nonzero(np.isfinite(direct) & ~(dev <= tol))
            a_part, b_part = part_of[start + i], part_of[others][j]
            hits.append((a_part, b_part, a[i], b[j], dev[i, j]))
            if symmetric:
                hits.append((b_part, a_part, b[j], a[i], dev[i, j]))
        a_part, b_part, a_at, b_at, dev = (np.concatenate(column) for column in zip(*hits))
        for x in np.lexsort((b_at, a_at, b_part, a_part)):
            found.append(
                Violation("cut-additivity", (int(a_at[x]), w, int(b_at[x])), float(dev[x]))
            )
    return found


def validate_rsm(m: RsmMatrix, g: Graph | None = None, tol: float = AXIOM_TOL) -> RsmValidationReport:
    """Check a matrix against the RSM axioms.

    Checks non-negativity, the coincidence axiom (zero diagonal within tol,
    off-diagonal strictly above tol), the disconnection pattern (+inf exactly
    where j is unreachable from i: across components of an undirected graph,
    along the edges' direction on a directed one), the triangle inequality
    over all finite triples together with additivity through every cut
    vertex, and symmetry. The pattern and cut-vertex checks need the source
    graph and are skipped when ``g`` is None; symmetry is skipped for
    directed graphs.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ThresholdError(f"tol must be a positive finite real, got {tol}")
    vals = m.values
    n = m.n
    if g is not None and g.vertex_count != n:
        raise DimensionMismatchError(
            f"matrix is {n}x{n} but the graph has {g.vertex_count} vertices"
        )
    negative = violations_at("negative", vals < -tol, vals)
    diag = np.diag(vals)
    diagonal = violations_at("diagonal-nonzero", ~(np.abs(diag) <= tol), diag)
    offdiagonal = violations_at("offdiagonal-zero", ~(vals > tol) & ~np.eye(n, dtype=bool), vals)

    pattern = None
    if g is not None:
        apart = np.isinf(dijkstra(edge_csr(g), directed=g.directed, unweighted=True))
        pattern = violations_at("infinity-pattern", np.isinf(vals) != apart, vals)

    triangle = [Violation("triangle", (i, k, j), excess)
                for i, k, j, excess in triangle_breaks(vals, tol)]
    if g is not None:
        triangle += _check_cut_additivity(vals, g, tol)

    asymmetry = None
    if g is None or not g.directed:
        with np.errstate(over="ignore", invalid="ignore"):
            gap = np.abs(vals - vals.T)  # an overflowed difference is +inf, the right gap
        gap[np.isnan(gap)] = 0.0  # inf - inf: both entries +inf, which agree
        asymmetry = violations_at("asymmetry", np.triu(~(gap <= tol), k=1), gap)

    return RsmValidationReport(
        tol=tol,
        nonnegativity=not negative,
        coincidence=not (diagonal or offdiagonal),
        connectivity=None if pattern is None else not pattern,
        triangle=not triangle,
        symmetry=None if asymmetry is None else not asymmetry,
        violations=tuple(chain(negative, diagonal, offdiagonal, pattern or (), triangle,
                               asymmetry or ())),
    )


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def _row_texts(m: RsmMatrix) -> list[str]:
    """Each row as its entries' shortest round-trip reprs joined by ", "; +inf is ``inf``.

    ``str`` of a list of Python floats formats every entry with ``repr``,
    exactly as ``json.dumps`` writes a finite float, at C speed. A
    bitwise-symmetric matrix formats only its upper triangle, diagonal
    included, and mirrors those texts through an object array; no repr
    contains ", ", so splitting on it recovers each entry's text.
    """
    vals = m.values
    if not _bitwise_symmetric(vals):
        return [str(row)[1:-1] for row in vals.tolist()]
    upper = np.triu_indices(len(vals))
    texts = np.empty(vals.shape, dtype=object)
    texts[upper] = texts.T[upper] = str(vals[upper].tolist())[1:-1].split(", ")
    return [", ".join(row) for row in texts.tolist()]


def rsm_to_csv(m: RsmMatrix) -> str:
    """Row-major CSV with an ``inf`` token for +inf, full float precision."""
    return "\n".join(_row_texts(m)).replace(", ", ",") + "\n"


#: How ``float`` spells infinity, after the sign; any other literal it reads
#: as infinite is a finite number too large for a float.
_INF_SPELLINGS = {"inf", "infinity"}


def rsm_from_csv(text: str) -> RsmMatrix:
    rows: list[list[float]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        row = []
        for tok in line.split(","):
            tok = tok.strip()
            try:
                v = float(tok)
            except ValueError:
                raise ParseError(f"bad matrix entry {tok!r}", lineno) from None
            if math.isnan(v):
                raise ParseError(f"NaN matrix entry {tok!r}", lineno)
            if math.isinf(v) and tok.lstrip("+-").lower() not in _INF_SPELLINGS:
                raise ParseError(f"matrix entry {tok!r} is too large for a float", lineno)
            if not is_ascii_number(tok):
                raise ParseError(f"bad matrix entry {tok!r}", lineno)
            row.append(v)
        rows.append(row)
    if not rows:
        raise ParseError("empty matrix")
    width = len(rows[0])
    if any(len(r) != width for r in rows) or len(rows) != width:
        raise DimensionMismatchError(
            f"expected a square matrix, got {len(rows)} rows of width {width}"
        )
    return _frozen(np.array(rows, dtype=float), EXTERNAL_TAG)


def rsm_to_json(m: RsmMatrix) -> str:
    """JSON document with nested value arrays; +inf becomes the string "inf".

    The layout is exactly that of ``json.dumps(doc, indent=2)``: one entry
    per line. A finite float's repr never contains ``inf``, so replacing that
    token quotes only the +inf entries.
    """
    body = "\n    ],\n    [\n      ".join(_row_texts(m))
    body = body.replace(", ", ",\n      ").replace("inf", '"inf"')
    return ('{\n  "rsm": ' + json.dumps(m.source_rsm) + ',\n  "values": [\n    [\n      '
            + body + "\n    ]\n  ]\n}\n")


#: Entry types ``json.loads`` yields for numbers; ``bool`` is excluded on purpose.
_JSON_NUMBER_TYPES = {float, int}
#: ``json.loads`` reads the literal ``Infinity`` as the "inf" tag, so that any
#: other infinite float it returns is a finite literal too large for a float.
_JSON_CONSTANTS = {"Infinity": "inf", "-Infinity": -math.inf, "NaN": math.nan}


def rsm_from_json(text: str) -> RsmMatrix:
    try:
        doc = json.loads(text, parse_constant=_JSON_CONSTANTS.__getitem__)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad matrix JSON: {exc}") from exc
    if not isinstance(doc, dict) or "values" not in doc:
        raise ParseError('matrix JSON must be an object with a "values" key')
    tag = doc.get("rsm", EXTERNAL_TAG)
    if not isinstance(tag, str):
        raise ParseError(f'matrix JSON "rsm" tag must be a string, not {json.dumps(tag)}')
    raw = doc["values"]
    if not isinstance(raw, list) or not raw:
        raise ParseError('"values" must be a nonempty array of rows')
    rows: list[list] = []
    tagged_inf = 0
    for row in raw:
        if not isinstance(row, list):
            raise ParseError("matrix rows must be arrays")
        if not set(map(type, row)) <= _JSON_NUMBER_TYPES:
            tagged_inf += row.count("inf")
            row = [math.inf if v == "inf" else v for v in row]
            for v in row:
                if type(v) not in _JSON_NUMBER_TYPES:
                    raise ParseError(f"bad matrix entry {v!r}")
        rows.append(row)
    width = len(rows[0])
    if any(len(r) != width for r in rows) or len(rows) != width:
        raise DimensionMismatchError(
            f"expected a square matrix, got {len(rows)} rows of width {width}"
        )
    try:
        values = np.array(rows, dtype=float)
    except OverflowError:
        raise ParseError("integer matrix entry too large for a float") from None
    if np.isnan(values).any():
        raise ParseError("bad matrix entry nan")
    if np.count_nonzero(np.isposinf(values)) != tagged_inf:
        raise ParseError("finite matrix entry too large for a float")
    return _frozen(values, tag)
