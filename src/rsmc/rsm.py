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
import re
import time
from collections.abc import Iterator, Sequence
from concurrent.futures import ThreadPoolExecutor
from contextlib import suppress
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import NoReturn

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotri
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components as csgraph_components, dijkstra

from .errors import (
    DimensionMismatchError,
    DirectedInputError,
    MatrixValueError,
    NumericalError,
    ParseError,
    SingularityError,
    ThresholdError,
)
from .graph import Graph, connected_components, edge_csr, number, real_array, text_lines, unreachable

log = logging.getLogger(__name__)

SDF_TAG = "sdf"
ERF_TAG = "erf"
SIMILARITY_TAG = "similarity"
EXTERNAL_TAG = "external"

#: Tolerance for the pseudoinverse residuals.
RESIDUAL_TOL = 1e-9
#: Default tolerance for axiom checks.
AXIOM_TOL = 1e-8
#: How many violations (or collapsed similarity pairs) a diagnostic lists
#: before counting the rest.
MAX_SHOWN_VIOLATIONS = 10
#: Largest row block, in bytes, of the resistance assembly in ``erf_matrix``
#: and of the triangle check's witness search; the triangle check's tiles of
#: sums take up to twice as much.
_BLOCK_BYTES = 2**19


@dataclass(frozen=True, eq=False, init=False)
class RsmMatrix:
    """Square matrix of relation strength values over extended nonnegative reals.

    +inf is an explicit sentinel for "no relation whatsoever"; it is never
    approximated by a large finite number. A read-only float64 ndarray (not
    a subclass) is kept as it is, so whoever made it read-only must not write to it through
    another view; any other array is copied and the copy frozen against
    writes. rsmc's own builders hand over fresh read-only arrays.

    The entries are kept as ``blocks``: pairs of an ascending vertex array
    and the read-only square block of strengths among those vertices. Every
    entry outside the blocks is +inf, or 0 on the diagonal. A matrix given
    as ``values`` is one block over every vertex in order, ``values`` itself.
    ``erf_matrix`` on a graph of several components keeps one block per
    component of 2 or more vertices, and ``values`` is assembled from them
    the first time something reads it.
    """

    n: int
    source_rsm: str
    blocks: tuple[tuple[np.ndarray, np.ndarray], ...]

    def __init__(self, values, source_rsm: str):
        # written out because values, read lazily for blocks, is no field
        vars(self).update(values=values, source_rsm=source_rsm)
        self.__post_init__()

    @classmethod
    def _of_blocks(cls, n: int, blocks: Sequence[tuple[np.ndarray, np.ndarray]],
                   source_rsm: str) -> RsmMatrix:
        """A matrix on n vertices kept as read-only ``blocks`` no one else writes."""
        m = cls.__new__(cls)
        vars(m).update(n=n, blocks=tuple(blocks), source_rsm=source_rsm)
        m.__post_init__()
        return m

    def __post_init__(self):
        if "blocks" not in vars(self):  # given as values: one block over every vertex
            arr = self.values
            if not (type(arr) is np.ndarray and arr.dtype == np.float64
                    and not arr.flags.writeable):
                try:
                    arr = real_array(arr)
                except OverflowError:
                    raise MatrixValueError(
                        "matrix holds an integer too large for a float") from None
                except (TypeError, ValueError):
                    raise MatrixValueError(
                        "matrix entries must be reals in rows of one length") from None
                arr.setflags(write=False)
            if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
                raise DimensionMismatchError(
                    f"expected a nonempty square matrix, got shape {arr.shape}")
            vars(self).update(values=arr, n=arr.shape[0], blocks=((np.arange(len(arr)), arr),))
        for _, block in self.blocks:
            lo = block.min()  # NaN if any entry is NaN
            if np.isnan(lo):
                raise MatrixValueError("matrix entries must not be NaN")
            if lo == -math.inf:
                raise MatrixValueError("matrix entries must not be -inf")
        object.__setattr__(self, "source_rsm", str(self.source_rsm))

    @cached_property
    def values(self) -> np.ndarray:
        """The read-only n x n array of all entries."""
        values = np.full((self.n, self.n), np.inf)
        np.fill_diagonal(values, 0.0)
        for vertices, block in self.blocks:
            values[np.ix_(vertices, vertices)] = block
        values.setflags(write=False)
        return values


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
    dist = dijkstra(edge_csr(g), directed=g.directed, return_predecessors=False)
    if not g.directed:
        np.minimum(dist, dist.T, out=dist)
    overflowed = np.isinf(dist) & ~unreachable(g)
    if overflowed.any():
        i, j = np.argwhere(overflowed)[0]
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
    NumericalError. The result keeps each component's block, and builds the
    n x n ``values`` only when something reads it.
    """
    if g.directed:
        raise DirectedInputError("effective resistance is defined for undirected graphs only")
    n, src, dst = g.vertex_count, g.src, g.dst
    with np.errstate(divide="ignore", over="ignore"):
        conductance = 1.0 / g.weights
    too_small = np.flatnonzero(~np.isfinite(conductance))
    if too_small.size:
        s, d, weight = g.edges[too_small[0]]
        raise NumericalError(
            f"edge ({g.labels[s]}, {g.labels[d]}) weight {weight} is too small to invert")

    count, labels = connected_components(g)
    sizes = np.bincount(labels, minlength=count)
    # the blocks of several components share one buffer, each copied in when
    # solved: with a buffer per block, glibc's malloc gave its heap back after
    # every component and faulted it in again for the next, 13k page faults
    # per call on an 8 x 400 graph
    store = np.empty(int((sizes[sizes >= 2] ** 2).sum())) if count > 1 else None
    blocks, used = [], 0
    local = np.empty(n, dtype=np.intp)  # each vertex's index within its component
    for comp, edges in zip(_grouped(labels, count), _grouped(labels[src], count)):
        k = len(comp)
        if k == 1:
            continue  # an isolated vertex's one entry is the diagonal's 0
        local[comp] = np.arange(k)
        rows = np.column_stack((local[src[edges]], local[dst[edges]], conductance[edges]))
        try:
            with np.errstate(over="raise"):
                pinv = laplacian_pseudoinverse(Graph(k, rows, directed=False))
                _resistances_in_place(pinv)
        except FloatingPointError:
            raise NumericalError("an effective resistance is too large for a float") from None
        if store is None:
            return _frozen(pinv, ERF_TAG)  # one component holds every vertex, in order
        block = store[used:used + k * k].reshape(k, k)
        used += k * k
        block[...] = pinv
        for array in (comp, block):
            array.setflags(write=False)
        blocks.append((comp, block))
    return RsmMatrix._of_blocks(n, blocks, ERF_TAG)


def _grouped(keys: np.ndarray, count: int) -> list[np.ndarray]:
    """Indices of ``keys`` per key in range(count), ascending within each group."""
    ends = np.cumsum(np.bincount(keys, minlength=count))[:-1]
    return np.split(np.argsort(keys, kind="stable"), ends)


def _resistances_in_place(pinv: np.ndarray) -> None:
    """Overwrite a pseudoinverse P with R[i, j] = (P[i, i] + P[j, j]) - 2 P[i, j].

    Rows go in blocks of at most ``_BLOCK_BYTES`` through one temporary, so
    no second n x n array is made. The diagonal comes out exactly 0, as
    P[i, i] + P[i, i] == 2 P[i, i].
    """
    k = len(pinv)
    diag = pinv.diagonal().copy()
    rows = _block_rows(k)
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


def violations_at(kind: str, spots, magnitude, names=None) -> list[Violation]:
    """A ``kind`` Violation at each True entry of a mask, in row-major order, or at each
    place a tuple of index arrays lists, in its order.

    ``where`` holds the place's indices as Python ints, or ``names[i]`` for
    each index i when ``names`` is given. The magnitude is the Python float
    of ``magnitude`` at that place: one per place, or for a mask, an array
    of its shape or a scalar that counts for every entry.
    """
    if isinstance(spots, np.ndarray):
        magnitude = np.broadcast_to(magnitude, spots.shape)[spots]
        spots = np.nonzero(spots)
    places = zip(*(index.tolist() for index in spots))
    if names is not None:
        places = (tuple(names[i] for i in place) for place in places)
    return [Violation(kind, where, size) for where, size in zip(places, magnitude.tolist())]


def listed_violations(violations: Sequence[Violation]) -> list[str]:
    """The indented lines both validation commands print: the first
    ``MAX_SHOWN_VIOLATIONS`` violations, then ``... N more`` for the rest."""
    lines = [f"  {v}" for v in violations[:MAX_SHOWN_VIOLATIONS]]
    if len(violations) > MAX_SHOWN_VIOLATIONS:
        lines.append(f"  ... {len(violations) - MAX_SHOWN_VIOLATIONS} more")
    return lines


@dataclass(frozen=True)
class RsmValidationReport:
    """Per-axiom outcome of validating a matrix against the RSM axioms.

    Flags are None when a check was not applicable (no source graph supplied,
    or symmetry on a directed graph). ``triangle`` covers both the triangle
    inequality and the cut-vertex additivity equality.

    A similarity ``CaseTable`` keeps one as its ``report`` too, with
    ``connectivity`` None. There ``tol`` is the slack of the table's triangle
    check, ``similarity.TRIANGLE_SLACK``; its other axioms are checked exactly.
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
            lines += listed_violations(self.violations)
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


def _block_rows(n: int) -> int:
    """How many rows of n float64 entries fit in ``_BLOCK_BYTES``; at least one."""
    return max(1, _BLOCK_BYTES // (8 * n))


def _two_leg_minima(vals: np.ndarray) -> tuple[np.ndarray, tuple[int, int], int, bool]:
    """best[i, j] = min over k of vals[i, k] + vals[k, j]; also the tile shape, workers, symmetry.

    The matrix is cut into tiles of rows I by columns J, about twice as tall
    as wide, with at most twice as many cells as a row block has rows. A
    tile's sums vals[I, k] + vals[k, J] go into one buffer, k running along
    its contiguous last axis, and are reduced along it; the buffer takes at
    most twice ``_BLOCK_BYTES`` (two rows if one row is larger), so it
    stays in L2. The legs vals[k, J] are the
    rows J of a bitwise-symmetric matrix, and otherwise a contiguous copy of
    the column block's transpose, made once per column block. Column blocks
    go to one thread each, up to the CPUs this process may run on; numpy's
    ``add`` and ``minimum`` release the GIL. Every sum is one float add and
    a minimum of floats is exact in any order, so the result depends on
    neither the tiling nor the workers. On a bitwise-symmetric matrix a
    column block J computes only the rows up to its own last column and
    mirrors them to its rows J: float addition commutes, so best[j, i] takes
    the minimum of the same sums as best[i, j] and equals it bit for bit.
    The column blocks then grow across the matrix, and the pool hands them
    out heaviest first.
    """
    n = len(vals)
    rows = _block_rows(n)
    width = min(n, math.isqrt(rows))
    height = min(n, 2 * rows // width)
    starts = range(0, n, width)
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        cpus = os.cpu_count() or 1
    workers = min(cpus, len(starts))
    symmetric = _bitwise_symmetric(vals)
    best = np.empty_like(vals)

    def fill(start: int) -> None:
        stop = min(start + width, n)
        last = stop if symmetric else n
        legs = vals[start:stop] if symmetric else np.ascontiguousarray(vals[:, start:stop].T)
        sums = np.empty((height, stop - start, n))
        # numpy's error state is per thread: an overflowed sum is +-inf, the right answer
        with np.errstate(over="ignore"):
            for top in range(0, last, height):
                bottom = min(top + height, last)
                tile = sums[:bottom - top]
                np.add(vals[top:bottom, None], legs, out=tile)
                tile.min(axis=2, out=best[top:bottom, start:stop])
        if symmetric:
            best[start:stop, :start] = best[:start, start:stop].T

    with ThreadPoolExecutor(workers) as pool:
        list(pool.map(fill, reversed(starts) if symmetric else starts))
    return best, (height, width), workers, symmetric


def triangle_breaks(vals: np.ndarray, tol: float) -> tuple[tuple, np.ndarray]:
    """Every finite entry of a square matrix that breaks the triangle inequality.

    Entry (i, j) breaks it when it exceeds the shortest two-leg route
    vals[i, k] + vals[k, j] by more than ``tol``. Returns index arrays
    (i, k, j), row by row, and the excesses; k, the first vertex of a
    shortest route, is found per batch of breaks, a row block's worth. A
    bitwise-symmetric matrix has its shortest routes computed from the upper
    triangle and mirrored, with the same result. Logs one DEBUG line: size,
    whether the matrix was symmetric, tile shape, workers, breaks and seconds.
    """
    started = time.perf_counter()
    best, (height, width), workers, symmetric = _two_leg_minima(vals)
    rows = _block_rows(len(vals))
    with np.errstate(over="ignore"):
        i, j = np.nonzero(np.isfinite(vals) & ~(vals <= best + tol))
        excess = vals[i, j] - best[i, j]
        k = np.empty_like(i)
        for s in range(0, len(i), rows):
            k[s:s + rows] = np.argmin(vals[i[s:s + rows]] + vals[:, j[s:s + rows]].T, axis=1)
    log.debug(
        "triangle check of a %d-vertex %smatrix in %dx%d tiles on %d worker(s): "
        "%d break(s), %.3f s", len(vals), "symmetric " if symmetric else "", height, width,
        workers, len(i), time.perf_counter() - started,
    )
    return (i, k, j), excess


def _check_cut_additivity(vals: np.ndarray, g: Graph, tol: float) -> tuple[tuple, np.ndarray]:
    """Each finite vals[a, b] off vals[a, w] + vals[w, b] by more than tol, w a cut vertex between.

    Returns index arrays (a, w, b) and the deviations, by w, then by the
    group of a, the group of b, a and b. Each of w's groups is checked
    against all the other groups at once. On a bitwise-symmetric matrix a
    group is checked only against the groups after it, and the deviations
    of the reverse pairs (b, w, a) are read from the same block: the add
    commutes, so they are equal bit for bit.
    """
    symmetric = _bitwise_symmetric(vals)
    hits = [(np.empty(0, dtype=np.intp),) * 5 + (np.empty(0),)]  # w, groups of a and b, a, b, dev
    for w, parts in _separations_by_cut_vertex(g):
        members = np.concatenate(parts)
        part_of = np.repeat(np.arange(len(parts)), [len(part) for part in parts])
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
            at_w, a_part, b_part = np.full(len(i), w), part_of[start + i], part_of[others][j]
            hits.append((at_w, a_part, b_part, a[i], b[j], dev[i, j]))
            if symmetric:
                hits.append((at_w, b_part, a_part, b[j], a[i], dev[i, j]))
    at_w, a_part, b_part, a_at, b_at, dev = (np.concatenate(column) for column in zip(*hits))
    order = np.lexsort((b_at, a_at, b_part, a_part, at_w))
    return (a_at[order], at_w[order], b_at[order]), dev[order]


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
        pattern = violations_at("infinity-pattern", np.isinf(vals) != unreachable(g), vals)

    triangle = violations_at("triangle", *triangle_breaks(vals, tol))
    if g is not None:
        triangle += violations_at("cut-additivity", *_check_cut_additivity(vals, g, tol))

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

def _row_texts(m: RsmMatrix, sep: str) -> Iterator[str]:
    """Each row, as it comes, as its entries' shortest round-trip reprs joined by ``sep``.

    ``float.__repr__`` spells a finite float as ``json.dumps`` does, and +inf
    as ``inf``; mapped over a row's list it runs at C speed. A
    bitwise-symmetric matrix formats each entry once: row i formats
    ``vals[i, i:]`` and takes its lower part from the texts the rows above
    left pending for it.
    """
    vals = m.values
    if not _bitwise_symmetric(vals):
        yield from (sep.join(map(float.__repr__, row.tolist())) for row in vals)
        return
    pending = [[] for _ in vals]  # pending[0] is the lower part of the next row
    for i, row in enumerate(vals):
        texts = pending.pop(0)
        upper = list(map(float.__repr__, row[i:].tolist()))
        for column, text in zip(pending, upper[1:]):
            column.append(text)
        texts += upper
        yield sep.join(texts)


def rsm_to_csv(m: RsmMatrix) -> str:
    """Row-major CSV with an ``inf`` token for +inf, full float precision."""
    return "".join([row + "\n" for row in _row_texts(m, ",")])


class _Rows:
    """Rows copied, as they come, into a float64 matrix as wide as the first.

    It is allocated only if ``room`` characters, one at least per entry, can
    hold it, and dropped at a ragged row, when a shape error is certain.
    """

    def __init__(self, room: int):
        self.room, self.values, self.count, self.width, self.overflow = room, None, 0, 0, False
        self.tagged_inf, self.error = 0, None  # a JSON array's "inf" tags and first bad row

    def add(self, row: list) -> None:
        if not self.count:
            self.width = len(row)
            self.values = np.empty((self.width,) * 2) if self.width ** 2 <= self.room else None
        if len(row) != self.width:
            self.values = None
        elif self.values is not None and self.count < self.width:
            try:
                self.values[self.count] = row
            except OverflowError:  # an integer too large for a float
                self.overflow = True
        self.count += 1

    def square(self) -> np.ndarray:
        if self.values is None or self.count != self.width:
            raise DimensionMismatchError(f"expected a square matrix, got {self.count} rows "
                                         f"of width {self.width}")
        return self.values


#: How ``float`` spells infinity, after the sign; any other literal it reads
#: as infinite is a finite number too large for a float.
_INF_SPELLINGS = {"inf", "infinity"}


def _csv_row(line: str, lineno: int) -> list[float]:
    """One stripped CSV line's entries: by one ``map(float, ...)`` if it is made of digits,
    signs, points, exponents, commas, spaces and the token ``inf`` alone, which ``number``
    reads alike, and its only infinite entries are its ``inf`` tokens, each +inf; else token
    by token with ``number``, where the first bad token raises ParseError."""
    if not line.replace("inf", "").encode().translate(None, b"0123456789+-.eE, "):
        with suppress(ValueError):
            row = list(map(float, line.split(",")))
            # a finite sum is the cheap test; else each inf token is +-inf, so equal counts
            # and no -inf leave out -inf and literals too large for a float
            if math.isfinite(sum(row)) or (row.count(math.inf) == line.count("inf")
                                           and -math.inf not in row):
                return row
    row = []
    for tok in line.split(","):
        tok = tok.strip(" \t")
        try:  # float's own verdicts on the entry come before its spelling's
            v = float(tok)
            if math.isnan(v):
                raise ParseError(f"NaN matrix entry {tok!r}", lineno)
            if math.isinf(v) and tok.lstrip("+-").lower() not in _INF_SPELLINGS:
                raise ParseError(f"matrix entry {tok!r} is too large for a float", lineno)
            row.append(number(tok))
        except ValueError:
            raise ParseError(f"bad matrix entry {tok!r}", lineno) from None
    return row


def rsm_from_csv(text: str) -> RsmMatrix:
    """Read a CSV matrix line by line into one float64 array; a shape error comes last."""
    rows = _Rows(len(text))
    for lineno, raw in enumerate(text_lines(text), start=1):
        if line := raw.strip(" \t"):
            rows.add(_csv_row(line, lineno))
    if not rows.count:
        raise ParseError("empty matrix")
    return _frozen(rows.square(), EXTERNAL_TAG)


def rsm_to_json(m: RsmMatrix) -> str:
    """JSON document with nested value arrays; +inf becomes the string "inf".

    The layout is exactly ``json.dumps(doc, indent=2)``'s. A finite float's
    repr never contains ``inf``, so replacing it quotes only +inf entries.
    """
    rows = [row.replace("inf", '"inf"') for row in _row_texts(m, ",\n      ")]
    rows[0] = '{\n  "rsm": ' + json.dumps(m.source_rsm) + ',\n  "values": [\n    [\n      ' + rows[0]
    rows[-1] += "\n    ]\n  ]\n}\n"
    return "\n    ],\n    [\n      ".join(rows)


#: Entry types ``json.loads`` yields for numbers. Containers are tested with
#: ``set(map(type, c)) <= JSON_NUMBER_TYPES``: by type, not ``isinstance``, so a
#: ``bool`` (an ``int`` subclass) is refused; and not by dtype, which numpy
#: gives ``[[True, 1]]`` as int64 and ``[[0.5, True]]`` as float64.
JSON_NUMBER_TYPES = frozenset({float, int})
#: ``json.loads`` reads the literal ``Infinity`` as the "inf" tag, so that any
#: other infinite float it returns is a finite literal too large for a float.
_JSON_CONSTANTS = {"Infinity": "inf", "-Infinity": -math.inf, "NaN": math.nan}
#: JSON around the keys, values and rows decoded one by one; "end" is where a
#: container closes. No lookahead takes whitespace, so a run of it cannot shrink.
_JSON_OBJECT = re.compile(r'[ \t\n\r]*\{[ \t\n\r]*(?:(?P<end>\}[ \t\n\r]*\Z)|(?="))')
_JSON_COLON = re.compile(r"[ \t\n\r]*:[ \t\n\r]*")
_JSON_NEXT_KEY = re.compile(r'[ \t\n\r]*(?:(?P<end>\}[ \t\n\r]*\Z)|,[ \t\n\r]*(?="))')
_JSON_ROWS = re.compile(r"\[[ \t\n\r]*(?![ \t\n\r\]])")
_JSON_NEXT_ROW = re.compile(r"[ \t\n\r]*(?:(?P<end>\])|,[ \t\n\r]*(?![ \t\n\r\]]))")
_NOT_A_MATRIX = 'matrix JSON must be an object with a "values" key'


def json_int(text: str) -> int:
    """A JSON integer literal's value; past Python's int-digit limit, 10**400 with its sign.

    Either way the number is too large for a float exactly when the literal is,
    so the readers refuse an over-long literal as they do any such integer.
    """
    try:
        return int(text)
    except ValueError:  # more digits than ``int`` converts
        return -10**400 if text[0] == "-" else 10**400


def _refuse_json(text: str) -> NoReturn:
    """Raise json's own error for ``text``; if it is JSON, it is not an object: raise ours."""
    json.loads(text, parse_constant=_JSON_CONSTANTS.__getitem__, parse_int=json_int)
    raise ParseError(_NOT_A_MATRIX)


def _json_rows(text: str, pos: int, decode) -> tuple[_Rows, int]:
    """The rows of the nonempty array whose first row is at ``pos``, and where it ends.

    The first row that fails ``json.loads``'s checks is kept as the error,
    since a syntax error after it comes first.
    """
    rows, end = _Rows(len(text)), False
    while not end:
        row, pos = decode(text, pos)
        step = _JSON_NEXT_ROW.match(text, pos) or _refuse_json(text)
        pos, end = step.end(), step["end"]
        if rows.error:
            continue
        if not isinstance(row, list):
            rows.error = ParseError("matrix rows must be arrays")
        elif not set(map(type, row)) <= JSON_NUMBER_TYPES:
            rows.tagged_inf += row.count("inf")
            row = [math.inf if v == "inf" else v for v in row]
            bad = [v for v in row if type(v) not in JSON_NUMBER_TYPES]
            rows.error = ParseError(f"bad matrix entry {bad[0]!r}") if bad else None
        if not rows.error:
            rows.add(row)
    return rows, pos


def rsm_from_json(text: str) -> RsmMatrix:
    """Read a matrix JSON document, one row at a time, into one float64 array.

    The top-level object and its "values" array are walked here; each key,
    other value and row is decoded by itself. Errors come in ``json.loads``'s
    order and then: no "values", the tag, "values" not a nonempty array, the
    rows in order, the shape, integer overflow, NaN, a literal that overflows.
    """
    decode = json.JSONDecoder(parse_constant=_JSON_CONSTANTS.__getitem__,
                              parse_int=json_int).raw_decode
    doc = {}  # a repeated key counts with its last value, as in json.loads
    try:
        step = _JSON_OBJECT.match(text) or _refuse_json(text)
        while not step["end"]:
            key, pos = decode(text, step.end())
            pos = (_JSON_COLON.match(text, pos) or _refuse_json(text)).end()
            start = _JSON_ROWS.match(text, pos) if key == "values" else None
            doc[key], pos = _json_rows(text, start.end(), decode) if start else decode(text, pos)
            step = _JSON_NEXT_KEY.match(text, pos) or _refuse_json(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # the latter: arrays nested too deep
        raise ParseError(f"bad matrix JSON: {exc}") from exc
    if "values" not in doc:
        raise ParseError(_NOT_A_MATRIX)
    tag = doc.get("rsm", EXTERNAL_TAG)
    if not isinstance(tag, str):
        raise ParseError(f'matrix JSON "rsm" tag must be a string, not {json.dumps(tag)}')
    rows = doc["values"]
    if not isinstance(rows, _Rows):
        raise ParseError('"values" must be a nonempty array of rows')
    if rows.error:
        raise rows.error
    values = rows.square()
    if rows.overflow:
        raise ParseError("integer matrix entry too large for a float")
    if np.isnan(values).any():
        raise ParseError("bad matrix entry nan")
    if np.count_nonzero(np.isposinf(values)) != rows.tagged_inf:
        raise ParseError("finite matrix entry too large for a float")
    return _frozen(values, tag)
