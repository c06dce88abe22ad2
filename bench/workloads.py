"""Seeded inputs, reference answers and output checks for the benchmark.

Every answer the benchmark checks against is computed here without rsmc:
effective resistance from numpy's pseudoinverse, shortest paths from scipy's
Dijkstra, and maximal communities from networkx's clique search on the
reference matrix thresholded at the same epsilon. The program under test
only ever sees the edge-list files written here.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import networkx as nx
import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, dijkstra

#: The CLI's default --tol, which the benchmark leaves unset.
REFINE_TOL = 1e-9
#: No reference entry may lie this close to a threshold, so that last-bit
#: differences between solvers cannot move a pair across it.
MARGIN = 1e-7
#: Epsilon for `detect` sits in the widest gap between entries in this
#: quantile band, so the work done varies little from seed to seed.
DETECT_QUANTILES = (0.0195, 0.0205)
#: The sweep's 21 epsilons span these quantiles of the entries.
SWEEP_QUANTILES = (0.005, 0.02)
SWEEP_STEPS = 20


@dataclass(frozen=True)
class Workload:
    """One benchmarked CLI job.

    ``kind`` selects the commands ("detect", "sweep" or "matrix");
    ``components`` lists the vertex count of each connected component of
    the generated graph, or is empty for the karate club graph.
    """

    name: str
    kind: str
    components: tuple[int, ...]


#: Why each workload was chosen is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w for w in (
        Workload("detect-erf-2k", "detect", (2000,)),
        Workload("sweep-erf-8x400", "sweep", (400,) * 8),
        Workload("matrix-validate-1k", "matrix", (1000,)),
    )
}

#: Tiny variants that run every path in a second; used by selftest.py.
TINY_WORKLOADS = {
    "detect-erf-2k": Workload("detect-karate", "detect", ()),
    "sweep-erf-8x400": Workload("sweep-3x20", "sweep", (20,) * 3),
    "matrix-validate-1k": Workload("matrix-karate", "matrix", ()),
}


@dataclass(frozen=True)
class Inputs:
    """The CLI commands of one iteration and the reference their outputs must match."""

    commands: list[list[str]]
    expected: object


# ---------------------------------------------------------------------------
# Graphs
# ---------------------------------------------------------------------------

def _random_component(rng: np.random.Generator, n: int) -> list[tuple[int, int]]:
    """A random spanning tree on n vertices plus uniform extra edges up to m = 3n."""
    order = rng.permutation(n)
    attach = rng.integers(0, np.arange(1, n))
    pairs = {tuple(sorted((int(order[i + 1]), int(order[a])))) for i, a in enumerate(attach)}
    target = min(3 * n, n * (n - 1) // 2)
    while len(pairs) < target:
        u, v = (int(x) for x in rng.integers(0, n, 2))
        if u != v:
            pairs.add((min(u, v), max(u, v)))
    return sorted(pairs)


def _karate_edges() -> list[tuple[int, int]]:
    """The 78 edges of Zachary's karate club, 0-based."""
    g = nx.karate_club_graph()
    return sorted((min(u, v), max(u, v)) for u, v in g.edges())


def make_graph(w: Workload, rng: np.random.Generator):
    """Vertex count, edge endpoints (int arrays) and weights of a workload's graph.

    Random graphs get weights U[0.5, 2]; karate keeps unit weights. Edges
    come out shuffled and randomly oriented, as an edge list from elsewhere
    would.
    """
    if not w.components:
        pairs = _karate_edges()
        n = 34
        weights = np.ones(len(pairs))
    else:
        pairs, n = [], 0
        for size in w.components:
            pairs += [(u + n, v + n) for u, v in _random_component(rng, size)]
            n += size
        weights = rng.uniform(0.5, 2.0, len(pairs))
    ends = np.array(pairs, dtype=np.int64)
    perm = rng.permutation(len(pairs))
    ends, weights = ends[perm], weights[perm]
    flip = rng.random(len(pairs)) < 0.5
    ends[flip] = ends[flip][:, ::-1]
    return n, ends, weights


def write_edge_list(path: Path, ends: np.ndarray, weights: np.ndarray) -> list[int]:
    """Write ``v<i>`` labelled edges; return vertex ids in order of first appearance."""
    seen: dict[int, None] = {}
    lines = []
    for (u, v), wt in zip(ends.tolist(), weights.tolist()):
        seen.setdefault(u)
        seen.setdefault(v)
        lines.append(f"v{u}\tv{v}\t{wt!r}\n")
    path.write_text("".join(lines), encoding="utf-8")
    return list(seen)


# ---------------------------------------------------------------------------
# Reference matrices
# ---------------------------------------------------------------------------

def _adjacency(n: int, ends: np.ndarray, values: np.ndarray) -> csr_matrix:
    rows = np.concatenate([ends[:, 0], ends[:, 1]])
    cols = np.concatenate([ends[:, 1], ends[:, 0]])
    return csr_matrix((np.concatenate([values, values]), (rows, cols)), shape=(n, n))


def erf_reference(n: int, ends: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Effective resistance with each edge a resistor of its weight, +inf across components."""
    adj = _adjacency(n, ends, 1.0 / weights)
    lap = -adj.toarray()
    lap[np.diag_indices(n)] = np.asarray(adj.sum(axis=1)).ravel()
    count, comp = connected_components(adj, directed=False)
    res = np.full((n, n), np.inf)
    for c in range(count):
        idx = np.flatnonzero(comp == c)
        pinv = np.linalg.pinv(lap[np.ix_(idx, idx)], hermitian=True)
        d = np.diag(pinv)
        res[np.ix_(idx, idx)] = d[:, None] + d[None, :] - 2.0 * pinv
    np.fill_diagonal(res, 0.0)
    return (res + res.T) / 2.0


def sdf_reference(n: int, ends: np.ndarray, weights: np.ndarray) -> np.ndarray:
    return dijkstra(_adjacency(n, ends, weights), directed=False)


def _pair_values(res: np.ndarray):
    """Finite entries above the diagonal, sorted, with their (i, j) indices."""
    iu, ju = np.triu_indices(res.shape[0], k=1)
    vals = res[iu, ju]
    finite = np.isfinite(vals)
    iu, ju, vals = iu[finite], ju[finite], vals[finite]
    order = np.argsort(vals, kind="stable")
    return vals[order], iu[order], ju[order]


def _clear_of_entries(thresholds: list[float], distinct: np.ndarray) -> bool:
    """True when no entry lies within MARGIN of any threshold + tol."""
    t = np.asarray(thresholds) + REFINE_TOL
    k = np.searchsorted(distinct, t)
    below = distinct[np.clip(k - 1, 0, len(distinct) - 1)]
    above = distinct[np.clip(k, 0, len(distinct) - 1)]
    return bool(np.all(np.minimum(np.abs(t - below), np.abs(above - t)) > MARGIN))


def detect_epsilon(vals: np.ndarray) -> float:
    """Midpoint of the widest gap between distinct entries in DETECT_QUANTILES."""
    distinct = np.unique(vals)
    lo, hi = np.searchsorted(distinct, np.quantile(vals, DETECT_QUANTILES))
    lo, hi = max(int(lo) - 1, 0), min(int(hi), len(distinct) - 1)
    k = lo + int(np.argmax(np.diff(distinct[lo:hi + 1])))
    eps = float((distinct[k] + distinct[k + 1]) / 2.0)
    if not _clear_of_entries([eps], distinct):
        raise RuntimeError(f"no gap wider than {2 * MARGIN:g} near the detect quantile")
    return eps


def sweep_grid(lo: float, hi: float, step: float) -> list[float]:
    """The epsilons `detect --epsilon-sweep LO:HI:STEP` visits, in order."""
    values, k = [], 0
    while lo + k * step <= hi + step * 1e-9:
        values.append(min(lo + k * step, hi))
        k += 1
    return values


def sweep_range(vals: np.ndarray) -> tuple[float, float, float]:
    """LO, HI, STEP spanning SWEEP_QUANTILES, shifted until every epsilon clears MARGIN."""
    distinct = np.unique(vals)
    q_lo, q_hi = (float(x) for x in np.quantile(vals, SWEEP_QUANTILES))
    step = (q_hi - q_lo) / SWEEP_STEPS
    for shift in range(1000):
        lo = q_lo + shift * step / 1000.0
        hi = lo + SWEEP_STEPS * step
        if _clear_of_entries(sweep_grid(lo, hi, step), distinct):
            return lo, hi, step
    raise RuntimeError("no sweep grid keeps clear of the matrix entries")


def threshold_graph(n: int, sorted_pairs, eps: float) -> nx.Graph:
    """Pairs related at epsilon, as the CLI's default tol decides it."""
    vals, iu, ju = sorted_pairs
    stop = int(np.searchsorted(vals, eps + REFINE_TOL, side="right"))
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(zip(iu[:stop].tolist(), ju[:stop].tolist()))
    return g


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------

def build_inputs(w: Workload, seed: int, work: Path) -> Inputs:
    """Write the seeded graph into ``work``; return the commands and the reference.

    Command arguments holding ``{i}`` name per-iteration output files; the
    worker substitutes the iteration number.
    """
    rng = np.random.default_rng(seed)
    n, ends, weights = make_graph(w, rng)
    graph = str(work / "graph.tsv")
    order = write_edge_list(Path(graph), ends, weights)

    out = str(output_path(w, work, "{i}"))
    if w.kind == "matrix":
        ref = sdf_reference(n, ends, weights)
        commands = [
            ["matrix", "--input", graph, "--rsm", "sdf", "--format", "json", "--out", out],
            ["validate-rsm", "--matrix", out, "--input", graph],
        ]
        # rsmc numbers vertices by first appearance in the file
        return Inputs(commands, ref[np.ix_(order, order)])

    res = erf_reference(n, ends, weights)
    pairs = _pair_values(res)
    if w.kind == "detect":
        eps = detect_epsilon(pairs[0])
        cliques = nx.find_cliques(threshold_graph(n, pairs, eps))
        expected = {frozenset(f"v{v}" for v in c) for c in cliques}
        commands = [["detect", "--input", graph, "--rsm", "erf", "--epsilon", repr(eps),
                     "--out", out]]
        return Inputs(commands, (eps, expected))

    lo, hi, step = sweep_range(pairs[0])
    grid = sweep_grid(lo, hi, step)
    counts = [sum(1 for _ in nx.find_cliques(threshold_graph(n, pairs, e))) for e in grid]
    commands = [["detect", "--input", graph, "--rsm", "erf",
                 "--epsilon-sweep", f"{lo!r}:{hi!r}:{step!r}",
                 "--out", out]]
    return Inputs(commands, (grid, counts))


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def output_path(w: Workload, work: Path, i: int | str) -> Path:
    suffix = {"detect": "communities.json", "sweep": "sweep.csv", "matrix": "matrix.json"}
    return work / f"{i}.{suffix[w.kind]}"


def check(w: Workload, inputs: Inputs, work: Path, record: dict) -> str | None:
    """Why one iteration's outputs are wrong, or None when they match the reference."""
    if record["error"]:
        return record["error"]
    if any(rc != 0 for rc in record["rcs"]) or len(record["rcs"]) != len(inputs.commands):
        return f"exit codes {record['rcs']}"
    path = output_path(w, work, record["i"])
    if w.kind == "detect":
        eps, expected = inputs.expected
        doc = json.loads(path.read_text(encoding="utf-8"))
        got = [frozenset(c) for c in doc["communities"]]
        if doc["rsm"] != "erf" or doc["epsilon"] != eps:
            return f"header rsm={doc['rsm']!r} epsilon={doc['epsilon']!r}"
        if len(got) != len(set(got)) or set(got) != expected:
            return (f"{len(got)} communities, {len(set(got) - expected)} unexpected, "
                    f"{len(expected - set(got))} missing")
        return None
    if w.kind == "sweep":
        grid, counts = inputs.expected
        want = ["epsilon,communities"] + [f"{e:g},{c}" for e, c in zip(grid, counts)]
        got = path.read_text(encoding="utf-8").splitlines()
        bad = [(a, b) for a, b in zip(got, want) if a != b]
        if len(got) != len(want) or bad:
            return f"{len(got)} lines, first mismatch (got, want) {bad[:1]}"
        return None
    doc = json.loads(path.read_text(encoding="utf-8"))
    got = np.array([[math.inf if v == "inf" else v for v in row] for row in doc["values"]],
                   dtype=float)
    ref = inputs.expected
    if doc["rsm"] != "sdf" or got.shape != ref.shape:
        return f"matrix rsm={doc['rsm']!r} shape={got.shape}"
    if (np.isinf(got) != np.isinf(ref)).any() or not np.allclose(
            got[np.isfinite(ref)], ref[np.isfinite(ref)], rtol=1e-12, atol=0.0):
        return "matrix differs from the Dijkstra reference"
    report = record["stdout"][1].splitlines()
    if len(report) != 5 or any(line.split()[-1] != "pass" for line in report):
        return f"validate-rsm reported {report}"
    return None


def corrupt(w: Workload, work: Path, i: int) -> None:
    """Make iteration i's output wrong in a way check() must catch."""
    path = output_path(w, work, i)
    if w.kind == "detect":
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc["communities"].pop()
        path.write_text(json.dumps(doc), encoding="utf-8")
    elif w.kind == "sweep":
        lines = path.read_text(encoding="utf-8").splitlines()
        eps, count = lines[1].split(",")
        lines[1] = f"{eps},{int(count) + 1}"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    else:
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc["values"][0][1] = doc["values"][0][1] * 1.001
        path.write_text(json.dumps(doc), encoding="utf-8")
