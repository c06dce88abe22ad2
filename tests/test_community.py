"""Refinement, community predicate, clique enumeration vs exhaustive oracle."""

import csv
import io
import json
import logging
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, minimum_spanning_tree

from rsmc import (
    Community,
    EffectiveEdgeGraph,
    Graph,
    RsmMatrix,
    ThresholdError,
    communities_to_csv,
    communities_to_dot,
    communities_to_json,
    count_maximal_communities,
    enumerate_maximal_communities,
    erf_matrix,
    load_builtin_dataset,
    refine,
    sdf_matrix,
)
from rsmc import community
from rsmc.community import REFINE_TOL

from graphgen import edge_set, path_graph, random_eeg
from oracles import (
    TooLargeError,
    UnknownVertexError,
    brute_force_maximal_communities,
    is_community,
    loop_refine_pairs,
    loop_sweep_counts,
)


def eeg_from(n, pairs, epsilon=1.0, tag="external"):
    # the constructor takes pairs as refine gives them: u < v, rows strictly ascending
    edges = np.array(sorted({(min(p), max(p)) for p in pairs}), dtype=np.intp).reshape(-1, 2)
    return EffectiveEdgeGraph(vertex_count=n, edges=edges, epsilon=epsilon, rsm_tag=tag)


def members(communities):
    return [tuple(sorted(c.members)) for c in communities]


# ---------------------------------------------------------------------------
# Refinement
# ---------------------------------------------------------------------------

def test_refine_requires_both_directions():
    m = RsmMatrix(np.array([[0.0, 1.0], [2.0, 0.0]]), "external")
    assert edge_set(refine(m, 1.5)) == set()
    assert edge_set(refine(m, 2.0)) == {(0, 1)}


def test_refine_epsilon_zero_tol_zero():
    m = sdf_matrix(path_graph(4))
    assert edge_set(refine(m, 0.0, tol=0.0)) == set()


def test_refine_path_sdf():
    eeg = refine(sdf_matrix(path_graph(3)), 1.0)
    assert edge_set(eeg) == {(0, 1), (1, 2)}
    assert eeg.rsm_tag == "sdf"
    assert eeg.epsilon == 1.0


def test_refine_infinity_never_passes():
    vals = np.array([[0.0, np.inf], [np.inf, 0.0]])
    eeg = refine(RsmMatrix(vals, "external"), 1e300)
    assert edge_set(eeg) == set()


def test_refine_tolerance_is_additive():
    m = RsmMatrix(np.array([[0.0, 1.0 + 5e-10], [1.0 + 5e-10, 0.0]]), "external")
    assert edge_set(refine(m, 1.0, tol=1e-9)) == {(0, 1)}
    assert edge_set(refine(m, 1.0, tol=0.0)) == set()


def test_refine_rejects_bad_epsilon():
    m = sdf_matrix(path_graph(2))
    with pytest.raises(ThresholdError):
        refine(m, -0.5)
    with pytest.raises(ThresholdError):
        refine(m, float("nan"))
    with pytest.raises(ValueError):
        refine(m, float("inf"))
    with pytest.raises(ValueError):
        refine(m, 1.0, tol=-1e-9)


@pytest.mark.parametrize("epsilon, tol", [
    (float("inf"), 1e-9),
    (1.0, float("inf")),
    (1.0, float("nan")),
    (1.7e308, 1e308),
])
def test_refine_rejects_non_finite_threshold(epsilon, tol):
    with pytest.raises(ThresholdError):
        refine(sdf_matrix(path_graph(2)), epsilon, tol=tol)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.floats(0, 5), st.floats(0, 5))
def test_refine_epsilon_monotone(seed, eps_a, eps_b):
    rng = np.random.RandomState(seed)
    n = rng.randint(2, 9)
    sym = rng.uniform(0.1, 4.0, size=(n, n))
    sym = (sym + sym.T) / 2
    np.fill_diagonal(sym, 0.0)
    m = RsmMatrix(sym, "external")
    lo, hi = min(eps_a, eps_b), max(eps_a, eps_b)
    assert edge_set(refine(m, lo)) <= edge_set(refine(m, hi))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_refine_monotone_under_masking(seed):
    # dropping ordered pairs (set to inf) can only remove effective edges
    rng = np.random.RandomState(seed)
    n = rng.randint(2, 9)
    base = rng.uniform(0.1, 4.0, size=(n, n))
    np.fill_diagonal(base, 0.0)
    masked = base.copy()
    masked[rng.rand(n, n) < 0.3] = np.inf
    np.fill_diagonal(masked, 0.0)
    eps = float(rng.uniform(0.5, 3.0))
    full = refine(RsmMatrix(base, "external"), eps)
    sub = refine(RsmMatrix(masked, "external"), eps)
    assert edge_set(sub) <= edge_set(full)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_refine_matches_loop_oracle(data):
    epsilon = data.draw(st.floats(0, 10))
    tol = data.draw(st.sampled_from([0.0, 1e-9, 0.5]))
    thr = epsilon + tol
    # entries exactly at the threshold and one ulp to either side, +inf, and anything else
    entry = st.one_of(
        st.sampled_from([thr, np.nextafter(thr, -np.inf), np.nextafter(thr, np.inf), np.inf]),
        st.floats(0, 2 * thr + 1),
    )
    n = data.draw(st.integers(1, 7))
    vals = np.array(data.draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                                       min_size=n, max_size=n)))
    edges = refine(RsmMatrix(vals, "external"), epsilon, tol).edges
    want = loop_refine_pairs(vals, epsilon, tol)
    assert edges.tolist() == want
    assert edges.dtype == np.intp and edges.shape == (len(want), 2)
    assert not edges.flags.writeable


@pytest.mark.parametrize("alpha", [0.5, 2.0, 10.0])
def test_refine_scaling_invariance(alpha):
    for seed in range(20):
        rng = np.random.RandomState(seed)
        n = rng.randint(2, 9)
        sym = rng.uniform(0.1, 4.0, size=(n, n))
        sym = (sym + sym.T) / 2
        np.fill_diagonal(sym, 0.0)
        m = RsmMatrix(sym, "external")
        scaled = RsmMatrix(alpha * sym, "external")
        eps = float(rng.uniform(0.2, 3.0))
        assert edge_set(refine(m, eps, tol=0.0)) == edge_set(refine(scaled, alpha * eps, tol=0.0))


# ---------------------------------------------------------------------------
# Community predicate
# ---------------------------------------------------------------------------

def test_is_community_base_cases():
    eeg = eeg_from(3, {(0, 1), (1, 2)})
    assert is_community([], eeg)
    assert is_community([1], eeg)
    assert is_community([0, 1], eeg)
    assert not is_community([0, 2], eeg)
    assert not is_community([0, 1, 2], eeg)


def test_is_community_triangle():
    assert is_community([0, 1, 2], eeg_from(3, {(0, 1), (1, 2), (0, 2)}))


def test_is_community_unknown_vertex():
    eeg = eeg_from(2, {(0, 1)})
    with pytest.raises(UnknownVertexError):
        is_community([0, 5], eeg)
    with pytest.raises(UnknownVertexError):
        is_community([-1], eeg)


# ---------------------------------------------------------------------------
# Counting over an epsilon sweep
# ---------------------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(st.data())
def test_sweep_counts_match_refine_and_oracle(data):
    pool = data.draw(st.lists(st.floats(0, 10), min_size=1, max_size=3))
    # unsorted, possibly repeated epsilons
    epsilons = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6))
    tol = data.draw(st.sampled_from([0.0, 1e-9, 0.5]))
    # entries exactly at each threshold and one ulp to either side, +inf, and anything else
    near = [t for e in epsilons for t in (e + tol, np.nextafter(e + tol, -np.inf),
                                          np.nextafter(e + tol, np.inf))]
    entry = st.one_of(st.sampled_from(near + [np.inf]), st.floats(0, 2 * max(near) + 1))
    n = data.draw(st.integers(1, 7))
    vals = np.array(data.draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                                       min_size=n, max_size=n)))
    for v in data.draw(st.sets(st.integers(0, n - 1), max_size=3)):
        vals[v, :] = vals[:, v] = np.inf  # an isolated vertex at every epsilon
    m = RsmMatrix(vals, "external")
    counts = count_maximal_communities(m, epsilons, tol)
    assert counts == loop_sweep_counts(vals, epsilons, tol)
    assert counts == [len(enumerate_maximal_communities(refine(m, e, tol))) for e in epsilons]


@pytest.mark.parametrize("epsilons, tol, error", [
    ([-0.5], 1e-9, ThresholdError),
    ([float("nan")], 1e-9, ThresholdError),
    ([1.0, -0.5], 1e-9, ThresholdError),
    ([float("inf")], 1e-9, ThresholdError),
    ([1.0], float("inf"), ThresholdError),
    ([1.0], float("nan"), ThresholdError),
    ([1.0], -1e-9, ThresholdError),
    ([1.7e308], 1e308, ThresholdError),
])
def test_sweep_counts_reject_what_refine_rejects(epsilons, tol, error):
    m = sdf_matrix(path_graph(2))
    with pytest.raises(error):
        refine(m, epsilons[-1], tol)
    with pytest.raises(error):
        count_maximal_communities(m, epsilons, tol)


def test_sweep_counts_of_no_epsilons():
    assert count_maximal_communities(sdf_matrix(path_graph(2)), []) == []


def test_sweep_counts_log_one_debug_line_per_epsilon(caplog):
    vals = np.full((4, 4), np.inf)  # a 3-vertex path and an isolated vertex
    vals[:3, :3] = sdf_matrix(path_graph(3)).values
    vals[3, 3] = 0.0
    with caplog.at_level(logging.DEBUG, logger="rsmc.community"):
        assert count_maximal_communities(RsmMatrix(vals, "sdf"), [2, 0, 1]) == [2, 4, 3]
    assert [r.getMessage() for r in caplog.records if r.name == "rsmc.community"] == [
        "epsilon 2: 3 related pairs, 2 components (largest 3), 2 maximal communities",
        "epsilon 0: 0 related pairs, 4 components (largest 1), 4 maximal communities",
        "epsilon 1: 2 related pairs, 2 components (largest 3), 3 maximal communities",
    ]


def test_sweep_log_counts_trivial_components(caplog):
    vals = np.full((5, 5), np.inf)  # pairs {1, 3} and {0, 4}, vertex 2 alone
    np.fill_diagonal(vals, 0.0)
    vals[1, 3] = vals[3, 1] = 1.0
    vals[0, 4] = vals[4, 0] = 2.0
    with caplog.at_level(logging.DEBUG, logger="rsmc.community"):
        assert count_maximal_communities(RsmMatrix(vals, "sdf"), [0, 1, 2]) == [5, 4, 3]
    assert [r.getMessage() for r in caplog.records if r.name == "rsmc.community"] == [
        "epsilon 0: 0 related pairs, 5 components (largest 1), 5 maximal communities",
        "epsilon 1: 1 related pairs, 4 components (largest 2), 4 maximal communities",
        "epsilon 2: 2 related pairs, 3 components (largest 2), 3 maximal communities",
    ]


def _mostly_trivial_matrix(data):
    """A matrix whose components are mostly 1 or 2 vertices, scattered over the labels.

    Pairs inside a group get strengths 1, 2 or 3 in each direction, so the
    groups split into smaller components at lower epsilons.
    """
    sizes = data.draw(st.lists(st.sampled_from([1, 1, 1, 2, 2, 3, 4]), min_size=1, max_size=10)
                      .filter(lambda s: sum(s) <= 12))
    n = sum(sizes)
    label = data.draw(st.permutations(range(n)))
    vals = np.full((n, n), np.inf)
    np.fill_diagonal(vals, 0.0)
    start = 0
    for k in sizes:
        group = label[start:start + k]
        for a, u in enumerate(group):
            for v in group[a + 1:]:
                vals[u, v] = data.draw(st.sampled_from([1.0, 2.0, 3.0]))
                vals[v, u] = data.draw(st.sampled_from([1.0, 2.0, 3.0]))
        start += k
    return vals


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_sweep_and_enumeration_over_mostly_trivial_components(data):
    vals = _mostly_trivial_matrix(data)
    epsilons = data.draw(st.lists(st.sampled_from([0.0, 1.0, 1.5, 2.0, 3.0]),
                                  min_size=1, max_size=4))
    m = RsmMatrix(vals, "external")
    assert count_maximal_communities(m, epsilons) == loop_sweep_counts(vals, epsilons, 1e-9)
    for epsilon in epsilons:
        eeg = refine(m, epsilon)
        assert enumerate_maximal_communities(eeg) == brute_force_maximal_communities(eeg)


class _Lines(logging.Handler):
    def __init__(self):
        super().__init__(logging.DEBUG)
        self.lines = []

    def emit(self, record):
        self.lines.append(record.getMessage())


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_sweep_debug_lines_count_each_epsilons_components(data):
    # the sweep labels components once; each epsilon's count and largest
    # component must still be those of a labelling at that epsilon
    vals = _mostly_trivial_matrix(data)
    epsilons = data.draw(st.lists(st.sampled_from([0.0, 1.0, 1.5, 2.0, 3.0]),
                                  min_size=1, max_size=4))
    m = RsmMatrix(vals, "external")
    expected = []
    for epsilon in epsilons:
        eeg = refine(m, epsilon)
        u, v = eeg.edges.T
        count, labels = connected_components(
            csr_matrix((np.ones(len(u)), (u, v)), shape=(m.n, m.n)))
        expected.append(f"epsilon {epsilon:g}: {len(u)} related pairs, {count} components "
                        f"(largest {np.bincount(labels).max()}), "
                        f"{len(enumerate_maximal_communities(eeg))} maximal communities")
    logger, handler = logging.getLogger("rsmc.community"), _Lines()
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.DEBUG)
    try:
        count_maximal_communities(m, epsilons)
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)
    assert handler.lines == expected


def test_sweep_labels_components_once(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return connected_components(*args, **kwargs)

    monkeypatch.setattr(community, "connected_components", counted)
    m = erf_matrix(load_builtin_dataset("karate"))
    for epsilons in ([1.5], [0.1 * k for k in range(21)]):
        calls.clear()
        counts = count_maximal_communities(m, epsilons)
        assert len(calls) <= 1
        assert counts == [len(enumerate_maximal_communities(refine(m, e))) for e in epsilons]


def test_sweep_builds_its_debug_forest_only_at_debug(monkeypatch, caplog):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return minimum_spanning_tree(*args, **kwargs)

    monkeypatch.setattr(community, "minimum_spanning_tree", counted)
    m = erf_matrix(load_builtin_dataset("karate"))
    epsilons = [0.1 * k for k in range(21)]
    for level, forests in ((logging.INFO, 0), (logging.DEBUG, 1)):
        calls.clear()
        with caplog.at_level(level, logger="rsmc.community"):
            counts = count_maximal_communities(m, epsilons)
        assert len(calls) == forests
        assert counts == [len(enumerate_maximal_communities(refine(m, e))) for e in epsilons]


def _hub_and_triangles():
    """Strengths on 11 vertices: triangles {0, 1, 2}, {3, 4, 5} and {6, 7, 8} at 1,
    a bridge {5, 6} at 1.5, and the hub 10, with the largest label and the most
    neighbours, at 2 to the first and last triangles; vertex 9 is alone."""
    vals = np.full((11, 11), np.inf)
    np.fill_diagonal(vals, 0.0)
    for pairs, strength in (([(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5),
                              (6, 7), (6, 8), (7, 8)], 1.0), ([(5, 6)], 1.5),
                            ([(v, 10) for v in (0, 1, 2, 6, 7, 8)], 2.0)):
        for u, v in pairs:
            vals[u, v] = vals[v, u] = strength
    return vals


def test_hub_with_the_largest_label_leads_the_bit_order():
    vals = _hub_and_triangles()
    m = RsmMatrix(vals, "external")
    eeg = refine(m, 2.0)
    found = enumerate_maximal_communities(eeg)
    assert found == brute_force_maximal_communities(eeg)
    assert members(found) == [(0, 1, 2, 10), (3, 4, 5), (5, 6), (6, 7, 8, 10), (9,)]
    epsilons = [2.0, 0.0, 1.0, 1.5, 2.5]
    assert count_maximal_communities(m, epsilons) == loop_sweep_counts(vals, epsilons, REFINE_TOL)


# ---------------------------------------------------------------------------
# Related pairs from an erf matrix's component blocks
# ---------------------------------------------------------------------------

def _scattered_components(data) -> Graph:
    """A graph of several components over shuffled labels: isolated vertices,
    single edges and larger components, with weights 1 or 2 so strengths tie."""
    sizes = data.draw(st.lists(st.sampled_from([1, 1, 2, 2, 3, 4, 5, 6]),
                               min_size=2, max_size=7))
    label = data.draw(st.permutations(range(sum(sizes))))
    edges, start = [], 0
    for k in sizes:
        group = label[start:start + k]
        start += k
        for a in range(k):
            for b in range(a + 1, k):
                # a path through the group keeps it connected; other pairs at random
                if b == a + 1 or data.draw(st.booleans()):
                    edges.append((group[a], group[b], data.draw(st.sampled_from([1.0, 2.0]))))
    return Graph(len(label), tuple(edges), directed=False)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_block_pairs_equal_dense_pairs(data):
    g = _scattered_components(data)
    blocked = erf_matrix(g)
    dense = RsmMatrix(erf_matrix(g).values.copy(), "erf")  # one block over every vertex
    assert len(dense.blocks) == 1
    # epsilon + tol exactly at a strength (tol 0) or just above it, and one ulp below
    finite = np.unique(dense.values[np.isfinite(dense.values)]).tolist()
    picked = data.draw(st.lists(st.sampled_from(finite), min_size=1, max_size=6))
    epsilons = picked + [float(np.nextafter(e, 0)) for e in picked]
    for tol in (0.0, REFINE_TOL):
        for epsilon in epsilons:
            assert np.array_equal(refine(blocked, epsilon, tol).edges,
                                  refine(dense, epsilon, tol).edges)
        assert (count_maximal_communities(blocked, epsilons, tol)
                == count_maximal_communities(dense, epsilons, tol))


def test_sweep_over_blocks_peaks_well_below_one_whole_matrix():
    # 8 components of 100 vertices, interleaved: one n x n float array is 5.1 MB
    rng = np.random.RandomState(5)
    label = rng.permutation(800)
    pairs = set()
    for group in label.reshape(8, 100).tolist():
        # a path keeps each component connected; 60 chords at random
        chords = [(group[i], group[j]) for i, j in rng.randint(0, 100, (60, 2)) if i != j]
        pairs.update((min(a, b), max(a, b)) for a, b in list(zip(group, group[1:])) + chords)
    g = Graph(800, tuple((a, b, 1.0) for a, b in sorted(pairs)), directed=False)
    tracemalloc.start()
    try:
        counts = count_maximal_communities(erf_matrix(g), [0.5, 0.8])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert min(counts) > 8
    assert peak < 8 * 800 ** 2 / 2  # building the whole matrix, as erf once did, peaked at 6.0 MB


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------

def test_enumerate_complete_graph():
    eeg = eeg_from(4, {(i, j) for i in range(4) for j in range(i + 1, 4)})
    assert members(enumerate_maximal_communities(eeg)) == [(0, 1, 2, 3)]


def test_enumerate_path():
    found = enumerate_maximal_communities(eeg_from(3, {(0, 1), (1, 2)}))
    assert members(found) == [(0, 1), (1, 2)]
    assert all(c.epsilon == 1.0 and c.rsm_tag == "external" for c in found)


def test_enumerate_edgeless_gives_singletons():
    assert members(enumerate_maximal_communities(eeg_from(3, set()))) == [(0,), (1,), (2,)]


def test_enumerate_orders_singletons_and_pairs_canonically():
    # each pair comes out ascending: (1, 3) sorts before (2,), where (3, 1) would not
    found = enumerate_maximal_communities(eeg_from(5, {(3, 1), (4, 0)}))
    assert [sorted(c.members) for c in found] == [[0, 4], [1, 3], [2]]
    found = enumerate_maximal_communities(eeg_from(4, {(1, 3)}))
    assert [sorted(c.members) for c in found] == [[0], [1, 3], [2]]


def test_enumerate_five_cycle():
    pairs = {(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)}
    found = enumerate_maximal_communities(eeg_from(5, pairs))
    assert members(found) == [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)]
    assert members(brute_force_maximal_communities(eeg_from(5, pairs))) == members(found)


def test_brute_force_size_cap():
    with pytest.raises(TooLargeError):
        brute_force_maximal_communities(eeg_from(21, set()))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_enumeration_equals_brute_force(seed):
    rng = np.random.RandomState(seed)
    eeg = random_eeg(rng, n_max=12)
    assert enumerate_maximal_communities(eeg) == brute_force_maximal_communities(eeg)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_enumeration_equals_brute_force_over_many_components(data):
    # components of 1, 2 and 3 or more vertices, their vertices scattered
    sizes = data.draw(st.lists(st.integers(1, 5), min_size=1, max_size=8)
                      .filter(lambda s: sum(s) <= 20))
    n = sum(sizes)
    label = data.draw(st.permutations(range(n)))
    pairs, start = set(), 0
    for k in sizes:
        group = range(start, start + k)
        chain = {(v, v + 1) for v in group[:-1]}  # keeps the component connected
        extra = {(u, v) for u in group for v in group if u + 1 < v}
        kept = data.draw(st.sets(st.sampled_from(sorted(extra)))) if extra else set()
        pairs |= {(label[u], label[v]) for u, v in chain | kept}
        start += k
    eeg = eeg_from(n, pairs)
    assert enumerate_maximal_communities(eeg) == brute_force_maximal_communities(eeg)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_every_vertex_is_covered(seed):
    rng = np.random.RandomState(seed)
    eeg = random_eeg(rng, n_max=12)
    covered = set()
    for c in enumerate_maximal_communities(eeg):
        covered |= c.members
    assert covered == set(range(eeg.vertex_count))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_maximality_and_downward_closure(seed):
    rng = np.random.RandomState(seed)
    eeg = random_eeg(rng, n_max=10)
    subset_rng = np.random.RandomState(seed + 1)
    for c in enumerate_maximal_communities(eeg):
        mem = sorted(c.members)
        for _ in range(10):
            subset = [v for v in mem if subset_rng.rand() < 0.5]
            assert is_community(subset, eeg)
        for v in range(eeg.vertex_count):
            if v not in c.members:
                assert not is_community(mem + [v], eeg)


def test_enumeration_matches_on_large_sparse_graph():
    # 400 disjoint triangles: many small cliques spread over 1200 vertices
    n = 1200
    pairs = set()
    for t in range(400):
        a, b, c = 3 * t, 3 * t + 1, 3 * t + 2
        pairs |= {(a, b), (b, c), (a, c)}
    found = enumerate_maximal_communities(eeg_from(n, pairs))
    assert len(found) == 400
    assert members(found) == [(3 * t, 3 * t + 1, 3 * t + 2) for t in range(400)]


def test_enumeration_peak_is_bounded_by_the_largest_component():
    # 30 groups of 200 vertices, interleaved, with 400 random pairs in each;
    # each large component is packed from its own square of at most 40 KB
    rng = np.random.RandomState(11)
    label = rng.permutation(6000)
    pairs = set()
    for group in label.reshape(30, 200):
        a, b = group[rng.randint(0, 200, (2, 400))]
        pairs.update((min(u, v), max(u, v)) for u, v in zip(a.tolist(), b.tolist()) if u != v)
    eeg = eeg_from(6000, pairs)
    tracemalloc.start()
    try:
        found = enumerate_maximal_communities(eeg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(len(c.members) == 2 for c in found) > 30 * 300
    assert peak < 12e6  # one bool square over all large components peaked at 40 MB


def test_enumerate_dense_threshold_gives_one_community():
    # a clique deeper than the interpreter's recursion limit
    n = 1200
    eeg = eeg_from(n, {(i, j) for i in range(n) for j in range(i + 1, n)})
    found = enumerate_maximal_communities(eeg)
    assert len(found) == 1
    assert found[0].members == frozenset(range(n))


def test_enumeration_matches_networkx_on_large_sparse_graph():
    nx = pytest.importorskip("networkx")
    # random geometric graph: 2000 points in the unit square, ~40k closest pairs
    rng = np.random.RandomState(2000)
    x, y = rng.rand(2, 2000)
    dist = np.hypot(x[:, None] - x[None, :], y[:, None] - y[None, :])
    eps = float(np.quantile(dist[np.triu_indices(2000, k=1)], 0.02))
    eeg = refine(RsmMatrix(dist, "external"), eps)
    assert 35_000 < len(eeg.edges) < 45_000
    g = nx.Graph()
    g.add_nodes_from(range(eeg.vertex_count))
    g.add_edges_from(eeg.edges)
    want = {frozenset(c) for c in nx.find_cliques(g)}
    found = enumerate_maximal_communities(eeg)
    assert len(found) == len(want)
    assert {c.members for c in found} == want


def test_eeg_validation():
    with pytest.raises(ValueError):
        eeg_from(2, {(0, 0)})
    with pytest.raises(ValueError):
        eeg_from(2, {(0, 5)})
    with pytest.raises(ValueError):
        EffectiveEdgeGraph(vertex_count=0, edges=frozenset(), epsilon=1.0, rsm_tag="x")
    # not m pairs: a (2, 3) or (3,) array is refused, never reshaped into pairs
    for bad in (np.array([[0, 1, 2], [1, 2, 0]]), np.array([0, 1, 2])):
        with pytest.raises(ValueError):
            EffectiveEdgeGraph(vertex_count=3, edges=bad, epsilon=1.0, rsm_tag="x")
    with pytest.raises(ValueError):
        eeg_from(3, {(-1, 1)})
    # a reversed pair, a repeated pair and descending rows are refused, never sorted
    for bad, row in (([[2, 1]], 0), ([[1, 2], [1, 2]], 1), ([[0, 2], [0, 1]], 1),
                     ([[0, 1], [1, 2], [0, 2]], 2)):
        with pytest.raises(ValueError, match="^" + re.escape(f"edges row {row}, {bad[row]}, ")):
            EffectiveEdgeGraph(vertex_count=3, edges=np.array(bad), epsilon=1.0, rsm_tag="x")
    given = np.array([[0, 1], [0, 2], [1, 2]])
    from_array = EffectiveEdgeGraph(vertex_count=3, edges=given, epsilon=1.0, rsm_tag="x")
    assert from_array.edges.tolist() == [[0, 1], [0, 2], [1, 2]]
    assert from_array.edges.dtype == np.intp
    with pytest.raises(ValueError):
        from_array.edges[0, 0] = 2
    assert given.flags.writeable  # the graph froze its own copy


def test_eeg_edges_of_vertices_beyond_int64_keys():
    # lo * n + hi overflows int64 here; the pairs must come through as given
    eeg = EffectiveEdgeGraph(vertex_count=4_000_000_000,
                             edges=[(1, 2), (3_000_000_000, 3_000_000_001)],
                             epsilon=1.0, rsm_tag="x")
    assert eeg.edges.tolist() == [[1, 2], [3000000000, 3000000001]]


def test_community_requires_members():
    with pytest.raises(ValueError):
        Community(members=frozenset(), epsilon=1.0, rsm_tag="x")


# ---------------------------------------------------------------------------
# Output formats
# ---------------------------------------------------------------------------

def test_json_output_structure():
    eeg = eeg_from(3, {(0, 1), (1, 2)}, epsilon=2.5, tag="sdf")
    found = enumerate_maximal_communities(eeg)
    doc = json.loads(communities_to_json(found, labels=["a", "b", "c"]))
    assert doc == {"epsilon": 2.5, "rsm": "sdf", "communities": [["a", "b"], ["b", "c"]]}


def test_json_output_default_labels_and_errors():
    eeg = eeg_from(2, {(0, 1)})
    found = enumerate_maximal_communities(eeg)
    doc = json.loads(communities_to_json(found))
    assert doc["communities"] == [["0", "1"]]
    with pytest.raises(ValueError):
        communities_to_json([])
    with pytest.raises(ValueError):
        communities_to_json(found, labels=["only-one"])


@pytest.mark.parametrize("labels", [
    None,
    ["a", 'say "hi"', "back\\slash", "caf\u00e9 \u2603", "tab\tnew\nline\x00\x1f", ""],
])
@pytest.mark.parametrize("epsilon", [0.1, 3, float("inf")])
def test_json_output_matches_json_dumps_indent_2(labels, epsilon):
    eeg = eeg_from(6, {(0, 1), (1, 2), (0, 2), (3, 4)}, tag='tag "q"')
    found = [Community(c.members, epsilon, c.rsm_tag) for c in enumerate_maximal_communities(eeg)]
    rows = [[str(i) if labels is None else labels[i] for i in sorted(c.members)] for c in found]
    doc = {"epsilon": epsilon, "rsm": 'tag "q"', "communities": rows}
    assert communities_to_json(found, labels) == json.dumps(doc, indent=2) + "\n"


def test_csv_output():
    eeg = eeg_from(3, {(0, 1), (1, 2)})
    out = communities_to_csv(enumerate_maximal_communities(eeg), labels=["x", "y", "z"])
    assert out == "x,y\ny,z\n"


def test_csv_output_quotes_labels_that_need_it():
    labels = ["a,b", "c", "d", 'say "hi"', "v\nw", "x\ry", "e\r\nf", "", " s"]
    members = [[0, 1, 2], [3, 4], [5, 6], [7], [8, 0]]
    found = [Community(frozenset(m), 1.0, "x") for m in members]
    out = communities_to_csv(found, labels)
    rows = list(csv.reader(io.StringIO(out, newline="")))
    assert rows == [[labels[v] for v in sorted(m)] for m in members]
    assert out.startswith('"a,b",c,d\n')


def test_csv_output_of_plain_labels_is_a_comma_join():
    g = load_builtin_dataset("karate")
    found = enumerate_maximal_communities(refine(erf_matrix(g), 1.5))
    rows = [",".join(g.labels[v] for v in sorted(c.members)) + "\n" for c in found]
    assert communities_to_csv(found, g.labels) == "".join(rows)


def test_dot_output_multi_membership_is_wedged():
    eeg = eeg_from(3, {(0, 1), (1, 2)})
    out = communities_to_dot(eeg, enumerate_maximal_communities(eeg), labels=["a", "b", "c"])
    assert out.startswith("graph communities {")
    assert '"a" -- "b";' in out
    assert '"b" -- "c";' in out
    b_line = next(line for line in out.splitlines() if line.strip().startswith('"b"'))
    assert "wedged" in b_line and ":" in b_line
    a_line = next(line for line in out.splitlines() if line.strip().startswith('"a"'))
    assert "wedged" not in a_line


def test_dot_output_quotes_awkward_labels():
    eeg = eeg_from(2, {(0, 1)})
    out = communities_to_dot(eeg, enumerate_maximal_communities(eeg),
                             labels=['he said "hi"', "back\\slash"])
    assert '\\"hi\\"' in out
    assert "back\\\\slash" in out


def test_dot_output_uncovered_vertex_is_white():
    eeg = eeg_from(2, set())
    found = enumerate_maximal_communities(eeg)
    out = communities_to_dot(eeg, found[:1])
    assert 'fillcolor="white"' in out
