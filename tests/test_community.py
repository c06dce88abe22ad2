"""Refinement, community predicate, clique enumeration vs exhaustive oracle."""

import json
import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rsmc import (
    Community,
    EffectiveEdgeGraph,
    NegativeEpsilonError,
    RsmMatrix,
    ThresholdError,
    TooLargeError,
    UnknownVertexError,
    brute_force_maximal_communities,
    communities_to_csv,
    communities_to_dot,
    communities_to_json,
    count_maximal_communities,
    enumerate_maximal_communities,
    refine,
    sdf_matrix,
)
from rsmc.community import is_community

from graphgen import edge_set, path_graph, random_eeg
from oracles import loop_refine_pairs, loop_sweep_counts


def eeg_from(n, pairs, epsilon=1.0, tag="external"):
    return EffectiveEdgeGraph(
        vertex_count=n, edges=frozenset(pairs), epsilon=epsilon, rsm_tag=tag
    )


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
    with pytest.raises(NegativeEpsilonError):
        refine(m, -0.5)
    with pytest.raises(NegativeEpsilonError):
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
    ([-0.5], 1e-9, NegativeEpsilonError),
    ([float("nan")], 1e-9, NegativeEpsilonError),
    ([1.0, -0.5], 1e-9, NegativeEpsilonError),
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
    assert edge_set(eeg_from(3, {(2, 1)})) == {(1, 2)}
    with pytest.raises(ValueError):
        EffectiveEdgeGraph(vertex_count=0, edges=frozenset(), epsilon=1.0, rsm_tag="x")
    # not m pairs: a (2, 3) or (3,) array is refused, never reshaped into pairs
    for bad in (np.array([[0, 1, 2], [1, 2, 0]]), np.array([0, 1, 2])):
        with pytest.raises(ValueError):
            EffectiveEdgeGraph(vertex_count=3, edges=bad, epsilon=1.0, rsm_tag="x")
    with pytest.raises(ValueError):
        eeg_from(3, {(-1, 1)})
    assert eeg_from(3, {(2, 1), (1, 2)}).edges.tolist() == [[1, 2]]
    given_pairs = {(2, 0), (0, 1), (2, 1)}
    from_array = EffectiveEdgeGraph(vertex_count=3, edges=np.array(sorted(given_pairs)),
                                    epsilon=1.0, rsm_tag="x")
    assert np.array_equal(eeg_from(3, given_pairs).edges, from_array.edges)
    assert from_array.edges.tolist() == [[0, 1], [0, 2], [1, 2]]
    with pytest.raises(ValueError):
        from_array.edges[0, 0] = 2


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
