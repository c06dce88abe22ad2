"""Acceptance suite: every shipped claim, one test and one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS/FAIL lines; each line states the claim being checked and the test fails
loudly when the claim does not hold at the stated tolerance.
"""

import time

import numpy as np
import pytest

from rsmc import (
    Graph,
    PipelineConfig,
    RsmMatrix,
    combine_similarities,
    enumerate_maximal_communities,
    erf_matrix,
    load_builtin_dataset,
    parse_similarity_json,
    refine,
    run_pipeline,
    sdf_matrix,
    validate_rsm,
)
from rsmc.graph import connected_components
from rsmc.rsm import laplacian, laplacian_pseudoinverse

from graphgen import barbell, complete_graph, path_graph, random_eeg, random_graph
from oracles import (
    brute_force_maximal_communities,
    check_scaling,
    is_community,
    resistance_matrix_oracle,
    scale_weights,
)


@pytest.fixture
def report(capsys):
    """Emit the one-line verdict even when pytest captures stdout."""

    def _report(num, name, failures):
        status = "PASS" if not failures else "FAIL"
        with capsys.disabled():
            print(f"{status} criterion {num}: {name}")
        assert not failures, f"criterion {num} ({name}): " + "; ".join(failures)

    return _report


# Verified once against the eigendecomposition oracle, then pinned as the
# regression baseline for the karate run (canonical community order).
KARATE_COMMUNITIES = [
    ["1", "2", "3", "4", "5", "6", "7", "8", "9", "10", "11", "13", "14", "15",
     "16", "18", "19", "20", "21", "22", "23", "24", "25", "26", "27", "28",
     "29", "30", "31", "32", "33", "34"],
    ["1", "2", "3", "4", "5", "6", "7", "8", "9", "11", "12", "14", "20", "24",
     "28", "31", "32", "33", "34"],
    ["1", "2", "3", "4", "5", "6", "7", "8", "9", "11", "13", "14", "17", "18",
     "20", "22", "24", "25", "26", "28", "29", "30", "31", "32", "33", "34"],
]


@pytest.fixture(scope="module")
def small_corpus():
    """100 random graphs, n <= 12, connected and disconnected mixed."""
    graphs = [random_graph(np.random.RandomState(1000 + i), n_max=12) for i in range(100)]
    return graphs


@pytest.fixture(scope="module")
def barbell_corpus():
    return [barbell(np.random.RandomState(2000 + i)) for i in range(50)]


@pytest.fixture(scope="module")
def clique_results():
    """200 random effective edge graphs with both enumerations, timed."""
    eegs = [random_eeg(np.random.RandomState(3000 + i), n_max=15) for i in range(200)]
    start = time.perf_counter()
    results = [
        (eeg, enumerate_maximal_communities(eeg), brute_force_maximal_communities(eeg))
        for eeg in eegs
    ]
    elapsed = time.perf_counter() - start
    return results, elapsed


def test_criterion_1_karate_reproduction(report):
    failures = []
    g = load_builtin_dataset("karate")
    start = time.perf_counter()
    result = run_pipeline(PipelineConfig(rsm="erf", epsilon=1.5, builtin="karate"))
    elapsed = time.perf_counter() - start

    oracle = resistance_matrix_oracle(g)
    if not np.allclose(result.matrix.values, oracle, rtol=1e-9, atol=1e-9):
        failures.append("resistance matrix disagrees with eigendecomposition oracle")

    if result.community_count != 3:
        failures.append(f"expected 3 maximal communities, got {result.community_count}")

    membership = {}
    for c in result.communities:
        for v in c.members:
            membership[v] = membership.get(v, 0) + 1
    if not any(count >= 2 for count in membership.values()):
        failures.append("no vertex belongs to two or more communities")

    r = result.matrix.values
    for c in result.communities:
        mem = sorted(c.members)
        for i, u in enumerate(mem):
            for v in mem[i + 1:]:
                if not r[u, v] <= 1.5 + 1e-9:
                    failures.append(f"pair ({u},{v}) has resistance {r[u, v]} > 1.5 + 1e-9")

    found = [[result.labels[v] for v in sorted(c.members)] for c in result.communities]
    if found != KARATE_COMMUNITIES:
        failures.append("membership differs from the pinned regression baseline")

    if elapsed >= 1.0:
        failures.append(f"pipeline took {elapsed:.2f}s (limit 1s)")

    report(1, "karate club at epsilon 1.5 gives 3 overlapping maximal communities",
            failures)


def test_criterion_2_closed_form_resistances(report):
    failures = []
    for n in (2, 3, 4, 8, 20, 100):
        got = erf_matrix(path_graph(n)).values[0, n - 1]
        if abs(got - (n - 1)) > 1e-9:
            failures.append(f"path P_{n}: R(1,{n}) = {got}, want {n - 1}")
    tri = erf_matrix(complete_graph(3)).values[0, 1]
    if abs(tri - 2 / 3) > 1e-9:
        failures.append(f"unit triangle: R = {tri}, want 2/3")
    k4 = erf_matrix(complete_graph(4)).values[0, 1]
    if abs(k4 - 0.5) > 1e-9:
        failures.append(f"K4: R = {k4}, want 0.5")
    k4_oracle = resistance_matrix_oracle(complete_graph(4))[0, 1]
    if abs(k4 - k4_oracle) > 1e-9:
        failures.append(f"K4 production {k4} vs oracle {k4_oracle}")
    report(2, "closed-form resistances (paths, triangle, K4) within 1e-9", failures)


def test_criterion_3_axiom_suite(report, small_corpus, barbell_corpus):
    failures = []
    connected = sum(
        1 for g in small_corpus if connected_components(g).component_count == 1
    )
    if connected == 0 or connected == len(small_corpus):
        failures.append("corpus is not a connected/disconnected mix")

    for idx, g in enumerate(small_corpus):
        for build in (sdf_matrix, erf_matrix):
            axioms = validate_rsm(build(g), g, tol=1e-8)
            if axioms.violations:
                failures.append(
                    f"graph {idx} {build.__name__}: {len(report.violations)} violation(s)"
                )

    for idx, (g, cut, left, right) in enumerate(barbell_corpus):
        r = erf_matrix(g).values
        for a in left:
            for b in right:
                if abs(r[a, b] - (r[a, cut] + r[cut, b])) > 1e-8:
                    failures.append(f"barbell {idx}: additivity off at ({a},{b})")
        axioms = validate_rsm(erf_matrix(g), g, tol=1e-8)
        if axioms.violations:
            failures.append(f"barbell {idx}: validator found violations")
    report(3, "sdf and erf satisfy all axioms at 1e-8 on 100 graphs + 50 barbells",
            failures)


def test_criterion_4_scaling(report, small_corpus):
    failures = []
    corpus = small_corpus[:30]
    for idx, g in enumerate(corpus):
        for build in (sdf_matrix, erf_matrix):
            m = build(g)
            for alpha in (0.5, 2.0, 10.0):
                scaled = build(scale_weights(g, alpha))
                if not check_scaling(m, scaled, alpha):
                    failures.append(f"graph {idx} {build.__name__} alpha {alpha}")
                finite = m.values[np.isfinite(m.values) & (m.values > 0)]
                eps = float(np.median(finite)) if finite.size else 1.0
                lhs = refine(m, eps, tol=0.0).edges
                rhs = refine(RsmMatrix(alpha * m.values, m.source_rsm),
                             alpha * eps, tol=0.0).edges
                if not np.array_equal(lhs, rhs):
                    failures.append(
                        f"graph {idx} {build.__name__}: refine edges differ at alpha {alpha}"
                    )
    report(4, "alpha-scaling holds for sdf/erf and refinement is scale-invariant",
            failures)


def test_criterion_5_oracle_equivalence(report, clique_results):
    results, elapsed = clique_results
    failures = []
    for idx, (eeg, fast, brute) in enumerate(results):
        if fast != brute:
            failures.append(f"eeg {idx} (n={eeg.vertex_count}): enumeration differs")
    if elapsed >= 60:
        failures.append(f"suite took {elapsed:.1f}s (limit 60s)")
    report(5, "enumeration equals exhaustive search on 200 random graphs", failures)


def test_criterion_6_downward_closure_and_maximality(report, clique_results):
    results, _ = clique_results
    failures = []
    rng = np.random.RandomState(4000)
    for idx, (eeg, fast, _) in enumerate(results):
        for c in fast:
            mem = sorted(c.members)
            for _ in range(50):
                subset = [v for v in mem if rng.rand() < 0.5]
                if not is_community(subset, eeg):
                    failures.append(f"eeg {idx}: subset of {mem} rejected")
                    break
            for v in range(eeg.vertex_count):
                if v not in c.members and is_community(mem + [v], eeg):
                    failures.append(f"eeg {idx}: community {mem} extendable by {v}")
    report(6, "every subset of a community is one; no maximal community extends",
            failures)


def test_criterion_7_similarity_pipeline(report):
    failures = []
    doc = """
    {
      "properties": ["P1", "P2", "P3"],
      "cases": {
        "P1": ["g1", "g2", "g3"],
        "P2": ["z1", "z2"],
        "P3": ["h1", "h2", "h3", "h4"]
      },
      "tables": {
        "P1": [[0, 0.6, 1.0], [0.6, 0, 0.7], [1.0, 0.7, 0]],
        "P2": [[0, 0.5], [0.5, 0]],
        "P3": [[0, 1, 1, 2], [1, 0, 1, 1], [1, 1, 0, 1], [2, 1, 1, 0]]
      },
      "weights": [2, 3, 0.25],
      "assignments": {
        "u": {"P1": "g1", "P2": "z2", "P3": "h1"},
        "v": {"P1": "g3", "P2": "z1", "P3": "h4"},
        "w": {"P1": "g2", "P2": "z1", "P3": "h2"},
        "x": {"P1": "g2", "P2": "z2", "P3": "h3"}
      }
    }
    """
    m = combine_similarities(parse_similarity_json(doc))
    axioms = validate_rsm(m, tol=1e-12)
    if not axioms.nonnegativity:
        failures.append("non-negativity failed")
    if not axioms.triangle:
        failures.append("triangle inequality failed")
    if not axioms.symmetry:
        failures.append("symmetry failed")

    # worked two-term combination: f(u,v) = a1*s1(g1,g3) + a2*s2(z2,z1)
    two = """
    {
      "properties": ["P1", "P2"],
      "cases": {"P1": ["g1", "g2", "g3"], "P2": ["z1", "z2"]},
      "tables": {
        "P1": [[0, 0.6, 1.0], [0.6, 0, 0.7], [1.0, 0.7, 0]],
        "P2": [[0, 0.5], [0.5, 0]]
      },
      "weights": [2, 3],
      "assignments": {
        "u": {"P1": "g1", "P2": "z2"},
        "v": {"P1": "g3", "P2": "z1"}
      }
    }
    """
    got = combine_similarities(parse_similarity_json(two)).values[0, 1]
    if got != 2 * 1.0 + 3 * 0.5:
        failures.append(f"worked example: f(u,v) = {got}, want 3.5 exactly")
    report(7, "similarity matrix is a pseudometric at 1e-12; worked sum exact",
            failures)


def test_criterion_8_pseudoinverse_residual(report, small_corpus, barbell_corpus):
    failures = []
    rng = np.random.RandomState(5000)
    big_edges = []
    for v in range(1, 500):
        big_edges.append((int(rng.randint(0, v)), v, float(rng.uniform(0.5, 2.0))))
    for _ in range(500):
        u, v = rng.randint(0, 500), rng.randint(0, 500)
        if u != v and not any(e[0] == min(u, v) and e[1] == max(u, v) for e in big_edges):
            big_edges.append((min(u, v), max(u, v), float(rng.uniform(0.5, 2.0))))
    big = Graph(500, tuple(big_edges), directed=False)

    graphs = list(small_corpus) + [g for g, _, _, _ in barbell_corpus]
    graphs += [load_builtin_dataset("karate"), big]
    worst = 0.0
    for g in graphs:
        count, labels = connected_components(g)
        for c in range(count):
            comp = np.flatnonzero(labels == c).tolist()
            pos = {v: i for i, v in enumerate(comp)}
            sub_edges = tuple(
                (pos[s], pos[d], 1.0 / w) for s, d, w in g.edges if s in pos
            )
            sub = Graph(len(comp), sub_edges, directed=False)
            lap = laplacian(sub)
            pinv = laplacian_pseudoinverse(sub)
            worst = max(worst, float(np.abs(lap @ pinv @ lap - lap).max()))
    if worst > 1e-9:
        failures.append(f"worst residual {worst:.3e} exceeds 1e-9")

    start = time.perf_counter()
    erf_matrix(big)
    elapsed = time.perf_counter() - start
    if elapsed >= 10:
        failures.append(f"n=500 erf took {elapsed:.1f}s (limit 10s)")
    report(8, "pseudoinverse residual <= 1e-9 up to n=500; n=500 erf under 10s",
            failures)
