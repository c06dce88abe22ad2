"""RSM construction against independent oracles, axiom validation, serialization."""

import logging
import math
import os
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import dijkstra

from rsmc import (
    DimensionMismatchError,
    DirectedInputError,
    Graph,
    MatrixValueError,
    NumericalError,
    ParseError,
    RsmMatrix,
    SingularityError,
    erf_matrix,
    load_builtin_dataset,
    refine,
    rsm_from_csv,
    rsm_from_json,
    rsm_to_csv,
    rsm_to_json,
    sdf_matrix,
    validate_rsm,
)
from rsmc.graph import connected_components, edge_csr
from rsmc.rsm import (
    _BLOCK_BYTES,
    Violation,
    _check_cut_additivity,
    _separations_by_cut_vertex,
    _two_leg_minima,
    laplacian,
    laplacian_pseudoinverse,
    triangle_breaks,
    violations_at,
)

from graphgen import (
    barbell,
    complete_graph,
    cycle_graph,
    path_graph,
    random_connected_graph,
    random_graph,
    random_tree,
)

from oracles import (
    brute_force_separations,
    check_scaling,
    csv_join_rsm,
    edge_loop_laplacian,
    exact_violations,
    floyd_warshall_distances,
    json_dumps_rsm,
    loop_rsm_violations,
    pairwise_cut_additivity,
    resistance_matrix_oracle,
    scale_weights,
    triangle_breaks_oracle,
)


def breaks(vals, tol):
    (i, k, j), excess = triangle_breaks(vals, tol)  # as the oracle's (i, k, j, excess) tuples
    return list(zip(i.tolist(), k.tolist(), j.tolist(), excess.tolist()))


def cut_violations(vals, g):
    return violations_at("cut-additivity", *_check_cut_additivity(vals, g, 1e-9))


def assert_matrices_match(actual, expected, tol=1e-9):
    assert actual.shape == expected.shape
    assert (np.isinf(actual) == np.isinf(expected)).all()
    finite = np.isfinite(expected)
    np.testing.assert_allclose(actual[finite], expected[finite], rtol=tol, atol=tol)


# ---------------------------------------------------------------------------
# Shortest-path distances
# ---------------------------------------------------------------------------

@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10_000), st.booleans())
def test_sdf_matches_floyd_warshall(seed, directed):
    rng = np.random.RandomState(seed)
    g = random_graph(rng, n_max=12, directed=directed)
    assert_matrices_match(sdf_matrix(g).values, floyd_warshall_distances(g))


def test_sdf_tag_and_basic_shape():
    m = sdf_matrix(path_graph(3))
    assert m.source_rsm == "sdf"
    assert m.values[0, 2] == 2.0
    assert m.values[2, 0] == 2.0


def test_sdf_directed_asymmetry():
    g = Graph(2, ((0, 1, 3.0),), directed=True)
    m = sdf_matrix(g)
    assert m.values[0, 1] == 3.0
    assert math.isinf(m.values[1, 0])


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10_000))
def test_sdf_bitwise_symmetric_on_undirected_graphs(seed):
    rng = np.random.RandomState(seed)
    vals = sdf_matrix(random_graph(rng, n_max=16)).values
    assert (vals == vals.T).all()


def test_sdf_path_length_too_large_for_a_float_raises():
    g = Graph(3, ((0, 1, 1e308), (1, 2, 1e308)), directed=False, labels=("a", "b", "c"))
    with pytest.raises(NumericalError, match="^the shortest path length from a to c is too large"):
        sdf_matrix(g)


def test_sdf_heavy_directed_graph_keeps_unreachable_pairs_infinite():
    # the overflow check runs on every graph; it raises for reachable pairs only
    m = sdf_matrix(Graph(3, ((0, 1, 1e308), (1, 2, 1.0)), directed=True))
    assert m.values[0, 2] == 1e308 and m.values[0, 1] == 1e308
    assert math.isinf(m.values[2, 0]) and math.isinf(m.values[1, 0])
    with pytest.raises(NumericalError, match="from 0 to 2"):
        sdf_matrix(Graph(3, ((0, 1, 1e308), (1, 2, 1e308)), directed=True))


#: Dijkstra from 3 and from 5 add the weights of the same path 3-0-4-5 in
#: opposite orders and differ in the last bit.
_ASYMMETRIC_SUMS = Graph(6, (
    (0, 1, 0.33951724506306336), (0, 2, 0.8401364447887634), (0, 3, 0.7472977955440663),
    (0, 4, 0.9830755360597099), (1, 2, 0.821692520846477), (2, 3, 0.9379155843830395),
    (2, 4, 0.7588055760909047), (4, 5, 0.9753659324406595),
), directed=False)


def test_sdf_takes_the_smaller_direction_and_refine_keeps_the_pair():
    raw = dijkstra(edge_csr(_ASYMMETRIC_SUMS), directed=False)
    assert raw[3, 5] != raw[5, 3]
    vals = sdf_matrix(_ASYMMETRIC_SUMS).values
    assert vals[3, 5] == vals[5, 3] == min(raw[3, 5], raw[5, 3]) == 2.6720870929146034
    pairs = refine(sdf_matrix(_ASYMMETRIC_SUMS), 2.6720870929146034, 0.0).edges.tolist()
    assert [3, 5] in pairs


# ---------------------------------------------------------------------------
# Effective resistance
# ---------------------------------------------------------------------------

@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10_000))
def test_erf_matches_eigendecomposition_oracle(seed):
    rng = np.random.RandomState(seed)
    g = random_graph(rng, n_max=12)
    assert_matrices_match(erf_matrix(g).values, resistance_matrix_oracle(g))


def test_erf_closed_forms():
    for n in (2, 3, 5, 10, 50):
        m = erf_matrix(path_graph(n))
        assert m.values[0, n - 1] == pytest.approx(n - 1, abs=1e-9)
    tri = erf_matrix(complete_graph(3))
    assert tri.values[0, 1] == pytest.approx(2 / 3, abs=1e-9)
    k4 = erf_matrix(complete_graph(4))
    assert k4.values[0, 1] == pytest.approx(0.5, abs=1e-9)


def test_erf_rejects_directed():
    g = Graph(2, ((0, 1, 1.0),), directed=True)
    with pytest.raises(DirectedInputError):
        erf_matrix(g)
    with pytest.raises(DirectedInputError):
        laplacian(g)
    with pytest.raises(DirectedInputError):
        laplacian_pseudoinverse(g)


def test_erf_cross_component_is_inf():
    g = Graph(4, ((0, 1, 1.0), (2, 3, 1.0)), directed=False)
    m = erf_matrix(g)
    assert math.isinf(m.values[0, 2])
    assert m.values[0, 1] == pytest.approx(1.0, abs=1e-12)


def test_pseudoinverse_requires_connected():
    with pytest.raises(SingularityError, match="disconnected"):
        laplacian_pseudoinverse(Graph(3, ((0, 1, 1.0),), directed=False))


def test_pseudoinverse_residual_reported():
    # conductances spread over ~24 orders of magnitude wreck the inversion
    g = Graph(
        5,
        tuple((i, i + 1, 1e12 if i % 2 == 0 else 1e-12) for i in range(4)),
        directed=False,
    )
    with pytest.raises(NumericalError):
        erf_matrix(g)


def test_erf_rejects_weight_too_small_to_invert():
    # 1/5e-324 and 1/1e-320 overflow; the first such edge in edge order is named
    g = Graph(6, ((0, 1, 1.0), (2, 3, 5e-324), (4, 5, 1e-320)), directed=False)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError,
                           match=r"^edge \(2, 3\) weight 5e-324 is too small to invert$"):
            erf_matrix(g)


def test_erf_resistance_too_large_for_a_float_raises():
    g = Graph(3, ((0, 1, 1e308), (1, 2, 1e308)), directed=False)
    with pytest.raises(NumericalError, match="^an effective resistance is too large for a float$"):
        erf_matrix(g)


def test_pseudoinverse_projection_residual_reported():
    # L @ P @ L == L holds to 1e-24 here, because L's tiny entries shrink the
    # error in P; L @ P == I - J/n exposes it (R(0, 1) would come out 3.7e4
    # instead of 1e12)
    g = Graph(3, ((0, 1, 1e12), (1, 2, 1e-12)), directed=False)
    with pytest.raises(NumericalError, match="L P against"):
        erf_matrix(g)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_pseudoinverse_residual_small_on_sane_graphs(seed):
    rng = np.random.RandomState(seed)
    g = random_connected_graph(rng, n_max=12)
    lap = laplacian(g)
    pinv = laplacian_pseudoinverse(g)
    assert np.abs(lap @ pinv @ lap - lap).max() <= 1e-9
    assert np.abs(pinv - pinv.T).max() == 0.0


def test_single_vertex_graphs():
    g = Graph(1, (), directed=False)
    assert sdf_matrix(g).values.tolist() == [[0.0]]
    assert erf_matrix(g).values.tolist() == [[0.0]]
    assert laplacian_pseudoinverse(g).tolist() == [[0.0]]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_erf_dominated_by_sdf_on_unit_graphs(seed):
    rng = np.random.RandomState(seed)
    g = random_connected_graph(rng, n_max=12, unit_weights=True)
    r = erf_matrix(g).values
    d = sdf_matrix(g).values
    assert (r <= d + 1e-9).all()


def _four_components() -> Graph:
    rng = np.random.RandomState(7)
    parts = [random_connected_graph(rng, n_max=6) for _ in range(4)]
    edges = []
    offset = 0
    for part in parts:
        edges.extend((s + offset, d + offset, w) for s, d, w in part.edges)
        offset += part.vertex_count
    return Graph(offset, tuple(edges), directed=False)


def test_erf_deterministic_across_thread_caps():
    g = _four_components()
    first = erf_matrix(g).values
    second = erf_matrix(g).values
    assert (first == second).all()


def test_erf_bitwise_symmetric_on_multi_component_graph():
    g = _four_components()
    assert connected_components(g).component_count == 4
    r = erf_matrix(g).values
    assert (r == r.T).all()


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_laplacian_matches_edge_loop(seed):
    g = random_graph(np.random.RandomState(seed), n_max=12)
    assert (laplacian(g) == edge_loop_laplacian(g)).all()


@pytest.mark.parametrize("alpha", [1e-6, 1e6, 1e-12])
def test_erf_is_scale_invariant_on_karate(alpha):
    karate = load_builtin_dataset("karate")
    m = erf_matrix(karate)
    assert check_scaling(m, erf_matrix(scale_weights(karate, alpha)), alpha)


def test_cholesky_failure_is_a_singularity_error():
    # conductances 30 orders of magnitude apart leave L + J/n numerically
    # indefinite, which the Cholesky factorisation reports
    g = Graph(5, tuple((i, i + 1, 1e15 if i % 2 == 0 else 1e-15) for i in range(4)),
              directed=False)
    with pytest.raises(SingularityError, match="not positive definite"):
        erf_matrix(g)


def test_erf_finds_components_once(monkeypatch):
    calls = []
    monkeypatch.setattr("rsmc.rsm.connected_components",
                        lambda g: calls.append(g) or connected_components(g))
    erf_matrix(_four_components())
    assert len(calls) == 1


def test_erf_solves_no_isolated_vertex(monkeypatch):
    calls = []
    monkeypatch.setattr("rsmc.rsm.laplacian_pseudoinverse",
                        lambda g: calls.append(g.vertex_count) or laplacian_pseudoinverse(g))
    # a 2-edge path on 2, 5 and 3, an edge {0, 6}, vertices 1 and 4 alone
    g = Graph(7, ((2, 5, 2.0), (3, 5, 0.5), (0, 6, 4.0)), directed=False)
    vals = erf_matrix(g).values
    assert sorted(calls) == [2, 3]
    assert (np.diag(vals) == 0.0).all()
    assert vals[2, 3] == vals[3, 2] == pytest.approx(2.5, abs=1e-12)
    assert vals[0, 6] == pytest.approx(4.0, abs=1e-12)
    finite = {(i, j) for i, j in zip(*np.nonzero(np.isfinite(vals)))}
    assert finite == {(i, i) for i in range(7)} | {
        (a, b) for part in ({2, 3, 5}, {0, 6}) for a in part for b in part}
    assert erf_matrix(Graph(1, (), directed=False)).values.tolist() == [[0.0]]
    assert erf_matrix(Graph(3, (), directed=False)).values.tolist() == [
        [0.0, math.inf, math.inf], [math.inf, 0.0, math.inf], [math.inf, math.inf, 0.0]]
    assert sorted(calls) == [2, 3]


@pytest.mark.parametrize("rows", [1, 2, 3])
def test_erf_bytes_do_not_depend_on_the_row_blocks(monkeypatch, rows):
    g = random_connected_graph(np.random.RandomState(11), n_max=12)
    whole = erf_matrix(g).values
    monkeypatch.setattr("rsmc.rsm._BLOCK_BYTES", 8 * g.vertex_count * rows)
    assert erf_matrix(g).values.tobytes() == whole.tobytes()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_erf_with_isolated_vertices_equals_erf_without(seed):
    # isolated vertices interleaved with the others leave every entry unchanged
    rng = np.random.RandomState(seed)
    g = random_graph(rng, n_max=10)
    spread = 2 * np.arange(g.vertex_count) + 1
    padded = Graph(2 * g.vertex_count + 1,
                   tuple((int(spread[s]), int(spread[d]), w) for s, d, w in g.edges),
                   directed=False)
    vals = erf_matrix(padded).values
    assert vals[np.ix_(spread, spread)].tobytes() == erf_matrix(g).values.tobytes()
    alone = np.arange(0, padded.vertex_count, 2)
    assert (vals[alone, alone] == 0.0).all()
    assert np.isinf(vals[alone][:, spread]).all()
    assert vals.tobytes() == _assembled_per_component(padded).tobytes()


def _assembled_per_component(g: Graph) -> np.ndarray:
    """erf's n x n array built the long way: +inf, a zero diagonal, and each
    component's own one-component erf matrix written into its rows and columns."""
    count, labels = connected_components(g)
    whole = np.full((g.vertex_count, g.vertex_count), np.inf)
    np.fill_diagonal(whole, 0.0)
    for c in range(count):
        members = np.flatnonzero(labels == c)
        position = {int(v): i for i, v in enumerate(members)}
        part = Graph(len(members), tuple((position[s], position[d], w) for s, d, w in g.edges
                                         if s in position), directed=False)
        whole[np.ix_(members, members)] = erf_matrix(part).values
    return whole


def test_erf_keeps_one_block_per_component_and_assembles_values_once():
    # two more vertices alone, and the four components interleaved over the labels
    g4 = _four_components()
    shuffle = np.random.RandomState(3).permutation(g4.vertex_count + 2)
    g = Graph(g4.vertex_count + 2, tuple((int(shuffle[s]), int(shuffle[d]), w)
                                         for s, d, w in g4.edges), directed=False)
    m = erf_matrix(g)
    count, labels = connected_components(g)
    sizes = np.bincount(labels)
    assert [vertices.tolist() for vertices, _ in m.blocks] == [
        np.flatnonzero(labels == c).tolist() for c in range(count) if sizes[c] >= 2]
    for vertices, block in m.blocks:
        assert not vertices.flags.writeable and not block.flags.writeable
        assert block.shape == (len(vertices),) * 2
    assert m.values is m.values and not m.values.flags.writeable
    assert m.values.tobytes() == _assembled_per_component(g).tobytes()
    # one component holding every vertex is one block, and that block is values
    whole = erf_matrix(load_builtin_dataset("karate"))
    (vertices, block), = whole.blocks
    assert block is whole.values and vertices.tolist() == list(range(34))
    assert erf_matrix(Graph(3, (), directed=False)).blocks == ()


def test_erf_logs_one_debug_line_per_component(caplog):
    with caplog.at_level(logging.DEBUG, logger="rsmc.rsm"):
        erf_matrix(_four_components())
    lines = [r.getMessage() for r in caplog.records if r.name == "rsmc.rsm"]
    assert len(lines) == 4
    for line in lines:
        assert "-vertex component at scale" in line
        assert "LPL residual" in line and "LP residual" in line


# ---------------------------------------------------------------------------
# Axiom validation
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_generated_matrices_pass_validation(seed):
    rng = np.random.RandomState(seed)
    g = random_graph(rng, n_max=12)
    for m in (sdf_matrix(g), erf_matrix(g)):
        report = validate_rsm(m, g, tol=1e-8)
        assert report.all_passed, report.summary_lines()
        assert report.violations == ()


def test_validation_flags_negative_entry():
    vals = sdf_matrix(path_graph(3)).values.copy()
    vals[0, 1] = -0.1
    report = validate_rsm(RsmMatrix(vals, "external"), path_graph(3))
    assert not report.nonnegativity
    assert any(v.kind == "negative" and v.where == (0, 1) for v in report.violations)
    assert not report.all_passed


def test_validation_flags_nonzero_diagonal():
    vals = sdf_matrix(path_graph(5)).values.copy()
    vals[3, 3] = 0.5
    report = validate_rsm(RsmMatrix(vals, "external"), path_graph(5))
    assert not report.coincidence
    assert any(v.kind == "diagonal-nonzero" and v.where == (3,) for v in report.violations)


def test_validation_flags_offdiagonal_zero():
    vals = np.array([[0.0, 0.0], [0.0, 0.0]])
    report = validate_rsm(RsmMatrix(vals, "external"))
    assert not report.coincidence


def test_validation_flags_wrong_infinity_pattern():
    g = path_graph(3)
    vals = sdf_matrix(g).values.copy()
    vals[0, 2] = vals[2, 0] = np.inf
    report = validate_rsm(RsmMatrix(vals, "external"), g)
    assert report.connectivity is False
    finite_where_disconnected = np.full((2, 2), 1.0)
    np.fill_diagonal(finite_where_disconnected, 0.0)
    report2 = validate_rsm(
        RsmMatrix(finite_where_disconnected, "external"), Graph(2, (), directed=False)
    )
    assert report2.connectivity is False


def test_validation_flags_triangle_violation():
    vals = np.array([
        [0.0, 1.0, 5.0],
        [1.0, 0.0, 1.0],
        [5.0, 1.0, 0.0],
    ])
    report = validate_rsm(RsmMatrix(vals, "external"))
    assert not report.triangle
    assert any(v.kind == "triangle" for v in report.violations)
    # +inf is left to the disconnection pattern, never reported as a triangle break
    vals[0, 2] = vals[2, 0] = np.inf
    assert validate_rsm(RsmMatrix(vals, "external")).triangle


#: Rows per block the triangle-check tests force: tiles of 4 x 2, so that tiling shows on small n.
BLOCK_ROWS = 4
#: The tile shape those rows give, as the DEBUG line names it on a matrix of at least 4 rows.
BLOCK_TILES = "4x2 tiles"


def _set_cpus(monkeypatch, count):
    """Give the process ``count`` CPUs in its affinity mask, or no mask at all for None."""
    if count is None:
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def _hostile_matrix(rng, n):
    """Asymmetric entries with +inf, negatives, signed zeros and many ties."""
    vals = rng.uniform(-1.0, 3.0, (n, n))
    ties = rng.random_sample((n, n)) < 0.6
    vals[ties] = rng.choice([-1.0, -0.0, 0.0, 0.5, 1.0, 2.0, math.inf], ties.sum())
    return vals


def _mirrored(vals):
    """The matrix with its upper triangle copied below the diagonal, bit for bit."""
    vals = vals.copy()
    upper = np.triu_indices(len(vals))
    vals.T[upper] = vals[upper]
    return vals


def _almost_symmetric(rng, n):
    """Symmetric hostile matrices each off by one entry: its last bit, or the sign of a zero."""
    vals = _mirrored(_hostile_matrix(rng, n))
    i, j = np.nonzero(np.isfinite(vals) & (vals != 0.0) & ~np.eye(n, dtype=bool))
    last_bit = vals.copy()
    last_bit[i[0], j[0]] = np.nextafter(last_bit[i[0], j[0]], math.inf)
    signed_zero = vals.copy()
    signed_zero[0, 1], signed_zero[1, 0] = 0.0, -0.0
    return {"last-bit": last_bit, "signed-zero": signed_zero}


@pytest.mark.parametrize("n", [1, 2, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 3 * BLOCK_ROWS + 2])
@pytest.mark.parametrize("tol", [1e-8, 0.1, 1.0])
def test_triangle_breaks_match_the_triple_loop(monkeypatch, caplog, n, tol):
    # n = 5: partial tiles both ways, at least two a side; n = 14: four row tiles, the last
    # partial, and seven column tiles; n = 3: a partial column tile
    monkeypatch.setattr("rsmc.rsm._BLOCK_BYTES", BLOCK_ROWS * 8 * n)
    caplog.set_level(logging.DEBUG, logger="rsmc.rsm")
    rng = np.random.RandomState(n)
    for _ in range(5):
        hostile = _hostile_matrix(rng, n)
        for vals in (hostile, _mirrored(hostile)):  # the general path, the symmetric one
            expected = triangle_breaks_oracle(vals, tol)
            for cpus in (1, 4, None):  # one worker, a pool, no affinity mask
                with monkeypatch.context() as patch:
                    _set_cpus(patch, cpus)
                    assert breaks(vals, tol) == expected
    tiles = BLOCK_TILES if n >= BLOCK_ROWS else f"{n}x{min(n, 2)} tiles"
    assert len(caplog.records) == 5 * 2 * 3
    assert all(f"in {tiles} on" in r.getMessage() for r in caplog.records)


def test_triangle_breaks_match_the_triple_loop_over_two_default_blocks(monkeypatch, caplog):
    # the default tiles of a 257-vertex matrix: 34 x 15, partial in both directions
    hostile = _hostile_matrix(np.random.RandomState(257), 257)
    for vals, kind in ((hostile, ""), (_mirrored(hostile), "symmetric ")):
        expected = triangle_breaks_oracle(vals, 1e-8)
        for cpus, workers in ((1, 1), (4, 4), (None, 3)):  # one worker, a pool, no affinity mask
            with monkeypatch.context() as patch, caplog.at_level(logging.DEBUG, logger="rsmc.rsm"):
                _set_cpus(patch, cpus)
                assert breaks(vals, 1e-8) == expected
            assert (f"257-vertex {kind}matrix in 34x15 tiles on {workers} worker(s)"
                    in caplog.records[-1].getMessage())


@pytest.mark.parametrize("symmetric", [False, True])
def test_planted_triangle_breaks_at_the_tile_corners(monkeypatch, caplog, symmetric):
    # 4 x 2 tiles on 13 vertices: rows 0-3, ..., 8-11 and 12; columns 0-1, ..., 10-11 and 12
    n = 13
    monkeypatch.setattr("rsmc.rsm._BLOCK_BYTES", BLOCK_ROWS * 8 * n)
    rng = np.random.RandomState(13)
    vals = rng.uniform(1.0, 2.0, (n, n))  # no entry above 2, no route via a third vertex below
    np.fill_diagonal(vals, 0.0)
    first, diagonal, last_rows, last_columns, corner = (0, 1), (6, 7), (12, 3), (3, 12), (12, 12)
    planted = sorted({first, first[::-1], diagonal, diagonal[::-1], last_rows, last_columns, corner})
    for i, j in planted:
        vals[i, j] = rng.uniform(5.0, 6.0)  # above every route through a third vertex
    if symmetric:
        vals = _mirrored(vals)
    expected = triangle_breaks_oracle(vals, 1e-8)
    assert [(i, j) for i, _, j, _ in expected] == planted
    for cpus in (1, 2, None):
        with monkeypatch.context() as patch, caplog.at_level(logging.DEBUG, logger="rsmc.rsm"):
            _set_cpus(patch, cpus)
            assert breaks(vals, 1e-8) == expected
    kind = "symmetric " if symmetric else ""
    assert len(caplog.records) == 3
    assert all(f"13-vertex {kind}matrix in {BLOCK_TILES}" in r.getMessage() for r in caplog.records)


def test_two_leg_minima_hold_the_result_and_a_few_blocks_per_worker(monkeypatch):
    _set_cpus(monkeypatch, 2)
    vals = np.random.RandomState(600).uniform(0.5, 2.0, (600, 600))
    tracemalloc.start()
    try:
        best, _, workers, symmetric = _two_leg_minima(vals)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (workers, symmetric) == (2, False)
    # no n x n temporary beside the result, such as a transposed copy of the matrix
    assert peak <= best.nbytes + 3 * _BLOCK_BYTES * workers


@pytest.mark.parametrize("case", ["last-bit", "signed-zero"])
def test_triangle_breaks_of_an_almost_symmetric_matrix_take_the_general_path(
        monkeypatch, caplog, case):
    monkeypatch.setattr("rsmc.rsm._BLOCK_BYTES", BLOCK_ROWS * 8 * 14)
    _set_cpus(monkeypatch, 2)
    vals = _almost_symmetric(np.random.RandomState(14), 14)[case]
    with caplog.at_level(logging.DEBUG, logger="rsmc.rsm"):
        for tol in (1e-8, 0.1, 1.0):
            assert breaks(vals, tol) == triangle_breaks_oracle(vals, tol)
    assert all("14-vertex matrix" in r.getMessage() for r in caplog.records)


def test_triangle_check_logs_one_debug_line(monkeypatch, caplog):
    vals = np.array([
        [0.0, 1.0, 5.0],
        [1.0, 0.0, 1.0],
        [5.0, 1.0, 0.0],
    ])
    with caplog.at_level(logging.DEBUG, logger="rsmc.rsm"):
        validate_rsm(RsmMatrix(vals, "external"))
        monkeypatch.setattr("rsmc.rsm._BLOCK_BYTES", 8 * 3)
        for cpus in (2, None):
            with monkeypatch.context() as patch:
                _set_cpus(patch, cpus)
                breaks(vals, 1e-8)
    lines = [r.getMessage() for r in caplog.records if r.name == "rsmc.rsm"]
    blockings = ("3x3 tiles on 1 worker(s)", "2x1 tiles on 2 worker(s)",
                 "2x1 tiles on 3 worker(s)")
    assert len(lines) == len(blockings)
    for line, blocking in zip(lines, blockings):
        head, seconds = line.rsplit(", ", 1)
        assert head == f"triangle check of a 3-vertex symmetric matrix in {blocking}: 2 break(s)"
        assert float(seconds.removesuffix(" s")) >= 0


def test_validation_near_float_max_warns_nothing(monkeypatch):
    # the suite turns RuntimeWarning into an error; an overflowed sum or difference is +-inf
    near_max = np.array([
        [0.0, 1e308, 1.5e308],
        [1e308, 0.0, 1e308],
        [1.5e308, 1e308, 0.0],
    ])
    assert validate_rsm(RsmMatrix(near_max, "external")).all_passed
    assert validate_rsm(RsmMatrix(near_max, "external"), path_graph(3)).violations == (
        Violation("cut-additivity", (0, 1, 2), math.inf),
        Violation("cut-additivity", (2, 1, 0), math.inf),
    )
    report = validate_rsm(RsmMatrix(np.array([[0.0, 1e308], [-1e308, 0.0]]), "external"))
    assert report.violations[-1] == Violation("asymmetry", (0, 1), math.inf)
    # legs summing below -float max make a -inf route, checked in pool threads
    monkeypatch.setattr("rsmc.rsm._BLOCK_BYTES", 8 * 3)
    _set_cpus(monkeypatch, 2)
    vals = np.array([
        [0.0, -1e308, 1e308],
        [1.0, 0.0, -1e308],
        [1.0, 1.0, 0.0],
    ])
    assert (0, 1, 2, math.inf) in breaks(vals, 1e-8)


#: Entries that probe each check's edge: signed zeros, one within tol, +inf, near float max.
HOSTILE_ENTRIES = [-1.0, -0.0, 0.0, 1e-9, 0.5, 1.0, 2.0, math.inf, 1e308, -1e308, 1.7e308]


def _hostile_rsm(rng, g):
    """A graph's sdf matrix or uniform noise, some entries hostile, mirrored half the time."""
    n = g.vertex_count
    vals = sdf_matrix(g).values.copy() if rng.rand() < 0.5 else rng.uniform(-1.0, 3.0, (n, n))
    spots = rng.random_sample((n, n)) < rng.uniform(0.0, 0.6)
    vals[spots] = rng.choice(HOSTILE_ENTRIES, spots.sum())
    return _mirrored(vals) if rng.rand() < 0.5 else vals


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from(["none", "undirected", "directed"]))
def test_validation_matches_the_entry_loops(seed, graph):
    rng = np.random.RandomState(seed)
    g = random_graph(rng, n_max=7, directed=graph == "directed")
    m = RsmMatrix(_hostile_rsm(rng, g), "external")
    if graph == "none":
        g = None
    for tol in (1e-8, 0.5):
        found = loop_rsm_violations(m.values, g, tol)
        pattern, asymmetry = found.get("infinity-pattern"), found.get("asymmetry")
        triangle = [Violation("triangle", (i, k, j), excess)
                    for i, k, j, excess in triangle_breaks_oracle(m.values, tol)]
        triangle += [] if g is None else pairwise_cut_additivity(m.values, g, tol)
        for block_rows in (None, 2):  # the default block, then witnesses in batches of two
            with pytest.MonkeyPatch.context() as patch:
                if block_rows:
                    patch.setattr("rsmc.rsm._BLOCK_BYTES", block_rows * 8 * m.n)
                report = validate_rsm(m, g, tol)
            assert exact_violations(report.violations) == exact_violations(
                found["negative"] + found["diagonal-nonzero"] + found["offdiagonal-zero"]
                + (pattern or []) + triangle + (asymmetry or []))
            assert (report.nonnegativity, report.coincidence, report.connectivity,
                    report.triangle, report.symmetry) == (
                not found["negative"],
                not (found["diagonal-nonzero"] or found["offdiagonal-zero"]),
                None if pattern is None else not pattern,
                not triangle,
                None if asymmetry is None else not asymmetry,
            )


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_validation_passes_sdf_of_a_directed_graph(seed):
    # the disconnection pattern follows the edges' direction
    g = random_graph(np.random.RandomState(seed), n_max=12, directed=True)
    report = validate_rsm(sdf_matrix(g), g)
    assert report.all_passed, report.summary_lines()


def test_validation_flags_one_reachable_pair_set_to_inf_on_a_directed_graph():
    g = _directed_chain_of_cycles()
    vals = sdf_matrix(g).values.copy()
    assert math.isfinite(vals[0, 7]) and math.isinf(vals[7, 0])
    vals[0, 7] = math.inf
    report = validate_rsm(RsmMatrix(vals, "external"), g)
    assert report.connectivity is False
    assert [v for v in report.violations if v.kind == "infinity-pattern"] == [
        Violation("infinity-pattern", (0, 7), math.inf)
    ]


def test_violation_prints_as_one_summary_line():
    assert str(Violation("triangle", (0, 2, 1), 0.25)) == "triangle at (0, 2, 1): 0.25"
    assert str(Violation("offdiagonal-zero", ("a", "b"), -0.0)) == (
        "offdiagonal-zero at ('a', 'b'): -0")


def test_validation_flags_asymmetry_on_undirected():
    g = path_graph(2)
    vals = np.array([[0.0, 1.0], [2.0, 0.0]])
    report = validate_rsm(RsmMatrix(vals, "external"), g)
    assert report.symmetry is False
    assert any(v.kind == "asymmetry" for v in report.violations)


def test_validation_skips_checks_without_graph_and_on_directed():
    m = sdf_matrix(path_graph(3))
    no_graph = validate_rsm(m)
    assert no_graph.connectivity is None
    assert no_graph.symmetry is True
    directed = Graph(2, ((0, 1, 1.0),), directed=True)
    report = validate_rsm(sdf_matrix(directed), directed)
    assert report.symmetry is None


def test_validation_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        validate_rsm(sdf_matrix(path_graph(3)), path_graph(4))


def test_validation_rejects_bad_tol():
    m = sdf_matrix(path_graph(2))
    with pytest.raises(ValueError):
        validate_rsm(m, tol=0.0)
    with pytest.raises(ValueError):
        validate_rsm(m, tol=-1e-9)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_sdf_cut_node_equality_on_trees(seed):
    # every internal tree vertex cuts the graph, so d(u,v) = d(u,w) + d(w,v)
    rng = np.random.RandomState(seed)
    g = random_tree(rng, n_max=10)
    report = validate_rsm(sdf_matrix(g), g, tol=1e-8)
    assert report.triangle, report.summary_lines()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_erf_cut_node_additivity_on_barbells(seed):
    rng = np.random.RandomState(seed)
    g, cut, left, right = barbell(rng)
    r = erf_matrix(g).values
    for a in left:
        for b in right:
            assert r[a, b] == pytest.approx(r[a, cut] + r[cut, b], abs=1e-8)
    report = validate_rsm(erf_matrix(g), g, tol=1e-8)
    assert report.all_passed, report.summary_lines()


def test_cut_additivity_violation_detected():
    # path 0-1-2 distances tampered so d(0,2) != d(0,1) + d(1,2)
    vals = np.array([
        [0.0, 1.0, 1.5],
        [1.0, 0.0, 1.0],
        [1.5, 1.0, 0.0],
    ])
    report = validate_rsm(RsmMatrix(vals, "external"), path_graph(3))
    assert any(v.kind == "cut-additivity" for v in report.violations)
    assert not report.triangle


def _star(leaves, rng):
    return Graph(leaves + 1, tuple((0, v, rng.uniform(0.5, 2.0)) for v in range(1, leaves + 1)),
                 False)


def _directed_chain_of_cycles():
    # directed triangles meeting at 2, a two-way pendant at 4 and a one-way spur 2 -> 6 -> 7
    arcs = [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2), (4, 5), (5, 4), (2, 6), (6, 7)]
    return Graph(8, tuple((s, d, 1.0 + 0.25 * k) for k, (s, d) in enumerate(arcs)), True)


@pytest.mark.parametrize("make", [
    lambda rng: _star(40, rng),
    lambda rng: path_graph(30),
    lambda rng: _directed_chain_of_cycles(),
], ids=["star", "path", "directed"])
def test_cut_additivity_matches_pairwise_oracle(make):
    rng = np.random.RandomState(7)
    g = make(rng)
    n = g.vertex_count
    exact = sdf_matrix(g).values
    for mirror in (False, True):  # on the undirected graphs, the general path and the symmetric one
        vals = exact.copy()
        for _ in range(50):
            i, j = rng.randint(n, size=2)
            vals[i, j] = (vals[i, j] + rng.uniform(-0.5, 0.5), np.inf, 1e308, 0.0)[rng.randint(4)]
            if mirror:
                vals[j, i] = vals[i, j]
        found = cut_violations(vals, g)
        assert found == pairwise_cut_additivity(vals, g, 1e-9)
        assert len(found) > 20
    # a passing matrix, and ones off symmetric in one last bit or in one zero's sign
    last_bit, signed_zero = exact.copy(), exact.copy()
    last_bit[1, n - 1] = np.nextafter(exact[1, n - 1], 0.0)
    signed_zero[1, n - 1], signed_zero[n - 1, 1] = 0.0, -0.0
    for vals in (exact, last_bit, signed_zero):
        assert cut_violations(vals, g) == pairwise_cut_additivity(vals, g, 1e-9)


# ---------------------------------------------------------------------------
# Cut vertices
# ---------------------------------------------------------------------------

def _disjoint_union(*graphs):
    edges, offset = [], 0
    for h in graphs:
        edges += [(s + offset, d + offset, w) for s, d, w in h.edges]
        offset += h.vertex_count
    return Graph(offset, tuple(edges), False)


SEPARATION_FAMILIES = {
    "random": lambda rng: random_graph(rng, n_max=14),
    "directed": lambda rng: random_graph(rng, n_max=14, directed=True),
    "tree": lambda rng: random_tree(rng, n_max=14),
    "sparse": lambda rng: random_connected_graph(rng, n_max=14, extra_p=0.1),
    "barbell": lambda rng: barbell(rng)[0],
    "disconnected": lambda rng: _disjoint_union(
        barbell(rng)[0], random_tree(rng), random_graph(rng)),
    "isolated": lambda rng: _disjoint_union(
        Graph(1, (), False), random_tree(rng), Graph(2, (), False), barbell(rng)[0]),
}


@pytest.mark.parametrize("family", sorted(SEPARATION_FAMILIES))
def test_separations_match_brute_force(family):
    for seed in range(100):
        g = SEPARATION_FAMILIES[family](np.random.RandomState(seed))
        assert list(_separations_by_cut_vertex(g)) == brute_force_separations(g)


@pytest.mark.parametrize("g", [
    Graph(1, (), False),
    path_graph(2),
    path_graph(9),
    cycle_graph(7),
    complete_graph(5),
    _disjoint_union(path_graph(4), cycle_graph(4), path_graph(3)),
    Graph(4, ((0, 1, 1.0), (1, 0, 2.0), (2, 1, 1.0), (3, 2, 1.0)), directed=True),
], ids=["n1", "path2", "path9", "cycle7", "k5", "path-cycle-path", "directed-path"])
def test_separations_match_brute_force_on_fixed_graphs(g):
    assert list(_separations_by_cut_vertex(g)) == brute_force_separations(g)


def test_separations_on_a_long_path_need_no_recursion():
    n = 5000
    count = 0
    for w, parts in _separations_by_cut_vertex(path_graph(n)):
        count += 1
        left, right = parts
        assert (len(left), left[0], left[-1]) == (w, 0, w - 1)
        assert (len(right), right[0], right[-1]) == (n - 1 - w, w + 1, n - 1)
    assert count == n - 2


# ---------------------------------------------------------------------------
# Scaling
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("alpha", [0.5, 2.0, 10.0])
@pytest.mark.parametrize("builder", [sdf_matrix, erf_matrix])
def test_check_scaling_holds(builder, alpha):
    for seed in range(30):
        rng = np.random.RandomState(seed)
        g = random_graph(rng, n_max=10)
        assert check_scaling(builder(g), builder(scale_weights(g, alpha)), alpha)


def test_check_scaling_false_for_wrong_alpha():
    g = path_graph(4)
    m = sdf_matrix(g)
    m2 = sdf_matrix(scale_weights(g, 2.0))
    assert not check_scaling(m, m2, 1.0)


def test_check_scaling_validates_inputs():
    m = sdf_matrix(path_graph(3))
    with pytest.raises(ValueError):
        check_scaling(m, m, 0.0)
    with pytest.raises(DimensionMismatchError):
        check_scaling(m, sdf_matrix(path_graph(4)), 2.0)


# ---------------------------------------------------------------------------
# Matrix type and serialization
# ---------------------------------------------------------------------------

def test_matrix_construction_errors():
    with pytest.raises(DimensionMismatchError):
        RsmMatrix(np.zeros((2, 3)), "external")
    with pytest.raises(DimensionMismatchError):
        RsmMatrix(np.zeros((0, 0)), "external")
    with pytest.raises(ValueError):
        RsmMatrix(np.array([[0.0, np.nan], [1.0, 0.0]]), "external")
    with pytest.raises(ValueError):
        RsmMatrix(np.array([[0.0, -np.inf], [1.0, 0.0]]), "external")


def test_blocks_are_checked_like_values():
    # a matrix kept as blocks refuses NaN and -inf in any block, as a dense one does
    ok = np.array([[0.0, 1.0], [1.0, 0.0]])
    for bad, message in ((np.nan, "NaN"), (-np.inf, "-inf")):
        block = np.array([[0.0, bad], [bad, 0.0]])
        with pytest.raises(MatrixValueError, match=f"must not be {re.escape(message)}"):
            RsmMatrix._of_blocks(5, [(np.array([0, 3]), ok), (np.array([1, 4]), block)], "erf")


def test_matrix_is_frozen():
    m = sdf_matrix(path_graph(3))
    with pytest.raises(ValueError):
        m.values[0, 1] = 7.0


def test_matrix_copies_a_writeable_array_and_refuses_writes():
    vals = np.array([[0.0, 1.0], [1.0, 0.0]])
    m = RsmMatrix(vals, "external")
    assert not np.shares_memory(m.values, vals)
    vals[0, 1] = 5.0
    assert m.values[0, 1] == 1.0
    with pytest.raises(ValueError):
        m.values[0, 1] = 7.0
    for other in ([[0, 1], [1, 0]], np.array([[0, 1], [1, 0]]),
                  np.array([[0, 1], [1, 0]], dtype=np.float32)):
        m = RsmMatrix(other, "external")
        assert m.values.dtype == np.float64 and not m.values.flags.writeable
    frozen = np.array([[0.0, 2.0], [2.0, 0.0]])
    frozen.setflags(write=False)
    assert RsmMatrix(frozen, "external").values is frozen
    # a read-only subclass, whose indexing may differ, becomes a plain copy
    sub = frozen.view(type("Sub", (np.ndarray,), {}))
    assert type(RsmMatrix(sub, "external").values) is np.ndarray


@pytest.mark.parametrize("build", [
    lambda: sdf_matrix(path_graph(3)),
    lambda: sdf_matrix(Graph(2, ((0, 1, 1.0),), directed=True)),
    lambda: erf_matrix(path_graph(3)),
    lambda: erf_matrix(Graph(3, ((0, 1, 1.0),), directed=False)),
    lambda: rsm_from_csv("0,1\n1,0\n"),
    lambda: rsm_from_json('{"values": [[0, 1], [1, 0]]}'),
])
def test_built_matrices_refuse_writes_and_are_not_copied(monkeypatch, build):
    given_writeable = []
    check = RsmMatrix.__post_init__

    def spy(self):
        given_writeable.append(self.values.flags.writeable)
        check(self)

    monkeypatch.setattr(RsmMatrix, "__post_init__", spy)
    m = build()
    assert given_writeable == [False]  # handed over read-only, so kept as it is
    with pytest.raises(ValueError):
        m.values[0, 1] = 7.0


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000))
def test_csv_and_json_round_trip(seed):
    rng = np.random.RandomState(seed)
    g = random_graph(rng, n_max=8)
    m = sdf_matrix(g)
    via_csv = rsm_from_csv(rsm_to_csv(m))
    via_json = rsm_from_json(rsm_to_json(m))
    assert (via_csv.values == m.values).all()
    assert (via_json.values == m.values).all()
    assert via_json.source_rsm == "sdf"


def test_csv_parsing_errors():
    with pytest.raises(ParseError):
        rsm_from_csv("0,abc\n1,0\n")
    with pytest.raises(ParseError):
        rsm_from_csv("0,nan\n1,0\n")
    with pytest.raises(ParseError):
        rsm_from_csv("")
    with pytest.raises(DimensionMismatchError):
        rsm_from_csv("0,1,2\n1,0\n")
    m = rsm_from_csv("0,inf\ninf,0\n")
    assert math.isinf(m.values[0, 1])
    assert m.source_rsm == "external"


def test_json_parsing_errors():
    with pytest.raises(ParseError):
        rsm_from_json("{not json")
    with pytest.raises(ParseError):
        rsm_from_json('{"values": "nope"}')
    with pytest.raises(ParseError):
        rsm_from_json('{"values": [[0, "huge"], [1, 0]]}')
    with pytest.raises(ParseError):
        rsm_from_json('{"values": [[0, true], [1, 0]]}')
    with pytest.raises(DimensionMismatchError):
        rsm_from_json('{"values": [[0, 1, 2], [1, 0]]}')
    m = rsm_from_json('{"rsm": "erf", "values": [[0, "inf"], ["inf", 0]]}')
    assert m.source_rsm == "erf"
    assert math.isinf(m.values[1, 0])


@pytest.mark.parametrize("values", [
    '[[0, "-inf"], [1, 0]]',
    '[[0, "Infinity"], [1, 0]]',
    '[[0, null], [1, 0]]',
    '[[0, [1]], [1, 0]]',
    '[[0, {"v": 1}], [1, 0]]',
    '[[false, 1], [1, 0]]',
    '[[0, NaN], [1, 0]]',
    '[[0, 1], [1, 0], 3]',
    '[[0, 1' + '0' * 400 + '], [1, 0]]',
    '[[0, 1e400], [1e400, 0]]',
    '[[0, "inf"], [1e400, 0]]',
])
def test_json_rejects_non_number_entries(values):
    with pytest.raises(ParseError):
        rsm_from_json('{"values": %s}' % values)


@pytest.mark.parametrize("values", ['[[0, 1], [1]]', '[[0, 1], []]', '[[]]'])
def test_json_rejects_ragged_rows(values):
    with pytest.raises(DimensionMismatchError):
        rsm_from_json('{"values": %s}' % values)


def test_negative_infinity_entry_is_a_matrix_value_error():
    with pytest.raises(MatrixValueError):
        rsm_from_json('{"values": [[0, -Infinity], [1, 0]]}')
    with pytest.raises(MatrixValueError):
        rsm_from_csv("0,-inf\n1,0\n")


@pytest.mark.parametrize("values", [
    [[0, 10**400], [1, 0]],
    [[0, 1], [1]],
    [[0, "x"], [1, 0]],
    [[0, 1j], [1, 0]],
    [[0, "1_0"], ["\u0663", 0]],
    np.array([[0, 1 + 2j], [1, 0]]),
], ids=["int-overflow", "ragged", "string", "complex", "numeric-strings", "complex-array"])
def test_matrix_entries_that_are_not_reals_raise_matrix_value_error(values):
    with pytest.raises(MatrixValueError):
        RsmMatrix(values, "x")


@pytest.mark.parametrize("token", ["1e400", "-1e400", "1_0e400", "+2E999"])
def test_csv_rejects_a_finite_entry_too_large_for_a_float(token):
    with pytest.raises(ParseError, match="too large"):
        rsm_from_csv(f"0,{token}\n{token},0\n")


def test_readers_accept_every_inf_spelling():
    for token in ("inf", "Inf", "+inf", "INFINITY", "infinity", " inf "):
        m = rsm_from_csv(f"0,{token}\n{token},0\n")
        assert m.values[0, 1] == m.values[1, 0] == math.inf
    for entry in ('"inf"', "Infinity"):
        m = rsm_from_json('{"values": [[0, %s], [%s, 0]]}' % (entry, entry))
        assert m.values[0, 1] == m.values[1, 0] == math.inf


def test_json_accepts_mixed_numbers_and_inf():
    m = rsm_from_json('{"values": [[0, 2, "inf"], [2.5, 0, Infinity], ["inf", 1e308, 0]]}')
    assert m.values.tolist() == [[0.0, 2.0, math.inf], [2.5, 0.0, math.inf],
                                 [math.inf, 1e308, 0.0]]


def _writer_cases():
    karate = load_builtin_dataset("karate")
    two_pairs = Graph(4, ((0, 1, 0.3), (2, 3, 1e-7)), False)
    awkward = np.array([
        [0.0, 1e300, np.inf],
        [5e-324, -0.0, 1.5e-7],
        [np.inf, 123456789012345678.0, 0.1],
    ])
    directed = Graph(3, ((0, 1, 0.5), (1, 2, 0.25), (2, 0, 1.0)), True)
    return {
        **{f"almost-symmetric-{case}": RsmMatrix(vals, "external") for case, vals
           in _almost_symmetric(np.random.RandomState(9), 9).items()},
        "directed-sdf": sdf_matrix(directed),
        "symmetric-hostile": RsmMatrix(_mirrored(_hostile_matrix(np.random.RandomState(9), 9)),
                                       "external"),
        "karate-sdf": sdf_matrix(karate),
        "karate-erf": erf_matrix(karate),
        "disconnected-inf": sdf_matrix(two_pairs),
        "awkward-floats": RsmMatrix(awkward, "external"),
        "one-by-one": RsmMatrix(np.zeros((1, 1)), "sdf"),
        "escaped-tag": RsmMatrix(np.array([[0.0, np.inf], [np.inf, 0.0]]),
                                 'in"f\\tab\t\u00e9\n'),
    }


@pytest.mark.parametrize("case", sorted(_writer_cases()))
def test_matrix_writers_match_entrywise_reference(case):
    m = _writer_cases()[case]
    assert rsm_to_json(m) == json_dumps_rsm(m)
    assert rsm_to_csv(m) == csv_join_rsm(m)
    assert rsm_from_json(rsm_to_json(m)).source_rsm == m.source_rsm


# ---------------------------------------------------------------------------
# Connectivity pattern of generated matrices
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_infinity_exactly_on_cross_component_pairs(seed):
    rng = np.random.RandomState(seed)
    g = random_graph(rng, n_max=10)
    part = connected_components(g)
    for m in (sdf_matrix(g), erf_matrix(g)):
        for i in range(g.vertex_count):
            for j in range(g.vertex_count):
                assert math.isinf(m.values[i, j]) == (part.assignment[i] != part.assignment[j])
