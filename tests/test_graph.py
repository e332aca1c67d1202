import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tvssl.errors import (
    DegenerateScaleError,
    DimensionError,
    InvalidParameterError,
    NonFiniteInputError,
)
from tvssl.graph import (
    SimilarityGraph,
    build_knn_graph,
    dirichlet_energy,
    graph_tv,
    laplacian_apply,
    load_edge_list,
    save_edge_list,
)
from tvssl.data_io import make_two_moons

import oracles
from oracles import knn_union_pairs, ordered_pair_energy


def random_graph(n, seed, p=0.5):
    rng = np.random.default_rng(seed)
    ei, ej, w = [], [], []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                ei.append(i)
                ej.append(j)
                w.append(float(rng.uniform(0.1, 2.0)))
    if not ei:  # force at least one edge
        ei, ej, w = [0], [1], [1.0]
    return SimilarityGraph(n, np.array(ei), np.array(ej), np.array(w))


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def test_two_points_fixed_sigma():
    sigma = 0.7
    data = np.array([[0.0, 0.0], [sigma, 0.0]])  # squared distance = sigma^2
    g = build_knn_graph(data, 1, sigma_mode="fixed", sigma=sigma)
    assert g.n_edges == 1
    assert g.weight(0, 1) == pytest.approx(np.exp(-1.0), abs=1e-15)
    assert g.weight(1, 0) == g.weight(0, 1)


def test_three_collinear_union_symmetrization():
    data = np.array([[0.0], [1.0], [2.0]])
    g = build_knn_graph(data, 1, sigma_mode="fixed", sigma=1.0)
    pairs = set(zip(g.edge_i.tolist(), g.edge_j.tolist()))
    assert pairs == {(0, 1), (1, 2)}


def test_knn_matches_bruteforce_two_moons():
    ds = make_two_moons(10, 0.05, seed=3)
    g = build_knn_graph(ds.data, 3)
    pairs = set(zip(g.edge_i.tolist(), g.edge_j.tolist()))
    assert pairs == knn_union_pairs(ds.data, 3)
    assert 10 <= g.n_edges <= 30


def test_degrees_recomputable_from_edges():
    g = random_graph(7, seed=1)
    deg = np.zeros(7)
    for i, j, w in zip(g.edge_i, g.edge_j, g.edge_w):
        deg[i] += w
        deg[j] += w
    assert np.allclose(g.degrees, deg, rtol=1e-14, atol=0)


def test_knn_k_out_of_range():
    data = np.random.default_rng(0).normal(size=(5, 2))
    with pytest.raises(InvalidParameterError):
        build_knn_graph(data, 5)
    with pytest.raises(InvalidParameterError):
        build_knn_graph(data, 0)


def test_duplicate_points_degenerate_scale():
    data = np.array([[1.0, 1.0], [1.0, 1.0], [3.0, 0.0]])
    with pytest.raises(DegenerateScaleError):
        build_knn_graph(data, 1, sigma_mode="self_tuning")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_knn_rejects_nonfinite_points(bad):
    data = np.random.default_rng(8).normal(size=(10, 2))
    data[3, 1] = bad
    with pytest.raises(NonFiniteInputError):
        build_knn_graph(data, 3)


def test_fixed_mode_requires_sigma():
    data = np.random.default_rng(0).normal(size=(4, 2))
    with pytest.raises(InvalidParameterError):
        build_knn_graph(data, 2, sigma_mode="fixed")


@pytest.mark.parametrize(
    "kwargs",
    [
        # every weight of a NaN sigma was NaN and dropped, leaving no edges
        {"k": 3, "sigma_mode": "fixed", "sigma": float("nan")},
        {"k": 3, "sigma_mode": "fixed", "sigma": float("inf")},
        {"k": 3, "sigma_mode": "fixed", "sigma": 0.0},
        {"k": 2.5},  # raised numpy's raw TypeError
        {"k": True},  # was taken as k = 1
        {"k": 3, "m": 2.5},  # was truncated to m = 2
        {"k": 3, "m": False},
    ],
    ids=["sigma-nan", "sigma-inf", "sigma-zero", "k-fractional", "k-bool",
         "m-fractional", "m-bool"],
)
def test_knn_rejects_bad_scalar_parameters(kwargs):
    data = np.random.default_rng(9).normal(size=(10, 2))
    with pytest.raises(InvalidParameterError):
        build_knn_graph(data, **kwargs)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"sigma": 0.3}, 'sigma applies only to sigma_mode "fixed"'),
        ({"sigma_mode": "fixed", "sigma": 0.3, "m": 2},
         'm applies only to sigma_mode "self_tuning"'),
    ],
    ids=["sigma-self-tuning", "m-fixed"],
)
def test_knn_rejects_a_parameter_its_mode_ignores(kwargs, message):
    data = np.random.default_rng(9).normal(size=(10, 2))
    with pytest.raises(InvalidParameterError, match=message):
        build_knn_graph(data, 3, **kwargs)


def test_rejects_self_loops_and_nonpositive_weights():
    with pytest.raises(InvalidParameterError):
        SimilarityGraph(3, [0], [0], [1.0])
    with pytest.raises(InvalidParameterError):
        SimilarityGraph(3, [0], [1], [0.0])


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_rejects_non_finite_weights(bad):
    # NaN passes a "weight <= 0" test, and would make the degrees NaN
    with pytest.raises(InvalidParameterError, match="finite"):
        SimilarityGraph(3, [0, 1], [1, 2], [1.0, bad])


# ---------------------------------------------------------------------------
# energies
# ---------------------------------------------------------------------------


def test_dirichlet_constant_is_zero():
    g = random_graph(6, seed=2)
    assert dirichlet_energy(g, np.full(6, 3.7)) == 0.0


def test_dirichlet_single_edge():
    g = SimilarityGraph(2, [0], [1], [2.0])
    assert dirichlet_energy(g, np.array([1.0, 0.0])) == pytest.approx(4.0)


def test_dirichlet_matches_double_sum():
    g = random_graph(5, seed=5)
    f = np.random.default_rng(5).normal(size=5)
    expect = ordered_pair_energy(g.edge_i, g.edge_j, g.edge_w, f, 2)
    assert dirichlet_energy(g, f) == pytest.approx(expect, rel=1e-12)


def test_tv_constant_is_zero():
    g = random_graph(6, seed=3)
    assert graph_tv(g, np.full(6, -1.25)) == 0.0


def test_tv_single_edge():
    g = SimilarityGraph(2, [0], [1], [3.0])
    assert graph_tv(g, np.array([1.0, -1.0])) == pytest.approx(12.0)


def test_tv_matches_double_sum():
    g = random_graph(6, seed=7)
    f = np.random.default_rng(7).normal(size=6)
    expect = ordered_pair_energy(g.edge_i, g.edge_j, g.edge_w, f, 1)
    assert graph_tv(g, f) == pytest.approx(expect, rel=1e-12)


def test_laplacian_constant_in_kernel():
    g = random_graph(5, seed=9)
    assert np.allclose(laplacian_apply(g, np.full(5, 2.0)), 0.0, atol=1e-14)


def test_laplacian_two_nodes():
    g = SimilarityGraph(2, [0], [1], [1.0])
    out = laplacian_apply(g, np.array([1.0, 0.0]))
    assert np.allclose(out, [1.0, -1.0])


def test_laplacian_matches_dense():
    g = random_graph(8, seed=11)
    f = np.random.default_rng(11).normal(size=8)
    L = g.laplacian().toarray()
    assert np.max(np.abs(laplacian_apply(g, f) - L @ f)) < 1e-12


def test_laplacian_is_cached_and_equals_degree_minus_adjacency():
    g = random_graph(8, seed=12)
    L = g.laplacian()
    assert g.laplacian() is L
    W = np.zeros((8, 8))
    W[g.edge_i, g.edge_j] = g.edge_w
    W[g.edge_j, g.edge_i] = g.edge_w
    assert np.max(np.abs(L.toarray() - (np.diag(W.sum(axis=1)) - W))) < 1e-12


def test_dirichlet_is_twice_laplacian_quadratic_form():
    for seed in range(5):
        g = random_graph(6, seed=seed)
        f = np.random.default_rng(seed).normal(size=6)
        lhs = dirichlet_energy(g, f)
        rhs = 2.0 * float(f @ laplacian_apply(g, f))
        assert lhs == pytest.approx(rhs, rel=1e-10)


@settings(max_examples=40, deadline=None)
@given(
    a=st.floats(-5, 5, allow_nan=False),
    c=st.floats(-5, 5, allow_nan=False),
    seed=st.integers(0, 50),
)
def test_tv_homogeneity_and_shift(a, c, seed):
    g = random_graph(5, seed=seed)
    f = np.random.default_rng(seed).normal(size=5)
    base = graph_tv(g, f)
    assert graph_tv(g, a * f) == pytest.approx(abs(a) * base, rel=1e-9, abs=1e-9)
    assert graph_tv(g, f + c) == pytest.approx(base, rel=1e-9, abs=1e-9)


def test_energies_invariant_under_node_permutation():
    g = random_graph(6, seed=13)
    f = np.random.default_rng(13).normal(size=6)
    perm = np.random.default_rng(14).permutation(6)
    inv = np.argsort(perm)
    g2 = SimilarityGraph(6, inv[g.edge_i], inv[g.edge_j], g.edge_w)
    f2 = np.empty(6)
    f2[inv] = f
    assert dirichlet_energy(g2, f2) == pytest.approx(dirichlet_energy(g, f), rel=1e-12)
    assert graph_tv(g2, f2) == pytest.approx(graph_tv(g, f), rel=1e-12)


def test_dimension_mismatch_errors():
    g = random_graph(4, seed=1)
    with pytest.raises(DimensionError):
        dirichlet_energy(g, np.zeros(5))
    with pytest.raises(DimensionError):
        graph_tv(g, np.zeros(3))
    with pytest.raises(DimensionError):
        laplacian_apply(g, np.zeros(6))


# ---------------------------------------------------------------------------
# edge-list round trip
# ---------------------------------------------------------------------------


def test_edge_list_round_trip(tmp_path):
    g = random_graph(9, seed=21)
    path = tmp_path / "graph.txt"
    save_edge_list(g, path)
    g2 = load_edge_list(path, n_nodes=9)
    assert g2.n_nodes == 9
    assert np.array_equal(g.edge_i, g2.edge_i)
    assert np.array_equal(g.edge_j, g2.edge_j)
    assert np.array_equal(g.edge_w, g2.edge_w)  # full-precision decimals


@pytest.mark.parametrize(
    "line", ["1 2 nan", "1 2 inf", "1 2 -0.5", "1 x 0.3", "1.5 2 0.3", "1 2 0.3x"]
)
def test_edge_list_rejects_bad_line_naming_it(tmp_path, line):
    path = tmp_path / "g.txt"
    path.write_text(f"0 1 0.5\n{line}\n")
    with pytest.raises(InvalidParameterError, match="line 2"):
        load_edge_list(path)


def test_edge_list_infers_node_count(tmp_path):
    g = SimilarityGraph(4, [0, 2], [1, 3], [0.5, 1.5])
    path = tmp_path / "g.txt"
    save_edge_list(g, path)
    assert load_edge_list(path).n_nodes == 4


@pytest.mark.parametrize("ei", [[0.5], [1.5], [float("nan")], [True], ["0"]])
def test_rejects_fractional_and_non_integer_endpoints(ei):
    # a cast to int64 used to truncate 0.5 to 0 and build the edge 0-1
    with pytest.raises(InvalidParameterError, match="endpoints"):
        SimilarityGraph(3, ei, [1], [1.0])
    with pytest.raises(InvalidParameterError, match="endpoints"):
        SimilarityGraph(3, [1], ei, [1.0])


def test_accepts_whole_float_and_numpy_integer_endpoints():
    g = SimilarityGraph(np.int64(3), [0.0, 2.0], np.array([1, 1], dtype=np.uint8), [1.0, 2.0])
    assert g.n_nodes == 3 and type(g.n_nodes) is int
    assert g.edge_i.dtype == np.int64
    assert set(zip(g.edge_i.tolist(), g.edge_j.tolist())) == {(0, 1), (1, 2)}


@pytest.mark.parametrize("n_nodes", [2.5, 3.0, True, "3", None])
def test_rejects_non_integer_node_count(n_nodes):
    # 2.5 used to escape as numpy's TypeError from np.zeros
    with pytest.raises(InvalidParameterError, match="n_nodes"):
        SimilarityGraph(n_nodes, [0], [1], [1.0])


@pytest.mark.parametrize(
    "text, match",
    [
        ("0 1 0.5\n2 2 1.0\n", "line 2: self-loop"),
        ("0 1 0.5\n1 0 0.7\n", r"line 2: .* repeats the pair \(0, 1\) of line 1"),
        ("0 1 0.5\n1 2 0.5\n\n0 1 0.9\n", "line 4: .* of line 1"),
    ],
)
def test_edge_list_names_the_line_of_a_self_loop_or_repeated_pair(tmp_path, text, match):
    path = tmp_path / "g.txt"
    path.write_text(text)
    with pytest.raises(InvalidParameterError, match=match):
        load_edge_list(path)


def _tie_heavy_inputs():
    """Point sets whose k-th neighbor distance is tied in most rows."""
    rng = np.random.default_rng(7)
    xs, ys = np.meshgrid(np.arange(8.0), np.arange(8.0))
    return {
        "grid8": np.c_[xs.ravel(), ys.ravel()],
        "line": np.arange(30.0)[:, None],
        "integers": rng.permutation(np.unique(rng.integers(0, 6, size=(60, 2)), axis=0)) * 1.0,
        "random": rng.normal(size=(40, 3)),
    }


@pytest.mark.parametrize("name", ["grid8", "line", "integers", "random"])
@pytest.mark.parametrize("k_of_n", [lambda n: 1, lambda n: 3, lambda n: 5, lambda n: n - 1])
@pytest.mark.parametrize("m", [None, 3, 1])
@pytest.mark.parametrize("sigma", [None, 1.3])
def test_knn_graph_equals_the_stable_argsort_build_bit_for_bit(name, k_of_n, m, sigma):
    data = _tie_heavy_inputs()[name]
    k = k_of_n(len(data))
    mode = "self_tuning" if sigma is None else "fixed"
    if sigma is not None and m is not None:
        # the fixed mode has no use for m, so it rejects one
        with pytest.raises(InvalidParameterError, match="m applies only"):
            build_knn_graph(data, k, m=m, sigma_mode=mode, sigma=sigma)
        return
    g = build_knn_graph(data, k, m=m, sigma_mode=mode, sigma=sigma)
    ei, ej, w = oracles.knn_graph_argsort(data, k, m=m, sigma=sigma)
    assert np.array_equal(g.edge_i, ei) and np.array_equal(g.edge_j, ej)
    assert np.array_equal(g.edge_w, w)
    pairs = set(zip(ei.tolist(), ej.tolist()))
    if name != "random":  # integer coordinates: both distance routes are exact
        brute = knn_union_pairs(data, k)
        # scaled by the nearest distance, far pairs underflow to weight 0 and drop
        assert pairs == brute if (m != 1 or sigma) else pairs <= brute


def test_knn_graph_breaks_ties_by_index_on_a_large_grid():
    xs, ys = np.meshgrid(np.arange(20.0), np.arange(20.0))
    data = np.c_[xs.ravel(), ys.ravel()]
    for k in (1, 5, 10):
        for m in (None, 3):
            g = build_knn_graph(data, k, m=m)
            ei, ej, w = oracles.knn_graph_argsort(data, k, m=m)
            assert np.array_equal(g.edge_i, ei) and np.array_equal(g.edge_j, ej)
            assert np.array_equal(g.edge_w, w)
