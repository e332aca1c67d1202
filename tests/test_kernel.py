import tracemalloc

import numpy as np
import pytest

from tvssl.errors import DimensionError, InvalidParameterError, NonFiniteInputError
from tvssl.kernel import KernelMatrix, _sq_dists, kernel_expand, median_bandwidth, rbf_gram

from oracles import (
    kernel_expand_out_of_place,
    median_bandwidth_index_pairs,
    sq_dists_two_buffers,
)


def test_diagonal_is_exactly_one():
    data = np.random.default_rng(0).normal(size=(9, 3))
    K = rbf_gram(data, 0.8)
    assert np.all(K.values.diagonal() == 1.0)


def test_two_points_at_sqrt2_bandwidth():
    bw = 1.3
    data = np.array([[0.0, 0.0], [np.sqrt(2.0) * bw, 0.0]])
    K = rbf_gram(data, bw)
    assert K.values[0, 1] == pytest.approx(np.exp(-1.0), abs=1e-14)


def test_gram_matches_scalar_formula():
    rng = np.random.default_rng(4)
    data = rng.normal(size=(12, 4))
    bw = 1.1
    K = rbf_gram(data, bw)
    for i in range(12):
        for j in range(12):
            expect = np.exp(-np.sum((data[i] - data[j]) ** 2) / (2 * bw * bw))
            assert abs(K.values[i, j] - expect) < 1e-14


def test_gram_symmetry_and_psd():
    data = np.random.default_rng(1).normal(size=(30, 5))
    K = rbf_gram(data, 1.0)
    assert np.max(np.abs(K.values - K.values.T)) <= 1e-12
    eigs = np.linalg.eigvalsh(K.values)
    assert eigs.min() >= -1e-8 * np.trace(K.values) / K.n
    for seed in range(10):
        a = np.random.default_rng(seed).normal(size=30)
        assert a @ K.values @ a >= -1e-9


def test_gram_factorizable_with_jitter_policy():
    from tvssl.opt_core import DiagLaplacian, SpdFactor

    data = np.random.default_rng(2).normal(size=(40, 2))
    K = rbf_gram(data, 3.0)  # wide bandwidth, numerically near-singular
    x = SpdFactor(0.0, DiagLaplacian(40, r=1.0), K.values).solve(np.ones(40))
    assert np.all(np.isfinite(x))


def test_invalid_bandwidth():
    data = np.zeros((3, 2))
    with pytest.raises(InvalidParameterError):
        rbf_gram(data, 0.0)
    with pytest.raises(InvalidParameterError):
        kernel_expand(np.zeros(3), data, data, -1.0)


def test_expand_on_train_equals_gram_product():
    rng = np.random.default_rng(7)
    data = rng.normal(size=(8, 2))
    alpha = rng.normal(size=8)
    K = rbf_gram(data, 0.9)
    out = kernel_expand(alpha, data, data, 0.9)
    assert np.max(np.abs(out - K.values @ alpha)) < 1e-12


def test_expand_one_hot_gives_kernel_column():
    rng = np.random.default_rng(8)
    train = rng.normal(size=(6, 3))
    query = rng.normal(size=(4, 3))
    e2 = np.zeros(6)
    e2[2] = 1.0
    out = kernel_expand(e2, train, query, 1.2)
    expect = [np.exp(-np.sum((q - train[2]) ** 2) / (2 * 1.2**2)) for q in query]
    assert np.allclose(out, expect, atol=1e-14)


def test_expand_matches_double_loop():
    rng = np.random.default_rng(9)
    train = rng.normal(size=(5, 2))
    query = rng.normal(size=(3, 2))
    alpha = rng.normal(size=5)
    bw = 0.7
    out = kernel_expand(alpha, train, query, bw)
    for qi, q in enumerate(query):
        val = sum(
            alpha[j] * np.exp(-np.sum((q - train[j]) ** 2) / (2 * bw * bw))
            for j in range(5)
        )
        assert out[qi] == pytest.approx(val, abs=1e-13)


def test_expand_dimension_checks():
    with pytest.raises(DimensionError):
        kernel_expand(np.zeros(3), np.zeros((4, 2)), np.zeros((2, 2)), 1.0)
    with pytest.raises(DimensionError):
        kernel_expand(np.zeros(4), np.zeros((4, 2)), np.zeros((2, 3)), 1.0)
    # a (c, n) coefficient block must hold n columns; 0-d or 3-d is no block
    for alpha in (np.zeros((2, 3)), np.zeros((2, 2, 4)), np.float64(0.0)):
        with pytest.raises(DimensionError):
            kernel_expand(alpha, np.zeros((4, 2)), np.zeros((2, 2)), 1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_nonfinite_points_rejected_at_the_boundary(bad):
    data = np.random.default_rng(13).normal(size=(6, 2))
    dirty = data.copy()
    dirty[2, 0] = bad
    with pytest.raises(NonFiniteInputError):
        rbf_gram(dirty, 1.0)
    with pytest.raises(NonFiniteInputError):
        median_bandwidth(dirty)
    with pytest.raises(NonFiniteInputError):
        kernel_expand(np.ones(6), data, dirty[:3], 1.0)
    with pytest.raises(NonFiniteInputError):  # a NaN training point made every value NaN
        kernel_expand(np.ones(6), dirty, data[:3], 1.0)
    # a Gram matrix with one bad off-diagonal entry, rejected where it is built
    for entry in (bad, -bad):
        gram = np.eye(40)
        gram[3, 7] = entry
        with pytest.raises(NonFiniteInputError):
            KernelMatrix(gram, 1.0)


_POINTS = np.random.default_rng(14).normal(size=(6, 2))


@pytest.mark.parametrize(
    "call",
    [
        # a NaN bandwidth made an all-NaN off-diagonal Gram, an infinite one
        # all ones, and a NaN expansion; a fractional sample size or seed
        # raised a raw TypeError
        lambda: rbf_gram(_POINTS, np.nan),
        lambda: rbf_gram(_POINTS, np.inf),
        lambda: rbf_gram(_POINTS, True),
        lambda: kernel_expand(np.ones(6), _POINTS, _POINTS, np.nan),
        lambda: kernel_expand(np.ones(6), _POINTS, _POINTS, -np.inf),
        lambda: median_bandwidth(_POINTS, max_points=1.5),
        lambda: median_bandwidth(_POINTS, max_points=1),
        lambda: median_bandwidth(_POINTS, max_points=3, seed=2.5),
        lambda: median_bandwidth(_POINTS, max_points=3, seed=-1),
        # point arrays that are not 2-D raised numpy's AxisError or
        # ValueError in median_bandwidth and kernel_expand; a Gram matrix of
        # no points was built
        lambda: median_bandwidth(_POINTS[:, 0]),
        lambda: median_bandwidth(_POINTS[:, :, None]),
        lambda: median_bandwidth(_POINTS[:1]),
        lambda: kernel_expand(np.ones(6), _POINTS[:, :, None], _POINTS, 1.0),
        lambda: kernel_expand(np.ones(6), _POINTS, _POINTS[:, :, None], 1.0),
        lambda: rbf_gram(_POINTS[:, 0], 1.0),
        lambda: rbf_gram(np.zeros((0, 2)), 1.0),
    ],
    ids=["gram-nan", "gram-inf", "gram-bool", "expand-nan", "expand-neg-inf",
         "median-fractional-sample", "median-one-point-sample", "median-fractional-seed",
         "median-negative-seed", "median-1d-points", "median-3d-points", "median-one-point",
         "expand-3d-train", "expand-3d-query", "gram-1d-points", "gram-no-points"],
)
def test_bad_bandwidths_and_sample_sizes_raise(call):
    with pytest.raises(InvalidParameterError):
        call()


def test_median_bandwidth_deterministic_and_positive():
    data = np.random.default_rng(11).normal(size=(50, 3))
    b1 = median_bandwidth(data)
    b2 = median_bandwidth(data)
    assert b1 == b2 and b1 > 0


@pytest.mark.parametrize("n", [7, 8, 50, 200, 2000])  # 21, 28, 1225, 19900, 499500 pairs
def test_median_bandwidth_matches_the_index_pair_formula_bit_for_bit(n):
    from tvssl.data_io import make_two_moons

    data = make_two_moons(n + n % 2, 0.08, n).data[:n]
    assert median_bandwidth(data).hex() == median_bandwidth_index_pairs(data).hex()


def test_median_bandwidth_holds_one_distance_matrix():
    # the distances overwrite the squared ones and the pairs are gathered by
    # a boolean mask; index arrays and a second distance array took 2.9x
    from tvssl.data_io import make_two_moons

    n = 1000
    data = make_two_moons(n, 0.08, 3).data
    tracemalloc.start()
    try:
        median_bandwidth(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.75 * 8 * n * n


def test_gram_keeps_data_reference():
    data = np.random.default_rng(12).normal(size=(5, 2))
    K = rbf_gram(data, 1.0)
    assert K.data is not None and K.data.shape == (5, 2)


def test_root_reproduces_a_low_rank_gram_and_is_full_on_a_full_rank_one():
    from tvssl.data_io import make_two_moons

    data = make_two_moons(600, 0.08, 5).data
    K = rbf_gram(data, 0.5 * median_bandwidth(data))
    C = K.root()
    assert C.shape[0] == K.n and C.shape[1] < 0.4 * K.n
    assert np.max(np.abs(K.values - C @ C.T)) <= 1e-10
    Z = np.random.default_rng(6).normal(size=(120, 256))
    assert rbf_gram(Z, median_bandwidth(Z)).root().shape == (120, 120)


def test_root_is_built_once_per_kernel_matrix(monkeypatch):
    from tvssl import kernel
    from tvssl.binary import SvmProxSolver
    from tvssl.graph import build_knn_graph
    from tvssl.opt_core import HyperParams

    calls = []
    real = kernel.dpstrf

    def spy(*args, **kwargs):
        calls.append(args[0].shape)
        return real(*args, **kwargs)

    monkeypatch.setattr(kernel, "dpstrf", spy)
    data = np.random.default_rng(7).normal(size=(80, 2))
    K = rbf_gram(data, 0.5 * median_bandwidth(data))
    g = build_knn_graph(data, 5)
    hp = HyperParams(lam=0.1, mu=1.0)
    SvmProxSolver(K, hp)
    SvmProxSolver(K, hp, r=1.0)
    SvmProxSolver(K, hp, laplacian=g.laplacian(), gamma=0.5)
    assert calls == [(80, 80)]
    SvmProxSolver(rbf_gram(data, 1.0), hp)
    assert calls == [(80, 80), (80, 80)]


@pytest.mark.parametrize(
    "n, m, d", [(7, 7, 2), (150, 150, 2), (130, 57, 3), (40, 300, 256), (200, 200, 256)]
)
def test_sq_dists_in_one_buffer_match_the_two_buffer_formula_bit_for_bit(n, m, d):
    rng = np.random.default_rng(n + m + d)
    a = rng.normal(size=(n, d))
    b = a if m == n else rng.normal(size=(m, d))
    got = _sq_dists(a, b)
    assert got.shape == (n, m)
    assert got.tobytes() == sq_dists_two_buffers(a, b).tobytes()
    if m == n:  # the Gram matrix's own call, a @ a.T
        assert _sq_dists(a, a).tobytes() == sq_dists_two_buffers(a, a).tobytes()


@pytest.mark.parametrize("n, m, d", [(90, 90, 2), (130, 57, 3), (40, 300, 256)])
def test_expand_in_place_matches_the_out_of_place_formula_bit_for_bit(n, m, d):
    rng = np.random.default_rng(d)
    train, query = rng.normal(size=(n, d)), rng.normal(size=(m, d))
    alpha = rng.normal(size=n)
    bw = 0.7 * np.sqrt(d)
    got = kernel_expand(alpha, train, query, bw)
    assert got.tobytes() == kernel_expand_out_of_place(alpha, train, query, bw).tobytes()
    # a (c, n) block: each row the bytes of its own call
    block = np.stack([alpha, -2.0 * alpha, rng.normal(size=n)])
    rows = kernel_expand(block, train, query, bw)
    assert rows.shape == (3, m)
    for a, row in zip(block, rows):
        assert row.tobytes() == kernel_expand(a, train, query, bw).tobytes()
