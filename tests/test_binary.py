import json
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from tvssl import binary, multiclass
from tvssl.binary import (
    BinaryModel,
    LabeledSet,
    SvmProxSolver,
    cheeger_rls_train,
    cheeger_svm_train,
    lap_rls_train,
    lap_svm_train,
    load_model,
    predict_binary,
    rls_train,
    save_model,
    svm_train,
    svm_value_prox,
    transductive_labels,
    tv_rls_train,
    tv_svm_train,
)
from tvssl.bench_cli import default_hyperparams
from tvssl.data_io import Dataset, SplitSpec, make_split, make_two_moons
from tvssl.errors import (
    DegenerateInputError,
    DimensionError,
    FactorizationError,
    InvalidParameterError,
)
from tvssl.graph import SimilarityGraph, build_knn_graph, graph_tv
from tvssl.kernel import KernelMatrix, _symmetrize, median_bandwidth, rbf_gram
from tvssl.opt_core import (
    DiagLaplacian,
    HyperParams,
    LuFactor,
    RootFactor,
    SpdFactor,
    project_box_eq,
)

from oracles import (
    exhaustive_two_level_ratio,
    lap_rls_objective,
    margin_kernel_n_columns,
    margin_objective_with_best_bias,
    margin_primal_slsqp,
    masked_rls_alpha,
    qp_box_eq_enumerate,
    qp_box_eq_two_projections,
    rls_gradient_descent,
    tv_prox_row_by_row,
    tv_rls_objective,
    value_prox_primal_slsqp,
)


def two_cluster_data(per_side=5, gap=4.0, seed=3, spread=0.25):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(per_side, 2)) * spread
    b = rng.normal(size=(per_side, 2)) * spread + np.array([gap, 0.0])
    X = np.vstack([a, b])
    y = np.array([1.0] * per_side + [-1.0] * per_side)
    return X, y


def labeled_first_of_each(y):
    n = len(y)
    mask = np.zeros(n, dtype=bool)
    mask[np.flatnonzero(y > 0)[0]] = True
    mask[np.flatnonzero(y < 0)[0]] = True
    return LabeledSet(np.where(mask, y, 0.0), mask)


# ---------------------------------------------------------------------------
# rls
# ---------------------------------------------------------------------------


def test_rls_interpolates_as_lam_vanishes():
    X, y = two_cluster_data()
    K = rbf_gram(X, 1.0)
    hp = HyperParams(eta=1.0, lam=1e-10)
    m = rls_train(K, y, hp)
    assert np.max(np.abs(K.values @ m.alpha - y)) < 1e-6


def test_rls_identity_kernel_halves_labels():
    y = np.array([1.0, -1.0, 1.0, -1.0])
    K = KernelMatrix(np.eye(4), 1.0)
    m = rls_train(K, y, HyperParams(eta=1.0, lam=1.0))
    assert np.allclose(m.alpha, y / 2.0, atol=1e-12)


def test_rls_matches_gradient_descent_oracle():
    X, y = two_cluster_data(3, seed=9)
    K = rbf_gram(X, 1.5)
    eta, lam = 2.0, 0.5
    m = rls_train(K, y, HyperParams(eta=eta, lam=lam))
    a_gd = rls_gradient_descent(K.values, y, eta, lam)
    assert np.max(np.abs(m.alpha - a_gd)) < 1e-6


def test_rls_residual_substitution():
    X, y = two_cluster_data(4, seed=2)
    K = rbf_gram(X, 0.8)
    hp = HyperParams(eta=3.0, lam=0.2)
    m = rls_train(K, y, hp)
    A = hp.eta * K.values + hp.lam * np.eye(K.n)
    r = A @ m.alpha - hp.eta * y
    assert np.linalg.norm(r) <= 1e-8 * np.linalg.norm(hp.eta * y)


def test_rls_requires_both_classes():
    K = KernelMatrix(np.eye(3), 1.0)
    with pytest.raises(InvalidParameterError):
        rls_train(K, np.ones(3), HyperParams())


@pytest.mark.parametrize("train", [rls_train, svm_train])
@pytest.mark.parametrize("bad", [2.0, 0.0, np.nan])
def test_supervised_trainers_reject_labels_other_than_plus_minus_one(monkeypatch, train, bad):
    X, y = two_cluster_data(3, seed=9)
    K = rbf_gram(X, 1.0)
    y[0] = bad

    def no_factor(*args, **kwargs):
        raise AssertionError("a bad y must be rejected before any factorization")

    monkeypatch.setattr(K, "root", no_factor)
    monkeypatch.setattr(binary, "_kernel_factor", no_factor)
    with pytest.raises(InvalidParameterError, match="y entries"):
        train(K, y, HyperParams())


# ---------------------------------------------------------------------------
# lap_rls
# ---------------------------------------------------------------------------


def test_lap_rls_gamma_zero_fully_labeled_reduces_to_rls():
    X, y = two_cluster_data(4, seed=5)
    K = rbf_gram(X, 1.0)
    g = build_knn_graph(X, 3)
    ls = LabeledSet(y, np.ones(len(y), dtype=bool))
    hp = HyperParams(eta=2.0, lam=0.1, gamma=1e-300)
    hp_plain = HyperParams(eta=2.0, lam=0.1)
    m1 = lap_rls_train(K, g, ls, hp)
    m0 = rls_train(K, y, hp_plain)
    assert np.max(np.abs(m1.alpha - m0.alpha)) < 1e-8


def test_lap_rls_two_node_hand_solve():
    k, w = 0.4, 0.7
    eta, lam, gamma = 2.0, 0.3, 0.5
    K = KernelMatrix(np.array([[1.0, k], [k, 1.0]]), 1.0)
    g = SimilarityGraph(2, [0], [1], [w])
    ls = LabeledSet(np.array([1.0, -1.0]), np.array([True, False]))
    m = lap_rls_train(K, g, ls, HyperParams(eta=eta, lam=lam, gamma=gamma))
    # system matrix written out by hand, inverted by adjugate
    a11 = eta * 1.0 + lam + 2 * gamma * w * (1 - k)
    a12 = eta * k + 2 * gamma * w * (k - 1)
    a21 = 2 * gamma * w * (k - 1)
    a22 = lam + 2 * gamma * w * (1 - k)
    det = a11 * a22 - a12 * a21
    rhs = np.array([eta * 1.0, 0.0])
    alpha_hand = np.array([a22 * rhs[0] - a12 * rhs[1], -a21 * rhs[0] + a11 * rhs[1]]) / det
    assert np.allclose(m.alpha, alpha_hand, atol=1e-10)


def test_lap_rls_beats_random_perturbations():
    X, y = two_cluster_data(5, seed=7)
    K = rbf_gram(X, 1.2)
    g = build_knn_graph(X, 4)
    ls = labeled_first_of_each(y)
    hp = HyperParams(eta=5.0, lam=0.05, gamma=0.3)
    m = lap_rls_train(K, g, ls, hp)
    base = lap_rls_objective(
        K.values, g, ls.y_ext, ls.labeled_mask, hp.eta, hp.lam, hp.gamma, m.alpha
    )
    rng = np.random.default_rng(0)
    for _ in range(100):
        delta = rng.normal(size=K.n) * rng.uniform(1e-4, 0.3)
        obj = lap_rls_objective(
            K.values, g, ls.y_ext, ls.labeled_mask, hp.eta, hp.lam, hp.gamma,
            m.alpha + delta,
        )
        assert obj >= base - 1e-10


def test_lap_rls_residual_bound():
    X, y = two_cluster_data(5, seed=8)
    K = rbf_gram(X, 1.0)
    g = build_knn_graph(X, 3)
    ls = labeled_first_of_each(y)
    hp = HyperParams(eta=10.0, lam=0.01, gamma=0.5)
    m = lap_rls_train(K, g, ls, hp)
    M = (
        hp.eta * (ls.labeled_mask[:, None] * K.values)
        + hp.lam * np.eye(K.n)
        + 2 * hp.gamma * (g.laplacian() @ K.values)
    )
    rhs = hp.eta * ls.y_ext
    assert np.linalg.norm(M @ m.alpha - rhs) <= 1e-8 * np.linalg.norm(rhs)


# ---------------------------------------------------------------------------
# svm
# ---------------------------------------------------------------------------


def test_svm_two_separated_points_kkt():
    X = np.array([[0.0, 0.0], [8.0, 0.0]])
    y = np.array([1.0, -1.0])
    K = rbf_gram(X, 1.0)
    hp = HyperParams(lam=0.5, mu=100.0)
    m = svm_train(K, y, hp)
    f = m.node_values
    # margins met with essentially no slack, multipliers strictly interior
    assert np.all(y * f >= 1.0 - 1e-6)
    assert np.max(np.maximum(0.0, 1.0 - y * f)) < 1e-6
    k12 = K.values[0, 1]
    t_expected = hp.lam / (1.0 + k12)  # stationarity along beta1 = beta2
    assert np.allclose(m.alpha, y * t_expected / hp.lam, atol=1e-6)


def test_svm_mu_to_zero_collapses():
    X, y = two_cluster_data(3, seed=11)
    K = rbf_gram(X, 1.0)
    m = svm_train(K, y, HyperParams(lam=0.1, mu=1e-12))
    assert np.max(np.abs(m.alpha)) < 1e-10
    assert np.all(predict_binary(m, X) == 1)


def test_svm_dual_objective_matches_enumeration():
    X, y = two_cluster_data(4, seed=13)
    K = rbf_gram(X, 1.3)
    hp = HyperParams(lam=0.7, mu=1.1)
    prox = SvmProxSolver(K, hp)
    _, sol = prox.solve(y)
    Q = (y[:, None] * y[None, :]) * K.values / hp.lam
    _, best = qp_box_eq_enumerate(Q, 0.0, y, hp.mu)
    assert sol.objective == pytest.approx(best, abs=1e-6)


def test_svm_primal_matches_slsqp_oracle():
    X, y = two_cluster_data(3, gap=2.0, seed=17)
    K = rbf_gram(X, 1.0)
    hp = HyperParams(lam=0.8, mu=1.5)
    m = svm_train(K, y, hp)
    f_oracle, obj_oracle, _ = margin_primal_slsqp(K.values, y, hp.lam, hp.mu)
    assert np.linalg.norm(m.node_values - f_oracle) < 1e-4
    ours = margin_objective_with_best_bias(K.values, y, hp.lam, hp.mu, m.node_values, m.alpha)
    assert abs(ours - obj_oracle) < 1e-6


# ---------------------------------------------------------------------------
# lap_svm
# ---------------------------------------------------------------------------


def test_lap_svm_gamma_zero_reduces_to_svm():
    X, y = two_cluster_data(4, seed=19)
    K = rbf_gram(X, 1.0)
    g = build_knn_graph(X, 3)
    ls = LabeledSet(y, np.ones(len(y), dtype=bool))
    hp = HyperParams(lam=0.5, gamma=1e-300, mu=1.0)
    m1 = lap_svm_train(K, g, ls, hp)
    m0 = svm_train(K, y, HyperParams(lam=0.5, mu=1.0))
    assert np.max(np.abs(m1.alpha - m0.alpha)) < 1e-8


def test_lap_svm_two_node_hand_dual_kernel():
    k, w = 0.3, 0.9
    lam, gamma = 0.6, 0.4
    K = KernelMatrix(np.array([[1.0, k], [k, 1.0]]), 1.0)
    g = SimilarityGraph(2, [0], [1], [w])
    hp = HyperParams(lam=lam, gamma=gamma, mu=1.0)
    prox = SvmProxSolver(K, hp, laplacian=g.laplacian(), gamma=gamma)
    # S = (lam I + 2 gamma K L)^{-1} K by hand
    KL = K.values @ g.laplacian().toarray()
    B_T = lam * np.eye(2) + 2 * gamma * KL
    det = B_T[0, 0] * B_T[1, 1] - B_T[0, 1] * B_T[1, 0]
    inv = np.array([[B_T[1, 1], -B_T[0, 1]], [-B_T[1, 0], B_T[0, 0]]]) / det
    S_hand = inv @ K.values
    assert np.allclose(prox.S, 0.5 * (S_hand + S_hand.T), atol=1e-12)


def test_lap_svm_beats_feasible_perturbations():
    X, y = two_cluster_data(5, seed=23)
    K = rbf_gram(X, 1.2)
    g = build_knn_graph(X, 4)
    ls = LabeledSet(y, np.ones(len(y), dtype=bool))
    hp = HyperParams(lam=0.4, gamma=0.2, mu=1.0)
    m = lap_svm_train(K, g, ls, hp)
    base = margin_objective_with_best_bias(
        K.values, y, hp.lam, hp.mu, m.node_values, m.alpha, graph=g, gamma=hp.gamma
    )
    rng = np.random.default_rng(1)
    Kinv_reg = np.linalg.inv(K.values + 1e-10 * np.eye(K.n))
    for _ in range(100):
        f_pert = m.node_values + rng.normal(size=K.n) * rng.uniform(1e-3, 0.3)
        a_pert = Kinv_reg @ f_pert
        obj = margin_objective_with_best_bias(
            K.values, y, hp.lam, hp.mu, f_pert, a_pert, graph=g, gamma=hp.gamma
        )
        assert obj >= base - 1e-8


class _RowRecorder(np.ndarray):
    """An array that records the row indices it is gathered at."""

    def __getitem__(self, idx):
        self.gathered.append(idx)
        return np.asarray(self)[idx]


def _dual_product_case(n, nnz, seed):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, n))
    S = (A @ A.T / n).view(_RowRecorder)
    S.gathered = []
    y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    b = np.zeros(n)
    b[rng.choice(n, nnz, replace=False)] = rng.uniform(0.1, 1.0, nnz)
    return S, y, b


@pytest.mark.parametrize("n", [150, 1600])
@pytest.mark.parametrize("support", ["none", "one", "at_rule", "over_rule"])
def test_signed_kernel_gathered_product_equals_the_dense_one(n, support):
    nnz = {"none": 0, "one": 1, "at_rule": n // 4, "over_rule": n // 4 + 1}[support]
    S, y, b = _dual_product_case(n, nnz, seed=n + nnz)
    got = binary._SignedKernel(S, y) @ b
    dense = y * (np.asarray(S) @ (y * b))
    assert got.shape == (n,)
    assert np.linalg.norm(got - dense) <= 1e-12 * np.linalg.norm(dense)
    # rows are gathered only on a large S at a support of at most a quarter
    assert bool(S.gathered) == (n >= 300 and 4 * nnz <= n)


def _lap_svm_inputs(n, per_class, seed=5):
    ds = make_two_moons(n, 0.08, seed)
    g = build_knn_graph(ds.data, 10)
    K = rbf_gram(ds.data, 0.5 * median_bandwidth(ds.data))
    split = make_split(ds, SplitSpec(per_class, seed))
    return K, g, split, default_hyperparams("lap_svm", None)


def _gram_cases(name):
    """(K, graph) for the margin kernel's root-route cases."""
    ds = make_two_moons(600, 0.08, 1)
    bw = 0.5 * median_bandwidth(ds.data)
    g = build_knn_graph(ds.data, 10)
    if name == "moons":  # short root: r is about 165 of 600
        return rbf_gram(ds.data, bw), g
    if name == "duplicates":  # exactly singular: 100 points appear twice
        X = np.vstack([ds.data, ds.data[:100]])
        jitter = 1e-9 * np.random.default_rng(0).normal(size=X.shape)
        return rbf_gram(X, bw), build_knn_graph(X + jitter, 10)
    if name == "full_rank":  # 256 dimensions: r = n, so the n-column route
        Z = np.random.default_rng(0).normal(size=(300, 256))
        return rbf_gram(Z, median_bandwidth(Z)), build_knn_graph(Z, 10)
    K = rbf_gram(ds.data, bw)
    if name == "indefinite":  # one large eigenvalue flipped: C C^T cannot hold it
        w, V = np.linalg.eigh(K.values)
        flipped = K.values - 2.0 * w[-10] * np.outer(V[:, -10], V[:, -10])
        return KernelMatrix(flipped, bw, ds.data), g
    assert name == "stale"  # the values change after the root is cached
    K.root()
    K.values = K.values + 1e-3 * np.eye(K.n)
    return K, g


@pytest.mark.parametrize("graph_term", [True, False])
@pytest.mark.parametrize(
    "name", ["moons", "duplicates", "full_rank", "indefinite", "stale"]
)
def test_margin_kernel_through_the_gram_root_matches_the_n_column_route(name, graph_term):
    K, g = _gram_cases(name)
    hp = default_hyperparams("lap_svm", None)
    kw = {"laplacian": g.laplacian(), "gamma": hp.gamma} if graph_term else {"r": 1.0}
    if name == "indefinite" and not graph_term:
        with pytest.raises(FactorizationError):  # lam I + r K is indefinite too
            SvmProxSolver(K, hp, **kw)
        return
    prox = SvmProxSolver(K, hp, **kw)
    L, I = g.laplacian(), np.eye(K.n)
    if graph_term:
        D = DiagLaplacian(K.n, laplacian=L, weight=2.0 * hp.gamma)
        F = hp.lam * I + 2.0 * hp.gamma * (L @ K.values)
    else:
        D = DiagLaplacian(K.n, r=1.0)
        F = hp.lam * I + K.values
    full = binary._kernel_factor(K, hp.lam, D)  # the n-column route's factor of F
    assert isinstance(full, LuFactor if graph_term else SpdFactor)
    S_ref = margin_kernel_n_columns(full, K.values)
    rank, refined = prox.counters["gram_rank"], prox.counters["s_refined_cols"]
    if name in ("full_rank", "indefinite", "stale"):
        # r = n, or a root the check rejects: the n-column route, bit for bit
        assert isinstance(prox.factor, type(full)) and rank == K.n
        assert np.array_equal(prox.S, S_ref)
        if name == "full_rank":
            assert K.root().shape[1] == K.n and refined == 0
        else:
            assert K.root().shape[1] <= 0.4 * K.n
            assert refined > K.n // 2  # the root misses them, and the trace says so
            y = np.where(np.arange(K.n) % 2 == 0, 1.0, -1.0)
            trace = binary._svm_model("svm", K, hp, prox, y).trace
            assert (trace["gram_rank"], trace["s_refined_cols"]) == (K.n, refined)
        return
    assert isinstance(prox.factor, RootFactor)
    assert rank == K.root().shape[1] <= 0.4 * K.n and refined == 0
    assert np.max(np.abs(prox.S - S_ref)) <= 1e-10 * np.max(np.abs(S_ref))
    assert np.array_equal(prox.S, prox.S.T)
    exact = np.linalg.eigvalsh(prox.S)[-1]
    assert abs(prox.q_norm - exact) <= 1e-12 * exact
    # the per-column residual contract against the full K and system matrix
    res = K.values - F.T @ prox.S
    assert np.all(
        np.linalg.norm(res, axis=0) <= 1e-8 * np.linalg.norm(K.values, axis=0)
    )
    rng = np.random.default_rng(3)
    for b in (rng.normal(size=K.n), rng.normal(size=(K.n, 3))):
        x = prox.factor.solve(b)
        assert x.shape == b.shape
        r = (F @ x - b).reshape(K.n, -1)
        assert np.all(
            np.linalg.norm(r, axis=0) <= 1e-8 * np.linalg.norm(b.reshape(K.n, -1), axis=0)
        )


@pytest.mark.parametrize("n", [200, 600])
def test_margin_trainers_trace_how_their_dual_kernel_was_solved(n):
    K, g, split, hp = _lap_svm_inputs(n, 2)
    r = K.root().shape[1]
    expected = {"gram_rank": r if r <= 0.4 * n else n, "s_refined_cols": 0}
    assert (r <= 0.4 * n) == (n == 600)
    y = np.where(split.labeled_mask, split.labels, 1.0)
    y[np.flatnonzero(~split.labeled_mask)[::2]] = -1.0
    models = [
        svm_train(K, y, hp),
        lap_svm_train(K, g, split, hp),
        cheeger_svm_train(K, g, split, replace(default_hyperparams("cheeger_svm"), outer_iters=2)),
    ]
    for m in models:
        assert {key: m.trace[key] for key in expected} == expected
    for m in (rls_train(K, y, hp), lap_rls_train(K, g, split, hp)):
        assert "gram_rank" not in m.trace


def test_margin_solver_on_a_gram_matrix_of_rank_zero():
    K = KernelMatrix(np.zeros((10, 10)), 1.0)  # an empty root: S = 0 and ||S|| = 0
    y = np.where(np.arange(10) % 2 == 0, 1.0, -1.0)
    m = svm_train(K, y, HyperParams())
    assert m.trace["gram_rank"] == 0 and m.trace["s_refined_cols"] == 0
    assert np.all(m.alpha == 0.0) and m.trace["support"] == 0


def test_lap_svm_through_the_gram_root_builds_no_n_by_n_factor(monkeypatch):
    K, g, split, hp = _lap_svm_inputs(600, 2)

    def refuse(self, *args):
        raise AssertionError(f"the root route built an n x n {type(self).__name__}")

    monkeypatch.setattr(LuFactor, "__init__", refuse)
    monkeypatch.setattr(SpdFactor, "__init__", refuse)
    m = lap_svm_train(K, g, split, hp)
    r = K.root().shape[1]
    assert r <= 0.4 * K.n
    assert m.trace["gram_rank"] == r and m.trace["s_refined_cols"] == 0


def test_qp_through_the_signed_kernel_equals_the_dense_dual():
    K, g, split, hp = _lap_svm_inputs(400, 2)
    prox = SvmProxSolver(K, hp, laplacian=g.laplacian(), gamma=hp.gamma)
    warm = K.values @ binary._lap_ls(K, g, split.labeled_mask, split.y_ext, hp)
    y = binary._pseudo_refresh(split, 1.0, warm)
    dense = np.outer(y, y) * prox.S
    signed = binary._SignedKernel(prox.S, y)
    a = binary.qp_box_eq(signed, 0.0, y, hp.mu, tol=prox.qp_tol)
    b = binary.qp_box_eq(dense, 0.0, y, hp.mu, tol=prox.qp_tol)
    assert a.stop_reason == b.stop_reason == "tol"
    assert 4 * np.count_nonzero(a.beta) <= len(y)  # the gathered product ran
    assert abs(a.objective - b.objective) <= 1e-12 * abs(b.objective)
    assert np.linalg.norm(a.beta - b.beta) <= 1e-6 * np.linalg.norm(b.beta)
    assert a.kkt_residuals["stationarity"] <= prox.qp_tol
    assert abs(a.iterations - b.iterations) <= 0.05 * b.iterations + 5


def test_lap_svm_dual_finishes_on_its_face():
    """On a lap_svm dual the face steps cut the projected steps and land
    closer to the optimum than the plain iteration's stop at the same tol."""
    K, g, split, hp = _lap_svm_inputs(400, 2)
    prox = SvmProxSolver(K, hp, laplacian=g.laplacian(), gamma=hp.gamma)
    y = binary._pseudo_refresh(split, 1.0, binary._warm_values(prox.S, split, hp.eta))
    _alpha, sol = prox.solve(y)
    signed = binary._SignedKernel(prox.S, y)
    plain = qp_box_eq_two_projections(
        signed, 0.0, y, hp.mu, project_box_eq, tol=prox.qp_tol, face_steps=False
    )
    tight = binary.qp_box_eq(signed, 0.0, y, hp.mu, tol=1e-10, q_norm=prox.q_norm)
    assert sol.stop_reason == plain[4] == tight.stop_reason == "tol"
    assert sol.face_steps >= 1
    assert sol.iterations < plain[3]
    assert np.linalg.norm(sol.beta - tight.beta) <= 1e-6 * np.linalg.norm(tight.beta)


def test_svm_prox_solver_runs_no_power_iteration_per_solve(monkeypatch):
    """One solver fed repeated and changing labels gives what a fresh solver
    gives for each call, bit for bit. The dual's norm is estimated once, on
    S, when the solver is built, so no solve runs a power iteration."""
    products = []

    class CountingKernel(binary._SignedKernel):
        def __matmul__(self, b):
            products.append(1)
            return super().__matmul__(b)

    monkeypatch.setattr(binary, "_SignedKernel", CountingKernel)
    K, g, split, _ = _lap_svm_inputs(120, 2, seed=4)
    hp = default_hyperparams("tv_svm", None)
    rng = np.random.default_rng(4)
    ya = np.where(rng.random(K.n) < 0.5, 1.0, -1.0)
    yb = ya.copy()
    yb[:5] *= -1.0
    seq = [ya, ya, yb, ya.copy(), yb, ya]
    target = K.values @ (0.01 * rng.normal(size=K.n))

    shared = SvmProxSolver(K, hp, r=hp.r)
    del products[:]
    got, beta = [], None
    for y in seq:
        alpha, sol = shared.solve(y, target=target, beta0=beta)
        got.append((alpha, sol))
        beta = sol.beta
    shared_products = len(products)

    del products[:]
    beta = None
    for y, (alpha, sol) in zip(seq, got):
        fresh_alpha, fresh = SvmProxSolver(K, hp, r=hp.r).solve(y, target=target, beta0=beta)
        assert fresh_alpha.tobytes() == alpha.tobytes()
        assert fresh.beta.tobytes() == sol.beta.tobytes()
        assert (fresh.objective, fresh.kkt_residuals, fresh.iterations, fresh.stop_reason) == (
            sol.objective, sol.kkt_residuals, sol.iterations, sol.stop_reason
        )
        beta = sol.beta
    # shared and fresh solves make the same products: the QP's own
    assert shared_products == len(products)


@pytest.mark.parametrize("system", ["svm", "lap_svm", "cheeger_svm"])
def test_svm_prox_solver_steps_every_solve_with_one_estimate_of_s(system, monkeypatch):
    """``||diag(y) S diag(y)|| = ||S||`` for every +-1 label vector, so each
    solve gets the solver's one estimate. Its power iteration stays below
    ``||S||`` and close to it on the plain, the Laplacian and the
    ``lam I + r K`` systems."""
    K, g, _split, _ = _lap_svm_inputs(120, 2, seed=4)
    hp = default_hyperparams(system, None)
    terms = {
        "svm": {},
        "lap_svm": {"laplacian": g.laplacian(), "gamma": hp.gamma},
        "cheeger_svm": {"r": hp.r},
    }
    prox = SvmProxSolver(K, hp, **terms[system])
    exact = np.linalg.norm(prox.S, 2)
    assert abs(prox.q_norm - exact) <= 1e-4 * exact
    assert prox.q_norm <= exact * (1.0 + 1e-12)
    seen = []
    real_qp = binary.qp_box_eq

    def spy(*args, q_norm=None, **kwargs):
        seen.append(q_norm)
        return real_qp(*args, q_norm=q_norm, **kwargs)

    monkeypatch.setattr(binary, "qp_box_eq", spy)
    rng = np.random.default_rng(4)
    for _ in range(3):
        prox.solve(np.where(rng.random(K.n) < 0.5, 1.0, -1.0))
    assert seen == [prox.q_norm] * 3


@pytest.mark.parametrize("trainer", ["lap_svm", "tv_svm", "cheeger_svm"])
def test_margin_trainers_first_labels_are_the_warm_starts_signs(trainer, monkeypatch):
    """Off the labels, the first pseudo-labels are +1 where the warm start
    is >= 0, both zeros included, and -1 where it is negative."""
    K, g, split, _ = _lap_svm_inputs(200, 1)
    hp = replace(default_hyperparams(trainer, None), outer_iters=1)
    warm = np.random.default_rng(7).normal(size=K.n)
    free = np.flatnonzero(~split.labeled_mask)
    warm[free[:4]] = [0.0, -0.0, 0.0, -0.0]
    expected = np.where(split.labeled_mask, split.labels, np.where(warm >= 0.0, 1.0, -1.0))
    assert np.all(expected[free[:4]] == 1.0) and set(expected[free]) == {-1.0, 1.0}

    class WarmCoefs:
        # numpy leaves ``K.values @ WarmCoefs()`` to its __rmatmul__
        __array_ufunc__ = None

        def __rmatmul__(self, _values):
            return warm

    monkeypatch.setattr(binary, "_lap_ls", lambda *args: WarmCoefs())  # tv_svm, cheeger_svm
    monkeypatch.setattr(binary, "_warm_values", lambda *args: warm)  # lap_svm
    labels = []
    if trainer == "tv_svm":
        real_prox = binary.svm_value_prox

        def spy(e, y, *args):
            labels.append(np.array(y))
            return real_prox(e, y, *args)

        monkeypatch.setattr(binary, "svm_value_prox", spy)
    else:
        real_solve = SvmProxSolver.solve

        def spy(self, y, *args, **kwargs):
            labels.append(np.array(y))
            return real_solve(self, y, *args, **kwargs)

        monkeypatch.setattr(SvmProxSolver, "solve", spy)
    getattr(binary, trainer + "_train")(K, g, split, hp)
    assert labels[0].tobytes() == expected.tobytes()


def test_lap_ls_block_solve_equals_one_column_solves():
    K, g, split, hp = _lap_svm_inputs(200, 2)
    targets = np.random.default_rng(3).normal(size=(K.n, 3))
    block = binary._lap_ls(K, g, split.labeled_mask, targets, hp)
    assert block.shape == targets.shape
    for k in range(targets.shape[1]):
        one = binary._lap_ls(K, g, split.labeled_mask, targets[:, k], hp)
        assert np.linalg.norm(block[:, k] - one) <= 1e-12 * np.linalg.norm(one)


@pytest.mark.parametrize("per_class", [1, 50])
@pytest.mark.parametrize("n", [300, 600])
def test_lap_svm_warm_start_off_the_dual_kernel_equals_lap_rls(n, per_class):
    K, g, split, hp = _lap_svm_inputs(n, per_class)
    prox = SvmProxSolver(K, hp, laplacian=g.laplacian(), gamma=hp.gamma)
    # n = 300 solves S column by column, n = 600 through the Gram root
    assert (prox.counters["gram_rank"] < 0.4 * n) == (n == 600)
    warm = binary._warm_values(prox.S, split, hp.eta)
    full = lap_rls_train(K, g, split, hp).node_values
    assert np.array_equal(
        binary._pseudo_refresh(split, 1.0, warm), binary._pseudo_refresh(split, 1.0, full)
    )
    assert np.linalg.norm(warm - full) <= 1e-9 * np.linalg.norm(full)
    # I + eta S[l, l] is singular for this S, and non-finite for the second
    with pytest.raises(FactorizationError):
        binary._warm_values(-np.eye(n) / hp.eta, split, hp.eta)
    S_nan = prox.S.copy()
    S_nan[np.flatnonzero(split.labeled_mask)[0]] = np.nan
    with pytest.raises(FactorizationError):
        binary._warm_values(S_nan, split, hp.eta)


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("n", [5, 150, 200, 300, 1000])
def test_symmetrize_equals_the_fresh_sum_bit_for_bit(n, order):
    """In place for row-major S, through the transpose for column-major S
    (the n-column route), with the bytes of ``(S + S^T) / 2`` in a fresh
    buffer either way."""
    S = np.random.default_rng(n).normal(size=(n, n))
    ref = np.add(S, S.T)
    np.multiply(ref, 0.5, out=ref)
    given = np.array(S, order=order)
    got = _symmetrize(given)
    assert got.flags.c_contiguous and np.shares_memory(got, given)  # no n x n copy
    assert got.tobytes() == np.ascontiguousarray(ref).tobytes()


def test_lap_svm_factors_once_and_traces_its_dual(monkeypatch):
    K, g, split, hp = _lap_svm_inputs(200, 1)
    factors = []
    real_init = binary.LuFactor.__init__

    def counting_init(self, F, *args):
        factors.append(F.shape)
        real_init(self, F, *args)

    monkeypatch.setattr(binary.LuFactor, "__init__", counting_init)
    m = lap_svm_train(K, g, split, hp)
    assert factors == [(K.n, K.n)]  # the margin solver's LU; the warm start needs none
    prox = SvmProxSolver(K, hp, laplacian=g.laplacian(), gamma=hp.gamma)
    _alpha, sol = prox.solve(
        binary._pseudo_refresh(split, 1.0, binary._warm_values(prox.S, split, hp.eta))
    )
    assert m.trace == {
        "qp_solves": 1,
        "qp_iters": sol.iterations,
        "qp_face_steps": sol.face_steps,
        "qp_cap_hits": 0,
        "qp_stop_reason": sol.stop_reason,
        "support": int(np.count_nonzero(sol.beta)),
        # n = 200: the root is too long to pay, so S is solved column by column
        "gram_rank": K.n,
        "s_refined_cols": 0,
    }
    assert m.trace["qp_stop_reason"] == "tol" and 0 < m.trace["support"] < K.n
    assert lap_svm_train(K, g, split, hp).trace == m.trace


@pytest.mark.parametrize("trainer", ["lap_svm", "tv_svm", "cheeger_svm"])
def test_margin_trainers_trace_their_dual_work(trainer, monkeypatch):
    """The trace sums every ``qp_box_eq`` solve of the fit; tv_svm's margin
    step is a closed-form projection and records none."""
    solves = []
    real_qp = binary.qp_box_eq

    def spy(*args, **kwargs):
        solves.append(real_qp(*args, **kwargs))
        return solves[-1]

    monkeypatch.setattr(binary, "qp_box_eq", spy)
    K, g, split, _ = _lap_svm_inputs(120, 1)
    hp = replace(default_hyperparams(trainer), outer_iters=5)
    m = getattr(binary, trainer + "_train")(K, g, split, hp)
    keys = ("qp_solves", "qp_iters", "qp_face_steps", "qp_cap_hits")
    if trainer == "tv_svm":
        assert not solves and not set(keys) & set(m.trace)
        return
    assert [m.trace[k] for k in keys] == [
        len(solves),
        sum(s.iterations for s in solves),
        sum(s.face_steps for s in solves),
        sum(s.stop_reason == "cap" for s in solves),
    ]
    assert len(solves) == (1 if trainer == "lap_svm" else m.trace["outer_steps"])


# ---------------------------------------------------------------------------
# tv_rls
# ---------------------------------------------------------------------------


def test_tv_rls_no_tv_term_reduces_to_masked_rls():
    X, y = two_cluster_data(3, seed=29)
    K = rbf_gram(X, 1.0)
    g = SimilarityGraph(len(y), [], [], [])  # edgeless
    ls = labeled_first_of_each(y)
    hp = HyperParams(
        eta=2.0, lam=0.1, gamma=1e-300, r1=1.0, r2=1.0,
        outer_iters=4000, tol=1e-12, normalize=False,
    )
    m = tv_rls_train(K, g, ls, hp)
    a_direct = masked_rls_alpha(K.values, ls.y_ext, ls.labeled_mask, hp.eta, hp.lam)
    assert np.max(np.abs(K.values @ a_direct - m.node_values)) < 1e-4
    assert m.trace["consensus"][-1] <= hp.tol * K.n  # stopping rule reached


def test_tv_rls_two_cluster_transduction_and_flip():
    X, y = two_cluster_data(5, gap=4.0, seed=3)
    K = rbf_gram(X, median_bandwidth(X) * 0.5)
    g = build_knn_graph(X, 3)
    ls = labeled_first_of_each(y)
    hp = HyperParams(
        eta=1.0, lam=1e-4, gamma=1.0, r1=5.0, r2=5.0,
        outer_iters=150, inner_iters=150,
    )
    m = tv_rls_train(K, g, ls, hp)
    pred = transductive_labels(m)
    assert np.array_equal(pred, y.astype(int))
    # the two-level sign assignment beats the flipped one on the objective
    f_hat = pred.astype(float)
    base = tv_rls_objective(
        K.values, g, ls.y_ext, ls.labeled_mask, hp.eta, hp.lam, hp.gamma, f_hat
    )
    flipped = tv_rls_objective(
        K.values, g, ls.y_ext, ls.labeled_mask, hp.eta, hp.lam, hp.gamma, -f_hat
    )
    assert base < flipped


def test_tv_rls_multiplier_update_arithmetic():
    # replicate the documented two-iteration update sequence independently
    K = KernelMatrix(np.array([[1.0, 0.2], [0.2, 1.0]]), 1.0)
    g = SimilarityGraph(2, [0], [1], [0.5])
    ls = LabeledSet(np.array([1.0, -1.0]), np.array([True, True]))
    hp = HyperParams(
        eta=1.0, lam=0.3, gamma=1e-300, r1=2.0, r2=3.0,
        outer_iters=2, normalize=False, tol=1e-300,
    )
    m = tv_rls_train(K, g, ls, hp)

    gv = ls.y_ext.copy()
    lam1 = np.zeros(2)
    lam2 = np.zeros(2)
    f = None
    for _ in range(2):
        alpha = np.linalg.solve(hp.lam * np.eye(2) + hp.r1 * K.values, hp.r1 * gv - lam1)
        f = K.values @ alpha
        h = (hp.eta * ls.y_ext + hp.r2 * gv - lam2) / (hp.eta * 1.0 + hp.r2)
        gv = (hp.r1 * (f + lam1 / hp.r1) + hp.r2 * (h + lam2 / hp.r2)) / (hp.r1 + hp.r2)
        lam1 = lam1 + hp.r1 * (f - gv)  # the ascent rule itself
        lam2 = lam2 + hp.r2 * (h - gv)
    assert np.allclose(m.node_values, f, atol=1e-10)


def test_tv_rls_divergence_guard():
    X, y = two_cluster_data(3, seed=31)
    K = rbf_gram(X, 1.0)
    g = build_knn_graph(X, 2)
    ls = labeled_first_of_each(y)
    hp = HyperParams(eta=1.0, lam=1e-4, gamma=1.0, outer_iters=3)
    m = tv_rls_train(K, g, ls, hp)  # normal run stays finite
    assert np.all(np.isfinite(m.node_values))


def test_tv_rls_prox_warm_start_keeps_inner_iterations_low():
    # each TV prox starts from the previous outer iteration's dual; started
    # from zero, it hit the inner_iters cap in almost every call
    hp = default_hyperparams("tv_rls")
    for seed in (1, 2, 3):
        ds = make_two_moons(200, 0.08, seed)
        g = build_knn_graph(ds.data, 10)
        K = rbf_gram(ds.data, 0.5 * median_bandwidth(ds.data))
        m = tv_rls_train(K, g, make_split(ds, SplitSpec(1, seed)), hp)
        iters, caps = m.trace["prox_iters"], m.trace["prox_cap_hits"]
        assert len(iters) == len(caps) == len(m.trace["consensus"])
        assert all(c in (0, 1) for c in caps)
        assert np.mean(iters) < hp.inner_iters / 2


def _moons_inputs(seed):
    ds = make_two_moons(200, 0.08, seed)
    g = build_knn_graph(ds.data, 10)
    K = rbf_gram(ds.data, 0.5 * median_bandwidth(ds.data))
    return K, g, make_split(ds, SplitSpec(1, seed))


@pytest.mark.parametrize("trainer", [tv_rls_train, tv_svm_train])
def test_tv_prox_gap_rule_cuts_inner_iterations(trainer, monkeypatch):
    # tying each prox's gap to the move of its input saves inner iterations
    # against solving every prox to tol (kappa = 0)
    hp = default_hyperparams(trainer.__name__[: -len("_train")])
    inputs = _moons_inputs(2)
    m = trainer(*inputs, hp)
    monkeypatch.setattr(binary, "PROX_KAPPA", 0.0)
    m_tight = trainer(*inputs, hp)
    assert m.trace["outer_steps"] == m_tight.trace["outer_steps"] == hp.outer_iters
    assert m.trace["stop_reason"] == m_tight.trace["stop_reason"] == "cap"
    assert sum(m.trace["prox_iters"]) < 0.7 * sum(m_tight.trace["prox_iters"])


def test_tv_split_loop_prox_gap_tolerance_never_below_tol(monkeypatch):
    calls = []
    prox = binary.tv_prox

    def spy(g, z, *args, **kwargs):
        (tol,) = np.broadcast_to(kwargs["tol"], np.shape(z)[:1])
        calls.append(float(tol))
        return prox(g, z, *args, **kwargs)

    monkeypatch.setattr(binary, "tv_prox", spy)
    hp = replace(default_hyperparams("tv_rls"), outer_iters=30)
    tv_rls_train(*_moons_inputs(1), hp)
    assert len(calls) == hp.outer_iters
    assert calls[0] == hp.tol
    assert all(tol >= hp.tol for tol in calls)
    assert any(tol > hp.tol for tol in calls)  # the rule is in use


@pytest.mark.parametrize("trainer", [cheeger_rls_train, cheeger_svm_train])
def test_ratio_loop_prox_gap_tolerance_never_below_tol(trainer, monkeypatch):
    # the ratio loop's shrinks follow the split loop's rule: the first to tol,
    # each later one to a gap tied to the move of its input, never below tol
    calls = []
    prox = binary.tv_prox

    def spy(g, z, *args, **kwargs):
        (tol,) = np.broadcast_to(kwargs["tol"], np.shape(z)[:1])
        calls.append(float(tol))
        return prox(g, z, *args, **kwargs)

    monkeypatch.setattr(binary, "tv_prox", spy)
    hp = default_hyperparams(trainer.__name__[: -len("_train")])
    m = trainer(*_moons_inputs(1), hp)
    assert len(calls) == m.trace["outer_steps"] >= 2
    assert calls[0] == hp.tol
    assert all(tol >= hp.tol for tol in calls)
    assert any(tol > hp.tol for tol in calls)  # the rule is in use


@pytest.mark.parametrize(
    "trainer", [tv_rls_train, tv_svm_train, cheeger_rls_train, cheeger_svm_train]
)
def test_every_tv_prox_call_comes_from_the_prox_chain(trainer, monkeypatch):
    callers = []
    prox = binary.tv_prox

    def spy(*args, **kwargs):
        callers.append(sys._getframe(1).f_code)
        return prox(*args, **kwargs)

    monkeypatch.setattr(binary, "tv_prox", spy)
    hp = replace(default_hyperparams(trainer.__name__[: -len("_train")]), outer_iters=15)
    m = trainer(*_moons_inputs(1), hp)
    assert callers == [binary._ProxChain.__call__.__code__] * m.trace["outer_steps"]


# ---------------------------------------------------------------------------
# tv_svm
# ---------------------------------------------------------------------------


def test_value_prox_matches_slsqp():
    rng = np.random.default_rng(37)
    for trial in range(5):
        n = 6
        e = rng.normal(size=n) * 2
        y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        y[0], y[1] = 1.0, -1.0
        r2, mu = 2.0, 0.8
        h, _ = svm_value_prox(e, y, r2, mu)
        h_oracle, obj_oracle = value_prox_primal_slsqp(e, y, r2, mu)
        ours = margin_objective_with_best_bias(
            None, y, 0.0, mu, h, value_only=True, r=r2, target=e
        )
        assert abs(ours - obj_oracle) < 1e-6
        assert np.linalg.norm(h - h_oracle) < 1e-4


@pytest.mark.parametrize("r2", [0.0, -1.0, float("nan"), float("inf")])
def test_value_prox_rejects_a_bad_proximity_weight(r2):
    # r2 = 0 returned NaN with RuntimeWarnings
    with pytest.raises(InvalidParameterError):
        svm_value_prox(np.array([0.5, -0.2]), np.array([1.0, -1.0]), r2, 1.0)


def test_value_prox_rejects_bad_labels_and_targets():
    # a 0 label was fitted as one; an inf target gave NaN
    e = np.array([0.5, -0.2, 0.1])
    nan, inf = float("nan"), float("inf")
    for y in ([1.0, 0.0, -1.0], [2.0, -1.0, 1.0], [1.0, nan, -1.0]):
        with pytest.raises(InvalidParameterError):
            svm_value_prox(e, np.array(y), 1.0, 1.0)
    for bad in (nan, inf, -inf):
        with pytest.raises(InvalidParameterError):
            svm_value_prox(np.array([0.5, bad, 0.1]), np.array([1.0, -1.0, 1.0]), 1.0, 1.0)


def test_tv_svm_no_tv_term_consensus_converges():
    X, y = two_cluster_data(3, seed=41)
    K = rbf_gram(X, 1.0)
    g = SimilarityGraph(len(y), [], [], [])
    ls = LabeledSet(y, np.ones(len(y), dtype=bool))
    hp = HyperParams(
        lam=0.1, gamma=1e-300, mu=1.0, r1=1.0, r2=1.0,
        outer_iters=2000, tol=1e-10, normalize=False,
    )
    m = tv_svm_train(K, g, ls, hp)
    assert m.trace["consensus"][-1] <= hp.tol * K.n  # stopping rule reached


def test_tv_svm_two_cluster_transduction_and_single_flips():
    X, y = two_cluster_data(5, gap=4.0, seed=3)
    K = rbf_gram(X, median_bandwidth(X) * 0.5)
    g = build_knn_graph(X, 3)
    ls = labeled_first_of_each(y)
    hp = HyperParams(
        eta=1.0, lam=1e-4, gamma=1.0, mu=0.1, r1=5.0, r2=5.0,
        outer_iters=150, inner_iters=150,
    )
    m = tv_svm_train(K, g, ls, hp)
    pred = transductive_labels(m)
    assert np.array_equal(pred, y.astype(int))
    f_hat = pred.astype(float)
    y_fixed = np.where(ls.labeled_mask, ls.y_ext, f_hat)
    Kinv = np.linalg.inv(K.values + 1e-10 * np.eye(K.n))

    def objective(fv):
        return margin_objective_with_best_bias(
            K.values, y_fixed, hp.lam, hp.mu, fv, Kinv @ fv, value_only=False
        ) + hp.gamma * graph_tv(g, fv)

    base = objective(f_hat)
    for u in np.flatnonzero(~ls.labeled_mask):
        flipped = f_hat.copy()
        flipped[u] = -flipped[u]
        assert objective(flipped) > base


# ---------------------------------------------------------------------------
# cheeger
# ---------------------------------------------------------------------------


def cheeger_toy(seed=3):
    X, y = two_cluster_data(5, gap=4.0, seed=seed)
    K = rbf_gram(X, median_bandwidth(X) * 0.5)
    g = build_knn_graph(X, 3)
    ls = labeled_first_of_each(y)
    return X, y, K, g, ls


def test_cheeger_rls_energy_bookkeeping():
    _, y, K, g, ls = cheeger_toy()
    hp = HyperParams(lam=1e-4, r=1.0, c=1.0, outer_iters=40)
    m = cheeger_rls_train(K, g, ls, hp)
    trace = m.trace["ratio_energy"]
    assert m.trace["best_ratio_energy"] <= trace[0] + 1e-12
    running = np.minimum.accumulate(trace)
    assert np.all(np.diff(running) <= 1e-12)


@pytest.mark.parametrize("trainer", [cheeger_rls_train, cheeger_svm_train])
def test_cheeger_prox_trace_one_entry_per_outer_step(trainer):
    _, _, K, g, ls = cheeger_toy()
    hp = HyperParams(lam=1e-4, mu=0.5, r=1.0, c=1.0, outer_iters=12)
    m = trainer(K, g, ls, hp)
    iters, caps = m.trace["prox_iters"], m.trace["prox_cap_hits"]
    # one entry per completed step; the plateau rule may end the loop before
    # outer_iters
    steps = m.trace["outer_steps"]
    assert len(iters) == len(caps) == len(m.trace["ratio_energy"]) - 1 == steps
    assert 1 <= steps <= hp.outer_iters
    assert all(1 <= i <= hp.inner_iters for i in iters)
    assert all(c in (0, 1) for c in caps)


@pytest.mark.parametrize(
    "trainer", [tv_rls_train, tv_svm_train, cheeger_rls_train, cheeger_svm_train]
)
def test_prox_stops_count_each_step_stop_reasons(trainer, monkeypatch):
    # one {gap, cap} count per outer step, from the traces tv_prox returned
    seen = []
    prox = binary.tv_prox

    def spy(*args, **kwargs):
        x, trace = prox(*args, **kwargs)
        seen.append([r.stop_reason for r in trace.rows or [trace]])
        return x, trace

    monkeypatch.setattr(binary, "tv_prox", spy)
    hp = replace(default_hyperparams(trainer.__name__[: -len("_train")]), outer_iters=40)
    m = trainer(*_moons_inputs(1), hp)
    stops = m.trace["prox_stops"]
    assert len(stops) == len(m.trace["prox_iters"]) == m.trace["outer_steps"] == len(seen)
    for counts, reasons, caps in zip(stops, seen, m.trace["prox_cap_hits"]):
        assert list(counts) == ["gap", "cap"]
        assert sum(counts.values()) == len(reasons) == 1
        assert counts == {r: reasons.count(r) for r in counts}
        assert counts["cap"] <= caps  # a gap met at the cap is a cap hit too


@pytest.mark.parametrize("trainer", [cheeger_rls_train, cheeger_svm_train])
def test_cheeger_one_row_prox_equals_the_one_dimensional_call(trainer, monkeypatch):
    # the ratio loop shrinks its single channel as a (1, n) batch, which
    # must give the fit of 1-D calls bit for bit
    _, _, K, g, ls = cheeger_toy()
    hp = HyperParams(lam=1e-4, mu=0.5, r=1.0, c=1.0, outer_iters=12)
    batched = trainer(K, g, ls, hp)
    calls = []
    prox = binary.tv_prox

    def row_by_row(g, z, weight, **kwargs):
        calls.append(np.shape(z))
        return tv_prox_row_by_row(prox, g, z, weight, **kwargs)

    monkeypatch.setattr(binary, "tv_prox", row_by_row)
    single = trainer(K, g, ls, hp)
    assert calls == [(1, g.n_nodes)] * batched.trace["outer_steps"]
    assert batched.alpha.tobytes() == single.alpha.tobytes()
    assert batched.node_values.tobytes() == single.node_values.tobytes()
    assert repr(batched.trace) == repr(single.trace)


@pytest.mark.parametrize("trainer", [cheeger_rls_train, cheeger_svm_train])
def test_cheeger_stops_on_ratio_plateau(trainer):
    _, _, K, g, ls = cheeger_toy()
    hp = HyperParams(lam=1e-4, mu=0.5, r=1.0, c=1.0, outer_iters=100)
    m = trainer(K, g, ls, hp)
    steps, window = m.trace["outer_steps"], binary.RATIO_PLATEAU_STEPS
    assert m.trace["stop_reason"] == "plateau"
    assert window <= steps < hp.outer_iters
    best = np.minimum.accumulate(m.trace["ratio_energy"])
    assert best[-1] == m.trace["best_ratio_energy"]

    def plateau(k):  # the stop test after k completed steps
        return best[k] >= (1.0 - binary.RATIO_PLATEAU_REL) * best[k - window]

    assert plateau(steps)
    assert not any(plateau(k) for k in range(window, steps))


@pytest.mark.parametrize("trainer", [cheeger_rls_train, cheeger_svm_train])
def test_cheeger_cap_below_plateau_window_stops_on_cap(trainer):
    _, _, K, g, ls = cheeger_toy()
    outer = binary.RATIO_PLATEAU_STEPS - 1
    hp = HyperParams(lam=1e-4, mu=0.5, r=1.0, c=1.0, outer_iters=outer)
    m = trainer(K, g, ls, hp)
    assert m.trace["stop_reason"] == "cap"
    assert m.trace["outer_steps"] == len(m.trace["ratio_energy"]) - 1 == outer


@pytest.mark.parametrize("trainer", [cheeger_rls_train, cheeger_svm_train])
def test_cheeger_initialization_won_reuses_the_callers_factor(trainer, monkeypatch):
    # two chains with no edge between them, labeled +1 and -1 throughout: the
    # labels already cut the graph at ratio energy 0, so no step improves on
    # the initialization and its coefficients come from the loop's own
    # lam I + r K factor, not from a second one
    X, y = two_cluster_data(4, seed=5)
    K = rbf_gram(X, 1.0)
    g = SimilarityGraph(8, [0, 1, 2, 4, 5, 6], [1, 2, 3, 5, 6, 7], np.ones(6))
    ls = LabeledSet(y, np.ones(8, dtype=bool))
    hp = default_hyperparams(trainer.__name__[: -len("_train")])
    spd = []
    real_init = binary.SpdFactor.__init__

    def counting_init(self, F, *args):
        spd.append(F.shape)
        real_init(self, F, *args)

    monkeypatch.setattr(binary.SpdFactor, "__init__", counting_init)
    m = trainer(K, g, ls, hp)
    assert spd == [(8, 8)]
    monkeypatch.undo()
    assert m.trace["best_ratio_energy"] == 0.0 and m.trace["stop_reason"] == "plateau"
    assert m.node_values.tobytes() == y.tobytes()
    F = hp.lam * np.eye(8) + hp.r * K.values
    alpha = SpdFactor(F, hp.lam, DiagLaplacian(8, r=hp.r), K.values).solve(hp.r * y)
    assert m.alpha.tobytes() == alpha.tobytes()


def _row_order(lam, K, d, L=None, weight=0.0):
    """``lam I + D K`` for ``D = diag(d) + weight L`` summed the way D's own
    product sums it: ``d_i K_ij``, then each stored entry of ``weight L``
    times its row of K, in row order, then ``lam`` on the diagonal."""
    F = d[:, None] * K + 0.0
    if weight:
        for i in range(K.shape[0]):
            for k in range(L.indptr[i], L.indptr[i + 1]):
                F[i] += (weight * L.data[k]) * K[L.indices[k]]
    F[np.diag_indices_from(F)] += lam
    return F


def _hand_systems(name, K, L, mask, hp):
    """The matrices each trainer factors, written out by hand in call order:
    ``(factor class, matrix)``. The symmetric ones are whole-matrix sums;
    the nonsymmetric ones are summed in row order by :func:`_row_order`."""
    n, w = K.shape[0], 2.0 * hp.gamma
    I, zero = np.eye(n), np.zeros(n)
    lap_ls = ("LuFactor", _row_order(hp.lam, K, hp.eta * mask, L, w))  # Laplacian warm start
    spd_r = ("SpdFactor", hp.lam * I + hp.r * K)
    return {
        "rls": [("SpdFactor", hp.eta * K + hp.lam * I)],
        "svm": [("SpdFactor", hp.lam * I)],
        "lap_rls": [lap_ls],
        "lap_svm": [("LuFactor", _row_order(hp.lam, K, zero, L, w))],
        "tv_rls": [("SpdFactor", hp.lam * I + hp.r1 * K)],
        "tv_svm": [lap_ls, ("SpdFactor", hp.lam * I + hp.r1 * K)],
        "cheeger_rls": [spd_r],
        "cheeger_svm": [spd_r, lap_ls],
        "lap_rls_mc": [("LuFactor", _row_order(hp.lam, K, hp.eta * mask + hp.r, L, w))],
        "lap_svm_mc": [("LuFactor", _row_order(hp.lam, K, zero + hp.r, L, w)), lap_ls],
        "tv_rls_mc": [("LuFactor", _row_order(hp.lam, K, hp.eta * mask + hp.r))],
        "tv_svm_mc": [spd_r, lap_ls],
        "cheeger_rls_mc": [spd_r],
        "cheeger_svm_mc": [spd_r, lap_ls],
    }[name]


@pytest.mark.parametrize(
    "name",
    [
        "rls", "svm", "lap_rls", "lap_svm", "tv_rls", "tv_svm", "cheeger_rls",
        "cheeger_svm", "lap_rls_mc", "lap_svm_mc", "tv_rls_mc", "tv_svm_mc",
        "cheeger_rls_mc", "cheeger_svm_mc",
    ],
)
def test_each_trainer_factors_its_hand_assembled_system(name, monkeypatch):
    seen = []
    for cls in (binary.SpdFactor, binary.LuFactor):

        def spy(self, F, *args, _init=cls.__init__, _kind=cls.__name__):
            seen.append((_kind, np.array(F)))  # before the factor overwrites it
            _init(self, F, *args)

        monkeypatch.setattr(cls, "__init__", spy)
    ds = make_two_moons(40, 0.08, 1)
    if name.endswith("_mc"):
        centres = np.repeat([[0.0, 0.0], [4.0, 0.0], [2.0, 3.0]], 10, axis=0)
        noise = np.random.default_rng(1).normal(size=(30, 2))
        ds = Dataset(centres + noise, np.repeat([1, 2, 3], 10))
    g = build_knn_graph(ds.data, 6)
    K = rbf_gram(ds.data, 0.5 * median_bandwidth(ds.data))
    hp = replace(default_hyperparams(name), outer_iters=3, inner_iters=20)
    if name in ("rls", "svm"):
        mask = np.ones(ds.n_points, dtype=bool)
        getattr(binary, name + "_train")(K, np.where(ds.true_labels == 1, 1.0, -1.0), hp)
    else:
        split = make_split(ds, SplitSpec(2, 1))
        mask = split.labeled_mask
        module = multiclass if name.endswith("_mc") else binary
        getattr(module, name + "_train")(K, g, split, hp)
    expected = _hand_systems(name, K.values, g.laplacian(), mask, hp)
    assert [kind for kind, _ in seen] == [kind for kind, _ in expected]
    for (_, got), (_, want) in zip(seen, expected):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("kind", ["cholesky", "lu"])
def test_kernel_factor_and_one_solve_hold_one_n_by_n_array(kind):
    # F is assembled in the buffer the factor overwrites, and the residual is
    # lam X + D (K X): one n x n array above the inputs, where keeping F and
    # handing LAPACK a copy of it took about 2 n^2 doubles
    n = 400
    K, g, split, hp = _lap_svm_inputs(n, 2)
    L, mask = g.laplacian(), split.labeled_mask
    if kind == "lu":
        D = DiagLaplacian(n, eta=hp.eta, mask=mask, laplacian=L, weight=2.0 * hp.gamma)
        F = hp.lam * np.eye(n) + hp.eta * (mask[:, None] * K.values) + 2.0 * hp.gamma * (L @ K.values)
    else:
        D = DiagLaplacian(n, r=5.0)
        F = hp.lam * np.eye(n) + 5.0 * K.values
    b = split.y_ext
    tracemalloc.start()
    try:
        factor = binary._kernel_factor(K, hp.lam, D)
        x = factor.solve(b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert isinstance(factor, LuFactor if kind == "lu" else SpdFactor)
    assert peak <= 1.1 * 8 * n * n
    assert np.linalg.norm(F @ x - b) <= 1e-8 * np.linalg.norm(b)


def test_cheeger_rls_label_clamp():
    _, y, K, g, ls = cheeger_toy()
    for outer in (1, 3, 7):
        hp = HyperParams(lam=1e-4, r=1.0, c=1.0, outer_iters=outer)
        m = cheeger_rls_train(K, g, ls, hp)
        pred = transductive_labels(m)
        lab = ls.labeled_mask
        assert np.array_equal(pred[lab], y[lab].astype(int))


def test_cheeger_rls_two_moons_and_exhaustive_cut():
    ds = make_two_moons(40, 0.06, seed=5)
    K = rbf_gram(ds.data, median_bandwidth(ds.data) * 0.5)
    g = build_knn_graph(ds.data, 6)
    ls = make_split(ds, SplitSpec(1, 1))
    hp = HyperParams(lam=1e-4, r=1.0, c=1.0, outer_iters=80)
    m = cheeger_rls_train(K, g, ls, hp)
    truth = np.where(ds.true_labels == 1, 1, -1)
    agree = np.mean(transductive_labels(m) == truth)
    assert max(agree, 1 - agree) >= 0.90 and agree >= 0.90

    # coarse 10-node two-cluster instance: recovered cut equals the
    # exhaustive-search optimum
    Xc, yc = two_cluster_data(5, gap=5.0, seed=12, spread=0.3)
    Kc = rbf_gram(Xc, median_bandwidth(Xc) * 0.5)
    gc = build_knn_graph(Xc, 3)
    lsc = labeled_first_of_each(yc)
    mc = cheeger_rls_train(Kc, gc, lsc, hp)
    _, f_best = exhaustive_two_level_ratio(gc)
    pred = transductive_labels(mc).astype(float)
    assert np.array_equal(pred, f_best) or np.array_equal(pred, -f_best)


def test_cheeger_svm_prox_matches_slsqp():
    rng = np.random.default_rng(43)
    X = rng.normal(size=(6, 2))
    K = rbf_gram(X, 1.0)
    lam, r, mu = 0.5, 1.5, 0.9
    hp = HyperParams(lam=lam, r=r, mu=mu)
    prox = SvmProxSolver(K, hp, r=r, qp_tol=1e-10, qp_iters=50000)
    for trial in range(5):
        target = rng.normal(size=6)
        y = np.where(rng.random(6) < 0.5, 1.0, -1.0)
        y[0], y[1] = 1.0, -1.0
        alpha, _ = prox.solve(y, target=target)
        e_vals = K.values @ alpha
        f_oracle, obj_oracle, _ = margin_primal_slsqp(
            K.values, y, lam, mu, r=r, target=target
        )
        assert np.linalg.norm(e_vals - f_oracle) < 1e-4
        ours = margin_objective_with_best_bias(
            K.values, y, lam, mu, e_vals, alpha, r=r, target=target
        )
        assert abs(ours - obj_oracle) < 1e-6


def test_cheeger_svm_clamp_and_energy():
    _, y, K, g, ls = cheeger_toy()
    hp = HyperParams(lam=1e-4, r=1.0, c=1.0, mu=0.1, outer_iters=30)
    m = cheeger_svm_train(K, g, ls, hp)
    pred = transductive_labels(m)
    lab = ls.labeled_mask
    assert np.array_equal(pred[lab], y[lab].astype(int))
    trace = m.trace["ratio_energy"]
    assert m.trace["best_ratio_energy"] <= trace[0] + 1e-12
    running = np.minimum.accumulate(trace)
    assert np.all(np.diff(running) <= 1e-12)


@pytest.mark.parametrize("trainer", [cheeger_rls_train, cheeger_svm_train])
def test_cheeger_one_class_labels_degenerate_after_two_restarts(trainer, monkeypatch):
    # every node clamped to +1: each clamped iterate is constant, so its ratio
    # energy is undefined; the loop restarts twice from a perturbed start and
    # then gives up
    restarts = []
    restart = binary._perturbed_restart
    monkeypatch.setattr(
        binary, "_perturbed_restart", lambda f0: restarts.append(1) or restart(f0)
    )
    ds = make_two_moons(40, 0.06, seed=5)
    K = rbf_gram(ds.data, median_bandwidth(ds.data) * 0.5)
    g = build_knn_graph(ds.data, 6)
    ls = LabeledSet(np.ones(40), np.ones(40, dtype=bool))
    hp = HyperParams(lam=1e-4, r=1.0, c=1.0, outer_iters=20)
    with pytest.raises(DegenerateInputError):
        trainer(K, g, ls, hp)
    assert len(restarts) == 2


# ---------------------------------------------------------------------------
# prediction, serialization, invariances
# ---------------------------------------------------------------------------


def test_predict_zero_function_is_positive_class():
    X = np.random.default_rng(0).normal(size=(4, 2))
    m = BinaryModel("rls", np.zeros(4), 1.0, train_data=X, node_values=np.zeros(4))
    assert np.all(predict_binary(m, X) == 1)
    assert np.all(transductive_labels(m) == 1)


def test_predict_matches_kernel_expansion_sign():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(6, 2))
    alpha = rng.normal(size=6)
    K = rbf_gram(X, 1.0)
    m = BinaryModel("rls", alpha, 1.0, train_data=X)
    assert np.array_equal(
        predict_binary(m, X), np.where(K.values @ alpha >= 0, 1, -1)
    )


def test_load_model_rejects_unknown_hyperparameter(tmp_path):
    X, y = two_cluster_data(3, seed=47)
    m = rls_train(rbf_gram(X, 1.0), y, HyperParams(eta=2.0, lam=0.1))
    path = tmp_path / "model.json"
    save_model(m, path)
    doc = json.loads(path.read_text())
    doc["hyperparams"]["gama"] = 0.5
    path.write_text(json.dumps(doc))
    with pytest.raises(InvalidParameterError, match="'gama'"):
        load_model(path)


def test_model_serialization_round_trip(tmp_path):
    X, y = two_cluster_data(3, seed=47)
    K = rbf_gram(X, 1.0)
    hp = HyperParams(eta=2.0, lam=0.1)
    m = rls_train(K, y, hp)
    path = tmp_path / "model.json"
    save_model(m, path)
    m2 = load_model(path)
    assert m2.variant == "rls"
    assert np.array_equal(m2.alpha, m.alpha)  # full-precision floats
    assert np.array_equal(m2.node_values, m.node_values)
    assert m2.hyperparams == hp
    m2.train_data = X
    assert np.array_equal(predict_binary(m2, X), predict_binary(m, X))


@pytest.mark.parametrize(
    "field, value",
    [
        ("variant", None),
        ("alpha", None),
        ("bandwidth", None),
        ("alpha", [[0.1, 0.2], [0.3]]),
        ("alpha", "abc"),
        ("bandwidth", "wide"),
        ("node_values", [[1.0], []]),
        ("bias", [1.0]),
        ("hyperparams", 5),
        ("bias", float("nan")),
        ("bandwidth", -1.0),
        ("bandwidth", float("nan")),
        ("node_values", [1.0, 2.0]),
    ],
)
def test_load_model_malformed_field_names_file_and_field(tmp_path, field, value):
    X, y = two_cluster_data(3, seed=47)
    path = tmp_path / "model.json"
    save_model(rls_train(rbf_gram(X, 1.0), y, HyperParams(eta=2.0, lam=0.1)), path)
    doc = json.loads(path.read_text())
    if value is None:
        del doc[field]
    else:
        doc[field] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(InvalidParameterError, match=f"model.json.*'{field}'"):
        load_model(path)


def _parent_format_model_file(tmp_path, bias=0.0, **retired):
    """An rls model and its file in the layout written while HyperParams had
    the fields norm_scale, use_bias and simplex_last and models a "bias"."""
    X, y = two_cluster_data(3, seed=47)
    m = rls_train(rbf_gram(X, 1.0), y, HyperParams(eta=2.0, lam=0.1))
    path = tmp_path / "model.json"
    save_model(m, path)
    doc = json.loads(path.read_text())
    doc["bias"] = bias
    doc["hyperparams"].update(
        {"norm_scale": "sqrt_n", "use_bias": False, "simplex_last": False, **retired}
    )
    assert len(doc["hyperparams"]) == 15
    path.write_text(json.dumps(doc))
    return m, path


def test_load_model_reads_the_retired_fields_at_their_hard_wired_values(tmp_path):
    m, path = _parent_format_model_file(tmp_path)
    m2 = load_model(path)
    assert (m2.variant, m2.bandwidth, m2.hyperparams) == (m.variant, m.bandwidth, m.hyperparams)
    assert np.array_equal(m2.alpha, m.alpha) and np.array_equal(m2.node_values, m.node_values)


@pytest.mark.parametrize("bias", [0.5, -1e-300])
def test_load_model_rejects_a_nonzero_bias(tmp_path, bias):
    _, path = _parent_format_model_file(tmp_path, bias=bias)
    with pytest.raises(InvalidParameterError, match="model.json.*'bias'"):
        load_model(path)


def test_load_model_rejects_a_retired_field_at_another_value(tmp_path):
    _, path = _parent_format_model_file(tmp_path, use_bias=True)
    with pytest.raises(InvalidParameterError, match="'use_bias' for .*model.json"):
        load_model(path)


def test_load_model_rejects_non_json_file(tmp_path):
    path = tmp_path / "model.json"
    path.write_text("{not json")
    with pytest.raises(InvalidParameterError, match="model.json"):
        load_model(path)


def test_transduction_invariant_to_unlabeled_permutation():
    X, y = two_cluster_data(5, gap=4.0, seed=3)
    ls = labeled_first_of_each(y)
    hp = HyperParams(
        eta=1.0, lam=1e-4, gamma=1.0, r1=5.0, r2=5.0,
        outer_iters=80, inner_iters=120,
    )

    def run(Xp, yp, maskp):
        K = rbf_gram(Xp, median_bandwidth(Xp) * 0.5)
        g = build_knn_graph(Xp, 3)
        lsp = LabeledSet(np.where(maskp, yp, 0.0), maskp)
        return transductive_labels(tv_rls_train(K, g, lsp, hp))

    base = run(X, y, ls.labeled_mask)
    rng = np.random.default_rng(8)
    perm = np.arange(len(y))
    unlab = np.flatnonzero(~ls.labeled_mask)
    perm[unlab] = rng.permutation(unlab)
    pred_perm = run(X[perm], y[perm], ls.labeled_mask[perm])
    assert np.array_equal(pred_perm, base[perm])


def test_labeled_set_validation():
    with pytest.raises(InvalidParameterError):
        LabeledSet(np.array([2.0, -1.0]), np.array([True, True]))  # not +-1
    with pytest.raises(InvalidParameterError):
        LabeledSet(np.array([0.0, 0.0]), np.array([False, False]))  # nothing labeled
    with pytest.raises(DimensionError):
        LabeledSet(np.array([1.0, -1.0]), np.array([True]))
    ls = LabeledSet(np.array([1.0, -1.0, 7.7]), np.array([True, True, False]))
    assert ls.y_ext[2] == 0.0  # unlabeled entries are zeroed
    assert ls.n_labeled == 2
