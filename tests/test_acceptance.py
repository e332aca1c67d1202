"""Acceptance suite: one test per shipped correctness criterion, each printing
a PASS line (run with ``pytest -s tests/test_acceptance.py`` to see them).

Criteria 7 and 8 need a digits CSV (label + 256 gray values per row, see
scripts/convert_usps.py); they are skipped when the file is absent. Point
TVSSL_USPS_CSV at the file or place it at data/usps.csv.
"""

import json
import os
import time

import numpy as np
import pytest

import tvssl
from tvssl.bench_cli import ExperimentConfig, emit_table, run_experiment
from tvssl.binary import (
    LabeledSet,
    SvmProxSolver,
    lap_rls_train,
    lap_svm_train,
    rls_train,
    svm_train,
    svm_value_prox,
)
from tvssl.graph import SimilarityGraph, build_knn_graph
from tvssl.kernel import rbf_gram
from tvssl.opt_core import HyperParams, project_simplex, tv_prox

from oracles import (
    lap_rls_objective,
    margin_objective_with_best_bias,
    margin_primal_slsqp,
    sort_simplex_projection,
    tv_prox_objective,
    tv_prox_subgradient,
    value_prox_primal_slsqp,
)

USPS_PATH = os.environ.get("TVSSL_USPS_CSV", os.path.join("data", "usps.csv"))
HAS_USPS = os.path.exists(USPS_PATH)


def _announce(num, name):
    print(f"ACCEPTANCE {num} ({name}): PASS")


def _random_margin_instance(rng, n):
    X = rng.normal(size=(n, 2)) * 1.2
    K = rbf_gram(X, 1.0)
    y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    y[0], y[1] = 1.0, -1.0
    return X, K, y


def _random_graph(rng, n):
    ei, ej, w = [], [], []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.6:
                ei.append(i)
                ej.append(j)
                w.append(float(rng.uniform(0.2, 1.5)))
    if not ei:
        ei, ej, w = [0], [1], [1.0]
    return SimilarityGraph(n, np.array(ei), np.array(ej), np.array(w))


def test_criterion_1_dual_solutions_match_primal_oracles():
    """Every dual-solved margin subproblem reproduces an independent primal
    minimization on random small instances."""
    rng = np.random.default_rng(2024)
    var_tol, obj_tol = 1e-4, 1e-6
    qp = dict(qp_tol=1e-10, qp_iters=100000)

    for trial in range(20):
        n = int(rng.integers(4, 9))
        X, K, y = _random_margin_instance(rng, n)
        lam = float(rng.uniform(0.4, 1.2))
        mu = float(rng.uniform(0.5, 1.5))

        # plain margin classifier
        prox = SvmProxSolver(K, HyperParams(lam=lam, mu=mu), **qp)
        alpha, _ = prox.solve(y)
        f = K.values @ alpha
        f_star, obj_star, _ = margin_primal_slsqp(K.values, y, lam, mu)
        assert np.linalg.norm(f - f_star) < var_tol
        ours = margin_objective_with_best_bias(K.values, y, lam, mu, f, alpha)
        assert abs(ours - obj_star) < obj_tol

        # graph-smoothed margin classifier
        g = _random_graph(rng, n)
        gamma = float(rng.uniform(0.1, 0.4))
        prox = SvmProxSolver(
            K, HyperParams(lam=lam, mu=mu), laplacian=g.laplacian(), gamma=gamma, **qp
        )
        alpha, _ = prox.solve(y)
        f = K.values @ alpha
        f_star, obj_star, _ = margin_primal_slsqp(
            K.values, y, lam, mu, graph=g, gamma=gamma
        )
        assert np.linalg.norm(f - f_star) < var_tol
        ours = margin_objective_with_best_bias(
            K.values, y, lam, mu, f, alpha, graph=g, gamma=gamma
        )
        assert abs(ours - obj_star) < obj_tol

        # diagonal-dual value proximal
        e = rng.normal(size=n) * 1.5
        r2 = float(rng.uniform(0.5, 2.0))
        h = svm_value_prox(e, y, r2, mu)
        h_star, obj_star = value_prox_primal_slsqp(e, y, r2, mu)
        assert np.linalg.norm(h - h_star) < var_tol
        ours = margin_objective_with_best_bias(
            None, y, 0.0, mu, h, value_only=True, r=r2, target=e
        )
        assert abs(ours - obj_star) < obj_tol

        # kernel proximal with target (ratio loops, TV channels)
        r = float(rng.uniform(0.5, 2.0))
        target = rng.normal(size=n)
        prox = SvmProxSolver(K, HyperParams(lam=lam, mu=mu), r=r, **qp)
        alpha, _ = prox.solve(y, target=target)
        f = K.values @ alpha
        f_star, obj_star, _ = margin_primal_slsqp(
            K.values, y, lam, mu, r=r, target=target
        )
        assert np.linalg.norm(f - f_star) < var_tol
        ours = margin_objective_with_best_bias(
            K.values, y, lam, mu, f, alpha, r=r, target=target
        )
        assert abs(ours - obj_star) < obj_tol

        # kernel proximal with both graph term and target
        prox = SvmProxSolver(
            K, HyperParams(lam=lam, mu=mu), laplacian=g.laplacian(), gamma=gamma,
            r=r, **qp,
        )
        alpha, _ = prox.solve(y, target=target)
        f = K.values @ alpha
        f_star, obj_star, _ = margin_primal_slsqp(
            K.values, y, lam, mu, graph=g, gamma=gamma, r=r, target=target
        )
        assert np.linalg.norm(f - f_star) < var_tol
        ours = margin_objective_with_best_bias(
            K.values, y, lam, mu, f, alpha, graph=g, gamma=gamma, r=r, target=target
        )
        assert abs(ours - obj_star) < obj_tol
    _announce(1, "dual solutions reproduce primal oracles")


def test_criterion_2_tv_prox_against_subgradient_oracle():
    """On every <=6-node graph in the suite the prox objective is within 1e-4
    of a fine subgradient-descent oracle; nonexpansiveness and shift
    invariance hold on 100 random draws."""
    rng = np.random.default_rng(7)
    graphs = [
        SimilarityGraph(2, [0], [1], [1.0]),
        SimilarityGraph(3, [0, 1], [1, 2], [1.0, 0.7]),
        SimilarityGraph(4, [0, 1, 2, 0], [1, 2, 3, 3], [1.0, 0.5, 2.0, 0.8]),
        _random_graph(rng, 5),
        _random_graph(rng, 6),
    ]
    for g in graphs:
        for _ in range(3):
            z = rng.normal(size=g.n_nodes) * 2
            weight = float(rng.uniform(0.1, 0.8))
            out, _ = tv_prox(g, z, weight, tol=1e-10, max_iters=6000)
            _, oracle_obj = tv_prox_subgradient(g, z, weight, iters=150000)
            assert tv_prox_objective(g, out, z, weight) <= oracle_obj + 1e-4

    g = graphs[3]
    for _ in range(100):
        z1 = rng.normal(size=5)
        z2 = rng.normal(size=5)
        c = float(rng.uniform(-3, 3))
        p1, _ = tv_prox(g, z1, 0.5, tol=1e-10, max_iters=4000)
        p2, _ = tv_prox(g, z2, 0.5, tol=1e-10, max_iters=4000)
        assert np.linalg.norm(p1 - p2) <= np.linalg.norm(z1 - z2) + 1e-7
        ps, _ = tv_prox(g, z1 + c, 0.5, tol=1e-10, max_iters=4000)
        assert np.max(np.abs(ps - (p1 + c))) < 1e-5
    _announce(2, "tv prox matches subgradient oracle")


def test_criterion_3_closed_form_solvers():
    """Ridge trainers satisfy their linear systems to 1e-8 relative and beat
    100 random perturbations of the coefficient vector."""
    rng = np.random.default_rng(11)
    X = np.vstack(
        [rng.normal(size=(5, 2)) * 0.3, rng.normal(size=(5, 2)) * 0.3 + [3, 0]]
    )
    y = np.array([1.0] * 5 + [-1.0] * 5)
    K = rbf_gram(X, 1.0)
    g = build_knn_graph(X, 3)
    hp = HyperParams(eta=4.0, lam=0.05, gamma=0.3)

    m = rls_train(K, y, hp)
    A = hp.eta * K.values + hp.lam * np.eye(K.n)
    assert np.linalg.norm(A @ m.alpha - hp.eta * y) <= 1e-8 * np.linalg.norm(hp.eta * y)

    def rls_objective(alpha):
        fit = K.values @ alpha - y
        return 0.5 * hp.eta * fit @ fit + 0.5 * hp.lam * alpha @ K.values @ alpha

    base = rls_objective(m.alpha)
    for _ in range(100):
        assert rls_objective(m.alpha + rng.normal(size=K.n) * 0.1) >= base - 1e-10

    mask = np.zeros(10, dtype=bool)
    mask[[0, 5]] = True
    ls = LabeledSet(np.where(mask, y, 0.0), mask)
    ml = lap_rls_train(K, g, ls, hp)
    M = (
        hp.eta * (mask[:, None] * K.values)
        + hp.lam * np.eye(K.n)
        + 2 * hp.gamma * (g.laplacian() @ K.values)
    )
    rhs = hp.eta * ls.y_ext
    assert np.linalg.norm(M @ ml.alpha - rhs) <= 1e-8 * np.linalg.norm(rhs)
    base = lap_rls_objective(
        K.values, g, ls.y_ext, mask, hp.eta, hp.lam, hp.gamma, ml.alpha
    )
    for _ in range(100):
        pert = ml.alpha + rng.normal(size=K.n) * 0.1
        obj = lap_rls_objective(
            K.values, g, ls.y_ext, mask, hp.eta, hp.lam, hp.gamma, pert
        )
        assert obj >= base - 1e-10
    _announce(3, "closed-form solvers verified")


def test_criterion_4_simplex_projection():
    """Michelot projection matches the sort-based oracle to 1e-12 on 1000
    random vectors; idempotent and order preserving."""
    rng = np.random.default_rng(13)
    for _ in range(1000):
        v = rng.normal(size=int(rng.integers(1, 12))) * rng.uniform(0.5, 20)
        u = project_simplex(v)
        assert np.max(np.abs(u - sort_simplex_projection(v))) < 1e-12
        assert abs(u.sum() - 1.0) < 1e-12 and u.min() >= 0.0
        assert np.max(np.abs(project_simplex(u) - u)) < 1e-12
        order = np.argsort(v, kind="stable")
        assert np.all(np.diff(u[order]) >= -1e-12)
    _announce(4, "simplex projection matches sort oracle")


def test_criterion_5_reduction_chain():
    """gamma = 0 collapses the Laplacian variants onto the plain ones."""
    rng = np.random.default_rng(17)
    X = np.vstack(
        [rng.normal(size=(4, 2)) * 0.3, rng.normal(size=(4, 2)) * 0.3 + [3, 0]]
    )
    y = np.array([1.0] * 4 + [-1.0] * 4)
    K = rbf_gram(X, 1.0)
    g = build_knn_graph(X, 3)
    ls = LabeledSet(y, np.ones(8, dtype=bool))

    hp = HyperParams(eta=2.0, lam=0.2, gamma=1e-300, mu=1.0)
    m_lap = lap_rls_train(K, g, ls, hp)
    m_plain = rls_train(K, y, HyperParams(eta=2.0, lam=0.2))
    assert np.max(np.abs(m_lap.alpha - m_plain.alpha)) < 1e-8

    m_lap_svm = lap_svm_train(K, g, ls, hp)
    m_svm = svm_train(K, y, HyperParams(lam=0.2, mu=1.0))
    assert np.max(np.abs(m_lap_svm.alpha - m_svm.alpha)) < 1e-8
    _announce(5, "gamma=0 reduction chain holds")


def test_criterion_6_two_moons_label_scarcity():
    """At one label per class on two moons, every TV/ratio method stays at or
    under 10% mean error and both Laplacian baselines do strictly worse than
    the best of them."""
    cfg = ExperimentConfig.from_json(os.path.join("configs", "two_moons.json"))
    t0 = time.perf_counter()
    rt = run_experiment(cfg)
    elapsed = time.perf_counter() - t0
    means = {c.algorithm: c.mean_error for c in rt.cells}
    assert all(v is not None for v in means.values()), means
    for algo in ("tv_rls", "tv_svm", "cheeger_rls", "cheeger_svm"):
        assert means[algo] <= 10.0, f"{algo}: {means[algo]:.2f}%"
    best_tv = min(means[a] for a in ("tv_rls", "tv_svm", "cheeger_rls", "cheeger_svm"))
    assert means["lap_rls"] > best_tv
    assert means["lap_svm"] > best_tv
    assert elapsed <= 120.0, f"ran {elapsed:.0f}s"
    _announce(
        6,
        "two moons: tv/cheeger <= 10%, laplacian worse "
        + str({k: round(v, 2) for k, v in means.items()}),
    )


@pytest.mark.skipif(not HAS_USPS, reason=f"digits CSV not found at {USPS_PATH}")
def test_criterion_7_digits_4v9_band():
    """4-vs-9 digits at one label per class: the TV margin method lands in the
    reported band and the Laplacian ridge baseline is at least twice worse."""
    cfg = ExperimentConfig(
        dataset={"type": "csv", "path": USPS_PATH, "keep_labels": [4, 9]},
        algorithms=["tv_svm", "lap_rls"],
        labels_per_class=[1],
        run_count=10,
        seed=0,
        graph={"k": 10, "sigma_mode": "self_tuning"},
        kernel={"bandwidth": None, "median_factor": 0.5},
    )
    rt = run_experiment(cfg)
    means = {c.algorithm: c.mean_error for c in rt.cells}
    assert means["tv_svm"] is not None and means["lap_rls"] is not None
    assert 3.18 - 2.0 <= means["tv_svm"] <= 3.18 + 2.0, means
    assert means["lap_rls"] >= 2.0 * means["tv_svm"], means
    _announce(7, f"digits 4v9 band: {means}")


@pytest.mark.skipif(not HAS_USPS, reason=f"digits CSV not found at {USPS_PATH}")
def test_criterion_8_digits_multiclass_direction():
    """0/1/4/9 digits at one label per class: best TV/ratio multiclass method
    under 5% error, Laplacian ridge above 10%."""
    cfg = ExperimentConfig(
        dataset={"type": "csv", "path": USPS_PATH, "keep_labels": [0, 1, 4, 9]},
        algorithms=["tv_rls_mc", "tv_svm_mc", "lap_rls_mc"],
        labels_per_class=[1],
        run_count=10,
        seed=0,
        graph={"k": 10, "sigma_mode": "self_tuning"},
        kernel={"bandwidth": None, "median_factor": 0.5},
    )
    rt = run_experiment(cfg)
    means = {c.algorithm: c.mean_error for c in rt.cells}
    best_tv = min(means["tv_rls_mc"], means["tv_svm_mc"])
    assert best_tv < 5.0, means
    assert means["lap_rls_mc"] > 10.0, means
    _announce(8, f"digits multiclass direction: {means}")


def test_criterion_9_determinism_byte_identical():
    """Two runs of the same benchmark config emit byte-identical JSON."""
    cfg = ExperimentConfig(
        dataset={"type": "two_moons", "n": 60, "noise": 0.08, "seed": 2},
        algorithms=["rls", "lap_rls", "tv_rls"],
        labels_per_class=[1, 3],
        run_count=2,
        seed=5,
        graph={"k": 6},
        kernel={"bandwidth": None, "median_factor": 0.5},
    )
    out1 = emit_table(run_experiment(cfg), "json").encode()
    out2 = emit_table(run_experiment(cfg), "json").encode()
    assert out1 == out2
    doc = json.loads(out1)
    assert len(doc["cells"]) == 6
    _announce(9, "byte-identical JSON across reruns")
