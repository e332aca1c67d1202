import json
import sys
from dataclasses import replace

import numpy as np
import pytest

from tvssl import binary, multiclass
from tvssl.binary import load_model as binary_load_model
from tvssl.binary import save_model as binary_save_model
from tvssl.binary import (
    LabeledSet,
    cheeger_rls_train,
    cheeger_svm_train,
    lap_rls_train,
    lap_svm_train,
    transductive_labels,
    tv_rls_train,
    tv_svm_train,
)
from tvssl.data_io import Dataset, SplitSpec, make_split
from tvssl.errors import InvalidParameterError
from tvssl.graph import SimilarityGraph, build_knn_graph
from tvssl.kernel import median_bandwidth, rbf_gram
from tvssl.multiclass import (
    MultiLabelSet,
    MulticlassModel,
    SvmProxSolver,
    cheeger_rls_mc_train,
    cheeger_svm_mc_train,
    lap_rls_mc_train,
    lap_svm_mc_train,
    load_model,
    predict_multiclass,
    save_model,
    transductive_classes,
    tv_rls_mc_train,
    tv_svm_mc_train,
)
from tvssl.opt_core import HyperParams

from oracles import margin_primal_slsqp, masked_rls_alpha, tv_prox_row_by_row


def three_cluster_dataset(per=12, seed=7, spread=0.45):
    rng = np.random.default_rng(seed)
    centers = np.array([[0.0, 0.0], [4.0, 0.0], [2.0, 3.5]])
    X = np.vstack([rng.normal(size=(per, 2)) * spread + c for c in centers])
    labels = np.repeat([1, 2, 3], per)
    return Dataset(X, labels)


def two_cluster_dataset(per=6, seed=3):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(per, 2)) * 0.25
    b = rng.normal(size=(per, 2)) * 0.25 + np.array([4.0, 0.0])
    return Dataset(np.vstack([a, b]), np.repeat([1, 2], per))


def setup(ds, k=6, lpc=1, seed=0):
    g = build_knn_graph(ds.data, k)
    K = rbf_gram(ds.data, median_bandwidth(ds.data) * 0.5)
    mls = make_split(ds, SplitSpec(lpc, seed), multiclass=True)
    return K, g, mls


MC_HP = HyperParams(
    eta=1.0, lam=1e-4, gamma=1.0, mu=0.1, r=1.0,
    outer_iters=40, inner_iters=120, norm_scale="sqrt_n",
)

ALL_TRAINERS = [
    ("lap_rls_mc", lap_rls_mc_train),
    ("lap_svm_mc", lap_svm_mc_train),
    ("tv_rls_mc", tv_rls_mc_train),
    ("tv_svm_mc", tv_svm_mc_train),
    ("cheeger_rls_mc", cheeger_rls_mc_train),
    ("cheeger_svm_mc", cheeger_svm_mc_train),
]


# ---------------------------------------------------------------------------
# label set
# ---------------------------------------------------------------------------


def test_multilabel_set_targets():
    mls = MultiLabelSet(np.array([1, 0, 2, 3, 0]), 3)
    ind = mls.indicator_targets()
    assert ind.shape == (3, 5)
    assert np.array_equal(ind[:, 0], [1, 0, 0])
    assert np.array_equal(ind[:, 1], [0, 0, 0])
    # labeled points have exactly one positive channel
    assert np.array_equal(ind[:, mls.labeled_mask].sum(axis=0), [1, 1, 1])
    mg = mls.margin_targets()
    assert np.array_equal(mg[:, 3], [-1, -1, 1])


def test_multilabel_set_validation():
    with pytest.raises(InvalidParameterError):
        MultiLabelSet(np.array([1, 2]), 1)
    with pytest.raises(InvalidParameterError):
        MultiLabelSet(np.array([1, 4]), 3)
    with pytest.raises(InvalidParameterError):
        MultiLabelSet(np.array([1, 1, 0]), 2)  # class 2 never labeled


@pytest.mark.parametrize(
    "labels", [np.array([], dtype=int), [1.7, 2.2, 0.0], [1.0, np.nan, 2.0], [1.0, np.inf, 2.0]]
)
def test_multilabel_set_rejects_empty_and_fractional_labels(labels):
    with pytest.raises(InvalidParameterError):
        MultiLabelSet(labels, 2)


@pytest.mark.parametrize("class_count", [2.5, 2.0, True, "2"])
def test_multilabel_set_rejects_non_integer_class_count(class_count):
    with pytest.raises(InvalidParameterError, match="class_count"):
        MultiLabelSet([1, 2, 0], class_count)


def test_multilabel_set_accepts_whole_float_labels():
    mls = MultiLabelSet([1.0, 2.0, 0.0], 2)
    assert mls.labels.dtype == np.int64 and mls.labels.tolist() == [1, 2, 0]


# ---------------------------------------------------------------------------
# recovery of generated clusters
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name,trainer", ALL_TRAINERS)
def test_three_cluster_recovery(name, trainer):
    ds = three_cluster_dataset()
    K, g, mls = setup(ds)
    m = trainer(K, g, mls, MC_HP)
    pred = transductive_classes(m)
    un = ~mls.labeled_mask
    err = np.mean(pred[un] != ds.true_labels[un])
    assert err <= 0.10, f"{name} error {err}"


@pytest.mark.parametrize("name,trainer", ALL_TRAINERS)
def test_margin_trainers_trace_how_their_dual_kernel_was_solved(name, trainer):
    K, g, mls = setup(three_cluster_dataset())
    m = trainer(K, g, mls, replace(MC_HP, outer_iters=3))
    if name.endswith("rls_mc"):
        assert "gram_rank" not in m.trace and "s_refined_cols" not in m.trace
        return
    r = K.root().shape[1]
    assert m.trace["gram_rank"] == (r if r <= 0.4 * K.n else K.n)
    assert m.trace["s_refined_cols"] == 0


# ---------------------------------------------------------------------------
# simplex feasibility bookkeeping
# ---------------------------------------------------------------------------


def test_lap_rls_mc_final_iterate_on_simplex():
    ds = three_cluster_dataset()
    K, g, mls = setup(ds)
    m = lap_rls_mc_train(K, g, mls, MC_HP)
    assert max(m.trace["simplex_dev"]) <= 1e-12


def test_tv_rls_mc_projection_feasible_each_iteration():
    ds = three_cluster_dataset()
    K, g, mls = setup(ds)
    m = tv_rls_mc_train(K, g, mls, MC_HP)
    assert max(m.trace["simplex_dev"]) <= 1e-12


def test_labeled_node_pinned_under_strong_fidelity():
    ds = three_cluster_dataset()
    K, g, mls = setup(ds)
    hp = HyperParams(
        eta=1e4, lam=1e-4, gamma=0.05, r=1.0, outer_iters=60, inner_iters=100
    )
    m = lap_rls_mc_train(K, g, mls, hp)
    gch = np.array(m.trace["g_final"])
    for i in np.flatnonzero(mls.labeled_mask):
        one_hot = np.zeros(mls.class_count)
        one_hot[mls.labels[i] - 1] = 1.0
        assert np.max(np.abs(gch[:, i] - one_hot)) <= 0.05


# ---------------------------------------------------------------------------
# reductions and limits
# ---------------------------------------------------------------------------


def test_tv_rls_mc_no_graph_reduces_to_masked_ridge_channels():
    ds = two_cluster_dataset()
    n = ds.n_points
    K = rbf_gram(ds.data, 1.0)
    g = SimilarityGraph(n, [], [], [])
    mls = make_split(ds, SplitSpec(2, 1), multiclass=True)
    hp = HyperParams(
        eta=2.0, lam=0.1, gamma=1e-300, r=1e-8, outer_iters=50,
        normalize=False, tol=1e-12,
    )
    m = tv_rls_mc_train(K, g, mls, hp)
    for k in range(2):
        y_k = mls.indicator_targets()[k]
        a_direct = masked_rls_alpha(K.values, y_k, mls.labeled_mask, hp.eta, hp.lam)
        assert np.max(np.abs(m.alphas[k] - a_direct)) < 1e-4


def test_lap_svm_mc_large_r_pins_channels_to_targets():
    ds = two_cluster_dataset()
    g = build_knn_graph(ds.data, 3)
    K = rbf_gram(ds.data, 0.25)  # well conditioned, so the targets are attainable
    mls = make_split(ds, SplitSpec(2, 1), multiclass=True)
    hp = HyperParams(lam=0.01, gamma=1e-300, mu=0.1, r=1e6, outer_iters=1)
    m = lap_svm_mc_train(K, g, mls, hp)
    # with a huge proximity weight the first sweep pins f^k to its target g^k
    assert np.max(np.abs(m.node_values - mls.indicator_targets())) < 1e-3


# ---------------------------------------------------------------------------
# agreement with binary counterparts at c = 2
# ---------------------------------------------------------------------------


def binary_version(ds, trainer_binary, hp, seed=0):
    mask = make_split(ds, SplitSpec(1, seed), multiclass=True).labeled_mask
    pm = np.where(ds.true_labels == 1, 1.0, -1.0)
    ls = LabeledSet(np.where(mask, pm, 0.0), mask)
    g = build_knn_graph(ds.data, 4)
    K = rbf_gram(ds.data, median_bandwidth(ds.data) * 0.5)
    return transductive_labels(trainer_binary(K, g, ls, hp))


BINARY_COUNTERPARTS = [
    ("lap_rls_mc", lap_rls_mc_train, lap_rls_train,
     dict(eta=1.0, lam=1e-4, gamma=1.0, r=1.0, outer_iters=40)),
    ("lap_svm_mc", lap_svm_mc_train, lap_svm_train,
     dict(lam=0.01, gamma=1.0, mu=1.0, r=1.0, outer_iters=30)),
    ("tv_rls_mc", tv_rls_mc_train, tv_rls_train,
     dict(eta=1.0, lam=1e-4, gamma=1.0, r=5.0, r1=5.0, r2=5.0,
          outer_iters=80, inner_iters=120, norm_scale="sqrt_n")),
    ("tv_svm_mc", tv_svm_mc_train, tv_svm_train,
     dict(eta=1.0, lam=1e-4, gamma=1.0, mu=0.1, r=5.0, r1=5.0, r2=5.0,
          outer_iters=80, inner_iters=120, norm_scale="sqrt_n")),
    ("cheeger_rls_mc", cheeger_rls_mc_train, cheeger_rls_train,
     dict(lam=1e-4, r=1.0, c=1.0, outer_iters=40, norm_scale="sqrt_n")),
    ("cheeger_svm_mc", cheeger_svm_mc_train, cheeger_svm_train,
     dict(lam=1e-4, r=1.0, c=1.0, mu=0.1, outer_iters=40, norm_scale="sqrt_n")),
]


@pytest.mark.parametrize(
    "name,mc_trainer,bin_trainer,hp_kwargs",
    BINARY_COUNTERPARTS,
    ids=[row[0] for row in BINARY_COUNTERPARTS],
)
def test_two_class_agreement_with_binary(name, mc_trainer, bin_trainer, hp_kwargs):
    ds = two_cluster_dataset(per=10)
    K = rbf_gram(ds.data, median_bandwidth(ds.data) * 0.5)
    g = build_knn_graph(ds.data, 4)
    mls = make_split(ds, SplitSpec(1, 0), multiclass=True)
    hp = HyperParams(**hp_kwargs)
    pred_mc = transductive_classes(mc_trainer(K, g, mls, hp))
    pred_bin = binary_version(ds, bin_trainer, hp)
    mc_as_pm = np.where(pred_mc == 1, 1, -1)
    assert np.mean(mc_as_pm == pred_bin) >= 0.95


# ---------------------------------------------------------------------------
# per-channel dual vs primal oracle
# ---------------------------------------------------------------------------


def test_mc_channel_prox_matches_primal_oracle():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(6, 2))
    K = rbf_gram(X, 1.0)
    g = build_knn_graph(X, 2)
    lam, gamma, r, mu = 0.5, 0.3, 1.2, 0.8
    hp = HyperParams(lam=lam, gamma=gamma, mu=mu, r=r)
    prox = SvmProxSolver(
        K, hp, laplacian=g.laplacian(), gamma=gamma, r=r,
        qp_tol=1e-10, qp_iters=50000,
    )
    for _ in range(3):
        e = rng.normal(size=6)
        y = np.where(rng.random(6) < 0.5, 1.0, -1.0)
        y[0], y[1] = 1.0, -1.0
        alpha, _ = prox.solve(y, target=e)
        f = K.values @ alpha
        f_oracle, _, _ = margin_primal_slsqp(
            K.values, y, lam, mu, graph=g, gamma=gamma, r=r, target=e
        )
        assert np.linalg.norm(f - f_oracle) < 1e-4


# ---------------------------------------------------------------------------
# equivariance, prediction, serialization
# ---------------------------------------------------------------------------


def test_class_permutation_equivariance():
    ds = three_cluster_dataset(per=8)
    K, g, _ = setup(ds)
    perm = np.array([3, 1, 2])  # class k -> perm[k-1]
    labels_perm = perm[ds.true_labels - 1]
    mls1 = make_split(ds, SplitSpec(1, 2), multiclass=True)
    mls2 = MultiLabelSet(
        np.where(mls1.labeled_mask, perm[mls1.labels - 1], 0), 3
    )
    m1 = tv_rls_mc_train(K, g, mls1, MC_HP)
    m2 = tv_rls_mc_train(K, g, mls2, MC_HP)
    inv = np.argsort(perm)  # m2 channel j holds m1 channel inv[j]
    # channel values agree up to summation-order rounding
    assert np.max(np.abs(m2.node_values - m1.node_values[inv])) < 1e-9
    assert np.array_equal(perm[transductive_classes(m1) - 1], transductive_classes(m2))


def test_predict_dominant_channel_and_ties():
    X = np.random.default_rng(0).normal(size=(5, 2))
    alphas = np.zeros((3, 5))
    model = MulticlassModel(
        "tv_rls_mc", alphas, 1.0, train_data=X,
        node_values=np.vstack([np.ones(5), np.zeros(5), np.ones(5)]),
    )
    # exact tie between channels 1 and 3 -> lower class index wins
    assert np.all(transductive_classes(model) == 1)
    assert np.all(predict_multiclass(model, X) == 1)  # all-zero alphas tie at 0


def test_predict_matches_kernel_argmax():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(7, 2))
    alphas = rng.normal(size=(3, 7))
    K = rbf_gram(X, 1.0)
    model = MulticlassModel("tv_rls_mc", alphas, 1.0, train_data=X)
    expect = np.argmax(np.vstack([K.values @ a for a in alphas]), axis=0) + 1
    assert np.array_equal(predict_multiclass(model, X), expect)


def test_mc_load_model_rejects_unknown_hyperparameter(tmp_path):
    ds = three_cluster_dataset(per=6)
    K, g, mls = setup(ds, k=4)
    m = lap_rls_mc_train(K, g, mls, HyperParams(eta=1.0, lam=1e-3, outer_iters=2))
    path = tmp_path / "mc.json"
    save_model(m, path)
    doc = json.loads(path.read_text())
    doc["hyperparams"]["gama"] = 0.5
    path.write_text(json.dumps(doc))
    with pytest.raises(InvalidParameterError, match="'gama'"):
        load_model(path)


def test_mc_serialization_round_trip(tmp_path):
    ds = three_cluster_dataset(per=6)
    K, g, mls = setup(ds, k=4)
    hp = HyperParams(eta=1.0, lam=1e-3, gamma=0.5, r=1.0, outer_iters=5)
    m = lap_rls_mc_train(K, g, mls, hp)
    path = tmp_path / "mc.json"
    save_model(m, path)
    m2 = load_model(path)
    assert m2.variant == m.variant
    assert m2.class_count == 3
    assert np.array_equal(m2.alphas, m.alphas)
    assert np.array_equal(m2.node_values, m.node_values)
    m2.train_data = ds.data
    assert np.array_equal(
        predict_multiclass(m2, ds.data), predict_multiclass(m, ds.data)
    )


@pytest.mark.parametrize(
    "field, value",
    [
        ("variant", None),
        ("alphas", None),
        ("bandwidth", None),
        ("alphas", [[0.1, 0.2], [0.3]]),
        ("alphas", [0.1, 0.2]),
        ("node_values", [[0.1, 0.2], [0.3]]),
        ("bandwidth", -1.0),
        ("bandwidth", float("nan")),
        ("node_values", [[0.1, 0.2], [0.3, 0.4]]),
    ],
)
def test_mc_load_model_malformed_field_names_file_and_field(tmp_path, field, value):
    ds = three_cluster_dataset(per=6)
    K, g, mls = setup(ds, k=4)
    path = tmp_path / "mc.json"
    save_model(lap_rls_mc_train(K, g, mls, HyperParams(outer_iters=2)), path)
    doc = json.loads(path.read_text())
    if value is None:
        del doc[field]
    else:
        doc[field] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(InvalidParameterError, match=f"mc.json.*'{field}'"):
        load_model(path)


def test_load_model_rejects_the_other_kind(tmp_path):
    ds = three_cluster_dataset(per=6)
    K, g, mls = setup(ds, k=4)
    mc_path = tmp_path / "mc.json"
    save_model(lap_rls_mc_train(K, g, mls, HyperParams(outer_iters=2)), mc_path)
    with pytest.raises(InvalidParameterError, match="not a binary model file"):
        binary_load_model(mc_path)

    ds2 = two_cluster_dataset()
    K2, g2, _ = setup(ds2, k=3)
    ls = make_split(ds2, SplitSpec(1, 0))
    bin_path = tmp_path / "binary.json"
    binary_save_model(lap_rls_train(K2, g2, ls, HyperParams()), bin_path)
    with pytest.raises(InvalidParameterError, match="not a multiclass model file"):
        load_model(bin_path)
    assert binary_load_model(bin_path).variant == "lap_rls"
    assert load_model(mc_path).variant == "lap_rls_mc"


def test_tv_svm_mc_projection_feasible_each_iteration():
    ds = three_cluster_dataset(per=8)
    K, g, mls = setup(ds)
    m = tv_svm_mc_train(K, g, mls, MC_HP)
    assert max(m.trace["simplex_dev"]) <= 1e-12


@pytest.mark.parametrize(
    "trainer", [cheeger_rls_mc_train, cheeger_svm_mc_train],
    ids=["cheeger_rls_mc", "cheeger_svm_mc"],
)
def test_cheeger_mc_energy_and_clamp(trainer):
    ds = three_cluster_dataset(per=8)
    K, g, mls = setup(ds)
    m = trainer(K, g, mls, MC_HP)
    trace = m.trace["ratio_energy"]
    assert m.trace["best_ratio_energy"] <= trace[0] + 1e-12
    running = np.minimum.accumulate(trace)
    assert np.all(np.diff(running) <= 1e-12)
    assert max(m.trace["simplex_dev"]) <= 1e-12
    pred = transductive_classes(m)
    lab = mls.labeled_mask
    assert np.array_equal(pred[lab], mls.labels[lab])


def test_cheeger_mc_collapsed_channel_restart_keeps_trace_per_outer_step(monkeypatch):
    # a channel zeroed by the coupling restarts the step; the prox work and the
    # simplex deviation of that discarded attempt are not recorded
    ds = three_cluster_dataset(per=8)
    K, g, mls = setup(ds)
    couplings = []
    coupling = multiclass._simplex_coupling

    def collapse_first(S):
        proj, dev = coupling(S)
        if not couplings:
            proj[0] = 0.0
        couplings.append(1)
        return proj, dev

    monkeypatch.setattr(multiclass, "_simplex_coupling", collapse_first)
    hp = replace(MC_HP, outer_iters=6)
    m = cheeger_rls_mc_train(K, g, mls, hp)
    assert len(couplings) == hp.outer_iters + 1
    steps = len(m.trace["ratio_energy"]) - 1
    assert steps == hp.outer_iters
    assert len(m.trace["prox_iters"]) == len(m.trace["prox_cap_hits"]) == steps
    assert len(m.trace["simplex_dev"]) == steps


def test_simplex_last_flag_keeps_final_iterate_feasible():
    ds = three_cluster_dataset(per=8)
    K, g, mls = setup(ds)
    hp = HyperParams(
        eta=1.0, lam=1e-4, gamma=1.0, r=5.0, outer_iters=30,
        inner_iters=100, norm_scale="sqrt_n", simplex_last=True,
    )
    m = tv_rls_mc_train(K, g, mls, hp)
    gch = np.array(m.trace["g_final"])
    sums = gch.sum(axis=0)
    assert np.max(np.abs(sums - 1.0)) <= 1e-12 and gch.min() >= 0.0
    # default literal order renormalizes after projecting, breaking feasibility
    hp2 = HyperParams(
        eta=1.0, lam=1e-4, gamma=1.0, r=5.0, outer_iters=30,
        inner_iters=100, norm_scale="sqrt_n", simplex_last=False,
    )
    m2 = tv_rls_mc_train(K, g, mls, hp2)
    g2 = np.array(m2.trace["g_final"])
    assert np.max(np.abs(g2.sum(axis=0) - 1.0)) > 1e-6


@pytest.mark.parametrize(
    "trainer", [tv_rls_mc_train, tv_svm_mc_train], ids=["tv_rls_mc", "tv_svm_mc"]
)
def test_consensus_prox_gap_tolerance_never_below_tol(trainer, monkeypatch):
    # the first TV shrink of every channel is solved to tol; later ones to a
    # gap tied to the move of that channel's input, never below tol. All
    # channels shrink in one batched call per step, one gap per row.
    batches, calls = [], []
    prox = binary.tv_prox

    def spy(g, z, *args, **kwargs):
        batches.append(np.shape(z))
        calls.extend(map(float, np.broadcast_to(kwargs["tol"], np.shape(z)[:1])))
        return prox(g, z, *args, **kwargs)

    monkeypatch.setattr(binary, "tv_prox", spy)
    ds = three_cluster_dataset(per=8)
    K, g, mls = setup(ds)
    m = trainer(K, g, mls, MC_HP)
    c = mls.class_count
    assert batches == [(c, g.n_nodes)] * MC_HP.outer_iters
    assert len(calls) == c * MC_HP.outer_iters == c * m.trace["outer_steps"]
    assert m.trace["stop_reason"] == "cap"
    assert calls[:c] == [MC_HP.tol] * c
    assert all(tol >= MC_HP.tol for tol in calls)
    assert any(tol > MC_HP.tol for tol in calls)  # the rule is in use


@pytest.mark.parametrize(
    "trainer", [cheeger_rls_mc_train, cheeger_svm_mc_train],
    ids=["cheeger_rls_mc", "cheeger_svm_mc"],
)
def test_ratio_prox_gap_tolerance_never_below_tol(trainer, monkeypatch):
    # the ratio loop's channel shrinks follow the consensus loop's rule: the
    # first to tol, later ones to a gap tied to the move of that channel's
    # input, never below tol
    calls = []
    prox = binary.tv_prox

    def spy(g, z, *args, **kwargs):
        calls.append(list(map(float, np.broadcast_to(kwargs["tol"], np.shape(z)[:1]))))
        return prox(g, z, *args, **kwargs)

    monkeypatch.setattr(binary, "tv_prox", spy)
    ds = three_cluster_dataset(per=8)
    K, g, mls = setup(ds)
    m = trainer(K, g, mls, MC_HP)
    c = mls.class_count
    assert len(calls) == m.trace["outer_steps"] >= 2
    assert calls[0] == [MC_HP.tol] * c
    rows = [row for call in calls for row in call]
    assert len(rows) == c * len(calls)
    assert all(tol >= MC_HP.tol for tol in rows)
    assert any(tol > MC_HP.tol for tol in rows)  # the rule is in use


@pytest.mark.parametrize(
    "trainer",
    [tv_rls_mc_train, tv_svm_mc_train, cheeger_rls_mc_train, cheeger_svm_mc_train],
    ids=["tv_rls_mc", "tv_svm_mc", "cheeger_rls_mc", "cheeger_svm_mc"],
)
def test_every_channel_prox_call_comes_from_the_prox_chain(trainer, monkeypatch):
    callers = []
    prox = binary.tv_prox

    def spy(*args, **kwargs):
        callers.append(sys._getframe(1).f_code)
        return prox(*args, **kwargs)

    monkeypatch.setattr(binary, "tv_prox", spy)
    ds = three_cluster_dataset(per=8)
    K, g, mls = setup(ds)
    m = trainer(K, g, mls, replace(MC_HP, outer_iters=12))
    assert callers == [binary._ProxChain.__call__.__code__] * m.trace["outer_steps"]


@pytest.mark.parametrize(
    "trainer",
    [tv_rls_mc_train, tv_svm_mc_train, cheeger_rls_mc_train, cheeger_svm_mc_train],
    ids=["tv_rls_mc", "tv_svm_mc", "cheeger_rls_mc", "cheeger_svm_mc"],
)
def test_batched_channel_prox_equals_one_call_per_channel(trainer, monkeypatch):
    # one (c, n) prox call per step gives the fit of c one-channel calls bit
    # for bit, trace included
    ds = three_cluster_dataset(per=8)
    K, g, mls = setup(ds)
    batched = trainer(K, g, mls, MC_HP)
    calls = []
    prox = binary.tv_prox

    def row_by_row(g, z, weight, **kwargs):
        calls.append(np.shape(z))
        return tv_prox_row_by_row(prox, g, z, weight, **kwargs)

    monkeypatch.setattr(binary, "tv_prox", row_by_row)
    single = trainer(K, g, mls, MC_HP)
    assert calls == [(mls.class_count, g.n_nodes)] * batched.trace["outer_steps"]
    assert batched.alphas.tobytes() == single.alphas.tobytes()
    assert batched.node_values.tobytes() == single.node_values.tobytes()
    assert repr(batched.trace) == repr(single.trace)


@pytest.mark.parametrize(
    "trainer",
    [tv_rls_mc_train, tv_svm_mc_train, cheeger_rls_mc_train, cheeger_svm_mc_train],
    ids=["tv_rls_mc", "tv_svm_mc", "cheeger_rls_mc", "cheeger_svm_mc"],
)
def test_prox_stops_count_every_channel_once_per_step(trainer, monkeypatch):
    seen = []
    prox = binary.tv_prox

    def spy(*args, **kwargs):
        x, trace = prox(*args, **kwargs)
        seen.append([r.stop_reason for r in trace.rows])
        return x, trace

    monkeypatch.setattr(binary, "tv_prox", spy)
    ds = three_cluster_dataset(per=8)
    K, g, mls = setup(ds)
    m = trainer(K, g, mls, MC_HP)
    stops = m.trace["prox_stops"]
    assert len(stops) == len(m.trace["prox_iters"]) == m.trace["outer_steps"] == len(seen)
    for counts, reasons in zip(stops, seen):
        assert list(counts) == ["gap", "cap"]
        assert sum(counts.values()) == len(reasons) == mls.class_count
        assert counts == {r: reasons.count(r) for r in counts}
