"""Multi-class variants: per-class channels coupled by a per-node simplex
projection.

Least-squares channels use 0/1 indicator targets (compatible with the
channel-sum-to-one constraint); margin channels use one-vs-rest +-1 targets.
Decisions are by channel argmax with ties going to the smallest class index.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameterError, check_int
from .graph import SimilarityGraph
from .kernel import KernelMatrix, kernel_expand
from .opt_core import DiagLaplacian, HyperParams, project_simplex_rows
from .binary import (
    SvmProxSolver,
    _ProxChain,
    _check_divergence,
    _check_semi,
    _kernel_factor,
    _lap_ls,
    _ls_ratio_step,
    _margin_step,
    _ratio_loop,
    _read_model,
    _write_model,
)


@dataclass(eq=False)
class MultiLabelSet:
    """Partial class labels over N points: 1..c where labeled, 0 elsewhere."""

    labels: np.ndarray
    class_count: int

    def __post_init__(self):
        raw = np.asarray(self.labels).ravel()
        if raw.size == 0:
            raise InvalidParameterError("need at least one point")
        check_int("class_count", self.class_count)
        if self.class_count < 2:
            raise InvalidParameterError("need at least two classes")
        # tested before the integer cast, which would truncate 1.7 to 1
        if not np.isin(raw, np.arange(self.class_count + 1)).all():
            raise InvalidParameterError("labels must be whole numbers in 0..class_count")
        self.labels = raw.astype(np.int64)
        present = np.unique(self.labels[self.labels > 0])
        if present.size < self.class_count:
            raise InvalidParameterError("every class needs at least one label")

    @property
    def n_points(self) -> int:
        return self.labels.size

    @property
    def labeled_mask(self) -> np.ndarray:
        return self.labels > 0

    def indicator_targets(self) -> np.ndarray:
        """(c, N) channel targets: 1 where labeled with that class, else 0."""
        return _one_vs_rest(self.labels, self.class_count, 0.0)

    def margin_targets(self) -> np.ndarray:
        """(c, N) one-vs-rest +-1 targets, meaningful on labeled points."""
        return _one_vs_rest(self.labels, self.class_count, -1.0)


def _one_vs_rest(classes: np.ndarray, c: int, rest: float) -> np.ndarray:
    """(c, N) array: 1 in channel k where ``classes`` is k + 1, else ``rest``."""
    return np.where(classes == np.arange(1, c + 1)[:, None], 1.0, rest)


@dataclass(eq=False)
class MulticlassModel:
    """Trained multi-class classifier with one coefficient vector per class."""

    variant: str
    alphas: np.ndarray  # (c, N)
    bandwidth: float
    hyperparams: HyperParams | None = None
    train_data: np.ndarray | None = None
    node_values: np.ndarray | None = None  # (c, N)
    trace: dict = field(default_factory=dict)

    def __post_init__(self):
        self.alphas = np.atleast_2d(np.asarray(self.alphas, dtype=np.float64))
        if not np.all(np.isfinite(self.alphas)):
            raise InvalidParameterError("alphas must be finite")
        if self.alphas.shape[0] < 2:
            raise InvalidParameterError("need at least two channels")

    @property
    def class_count(self) -> int:
        return self.alphas.shape[0]


def predict_multiclass(model: MulticlassModel, query) -> np.ndarray:
    """Class of the largest channel value (1-based; ties -> smaller index)."""
    if model.train_data is None:
        raise InvalidParameterError("model carries no training data reference")
    scores = np.vstack(
        [
            kernel_expand(a, model.train_data, query, model.bandwidth)
            for a in model.alphas
        ]
    )
    return np.argmax(scores, axis=0).astype(np.int64) + 1


def transductive_classes(model: MulticlassModel) -> np.ndarray:
    """Argmax decision at the training nodes from the fitted channel values."""
    if model.node_values is None:
        raise InvalidParameterError("model has no fitted node values")
    return np.argmax(model.node_values, axis=0).astype(np.int64) + 1


# ---------------------------------------------------------------------------
# shared pieces
# ---------------------------------------------------------------------------


def _simplex_coupling(S: np.ndarray) -> tuple[np.ndarray, float]:
    """Channel coupling of the multi-class loops: the projection of each
    node's channel vector (a column of the (c, N) array) onto the simplex,
    and the worst per-node deviation from the simplex after it."""
    proj = project_simplex_rows(S.T).T
    dev = max(np.max(np.abs(proj.sum(axis=0) - 1.0)), max(0.0, -proj.min()))
    return proj, float(dev)


def _renormalize_channels(F: np.ndarray, scale: float) -> np.ndarray:
    out = F.copy()
    for k in range(out.shape[0]):
        nk = np.linalg.norm(out[k])
        if nk > 0:
            out[k] *= scale / nk
    return out


def _margin_pseudo(mls: MultiLabelSet, values: np.ndarray) -> np.ndarray:
    """One-vs-rest +-1 channel labels: true where labeled, argmax elsewhere."""
    cls = np.argmax(values, axis=0) + 1
    cls = np.where(mls.labeled_mask, mls.labels, cls)
    return _one_vs_rest(cls, mls.class_count, -1.0)


def _margin_channels(K, g, mls, hp, prox: SvmProxSolver):
    """Per-channel margin proximal whose pseudo-labels start from the
    per-channel Laplacian least-squares fit (:func:`binary._lap_ls`) and are
    refreshed by argmax."""
    return _margin_step(
        K, prox, _lap_ls(K, g, mls.labeled_mask, mls.indicator_targets().T, hp).T @ K.values,
        lambda _prev, vals: _margin_pseudo(mls, vals),
    )


# ---------------------------------------------------------------------------
# consensus channel trainers (Laplacian and TV)
# ---------------------------------------------------------------------------


def _consensus_train(variant, K, g, mls, hp, fidelity, tv: bool) -> MulticlassModel:
    """Simplex-constrained consensus loop of the Laplacian and TV channel
    trainers.

    ``fidelity(gch, lam, it) -> (alphas, f)`` fits the channels to the
    consensus ``gch`` with multiplier ``lam``. The consensus is the per-node
    simplex projection of ``f + lam / r``; with ``tv`` each channel first
    takes a TV shrink and the projection is followed by channel
    renormalization, the literal order. The channels' TV shrinks form one
    :class:`binary._ProxChain`, one batched call per step.

    The loop always runs ``outer_iters`` steps (``stop_reason`` "cap"):
    the cap and the proximal tolerance rule are part of the algorithm and
    define its output. The trace records ``outer_steps``, ``stop_reason``
    and, per step, the consensus residual, the simplex deviation and (with
    ``tv``) the proximal work.
    """
    n = K.n
    scale = float(np.sqrt(n))
    gch = mls.indicator_targets()
    lam = np.zeros_like(gch)
    trace = {"consensus": [], "simplex_dev": []}
    if tv:
        chain = _ProxChain(g, hp, trace)
    for it in range(hp.outer_iters):
        alphas, f = fidelity(gch, lam, it)
        _check_divergence(f.ravel(), n)
        z = f + lam / hp.r
        if tv:
            z = chain(z, hp.gamma / hp.r)
            chain.record()
        gch, dev = _simplex_coupling(z)
        trace["simplex_dev"].append(dev)
        if tv:
            gch = _renormalize_channels(gch, scale)
        lam += hp.r * (f - gch)
        trace["consensus"].append(float(np.linalg.norm(f - gch)))
    trace.update(outer_steps=hp.outer_iters, stop_reason="cap", g_final=gch.tolist())
    return MulticlassModel(
        variant, alphas, K.bandwidth, hp, K.data, node_values=f, trace=trace
    )


def _ls_fidelity(K, g, mls, hp, gamma):
    """Least-squares channel fit to the consensus: one LU solve for all
    channels against 0/1 indicator targets."""
    y_ch = mls.indicator_targets()
    D = DiagLaplacian(
        K.n, r=hp.r, eta=hp.eta, mask=mls.labeled_mask, laplacian=g.laplacian(),
        weight=2.0 * gamma,
    )
    lu = _kernel_factor(K, hp.lam, D)

    def fidelity(gch, lam, _it):
        alphas = lu.solve((hp.eta * y_ch + hp.r * gch - lam).T).T
        return alphas, alphas @ K.values

    return fidelity


def _margin_fidelity(K, g, mls, hp, prox: SvmProxSolver):
    """Margin channel fit to the consensus, pseudo-labels refreshed from it."""
    margin = _margin_channels(K, g, mls, hp, prox)
    return lambda gch, lam, it: margin(gch - lam / hp.r, it, source=gch)


def lap_rls_mc_train(
    K: KernelMatrix, g: SimilarityGraph, mls: MultiLabelSet, hp: HyperParams
) -> MulticlassModel:
    """Laplacian least-squares channels with simplex-constrained consensus."""
    _check_semi(K, g, mls)
    fidelity = _ls_fidelity(K, g, mls, hp, gamma=hp.gamma)
    return _consensus_train("lap_rls_mc", K, g, mls, hp, fidelity, tv=False)


def tv_rls_mc_train(
    K: KernelMatrix, g: SimilarityGraph, mls: MultiLabelSet, hp: HyperParams
) -> MulticlassModel:
    """Least-squares channels with per-channel TV shrink, simplex projection
    and channel renormalization."""
    _check_semi(K, g, mls)
    fidelity = _ls_fidelity(K, g, mls, hp, gamma=0.0)
    return _consensus_train("tv_rls_mc", K, g, mls, hp, fidelity, tv=True)


def lap_svm_mc_train(
    K: KernelMatrix, g: SimilarityGraph, mls: MultiLabelSet, hp: HyperParams
) -> MulticlassModel:
    """Margin channels with Laplacian smoothing and simplex consensus."""
    _check_semi(K, g, mls)
    prox = SvmProxSolver(K, hp, laplacian=g.laplacian(), gamma=hp.gamma, r=hp.r)
    fidelity = _margin_fidelity(K, g, mls, hp, prox)
    model = _consensus_train("lap_svm_mc", K, g, mls, hp, fidelity, tv=False)
    model.trace.update(prox.counters)
    return model


def tv_svm_mc_train(
    K: KernelMatrix, g: SimilarityGraph, mls: MultiLabelSet, hp: HyperParams
) -> MulticlassModel:
    """Margin channels with TV shrink, simplex projection and channel
    renormalization."""
    _check_semi(K, g, mls)
    prox = SvmProxSolver(K, hp, r=hp.r)
    fidelity = _margin_fidelity(K, g, mls, hp, prox)
    model = _consensus_train("tv_svm_mc", K, g, mls, hp, fidelity, tv=True)
    model.trace.update(prox.counters)
    return model


# ---------------------------------------------------------------------------
# ratio (Cheeger) channel trainers
# ---------------------------------------------------------------------------


def cheeger_rls_mc_train(
    K: KernelMatrix, g: SimilarityGraph, mls: MultiLabelSet, hp: HyperParams
) -> MulticlassModel:
    """Per-channel ratio descent with a least-squares proximal and joint
    simplex projection."""
    _check_semi(K, g, mls)
    y = mls.indicator_targets()
    alphas, f, trace = _ratio_loop(
        K, g, mls.labeled_mask, y, y, hp, *_ls_ratio_step(K, hp), _simplex_coupling
    )
    return MulticlassModel(
        "cheeger_rls_mc", alphas, K.bandwidth, hp, K.data, node_values=f, trace=trace
    )


def cheeger_svm_mc_train(
    K: KernelMatrix, g: SimilarityGraph, mls: MultiLabelSet, hp: HyperParams
) -> MulticlassModel:
    """Per-channel ratio descent with a margin proximal and joint simplex
    projection; pseudo-labels refreshed from the signed step."""
    _check_semi(K, g, mls)
    prox = SvmProxSolver(K, hp, r=hp.r)
    alphas, f, trace = _ratio_loop(
        K, g, mls.labeled_mask, mls.indicator_targets(), mls.margin_targets(),
        hp, _margin_channels(K, g, mls, hp, prox), prox.factor, _simplex_coupling,
    )
    trace.update(prox.counters)
    return MulticlassModel(
        "cheeger_svm_mc", alphas, K.bandwidth, hp, K.data, node_values=f, trace=trace
    )


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def save_model(model: MulticlassModel, path) -> None:
    """Write the model (header, per-channel coefficient blocks) as JSON."""
    _write_model(
        path, "multiclass", model,
        class_count=model.class_count, n_train=model.alphas.shape[1],
        bandwidth=model.bandwidth,
    )


def load_model(path) -> MulticlassModel:
    """Read a model written by :func:`save_model`."""
    return MulticlassModel(**_read_model(path, "multiclass"))
