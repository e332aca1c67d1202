"""Multi-class variants: per-class channels coupled by a per-node simplex
projection.

Least-squares channels use 0/1 indicator targets (compatible with the
channel-sum-to-one constraint); margin channels use one-vs-rest +-1 targets.
Decisions are by channel argmax with ties going to the smallest class index.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field, asdict

import numpy as np

from .errors import (
    DegenerateInputError,
    DimensionError,
    InvalidParameterError,
)
from .graph import SimilarityGraph
from .kernel import KernelMatrix, kernel_expand
from .opt_core import (
    HyperParams,
    LuFactor,
    SpdFactor,
    center_median,
    project_simplex_rows,
    tv_prox,
)
from .binary import SvmProxSolver, _check_divergence, _perturbed_restart, _ratio_energy

logger = logging.getLogger(__name__)

MULTICLASS_VARIANTS = (
    "lap_rls_mc",
    "lap_svm_mc",
    "tv_rls_mc",
    "tv_svm_mc",
    "cheeger_rls_mc",
    "cheeger_svm_mc",
)


@dataclass(eq=False)
class MultiLabelSet:
    """Partial class labels over N points: 1..c where labeled, 0 elsewhere."""

    labels: np.ndarray
    class_count: int

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.int64).ravel()
        if self.class_count < 2:
            raise InvalidParameterError("need at least two classes")
        if self.labels.min() < 0 or self.labels.max() > self.class_count:
            raise InvalidParameterError("labels must lie in 0..class_count")
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
        c, n = self.class_count, self.n_points
        out = np.zeros((c, n))
        for k in range(c):
            out[k, self.labels == k + 1] = 1.0
        return out

    def margin_targets(self) -> np.ndarray:
        """(c, N) one-vs-rest +-1 targets, meaningful on labeled points."""
        c, n = self.class_count, self.n_points
        out = -np.ones((c, n))
        for k in range(c):
            out[k, self.labels == k + 1] = 1.0
        return out


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


def _check_mc(K: KernelMatrix, g: SimilarityGraph, mls: MultiLabelSet) -> int:
    if K.n != g.n_nodes:
        raise DimensionError("kernel and graph sizes differ")
    if mls.n_points != K.n:
        raise DimensionError("label set size differs from kernel size")
    return K.n


def _simplex_nodes(F: np.ndarray) -> np.ndarray:
    """Project each node's channel vector (columns of the (c, N) array)."""
    return project_simplex_rows(F.T).T


def _renormalize_channels(F: np.ndarray, scale: float) -> np.ndarray:
    out = F.copy()
    for k in range(out.shape[0]):
        nk = np.linalg.norm(out[k])
        if nk > 0:
            out[k] *= scale / nk
    return out



def _simplex_dev(gch: np.ndarray) -> float:
    """Worst per-node deviation from the channel simplex (post-projection)."""
    col_sums = gch.sum(axis=0)
    return float(max(np.max(np.abs(col_sums - 1.0)), max(0.0, -gch.min())))


def _margin_pseudo(mls: MultiLabelSet, values: np.ndarray) -> np.ndarray:
    """One-vs-rest +-1 channel labels: true where labeled, argmax elsewhere."""
    cls = np.argmax(values, axis=0) + 1
    cls = np.where(mls.labeled_mask, mls.labels, cls)
    c, n = mls.class_count, mls.n_points
    out = -np.ones((c, n))
    for k in range(c):
        out[k, cls == k + 1] = 1.0
    return out


def _warm_start_values(
    K: KernelMatrix, g: SimilarityGraph, mls: MultiLabelSet, hp: HyperParams
) -> np.ndarray:
    """Per-channel Laplacian least-squares closed form, used to seed
    pseudo-labels for the margin-based trainers."""
    n = K.n
    JK = mls.labeled_mask[:, None] * K.values
    M = hp.eta * JK + hp.lam * np.eye(n)
    if hp.gamma > 0:
        M += 2.0 * hp.gamma * (g.laplacian() @ K.values)
    rhs = hp.eta * mls.indicator_targets().T
    alphas = LuFactor(M).solve(rhs).T
    return alphas @ K.values


# ---------------------------------------------------------------------------
# least-squares channel trainers
# ---------------------------------------------------------------------------


def lap_rls_mc_train(
    K: KernelMatrix, g: SimilarityGraph, mls: MultiLabelSet, hp: HyperParams
) -> MulticlassModel:
    """Laplacian least-squares channels with simplex-constrained consensus."""
    n = _check_mc(K, g, mls)
    y_ch = mls.indicator_targets()
    M = hp.eta * (mls.labeled_mask[:, None] * K.values) + (hp.lam * np.eye(n))
    M += hp.r * K.values
    if hp.gamma > 0:
        M += 2.0 * hp.gamma * (g.laplacian() @ K.values)
    lu = LuFactor(M)
    gch = y_ch.copy()
    lam = np.zeros_like(gch)
    alphas = np.zeros_like(gch)
    f = np.zeros_like(gch)
    trace = {"consensus": [], "simplex_dev": []}
    for _ in range(hp.outer_iters):
        rhs = (hp.eta * y_ch + hp.r * gch - lam).T
        alphas = lu.solve(rhs).T
        f = alphas @ K.values
        _check_divergence(f.ravel(), n)
        gch = _simplex_nodes(f + lam / hp.r)
        trace["simplex_dev"].append(_simplex_dev(gch))
        lam += hp.r * (f - gch)
        trace["consensus"].append(float(np.linalg.norm(f - gch)))
    trace["g_final"] = gch.tolist()
    return MulticlassModel(
        "lap_rls_mc", alphas, K.bandwidth, hp, K.data, node_values=f, trace=trace
    )


def tv_rls_mc_train(
    K: KernelMatrix, g: SimilarityGraph, mls: MultiLabelSet, hp: HyperParams
) -> MulticlassModel:
    """Least-squares channels with per-channel TV shrink, simplex projection
    and channel renormalization (literal order; ``simplex_last`` swaps it)."""
    n = _check_mc(K, g, mls)
    y_ch = mls.indicator_targets()
    M = hp.eta * (mls.labeled_mask[:, None] * K.values) + hp.lam * np.eye(n)
    M += hp.r * K.values
    lu = LuFactor(M)
    scale = hp.ball_scale(n)
    gch = y_ch.copy()
    lam = np.zeros_like(gch)
    alphas = np.zeros_like(gch)
    f = np.zeros_like(gch)
    trace = {"consensus": [], "simplex_dev": []}
    for _ in range(hp.outer_iters):
        rhs = (hp.eta * y_ch + hp.r * gch - lam).T
        alphas = lu.solve(rhs).T
        f = alphas @ K.values
        _check_divergence(f.ravel(), n)
        ghat = np.vstack(
            [
                tv_prox(
                    g,
                    f[k] + lam[k] / hp.r,
                    hp.gamma / hp.r,
                    tol=hp.tol,
                    max_iters=hp.inner_iters,
                )[0]
                for k in range(mls.class_count)
            ]
        )
        if hp.simplex_last:
            gch = _simplex_nodes(_renormalize_channels(ghat, scale))
            trace["simplex_dev"].append(_simplex_dev(gch))
        else:
            proj = _simplex_nodes(ghat)
            trace["simplex_dev"].append(_simplex_dev(proj))
            gch = _renormalize_channels(proj, scale)
        lam += hp.r * (f - gch)
        trace["consensus"].append(float(np.linalg.norm(f - gch)))
    trace["g_final"] = gch.tolist()
    return MulticlassModel(
        "tv_rls_mc", alphas, K.bandwidth, hp, K.data, node_values=f, trace=trace
    )


# ---------------------------------------------------------------------------
# margin channel trainers
# ---------------------------------------------------------------------------


def lap_svm_mc_train(
    K: KernelMatrix, g: SimilarityGraph, mls: MultiLabelSet, hp: HyperParams
) -> MulticlassModel:
    """Margin channels with Laplacian smoothing and simplex consensus."""
    n = _check_mc(K, g, mls)
    prox = SvmProxSolver(K, hp, laplacian=g.laplacian(), gamma=hp.gamma, r=hp.r)
    y_ch = _margin_pseudo(mls, _warm_start_values(K, g, mls, hp))
    gch = mls.indicator_targets()
    lam = np.zeros_like(gch)
    betas = [None] * mls.class_count
    alphas = np.zeros_like(gch)
    f = np.zeros_like(gch)
    trace = {"consensus": [], "simplex_dev": []}
    for it in range(hp.outer_iters):
        if it > 0:
            y_ch = _margin_pseudo(mls, gch)
        for k in range(mls.class_count):
            e = gch[k] - lam[k] / hp.r
            alphas[k], sol = prox.solve(y_ch[k], target=e, beta0=betas[k])
            betas[k] = sol.beta
            f[k] = K.values @ alphas[k]
        _check_divergence(f.ravel(), n)
        gch = _simplex_nodes(f + lam / hp.r)
        trace["simplex_dev"].append(_simplex_dev(gch))
        lam += hp.r * (f - gch)
        trace["consensus"].append(float(np.linalg.norm(f - gch)))
    trace["g_final"] = gch.tolist()
    return MulticlassModel(
        "lap_svm_mc", alphas, K.bandwidth, hp, K.data, node_values=f, trace=trace
    )


def tv_svm_mc_train(
    K: KernelMatrix, g: SimilarityGraph, mls: MultiLabelSet, hp: HyperParams
) -> MulticlassModel:
    """Margin channels with TV shrink, simplex projection and channel
    renormalization."""
    n = _check_mc(K, g, mls)
    prox = SvmProxSolver(K, hp, r=hp.r)
    y_ch = _margin_pseudo(mls, _warm_start_values(K, g, mls, hp))
    scale = hp.ball_scale(n)
    gch = mls.indicator_targets()
    lam = np.zeros_like(gch)
    betas = [None] * mls.class_count
    alphas = np.zeros_like(gch)
    f = np.zeros_like(gch)
    trace = {"consensus": [], "simplex_dev": []}
    for it in range(hp.outer_iters):
        if it > 0:
            y_ch = _margin_pseudo(mls, gch)
        for k in range(mls.class_count):
            e = gch[k] - lam[k] / hp.r
            alphas[k], sol = prox.solve(y_ch[k], target=e, beta0=betas[k])
            betas[k] = sol.beta
            f[k] = K.values @ alphas[k]
        _check_divergence(f.ravel(), n)
        ghat = np.vstack(
            [
                tv_prox(
                    g,
                    f[k] + lam[k] / hp.r,
                    hp.gamma / hp.r,
                    tol=hp.tol,
                    max_iters=hp.inner_iters,
                )[0]
                for k in range(mls.class_count)
            ]
        )
        if hp.simplex_last:
            gch = _simplex_nodes(_renormalize_channels(ghat, scale))
            trace["simplex_dev"].append(_simplex_dev(gch))
        else:
            proj = _simplex_nodes(ghat)
            trace["simplex_dev"].append(_simplex_dev(proj))
            gch = _renormalize_channels(proj, scale)
        lam += hp.r * (f - gch)
        trace["consensus"].append(float(np.linalg.norm(f - gch)))
    trace["g_final"] = gch.tolist()
    return MulticlassModel(
        "tv_svm_mc", alphas, K.bandwidth, hp, K.data, node_values=f, trace=trace
    )


# ---------------------------------------------------------------------------
# ratio (Cheeger) channel trainers
# ---------------------------------------------------------------------------


def _cheeger_mc_loop(K, g, mls, hp, clamp_targets, e_step):
    n = K.n
    scale = hp.ball_scale(n)
    c = mls.class_count
    mask = mls.labeled_mask
    f = mls.indicator_targets()

    def channel_energies(fv):
        return [_ratio_energy(g, fv[k]) for k in range(c)]

    ens = channel_energies(f)  # per-channel ratio energies of the current f
    energies = [float(sum(ens))]
    best_e = energies[0]
    best_f = f.copy()
    best_alphas = None
    trace_dev: list = []
    restarts = 0
    it = 0
    while it < hp.outer_iters:
        if not np.all(np.isfinite(ens)):
            if restarts >= 2:
                raise DegenerateInputError("ratio iteration degenerated repeatedly")
            restarts += 1
            base = mls.indicator_targets()
            f = np.vstack([_perturbed_restart(base[k]) for k in range(c)])
            ens = channel_energies(f)
            continue
        gstep = f + hp.c * np.sign(f)
        alphas, e = e_step(gstep, it)
        s = np.zeros_like(f)
        for k in range(c):
            h, _ = tv_prox(
                g,
                e[k],
                hp.c / max(ens[k], 1e-8),
                tol=hp.tol,
                max_iters=hp.inner_iters,
            )
            t = h - center_median(h)
            s[k] = np.where(mask, clamp_targets[k], t)
        shat = _simplex_nodes(s)
        trace_dev.append(_simplex_dev(shat))
        norms = np.linalg.norm(shat, axis=1)
        if np.any(norms == 0.0):
            if restarts >= 2:
                raise DegenerateInputError("a channel collapsed to zero")
            restarts += 1
            base = mls.indicator_targets()
            f = np.vstack([_perturbed_restart(base[k]) for k in range(c)])
            ens = channel_energies(f)
            continue
        f = scale * shat / norms[:, None]
        _check_divergence(f.ravel(), n)
        ens = channel_energies(f)
        e_new = float(sum(ens))
        energies.append(e_new)
        if e_new < best_e:
            best_e = e_new
            best_f = f.copy()
            best_alphas = alphas.copy()
        it += 1
    if best_alphas is None:
        rls = SpdFactor(hp.lam * np.eye(n) + hp.r * K.values)
        best_alphas = rls.solve(hp.r * best_f.T).T
    trace = {
        "ratio_energy": energies,
        "best_ratio_energy": best_e,
        "simplex_dev": trace_dev,
    }
    return best_alphas, best_f, trace


def cheeger_rls_mc_train(
    K: KernelMatrix, g: SimilarityGraph, mls: MultiLabelSet, hp: HyperParams
) -> MulticlassModel:
    """Per-channel ratio descent with a least-squares proximal and joint
    simplex projection."""
    n = _check_mc(K, g, mls)
    factor = SpdFactor(hp.lam * np.eye(n) + hp.r * K.values)

    def e_step(gstep, _it):
        alphas = factor.solve(hp.r * gstep.T).T
        return alphas, alphas @ K.values

    alphas, f, trace = _cheeger_mc_loop(
        K, g, mls, hp, mls.indicator_targets(), e_step
    )
    return MulticlassModel(
        "cheeger_rls_mc", alphas, K.bandwidth, hp, K.data, node_values=f, trace=trace
    )


def cheeger_svm_mc_train(
    K: KernelMatrix, g: SimilarityGraph, mls: MultiLabelSet, hp: HyperParams
) -> MulticlassModel:
    """Per-channel ratio descent with a margin proximal and joint simplex
    projection; pseudo-labels refreshed from the signed step."""
    _check_mc(K, g, mls)
    prox = SvmProxSolver(K, hp, r=hp.r)
    state = {
        "y": _margin_pseudo(mls, _warm_start_values(K, g, mls, hp)),
        "betas": [None] * mls.class_count,
    }

    def e_step(gstep, it):
        if it > 0:
            state["y"] = _margin_pseudo(mls, gstep)
        alphas = np.zeros_like(gstep)
        e = np.zeros_like(gstep)
        for k in range(mls.class_count):
            alphas[k], sol = prox.solve(
                state["y"][k], target=gstep[k], beta0=state["betas"][k]
            )
            state["betas"][k] = sol.beta
            e[k] = K.values @ alphas[k]
        return alphas, e

    alphas, f, trace = _cheeger_mc_loop(K, g, mls, hp, mls.margin_targets(), e_step)
    return MulticlassModel(
        "cheeger_svm_mc", alphas, K.bandwidth, hp, K.data, node_values=f, trace=trace
    )


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def model_to_dict(model: MulticlassModel) -> dict:
    return {
        "kind": "multiclass",
        "variant": model.variant,
        "class_count": model.class_count,
        "n_train": model.alphas.shape[1],
        "bandwidth": model.bandwidth,
        "hyperparams": asdict(model.hyperparams) if model.hyperparams else None,
        "alphas": [a.tolist() for a in model.alphas],
        "node_values": (
            [v.tolist() for v in model.node_values]
            if model.node_values is not None
            else None
        ),
    }


def save_model(model: MulticlassModel, path) -> None:
    """Write the model (header, per-channel coefficient blocks) as JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_dict(model), fh, indent=1)


def load_model(path) -> MulticlassModel:
    """Read a model written by :func:`save_model`."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("kind") != "multiclass":
        raise InvalidParameterError(f"not a multiclass model file: {path}")
    hp = doc.get("hyperparams")
    hp = HyperParams.from_dict(hp, str(path)) if hp else None
    return MulticlassModel(
        doc["variant"],
        np.array(doc["alphas"], dtype=np.float64),
        doc["bandwidth"],
        hp,
        None,
        node_values=(
            np.array(doc["node_values"], dtype=np.float64)
            if doc.get("node_values") is not None
            else None
        ),
    )
