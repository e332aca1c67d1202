"""Binary classifiers over kernel expansions and similarity graphs.

Eight trainers: plain / Laplacian / total-variation / Cheeger variants of
regularized least squares and of the soft-margin SVM. The plain variants are
supervised (labeled points only); the rest are transductive over all points.
Every trainer returns a :class:`BinaryModel` whose ``node_values`` hold the
fitted decision values at the training nodes and whose ``alpha`` drives
inductive prediction through the kernel expansion.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field, asdict

import numpy as np

from .errors import (
    DegenerateInputError,
    DimensionError,
    DivergenceError,
    InvalidParameterError,
)
from .graph import SimilarityGraph, graph_tv
from .kernel import KernelMatrix, kernel_expand
from .opt_core import (
    DualSolution,
    HyperParams,
    LuFactor,
    SpdFactor,
    center_median,
    normalize_ball_zero_mean,
    project_box_eq,
    qp_box_eq,
    tv_prox,
)

logger = logging.getLogger(__name__)

BINARY_VARIANTS = (
    "rls",
    "svm",
    "lap_rls",
    "lap_svm",
    "tv_rls",
    "tv_svm",
    "cheeger_rls",
    "cheeger_svm",
)


@dataclass(eq=False)
class LabeledSet:
    """Partial +-1 labels over N points.

    ``labels`` holds the class values at labeled positions (entries outside
    ``labeled_mask`` are ignored and zeroed); ``y_ext`` is the label vector
    padded with zeros on the unlabeled points.
    """

    labels: np.ndarray
    labeled_mask: np.ndarray

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.float64).ravel()
        self.labeled_mask = np.asarray(self.labeled_mask, dtype=bool).ravel()
        if self.labels.size != self.labeled_mask.size:
            raise DimensionError("labels and mask lengths differ")
        lab = self.labels[self.labeled_mask]
        if lab.size == 0:
            raise InvalidParameterError("need at least one labeled point")
        if not np.all(np.abs(lab) == 1.0):
            raise InvalidParameterError("labeled values must be +1 or -1")
        self.labels = np.where(self.labeled_mask, self.labels, 0.0)

    @property
    def n_points(self) -> int:
        return self.labels.size

    @property
    def n_labeled(self) -> int:
        return int(self.labeled_mask.sum())

    @property
    def y_ext(self) -> np.ndarray:
        return self.labels.copy()


@dataclass(eq=False)
class BinaryModel:
    """Trained binary classifier f(x) = sum_j k(x, x_j) alpha_j (+ bias)."""

    variant: str
    alpha: np.ndarray
    bandwidth: float
    hyperparams: HyperParams | None = None
    train_data: np.ndarray | None = None
    node_values: np.ndarray | None = None
    bias: float = 0.0
    trace: dict = field(default_factory=dict)

    def __post_init__(self):
        self.alpha = np.asarray(self.alpha, dtype=np.float64).ravel()
        if not np.all(np.isfinite(self.alpha)):
            raise InvalidParameterError("alpha must be finite")

    @property
    def n_train(self) -> int:
        return self.alpha.size


def predict_binary(model: BinaryModel, query) -> np.ndarray:
    """Class decisions on query points: +1 where f(x) >= 0, else -1."""
    if model.train_data is None:
        raise InvalidParameterError("model carries no training data reference")
    vals = kernel_expand(model.alpha, model.train_data, query, model.bandwidth)
    return np.where(vals + model.bias >= 0.0, 1, -1).astype(np.int64)


def transductive_labels(model: BinaryModel) -> np.ndarray:
    """Class decisions at the training nodes, read from the fitted values."""
    if model.node_values is None:
        raise InvalidParameterError("model has no fitted node values")
    return np.where(model.node_values + model.bias >= 0.0, 1, -1).astype(np.int64)


# ---------------------------------------------------------------------------
# closed-form trainers
# ---------------------------------------------------------------------------


def rls_train(K: KernelMatrix, y, hp: HyperParams) -> BinaryModel:
    """Kernel ridge classifier: (eta*K + lam*I) alpha = eta*y."""
    y = np.asarray(y, dtype=np.float64).ravel()
    if y.size != K.n:
        raise DimensionError("y length must match kernel size")
    if y.size < 2 or not (np.any(y > 0) and np.any(y < 0)):
        raise InvalidParameterError("need both classes present")
    A = hp.eta * K.values + hp.lam * np.eye(K.n)
    alpha = SpdFactor(A).solve(hp.eta * y)
    return BinaryModel(
        "rls", alpha, K.bandwidth, hp, K.data, node_values=K.values @ alpha
    )


def lap_rls_train(
    K: KernelMatrix, g: SimilarityGraph, ls: LabeledSet, hp: HyperParams
) -> BinaryModel:
    """Laplacian-regularized kernel ridge classifier (nonsymmetric LU solve).

    The graph penalty weight multiplies the ordered-pair Dirichlet energy, so
    the system matrix carries ``2 * gamma * L K``.
    """
    n = _check_semi(K, g, ls)
    y = ls.y_ext
    JK = ls.labeled_mask[:, None] * K.values
    M = hp.eta * JK + hp.lam * np.eye(n)
    if hp.gamma > 0:
        M += 2.0 * hp.gamma * (g.laplacian() @ K.values)
    alpha = LuFactor(M).solve(hp.eta * y)
    return BinaryModel(
        "lap_rls", alpha, K.bandwidth, hp, K.data, node_values=K.values @ alpha
    )


# ---------------------------------------------------------------------------
# SVM duals
# ---------------------------------------------------------------------------


class _SignedKernel:
    """The SVM dual's quadratic ``(y y^T) * S``, applied to a vector as
    ``y * (S @ (y * b))`` without forming the dense product."""

    def __init__(self, S, y):
        self.S, self.y = S, y

    def __matmul__(self, b):
        return self.y * (self.S @ (self.y * b))


class SvmProxSolver:
    """Soft-margin SVM subproblem with an optional proximity and graph term.

    Minimizes over (f = K alpha, slack, bias):

        lam/2 ||f||_K^2 + mu * sum(slack) + gamma * f' L f + r/2 ||f - target||^2
        s.t.  y_i (f_i + bias) >= 1 - slack_i,  slack >= 0

    via its box/equality dual. The factorization and the dual's quadratic
    kernel are built once; ``solve`` may then be called repeatedly with fresh
    labels and targets (warm-startable). ``gamma`` scales the ordered-pair
    Dirichlet energy, matching the rest of the package.
    """

    def __init__(
        self,
        K: KernelMatrix,
        hp: HyperParams,
        *,
        laplacian=None,
        gamma: float = 0.0,
        r: float = 0.0,
        qp_tol: float = 1e-6,
        qp_iters: int = 5000,
    ):
        n = K.n
        self.K = K.values
        self.mu = hp.mu
        self.r = float(r)
        self.qp_tol = qp_tol
        self.qp_iters = qp_iters
        B = hp.lam * np.eye(n) + self.r * K.values
        if gamma > 0.0:
            if laplacian is None:
                raise InvalidParameterError("gamma > 0 requires a Laplacian")
            B += 2.0 * gamma * (laplacian @ K.values)
            self._factor = LuFactor(B)
            S = self._factor.solve(K.values, trans=True)
        else:
            self._factor = SpdFactor(B)
            S = self._factor.solve(K.values)
        dev = float(np.max(np.abs(S - S.T)))
        if dev > 0:
            logger.debug("symmetrizing dual kernel, max deviation %.3e", dev)
        self.S = 0.5 * (S + S.T)

    def solve(self, y, target=None, beta0=None) -> tuple[np.ndarray, DualSolution]:
        """Return (alpha, dual solution) for labels y and proximity target."""
        y = np.asarray(y, dtype=np.float64).ravel()
        Q = _SignedKernel(self.S, y)
        if target is None or self.r == 0.0:
            p = 0.0
            rhs_extra = 0.0
        else:
            target = np.asarray(target, dtype=np.float64).ravel()
            p = self.r * (y * (self.S @ target))
            rhs_extra = self.r * target
        sol = qp_box_eq(
            Q, p, y, self.mu, tol=self.qp_tol, max_iters=self.qp_iters, beta0=beta0
        )
        alpha = self._factor.solve(y * sol.beta + rhs_extra)
        return alpha, sol


def svm_value_prox(e, y, r2: float, mu: float) -> tuple[np.ndarray, DualSolution]:
    """Minimize ``mu * sum(slack) + r2/2 ||h - e||^2`` under the margin
    constraints ``y_i (h_i + b) >= 1 - slack_i``. The dual has a diagonal
    quadratic, so one exact projected step solves it."""
    e = np.asarray(e, dtype=np.float64).ravel()
    y = np.asarray(y, dtype=np.float64).ravel()
    if e.size != y.size:
        raise DimensionError("e and y lengths differ")
    beta = project_box_eq(r2 * (1.0 - y * e), y, mu)
    h = (y * beta) / r2 + e
    obj = float(beta.sum() - (beta @ beta) / (2.0 * r2) - beta @ (y * e))
    kkt = {"eq": float(abs(beta @ y)), "box": 0.0, "stationarity": 0.0}
    return h, DualSolution(beta, obj, kkt, 1)


def _recover_bias(y, f_vals, beta, mu, tol=1e-8) -> float:
    free = (beta > tol) & (beta < mu - tol)
    if not np.any(free):
        return 0.0
    return float(np.mean(y[free] - f_vals[free]))


def svm_train(K: KernelMatrix, y, hp: HyperParams) -> BinaryModel:
    """Soft-margin kernel SVM through its box/equality dual."""
    y = np.asarray(y, dtype=np.float64).ravel()
    if y.size != K.n:
        raise DimensionError("y length must match kernel size")
    if not (np.any(y > 0) and np.any(y < 0)):
        raise InvalidParameterError("need both classes present")
    prox = SvmProxSolver(K, hp)
    alpha, sol = prox.solve(y)
    vals = K.values @ alpha
    bias = _recover_bias(y, vals, sol.beta, hp.mu) if hp.use_bias else 0.0
    return BinaryModel(
        "svm", alpha, K.bandwidth, hp, K.data, node_values=vals, bias=bias
    )


def lap_svm_train(
    K: KernelMatrix, g: SimilarityGraph, ls: LabeledSet, hp: HyperParams
) -> BinaryModel:
    """Laplacian-regularized SVM; margin constraints cover every node, so the
    unlabeled ones receive pseudo-labels from a Laplacian least-squares warm
    start."""
    _check_semi(K, g, ls)
    warm = lap_rls_train(K, g, ls, hp)
    y_full = _pseudo_init(ls, warm.node_values)
    prox = SvmProxSolver(K, hp, laplacian=g.laplacian(), gamma=hp.gamma)
    alpha, sol = prox.solve(y_full)
    vals = K.values @ alpha
    bias = _recover_bias(y_full, vals, sol.beta, hp.mu) if hp.use_bias else 0.0
    return BinaryModel(
        "lap_svm", alpha, K.bandwidth, hp, K.data, node_values=vals, bias=bias
    )


# ---------------------------------------------------------------------------
# splitting loops (total variation)
# ---------------------------------------------------------------------------


def _check_semi(K: KernelMatrix, g: SimilarityGraph, ls: LabeledSet) -> int:
    if K.n != g.n_nodes:
        raise DimensionError("kernel and graph sizes differ")
    if ls.n_points != K.n:
        raise DimensionError("labeled set size differs from kernel size")
    return K.n


def _pseudo_init(ls: LabeledSet, warm_vals) -> np.ndarray:
    return np.where(
        ls.labeled_mask, ls.labels, np.where(np.asarray(warm_vals) >= 0.0, 1.0, -1.0)
    )


def _pseudo_refresh(ls: LabeledSet, prev, vals) -> np.ndarray:
    fresh = np.where(vals != 0.0, np.sign(vals), prev)
    return np.where(ls.labeled_mask, ls.labels, fresh)


def _check_divergence(f, n):
    if not np.all(np.isfinite(f)) or np.linalg.norm(f) > 1e6 * n:
        raise DivergenceError("splitting iteration diverged")


def _tv_split_loop(K, g, ls, hp, h_step, objective):
    """Common alternating loop of the TV trainers.

    ``h_step(gv, lam2, it) -> h`` provides the fidelity update; the rest
    (kernel shrink, TV proximal on the averaged target, optional ball/zero-
    mean renormalization, multiplier ascent) is shared.
    """
    n = K.n
    factor = SpdFactor(hp.lam * np.eye(n) + hp.r1 * K.values)
    gv = ls.y_ext
    lam1 = np.zeros(n)
    lam2 = np.zeros(n)
    scale = hp.ball_scale(n)
    trace = {"objective": [], "consensus": []}
    alpha = np.zeros(n)
    f = np.zeros(n)
    for it in range(hp.outer_iters):
        alpha = factor.solve(hp.r1 * gv - lam1)
        f = K.values @ alpha
        _check_divergence(f, n)
        h = h_step(gv, lam2, it)
        z1 = f + lam1 / hp.r1
        z2 = h + lam2 / hp.r2
        zbar = (hp.r1 * z1 + hp.r2 * z2) / (hp.r1 + hp.r2)
        gbar, _ = tv_prox(
            g,
            zbar,
            hp.gamma / (hp.r1 + hp.r2),
            tol=hp.tol,
            max_iters=hp.inner_iters,
        )
        if hp.normalize and np.linalg.norm(gbar) > 0:
            gv = normalize_ball_zero_mean(gbar, scale)
        else:
            gv = gbar
        lam1 += hp.r1 * (f - gv)
        lam2 += hp.r2 * (h - gv)
        res = float(np.linalg.norm(f - gv) + np.linalg.norm(h - gv))
        trace["consensus"].append(res)
        trace["objective"].append(objective(alpha, f, h, gv))
        if res <= hp.tol * n:
            break
    return alpha, f, trace


def tv_rls_train(
    K: KernelMatrix, g: SimilarityGraph, ls: LabeledSet, hp: HyperParams
) -> BinaryModel:
    """Least-squares fidelity with graph-TV regularization, solved by a
    two-variable splitting with multiplier ascent."""
    n = _check_semi(K, g, ls)
    diag_h = hp.eta * ls.labeled_mask + hp.r2
    ey = hp.eta * ls.y_ext

    def h_step(gv, lam2, _it):
        return (ey + hp.r2 * gv - lam2) / diag_h

    def objective(alpha, f, h, gv):
        fit = f[ls.labeled_mask] - ls.labels[ls.labeled_mask]
        return float(
            0.5 * hp.eta * fit @ fit
            + 0.5 * hp.lam * alpha @ (K.values @ alpha)
            + hp.gamma * graph_tv(g, f)
        )

    alpha, f, trace = _tv_split_loop(K, g, ls, hp, h_step, objective)
    return BinaryModel(
        "tv_rls", alpha, K.bandwidth, hp, K.data, node_values=f, trace=trace
    )


def tv_svm_train(
    K: KernelMatrix, g: SimilarityGraph, ls: LabeledSet, hp: HyperParams
) -> BinaryModel:
    """Margin fidelity with graph-TV regularization. The margin subproblem is
    solved exactly through its diagonal dual; unlabeled nodes carry
    pseudo-labels warm-started from Laplacian least squares and refreshed
    from the consensus variable each sweep."""
    _check_semi(K, g, ls)
    warm = lap_rls_train(K, g, ls, hp)
    state = {"y": _pseudo_init(ls, warm.node_values)}

    def h_step(gv, lam2, it):
        if it > 0:
            state["y"] = _pseudo_refresh(ls, state["y"], gv)
        e = gv - lam2 / hp.r2
        h, _sol = svm_value_prox(e, state["y"], hp.r2, hp.mu)
        return h

    def objective(alpha, f, h, gv):
        yv = state["y"]
        slack = np.maximum(0.0, 1.0 - yv * h)
        return float(
            0.5 * hp.lam * alpha @ (K.values @ alpha)
            + hp.mu * slack.sum()
            + hp.gamma * graph_tv(g, gv)
        )

    alpha, f, trace = _tv_split_loop(K, g, ls, hp, h_step, objective)
    return BinaryModel(
        "tv_svm", alpha, K.bandwidth, hp, K.data, node_values=f, trace=trace
    )


# ---------------------------------------------------------------------------
# Cheeger ratio loops
# ---------------------------------------------------------------------------


def _ratio_energy(g: SimilarityGraph, f) -> float:
    dev = float(np.sum(np.abs(f - center_median(f))))
    if dev <= 1e-12 * max(1.0, float(np.linalg.norm(f))):
        return np.inf
    return graph_tv(g, f) / dev


def _perturbed_restart(y_ext) -> np.ndarray:
    bump = 1e-3 * np.where(np.arange(y_ext.size) % 2 == 0, 1.0, -1.0)
    return y_ext + bump


def _cheeger_loop(K, g, ls, hp, e_step):
    """Ratio-descent loop shared by the Cheeger trainers.

    ``e_step(gstep, it) -> (alpha, e)`` supplies the kernel-space proximal
    (least-squares or margin flavored); the rest is the signed step, the TV
    shrink weighted by the current ratio energy, median centering, label
    clamping and sphere renormalization. The best iterate by ratio energy is
    returned.
    """
    n = K.n
    scale = hp.ball_scale(n)
    f = ls.y_ext
    en = _ratio_energy(g, f)  # ratio energy of the current f
    energies = [en]
    best_e = en
    best_f = f.copy()
    best_alpha = None
    restarts = 0
    it = 0
    while it < hp.outer_iters:
        if not np.isfinite(en):
            if restarts >= 2:
                raise DegenerateInputError("ratio iteration degenerated repeatedly")
            restarts += 1
            f = _perturbed_restart(ls.y_ext)
            en = _ratio_energy(g, f)
            continue
        gstep = f + hp.c * np.sign(f)
        alpha, e = e_step(gstep, it)
        # a zero ratio (already-perfect cut) would make the shrink weight
        # infinite; floor it instead
        h, _ = tv_prox(
            g, e, hp.c / max(en, 1e-8), tol=hp.tol, max_iters=hp.inner_iters
        )
        t = h - center_median(h)
        s = np.where(ls.labeled_mask, ls.labels, t)
        if np.linalg.norm(s) == 0.0:
            if restarts >= 2:
                raise DegenerateInputError("all-zero iterate after clamping")
            restarts += 1
            f = _perturbed_restart(ls.y_ext)
            en = _ratio_energy(g, f)
            continue
        f = scale * s / np.linalg.norm(s)
        _check_divergence(f, n)
        en = _ratio_energy(g, f)
        energies.append(en)
        if en < best_e:
            best_e = en
            best_f = f.copy()
            best_alpha = alpha
        it += 1
    if best_alpha is None:
        # initialization won: represent it through the loop's own kernel map
        rls = SpdFactor(hp.lam * np.eye(n) + hp.r * K.values)
        best_alpha = rls.solve(hp.r * best_f)
    trace = {"ratio_energy": energies, "best_ratio_energy": best_e}
    return best_alpha, best_f, trace


def cheeger_rls_train(
    K: KernelMatrix, g: SimilarityGraph, ls: LabeledSet, hp: HyperParams
) -> BinaryModel:
    """Balanced-cut ratio descent with a kernel least-squares proximal."""
    n = _check_semi(K, g, ls)
    factor = SpdFactor(hp.lam * np.eye(n) + hp.r * K.values)

    def e_step(gstep, _it):
        alpha = factor.solve(hp.r * gstep)
        return alpha, K.values @ alpha

    alpha, f, trace = _cheeger_loop(K, g, ls, hp, e_step)
    return BinaryModel(
        "cheeger_rls", alpha, K.bandwidth, hp, K.data, node_values=f, trace=trace
    )


def cheeger_svm_train(
    K: KernelMatrix, g: SimilarityGraph, ls: LabeledSet, hp: HyperParams
) -> BinaryModel:
    """Balanced-cut ratio descent with a margin (SVM) proximal; pseudo-labels
    as in :func:`tv_svm_train`."""
    _check_semi(K, g, ls)
    warm = lap_rls_train(K, g, ls, hp)
    prox = SvmProxSolver(K, hp, r=hp.r)
    state = {"y": _pseudo_init(ls, warm.node_values), "beta": None}

    def e_step(gstep, it):
        if it > 0:
            state["y"] = _pseudo_refresh(ls, state["y"], gstep)
        alpha, sol = prox.solve(state["y"], target=gstep, beta0=state["beta"])
        state["beta"] = sol.beta
        return alpha, K.values @ alpha

    alpha, f, trace = _cheeger_loop(K, g, ls, hp, e_step)
    return BinaryModel(
        "cheeger_svm", alpha, K.bandwidth, hp, K.data, node_values=f, trace=trace
    )


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def model_to_dict(model: BinaryModel) -> dict:
    return {
        "kind": "binary",
        "variant": model.variant,
        "n_train": model.n_train,
        "bandwidth": model.bandwidth,
        "bias": model.bias,
        "hyperparams": asdict(model.hyperparams) if model.hyperparams else None,
        "alpha": model.alpha.tolist(),
        "node_values": (
            model.node_values.tolist() if model.node_values is not None else None
        ),
    }


def save_model(model: BinaryModel, path) -> None:
    """Write the model header and coefficients as a JSON document."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_dict(model), fh, indent=1)


def load_model(path) -> BinaryModel:
    """Read a model written by :func:`save_model`. The training-data reference
    is not serialized; reattach it before inductive prediction."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("kind") != "binary":
        raise InvalidParameterError(f"not a binary model file: {path}")
    hp = doc.get("hyperparams")
    hp = HyperParams.from_dict(hp, str(path)) if hp else None
    return BinaryModel(
        doc["variant"],
        np.array(doc["alpha"], dtype=np.float64),
        doc["bandwidth"],
        hp,
        None,
        node_values=(
            np.array(doc["node_values"], dtype=np.float64)
            if doc.get("node_values") is not None
            else None
        ),
        bias=doc.get("bias", 0.0),
    )
