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
from dataclasses import dataclass, field, asdict

import numpy as np
import scipy.linalg as sla

from .errors import (
    DegenerateInputError,
    DimensionError,
    DivergenceError,
    FactorizationError,
    InvalidParameterError,
    check_real,
    pm1_labels,
)
from .graph import SimilarityGraph, graph_tv
from .kernel import KernelMatrix, _symmetrize, kernel_expand
from .opt_core import (
    _BoxEqLabels,
    _qp_norm,
    DiagLaplacian,
    DualSolution,
    HyperParams,
    LuFactor,
    RootFactor,
    SpdFactor,
    center_median,
    normalize_ball_zero_mean,
    project_box_eq,
    qp_box_eq,
    tv_prox,
)

# Progress-driven stop rules of the outer loops. Like the ``outer_iters`` and
# ``inner_iters`` caps they are part of the algorithms and define their output.
# The ratio loop stops once its best energy has fallen by no more than
# RATIO_PLATEAU_REL (relative) over the last RATIO_PLATEAU_STEPS steps.
RATIO_PLATEAU_STEPS = 10
RATIO_PLATEAU_REL = 1e-3
# Every outer loop solves each TV proximal of a channel after the first to the
# duality gap 0.5 * (PROX_KAPPA * ||z_k - z_{k-1}||)^2 (at least ``tol``),
# where z is its input: the proximal objective is 1-strongly convex, so its
# error is then at most PROX_KAPPA times the move (Chambolle & Pock, JMIV
# 2011). The first proximal of a channel is solved to ``tol``.
PROX_KAPPA = 1.0


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
        pm1_labels(lab, "labeled")
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
    """Trained binary classifier f(x) = sum_j k(x, x_j) alpha_j."""

    variant: str
    alpha: np.ndarray
    bandwidth: float
    hyperparams: HyperParams | None = None
    train_data: np.ndarray | None = None
    node_values: np.ndarray | None = None
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
    return np.where(vals >= 0.0, 1, -1).astype(np.int64)


def transductive_labels(model: BinaryModel) -> np.ndarray:
    """Class decisions at the training nodes, read from the fitted values."""
    if model.node_values is None:
        raise InvalidParameterError("model has no fitted node values")
    return np.where(model.node_values >= 0.0, 1, -1).astype(np.int64)


# ---------------------------------------------------------------------------
# closed-form trainers
# ---------------------------------------------------------------------------


def _check_labels(K: KernelMatrix, y) -> np.ndarray:
    """The supervised trainers' labels: K's size, +1 or -1, both classes."""
    y = pm1_labels(y)
    if y.size != K.n:
        raise DimensionError("y length must match kernel size")
    if not (np.any(y > 0) and np.any(y < 0)):
        raise InvalidParameterError("need both classes present")
    return y


def rls_train(K: KernelMatrix, y, hp: HyperParams) -> BinaryModel:
    """Kernel ridge classifier: (eta*K + lam*I) alpha = eta*y."""
    y = _check_labels(K, y)
    alpha = _kernel_factor(K, hp.lam, DiagLaplacian(K.n, r=hp.eta)).solve(hp.eta * y)
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
    _check_semi(K, g, ls)
    alpha = _lap_ls(K, g, ls.labeled_mask, ls.y_ext, hp)
    return BinaryModel(
        "lap_rls", alpha, K.bandwidth, hp, K.data, node_values=K.values @ alpha
    )


def _lap_ls(K, g, mask, targets, hp) -> np.ndarray:
    """Laplacian least-squares coefficients ``(lam I + eta J K + 2 gamma L K)^-1
    eta targets``, J = diag(mask), for an N-vector or an (N, c) block: lap_rls
    and every margin warm start but lap_svm's (:func:`_warm_values`)."""
    D = DiagLaplacian(
        K.n, eta=hp.eta, mask=mask, laplacian=g.laplacian(), weight=2.0 * hp.gamma
    )
    return _kernel_factor(K, hp.lam, D).solve(hp.eta * targets)


def _kernel_factor(K, lam, D):
    """Factor of ``F = lam I + D K`` for a :class:`DiagLaplacian` D, in
    practice ``D = eta J + r I + 2 gamma L``: the one n x n kernel-space
    system behind every trainer's step (:class:`SvmProxSolver` first tries
    the same margin system through the Gram root).

    F is D's own product with K plus ``lam`` on the diagonal, one C-ordered
    array (:meth:`DiagLaplacian.system`) whose transpose the factor
    overwrites. With ``D = r I`` it is symmetric by construction and gets a
    Cholesky :class:`SpdFactor`; otherwise an :class:`LuFactor`."""
    cls = SpdFactor if D.mask is None and D.laplacian is None else LuFactor
    return cls(D.system(lam, K.values), lam, D, K.values)


# ---------------------------------------------------------------------------
# SVM duals
# ---------------------------------------------------------------------------


# The dual product gathers the rows of S on the support of its input when
# S has at least _GATHER_MIN_N rows and the support is at most 1/_GATHER_DIV
# of them. Measured with one BLAS thread: at n = 1600 the dense product
# takes 0.93 ms, the gathered one 0.09 ms at 5% support and 0.73 ms at 25%,
# and the two break even at 30%; at n = 300-400 gathering wins below about
# 25%; at n <= 200 a product takes under 11 us either way, and gathering
# saves at most 1.3 us and costs up to 8 us.
_GATHER_MIN_N = 300
_GATHER_DIV = 4


class _SignedKernel:
    """The SVM dual's quadratic ``(y y^T) * S``, applied to a vector as
    ``y * (S @ (y * b))`` without forming the dense product.

    The dual's iterates are sparse (a few percent of the points are support
    vectors), so on a large S a sparse ``v = y * b`` is applied as
    ``v[nz] @ S[nz]``: S is symmetric, and its rows are contiguous.
    ``block(idx)`` is the principal submatrix that :func:`qp_box_eq`'s face
    step solves with."""

    def __init__(self, S, y):
        self.S, self.y = S, y

    def block(self, idx):
        y = self.y[idx]
        return (y[:, None] * y) * self.S[idx[:, None], idx]

    def __matmul__(self, b):
        v = self.y * b
        n = v.shape[0]
        if n >= _GATHER_MIN_N and _GATHER_DIV * np.count_nonzero(v) <= n:
            nz = np.flatnonzero(v)
            return self.y * (v[nz] @ self.S[nz])
        return self.y * (self.S @ v)


# S takes the root route while the Gram root has at most this share of n
# columns. The root route costs about 5 n^2 r flops (K (D G), the check's
# product and G G^T), the n-column route about 4.7 n^3 (the LU, the n-column
# solve and its residual), so the root would pay up to r ~ 0.9 n. The share
# stays at 0.4 so that n <= 200 inputs (configs/two_moons.json, the
# benchmark's moons_grid and classes_mc; Gram ranks about 0.7 n) keep their
# outputs bit for bit; raising it wants its own measurement.
_ROOT_MAX_SHARE = 0.4


class SvmProxSolver:
    """Soft-margin SVM subproblem with an optional proximity and graph term.

    Minimizes over (f = K alpha, slack, bias):

        lam/2 ||f||_K^2 + mu * sum(slack) + gamma * f' L f + r/2 ||f - target||^2
        s.t.  y_i (f_i + bias) >= 1 - slack_i,  slack >= 0

    via its box/equality dual. The factor, the dual's kernel S and
    ``q_norm``, ``||diag(y) S diag(y)|| = ||S||`` for every +-1 label
    vector y, are built once; ``solve`` may then be called repeatedly with
    fresh labels and targets (warm-startable). ``gamma`` scales the
    ordered-pair Dirichlet energy, matching the rest of the package.
    ``factor`` solves with ``F = lam I + r K + 2 gamma L K``.

    The dual's kernel ``S = F^-T K`` meets the solves' residual contract
    against K itself, column by column. While the Gram matrix's cached root
    C (:meth:`KernelMatrix.root`, ``K ~ C C^T``) has r <= 0.4 n columns,
    ``factor`` is a :class:`RootFactor`, ``S = G G^T`` (exactly symmetric)
    and ``q_norm`` the largest eigenvalue of the r x r ``G^T G``: no n x n
    matrix is factored. Otherwise, or when a column of ``G G^T`` misses the
    contract or the r x r factorization fails (a short, stale or indefinite
    root), ``factor`` is :func:`_kernel_factor`'s n x n factor, S its
    symmetrized solve of all n columns of K and ``q_norm`` the power
    estimate :func:`opt_core._qp_norm` on S. ``counters`` records
    ``gram_rank`` (r on the root route, n on the n-column route) and
    ``s_refined_cols``, the columns of S that missed the contract at first:
    those the root route rejected (all n if its factorization failed) plus
    those the n-column solve refined. It also sums the dual's work over
    every ``solve``: ``qp_solves``, ``qp_iters`` (projected steps),
    ``qp_face_steps`` (kept face steps) and ``qp_cap_hits``.
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
        self.mu = hp.mu
        self.r = float(r)
        self.qp_tol = qp_tol
        self.qp_iters = qp_iters
        if gamma > 0 and laplacian is None:
            raise InvalidParameterError("gamma > 0 requires a Laplacian")
        n = K.n
        self.counters = dict.fromkeys(("qp_solves", "qp_iters", "qp_face_steps", "qp_cap_hits"), 0)
        root = K.root()  # first: the n x n workspace of dpstrf is freed before S exists
        missed = 0
        D = DiagLaplacian(n, r=self.r, laplacian=laplacian, weight=2.0 * gamma)  # F = lam I + D K
        if root.shape[1] <= _ROOT_MAX_SHARE * n:
            try:
                factor = RootFactor(hp.lam, D, K.values, root)
                missed = factor.kernel_misses()
            except FactorizationError:
                missed = n
            if not missed:
                G = factor.G
                self.factor, self.S = factor, G @ G.T  # one syrk: exactly symmetric
                self.q_norm = float(np.linalg.eigvalsh(G.T @ G).max(initial=0.0))  # r may be 0
                self.counters.update(gram_rank=root.shape[1], s_refined_cols=0)
                return
        self.factor = _kernel_factor(K, hp.lam, D)
        self.S = _symmetrize(self.factor.solve(K.values, trans=True))
        self.q_norm = _qp_norm(self.S, n)
        self.counters.update(gram_rank=n, s_refined_cols=missed + self.factor.refined_cols)

    def solve(self, y, target=None, beta0=None) -> tuple[np.ndarray, DualSolution]:
        """Return (alpha, dual solution) for labels y and proximity target."""
        y = np.asarray(y, dtype=np.float64).ravel()
        if target is None or self.r == 0.0:
            p = 0.0
            rhs_extra = 0.0
        else:
            target = np.asarray(target, dtype=np.float64).ravel()
            p = self.r * (y * (self.S @ target))
            rhs_extra = self.r * target
        sol = qp_box_eq(
            _SignedKernel(self.S, y), p, y, self.mu, tol=self.qp_tol,
            max_iters=self.qp_iters, beta0=beta0, q_norm=self.q_norm,
        )
        c = self.counters
        c["qp_solves"] += 1
        c["qp_iters"] += sol.iterations
        c["qp_face_steps"] += sol.face_steps
        c["qp_cap_hits"] += sol.stop_reason == "cap"
        alpha = self.factor.solve(y * sol.beta + rhs_extra)
        return alpha, sol


def svm_value_prox(e, y, r2: float, mu: float) -> tuple[np.ndarray, DualSolution]:
    """Minimize ``mu * sum(slack) + r2/2 ||h - e||^2`` under the margin
    constraints ``y_i (h_i + b) >= 1 - slack_i`` for a finite positive
    ``r2``. The dual has a diagonal quadratic, so one exact projected step
    solves it. Labels other than +-1 and a non-finite ``e`` raise
    :class:`InvalidParameterError` before any work."""
    check_real("r2", r2, 0.0, strict=True)
    e = np.asarray(e, dtype=np.float64).ravel()
    y = pm1_labels(y)
    if e.size != y.size:
        raise DimensionError("e and y lengths differ")
    if not np.isfinite(e).all():
        raise InvalidParameterError("e must be finite")
    beta = project_box_eq(r2 * (1.0 - y * e), _BoxEqLabels(y, mu), mu)  # y is checked
    h = (y * beta) / r2 + e
    obj = float(beta.sum() - (beta @ beta) / (2.0 * r2) - beta @ (y * e))
    kkt = {"eq": float(abs(beta @ y)), "box": 0.0, "stationarity": 0.0}
    return h, DualSolution(beta, obj, kkt, 1, "tol")


def _svm_model(variant, K, hp, prox: SvmProxSolver, y) -> BinaryModel:
    """Solve the margin dual for labels ``y``. The trace records the dual's
    ``qp_stop_reason`` and ``support``, the number of nonzero dual
    coefficients, and the solver's ``counters``."""
    alpha, sol = prox.solve(y)
    trace = {
        "qp_stop_reason": sol.stop_reason,
        "support": int(np.count_nonzero(sol.beta)),
        **prox.counters,
    }
    return BinaryModel(
        variant, alpha, K.bandwidth, hp, K.data, node_values=K.values @ alpha, trace=trace
    )


def svm_train(K: KernelMatrix, y, hp: HyperParams) -> BinaryModel:
    """Soft-margin kernel SVM through its box/equality dual."""
    y = _check_labels(K, y)
    return _svm_model("svm", K, hp, SvmProxSolver(K, hp), y)


def lap_svm_train(
    K: KernelMatrix, g: SimilarityGraph, ls: LabeledSet, hp: HyperParams
) -> BinaryModel:
    """Laplacian-regularized SVM; margin constraints cover every node, so the
    unlabeled ones receive pseudo-labels (:func:`_pseudo_refresh`) from a
    Laplacian least-squares warm start read off the margin solver's dual
    kernel (:func:`_warm_values`)."""
    _check_semi(K, g, ls)
    prox = SvmProxSolver(K, hp, laplacian=g.laplacian(), gamma=hp.gamma)
    y_full = _pseudo_refresh(ls, 1.0, _warm_values(prox.S, ls, hp.eta))
    return _svm_model("lap_svm", K, hp, prox, y_full)


# ---------------------------------------------------------------------------
# splitting loops (total variation)
# ---------------------------------------------------------------------------


def _check_semi(K: KernelMatrix, g: SimilarityGraph, ls) -> None:
    """Size check of the semi-supervised trainers; ``ls`` is a
    :class:`LabeledSet` or a multi-class label set."""
    if K.n != g.n_nodes:
        raise DimensionError("kernel and graph sizes differ")
    if ls.n_points != K.n:
        raise DimensionError("labeled set size differs from kernel size")


def _warm_values(S, ls: LabeledSet, eta: float) -> np.ndarray:
    """Laplacian least-squares node values ``K (B + eta J K)^-1 eta y``,
    ``B = lam I + 2 gamma L K`` and ``J = diag(mask)``, from the dual kernel
    ``S = B^-T K = K B^-1``: by the Woodbury identity they are exactly
    ``eta S[:, l] (I + eta S[l, l])^-1 y[l]`` over the labeled points l
    (Sindhwani, Niyogi & Belkin, ICML 2005). S is PSD, so this m x m system
    is SPD; a singular or non-finite one raises :class:`FactorizationError`."""
    lab = np.flatnonzero(ls.labeled_mask)
    A = np.eye(lab.size) + eta * S[np.ix_(lab, lab)]
    try:
        coef = sla.cho_solve(sla.cho_factor(A), ls.labels[lab])
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise FactorizationError("the warm start's system is singular or not finite") from exc
    return eta * (coef @ S[lab])  # S is symmetric: its rows l are its columns l


def _pseudo_refresh(ls: LabeledSet, prev, vals) -> np.ndarray:
    """The binary margin trainers' labels: the given ones where labeled,
    elsewhere the sign of ``vals``, or ``prev`` where ``vals`` is zero. With
    ``prev = 1`` it gives the first labels off a warm start."""
    fresh = np.where(vals != 0.0, np.sign(vals), prev)
    return np.where(ls.labeled_mask, ls.labels, fresh)


def _check_divergence(f, n):
    if not np.all(np.isfinite(f)) or np.linalg.norm(f) > 1e6 * n:
        raise DivergenceError("splitting iteration diverged")


class _ProxChain:
    """The warm-started chain of batched TV proximal calls of one outer loop.

    Each call shrinks a (c, n) array, one row per channel, in one
    :func:`tv_prox` call. A row starts from that channel's previous dual and
    stops at the duality gap of the ``PROX_KAPPA`` rule for the move of its
    input (``tol`` on the first call) or at ``inner_iters``. :meth:`record`
    appends the last call's work to the trace lists ``prox_iters``
    (iterations summed over channels), ``prox_cap_hits`` (channels that hit
    ``inner_iters``) and ``prox_stops`` (``{"gap": ..., "cap": ...}``
    channel counts).
    """

    def __init__(self, g, hp, trace):
        self.g, self.hp, self.trace = g, hp, trace
        self.q = None  # (c, E) duals of the last call
        self.z_prev = None  # (c, n) input of the last call
        self.rows = []  # per-row traces of the last call
        trace.update(prox_iters=[], prox_cap_hits=[], prox_stops=[])

    def __call__(self, z, weight):
        hp = self.hp
        if self.z_prev is None:
            tol = hp.tol
        else:
            tol = [max(hp.tol, 0.5 * PROX_KAPPA**2 * float(dz @ dz)) for dz in z - self.z_prev]
        x, prox = tv_prox(self.g, z, weight, tol=tol, max_iters=hp.inner_iters, q0=self.q)
        self.q, self.z_prev, self.rows = prox.q, z, prox.rows
        return x

    def record(self) -> None:
        rows, trace = self.rows, self.trace
        trace["prox_iters"].append(sum(p.iterations_run for p in rows))
        trace["prox_cap_hits"].append(sum(p.iterations_run >= self.hp.inner_iters for p in rows))
        stops = [p.stop_reason for p in rows]
        trace["prox_stops"].append({reason: stops.count(reason) for reason in ("gap", "cap")})


def _tv_split_loop(K, g, ls, hp, h_step):
    """Common alternating loop of the TV trainers.

    ``h_step(gv, lam2, it) -> h`` provides the fidelity update; the rest
    (kernel shrink, TV proximal on the averaged target, optional ball/zero-
    mean renormalization, multiplier ascent) is shared. The TV proximals of
    the averaged target form one :class:`_ProxChain` of one-row calls.

    The loop stops when the consensus residual drops to ``tol * n``
    (``stop_reason`` "consensus") or after ``outer_iters`` steps ("cap").
    The residual decays slowly, so on real graphs the cap usually ends the
    loop: ``outer_iters`` and the proximal tolerance rule are part of the
    algorithm and define its output, not only its running time. The trace
    records ``outer_steps``, ``stop_reason`` and, per step, the consensus
    residual and the proximal work.
    """
    n = K.n
    factor = _kernel_factor(K, hp.lam, DiagLaplacian(n, r=hp.r1))
    gv = ls.y_ext
    lam1 = np.zeros(n)
    lam2 = np.zeros(n)
    scale = float(np.sqrt(n))
    trace = {"consensus": []}
    chain = _ProxChain(g, hp, trace)
    alpha = np.zeros(n)
    f = np.zeros(n)
    stop_reason = "cap"
    for it in range(hp.outer_iters):
        alpha = factor.solve(hp.r1 * gv - lam1)
        f = K.values @ alpha
        _check_divergence(f, n)
        h = h_step(gv, lam2, it)
        z1 = f + lam1 / hp.r1
        z2 = h + lam2 / hp.r2
        zbar = (hp.r1 * z1 + hp.r2 * z2) / (hp.r1 + hp.r2)
        gbar = chain(zbar[None], hp.gamma / (hp.r1 + hp.r2))[0]
        chain.record()
        if hp.normalize and np.linalg.norm(gbar) > 0:
            gv = normalize_ball_zero_mean(gbar, scale)
        else:
            gv = gbar
        lam1 += hp.r1 * (f - gv)
        lam2 += hp.r2 * (h - gv)
        res = float(np.linalg.norm(f - gv) + np.linalg.norm(h - gv))
        trace["consensus"].append(res)
        if res <= hp.tol * n:
            stop_reason = "consensus"
            break
    trace.update(outer_steps=len(trace["consensus"]), stop_reason=stop_reason)
    return alpha, f, trace


def tv_rls_train(
    K: KernelMatrix, g: SimilarityGraph, ls: LabeledSet, hp: HyperParams
) -> BinaryModel:
    """Least-squares fidelity with graph-TV regularization, solved by a
    two-variable splitting with multiplier ascent (:func:`_tv_split_loop`)."""
    _check_semi(K, g, ls)
    diag_h = hp.eta * ls.labeled_mask + hp.r2
    ey = hp.eta * ls.y_ext

    def h_step(gv, lam2, _it):
        return (ey + hp.r2 * gv - lam2) / diag_h

    alpha, f, trace = _tv_split_loop(K, g, ls, hp, h_step)
    return BinaryModel(
        "tv_rls", alpha, K.bandwidth, hp, K.data, node_values=f, trace=trace
    )


def tv_svm_train(
    K: KernelMatrix, g: SimilarityGraph, ls: LabeledSet, hp: HyperParams
) -> BinaryModel:
    """Margin fidelity with graph-TV regularization. The margin subproblem is
    solved exactly through its diagonal dual; unlabeled nodes carry
    pseudo-labels warm-started from Laplacian least squares and refreshed
    from the consensus variable each sweep (:func:`_tv_split_loop`)."""
    _check_semi(K, g, ls)
    warm = K.values @ _lap_ls(K, g, ls.labeled_mask, ls.y_ext, hp)
    state = {"y": _pseudo_refresh(ls, 1.0, warm)}

    def h_step(gv, lam2, it):
        if it > 0:
            state["y"] = _pseudo_refresh(ls, state["y"], gv)
        e = gv - lam2 / hp.r2
        h, _sol = svm_value_prox(e, state["y"], hp.r2, hp.mu)
        return h

    alpha, f, trace = _tv_split_loop(K, g, ls, hp, h_step)
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


def _perturbed_restart(f0) -> np.ndarray:
    bump = 1e-3 * np.where(np.arange(f0.shape[-1]) % 2 == 0, 1.0, -1.0)
    return f0 + bump


def _ratio_loop(K, g, mask, f0, clamp, hp, step, factor, coupling=None):
    """Ratio-descent loop shared by the binary and multi-class Cheeger
    trainers, over a (c, N) channel array (c = 1 for binary).

    ``step(gstep, it) -> (alphas, e)`` supplies the kernel-space proximal of
    every channel (least-squares or margin flavored); ``factor`` holds the
    caller's factor of ``lam I + r K``, which maps an initialization that no
    step improves on to its coefficients. The rest is the signed
    step, the per-channel TV shrink weighted by that channel's ratio energy,
    median centering, clamping the labeled nodes to ``clamp``, the optional
    ``coupling(s) -> (s, deviation)`` across channels (the multi-class
    simplex) and per-channel sphere renormalization. The energy is the sum
    of the channel ratio energies, and the best iterate by it is returned.
    An undefined energy or a zero channel restarts from a perturbed ``f0``,
    at most twice. The channels' TV shrinks form one :class:`_ProxChain`;
    each starts from that channel's previous dual, clipped to the new
    weight's box.

    The loop is not a descent: the energy can rise from one step to the
    next, which is why the best iterate is kept. It stops on a plateau of
    that best energy, when it has fallen by no more than
    ``RATIO_PLATEAU_REL`` relative over the last ``RATIO_PLATEAU_STEPS``
    completed steps (``stop_reason`` "plateau"), or after ``outer_iters``
    steps ("cap"). Both rules are part of the algorithm and define its
    output. The trace records ``outer_steps``, ``stop_reason``, the energy
    before and after every step and, per step, the proximal work.
    """
    n = K.n
    scale = float(np.sqrt(n))
    f = f0
    ens = [_ratio_energy(g, fk) for fk in f]  # channel energies of the current f
    energies = [float(sum(ens))]
    best_e = energies[0]
    best_f = f
    best_alphas = None
    devs: list = []
    trace = {}
    chain = _ProxChain(g, hp, trace)
    restarts = 0
    it = 0
    stop_reason = "cap"
    while it < hp.outer_iters:
        if not np.all(np.isfinite(ens)):
            if restarts >= 2:
                raise DegenerateInputError("ratio iteration degenerated repeatedly")
            restarts += 1
            f = _perturbed_restart(f0)
            ens = [_ratio_energy(g, fk) for fk in f]
            continue
        gstep = f + hp.c * np.sign(f)
        alphas, e = step(gstep, it)
        # one batched shrink for all channels; a zero ratio (already-perfect
        # cut) would make the shrink weight infinite, so it is floored
        shrunk = chain(e, hp.c / np.maximum(ens, 1e-8))
        s = np.empty_like(f)
        for k, h in enumerate(shrunk):
            s[k] = np.where(mask, clamp[k], h - center_median(h))
        if coupling is not None:
            s, dev = coupling(s)
        # per-channel norms in the binary floating-point order
        norms = np.array([np.linalg.norm(sk) for sk in s])
        if np.any(norms == 0.0):
            ens = [np.inf]  # a collapsed channel restarts like an undefined ratio
            continue
        # recorded per completed outer step, in line with ratio_energy[1:]
        chain.record()
        if coupling is not None:
            devs.append(dev)
        f = scale * s / norms[:, None]
        _check_divergence(f.ravel(), n)
        ens = [_ratio_energy(g, fk) for fk in f]
        energies.append(float(sum(ens)))
        if energies[-1] < best_e:
            best_e, best_f, best_alphas = energies[-1], f, alphas
        it += 1
        if it >= RATIO_PLATEAU_STEPS:
            # energies[j] follows step j, so this is the best energy of
            # RATIO_PLATEAU_STEPS steps back; energies are >= 0, and an
            # undefined (inf) start never counts as a plateau
            best_back = min(energies[: it - RATIO_PLATEAU_STEPS + 1])
            if best_e >= (1.0 - RATIO_PLATEAU_REL) * best_back:
                stop_reason = "plateau"
                break
    if best_alphas is None:
        # initialization won: represent it through the loop's own kernel map
        best_alphas = factor.solve(hp.r * best_f.T).T
    trace.update(
        outer_steps=it, stop_reason=stop_reason,
        ratio_energy=energies, best_ratio_energy=best_e,
    )
    if coupling is not None:
        trace["simplex_dev"] = devs
    return best_alphas, best_f, trace


def _ls_ratio_step(K, hp):
    """Least-squares kernel proximal of every channel for :func:`_ratio_loop`,
    ``alphas = (lam I + r K)^-1 r gstep``, and the factor it solves with."""
    factor = _kernel_factor(K, hp.lam, DiagLaplacian(K.n, r=hp.r))

    def step(gstep, _it):
        alphas = factor.solve(hp.r * gstep.T).T
        return alphas, (K.values @ alphas.T).T

    return step, factor


def _margin_step(K, prox: SvmProxSolver, warm, refresh):
    """Per-channel margin proximal over a (c, N) channel array.

    Returns ``step(target, it, source=None) -> (alphas, values)``. The
    channel labels start as ``refresh(1, warm)``, off the (c, N) warm-start
    values; from the second sweep on they become ``refresh(labels, source)``
    (``source`` defaults to the target). Each channel's dual QP warm-starts
    from its previous solution.
    """
    state = {"y": refresh(1.0, warm)}
    betas = [None] * len(warm)

    def step(target, it, source=None):
        if it > 0:
            state["y"] = refresh(state["y"], target if source is None else source)
        alphas = np.zeros_like(target)
        e = np.zeros_like(target)
        for k in range(len(target)):
            alphas[k], sol = prox.solve(state["y"][k], target=target[k], beta0=betas[k])
            betas[k] = sol.beta
            e[k] = K.values @ alphas[k]
        return alphas, e

    return step


def cheeger_rls_train(
    K: KernelMatrix, g: SimilarityGraph, ls: LabeledSet, hp: HyperParams
) -> BinaryModel:
    """Balanced-cut ratio descent with a kernel least-squares proximal."""
    _check_semi(K, g, ls)
    y = ls.y_ext[None]
    alpha, f, trace = _ratio_loop(
        K, g, ls.labeled_mask, y, y, hp, *_ls_ratio_step(K, hp)
    )
    return BinaryModel(
        "cheeger_rls", alpha[0], K.bandwidth, hp, K.data, node_values=f[0], trace=trace
    )


def cheeger_svm_train(
    K: KernelMatrix, g: SimilarityGraph, ls: LabeledSet, hp: HyperParams
) -> BinaryModel:
    """Balanced-cut ratio descent with a margin (SVM) proximal; pseudo-labels
    as in :func:`tv_svm_train`."""
    _check_semi(K, g, ls)
    prox = SvmProxSolver(K, hp, r=hp.r)
    warm = K.values @ _lap_ls(K, g, ls.labeled_mask, ls.y_ext, hp)
    step = _margin_step(K, prox, warm[None], lambda prev, vals: _pseudo_refresh(ls, prev, vals))
    y = ls.y_ext[None]
    alpha, f, trace = _ratio_loop(K, g, ls.labeled_mask, y, y, hp, step, prox.factor)
    trace.update(prox.counters)
    return BinaryModel(
        "cheeger_svm", alpha[0], K.bandwidth, hp, K.data, node_values=f[0], trace=trace
    )


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


# model-file layout per kind: the coefficient field and its array rank
_MODEL_COEFS = {"binary": ("alpha", 1), "multiclass": ("alphas", 2)}


def _write_model(path, kind: str, model, **head) -> None:
    """Write a model of ``kind`` as JSON: kind, variant, the ``head`` fields,
    hyperparameters, coefficients and fitted node values."""
    coef_key, _ = _MODEL_COEFS[kind]
    doc = {
        "kind": kind,
        "variant": model.variant,
        **head,
        "hyperparams": asdict(model.hyperparams) if model.hyperparams else None,
        coef_key: getattr(model, coef_key).tolist(),
        "node_values": (
            model.node_values.tolist() if model.node_values is not None else None
        ),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)


def _read_model(path, kind: str) -> dict:
    """Read a model file written by :func:`_write_model` for ``kind`` and
    return its model's constructor arguments. A file of the other kind, or a
    missing or malformed field, raises :class:`InvalidParameterError` naming
    the file (and the field). A bandwidth that is not finite and > 0, node
    values not shaped like the coefficients and, in a binary file, a
    ``"bias"`` other than absent or 0 count as malformed."""
    coef_key, rank = _MODEL_COEFS[kind]
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except ValueError as exc:
        raise InvalidParameterError(f"{path} is not a JSON model file: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("kind") != kind:
        raise InvalidParameterError(f"not a {kind} model file: {path}")

    def array(value, shape=None):
        out = np.array(value, dtype=np.float64)
        if out.ndim != rank or shape not in (None, out.shape):
            raise ValueError(f"expected a {rank}-d array of shape {shape}")
        return out

    def real(value, minimum=-np.inf):
        out = float(value)
        if not minimum < out < np.inf:  # NaN fails too
            raise ValueError(f"expected a finite number > {minimum}")
        return out

    def zero(value):
        if float(value) != 0.0:
            raise ValueError("the model intercept is retired; only 0 loads")

    def read(key, convert, optional=False):
        value = doc.get(key)
        if optional and value is None:
            return None
        try:
            if value is None:
                raise TypeError("missing")
            return convert(value)
        except InvalidParameterError:
            raise
        except (TypeError, ValueError) as exc:
            raise InvalidParameterError(
                f"{path}: missing or malformed model field {key!r}"
            ) from exc

    coefs = read(coef_key, array)
    args = {
        "variant": read("variant", str),
        coef_key: coefs,
        "bandwidth": read("bandwidth", lambda v: real(v, 0.0)),
        "hyperparams": read(
            "hyperparams",
            lambda v: HyperParams.from_dict(v, str(path)) if v else None,
            optional=True,
        ),
        "node_values": read("node_values", lambda v: array(v, coefs.shape), optional=True),
    }
    if kind == "binary":
        read("bias", zero, optional=True)  # files written while models had one
    return args


def save_model(model: BinaryModel, path) -> None:
    """Write the model header and coefficients as a JSON document."""
    _write_model(path, "binary", model, n_train=model.n_train, bandwidth=model.bandwidth)


def load_model(path) -> BinaryModel:
    """Read a model written by :func:`save_model`. The training-data reference
    is not serialized; reattach it before inductive prediction."""
    return BinaryModel(**_read_model(path, "binary"))
