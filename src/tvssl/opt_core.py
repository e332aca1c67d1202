"""Optimization primitives shared by all classifiers.

Contents: SPD/LU factors and a factor through a Gram matrix's low-rank root,
each solved many times under a residual contract, the graph-TV
proximal map solved by a primal-dual iteration, a projected-gradient solver
for box-constrained duals with one linear equality, Michelot's simplex
projection, and the ball/zero-mean renormalization used by the splitting
loops.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

# scipy's private csr kernels: the TV prox iteration calls them directly
# (see _csr_product); scipy's own ``@`` on a csr matrix ends in the same calls
from scipy.sparse import _sparsetools

from .errors import (
    DegenerateInputError,
    DimensionError,
    FactorizationError,
    InvalidParameterError,
    NonFiniteInputError,
    check_int,
    check_real,
    pm1_labels,
)
from .graph import SimilarityGraph, _check_node_function, graph_tv

_RESIDUAL_RTOL = 1e-8
# qp_box_eq skips its reference projection only when the step's lower bound
# on the projected gradient exceeds tol by this factor, far above rounding
_PG_BOUND_MARGIN = 1.0 + 1e-6
_EPS = float(np.finfo(np.float64).eps)


# Fields HyperParams no longer has, each with the value its code path now
# always takes; config and model files may still carry them at that value
_RETIRED = {"norm_scale": "sqrt_n", "use_bias": False, "simplex_last": False}


@dataclass
class HyperParams:
    """Scalar knobs shared by the training loops.

    ``eta`` weighs label fidelity, ``lam`` the RKHS norm, ``gamma`` the graph
    regularizer, ``mu`` the slack penalty, ``r``/``r1``/``r2`` the quadratic
    consensus penalties, and ``c`` the ratio-descent step constant.
    ``normalize``, read by tv_rls and tv_svm only, rescales their consensus
    variable to norm sqrt(n) for n nodes and subtracts its mean after each
    TV shrink. It is the one switch kept: turned off, the splitting with no
    TV term reduces to masked least squares or the margin fit, which the
    two binary no-TV reduction tests check.

    ``outer_iters`` caps every outer loop and ``inner_iters`` every TV prox.
    ``tol`` is the duality gap of each channel's first TV prox, the floor of
    the move-tied gap of every later one, and, times n, the consensus
    residual that stops the TV split loop of tv_rls and tv_svm.

    The defaults are the shipped ones; ``configs/defaults.json`` lists each
    algorithm's departures from them (``bench_cli.default_hyperparams``).
    """

    eta: float = 1.0
    lam: float = 1e-4
    gamma: float = 1.0
    mu: float = 1.0
    r: float = 1.0
    r1: float = 5.0
    r2: float = 5.0
    c: float = 1.0
    outer_iters: int = 200
    inner_iters: int = 150
    tol: float = 1e-5
    normalize: bool = True

    def __post_init__(self):
        # config and model files reach here unchecked: reject wrong types,
        # NaN/inf and out-of-range values by field name before a solver sees them
        for name in ("eta", "lam", "mu", "r", "r1", "r2", "c", "tol"):
            check_real(name, getattr(self, name), 0.0, strict=True)
        check_real("gamma", self.gamma, 0.0)
        for name in ("outer_iters", "inner_iters"):
            check_int(name, getattr(self, name), 1)
        if not isinstance(self.normalize, (bool, np.bool_)):
            raise InvalidParameterError(f"normalize must be true or false, got {self.normalize!r}")

    @classmethod
    def from_dict(cls, values: dict, source: str) -> "HyperParams":
        """Build from a mapping of field names, as read from a config or model
        file; names that are not fields raise :class:`InvalidParameterError`
        naming them and ``source``. A retired key is dropped at the value its
        code path now always takes (a bool must be a real bool) and raises
        the same error at any other."""
        values = dict(values)
        for key, fixed in _RETIRED.items():
            if key in values:
                value = values.pop(key)
                if type(value) is not type(fixed) or value != fixed:
                    raise InvalidParameterError(
                        f"retired hyperparameter {key!r} for {source} can only be "
                        f"{fixed!r}, got {value!r}"
                    )
        unknown = sorted(set(values) - {f.name for f in fields(cls)})
        if unknown:
            raise InvalidParameterError(
                f"unknown hyperparameter(s) for {source}: {', '.join(map(repr, unknown))}"
            )
        return cls(**values)


@dataclass
class DualSolution:
    """Result of :func:`qp_box_eq`: the maximizer, its objective and KKT data.

    ``stop_reason`` is "tol" when the projected-gradient test ended the
    solve and "cap" when ``max_iters`` did; a solve whose returned point
    meets ``tol`` after the cap is "tol" although ``iterations`` equals the
    cap.
    ``kkt_residuals["stationarity"]`` is the returned point's projected
    gradient at the reference step.
    ``iterations`` counts projected-gradient steps; ``face_steps`` counts
    the Newton steps on a settled face that were kept between them.
    """

    beta: np.ndarray
    objective: float
    kkt_residuals: dict
    iterations: int
    stop_reason: str
    face_steps: int = 0


@dataclass
class ProxTrace:
    """Convergence record of one :func:`tv_prox` call.

    ``final_gap`` is the duality gap of the returned point. ``q`` is the
    final dual, one entry per edge, for a warm start of the next call; it is
    ``None`` when the call returned its input (zero weight or no edges).
    ``stop_reason`` is "gap" when the gap met its tolerance (also a call that
    returned its input) and "cap" when ``max_iters`` ran without that.

    A call on (c, n) input records one such trace per row in ``rows``. Its
    own ``iterations_run`` is then the iterations the batch ran (the most
    of any row), ``final_gap`` the largest row gap, ``stop_reason`` "cap" if
    any row hit the cap, and ``q`` the (c, E) duals (zero rows for rows that
    returned their input; ``None`` if all did).
    """

    iterations_run: int
    final_gap: float = 0.0
    q: np.ndarray | None = None
    stop_reason: str = "gap"
    rows: list | None = None


# ---------------------------------------------------------------------------
# linear solves
# ---------------------------------------------------------------------------


def _column_norms(M) -> np.ndarray:
    """Euclidean norm of each column, without an M-sized temporary."""
    return np.sqrt(np.einsum("ij,ij->j", M, M))


def _refined_solve(apply, solve_once, b):
    """One solve plus iterative refinement until the residual contract holds;
    ``apply(X)`` is the system matrix's product with an (n, k) block.

    A 2-D ``b`` is solved as one block; each column is held to the contract
    on its own and only the columns that miss it are refined. Returns the
    solution and the number of columns that missed the contract at first.
    A column whose residual is not within its bound, NaN included, misses.
    """
    b = np.asarray(b, dtype=np.float64)
    x = solve_once(b)
    B, X = b.reshape(b.shape[0], -1), x.reshape(x.shape[0], -1)  # views
    bound = _RESIDUAL_RTOL * _column_norms(B)
    X[:, bound == 0.0] = 0.0
    cols = np.arange(X.shape[1])  # columns still refined, residuals in res
    res = apply(X)
    np.subtract(B, res, out=res)
    refined = 0
    for attempt in range(3):
        miss = ~(_column_norms(res) <= bound[cols])
        if not miss.any():
            return x, refined
        if attempt == 2:
            break
        refined = refined or int(miss.sum())
        cols, res = cols[miss], res[:, miss]
        X[:, cols] += solve_once(res)
        res = B[:, cols] - apply(X[:, cols])
    raise FactorizationError("linear solve missed the residual bound")


class DiagLaplacian:
    """The sparse symmetric ``D = eta J + r I + weight L`` of a kernel-space
    system ``F = lam I + D K``: J = diag(mask) for a boolean ``mask`` (or no
    J term), L a symmetric csr matrix, the graph Laplacian (no L term
    unless ``weight > 0``).

    ``D @ X`` for an (n,) or (n, k) X is ``d * X`` for the diagonal
    ``d = eta mask + r``, plus ``weight L X`` added in by scipy's csr kernel
    (as :func:`_csr_product` calls it), so no sparse matrix is built for D.
    :meth:`system` forms F from that same product.
    """

    def __init__(self, n: int, *, r=0.0, eta=0.0, mask=None, laplacian=None, weight=0.0):
        self.r, self.eta, self.weight = float(r), float(eta), float(weight)
        self.mask = None if mask is None else np.asarray(mask, dtype=bool)
        self.laplacian = laplacian if weight > 0 else None
        self.diag = np.full(n, self.r) if self.mask is None else self.eta * self.mask + self.r
        if self.laplacian is not None:
            self._data = self.weight * self.laplacian.data

    def __matmul__(self, X):
        X = np.ascontiguousarray(X, dtype=np.float64)  # the csr kernel reads C order
        out = (self.diag[:, None] if X.ndim == 2 else self.diag) * X
        out += 0.0  # -0.0 to +0.0: the csr kernel's sums start from +0.0
        if self.laplacian is not None:
            L, n = self.laplacian, self.diag.size
            if X.ndim == 1:
                _sparsetools.csr_matvec(n, n, L.indptr, L.indices, self._data, X, out)
            else:
                _sparsetools.csr_matvecs(
                    n, n, X.shape[1], L.indptr, L.indices, self._data, X, out
                )
        return out

    def system(self, lam: float, K) -> np.ndarray:
        """``F = lam I + D K``: ``D @ K`` with ``lam`` added to its
        diagonal, one C-ordered n x n array and no other. Its transpose
        ``F.T`` is the Fortran-ordered F^T that the factors overwrite."""
        F = self @ K
        F.reshape(-1)[:: F.shape[0] + 1] += lam
        return F


class _KernelSystemFactor:
    """What the factors of ``F = lam I + D K`` share, for a symmetric K and a
    symmetric D (a :class:`DiagLaplacian`): :meth:`solve`, whose residual
    check and refinement apply ``F X = lam X + D (K X)``, or
    ``F^T X = lam X + K (D X)`` for a transposed solve, so no factor keeps
    F. Each factor supplies ``_solve_once(b, trans)``. ``refined_cols``
    counts the right-hand-side columns its solves had to refine."""

    def __init__(self, lam: float, D, K: np.ndarray):
        self._lam, self._D, self._K = lam, D, K
        self.refined_cols = 0

    def _apply(self, X, trans: bool = False):
        out = self._K @ (self._D @ X) if trans else self._D @ (self._K @ X)
        out += self._lam * X
        return out

    def solve(self, b, trans: bool = False) -> np.ndarray:
        """Solve F x = b (F^T x = b when ``trans``) to relative residual
        1e-8, each column of a 2-D ``b`` on its own."""
        x, refined = _refined_solve(
            lambda X: self._apply(X, trans), lambda rhs: self._solve_once(rhs, trans), b
        )
        self.refined_cols += refined
        return x


class SpdFactor(_KernelSystemFactor):
    """Cholesky factor of a symmetric positive (semi)definite
    ``F = lam I + D K``, built by :meth:`DiagLaplacian.system` and factored
    in place in ``F.T`` (F itself, for a symmetric F): the factor is the one
    n x n array it holds.

    Factor once, solve many times; a single jitter of ``1e-10 * trace / n``
    is added if the plain factorization fails, to F built afresh (the failed
    factorization overwrote part of it, and is freed first). LAPACK reads
    one triangle only, so a NaN or infinite entry in either is rejected
    first. A matrix that fails both factorizations, or whose factor has a
    non-finite diagonal, raises :class:`FactorizationError` at construction.
    """

    def __init__(self, lam: float, D, K: np.ndarray):
        super().__init__(lam, D, K)
        F = D.system(lam, K)
        if F.size and not np.isfinite([F.min(), F.max()]).all():
            raise FactorizationError("system matrix is not finite")
        try:
            self._cf = sla.cho_factor(F.T, overwrite_a=True, check_finite=False)
        except np.linalg.LinAlgError:
            self._cf = None
        if self._cf is None:
            # F, partly overwritten, is freed before it is built again: out
            # here, where the LinAlgError's traceback no longer holds it
            del F
            F = D.system(lam, K)
            n = F.shape[0]
            jitter = 1e-10 * max(np.trace(F), 1.0) / n
            F[np.diag_indices(n)] += jitter
            try:
                self._cf = sla.cho_factor(F.T, overwrite_a=True, check_finite=False)
            except np.linalg.LinAlgError as exc:
                raise FactorizationError(
                    "matrix is not positive definite, even with jitter"
                ) from exc
        if not np.isfinite(np.diagonal(self._cf[0])).all():
            raise FactorizationError("Cholesky factor is not finite")

    def _solve_once(self, b, trans=False):
        return sla.cho_solve(self._cf, b, check_finite=False)  # F^T = F

    # in the class's own dict, where perfbench's tracer wraps each factor's solve
    solve = _KernelSystemFactor.solve


class LuFactor(_KernelSystemFactor):
    """LU factor of a general (possibly nonsymmetric) ``F = lam I + D K``,
    built by :meth:`DiagLaplacian.system`: ``F.T``, Fortran-ordered, is
    factored in place, and a solve with F is a transposed solve with that
    factor. A matrix whose U has an exactly zero or a non-finite diagonal
    entry (singular, or NaN or infinite entries) raises
    :class:`FactorizationError` at construction."""

    def __init__(self, lam: float, D, K: np.ndarray):
        super().__init__(lam, D, K)
        # LAPACK's getrf, as scipy's lu_factor calls it, without the warning
        # that function adds for an exactly zero pivot: that U is rejected here
        lu, piv, _info = sla.lapack.dgetrf(D.system(lam, K).T, overwrite_a=1)
        u = np.diagonal(lu)
        if not (np.isfinite(u).all() and u.all()):
            raise FactorizationError("LU factor is singular or not finite")
        self._lu = (lu, piv)

    def _solve_once(self, b, trans=False):
        return sla.lu_solve(self._lu, b, trans=int(not trans), check_finite=False)

    solve = _KernelSystemFactor.solve  # as in SpdFactor


# RootFactor.kernel_misses checks the residual of its kernel in blocks of this
# many columns, so that the check allocates no n x n temporary
_ROOT_CHECK_COLS = 256


class RootFactor(_KernelSystemFactor):
    """Factor of ``F = lam I + D K`` for ``lam > 0``, a sparse symmetric PSD
    ``D`` and a Gram matrix K with an (n, r) root C, ``K ~ C C^T``, through
    one r x r Cholesky factor (Fine & Scheinberg, *Efficient SVM training
    using low-rank kernel representations*, JMLR 2001).

    With ``M = lam I + C^T D C = R^T R`` and ``G = C R^-1``, the push-through
    and Woodbury identities give ``F^-T C C^T = G G^T`` and
    ``F^-1 = (I - D G G^T) / lam`` (``F^-T = (I - G G^T D) / lam``).
    :meth:`solve` starts from that map and refines against F on the full K
    under the other factors' residual contract; :meth:`kernel_misses` holds
    ``G G^T`` to the same contract, so a short, stale or indefinite root
    costs work, never accuracy. An M that is not positive definite raises
    :class:`FactorizationError`.
    """

    def __init__(self, lam: float, D, K: np.ndarray, C: np.ndarray):
        super().__init__(lam, D, K)
        M = C.T @ (D @ C)
        M[np.diag_indices_from(M)] += lam
        try:
            R = sla.cholesky(M, check_finite=False)
        except np.linalg.LinAlgError as exc:
            raise FactorizationError("the root's r x r system is not positive definite") from exc
        if not np.isfinite(np.diagonal(R)).all():
            raise FactorizationError("the root's r x r factor is not finite")
        self.G = sla.solve_triangular(R, C.T, trans="T", check_finite=False).T  # C R^-1

    def _solve_once(self, b, trans=False):
        G, D = self.G, self._D
        return (b - (G @ (G.T @ (D @ b)) if trans else D @ (G @ (G.T @ b)))) / self._lam

    def kernel_misses(self) -> int:
        """The number of columns of ``G G^T`` that miss the residual contract
        as columns of ``F^-T K``. Their residuals are
        ``F^T G G^T - K = (lam G + K (D G)) G^T - K`` (K and D are
        symmetric), formed in blocks of 256 columns."""
        G, K = self.G, self._K
        P = K @ (self._D @ G)
        P += self._lam * G
        bound = _RESIDUAL_RTOL * _column_norms(K)
        misses = 0
        for j in range(0, K.shape[0], _ROOT_CHECK_COLS):
            cols = slice(j, j + _ROOT_CHECK_COLS)
            res = P @ G[cols].T
            res -= K[:, cols]
            misses += int(np.count_nonzero(~(_column_norms(res) <= bound[cols])))
        return misses


def _power_norm(matvec, n: int, iters: int) -> float:
    """Largest singular value estimate of a symmetric PSD operator."""
    v = np.ones(n) + 1e-3 * np.arange(n)
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(iters):
        w = matvec(v)
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        lam = nw
        v = w / nw
    return float(lam)


# ---------------------------------------------------------------------------
# graph-TV proximal map
# ---------------------------------------------------------------------------


def _tv_operator(g: SimilarityGraph):
    """Weighted edge-difference operator ``D`` of ``g``, its transpose, the
    edge scales ``sqrt(w)`` and the primal-dual step ``0.99 / ||D||``.

    Built on first use and cached on the graph: none of it depends on the
    prox input or weight.
    """
    if g._tv_op is None:
        n = g.n_nodes
        sw = np.sqrt(g.edge_w)
        rows = np.arange(g.n_edges)
        D = sp.csr_matrix(
            (
                np.concatenate([sw, -sw]),
                (np.concatenate([rows, rows]), np.concatenate([g.edge_i, g.edge_j])),
            ),
            shape=(g.n_edges, n),
        )
        Dt = D.T.tocsr()
        # the estimate never exceeds lambda_max(D^T D) = lambda_max(L) <= 2 max degree
        op_norm = np.sqrt(max(_power_norm(lambda v: Dt @ (D @ v), n, 20), 1e-30))
        g._tv_op = (D, Dt, sw, 0.99 / op_norm)
    return g._tv_op


def _csr_product(M, v, out):
    """Bind ``out <- M @ v`` for a csr ``M`` and C-contiguous (n, k) ``v``
    and (E, k) ``out``: returns a function of no arguments that writes the
    product of ``v``'s current contents into ``out``.

    It calls the kernel that scipy's ``@`` ends in, with the same arguments,
    so the sums agree bit for bit, without ``@``'s dispatch and fresh output
    array, which at a few thousand edges cost more than the product. k = 1
    takes the single-vector kernel on flat views, about twice as fast.
    """
    if not (v.flags.c_contiguous and out.flags.c_contiguous):
        raise ValueError("csr product buffers must be C-contiguous")  # else bound to copies
    rows, cols, k = *M.shape, v.shape[1]
    csr = (M.indptr, M.indices, M.data)
    if k == 1:
        kernel, args = _sparsetools.csr_matvec, (rows, cols, *csr, v.reshape(-1), out.reshape(-1))
    else:
        kernel, args = _sparsetools.csr_matvecs, (rows, cols, k, *csr, v, out)

    def product():
        out.fill(0.0)  # the kernel adds into its output
        kernel(*args)

    return product


def _per_row(value, rows: int, name: str) -> list:
    """``value`` as one finite float >= 0 per input row: a scalar applies to
    every row, a vector must hold one entry per row."""
    values = np.ravel(value).tolist()  # Python scalars: a bool stays a bool
    if np.ndim(value) == 0:
        values *= rows
    elif np.shape(value) != (rows,):
        raise DimensionError(f"{name} has shape {np.shape(value)}, input has {rows} row(s)")
    for v in values:
        check_real(name, v, 0.0)
    return [float(v) for v in values]


def tv_prox(
    g: SimilarityGraph,
    z,
    weight,
    *,
    tol=1e-6,
    max_iters: int = 500,
    q0=None,
) -> tuple[np.ndarray, ProxTrace]:
    """Minimize ``weight * graph_tv(g, x) + 0.5 * ||x - z||^2``.

    Primal-dual iteration on the weighted edge-difference operator with equal
    step sizes ``0.99 / ||D||``; the operator and step are built once per
    graph and cached on it. ``||D||^2`` is a 20-step power estimate, which
    can read a few percent low, so the step can exceed ``1 / ||D||``, the
    bound of Chambolle & Pock's convergence proof, by a few percent. The duality gap is checked only at
    checkpoints, every 10th iteration and ``max_iters``: the iteration stops
    when the gap drops to ``tol`` ("gap") or at ``max_iters`` ("cap"). The
    objective is 1-strongly convex, so a gap ``eps`` puts the returned point
    within ``sqrt(2 eps)`` of the exact minimizer.

    The dual starts at ``q0`` (one entry per edge, typically ``ProxTrace.q``
    of a call on a nearby input) clipped to this weight's box, or at zero;
    the primal starts at the ``z - D^T q`` it implies, which is ``z`` itself
    for the zero dual. The duality gap certifies any such start, so the stop
    test is the same.

    A 2-D ``z`` of shape (c, n) holds c independent problems, one per row,
    solved together as the columns of one array (a 1-D ``z`` is a single
    column): one sparse product per iteration serves every row. ``weight``,
    ``tol`` and the rows of a (c, E) ``q0`` may then differ per row; a
    scalar applies to every row. Each row stops on its own gap and keeps the
    point, dual and gap of its stop checkpoint, so it equals a 1-D call on
    that row bit for bit; its column iterates on, unread, until the last row
    stops. The trace then holds one :class:`ProxTrace` per row in ``rows``.

    A negative or non-finite weight or tolerance, a ``max_iters`` that is
    not an integer >= 1, and a non-finite ``z`` or ``q0`` raise
    :class:`InvalidParameterError` before any iteration runs.

    Returns the minimizer (shaped like ``z``) and a :class:`ProxTrace`.
    """
    batch = np.ndim(z) == 2
    if batch:
        Z = np.ascontiguousarray(z, dtype=np.float64)
        if Z.shape[0] < 1 or Z.shape[1] != g.n_nodes:
            raise DimensionError(
                f"input has shape {Z.shape}, expected (rows, {g.n_nodes}) for this graph"
            )
    else:
        Z = _check_node_function(g, z)[None]
    c, n_edges = Z.shape[0], g.n_edges
    weights = _per_row(weight, c, "weight")
    check_int("max_iters", max_iters, 1)
    tols = _per_row(tol, c, "tol")
    if not np.isfinite(Z).all():
        raise InvalidParameterError("prox input must be finite")
    if q0 is not None:
        q0 = np.asarray(q0, dtype=np.float64)
        if q0.shape != ((c, n_edges) if batch else (n_edges,)):
            raise DimensionError(
                f"dual start has shape {q0.shape}, graph has {n_edges} edges"
            )
        if not np.isfinite(q0).all():
            raise InvalidParameterError("dual start must be finite")
        q0 = q0.reshape(c, n_edges)

    # a row with zero weight, or any row on an edgeless graph, is its own prox
    live = [k for k in range(c) if weights[k] > 0.0 and n_edges]
    solved = iter(_tv_primal_dual(
        g, Z[live], [weights[k] for k in live], [tols[k] for k in live],
        np.zeros((len(live), n_edges)) if q0 is None else q0[live], max_iters,
    ) if live else ())
    out = [next(solved) if k in live else (Z[k].copy(), ProxTrace(0)) for k in range(c)]
    if not batch:
        return out[0]
    rows = [trace for _, trace in out]
    duals = None
    if live:
        duals = np.zeros((c, n_edges))
        for k in live:
            duals[k] = rows[k].q
            rows[k].q = duals[k]
    summary = ProxTrace(
        max(t.iterations_run for t in rows),
        max(t.final_gap for t in rows),
        duals,
        "cap" if any(t.stop_reason == "cap" for t in rows) else "gap",
        rows,
    )
    return np.stack([x for x, _ in out]), summary


def _tv_primal_dual(g, Z, weights, tols, q0, max_iters) -> list:
    """The iteration of :func:`tv_prox` on the rows of ``Z``, all with a
    positive weight on a graph with edges; one ``(x, ProxTrace)`` per row.

    The rows run as the columns of (n, k) and (E, k) arrays, k = 1 for one
    row, with one csr product per operator and iteration, bound once by
    :func:`_csr_product`. A csr product sums each column as a product with
    that column alone, and every other update is elementwise, so each column
    follows its row's own iteration bit for bit. A stopped row keeps the
    point, dual and gap of its stop checkpoint; its column iterates on,
    unread, until every row has stopped.
    """
    D, Dt, sw, step = _tv_operator(g)
    z = Z.T.copy()  # one column per row
    cap = (2.0 * np.array(weights)) * sw[:, None]  # dual box radius per edge
    neg_cap = -cap
    step_z = step * z
    denom = 1.0 + step

    # the updates below run in place but in the same operation order as
    # q <- clip(q + step D x_bar, -cap, cap),
    # x <- (x - step D^T q + step z) / (1 + step),  x_bar <- 2 x - x_old
    q = q0.T.copy()  # C-ordered, as the csr products need
    np.clip(q, neg_cap, cap, out=q)
    x_bar, x_new, step_dtq, dtq = (np.empty_like(z) for _ in range(4))
    dq = np.empty_like(q)
    apply_d, apply_dt = _csr_product(D, x_bar, dq), _csr_product(Dt, q, dtq)
    apply_dt()
    x = z - dtq
    x_bar[:] = x
    results: list = [None] * len(weights)
    for it in range(1, max_iters + 1):
        apply_d()
        dq *= step
        q += dq
        np.maximum(q, neg_cap, out=q)
        np.minimum(q, cap, out=q)
        apply_dt()
        np.multiply(dtq, step, out=step_dtq)
        np.subtract(x, step_dtq, out=x_new)
        x_new += step_z
        x_new /= denom
        np.multiply(x_new, 2.0, out=x_bar)
        x_bar -= x
        x, x_new = x_new, x
        if it % 10 and it != max_iters:
            continue
        xs, dtqs = x.T.copy(), dtq.T.copy()  # contiguous: a strided dot may sum otherwise
        for k, zk in enumerate(Z):
            if results[k] is not None:
                continue
            xk, dtqk = xs[k], dtqs[k]
            primal = weights[k] * graph_tv(g, xk) + 0.5 * np.sum((xk - zk) ** 2)
            gap = float(primal) - float(dtqk @ zk - 0.5 * (dtqk @ dtqk))
            if gap > tols[k] and it < max_iters:
                continue
            reason = "gap" if gap <= tols[k] else "cap"
            results[k] = (xk.copy(), ProxTrace(it, float(max(gap, 0.0)), q[:, k].copy(), reason))
        if None not in results:
            break
    return results


# ---------------------------------------------------------------------------
# box + equality dual QP
# ---------------------------------------------------------------------------


_SLOPE_SIGNS = np.array((1.0, -1.0))


def _margin_vector(value, m: int, name: str) -> np.ndarray:
    """``value`` as a flat float64 vector of one entry per label: another
    length raises :class:`DimensionError`, a NaN or infinite entry
    :class:`InvalidParameterError`."""
    v = np.asarray(value, dtype=np.float64).ravel()
    if v.size != m:
        raise DimensionError(f"{name} has {v.size} entries, the labels {m}")
    if not np.isfinite(v).all():
        raise InvalidParameterError(f"{name} must be finite")
    return v


class _BoxEqLabels:
    """What :func:`project_box_eq` needs of its labels ``y`` and box ``mu``
    beyond the point it projects, prepared once: the labels as float64, the
    breakpoint offsets, the target ``mu * #(y > 0)``, the slope change of
    each breakpoint and the work buffers. :func:`qp_box_eq` builds one per
    call and passes it in place of ``y`` to each of its projections."""

    __slots__ = (
        "y", "mu", "trivial", "target", "sign", "mu_pos", "slope_sign",
        "t", "t_low", "t_high", "diff", "g", "g_tail",
    )

    def __init__(self, y: np.ndarray, mu: float):
        if not math.isfinite(mu) or mu < 0:
            raise InvalidParameterError("mu must be finite and nonnegative")
        m = y.size
        pos = y > 0
        n_pos = int(np.count_nonzero(pos))
        self.y, self.mu = y, mu
        # with mu = 0, or one-sided labels (b >= 0 and y@b = 0), only b = 0 is feasible
        self.trivial = mu == 0.0 or n_pos in (0, m)
        self.target = mu * n_pos
        # a_i = sign_i * v_i - mu_pos_i: v_i - mu if y_i > 0, else -v_i
        self.sign = np.where(pos, 1.0, -1.0)
        self.mu_pos = np.where(pos, mu, 0.0)
        # slope change of g at breakpoint j of (a, a + mu): +1, then -1
        self.slope_sign = _SLOPE_SIGNS.repeat(m)
        # work buffers, with the slices project_box_eq writes through
        self.t = np.empty(2 * m)
        self.t_low, self.t_high = self.t[:m], self.t[m:]
        self.diff = np.empty(max(0, 2 * m - 1))
        self.g = np.empty(2 * m)
        self.g_tail = self.g[1:]


def project_box_eq(v, y, mu: float) -> np.ndarray:
    """Euclidean projection of v onto {b : b@y = 0, 0 <= b <= mu}, y in {+-1}^m.

    The projection is ``clip(v - nu*y, 0, mu)`` for the equality multiplier
    ``nu`` that zeroes ``y @ clip(v - nu*y, 0, mu) = mu*#(y > 0) - g(nu)``,
    where ``g(nu) = sum_i clip(nu - a_i, 0, mu)`` with ``a_i = v_i - mu`` if
    ``y_i = +1`` and ``a_i = -v_i`` if ``y_i = -1``. ``g`` is piecewise linear
    and nondecreasing with breakpoints ``a_i`` (slope +1) and ``a_i + mu``
    (slope -1), so one sort of the 2m breakpoints and a cumulative sum find
    the linear piece that holds the root (Kiwiel's breakpoint search).

    Labels other than +-1 and a non-finite ``v`` raise before any work. ``y``
    may also be the :class:`_BoxEqLabels` of ``(y, mu)``; ``v`` must then be
    a finite float64 vector of its length (:func:`qp_box_eq` checks its start
    and builds every later ``v`` itself). The result is the same bit for
    bit, without the per-call checks and label work.
    """
    if isinstance(y, _BoxEqLabels):
        labels = y
        if mu != labels.mu:
            raise InvalidParameterError("mu differs from the prepared labels' mu")
    else:
        y = pm1_labels(y)
        v = _margin_vector(v, y.size, "v")
        labels = _BoxEqLabels(y, mu)
    if labels.trivial:
        return np.zeros_like(v)

    a = np.multiply(labels.sign, v, out=labels.t_low)
    np.subtract(a, labels.mu_pos, out=a)
    np.add(a, mu, out=labels.t_high)
    # stable: a tied a_i + mu stays after its a_i, so no slope goes negative
    order = labels.t.argsort(kind="stable")
    t = labels.t[order]
    slope = labels.slope_sign[order]
    np.add.accumulate(slope, out=slope)  # slope of g right of t[k]
    g = labels.g
    g[0] = 0.0
    d = np.subtract(t[1:], t[:-1], out=labels.diff)
    np.multiply(slope[:-1], d, out=d)
    np.add.accumulate(d, out=labels.g_tail)  # g at each breakpoint
    target = labels.target
    k = min(int(g.searchsorted(target)), g.size - 1)  # first g[k] >= target
    nu = t.item(k - 1)
    if slope.item(k - 1) > 0.0:
        nu = min(nu + (target - g.item(k - 1)) / slope.item(k - 1), t.item(k))
    b = np.multiply(labels.y, nu)
    np.subtract(v, b, out=b)
    np.maximum(b, 0.0, out=b)  # in place: np.clip's call overhead is large at m ~ 100
    return np.minimum(b, mu, out=b)


def _qp_norm(Q, m: int) -> float:
    """:func:`qp_box_eq`'s estimate of ``||Q||`` for an ``m``-vector dual:
    30 power-iteration products from a fixed start, so the same operator
    gives the same float."""
    return _power_norm(Q.__matmul__, m, 30)


def _face_step(block, beta, grad, y, free, mu: float):
    """The Newton step of ``F(b) = 0.5 b@Q@b - q@b`` on the face of ``beta``,
    which moves only the ``free`` coordinates and keeps ``y@b``, or None.

    ``d`` solves ``[Q_FF y_F; y_F^T 0] [d; nu] = [-grad_F; 0]`` with
    ``Q_FF = block(free)`` by one LU (LAPACK ``dgesv``). The step is ``a d``
    for the largest ``a`` in (0, 1] that stays in the box; the coordinate
    that blocks it is put exactly on its bound. None when the system is
    singular to working precision (``dgecon``'s reciprocal condition number
    below machine epsilon, as scipy's ``solve`` warns) or ``d`` is not
    finite.
    """
    k = free.size
    A = np.zeros((k + 1, k + 1), order="F")
    A[:k, :k] = block(free)
    A[:k, k] = A[k, :k] = y[free]
    rhs = np.zeros(k + 1)
    rhs[:k] = -grad[free]
    a_norm = np.abs(A).sum(axis=0).max()
    lu, _piv, x, info = sla.lapack.dgesv(A, rhs, overwrite_a=1, overwrite_b=1)
    if info != 0 or sla.lapack.dgecon(lu, a_norm)[0] < _EPS:
        return None
    d = x[:k]
    if not np.isfinite(d).all():
        return None
    b = beta[free]
    room = np.full(k, np.inf)  # the step length to the bound each coordinate moves to
    np.divide(b, -d, out=room, where=d < 0.0)
    np.divide(mu - b, d, out=room, where=d > 0.0)
    j = int(room.argmin())
    a = min(1.0, room.item(j))
    if not a > 0.0:
        return None
    b += a * d
    np.maximum(b, 0.0, out=b)
    np.minimum(b, mu, out=b)
    if room.item(j) <= 1.0:
        b[j] = 0.0 if d[j] < 0.0 else mu
    out = beta.copy()
    out[free] = b
    return out


def qp_box_eq(
    Q,
    p,
    y,
    mu: float,
    *,
    tol: float = 1e-6,
    max_iters: int = 5000,
    beta0=None,
    q_norm: float | None = None,
) -> DualSolution:
    """Maximize ``b@1 - 0.5*b@Q@b - b@p`` over ``{b@y = 0, 0 <= b <= mu}``.

    Projected gradient ascent with exact projection onto the feasible set and
    a Barzilai-Borwein step (fallback ``1/L``). ``L`` is ``q_norm`` when
    given, else :func:`_qp_norm`'s power-iteration estimate of ``||Q||``;
    passing the value that estimate gave for the same ``Q`` skips its 30
    products and changes nothing else. Terminates when the projected-gradient
    norm at the reference step ``1/L`` drops below ``tol`` ("tol") or at
    ``max_iters``; after the cap one reference projection gives the returned
    point's residual, and the solve is "tol" if it meets ``tol``, else
    "cap". Each iteration projects its step first; the reference projection
    runs only when the step cannot decide the test, which leaves every
    iterate as with both projections. The labels are checked and prepared
    for :func:`project_box_eq` once per call (:class:`_BoxEqLabels`), not
    once per projection.

    When a step leaves the free set ``F = {i : 0 < b_i < mu}`` as it found
    it, ``F`` is not empty and ``|F|^3 <= m^2``, the iterate takes
    :func:`_face_step`'s Newton step on that face (gradient projection plus
    subspace minimization; More & Toraldo, SIAM J. Optim. 1991) if it does
    not raise the objective. ``iterations`` counts the projected steps only;
    ``face_steps`` the kept Newton steps. A solve that keeps none has the
    iterates of the plain projected iteration.

    ``Q`` is symmetric PSD: a dense array, or an operator whose ``Q @ b``
    is its product with a vector and whose ``Q.block(idx)`` is the dense
    principal submatrix ``Q[idx][:, idx]``. A non-finite ``p``, ``beta0``
    or dense ``Q``, a negative or non-finite ``mu``, ``tol`` or ``q_norm``,
    and a ``max_iters`` that is not an integer >= 1 raise
    :class:`InvalidParameterError`; a ``p`` or ``beta0`` of another length
    than ``y``, or a dense ``Q`` not of shape (m, m), :class:`DimensionError`.
    With ``mu = 0`` or one-sided labels only ``b = 0`` is feasible, and the
    first iteration returns it with stop reason "tol".
    """
    y = pm1_labels(y)
    m = y.size
    p = _margin_vector(np.full(m, float(p)) if np.isscalar(p) else p, m, "p")
    if beta0 is not None:
        beta0 = _margin_vector(beta0, m, "beta0")
    check_real("mu", mu, 0.0)
    check_real("tol", tol, 0.0)
    check_int("max_iters", max_iters, 1)
    if q_norm is not None:
        check_real("q_norm", q_norm, 0.0)

    if hasattr(Q, "block"):
        block = Q.block
    else:
        Q = np.asarray(Q, dtype=np.float64)
        if Q.shape != (m, m):
            raise DimensionError(f"Q has shape {Q.shape}, the labels {m} entries")
        if not np.isfinite(Q).all():
            raise InvalidParameterError("Q must be finite")

        def block(idx):
            return Q[idx[:, None], idx]

    matvec = Q.__matmul__
    labels = _BoxEqLabels(y, mu)
    q_lin = 1.0 - p  # minimize F(b) = 0.5 b Q b - q_lin @ b
    half_q = 0.5 * q_lin
    L = _qp_norm(Q, m) if q_norm is None else q_norm
    t_ref = 1.0 / max(L, 1e-12)
    t_min, t_max = 1e-5 * t_ref, 1e5 * t_ref

    beta = project_box_eq(np.zeros(m) if beta0 is None else beta0, labels, mu)
    grad = matvec(beta) - q_lin
    free = (beta > 0.0) & (beta < mu)
    t = t_ref
    f_hist: list[float] = []
    it = faces = 0
    for it in range(1, max_iters + 1):
        beta_new = project_box_eq(beta - t * grad, labels, mu)
        s = beta_new - beta
        ss = float(s @ s)
        # The stop test is pg(t_ref) = ||P(beta - t_ref grad) - beta|| / t_ref
        # <= tol. For feasible beta, ||P(beta - t grad) - beta|| grows and
        # ||P(beta - t grad) - beta|| / t shrinks with t (Calamai & More 1987,
        # Lemma 2.2), so pg(t_ref) >= ||s|| / max(t, t_ref). While that bound
        # clears tol by more than rounding the test cannot stop, and its
        # projection is skipped; at t == t_ref the step is the test's point.
        bound = math.sqrt(ss) / max(t, t_ref)
        if t == t_ref or bound <= _PG_BOUND_MARGIN * tol:
            if t == t_ref:
                pg_norm = math.sqrt(ss) / t_ref
            else:
                d = project_box_eq(beta - t_ref * grad, labels, mu) - beta
                pg_norm = math.sqrt(float(d @ d)) / t_ref  # np.linalg.norm's arithmetic
            if pg_norm <= tol:
                break
        grad_new = matvec(beta_new) - q_lin
        u = grad_new - grad
        su = float(s @ u)
        # min/max on Python floats: np.clip on a scalar costs about 4 us a call
        t = min(max(ss / su, t_min), t_max) if su > 1e-30 else t_ref
        f_new = float(0.5 * beta_new @ grad_new - half_q @ beta_new)
        if f_hist and f_new > max(f_hist[-10:]) + 1e-10 * (1 + abs(f_new)):
            t = t_ref
        f_hist.append(f_new)
        beta, grad = beta_new, grad_new
        # a face step costs about one product while |F|^3 <= m^2: the LU of
        # its (|F| + 1)-square system takes about 2 |F|^3 / 3 flops against
        # 2 m^2 for a dense product, and its own product is gathered at
        # this support
        free_new = (beta > 0.0) & (beta < mu)
        k = np.count_nonzero(free_new)
        if 0 < k and k**3 <= m * m and np.array_equal(free_new, free):
            cand = _face_step(block, beta, grad, labels.y, np.flatnonzero(free_new), mu)
            if cand is not None:
                grad_c = matvec(cand) - q_lin
                f_c = float(0.5 * cand @ grad_c - half_q @ cand)
                if f_c <= f_new:
                    beta, grad, f_hist[-1] = cand, grad_c, f_c
                    faces += 1
                    free_new = (beta > 0.0) & (beta < mu)
        free = free_new
    else:  # the cap: the returned beta's own residual, which may meet tol
        d = project_box_eq(beta - t_ref * grad, labels, mu) - beta
        pg_norm = math.sqrt(float(d @ d)) / t_ref

    obj = float(beta @ np.ones(m) - 0.5 * beta @ matvec(beta) - beta @ p)
    kkt = {
        "eq": float(abs(beta @ y)),
        "box": float(max(0.0, -beta.min(), (beta - mu).max())),
        "stationarity": pg_norm,
    }
    return DualSolution(beta, obj, kkt, it, "tol" if pg_norm <= tol else "cap", faces)


# ---------------------------------------------------------------------------
# simplex projection and renormalization
# ---------------------------------------------------------------------------


def project_simplex(v) -> np.ndarray:
    """Euclidean projection of a vector onto {u : sum(u) = 1, u >= 0}: the
    one-row case of :func:`project_simplex_rows`."""
    return project_simplex_rows(np.ravel(v)[None])[0]


def project_simplex_rows(V) -> np.ndarray:
    """Row-wise simplex projection of an (n, c) array (vectorized Michelot)."""
    V = np.atleast_2d(np.asarray(V, dtype=np.float64))
    n, c = V.shape
    if c < 1:
        raise InvalidParameterError("need at least one coordinate per row")
    active = np.ones_like(V, dtype=bool)
    tau = (V.sum(axis=1) - 1.0) / c
    for _ in range(c + 1):
        keep = active & (V - tau[:, None] > 0.0)
        # rows that converged (or degenerated to empty) stop changing
        done = ~keep.any(axis=1)
        keep[done] = active[done]
        if np.array_equal(keep, active):
            break
        active = keep
        tau = ((V * active).sum(axis=1) - 1.0) / active.sum(axis=1)
    return np.maximum(V - tau[:, None], 0.0)


def normalize_ball_zero_mean(f, scale: float) -> np.ndarray:
    """Rescale to ||f||_2 = scale, then subtract the mean (in that order).

    Raises on NaN, infinite or zero input; a constant input collapses to
    zeros and is flagged with a RuntimeWarning. ``scale`` must be a finite
    positive number. A finite input whose norm overflows to inf or
    underflows to 0 is divided by its largest magnitude first.
    """
    f = np.asarray(f, dtype=np.float64).ravel()
    check_real("scale", scale, 0.0, strict=True)
    with np.errstate(over="ignore"):  # an overflow is handled below
        norm = np.linalg.norm(f)
    if not 0.0 < norm < math.inf:  # finite, nonzero norms skip the scans
        if not np.isfinite(f).all():
            raise NonFiniteInputError("cannot normalize a vector with NaN or infinite entries")
        peak = np.max(np.abs(f), initial=0.0)
        if peak == 0.0:
            raise DegenerateInputError("cannot normalize the zero vector")
        f = f / peak  # the norm over- or underflowed
        norm = np.linalg.norm(f)
    out = (scale / norm) * f
    out = out - out.mean()
    if np.max(np.abs(out)) <= 1e-8:  # np.allclose(out, 0.0), without its overhead
        warnings.warn(
            "constant input collapsed to zero after centering", RuntimeWarning
        )
    return out


def center_median(x) -> float:
    """Median used by the ratio-descent loops: midpoint of the central order
    statistics for even length.

    Any value inside the central interval minimizes the l1 deviation, so the
    ratio energies are unaffected by this choice; the midpoint keeps the
    centering step symmetric on balanced two-level vectors (an endpoint
    median would zero out one class entirely)."""
    x = np.asarray(x, dtype=np.float64).ravel()
    if x.size == 0:
        raise DimensionError("median of empty vector")
    return float(np.median(x))
