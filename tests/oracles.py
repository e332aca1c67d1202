"""Independent reference implementations used to verify the package.

Everything here recomputes results through a different route than the library
(brute-force scans, subgradient descent, active-set enumeration, SLSQP on the
primal), so agreement is meaningful.
"""

import itertools
import types

import numpy as np
import scipy.linalg as sla
import scipy.optimize as sopt
import scipy.sparse as sp


# ---------------------------------------------------------------------------
# kernel oracles
# ---------------------------------------------------------------------------


def sq_dists_two_buffers(a, b):
    """Squared distances ``(|a_i|^2 + |b_j|^2) - 2 a_i . b_j`` clipped at 0,
    each step on a whole n x m array: the norm sums and the doubled product
    in two buffers. The library forms them in one and must match it bit for
    bit."""
    d2 = np.sum(a * a, axis=1)[:, None] + np.sum(b * b, axis=1)[None, :]
    ab = a @ b.T
    ab *= 2.0
    d2 -= ab
    np.maximum(d2, 0.0, out=d2)
    return d2


def median_bandwidth_index_pairs(data, max_points=1000, seed=0):
    """Median pairwise distance through the upper triangle's two index
    arrays, square roots taken of the gathered pairs, on the subsample the
    library draws. The library takes them in its distance buffer and must
    match bit for bit."""
    n = data.shape[0]
    if n > max_points:
        idx = np.random.default_rng(seed).choice(n, size=max_points, replace=False)
        data, n = data[np.sort(idx)], max_points
    iu = np.triu_indices(n, k=1)
    return float(np.median(np.sqrt(sq_dists_two_buffers(data, data)[iu])))


def kernel_expand_out_of_place(alpha, train, query, bandwidth):
    """``exp(-d2 / (2 bandwidth^2)) @ alpha`` with a fresh array per step."""
    d2 = sq_dists_two_buffers(query, train)
    return np.exp(-d2 / (2.0 * bandwidth * bandwidth)) @ alpha


# ---------------------------------------------------------------------------
# graph oracles
# ---------------------------------------------------------------------------


def knn_union_pairs(data, k):
    """Union-symmetrized k-NN edge set via an all-pairs scan."""
    n = len(data)
    pairs = set()
    for i in range(n):
        dists = sorted(
            (float(np.sum((data[i] - data[j]) ** 2)), j) for j in range(n) if j != i
        )
        for _, j in dists[:k]:
            pairs.add((min(i, j), max(i, j)))
    return pairs


def knn_graph_argsort(data, k, m=None, sigma=None):
    """Edges and weights of ``graph.build_knn_graph`` by a full stable argsort
    of each row of squared distances (the construction it used to run):
    self-tuning scales with ``m`` (default ``k``), or a fixed ``sigma``."""
    data = np.asarray(data, dtype=np.float64)
    n = len(data)
    sq = np.sum(data * data, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (data @ data.T)
    np.maximum(d2, 0.0, out=d2)
    np.fill_diagonal(d2, np.inf)
    order = np.argsort(d2, axis=1, kind="stable")
    if sigma is None:
        scale = np.sqrt(d2[np.arange(n), order[:, (k if m is None else m) - 1]])
    else:
        scale = np.full(n, float(sigma))
    rows = np.repeat(np.arange(n), k)
    cols = order[:, :k].ravel()
    keys = np.unique(np.minimum(rows, cols) * n + np.maximum(rows, cols))
    ei, ej = keys // n, keys % n
    w = np.exp(-d2[ei, ej] / (scale[ei] * scale[ej]))
    return ei[w > 0], ej[w > 0], w[w > 0]


def ordered_pair_energy(edge_i, edge_j, edge_w, f, power):
    """Sum of w_ij |f_i - f_j|^power over both orientations, by explicit loop."""
    total = 0.0
    for i, j, w in zip(edge_i, edge_j, edge_w):
        d = abs(f[i] - f[j]) ** power
        total += w * d + w * d
    return total


# ---------------------------------------------------------------------------
# TV prox oracle
# ---------------------------------------------------------------------------


def tv_prox_objective(graph, x, z, weight):
    diff = x[graph.edge_i] - x[graph.edge_j]
    return float(
        2.0 * weight * np.sum(graph.edge_w * np.abs(diff))
        + 0.5 * np.sum((x - z) ** 2)
    )


def tv_prox_subgradient(graph, z, weight, iters=200000):
    """Diminishing-step subgradient descent on the prox objective.

    The quadratic term makes the objective 1-strongly convex, so steps 1/t
    give O(1/t) suboptimality; suitable only for tiny graphs.
    """
    z = np.asarray(z, dtype=float)
    x = z.copy()
    best_x = x.copy()
    best_obj = tv_prox_objective(graph, x, z, weight)
    ei, ej, w = graph.edge_i, graph.edge_j, graph.edge_w
    for t in range(1, iters + 1):
        s = np.sign(x[ei] - x[ej])
        sub = x - z
        np.add.at(sub, ei, 2.0 * weight * w * s)
        np.add.at(sub, ej, -2.0 * weight * w * s)
        x = x - sub / (t + 1.0)
        obj = tv_prox_objective(graph, x, z, weight)
        if obj < best_obj:
            best_obj = obj
            best_x = x.copy()
    return best_x, best_obj


def tv_prox_reference(graph, z, weight, *, tol=1e-6, max_iters=500, q0=None):
    """Per-call, per-iteration form of the library's primal-dual TV prox.

    Rebuilds the difference operator and its norm estimate on every call,
    where the library caches them per graph; both must give the same iterates
    bit for bit. At every 10th iteration and ``max_iters`` it stops when the
    duality gap is at most ``tol``, and nothing else stops it before
    ``max_iters``. A dual start ``q0`` is clipped to the box and the primal
    starts at ``z - D^T q``. Returns ``(x, iterations_run, final_gap, q)``.
    """
    z = np.asarray(z, dtype=np.float64).ravel()
    n = graph.n_nodes
    sw = np.sqrt(graph.edge_w)
    cap = 2.0 * weight * sw
    rows = np.arange(graph.n_edges)
    D = sp.csr_matrix(
        (
            np.concatenate([sw, -sw]),
            (np.concatenate([rows, rows]), np.concatenate([graph.edge_i, graph.edge_j])),
        ),
        shape=(graph.n_edges, n),
    )
    Dt = D.T.tocsr()

    v = np.ones(n) + 1e-3 * np.arange(n)
    v /= np.linalg.norm(v)
    norm_est = 0.0
    for _ in range(20):
        w = Dt @ (D @ v)
        nw = np.linalg.norm(w)
        if nw == 0.0:
            norm_est = 0.0
            break
        norm_est = nw
        v = w / nw
    norm_est = float(norm_est)
    norm_bound = 2.0 * float(np.max(graph.degrees))
    step = 0.99 / np.sqrt(min(max(norm_est, 1e-30), norm_bound))

    if q0 is None:
        q = np.zeros(graph.n_edges)
    else:
        q = np.clip(np.asarray(q0, dtype=np.float64), -cap, cap)
    x = z - Dt @ q
    x_bar = x.copy()
    for it in range(1, max_iters + 1):
        q = np.clip(q + step * (D @ x_bar), -cap, cap)
        x_old = x
        x = (x - step * (Dt @ q) + step * z) / (1.0 + step)
        x_bar = 2.0 * x - x_old
        if it % 10 == 0 or it == max_iters:
            dtq = Dt @ q
            dual = float(dtq @ z - 0.5 * (dtq @ dtq))
            gap = tv_prox_objective(graph, x, z, weight) - dual
            if gap <= tol:
                break
    return x, it, float(max(gap, 0.0)), q


def tv_prox_row_by_row(prox, graph, z, weight, *, tol, max_iters, q0=None):
    """A batched (c, n) TV prox call made as c calls of ``prox`` on 1-D rows;
    ``weight`` and ``tol`` are scalars or one value per row.

    Returns the stacked points and a record with the fields the training
    loops read from a batched call: ``rows`` (one trace per row) and ``q``
    (the (c, E) duals, zero for rows that returned their input).
    """
    z = np.asarray(z, dtype=np.float64)
    c = z.shape[0]
    weights = np.broadcast_to(np.asarray(weight, dtype=np.float64), (c,))
    tols = np.broadcast_to(np.asarray(tol, dtype=np.float64), (c,))
    out = [
        prox(
            graph, z[k], float(weights[k]), tol=float(tols[k]), max_iters=max_iters,
            q0=None if q0 is None else q0[k],
        )
        for k in range(c)
    ]
    rows = [trace for _, trace in out]
    q = None
    if any(t.q is not None for t in rows):
        q = np.stack([np.zeros(graph.n_edges) if t.q is None else t.q for t in rows])
    return np.stack([x for x, _ in out]), types.SimpleNamespace(rows=rows, q=q)


# ---------------------------------------------------------------------------
# linear solve oracle
# ---------------------------------------------------------------------------


def refined_solve_per_column(A, solve_once, b, rtol=1e-8):
    """Solve each column of ``b`` on its own: one solve, then up to two
    refinement steps until ``||b - A x|| <= rtol ||b||``; None where a
    column still misses."""
    cols = []
    for bj in np.asarray(b, dtype=float).T:
        bnorm = np.linalg.norm(bj)
        x = np.zeros_like(bj) if bnorm == 0.0 else solve_once(bj)
        for _ in range(2):
            res = bj - A @ x
            if np.linalg.norm(res) <= rtol * bnorm:
                break
            x = x + solve_once(res)
        if np.linalg.norm(bj - A @ x) > rtol * bnorm:
            return None
        cols.append(x)
    return np.column_stack(cols)


def margin_kernel_n_columns(factor, K):
    """The margin dual's kernel ``S = F^-T K`` by the n-column route: one
    solve of all n columns of K on the factor F (held to the residual
    contract), symmetrized into a fresh buffer. The root route is compared
    with it, and an input too long for that route reproduces it bit for
    bit."""
    S = factor.solve(K, trans=True)
    buf = np.add(S, S.T)
    return np.multiply(buf, 0.5, out=buf)


# ---------------------------------------------------------------------------
# box + equality QP oracle
# ---------------------------------------------------------------------------


def project_box_eq_bisection(v, y, mu):
    """Projection onto {b : b@y = 0, 0 <= b <= mu} by 100 bisection steps on
    the multiplier of the continuous, nonincreasing map
    ``nu -> y @ clip(v - nu*y, 0, mu)``."""
    v = np.asarray(v, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if mu == 0.0:
        return np.zeros_like(v)
    span = float(np.max(np.abs(v))) + mu + 1.0
    lo, hi = -span, span
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if float(y @ np.clip(v - mid * y, 0.0, mu)) > 0.0:
            lo = mid
        else:
            hi = mid
    nu = 0.5 * (lo + hi)
    return np.clip(v - nu * y, 0.0, mu)


def project_box_eq_breakpoints(v, y, mu):
    """Kiwiel's breakpoint search for the projection onto
    {b : b@y = 0, 0 <= b <= mu}, written as one self-contained pass that
    derives every label fact from ``y`` on each call (the form the library
    used before it prepared them once per QP solve). The library's
    projection must give the same bits."""
    v = np.asarray(v, dtype=np.float64).ravel()
    y = np.asarray(y, dtype=np.float64).ravel()
    m = v.size
    pos = y > 0
    n_pos = int(np.count_nonzero(pos))
    if mu == 0.0 or n_pos in (0, m):
        return np.zeros_like(v)
    a = np.where(pos, v - mu, -v)
    t = np.concatenate((a, a + mu))
    order = t.argsort(kind="stable")
    t = t[order]
    slope = np.where(order < m, 1.0, -1.0).cumsum()
    g = np.empty(2 * m)
    g[0] = 0.0
    np.cumsum(slope[:-1] * (t[1:] - t[:-1]), out=g[1:])
    target = mu * n_pos
    k = min(int(np.searchsorted(g, target)), 2 * m - 1)
    nu = t[k - 1]
    if slope[k - 1] > 0.0:
        nu = min(nu + (target - g[k - 1]) / slope[k - 1], t[k])
    # maximum then minimum, not np.clip: the two can differ in a zero's sign
    return np.minimum(np.maximum(v - nu * y, 0.0), mu)


def qp_box_eq_enumerate(Q, p, y, mu):
    """Global maximizer of b@1 - 0.5 b@Q@b - b@p on {b@y=0, 0<=b<=mu} by
    enumerating per-coordinate states (at 0 / at mu / free)."""
    Q = np.asarray(Q, dtype=float)
    y = np.asarray(y, dtype=float)
    m = y.size
    if np.isscalar(p):
        p = np.full(m, float(p))
    q = 1.0 - p

    def objective(b):
        return float(b @ np.ones(m) - 0.5 * b @ Q @ b - b @ p)

    best_obj, best_b = -np.inf, None
    for states in itertools.product((0, 1, 2), repeat=m):
        b = np.zeros(m)
        free = [i for i, s in enumerate(states) if s == 2]
        for i, s in enumerate(states):
            if s == 1:
                b[i] = mu
        if free:
            F = np.array(free)
            nf = F.size
            # stationarity on the free block plus the equality row
            A = np.zeros((nf + 1, nf + 1))
            A[:nf, :nf] = Q[np.ix_(F, F)]
            A[:nf, nf] = y[F]
            A[nf, :nf] = y[F]
            rhs = np.zeros(nf + 1)
            rhs[:nf] = q[F] - Q[np.ix_(F, np.flatnonzero(b))] @ b[b != 0]
            rhs[nf] = -float(y @ b)
            try:
                sol = np.linalg.solve(A, rhs)
            except np.linalg.LinAlgError:
                continue
            b[F] = sol[:nf]
            if np.any(b[F] < -1e-9) or np.any(b[F] > mu + 1e-9):
                continue
            b[F] = np.clip(b[F], 0.0, mu)
        if abs(float(y @ b)) > 1e-8 * max(1.0, mu):
            continue
        obj = objective(b)
        if obj > best_obj:
            best_obj, best_b = obj, b.copy()
    return best_b, best_obj


def _face_newton_step(Q, beta, grad, y, free, mu):
    """The library's face step, written plainly: solve the KKT system of
    the face's quadratic with the equality row by LU, walk the Newton
    direction to the first bound (at most a full step) and put that
    coordinate on it. None when the system is singular to working precision
    (reciprocal condition number below machine epsilon)."""
    k = len(free)
    Q_ff = Q.block(free) if hasattr(Q, "block") else np.asarray(Q)[np.ix_(free, free)]
    A = np.zeros((k + 1, k + 1))
    A[:k, :k] = Q_ff
    A[:k, k] = y[free]
    A[k, :k] = y[free]
    rhs = np.zeros(k + 1)
    rhs[:k] = -grad[free]
    lu, _piv, x, info = sla.lapack.dgesv(A, rhs)
    if info != 0:
        return None  # an exactly zero pivot
    rcond, _ = sla.lapack.dgecon(lu, np.linalg.norm(A, 1))
    if rcond < np.finfo(float).eps:
        return None
    d = x[:k]
    if not np.all(np.isfinite(d)):
        return None
    a, blocking = np.inf, None
    for i in range(k):
        b_i = beta[free[i]]
        if d[i] < 0.0:
            a_i = -b_i / d[i]
        elif d[i] > 0.0:
            a_i = (mu - b_i) / d[i]
        else:
            continue
        if a_i < a:
            a, blocking = a_i, i
    if blocking is not None and a > 1.0:
        blocking = None
    a = min(a, 1.0)
    if not a > 0.0:
        return None
    new = beta.copy()
    new[free] = np.minimum(np.maximum(beta[free] + a * d, 0.0), mu)
    if blocking is not None:
        new[free[blocking]] = 0.0 if d[blocking] < 0.0 else mu
    return new


def qp_box_eq_two_projections(
    Q, p, y, mu, project, *, tol=1e-6, max_iters=5000, beta0=None, face_steps=True
):
    """The library's projected-gradient dual solver in its two-projection form.

    Every iteration projects at the reference step ``1/L`` for the stop test
    and again at the Barzilai-Borwein step for the move. The library skips
    the first projection when the second already decides the test, which
    must leave every iterate unchanged; with the same ``project`` both give
    the same results bit for bit. After a step that keeps the free set
    ``{i : 0 < b_i < mu}`` of its start (nonempty, of size ``k`` with
    ``k**3 <= m**2``), the Newton step on that face is kept if it does not
    raise the objective; ``face_steps=False`` leaves it out. After the cap,
    the residual is the returned point's, and the solve counts as "tol" if
    it meets ``tol``. Returns ``(beta, objective, kkt_residuals, iterations,
    stop_reason, face_steps_kept)``.
    """
    y = np.asarray(y, dtype=np.float64).ravel()
    m = y.size
    p = np.full(m, float(p)) if np.isscalar(p) else np.asarray(p, dtype=np.float64).ravel()
    q_lin = 1.0 - p

    def matvec(b):
        return np.asarray(Q @ b).ravel()

    def free_set(b):
        return np.flatnonzero((b > 0.0) & (b < mu))

    v = np.ones(m) + 1e-3 * np.arange(m)
    v /= np.linalg.norm(v)
    L = 0.0
    for _ in range(30):
        w = matvec(v)
        nw = np.linalg.norm(w)
        if nw == 0.0:
            L = 0.0
            break
        L = nw
        v = w / nw
    t_ref = 1.0 / max(float(L), 1e-12)

    beta = project(np.zeros(m) if beta0 is None else beta0, y, mu)
    grad = matvec(beta) - q_lin
    t = t_ref
    f_hist = []
    stop_reason = "cap"
    it = kept = 0
    for it in range(1, max_iters + 1):
        ref = project(beta - t_ref * grad, y, mu)
        pg_norm = float(np.linalg.norm(ref - beta) / t_ref)
        if pg_norm <= tol:
            stop_reason = "tol"
            break
        beta_new = project(beta - t * grad, y, mu)
        s = beta_new - beta
        grad_new = matvec(beta_new) - q_lin
        u = grad_new - grad
        su = float(s @ u)
        if su > 1e-30:
            t = float(np.clip((s @ s) / su, 1e-5 * t_ref, 1e5 * t_ref))
        else:
            t = t_ref
        f_new = float(0.5 * beta_new @ grad_new - 0.5 * q_lin @ beta_new)
        if f_hist and f_new > max(f_hist[-10:]) + 1e-10 * (1 + abs(f_new)):
            t = t_ref
        f_hist.append(f_new)
        free = free_set(beta_new)
        settled = np.array_equal(free, free_set(beta)) and 0 < len(free) and len(free) ** 3 <= m * m
        beta, grad = beta_new, grad_new
        if face_steps and settled:
            cand = _face_newton_step(Q, beta, grad, y, free, mu)
            if cand is not None:
                grad_c = matvec(cand) - q_lin
                f_c = float(0.5 * cand @ grad_c - 0.5 * q_lin @ cand)
                if f_c <= f_new:
                    beta, grad, f_hist[-1] = cand, grad_c, f_c
                    kept += 1
    else:
        ref = project(beta - t_ref * grad, y, mu)
        pg_norm = float(np.linalg.norm(ref - beta) / t_ref)
        if pg_norm <= tol:
            stop_reason = "tol"

    obj = float(beta @ np.ones(m) - 0.5 * beta @ matvec(beta) - beta @ p)
    kkt = {
        "eq": float(abs(beta @ y)),
        "box": float(max(0.0, -beta.min(), (beta - mu).max())),
        "stationarity": pg_norm,
    }
    return beta, obj, kkt, it, stop_reason, kept


# ---------------------------------------------------------------------------
# primal oracles for the margin subproblems (SLSQP)
# ---------------------------------------------------------------------------


def margin_primal_slsqp(K, y, lam, mu, graph=None, gamma=0.0, r=0.0, target=None):
    """Minimize over (alpha, slack, bias):

        lam/2 a'Ka + mu*sum(slack) + gamma * sum_ordered w_ij (f_i-f_j)^2 / ...
        + r/2 ||f - target||^2,   f = K a
        s.t.  y_i (f_i + bias) >= 1 - slack_i,  slack >= 0

    where the graph term is gamma times the ordered-pair Dirichlet sum.
    Returns (f, objective).
    """
    K = np.asarray(K, dtype=float)
    y = np.asarray(y, dtype=float)
    n = y.size
    if target is None:
        target = np.zeros(n)
    if graph is not None and gamma > 0:
        import scipy.sparse as sp

        W = sp.csr_matrix(
            (
                np.concatenate([graph.edge_w, graph.edge_w]),
                (
                    np.concatenate([graph.edge_i, graph.edge_j]),
                    np.concatenate([graph.edge_j, graph.edge_i]),
                ),
            ),
            shape=(n, n),
        )
        L = (sp.diags(np.asarray(W.sum(axis=1)).ravel()) - W).toarray()
    else:
        L = None

    def unpack(x):
        return x[:n], x[n : 2 * n], x[2 * n]

    def fun(x):
        a, xi, b = unpack(x)
        f = K @ a
        val = 0.5 * lam * a @ K @ a + mu * xi.sum()
        if L is not None:
            # half the ordered-pair Dirichlet sum, i.e. gamma * f'Lf
            val += gamma * (f @ L @ f)
        if r > 0:
            val += 0.5 * r * np.sum((f - target) ** 2)
        return float(val)

    def jac(x):
        a, xi, b = unpack(x)
        f = K @ a
        ga = lam * (K @ a)
        if L is not None:
            ga = ga + 2.0 * gamma * (K @ (L @ f))
        if r > 0:
            ga = ga + r * (K @ (f - target))
        return np.concatenate([ga, np.full(n, mu), [0.0]])

    def cons_fun(x):
        a, xi, b = unpack(x)
        return y * (K @ a + b) - 1.0 + xi

    def cons_jac(x):
        J = np.zeros((n, 2 * n + 1))
        J[:, :n] = y[:, None] * K
        J[:, n : 2 * n] = np.eye(n)
        J[:, 2 * n] = y
        return J

    x0 = np.concatenate([np.zeros(n), np.ones(n), [0.0]])
    bounds = [(None, None)] * n + [(0.0, None)] * n + [(None, None)]
    res = sopt.minimize(
        fun,
        x0,
        jac=jac,
        bounds=bounds,
        constraints=[{"type": "ineq", "fun": cons_fun, "jac": cons_jac}],
        method="SLSQP",
        options={"ftol": 1e-14, "maxiter": 2000},
    )
    a, xi, b = unpack(res.x)
    return K @ a, float(res.fun), float(b)


def value_prox_primal_slsqp(e, y, r2, mu):
    """Minimize over (h, slack, bias): mu*sum(slack) + r2/2 ||h - e||^2 under
    the margin constraints. Returns (h, objective)."""
    e = np.asarray(e, dtype=float)
    y = np.asarray(y, dtype=float)
    n = y.size

    def unpack(x):
        return x[:n], x[n : 2 * n], x[2 * n]

    def fun(x):
        h, xi, b = unpack(x)
        return float(mu * xi.sum() + 0.5 * r2 * np.sum((h - e) ** 2))

    def jac(x):
        h, xi, b = unpack(x)
        return np.concatenate([r2 * (h - e), np.full(n, mu), [0.0]])

    def cons_fun(x):
        h, xi, b = unpack(x)
        return y * (h + b) - 1.0 + xi

    def cons_jac(x):
        J = np.zeros((n, 2 * n + 1))
        J[:, :n] = np.diag(y)
        J[:, n : 2 * n] = np.eye(n)
        J[:, 2 * n] = y
        return J

    x0 = np.concatenate([e, np.maximum(0.0, 1.0 - y * e), [0.0]])
    bounds = [(None, None)] * n + [(0.0, None)] * n + [(None, None)]
    res = sopt.minimize(
        fun,
        x0,
        jac=jac,
        bounds=bounds,
        constraints=[{"type": "ineq", "fun": cons_fun, "jac": cons_jac}],
        method="SLSQP",
        options={"ftol": 1e-14, "maxiter": 2000},
    )
    h, xi, b = unpack(res.x)
    return h, float(res.fun)


def margin_objective_with_best_bias(K_or_none, y, lam, mu, f, alpha=None, graph=None,
                                    gamma=0.0, r=0.0, target=None, value_only=False):
    """Evaluate the margin subproblem objective at a given f, optimizing the
    bias and slack exactly (slack-sum is piecewise linear in the bias, so the
    minimum sits at a breakpoint)."""
    y = np.asarray(y, dtype=float)
    f = np.asarray(f, dtype=float)
    breakpoints = (1.0 - y * f) * y  # b making constraint i tight
    candidates = np.concatenate([breakpoints, [0.0]])
    best = np.inf
    for b in candidates:
        s = float(np.sum(np.maximum(0.0, 1.0 - y * (f + b))))
        if s < best:
            best = s
    val = mu * best
    if not value_only:
        val += 0.5 * lam * alpha @ (K_or_none @ alpha)
    if graph is not None and gamma > 0:
        diff = f[graph.edge_i] - f[graph.edge_j]
        val += gamma * float(np.sum(graph.edge_w * diff * diff))
    if r > 0:
        val += 0.5 * r * float(np.sum((f - np.asarray(target)) ** 2))
    return float(val)


# ---------------------------------------------------------------------------
# simplex projection oracle
# ---------------------------------------------------------------------------


def sort_simplex_projection(v):
    """Sort-and-threshold projection onto the probability simplex."""
    v = np.asarray(v, dtype=float)
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    rho = np.max(np.flatnonzero(u * np.arange(1, v.size + 1) > css - 1.0))
    theta = (css[rho] - 1.0) / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


# ---------------------------------------------------------------------------
# least-squares oracles
# ---------------------------------------------------------------------------


def rls_gradient_descent(K, y, eta, lam, iters=300000, tol=1e-12):
    """Accelerated gradient descent on eta/2 ||y - K a||^2 + lam/2 a'Ka."""
    K = np.asarray(K, dtype=float)
    y = np.asarray(y, dtype=float)
    a = np.zeros_like(y)
    v = a.copy()
    lip = eta * np.linalg.norm(K, 2) ** 2 + lam * np.linalg.norm(K, 2)
    step = 1.0 / lip
    t = 1.0
    for _ in range(iters):
        grad = eta * K @ (K @ v - y) + lam * (K @ v)
        a_new = v - step * grad
        t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        v = a_new + ((t - 1.0) / t_new) * (a_new - a)
        a, t = a_new, t_new
        if np.linalg.norm(grad) < tol:
            break
    return a


def masked_rls_alpha(K, y_ext, mask, eta, lam):
    """Direct solve of the label-masked ridge system."""
    n = len(y_ext)
    M = eta * (np.asarray(mask, float)[:, None] * K) + lam * np.eye(n)
    return np.linalg.solve(M, eta * np.asarray(y_ext, float))


def lap_rls_objective(K, graph, y_ext, mask, eta, lam, gamma, alpha):
    """Objective with the ordered-pair Dirichlet convention."""
    f = K @ alpha
    fit = f[mask] - y_ext[mask]
    diff = f[graph.edge_i] - f[graph.edge_j]
    return float(
        0.5 * eta * fit @ fit
        + 0.5 * lam * alpha @ (K @ alpha)
        + gamma * np.sum(graph.edge_w * diff * diff)
    )


def tv_rls_objective(K, graph, y_ext, mask, eta, lam, gamma, f, alpha=None):
    """TV-regularized least-squares objective at node values f."""
    if alpha is None:
        alpha = np.linalg.solve(K + 1e-10 * np.eye(len(f)), f)
    fit = f[mask] - y_ext[mask]
    diff = np.abs(f[graph.edge_i] - f[graph.edge_j])
    return float(
        0.5 * eta * fit @ fit
        + 0.5 * lam * alpha @ (K @ alpha)
        + 2.0 * gamma * np.sum(graph.edge_w * diff)
    )


def exhaustive_two_level_ratio(graph):
    """Best two-level cut of a small graph by enumerating all sign patterns,
    scoring the ratio of ordered-pair TV to l1 deviation from the median."""
    n = graph.n_nodes
    best = (np.inf, None)
    for bits in range(1, 2**n - 1):
        f = np.array([1.0 if (bits >> i) & 1 else -1.0 for i in range(n)])
        dev = np.sum(np.abs(f - np.median(f)))
        if dev <= 0:
            continue
        diff = np.abs(f[graph.edge_i] - f[graph.edge_j])
        ratio = 2.0 * np.sum(graph.edge_w * diff) / dev
        if ratio < best[0]:
            best = (ratio, f)
    return best
