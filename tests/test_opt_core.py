import copy
import warnings

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from tvssl.errors import (
    DegenerateInputError,
    DimensionError,
    FactorizationError,
    InvalidParameterError,
    NonFiniteInputError,
)
from tvssl import opt_core
from tvssl.binary import _SignedKernel
from tvssl.data_io import make_two_moons
from tvssl.graph import SimilarityGraph, build_knn_graph
from tvssl.opt_core import (
    DiagLaplacian,
    HyperParams,
    LuFactor,
    SpdFactor,
    center_median,
    normalize_ball_zero_mean,
    project_box_eq,
    project_simplex,
    project_simplex_rows,
    qp_box_eq,
    tv_prox,
)

from oracles import (
    project_box_eq_bisection,
    project_box_eq_breakpoints,
    qp_box_eq_enumerate,
    qp_box_eq_two_projections,
    refined_solve_per_column,
    sort_simplex_projection,
    tv_prox_objective,
    tv_prox_reference,
    tv_prox_row_by_row,
    tv_prox_subgradient,
)


def random_spd(n, seed, cond=10.0):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, n))
    return A @ A.T + cond * np.eye(n)


def plain_factor(factor_cls, A):
    """``factor_cls`` of the system ``0 I + I A``, which it builds as a copy
    of A: its residuals are ``A X``, and for a symmetric A its transposed
    ones too."""
    A = np.asarray(A, dtype=np.float64)
    return factor_cls(0.0, DiagLaplacian(A.shape[0], r=1.0), A)


def kernel_system(n, seed, lam=0.05):
    """``lam``, a :class:`DiagLaplacian` ``D = 2 J + 0.5 I + 0.4 L`` over a
    random mask and a path graph's Laplacian, an SPD K and the dense
    ``F = lam I + D K``, which is not symmetric."""
    rng = np.random.default_rng(seed)
    K = random_spd(n, seed, cond=1.0)
    L = path_graph(rng.uniform(0.5, 1.5, n - 1)).laplacian()
    mask = rng.random(n) < 0.5
    D = DiagLaplacian(n, r=0.5, eta=2.0, mask=mask, laplacian=L, weight=0.4)
    F = lam * np.eye(n) + (2.0 * mask + 0.5)[:, None] * K + 0.4 * (L @ K)
    return lam, D, K, F


def path_graph(weights):
    n = len(weights) + 1
    return SimilarityGraph(
        n, np.arange(n - 1), np.arange(1, n), np.asarray(weights, float)
    )


# ---------------------------------------------------------------------------
# HyperParams
# ---------------------------------------------------------------------------


def test_hyperparams_validation():
    HyperParams()  # defaults are valid
    with pytest.raises(InvalidParameterError):
        HyperParams(lam=0.0)
    with pytest.raises(InvalidParameterError):
        HyperParams(gamma=-0.1)
    with pytest.raises(InvalidParameterError):
        HyperParams(outer_iters=0)


@pytest.mark.parametrize(
    "field, value",
    [
        ("outer_iters", 2.5),
        ("inner_iters", 150.0),
        ("outer_iters", True),
        ("lam", float("nan")),
        ("gamma", float("nan")),
        ("tol", float("inf")),
        ("mu", "1.0"),
        ("c", True),
        ("normalize", 1),
        ("normalize", "false"),
        ("normalize", None),
    ],
)
def test_hyperparams_rejects_wrong_types_and_non_finite_values(field, value):
    with pytest.raises(InvalidParameterError, match=field):
        HyperParams(**{field: value})
    with pytest.raises(InvalidParameterError, match=field):
        HyperParams.from_dict({field: value}, "a config")


def test_hyperparams_accepts_numpy_scalars():
    hp = HyperParams(lam=np.float64(0.5), outer_iters=np.int64(3), normalize=np.bool_(False))
    assert hp.lam == 0.5 and hp.outer_iters == 3 and not hp.normalize


RETIRED = {"norm_scale": "sqrt_n", "use_bias": False, "simplex_last": False}


@pytest.mark.parametrize("key", sorted(RETIRED))
def test_from_dict_drops_a_retired_key_at_its_hard_wired_value(key):
    assert HyperParams.from_dict({key: RETIRED[key], "lam": 0.5}, "a config") == HyperParams(lam=0.5)
    with pytest.raises(TypeError):
        HyperParams(**{key: RETIRED[key]})  # no longer a field


@pytest.mark.parametrize(
    "key, value",
    [
        ("norm_scale", "n"),
        ("norm_scale", None),
        ("use_bias", True),
        ("use_bias", 0),
        ("use_bias", "false"),
        ("simplex_last", True),
        ("simplex_last", np.bool_(False)),
    ],
)
def test_from_dict_rejects_a_retired_key_at_any_other_value(key, value):
    with pytest.raises(InvalidParameterError, match=f"'{key}' for a config"):
        HyperParams.from_dict({key: value}, "a config")


# ---------------------------------------------------------------------------
# linear solves
# ---------------------------------------------------------------------------


def test_solve_identity():
    b = np.array([3.0, -1.0, 2.0])
    assert np.allclose(plain_factor(SpdFactor, np.eye(3)).solve(b), b)


def test_solve_diagonal():
    assert np.allclose(
        plain_factor(SpdFactor, 2.0 * np.eye(3)).solve(np.array([2.0, 4.0, 6.0])),
        [1.0, 2.0, 3.0],
    )


def test_solve_random_spd_residual():
    for seed in range(8):
        n = 10
        A = random_spd(n, seed)
        b = np.random.default_rng(seed + 100).normal(size=n)
        x = plain_factor(SpdFactor, A).solve(b)
        assert np.linalg.norm(A @ x - b) <= 1e-8 * np.linalg.norm(b)


def test_solve_routes_nonsymmetric_to_lu():
    lam, D, K, M = kernel_system(12, 5)
    b = np.random.default_rng(3).normal(size=12)
    x = LuFactor(lam, D, K).solve(b)
    assert np.linalg.norm(M @ x - b) <= 1e-8 * np.linalg.norm(b)


def test_spd_factor_jitter_then_error():
    # PSD singular: jitter saves it
    A = np.ones((3, 3))
    x = plain_factor(SpdFactor, A + np.eye(3)).solve(np.ones(3))
    assert np.all(np.isfinite(x))
    # indefinite: must raise
    with pytest.raises(FactorizationError):
        plain_factor(SpdFactor, np.diag([1.0, -1.0]))


def test_lu_factor_transposed_solve():
    # a transposed solve meets the contract against F^T, the transpose of
    # the nonsymmetric lam I + D K, column by column, at n = 6 and n = 300
    for n in (6, 300):
        _check_transposed_solve(n)


def _check_transposed_solve(n):
    lam, D, K, A = kernel_system(n, 9)
    B = np.random.default_rng(9).normal(size=(n, 3))
    lu = LuFactor(lam, D, K)
    X = lu.solve(B, trans=True)
    assert np.all(np.linalg.norm(A.T @ X - B, axis=0) <= 1e-8 * np.linalg.norm(B, axis=0))
    x = lu.solve(B[:, 0], trans=True)
    assert np.linalg.norm(A.T @ x - B[:, 0]) <= 1e-8 * np.linalg.norm(B[:, 0])
    assert np.linalg.norm(A @ x - B[:, 0]) > 1e-3 * np.linalg.norm(B[:, 0])  # F is not symmetric


def test_zero_rhs_gives_zero():
    assert np.all(plain_factor(SpdFactor, random_spd(4, 0)).solve(np.zeros(4)) == 0.0)


@pytest.mark.parametrize("terms", ["r", "mask", "laplacian", "mask_r", "r_laplacian", "all", "none"])
@pytest.mark.parametrize("n", [7, 300])
def test_system_is_the_whole_matrix_sum_bit_for_bit_in_every_block(terms, n):
    # F is D's own product with K plus lam on the diagonal, in one C-ordered
    # array, and each block of its columns is D's product with that block of
    # K: the sums the factors' residual checks form. K is not symmetric and
    # has negative entries and signed zeros
    rng = np.random.default_rng(n)
    K = rng.normal(size=(n, n))
    K[rng.random((n, n)) < 0.05] = -0.0
    L = path_graph(rng.uniform(0.5, 1.5, n - 1)).laplacian()
    weight = 0.9 if "laplacian" in terms or terms == "all" else 0.0
    D = DiagLaplacian(
        n,
        r=0.7 if "r" in terms.split("_") or terms == "all" else 0.0,
        eta=1.3,
        mask=rng.random(n) < 0.3 if "mask" in terms or terms == "all" else None,
        laplacian=L,
        weight=weight,
    )
    F = D.system(0.25, K)
    assert F.flags.c_contiguous and F.shape == (n, n)
    want = D @ K
    want[np.diag_indices(n)] += 0.25
    assert F.tobytes() == want.tobytes()
    for lo, hi in ((0, 1), (1, n // 2), (n // 2, n)):
        block = D @ K[:, lo:hi]
        block[np.arange(lo, hi), np.arange(hi - lo)] += 0.25
        assert np.ascontiguousarray(F[:, lo:hi]).tobytes() == block.tobytes()
    # D @ X is the dense (diag + weight L) X up to rounding, for a vector and a block
    dense = np.diag(D.diag) + weight * L.toarray()
    for X in (rng.normal(size=n), rng.normal(size=(n, 3)), np.asfortranarray(rng.normal(size=(n, 4)))):
        np.testing.assert_allclose(D @ X, dense @ X, rtol=1e-13, atol=1e-13)


def _path_laplacian_and_block(n, seed):
    """A path graph's Laplacian on n nodes whose last node is isolated, so L
    stores no diagonal entry in its row, and an (n, 5) block with -0.0s."""
    rng = np.random.default_rng(seed)
    L = SimilarityGraph(
        n, np.arange(n - 2), np.arange(1, n - 1), rng.uniform(0.5, 1.5, n - 2)
    ).laplacian()
    X = rng.normal(size=(n, 5))
    X[rng.random((n, 5)) < 0.2] = -0.0
    return L, X


@pytest.mark.parametrize("weight, r", [(0.0, 0.0), (0.0, 0.7), (0.9, 0.0)])
def test_maskless_product_is_scipys_r_identity_plus_weighted_laplacian_bit_for_bit(r, weight):
    # with at most one of the two terms, D @ X gives the sums of scipy's r I + weight L
    n = 40
    L, X = _path_laplacian_and_block(n, 5)
    D = DiagLaplacian(n, r=r, laplacian=L, weight=weight)
    scipy_D = sp.identity(n, format="csr") * r
    if weight > 0:
        scipy_D = scipy_D + weight * L
    for x in (X, X[:, 0], np.asfortranarray(X)):
        assert (D @ x).tobytes() == (scipy_D @ x).tobytes()


def test_product_adds_the_weighted_laplacian_to_the_diagonal_term():
    # with both: d * x, then each stored entry of weight L times x in row order
    n, r, weight = 40, 0.7, 0.9
    L, X = _path_laplacian_and_block(n, 5)
    D = DiagLaplacian(n, r=r, laplacian=L, weight=weight)
    want = r * X + 0.0
    for i in range(n):
        for k in range(L.indptr[i], L.indptr[i + 1]):
            want[i] += (weight * L.data[k]) * X[L.indices[k]]
    for x, w in ((X, want), (X[:, 0], want[:, 0]), (np.asfortranarray(X), want)):
        assert (D @ x).tobytes() == np.ascontiguousarray(w).tobytes()


def test_perfbench_tracer_wraps_each_factor_and_restores_it(monkeypatch):
    """perfbench's tracer wraps the ``__init__`` and ``solve`` that each
    factor class holds in its own dict; one only inherited stops it
    installing."""
    import pathlib
    import tvssl.bench_cli  # noqa: F401  the tracer patches every layer module

    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).resolve().parents[1] / "perfbench"))
    from tracer import Tracer

    solves = SpdFactor.solve, LuFactor.solve
    tracer = Tracer()
    tracer.phase = "pass"
    tracer.install()
    try:
        plain_factor(SpdFactor, random_spd(5, 0)).solve(np.ones(5))
        plain_factor(LuFactor, random_spd(5, 1)).solve(np.ones((5, 2)), trans=True)
    finally:
        tracer.uninstall()
    table = tracer.layer_table("pass")
    for name in ("SpdFactor", "LuFactor"):
        assert table[f"opt_core.{name}.factor"]["calls"] == 1
    assert table["opt_core.SpdFactor.solve"]["extras"] == [{"cols": 1}]
    assert table["opt_core.LuFactor.solve"]["extras"] == [{"cols": 2}]
    assert (SpdFactor.solve, LuFactor.solve) == solves


def test_spd_jitter_retry_factors_exactly_the_rebuilt_matrix_plus_jitter(monkeypatch):
    # lam I + 4 K for a PSD K with an all-ones block: the in-place Cholesky
    # fails at its second pivot after overwriting the first row, so the
    # retry must factor F built again plus the jitter, not what is left
    n = 6
    K = np.zeros((n, n))
    K[:4, :4] = 1.0
    K[4:, 4:] = np.eye(2)
    D = DiagLaplacian(n, r=4.0)
    F_ref = 4.0 * K
    handed, left = [], []
    real = sla.cho_factor

    def spy(a, *args, **kwargs):
        handed.append(np.array(a))
        try:
            return real(a, *args, **kwargs)
        except np.linalg.LinAlgError:
            left.append(np.array(a))
            raise

    monkeypatch.setattr(sla, "cho_factor", spy)
    f = SpdFactor(0.0, D, K)
    jitter = 1e-10 * np.trace(F_ref) / n
    assert len(handed) == 2 and len(left) == 1
    assert handed[0].tobytes() == F_ref.tobytes()
    assert left[0].tobytes() != F_ref.tobytes()  # the failed factorization wrote into F
    assert handed[1].tobytes() == (F_ref + jitter * np.eye(n)).tobytes()
    b = F_ref @ np.arange(1.0, n + 1.0)  # in the range of the singular F
    x = f.solve(b)
    assert np.linalg.norm(F_ref @ x - b) <= 1e-8 * np.linalg.norm(b)


def _mismatched(factor_cls, lam, D, K, delta):
    """A factor of ``A + delta * e0 e0^T`` that checks residuals against
    ``A = lam I + D K``: it is built with a copy of D whose ``system`` adds
    ``delta`` at (0, 0) while its product ``D @ X`` stays exact. Its plain
    solve is exact on columns A e_j, j > 0, and inexact on any column whose
    solution has a nonzero first entry."""
    D = copy.copy(D)
    build = D.system

    def system(lam, K):
        F = build(lam, K)
        F[0, 0] += delta
        return F

    D.system = system
    return factor_cls(lam, D, K)


@pytest.mark.parametrize("kind", ["spd", "lu", "lu_trans"])
def test_block_solve_refines_only_missing_columns(kind):
    n = 8
    if kind == "spd":
        lam, D, K = 0.0, DiagLaplacian(n, r=1.0), random_spd(n, 3)
        A = K
    else:
        lam, D, K, A = kernel_system(n, 3)
    trans = kind == "lu_trans"
    At = A.T if trans else A
    f = _mismatched(
        SpdFactor if kind == "spd" else LuFactor, lam, D, K, 1e-6 * np.linalg.norm(A)
    )
    rng = np.random.default_rng(4)
    # a column needing refinement, a zero column, a column exact at once, two random
    B = np.column_stack([At[:, 0], np.zeros(n), At[:, 2], rng.normal(size=(n, 2))])

    def once(rhs):
        return f._solve_once(rhs, trans)

    plain = np.linalg.norm(B - At @ once(B), axis=0)
    assert plain[0] > 1e-8 * np.linalg.norm(B[:, 0])  # the case needs refinement
    assert plain[2] <= 1e-8 * np.linalg.norm(B[:, 2])  # and this one does not

    X = f.solve(B, trans=True) if trans else f.solve(B)
    assert X.shape == B.shape
    for j in range(B.shape[1]):
        assert np.linalg.norm(At @ X[:, j] - B[:, j]) <= 1e-8 * np.linalg.norm(B[:, j])
    assert np.all(X[:, 1] == 0.0)
    ref = refined_solve_per_column(At, once, B)
    assert np.linalg.norm(X - ref) <= 1e-12 * np.linalg.norm(ref)
    one = [f.solve(B[:, j], trans=True) if trans else f.solve(B[:, j]) for j in range(B.shape[1])]
    assert np.linalg.norm(X - np.column_stack(one)) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("factor_cls", [SpdFactor, LuFactor])
def test_block_solve_raises_when_refinement_fails(factor_cls):
    A = random_spd(6, 5)
    f = _mismatched(factor_cls, 0.0, DiagLaplacian(6, r=1.0), A, 50.0 * np.linalg.norm(A))
    B = np.column_stack([A[:, 1], A[:, 0]])  # the second column cannot converge
    with pytest.raises(FactorizationError):
        f.solve(B)
    with pytest.raises(FactorizationError):
        f.solve(B[:, 1])


@pytest.mark.parametrize("b", [np.ones(2), np.ones((2, 3))], ids=["1d", "2d"])
def test_singular_lu_solve_raises(b):
    # the factor is rejected when it is built, before any solve, and scipy's
    # LinAlgWarning does not leak (its solve returned [-inf, inf], whose NaN
    # residual once passed `norm > bound`)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FactorizationError):
            plain_factor(LuFactor, np.array([[1.0, 2.0], [2.0, 4.0]])).solve(b)


@pytest.mark.parametrize("b", [np.ones(2), np.ones((2, 3))], ids=["1d", "2d"])
@pytest.mark.parametrize("factor_cls", [SpdFactor, LuFactor])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("where", [(0, 0), (1, 1), (0, 1), (1, 0)])
def test_factors_reject_a_non_finite_matrix_when_built(where, bad, factor_cls, b):
    # the non-finite entry comes in through K, and so into the F each builds
    A = np.array([[2.0, 0.5], [0.5, 1.0]])
    A[where] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning from a solve's residual
        with pytest.raises(FactorizationError):
            plain_factor(factor_cls, A)
        with pytest.raises(FactorizationError):
            plain_factor(factor_cls, A).solve(b)


def _root_system(n=80, rank=12, seed=2):
    """``lam``, a sparse symmetric PSD D, a Gram matrix of the given rank and
    its exact root."""
    rng = np.random.default_rng(seed)
    C = rng.normal(size=(n, rank)) / np.sqrt(rank)
    g = build_knn_graph(rng.normal(size=(n, 2)), 5)
    D = 0.5 * sp.identity(n, format="csr") + 2.0 * g.laplacian()
    return 1e-2, D, C @ C.T, C


@pytest.mark.parametrize("b_cols", [0, 3])
def test_root_factor_solves_against_the_full_system(b_cols):
    lam, D, K, C = _root_system()
    F = lam * np.eye(K.shape[0]) + D @ K
    b = np.random.default_rng(5).normal(size=(K.shape[0], b_cols) if b_cols else K.shape[0])
    f = opt_core.RootFactor(lam, D, K, C)
    x = f.solve(b)
    assert x.shape == b.shape
    res = (F @ x - b).reshape(K.shape[0], -1)
    bn = np.linalg.norm(b.reshape(K.shape[0], -1), axis=0)
    assert np.all(np.linalg.norm(res, axis=0) <= 1e-8 * bn)
    assert f.refined_cols == 0 and f.kernel_misses() == 0
    # F is not symmetric; its transposed solve starts from (I - G G^T D) / lam
    x = f.solve(b, trans=True)
    res = (F.T @ x - b).reshape(K.shape[0], -1)
    assert np.all(np.linalg.norm(res, axis=0) <= 1e-8 * bn)
    assert f.refined_cols == 0
    # the dual kernel G G^T is F^-T K
    S = f.G @ f.G.T
    assert np.array_equal(S, S.T)
    assert np.linalg.norm(F.T @ S - K) <= 1e-10 * np.linalg.norm(K)


def test_root_factor_refines_a_stale_root_and_rejects_its_kernel():
    lam, D, K, C = _root_system()
    n = K.shape[0]
    K_full = K + 1e-7 * np.eye(n)  # the root no longer spans K
    F = lam * np.eye(n) + D @ K_full
    f = opt_core.RootFactor(lam, D, K_full, C)
    b = np.random.default_rng(6).normal(size=(n, 4))
    x = f.solve(b)
    assert np.all(np.linalg.norm(F @ x - b, axis=0) <= 1e-8 * np.linalg.norm(b, axis=0))
    assert f.refined_cols == 4
    assert f.kernel_misses() == n


def test_root_factor_rejects_an_indefinite_reduced_system():
    lam, D, K, C = _root_system()
    with pytest.raises(FactorizationError):
        opt_core.RootFactor(lam, -D, K, C)  # lam I - C^T D C is indefinite


# ---------------------------------------------------------------------------
# tv_prox
# ---------------------------------------------------------------------------


def test_tv_prox_edgeless_returns_input():
    g = SimilarityGraph(4, [], [], [])
    z = np.array([1.0, -2.0, 0.5, 3.0])
    out, trace = tv_prox(g, z, 1.0)
    assert np.array_equal(out, z)
    assert trace.iterations_run == 0


def test_tv_prox_zero_weight_returns_input():
    g = path_graph([1.0, 1.0])
    z = np.array([1.0, 0.0, -1.0])
    out, _ = tv_prox(g, z, 0.0)
    assert np.array_equal(out, z)


def test_tv_prox_two_nodes_full_shrinkage():
    g = SimilarityGraph(2, [0], [1], [1.0])
    z = np.array([1.0, -1.0])
    out, _ = tv_prox(g, z, 5.0, tol=1e-10, max_iters=3000)
    assert np.max(np.abs(out)) < 1e-4


def test_tv_prox_two_nodes_partial_shrinkage():
    # minimizing 2w|g1-g2| + 0.5||g-z||^2 over g=(t,-t) gives t = 1 - 2w
    g = SimilarityGraph(2, [0], [1], [1.0])
    out, _ = tv_prox(g, np.array([1.0, -1.0]), 0.2, tol=1e-12, max_iters=5000)
    assert np.allclose(out, [0.6, -0.6], atol=1e-6)


def test_tv_prox_three_node_path_matches_subgradient_oracle():
    g = path_graph([1.0, 0.7])
    z = np.array([2.0, -0.5, 1.0])
    weight = 0.5
    out, _ = tv_prox(g, z, weight, tol=1e-9, max_iters=5000)
    _, oracle_obj = tv_prox_subgradient(g, z, weight)
    ours = tv_prox_objective(g, out, z, weight)
    assert ours <= oracle_obj + 1e-4


def test_tv_prox_nonexpansive_and_shift_invariant():
    g = path_graph([1.0, 0.5, 2.0, 0.3])
    rng = np.random.default_rng(0)
    for _ in range(100):
        z1 = rng.normal(size=5)
        z2 = rng.normal(size=5)
        p1, _ = tv_prox(g, z1, 0.4, tol=1e-10, max_iters=4000)
        p2, _ = tv_prox(g, z2, 0.4, tol=1e-10, max_iters=4000)
        assert np.linalg.norm(p1 - p2) <= np.linalg.norm(z1 - z2) + 1e-7
    z = rng.normal(size=5)
    base, _ = tv_prox(g, z, 0.4, tol=1e-11, max_iters=6000)
    shifted, _ = tv_prox(g, z + 3.25, 0.4, tol=1e-11, max_iters=6000)
    assert np.allclose(shifted, base + 3.25, atol=1e-5)


def test_tv_prox_objective_never_above_input_point():
    g = path_graph([1.0, 1.0, 1.0])
    rng = np.random.default_rng(5)
    for _ in range(20):
        z = rng.normal(size=4)
        out, _ = tv_prox(g, z, 0.7, tol=1e-8, max_iters=2000)
        assert tv_prox_objective(g, out, z, 0.7) <= tv_prox_objective(g, z, z, 0.7) + 1e-12


def _duality_gap(g, x, z, weight, q):
    """Primal energy of ``x`` minus the dual energy of ``q``."""
    dtq = opt_core._tv_operator(g)[1] @ q
    return tv_prox_objective(g, x, z, weight) - float(dtq @ z - 0.5 * (dtq @ dtq))


def test_tv_prox_trace_invariants():
    # checkpoint contract: the iteration stops only at a checkpoint (every
    # 10th iteration and max_iters), and the final gap is that of the
    # returned point and dual
    g = path_graph([1.0, 1.0])
    z = np.array([3.0, 0.0, -3.0])
    for weight, max_iters in [(0.5, 77), (0.5, 7), (2.0, 15), (2.0, 150)]:
        out, trace = tv_prox(g, z, weight, tol=1e-12, max_iters=max_iters)
        run = trace.iterations_run
        assert 1 <= run <= max_iters
        assert run % 10 == 0 or run == max_iters
        assert trace.final_gap >= 0.0
        assert trace.final_gap == pytest.approx(
            max(0.0, _duality_gap(g, out, z, weight, trace.q)), abs=1e-12
        )


def test_tv_prox_rows_stop_on_their_gap_or_at_the_cap():
    # a row reports "gap" exactly when its final gap meets its own tol; any
    # other row ran max_iters. The weight-3 row at tol 1e-3 and cap 150 once
    # ended on a flat energy at iteration 140, gap 0.089: it now runs to the
    # cap and says so
    g = build_knn_graph(make_two_moons(60, 0.1, seed=3).data, 6)
    Z = np.random.default_rng(31).normal(size=(4, g.n_nodes))
    weights = [0.05, 0.3, 1.5, 3.0]
    reasons = set()
    for tols in (1e-3, [1e-1, 1e-4, 1e-2, 1e-6]):
        for max_iters in (7, 40, 150):
            X, trace = tv_prox(g, Z, weights, tol=tols, max_iters=max_iters)
            for k, row in enumerate(trace.rows):
                tol = np.broadcast_to(tols, (4,))[k]
                assert (row.stop_reason == "gap") == (row.final_gap <= tol)
                if row.stop_reason == "cap":
                    assert row.iterations_run == max_iters
                else:
                    assert row.iterations_run % 10 == 0 or row.iterations_run == max_iters
                assert row.final_gap == pytest.approx(
                    max(0.0, _duality_gap(g, X[k], Z[k], weights[k], row.q)), abs=1e-12
                )
            stops = {row.stop_reason for row in trace.rows}
            assert trace.stop_reason == ("cap" if "cap" in stops else "gap")
            reasons |= stops
    assert reasons == {"gap", "cap"}
    _, trace = tv_prox(g, Z, weights, tol=1e-3, max_iters=150)
    flat_before = trace.rows[3]
    assert (flat_before.stop_reason, flat_before.iterations_run) == ("cap", 150)
    assert flat_before.final_gap > 1e-3


def test_tv_prox_gap_tol_bounds_distance_to_minimizer():
    # tol ends the iteration at that duality gap; the objective is 1-strongly
    # convex, so the point lies within sqrt(2 * gap) of the minimizer
    g = build_knn_graph(make_two_moons(60, 0.1, seed=3).data, 6)
    z = np.random.default_rng(5).normal(size=g.n_nodes)
    exact, tight = tv_prox(g, z, 0.3, tol=1e-12, max_iters=20000)
    assert tight.final_gap <= 1e-9
    for tol in (1e-1, 1e-2, 1e-3):
        out, trace = tv_prox(g, z, 0.3, tol=tol, max_iters=20000)
        assert 0.0 <= trace.final_gap <= tol
        assert trace.iterations_run < tight.iterations_run
        assert np.linalg.norm(out - exact) <= np.sqrt(2 * tol) + np.sqrt(2e-9)


def _assert_prox_matches_reference(g, z, weight, tol, max_iters, q0=None):
    out, trace = tv_prox(g, z, weight, tol=tol, max_iters=max_iters, q0=q0)
    ref_x, ref_iters, ref_gap, ref_q = tv_prox_reference(
        g, z, weight, tol=tol, max_iters=max_iters, q0=q0
    )
    assert out.tobytes() == ref_x.tobytes()
    assert trace.q.tobytes() == ref_q.tobytes()
    assert trace.iterations_run == ref_iters
    assert trace.final_gap == ref_gap
    assert trace.stop_reason == ("gap" if ref_gap <= tol else "cap")
    if ref_gap > tol:
        assert ref_iters == max_iters
    return trace.stop_reason


def test_tv_prox_bit_identical_to_per_iteration_reference():
    graphs = [
        path_graph([1.0, 0.5, 2.0]),
        build_knn_graph(make_two_moons(60, 0.1, seed=3).data, 6),
    ]
    rng = np.random.default_rng(21)
    stops = set()
    for g in graphs:
        z = rng.normal(size=g.n_nodes)
        for weight in (0.05, 0.3, 1.5):
            for tol in (1e-1, 1e-3, 1e-6):
                for max_iters in (7, 15, 77, 150):
                    stops.add(_assert_prox_matches_reference(g, z, weight, tol, max_iters))
    assert stops == {"cap", "gap"}


def test_tv_prox_cached_operator_across_calls_and_graphs():
    g1 = build_knn_graph(make_two_moons(50, 0.1, seed=4).data, 5)
    g2 = build_knn_graph(make_two_moons(40, 0.1, seed=5).data, 7)
    rng = np.random.default_rng(22)
    for g in (g1, g1, g2, g1, g2, g2, g1):
        z = rng.normal(size=g.n_nodes)
        _assert_prox_matches_reference(g, z, float(rng.uniform(0.05, 1.0)), 1e-5, 77)


def test_tv_prox_warm_start_bit_identical_to_per_iteration_reference():
    graphs = [
        path_graph([1.0, 0.5, 2.0]),
        build_knn_graph(make_two_moons(60, 0.1, seed=3).data, 6),
    ]
    rng = np.random.default_rng(23)
    stops = set()
    for g in graphs:
        z = rng.normal(size=g.n_nodes)
        # a dual from a nearby input, as the outer loops pass, and a random
        # one that partly lies outside every box below
        _, near = tv_prox(g, z + 0.05 * rng.normal(size=g.n_nodes), 0.3, max_iters=40)
        starts = [near.q, rng.normal(scale=2.0, size=g.n_edges)]
        for q0 in starts:
            for weight in (0.05, 0.3, 1.5):
                for tol in (1e-1, 1e-3, 1e-6):
                    for max_iters in (7, 15, 77, 150):
                        stops.add(
                            _assert_prox_matches_reference(g, z, weight, tol, max_iters, q0)
                        )
    assert stops == {"cap", "gap"}


def test_tv_prox_zero_dual_start_is_the_cold_start():
    g = build_knn_graph(make_two_moons(60, 0.1, seed=3).data, 6)
    z = np.random.default_rng(24).normal(size=g.n_nodes)
    for weight, max_iters in [(0.05, 150), (0.3, 77), (1.5, 15)]:
        cold, cold_trace = tv_prox(g, z, weight, tol=1e-6, max_iters=max_iters)
        warm, warm_trace = tv_prox(
            g, z, weight, tol=1e-6, max_iters=max_iters, q0=np.zeros(g.n_edges)
        )
        assert warm.tobytes() == cold.tobytes()
        assert warm_trace.q.tobytes() == cold_trace.q.tobytes()
        assert warm_trace.iterations_run == cold_trace.iterations_run
        assert warm_trace.stop_reason == cold_trace.stop_reason
        assert warm_trace.final_gap == cold_trace.final_gap


def test_tv_prox_restart_from_own_converged_dual_stops_at_first_checkpoint():
    g = build_knn_graph(make_two_moons(60, 0.1, seed=3).data, 6)
    z = np.random.default_rng(25).normal(size=g.n_nodes)
    tol = 1e-6
    out, trace = tv_prox(g, z, 0.1, tol=tol, max_iters=5000)
    assert trace.final_gap <= tol and trace.iterations_run > 10  # converged, not at once
    again, again_trace = tv_prox(g, z, 0.1, tol=tol, max_iters=5000, q0=trace.q)
    assert again_trace.iterations_run == 10
    assert again_trace.final_gap <= tol
    # the objective is 1-strongly convex: a gap <= tol puts each point within
    # sqrt(2 tol) of the minimizer
    assert np.linalg.norm(again - out) <= 2.0 * np.sqrt(2.0 * tol)


def test_tv_prox_out_of_box_dual_start_is_clipped():
    g = path_graph([1.0, 0.7])
    z = np.array([2.0, -0.5, 1.0])
    weight = 0.5
    q0 = np.array([50.0, -50.0])  # far outside the box 2 * weight * sqrt(w)
    out, trace = tv_prox(g, z, weight, tol=1e-9, max_iters=5000, q0=q0)
    _, oracle_obj = tv_prox_subgradient(g, z, weight)
    assert tv_prox_objective(g, out, z, weight) <= oracle_obj + 1e-4
    assert np.all(np.abs(trace.q) <= 2.0 * weight * np.sqrt(g.edge_w))


def test_tv_prox_dual_start_of_wrong_length_is_rejected():
    g = path_graph([1.0, 0.7])
    for q0 in (np.zeros(1), np.zeros(3), np.zeros((2, 1))):
        with pytest.raises(DimensionError):
            tv_prox(g, np.zeros(3), 0.5, q0=q0)


def test_tv_prox_returned_dual_lies_in_its_box():
    g = build_knn_graph(make_two_moons(60, 0.1, seed=3).data, 6)
    rng = np.random.default_rng(26)
    q = None
    for weight in (0.05, 1.5, 0.3, 0.05):  # the box shrinks, grows and shrinks
        _, trace = tv_prox(g, 3.0 * rng.normal(size=g.n_nodes), weight, max_iters=30, q0=q)
        q = trace.q
        assert q.shape == (g.n_edges,)
        assert np.all(np.abs(q) <= 2.0 * weight * np.sqrt(g.edge_w))
    assert tv_prox(g, np.zeros(g.n_nodes), 0.0)[1].q is None


def test_tv_prox_rejects_nonpositive_iteration_cap():
    with pytest.raises(InvalidParameterError):
        tv_prox(path_graph([1.0]), np.zeros(2), 0.5, max_iters=0)


def _assert_rows_match_1d(g, Z, weights, tols, max_iters, q0=None):
    """Solve the rows of Z in one call and one by one: every row must agree
    bit for bit. Returns the rows' stop reasons and stop iterations."""
    X, trace = tv_prox(g, Z, weights, tol=tols, max_iters=max_iters, q0=q0)
    assert X.shape == Z.shape and len(trace.rows) == len(Z)
    singles = [
        tv_prox(
            g, Z[k], weights[k], tol=tols[k], max_iters=max_iters,
            q0=None if q0 is None else q0[k],
        )
        for k in range(len(Z))
    ]
    for k, (row, (x1, t1)) in enumerate(zip(trace.rows, singles)):
        assert X[k].tobytes() == x1.tobytes()
        assert row.iterations_run == t1.iterations_run
        assert row.final_gap == t1.final_gap
        assert row.stop_reason == t1.stop_reason
        if t1.q is None:
            assert row.q is None
            assert trace.q is None or not trace.q[k].any()
        else:
            assert row.q.tobytes() == t1.q.tobytes() == trace.q[k].tobytes()
    assert trace.iterations_run == max(t.iterations_run for _, t in singles)
    assert trace.final_gap == max(t.final_gap for _, t in singles)
    assert trace.stop_reason in {t.stop_reason for _, t in singles}
    return {t.stop_reason for _, t in singles}, {t.iterations_run for _, t in singles}


def test_tv_prox_rows_bit_identical_to_single_calls():
    graphs = [
        path_graph([1.0, 0.5, 2.0]),
        build_knn_graph(make_two_moons(60, 0.1, seed=3).data, 6),
    ]
    rng = np.random.default_rng(27)
    stops, spreads = set(), set()
    for g in graphs:
        Z = rng.normal(size=(4, g.n_nodes))
        weights = np.array([0.05, 0.3, 1.5, 0.0])  # a zero row returns its input
        _, near = tv_prox(g, Z + 0.05 * rng.normal(size=Z.shape), 0.3, max_iters=40)
        for q0 in (None, near.q, rng.normal(scale=2.0, size=(4, g.n_edges))):
            for tols in (np.array([1e-1, 1e-3, 1e-6, 1e-2]), np.full(4, 1e-6)):
                for max_iters in (7, 15, 77, 150):
                    got, its = _assert_rows_match_1d(g, Z, weights, tols, max_iters, q0)
                    stops |= got
                    spreads.add(len(its))
    # every stop test ends some row, and rows stop at up to 4 different
    # iterations, so stopped columns keep iterating beside live ones
    assert stops == {"cap", "gap"}
    assert max(spreads) >= 3


def test_tv_prox_single_row_and_scalar_parameters():
    g = build_knn_graph(make_two_moons(60, 0.1, seed=3).data, 6)
    z = np.random.default_rng(28).normal(size=g.n_nodes)
    x1, t1 = tv_prox(g, z, 0.3, tol=1e-6, max_iters=77)
    X, trace = tv_prox(g, z[None], 0.3, tol=1e-6, max_iters=77)
    assert X.shape == (1, g.n_nodes) and X[0].tobytes() == x1.tobytes()
    assert trace.rows[0].stop_reason == t1.stop_reason
    assert trace.q.shape == (1, g.n_edges) and trace.q[0].tobytes() == t1.q.tobytes()
    assert (trace.iterations_run, trace.final_gap) == (t1.iterations_run, t1.final_gap)
    # a scalar weight and tolerance apply to every row
    Z = np.vstack([z, -z, 2.0 * z])
    _assert_rows_match_1d(g, Z, [0.3] * 3, [1e-4] * 3, 150)
    X2, t2 = tv_prox(g, Z, 0.3, tol=1e-4, max_iters=150)
    assert X2.tobytes() == tv_prox(g, Z, [0.3] * 3, tol=[1e-4] * 3, max_iters=150)[0].tobytes()


def test_tv_prox_rows_without_work():
    # an edgeless graph and all-zero weights return the input, with no duals
    z = np.array([[1.0, -2.0, 0.5, 3.0], [0.0, 1.0, 2.0, 3.0]])
    for g, weight in ((SimilarityGraph(4, [], [], []), 1.0), (path_graph([1.0] * 3), 0.0)):
        X, trace = tv_prox(g, z, weight)
        assert X.tobytes() == z.tobytes()
        assert trace.q is None and trace.iterations_run == 0
        assert [r.stop_reason for r in trace.rows] == ["gap", "gap"]


def test_tv_prox_rows_reject_wrong_shapes():
    g = path_graph([1.0, 0.7])  # 3 nodes, 2 edges
    Z = np.zeros((2, 3))
    bad = [
        dict(z=np.zeros((2, 4))),
        dict(q0=np.zeros(2)),
        dict(q0=np.zeros((3, 2))),
        dict(q0=np.zeros((2, 3))),
        dict(weight=np.array([0.5, 0.5, 0.5])),
        dict(weight=np.ones((2, 1))),
        dict(tol=np.array([1e-3])),
        dict(tol=np.ones((1, 2))),
    ]
    for kwargs in bad:
        args = {"z": Z, "weight": 0.5, **kwargs}
        z, weight = args.pop("z"), args.pop("weight")
        with pytest.raises(DimensionError):
            tv_prox(g, z, weight, **args)
    with pytest.raises(DimensionError):
        tv_prox(g, np.zeros(3), [0.5, 0.5])  # one weight per row of 1-D input
    with pytest.raises(InvalidParameterError):
        tv_prox(g, Z, [0.5, -0.5])


def test_csr_product_equals_scipy_matmul_bit_for_bit():
    g = build_knn_graph(make_two_moons(80, 0.1, seed=4).data, 7)
    D, Dt, _, _ = opt_core._tv_operator(g)
    rng = np.random.default_rng(29)
    # k = 1 runs the single-vector kernel on flat views, k = 4 the block one
    for k in (1, 4):
        for M in (D, Dt):
            v = rng.normal(size=(M.shape[1], k))
            out = np.full((M.shape[0], k), np.nan)  # a reused buffer holds old values
            product = opt_core._csr_product(M, v, out)
            for _ in range(2):
                product()
                assert out.tobytes() == (M @ v).tobytes()
                # the bound product reads v as it is when called
                v[...] = rng.normal(size=v.shape)
                out.fill(np.nan)
    with pytest.raises(ValueError):  # a strided view would bind a copy
        opt_core._csr_product(D, np.zeros((g.n_nodes, 2))[:, :1], np.zeros((g.n_edges, 1)))


def test_tv_prox_rows_stopping_apart_match_single_calls_and_reference():
    g = build_knn_graph(make_two_moons(60, 0.1, seed=3).data, 6)
    rng = np.random.default_rng(30)
    Z = rng.normal(size=(5, g.n_nodes))
    weights = [0.05, 0.2, 0.6, 1.5, 3.0]
    _, near = tv_prox(g, Z + 0.05 * rng.normal(size=Z.shape), 0.3, max_iters=40)
    for q0 in (None, near.q):
        X, trace = tv_prox(g, Z, weights, tol=1e-6, max_iters=500, q0=q0)
        # rows stop at several checkpoints while their columns keep iterating
        stops = [row.iterations_run for row in trace.rows]
        assert len(set(stops)) >= 3 and stops.count(max(stops)) == 1
        single, _ = tv_prox_row_by_row(tv_prox, g, Z, weights, tol=1e-6, max_iters=500, q0=q0)
        assert X.tobytes() == single.tobytes()
        for k, row in enumerate(trace.rows):
            ref_x, ref_iters, ref_gap, ref_q = tv_prox_reference(
                g, Z[k], weights[k], tol=1e-6, max_iters=500,
                q0=None if q0 is None else q0[k],
            )
            assert X[k].tobytes() == ref_x.tobytes()
            assert row.q.tobytes() == trace.q[k].tobytes() == ref_q.tobytes()
            assert (row.iterations_run, row.final_gap) == (ref_iters, ref_gap)


def test_tv_prox_rejects_bad_parameters_before_iterating(monkeypatch):
    def never(*args):
        raise AssertionError("the iteration ran")

    g = path_graph([1.0, 0.7])  # 3 nodes, 2 edges
    z, Z = np.array([1.0, -1.0, 0.5]), np.ones((2, 3))
    good = tv_prox(g, z, 0.5, tol=1e-6, max_iters=25)
    nan, inf = float("nan"), float("inf")
    bad = [
        (z, dict(weight=nan)),
        (z, dict(weight=inf)),
        (Z, dict(weight=[0.5, nan])),
        (z, dict(tol=nan)),
        (z, dict(tol=-1e-9)),
        (z, dict(tol=inf)),
        (z, dict(tol=-inf)),
        (z, dict(tol=True)),
        (Z, dict(tol=[1e-3, nan])),
        (Z, dict(tol=[1e-3, -1e-9])),
        (np.array([1.0, nan, 0.5]), {}),
        (np.array([[1.0, 2.0, inf], [0.0, 0.0, 0.0]]), {}),
        (z, dict(q0=np.array([0.0, nan]))),
        (Z, dict(q0=np.array([[0.0, 0.0], [inf, 0.0]]))),
        (z, dict(max_iters=10.5)),
        (z, dict(max_iters=25.0)),
        (z, dict(max_iters=True)),
    ]
    monkeypatch.setattr(opt_core, "_tv_primal_dual", never)
    for x, kwargs in bad:
        with pytest.raises(InvalidParameterError):
            tv_prox(g, x, kwargs.pop("weight", 0.5), **kwargs)
    monkeypatch.undo()
    # the boundary values still run: zero tolerances, a numpy integer cap
    out, trace = tv_prox(g, z, 0.5, tol=0.0, max_iters=np.int64(25))
    assert trace.stop_reason == "cap" and trace.iterations_run == 25
    assert tv_prox(g, z, 0.5, tol=1e-6, max_iters=np.int32(25))[0].tobytes() == good[0].tobytes()


# ---------------------------------------------------------------------------
# qp_box_eq
# ---------------------------------------------------------------------------


def test_qp_two_dim_line_search_oracle():
    # feasible set is beta1 = beta2 = t, t in [0, 1]
    y = np.array([1.0, -1.0])
    sol = qp_box_eq(np.eye(2), 0.0, y, 1.0, tol=1e-10)
    ts = np.linspace(0.0, 1.0, 200001)
    objs = 2 * ts - ts**2
    t_best = ts[np.argmax(objs)]
    assert np.allclose(sol.beta, [t_best, t_best], atol=1e-6)
    assert sol.objective == pytest.approx(1.0, abs=1e-9)


def _assert_mu_zero_returns_zero(y):
    # at mu = 0 only b = 0 is feasible, and the first iteration returns it
    sol = qp_box_eq(np.eye(2), 0.0, np.array(y), 0.0)
    assert np.all(sol.beta == 0.0)
    assert (sol.iterations, sol.stop_reason, sol.objective) == (1, "tol", 0.0)


def test_qp_mu_zero_box_collapse():
    _assert_mu_zero_returns_zero([1.0, -1.0])


def test_qp_mu_zero_one_sided_infeasible():
    # one-sided labels at mu = 0 were once rejected as infeasible, although
    # b = 0 satisfies both the box and y'b = 0: they return b = 0 as well
    for y in ([1.0, 1.0], [-1.0, -1.0]):
        _assert_mu_zero_returns_zero(y)


def test_qp_random_instances_match_enumeration():
    rng = np.random.default_rng(42)
    for trial in range(12):
        m = 6
        A = rng.normal(size=(m, m))
        Q = A @ A.T + 0.5 * np.eye(m)
        p = rng.normal(size=m)
        y = np.array([1.0] * 3 + [-1.0] * 3)
        rng.shuffle(y)
        mu = float(rng.uniform(0.5, 2.0))
        sol = qp_box_eq(Q, p, y, mu, tol=1e-9, max_iters=20000)
        _, best_obj = qp_box_eq_enumerate(Q, p, y, mu)
        assert sol.objective == pytest.approx(best_obj, abs=1e-6)


def test_qp_kkt_residuals():
    rng = np.random.default_rng(7)
    m = 8
    A = rng.normal(size=(m, m))
    Q = A @ A.T + np.eye(m)
    y = np.array([1.0, -1.0] * 4)
    mu = 1.5
    tol = 1e-8
    sol = qp_box_eq(Q, 0.0, y, mu, tol=tol, max_iters=50000)
    beta = sol.beta
    assert abs(beta @ y) <= tol
    assert beta.min() >= 0.0 and beta.max() <= mu  # exact after projection
    grad = 1.0 - Q @ beta
    free = (beta > tol) & (beta < mu - tol)
    if np.any(free):
        nu = np.mean(grad[free] * y[free])
        assert np.max(np.abs(grad[free] - nu * y[free])) <= 10 * max(tol, 1e-7)


def test_qp_warm_start_converges_faster():
    rng = np.random.default_rng(3)
    m = 20
    A = rng.normal(size=(m, m))
    Q = A @ A.T + np.eye(m)
    y = np.where(rng.random(m) < 0.5, 1.0, -1.0)
    y[0], y[1] = 1.0, -1.0
    sol1 = qp_box_eq(Q, 0.0, y, 1.0, tol=1e-8)
    sol2 = qp_box_eq(Q, 0.0, y, 1.0, tol=1e-8, beta0=sol1.beta)
    assert sol2.iterations <= sol1.iterations


def _random_dual(m, seed, kind):
    """A PSD dual quadratic (rank-deficient, so bounds bind), labels and
    a box, as dense (y y^T) * S or the SVM trainers' signed operator."""
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(m, max(1, m // 2)))
    S = A @ A.T / m + 1e-3 * np.eye(m)
    y = np.where(rng.random(m) < 0.5, 1.0, -1.0)
    y[0], y[1] = 1.0, -1.0
    Q = _SignedKernel(S, y) if kind == "signed" else np.outer(y, y) * S
    return Q, y, float(rng.uniform(0.1, 2.0)), rng


@pytest.mark.parametrize("kind", ["dense", "signed"])
@pytest.mark.parametrize("max_iters", [1, 2, 3, 7, 5000])
def test_qp_bit_identical_to_two_projection_loop(kind, max_iters):
    reasons, face_steps = set(), 0
    for seed in range(6):
        m = (5, 40)[seed % 2]
        Q, y, mu, rng = _random_dual(m, seed, kind)
        for p in (0.0, 0.3 * rng.normal(size=m)):
            # no start, an infeasible one, and a converged one that stops at once
            solved = qp_box_eq(Q, p, y, mu, tol=1e-10).beta
            for beta0 in (None, rng.uniform(-0.5, 1.5, size=m) * mu, solved):
                for tol in (1e-6, 1e-9):
                    sol = qp_box_eq(Q, p, y, mu, tol=tol, max_iters=max_iters, beta0=beta0)
                    beta, obj, kkt, iters, reason, faces = qp_box_eq_two_projections(
                        Q, p, y, mu, project_box_eq, tol=tol, max_iters=max_iters, beta0=beta0
                    )
                    assert sol.beta.tobytes() == beta.tobytes()
                    assert sol.objective == obj
                    assert sol.kkt_residuals == kkt
                    assert sol.iterations == iters
                    assert sol.stop_reason == reason
                    assert sol.face_steps == faces
                    reasons.add(reason)
                    face_steps += faces
    assert reasons == ({"tol"} if max_iters == 5000 else {"tol", "cap"})
    # the face steps ran, so the comparison covers them
    assert face_steps > 0 or max_iters == 1


def test_qp_projects_reference_step_only_when_the_step_cannot_decide(monkeypatch):
    calls = []

    def counting(v, y, mu):
        calls.append(1)
        return project_box_eq(v, y, mu)

    monkeypatch.setattr(opt_core, "project_box_eq", counting)
    # a free set too wide for face steps: every iterate is a projected step
    Q, y, mu, _ = _random_dual(60, 0, "signed")
    sol = qp_box_eq(Q, 0.0, y, mu, tol=1e-9)
    assert sol.stop_reason == "tol" and sol.iterations > 20
    # one projection of the start, one per step, and the reference ones:
    # two per iteration before the skip
    assert sol.iterations + 1 <= len(calls) < 1.5 * sol.iterations


def _spy_face_steps(monkeypatch):
    """Record ``(beta, free, candidate)`` for every face step qp_box_eq tries."""
    tried = []
    real = opt_core._face_step

    def spy(block, beta, grad, y, free, mu):
        cand = real(block, beta, grad, y, free, mu)
        tried.append((beta.copy(), free.copy(), cand))
        return cand

    monkeypatch.setattr(opt_core, "_face_step", spy)
    return tried


def _face_dual_cases():
    """(Q, p, y, mu) over the random-dual family and the enumeration's m = 6
    instances of test_qp_random_instances_match_enumeration."""
    cases = []
    for seed in range(12):
        m = (5, 40, 60, 100)[seed % 4]
        Q, y, mu, rng = _random_dual(m, seed, ("dense", "signed")[seed % 2])
        for p in (0.0, 0.3 * rng.normal(size=m)):
            cases.append((Q, p, y, mu))
    rng = np.random.default_rng(42)
    for _ in range(12):
        A = rng.normal(size=(6, 6))
        p = rng.normal(size=6)
        y = np.array([1.0] * 3 + [-1.0] * 3)
        rng.shuffle(y)
        cases.append((A @ A.T + 0.5 * np.eye(6), p, y, float(rng.uniform(0.5, 2.0))))
    return cases


def test_qp_face_steps_stay_feasible_and_never_raise_the_objective(monkeypatch):
    tried = _spy_face_steps(monkeypatch)
    kept = 0
    for Q, p, y, mu in _face_dual_cases():
        m = y.size
        q = 1.0 - (np.full(m, p) if np.isscalar(p) else p)
        start = len(tried)
        sol = qp_box_eq(Q, p, y, mu, tol=1e-9, max_iters=20000)
        assert sol.stop_reason == "tol"
        accepted = 0
        for beta, free, cand in tried[start:]:
            # tried only on a settled face narrow enough for the cost rule
            assert free.size and free.size**3 <= m * m
            assert np.array_equal(free, np.flatnonzero((beta > 0) & (beta < mu)))
            if cand is None:
                continue
            # exactly in the box, on the equality within rounding, and moved
            # on the face only
            assert cand.min() >= 0.0 and cand.max() <= mu
            assert abs(cand @ y) <= 1e-13 * m * mu
            fixed = np.ones(m, bool)
            fixed[free] = False
            assert cand[fixed].tobytes() == beta[fixed].tobytes()
            # the library's objective decides; the kept ones never raise it
            f_c = float(0.5 * cand @ (Q @ cand - q) - (0.5 * q) @ cand)
            f_b = float(0.5 * beta @ (Q @ beta - q) - (0.5 * q) @ beta)
            accepted += f_c <= f_b
        assert sol.face_steps == accepted
        kept += accepted
        assert abs(sol.beta @ y) <= 1e-12 * m * mu
    assert kept > 20


def test_qp_face_step_skips_a_singular_face_quietly(monkeypatch):
    """A face wider than rank(S) + 1 makes the face's KKT system singular:
    the step is skipped with no error and no warning, and the projected
    iteration still solves the dual."""
    rng = np.random.default_rng(10)
    m = 30
    C = rng.integers(-3, 4, size=(m, 2)).astype(float)
    S = C @ C.T  # rank 2, exactly
    y = np.where(np.arange(m) % 2 == 0, 1.0, -1.0)
    Q = _SignedKernel(S, y)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        beta = np.full(m, 0.5)
        assert opt_core._face_step(Q.block, beta, rng.normal(size=m), y, np.arange(6), 1.0) is None
        tried = _spy_face_steps(monkeypatch)
        sol = qp_box_eq(Q, 0.0, y, 1.0, tol=1e-8)
    assert sol.stop_reason == "tol" and sol.face_steps == 0
    assert tried and all(cand is None and free.size >= 4 for _, free, cand in tried)
    # with every face step skipped, the solve is the plain projected iteration
    plain = qp_box_eq_two_projections(Q, 0.0, y, 1.0, project_box_eq, tol=1e-8, face_steps=False)
    assert sol.beta.tobytes() == plain[0].tobytes() and sol.iterations == plain[3]


def test_qp_without_face_steps_is_the_plain_iteration():
    """A solve that keeps no face step returns the projected iteration's bits."""
    plain_solves = 0
    for Q, p, y, mu in _face_dual_cases():
        sol = qp_box_eq(Q, p, y, mu, tol=1e-9)
        if sol.face_steps:
            continue
        beta, obj, kkt, iters, reason, _ = qp_box_eq_two_projections(
            Q, p, y, mu, project_box_eq, tol=1e-9, face_steps=False
        )
        assert (sol.beta.tobytes(), sol.objective, sol.iterations) == (beta.tobytes(), obj, iters)
        plain_solves += 1
    assert plain_solves > 5


def test_qp_stop_reason_on_the_last_allowed_iteration():
    Q, y, mu, _ = _random_dual(40, 5, "dense")
    free = qp_box_eq(Q, 0.0, y, mu, tol=1e-8)
    n = free.iterations
    assert free.stop_reason == "tol" and n > 3
    last = qp_box_eq(Q, 0.0, y, mu, tol=1e-8, max_iters=n)
    assert (last.iterations, last.stop_reason) == (n, "tol")
    assert last.beta.tobytes() == free.beta.tobytes()
    # one step short of that test, the cap returns the same point, whose own
    # residual meets tol; two steps short it does not
    short = qp_box_eq(Q, 0.0, y, mu, tol=1e-8, max_iters=n - 1)
    assert (short.iterations, short.stop_reason) == (n - 1, "tol")
    assert short.beta.tobytes() == free.beta.tobytes()
    shorter = qp_box_eq(Q, 0.0, y, mu, tol=1e-8, max_iters=n - 2)
    assert (shorter.iterations, shorter.stop_reason) == (n - 2, "cap")
    assert shorter.kkt_residuals["stationarity"] > 1e-8
    # the closed-form mu = 0 solution counts as converged
    assert qp_box_eq(Q, 0.0, y, 0.0).stop_reason == "tol"


@pytest.mark.parametrize("kind", ["dense", "signed"])
@pytest.mark.parametrize("max_iters", [1, 2, 3, 7])
def test_qp_reports_the_residual_of_the_point_it_returns(kind, max_iters):
    reasons = set()
    for seed in range(6):
        m = (5, 40)[seed % 2]
        Q, y, mu, rng = _random_dual(m, seed, kind)
        t_ref = 1.0 / opt_core._qp_norm(Q, m)
        for p in (0.0, 0.3 * rng.normal(size=m)):
            for tol in (1e-6, 1e-9):
                sol = qp_box_eq(Q, p, y, mu, tol=tol, max_iters=max_iters)
                grad = Q @ sol.beta - (1.0 - p)
                step = project_box_eq(sol.beta - t_ref * grad, y, mu) - sol.beta
                pg = float(np.linalg.norm(step)) / t_ref
                assert sol.kkt_residuals["stationarity"] == pg
                assert sol.stop_reason == ("tol" if pg <= tol else "cap")
                reasons.add(sol.stop_reason)
    assert "cap" in reasons


@pytest.mark.xfail(strict=True, reason="known defect: the nonmonotone reset keeps a bad BB step")
def test_qp_converges_on_an_exactly_rank_deficient_dual():
    """S = C C^T of rank 2. Plain projected gradient at 1/L reaches the
    objective 29.378 in 238 iterations; the BB iteration cycles to its
    cap near 15.19, because after a bad step the nonmonotone test resets
    the step length but keeps the step."""
    C = np.random.default_rng(8).integers(-3, 4, size=(30, 2)).astype(float)
    y = np.where(np.arange(30) % 2 == 0, 1.0, -1.0)
    sol = qp_box_eq(_SignedKernel(C @ C.T, y), 0.0, y, 1.0)
    assert sol.stop_reason == "tol"
    assert sol.objective == pytest.approx(29.3778, abs=1e-3)


def test_qp_and_projection_reject_non_finite_input():
    Q, y, mu, rng = _random_dual(6, 3, "dense")
    nan, inf = float("nan"), float("inf")
    p = rng.normal(size=6)
    bad = [
        dict(mu=nan),
        dict(mu=inf),
        dict(p=np.where(np.arange(6) == 2, nan, p)),
        dict(p=inf),
        dict(beta0=np.full(6, nan)),
        dict(beta0=np.where(np.arange(6) == 0, -inf, 0.1)),
        dict(tol=nan),
        dict(tol=-1e-6),
    ]
    for kwargs in bad:
        args = {"p": p, "mu": mu, **kwargs}
        with pytest.raises(InvalidParameterError):
            qp_box_eq(Q, args.pop("p"), y, args.pop("mu"), **args)
    for m in (nan, inf, -inf, -1.0):
        with pytest.raises(InvalidParameterError):
            project_box_eq(p, y, m)
    # a dense Q: a NaN entry returned a solution, a wrong shape raised
    # matmul's ValueError
    with pytest.raises(InvalidParameterError):
        qp_box_eq(np.where(np.eye(6) == 1.0, nan, Q), p, y, mu)
    for shape in ((6, 5), (5, 5), (6,)):
        with pytest.raises(DimensionError):
            qp_box_eq(np.ones(shape), p, y, mu)
    for kwargs in (dict(p=p[:5]), dict(beta0=np.zeros(7))):
        with pytest.raises(DimensionError):
            qp_box_eq(Q, kwargs.pop("p", p), y, mu, **kwargs)
    # a zero tolerance is valid: the solve runs to its cap
    sol = qp_box_eq(Q, p, y, mu, tol=0.0, max_iters=5)
    assert (sol.iterations, sol.stop_reason) == (5, "cap")


@pytest.mark.parametrize("max_iters", [2.5, True, 0, -1])
def test_qp_rejects_a_max_iters_that_is_not_a_positive_integer(max_iters):
    # 2.5 raised a raw TypeError from range(), True ran one iteration, and
    # 0 or -1 returned the start
    Q, y, mu, rng = _random_dual(6, 3, "dense")
    with pytest.raises(InvalidParameterError, match="max_iters"):
        qp_box_eq(Q, rng.normal(size=6), y, mu, max_iters=max_iters)


def test_project_box_eq_properties():
    rng = np.random.default_rng(1)
    for _ in range(50):
        m = rng.integers(2, 9)
        v = rng.normal(size=m) * 3
        y = np.where(rng.random(m) < 0.5, 1.0, -1.0)
        y[0] = 1.0
        if np.all(y == 1.0):
            y[-1] = -1.0
        mu = float(rng.uniform(0.2, 2.5))
        b = project_box_eq(v, y, mu)
        assert b.min() >= 0.0 and b.max() <= mu
        assert abs(b @ y) < 1e-9
        # projection onto a convex set: no feasible point is closer
        for _ in range(20):
            w = np.clip(rng.normal(size=m), 0, mu)
            w = project_box_eq(w, y, mu)
            assert np.linalg.norm(v - b) <= np.linalg.norm(v - w) + 1e-9


def test_project_box_eq_rejects_bad_labels_and_points():
    # [2, -1, 1] labels returned [0.37, 0.57, 0.13]; a NaN label or point a NaN entry
    v = np.array([0.5, 0.5, 0.2])
    nan, inf = float("nan"), float("inf")
    for y in ([2.0, -1.0, 1.0], [1.0, 0.0, -1.0], [1.0, -1.0, nan], [1.0, -1.0, inf], [0.5] * 3):
        with pytest.raises(InvalidParameterError):
            project_box_eq(v, y, 1.0)
    for bad in (nan, inf, -inf):
        with pytest.raises(InvalidParameterError):
            project_box_eq([0.5, bad, 0.2], [1.0, -1.0, 1.0], 1.0)
    # integer +-1 labels are still +-1 labels
    assert project_box_eq(v, [1, -1, 1], 1.0).tobytes() == project_box_eq(
        v, [1.0, -1.0, 1.0], 1.0).tobytes()


def _check_against_bisection(v, y, mu):
    b = project_box_eq(v, y, mu)
    ref = project_box_eq_bisection(v, y, mu)
    scale = float(np.max(np.abs(v))) + mu
    assert b.min() >= 0.0 and b.max() <= mu
    assert abs(b @ y) <= 1e-13 * v.size * scale
    assert np.max(np.abs(b - ref)) <= 1e-12 * scale


def test_project_box_eq_matches_bisection_oracle():
    rng = np.random.default_rng(12)
    for m in (1, 2, 3, 7, 40, 1600):
        for scale in (1e-12, 1e-3, 1.0, 1e3, 1e9):
            for mu in (1e-3, 0.5, 4.0):
                y = np.where(rng.random(m) < 0.5, 1.0, -1.0)
                _check_against_bisection(rng.normal(size=m) * scale, y, mu)


def test_project_box_eq_edge_cases():
    rng = np.random.default_rng(13)
    v = rng.normal(size=9)
    # one-sided labels and mu = 0 leave only the zero vector
    for y in (np.ones(9), -np.ones(9)):
        assert np.all(project_box_eq(v, y, 1.0) == 0.0)
        _check_against_bisection(v, y, 1.0)
    for m in (1, 9):
        assert np.all(project_box_eq(v[:m], np.sign(v[:m]), 0.0) == 0.0)
    for y0 in (1.0, -1.0):
        _check_against_bisection(np.array([2.5]), np.array([y0]), 1.0)
    # tied breakpoints: repeated values, and a_i + mu landing on a_j
    y = np.array([1.0, 1.0, -1.0, -1.0, 1.0, -1.0])
    _check_against_bisection(np.array([0.5, 0.5, 0.5, 0.5, 0.5, 0.5]), y, 1.0)
    _check_against_bisection(np.array([1.0, 2.0, 0.0, -1.0, 3.0, -2.0]), y, 1.0)
    _check_against_bisection(np.array([1.0, 2.0, 0.0, -1.0, 3.0, -2.0]), y, 2.0)
    _check_against_bisection(np.zeros(6), y, 1.0)
    # a point already feasible is its own projection
    b = np.array([0.25, 0.5, 0.75, 0.0, 0.0, 0.0])
    assert np.allclose(project_box_eq(b, y, 1.0), b, rtol=0.0, atol=1e-15)


def _projection_cases():
    """(v, y, mu) cases for the bit-for-bit checks of the projection."""
    rng = np.random.default_rng(14)
    mixed = np.array([1.0, 1.0, -1.0, -1.0, 1.0, -1.0])
    cases = []
    for m in (1, 2, 3):
        for _ in range(6):
            y = np.where(rng.random(m) < 0.5, 1.0, -1.0)
            cases.append((rng.normal(size=m), y, float(rng.uniform(0.1, 2.0))))
    cases += [
        # one-sided labels, and mu = 0: only b = 0 is feasible
        (rng.normal(size=5), np.ones(5), 1.0),
        (rng.normal(size=5), -np.ones(5), 1.0),
        (rng.normal(size=6), mixed, 0.0),
        # tied breakpoints: repeated values, and a_i + mu landing on a_j
        (np.full(6, 0.5), mixed, 1.0),
        (np.array([1.0, 2.0, 0.0, -1.0, 3.0, -2.0]), mixed, 1.0),
        (np.array([1.0, 2.0, 0.0, -1.0, 3.0, -2.0]), mixed, 2.0),
        # signed zeros, in v and among the breakpoints (v_i = mu on a positive)
        (np.array([-0.0, 0.0, -0.0, 0.0, 1.0, -0.0]), mixed, 1.0),
        (np.array([1.0, -0.0, 0.0, -0.0, -0.0, 0.0]), mixed, 1.0),
        (np.zeros(6), mixed, 1.0),
    ]
    for scale in (1e-9, 1.0, 1e6):
        y = np.where(rng.random(50) < 0.5, 1.0, -1.0)
        v = np.round(rng.normal(size=50) * 4) / 4 * scale  # many ties
        cases.append((v, y, 0.5 * scale))
        cases.append((rng.normal(size=50) * scale, y, 0.3))
    return cases


def test_prepared_projection_equals_the_one_shot_search_bit_for_bit():
    cases = _projection_cases()
    for v, y, mu in cases:
        ref = project_box_eq_breakpoints(v, y, mu).tobytes()
        assert project_box_eq(v, y, mu).tobytes() == ref
        labels = opt_core._BoxEqLabels(y, mu)
        # a prepared state is reused for many points, buffers and all
        for w in (v, -v, v[::-1].copy(), v):
            got = project_box_eq(w, labels, mu)
            assert got.tobytes() == project_box_eq_breakpoints(w, y, mu).tobytes()
        assert project_box_eq(v, labels, mu).tobytes() == ref
    with pytest.raises(InvalidParameterError, match="mu differs"):
        project_box_eq(cases[0][0], opt_core._BoxEqLabels(cases[0][1], 1.0), 0.5)


def test_qp_makes_every_projection_through_the_module_name(monkeypatch):
    """perfbench counts projections by replacing ``opt_core.project_box_eq``;
    a projection reached any other way would escape that count. Each one
    sorts its breakpoints once, so counting sorts counts the projections."""
    sorts, calls, states = [], [], set()

    class CountingSort(np.ndarray):
        def argsort(self, *args, **kwargs):
            sorts.append(1)
            return np.asarray(self).argsort(*args, **kwargs)

    class Labels(opt_core._BoxEqLabels):
        def __init__(self, y, mu):
            super().__init__(y, mu)
            self.t = self.t.view(CountingSort)  # shares the sliced buffers

    real = opt_core.project_box_eq

    def spy(v, y, mu):
        calls.append(1)
        states.add(id(y))
        return real(v, y, mu)

    # (60, 0) takes more than 20 projected steps and no face step;
    # (60, 11) converges in a few after a face step, which projects nothing
    for seed in (0, 11):
        Q, y, mu, _ = _random_dual(60, seed, "signed")
        plain = qp_box_eq(Q, 0.0, y, mu, tol=1e-9)
        with monkeypatch.context() as patch:
            patch.setattr(opt_core, "_BoxEqLabels", Labels)
            patch.setattr(opt_core, "project_box_eq", spy)
            sol = qp_box_eq(Q, 0.0, y, mu, tol=1e-9)
        assert sol.beta.tobytes() == plain.beta.tobytes()
        assert sol.face_steps == plain.face_steps
        assert sol.iterations == plain.iterations > (20 if seed == 0 else 1)
        assert len(sorts) == len(calls) > sol.iterations
        assert len(states) == 1  # the labels are prepared once per solve
        del sorts[:], calls[:]
        states.clear()
    assert plain.face_steps > 0


# ---------------------------------------------------------------------------
# simplex projection
# ---------------------------------------------------------------------------


def test_simplex_identity_on_simplex():
    v = np.array([0.2, 0.5, 0.3])
    assert np.allclose(project_simplex(v), v, atol=1e-15)


def test_simplex_two_dim_corner():
    assert np.allclose(project_simplex(np.array([2.0, 0.0])), [1.0, 0.0])


def test_simplex_matches_sort_oracle():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        v = rng.normal(size=rng.integers(1, 9)) * rng.uniform(0.1, 10)
        u = project_simplex(v)
        assert np.max(np.abs(u - sort_simplex_projection(v))) < 1e-12


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.floats(-100, 100, allow_nan=False), min_size=1, max_size=10)
)
def test_simplex_feasibility_idempotence_order(vals):
    v = np.array(vals)
    u = project_simplex(v)
    assert abs(u.sum() - 1.0) < 1e-12
    assert u.min() >= 0.0
    assert np.allclose(project_simplex(u), u, atol=1e-12)
    order = np.argsort(v, kind="stable")
    assert np.all(np.diff(u[order]) >= -1e-12)


def test_simplex_rows_matches_single():
    rng = np.random.default_rng(6)
    V = rng.normal(size=(40, 5)) * 2
    U = project_simplex_rows(V)
    for i in range(40):
        assert np.max(np.abs(U[i] - sort_simplex_projection(V[i]))) < 1e-12


def test_simplex_rows_need_a_coordinate():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidParameterError):
            project_simplex_rows(np.zeros((4, 0)))
        with pytest.raises(InvalidParameterError):
            project_simplex(np.zeros(0))
        # no rows is fine: nothing to project
        assert project_simplex_rows(np.zeros((0, 3))).shape == (0, 3)
        assert np.array_equal(project_simplex_rows(np.zeros((2, 1))), np.ones((2, 1)))


# ---------------------------------------------------------------------------
# normalization helpers
# ---------------------------------------------------------------------------


def test_normalize_fixed_point():
    f = np.array([1.0, -1.0])
    out = normalize_ball_zero_mean(f, np.sqrt(2.0))
    assert np.allclose(out, f, atol=1e-15)


def test_normalize_constant_collapses_with_warning():
    with pytest.warns(RuntimeWarning):
        out = normalize_ball_zero_mean(np.array([1.0, 1.0]), 2.0)
    assert np.allclose(out, 0.0)


def test_normalize_order_scale_then_center():
    rng = np.random.default_rng(2)
    f = rng.normal(size=7) + 0.5
    scale = 7.0
    out = normalize_ball_zero_mean(f, scale)
    assert abs(out.mean()) < 1e-14  # exact zero mean
    pre_center = (scale / np.linalg.norm(f)) * f
    assert np.linalg.norm(pre_center) == pytest.approx(scale, rel=1e-12)
    assert np.allclose(out, pre_center - pre_center.mean())


def test_normalize_collapse_warning_pins_the_allclose_boundary():
    # the collapse check must stay np.allclose(out, 0.0): max |out| <= 1e-8
    outs, warned = [], []
    for d in np.linspace(2.0e-8, 3.6e-8, 161):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = normalize_ball_zero_mean(np.array([1.0, 1.0 + d]), 1.0)
        outs.append(out)
        warned.append(any(issubclass(w.category, RuntimeWarning) for w in caught))
    assert warned == [bool(np.allclose(out, 0.0)) for out in outs]
    assert True in warned and False in warned  # both sides of the boundary
    # the last warning and the first silence straddle +-1e-8
    edge = warned.index(False)
    assert np.max(np.abs(outs[edge - 1])) <= 1e-8 < np.max(np.abs(outs[edge]))
    # NaN and inf input raise before any collapse warning
    for f in (np.array([1.0, np.nan, 2.0]), np.array([1.0, np.inf])):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(NonFiniteInputError):
                normalize_ball_zero_mean(f, 1.0)
        assert not caught


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_normalize_rejects_non_finite_input(bad):
    # [1, nan, 2] returned all-NaN without a warning
    for f in (np.array([1.0, bad, 2.0]), np.array([bad]), np.array([0.0, bad])):
        with pytest.raises(NonFiniteInputError):
            normalize_ball_zero_mean(f, 1.0)


@pytest.mark.parametrize("magnitude", [1e200, 1e-200])
def test_normalize_survives_norm_overflow_and_underflow(magnitude):
    # the norm overflowed to inf (zeros came back, with the collapse warning)
    # or underflowed to 0 (DegenerateInputError)
    f = np.array([1.0, 2.0, -3.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = normalize_ball_zero_mean(magnitude * f, 2.0)
    ref = normalize_ball_zero_mean(f, 2.0)
    assert np.allclose(out, ref, rtol=1e-14, atol=1e-15)


def test_normalize_zero_vector_raises():
    with pytest.raises(DegenerateInputError):
        normalize_ball_zero_mean(np.zeros(3), 1.0)


@pytest.mark.parametrize("scale", [float("nan"), float("inf"), 0.0, -1.0, True])
def test_normalize_rejects_a_bad_scale(scale):
    # a NaN scale returned NaN
    with pytest.raises(InvalidParameterError):
        normalize_ball_zero_mean(np.array([1.0, 2.0, 4.0]), scale)


def test_center_median():
    assert center_median(np.array([3.0, 1.0, 2.0])) == 2.0
    assert center_median(np.array([4.0, 1.0, 3.0, 2.0])) == 2.5
    # any in-interval median leaves the l1 deviation unchanged
    x = np.array([4.0, 1.0, 3.0, 2.0])
    assert np.sum(np.abs(x - 2.5)) == np.sum(np.abs(x - 2.0))
