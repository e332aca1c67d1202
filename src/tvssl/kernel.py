"""Gaussian RBF Gram matrices and kernel expansions f(x) = sum_j k(x, x_j) a_j."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dpstrf

from .errors import (
    DegenerateScaleError,
    DimensionError,
    FactorizationError,
    InvalidParameterError,
    NonFiniteInputError,
    check_int,
    check_real,
)


@dataclass(eq=False)
class KernelMatrix:
    """Dense symmetric Gram matrix over a set of training points.

    ``data`` keeps a reference to the points the matrix was built from so
    trained models can later evaluate their expansion on new queries. A NaN
    or infinite entry raises :class:`NonFiniteInputError`.
    :meth:`root` gives a low-rank root of ``values``, built on first use.
    """

    values: np.ndarray
    bandwidth: float
    data: np.ndarray | None = None
    _root: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2 or self.values.shape[0] != self.values.shape[1]:
            raise DimensionError("kernel matrix must be square")
        # min and max propagate NaN, and need no n x n temporary
        if self.values.size and not np.isfinite([self.values.min(), self.values.max()]).all():
            raise NonFiniteInputError("kernel matrix contains NaN or infinite entries")

    @property
    def n(self) -> int:
        return self.values.shape[0]

    def root(self) -> np.ndarray:
        """An (n, r) root C with ``values ~ C C^T``, built on first use and
        cached: it depends on neither labels nor any system matrix.

        LAPACK's pivoted Cholesky ``dpstrf`` stops at its default tolerance,
        n * ulp * max diag, so r is the Gram matrix's numerical rank: about
        170 for two moons at n = 1600-3000, n for a full-rank one. On a
        matrix that is not PSD it stops at the first non-positive pivot.
        Callers hold what they compute from C to a contract against
        ``values`` (as :class:`~tvssl.binary.SvmProxSolver` does), so a
        short root, or one left stale by a later change of ``values``,
        costs accuracy nowhere. The returned array is shared by every
        caller: do not modify it.
        """
        if self._root is None:
            c, piv, rank, info = dpstrf(self.values, lower=1)
            if info < 0:
                raise FactorizationError(f"dpstrf rejected argument {-info}")
            low = np.tril(c[:, :rank])
            root = np.empty_like(low)
            root[piv - 1] = low  # values[p][:, p] = low low^T, p = piv - 1
            self._root = root
        return self._root


def _sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared distances ``|a_i|^2 + |b_j|^2 - 2 a_i . b_j``, clipped at 0,
    with one n x m temporary beside the result."""
    d2 = np.sum(a * a, axis=1)[:, None] + np.sum(b * b, axis=1)[None, :]
    ab = a @ b.T
    ab *= 2.0
    d2 -= ab
    np.maximum(d2, 0.0, out=d2)
    return d2


# _symmetrize works on blocks of this many rows and columns. Measured with
# one BLAS thread: at n <= 256 the one diagonal block costs about what
# 0.5 * (S + S.T) costs (38 against 33 us at n = 150), and at n = 1600 and
# 3000 the blocks take 7.8 and 21 ms against 9.0 and 107 ms for it.
_SYM_BLOCK = 256


def _symmetrize(S):
    """``(S + S^T) / 2`` in row-major order: the Gram matrix and the margin
    dual's n-column kernel are symmetrized by it, and its rounding is part
    of their outputs.

    In place, one pair of blocks at a time, so that no second n x n array is
    allocated (a diagonal block is summed into one block-sized temporary); a
    column-major S (an n-column solve) through its row-major transpose,
    which gives the same bytes as the sum commutes.
    """
    if not S.flags.c_contiguous:
        S = np.ascontiguousarray(S.T)
    n, block = S.shape[0], _SYM_BLOCK
    for i in range(0, n, block):
        diag = S[i : i + block, i : i + block]
        half = diag + diag.T
        half *= 0.5
        diag[...] = half
        for j in range(i + block, n, block):
            upper = S[i : i + block, j : j + block]
            np.add(upper, S[j : j + block, i : i + block].T, out=upper)
            upper *= 0.5
            S[j : j + block, i : i + block] = upper.T
    return S


def _check_finite(points: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(points)):
        raise NonFiniteInputError(f"{what} contain NaN or infinite coordinates")


def rbf_gram(data, bandwidth: float) -> KernelMatrix:
    """Gram matrix K_ij = exp(-||x_i - x_j||^2 / (2 * bandwidth^2)) for a
    finite positive ``bandwidth``."""
    check_real("bandwidth", bandwidth, 0.0, strict=True)
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2:
        raise InvalidParameterError("data must be a 2-D array of points")
    _check_finite(data, "data points")
    vals = _sq_dists(data, data)
    np.negative(vals, out=vals)
    vals /= 2.0 * bandwidth * bandwidth
    np.exp(vals, out=vals)
    _symmetrize(vals)
    np.fill_diagonal(vals, 1.0)
    return KernelMatrix(vals, float(bandwidth), data=data)


def kernel_expand(alpha, train, query, bandwidth: float) -> np.ndarray:
    """Evaluate sum_j k(x_q, x_j) * alpha_j for each query row x_q, for a
    finite positive ``bandwidth``."""
    check_real("bandwidth", bandwidth, 0.0, strict=True)
    alpha = np.asarray(alpha, dtype=np.float64).ravel()
    train = np.atleast_2d(np.asarray(train, dtype=np.float64))
    query = np.atleast_2d(np.asarray(query, dtype=np.float64))
    if alpha.size != train.shape[0]:
        raise DimensionError(
            f"alpha has length {alpha.size}, train has {train.shape[0]} rows"
        )
    if train.shape[1] != query.shape[1]:
        raise DimensionError("train and query dimensionality differ")
    _check_finite(query, "query points")
    d2 = _sq_dists(query, train)
    return np.exp(-d2 / (2.0 * bandwidth * bandwidth)) @ alpha


def median_bandwidth(data, max_points: int = 1000, seed: int = 0) -> float:
    """Median pairwise distance over a (subsampled) point set.

    The usual default bandwidth when nothing better is known. Subsampling is
    deterministic given ``seed``, an integer >= 0; ``max_points`` is an
    integer >= 2.
    """
    check_int("max_points", max_points, 2)
    check_int("seed", seed, 0)
    data = np.asarray(data, dtype=np.float64)
    _check_finite(data, "data points")
    n = data.shape[0]
    if n < 2:
        raise InvalidParameterError("need at least two points")
    if n > max_points:
        rng = np.random.default_rng(seed)
        idx = rng.choice(n, size=max_points, replace=False)
        data = data[np.sort(idx)]
        n = max_points
    d2 = _sq_dists(data, data)
    iu = np.triu_indices(n, k=1)
    med = float(np.median(np.sqrt(d2[iu])))
    if med <= 0.0:
        raise DegenerateScaleError("median pairwise distance is zero")
    return med
