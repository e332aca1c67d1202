"""Similarity graphs: k-NN construction, Laplacian and total-variation energies.

A :class:`SimilarityGraph` stores each undirected edge once (``i < j``) with a
strictly positive weight. All energy sums in this module run over *ordered*
pairs, i.e. every stored edge contributes with both orientations, so

    dirichlet_energy(g, f) == 2 * f @ laplacian_apply(g, f)

with the standard Laplacian ``L = D - W``. Solvers elsewhere in the package
scale their closed forms to match this convention, so a regularization weight
multiplies the same quantity everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import (
    DegenerateScaleError,
    DimensionError,
    InvalidParameterError,
    check_int,
    check_real,
    whole_numbers,
)
from .kernel import _check_points, _sq_dists


@dataclass(eq=False)
class SimilarityGraph:
    """Symmetric weighted graph over ``n_nodes`` points.

    Parameters
    ----------
    n_nodes : int
        Number of nodes.
    edge_i, edge_j : int arrays
        Endpoints of each undirected edge, stored once per unordered pair.
    edge_w : float array
        Finite positive edge weights.
    """

    n_nodes: int
    edge_i: np.ndarray
    edge_j: np.ndarray
    edge_w: np.ndarray
    degrees: np.ndarray = field(init=False)

    def __post_init__(self):
        check_int("n_nodes", self.n_nodes)
        self.n_nodes = int(self.n_nodes)
        self.edge_i = whole_numbers(self.edge_i, "edge endpoints")
        self.edge_j = whole_numbers(self.edge_j, "edge endpoints")
        self.edge_w = np.asarray(self.edge_w, dtype=np.float64).ravel()
        if not (self.edge_i.size == self.edge_j.size == self.edge_w.size):
            raise DimensionError("edge arrays must have equal length")
        if self.n_nodes < 1:
            raise InvalidParameterError("graph needs at least one node")
        if self.edge_i.size:
            if self.edge_i.min() < 0 or self.edge_j.min() < 0:
                raise InvalidParameterError("negative node index")
            if max(self.edge_i.max(), self.edge_j.max()) >= self.n_nodes:
                raise InvalidParameterError("edge endpoint out of range")
            if np.any(self.edge_i == self.edge_j):
                raise InvalidParameterError("self-loops are not allowed")
            if not np.all(np.isfinite(self.edge_w) & (self.edge_w > 0)):
                raise InvalidParameterError("edge weights must be finite and positive")
            # normalize to i < j and reject duplicate pairs
            lo = np.minimum(self.edge_i, self.edge_j)
            hi = np.maximum(self.edge_i, self.edge_j)
            keys = lo * self.n_nodes + hi
            if np.unique(keys).size != keys.size:
                raise InvalidParameterError("duplicate edge for an unordered pair")
            order = np.argsort(keys, kind="stable")
            self.edge_i = lo[order]
            self.edge_j = hi[order]
            self.edge_w = self.edge_w[order]
        deg = np.zeros(self.n_nodes)
        np.add.at(deg, self.edge_i, self.edge_w)
        np.add.at(deg, self.edge_j, self.edge_w)
        self.degrees = deg
        self._adj = None
        self._lap = None
        self._tv_op = None  # graph-TV operator, built by opt_core.tv_prox on first use

    @property
    def n_edges(self) -> int:
        return int(self.edge_i.size)

    @property
    def adjacency(self) -> sp.csr_matrix:
        """Symmetric sparse weight matrix W."""
        if self._adj is None:
            rows = np.concatenate([self.edge_i, self.edge_j])
            cols = np.concatenate([self.edge_j, self.edge_i])
            vals = np.concatenate([self.edge_w, self.edge_w])
            self._adj = sp.csr_matrix(
                (vals, (rows, cols)), shape=(self.n_nodes, self.n_nodes)
            )
        return self._adj

    def weight(self, i: int, j: int) -> float:
        """Weight of edge {i, j}; zero when absent. Symmetric in (i, j)."""
        return float(self.adjacency[i, j])

    def laplacian(self) -> sp.csr_matrix:
        """Sparse graph Laplacian D - W, built on first use and cached.

        The returned matrix is shared by every caller: do not modify it.
        """
        if self._lap is None:
            self._lap = sp.diags(self.degrees, format="csr") - self.adjacency
        return self._lap


def _check_node_function(g: SimilarityGraph, f) -> np.ndarray:
    f = np.asarray(f, dtype=np.float64).ravel()
    if f.size != g.n_nodes:
        raise DimensionError(
            f"node function has length {f.size}, graph has {g.n_nodes} nodes"
        )
    return f


# build_knn_graph selects neighbors on blocks of this many rows of the
# squared-distance matrix, so that its temporaries stay small beside it
_KNN_ROWS = 256


def _check_knn_params(k, sigma_mode, sigma, m) -> None:
    """Reject :func:`build_knn_graph` parameters before any data is seen: a
    ``k`` or ``m`` that is not a positive integer, an unknown ``sigma_mode``,
    a fixed mode without a finite positive ``sigma``, and a parameter the
    mode would ignore (``sigma`` unless the mode is fixed, ``m`` when it
    is)."""
    check_int("k", k, 1)
    if sigma_mode == "fixed":
        check_real("sigma", sigma, 0.0, strict=True)
        if m is not None:
            raise InvalidParameterError('m applies only to sigma_mode "self_tuning"')
    elif sigma_mode == "self_tuning":
        if sigma is not None:
            raise InvalidParameterError('sigma applies only to sigma_mode "fixed"')
        if m is not None:
            check_int("m", m, 1)
    else:
        raise InvalidParameterError(
            f'sigma_mode must be "self_tuning" or "fixed", got {sigma_mode!r}'
        )


def build_knn_graph(
    data,
    k: int,
    *,
    sigma_mode: str = "self_tuning",
    sigma: float | None = None,
    m: int | None = None,
) -> SimilarityGraph:
    """Union-symmetrized k-nearest-neighbor graph with Gaussian weights.

    Each node is linked to its ``k`` nearest Euclidean neighbors (ties broken
    by smaller index); an edge survives if either endpoint selected it.
    Weights are ``exp(-||x_i - x_j||^2 / (s_i * s_j))`` where the local scale
    ``s_i`` is the distance to the ``m``-th neighbor (``sigma_mode=
    "self_tuning"``, default ``m = k``), or ``exp(-||x_i - x_j||^2 / sigma^2)``
    for ``sigma_mode="fixed"``.

    Raises
    ------
    InvalidParameterError
        If ``k`` or ``m`` is not an integer in range, a fixed ``sigma``
        is missing, non-finite or nonpositive, or the mode would ignore a
        given ``sigma`` (self-tuning) or ``m`` (fixed).
    NonFiniteInputError
        If a point has a NaN or infinite coordinate.
    DegenerateScaleError
        If a self-tuning scale is zero (duplicate points).
    """
    data = _check_points(data, "data points", 2)
    n = data.shape[0]
    _check_knn_params(k, sigma_mode, sigma, m)
    if k >= n:
        raise InvalidParameterError(f"k must satisfy 1 <= k < {n}, got {k}")
    mm = k if m is None else m
    if mm >= n:
        raise InvalidParameterError(f"m must satisfy 1 <= m < {n}, got {mm}")

    d2 = _sq_dists(data, data)
    np.fill_diagonal(d2, np.inf)

    # The k nearest neighbors of a stable sort by distance: every point closer
    # than the k-th distance, then the points at that distance in ascending
    # index order. A row with exactly k points within its k-th distance needs
    # no tie-break; the other rows are sorted stably on their own. Rows go in
    # blocks of _KNN_ROWS, so that the selection makes no n x n temporary.
    kths = sorted({k - 1, mm - 1})
    mth = np.empty(n)  # squared distance to the mm-th neighbor
    rows, cols = [], []
    for start in range(0, n, _KNN_ROWS):
        block = d2[start : start + _KNN_ROWS]
        part = np.partition(block, kths, axis=1)
        mth[start : start + len(block)] = part[:, mm - 1]
        near = block <= part[:, k - 1, None]
        tied = np.flatnonzero(np.count_nonzero(near, axis=1) != k)
        near[tied] = False
        r, c = np.nonzero(near)
        rows += [r + start, np.repeat(tied + start, k)]
        cols += [c, np.argsort(block[tied], axis=1, kind="stable")[:, :k].ravel()]
    rows, cols = np.concatenate(rows), np.concatenate(cols)

    if sigma_mode == "fixed":
        scale_i = np.full(n, float(sigma))
    else:
        scale_i = np.sqrt(mth)
        if np.any(scale_i == 0.0):
            bad = int(np.flatnonzero(scale_i == 0.0)[0])
            raise DegenerateScaleError(
                f"self-tuning scale is zero at point {bad} (duplicate points)"
            )

    lo = np.minimum(rows, cols)
    hi = np.maximum(rows, cols)
    keys = np.unique(lo * n + hi)  # union over directions
    ei = keys // n
    ej = keys % n

    dist2 = d2[ei, ej]
    w = np.exp(-dist2 / (scale_i[ei] * scale_i[ej]))
    keep = w > 0.0  # drop weights that underflowed
    return SimilarityGraph(n, ei[keep], ej[keep], w[keep])


def dirichlet_energy(g: SimilarityGraph, f) -> float:
    """Sum of w_ij * (f_i - f_j)^2 over ordered pairs (each edge twice)."""
    f = _check_node_function(g, f)
    diff = f[g.edge_i] - f[g.edge_j]
    return float(2.0 * np.sum(g.edge_w * diff * diff))


def graph_tv(g: SimilarityGraph, f) -> float:
    """Sum of w_ij * |f_i - f_j| over ordered pairs (each edge twice)."""
    f = _check_node_function(g, f)
    diff = f[g.edge_i] - f[g.edge_j]
    return float(2.0 * np.sum(g.edge_w * np.abs(diff)))


def laplacian_apply(g: SimilarityGraph, f) -> np.ndarray:
    """(D - W) f without materializing a dense Laplacian."""
    f = _check_node_function(g, f)
    return g.degrees * f - g.adjacency @ f


def save_edge_list(g: SimilarityGraph, path) -> None:
    """Write the graph as one ``i j w`` triple per line (0-based, full precision)."""
    with open(path, "w", encoding="utf-8") as fh:
        for i, j, w in zip(g.edge_i, g.edge_j, g.edge_w):
            fh.write(f"{int(i)} {int(j)} {float(w)!r}\n")


def load_edge_list(path, n_nodes: int | None = None) -> SimilarityGraph:
    """Read a graph saved by :func:`save_edge_list`.

    ``n_nodes`` defaults to ``max(index) + 1``; pass it explicitly when the
    graph has trailing isolated nodes. A line that is not two integers and a
    finite positive weight, a self-loop and a repeat of an earlier line's
    pair raise :class:`InvalidParameterError` naming the line.
    """
    ei, ej, w = [], [], []
    seen = {}  # unordered pair -> line it was read on
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            try:
                i, j, wij = int(parts[0]), int(parts[1]), float(parts[2])
            except (ValueError, IndexError):
                wij = math.nan
            if len(parts) != 3 or not (math.isfinite(wij) and wij > 0):
                raise InvalidParameterError(
                    f"line {lineno}: expected 'i j w' with integers i, j and a finite w > 0,"
                    f" got {line.strip()!r}"
                )
            if i == j:
                raise InvalidParameterError(f"line {lineno}: self-loop {line.strip()!r}")
            pair = (min(i, j), max(i, j))
            if pair in seen:
                raise InvalidParameterError(
                    f"line {lineno}: {line.strip()!r} repeats the pair {pair} of line"
                    f" {seen[pair]}"
                )
            seen[pair] = lineno
            ei.append(i)
            ej.append(j)
            w.append(wij)
    if n_nodes is None:
        if not ei:
            raise InvalidParameterError("empty edge list and no n_nodes given")
        n_nodes = int(max(max(ei), max(ej))) + 1
    return SimilarityGraph(n_nodes, np.array(ei), np.array(ej), np.array(w))
