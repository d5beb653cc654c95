"""Exact K-nearest-neighbor graphs."""

import numpy as np
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

from .datasets import validate_cloud, write_rows

__all__ = [
    "knn",
    "save_neighbor_graph",
]


def check_extent(X: np.ndarray) -> None:
    """Refuse a cloud whose squared distances would overflow.

    sum_k (max_k - min_k)^2 over the coordinates bounds every squared
    distance and every centered offset; when it is not finite, distances lose
    their order and the neighborhood solvers their input.
    """
    with np.errstate(over="ignore"):
        extent = np.ptp(X, axis=0)
        if not np.isfinite(extent @ extent):
            raise ValueError("point cloud spread is too large: squared distances overflow")


def knn(cloud, K: int) -> np.ndarray:
    """Exact K-nearest-neighbor graph as an (N, K) index array.

    Row i holds the K nearest neighbors of point i (self excluded) by
    increasing Euclidean distance.  Requires 1 <= K < N.  Distances are
    squared Euclidean (same ordering as Euclidean, cheaper); ties are
    resolved toward the smaller index, so the result is permutation-checkable
    and deterministic.

    A KD-tree proposes k = min(K + 2, N) candidates per point.  Each
    candidate's squared distance is re-scored one coordinate at a time, which
    rounds exactly like ``cdist(..., "sqeuclidean")``, and the candidates are
    sorted by (distance, index).  A row is settled when k = N, since every
    point is then a candidate, or when its K-th distance lies below its farthest
    candidate's by a relative margin of 4(D + 1 + b) machine epsilons, b the
    bit length of N.  A point the tree did not return was either scored at a
    leaf, at least as far as that candidate by the tree's own D-term sums, or
    pruned with its node, whose lower bound cKDTree updates one split at a
    time along the path from the root and compares with its current farthest
    distance.  The sums round within gamma_(D+1) relative (Higham, Accuracy
    and Stability of Numerical Algorithms, 2nd ed., 3.1), as does the
    re-score; each update of the bound rounds within a few ulps of it, and
    the median-split tree cKDTree builds by default is fewer than b levels
    deep.  Unsettled rows, such as ties across the candidate boundary, take
    the full row of distances and a stable argsort; a cloud with N <= K + 2
    has none.
    """
    X = validate_cloud(cloud)
    n = X.shape[0]
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    if K >= n:
        raise ValueError(f"K must be < N = {n}, got {K}")
    check_extent(X)
    # Scaling by a power of two is exact, so the graph is unchanged while the
    # squared differences of a tiny spread, at any offset, no longer underflow;
    # the clip keeps the largest coordinate finite.
    e = max(np.frexp(np.ptp(X, axis=0).max())[1], np.frexp(np.abs(X).max())[1] - 1021)
    X = np.ldexp(X, -e)
    k = min(K + 2, n)
    cand = cKDTree(X).query(X, k=k)[1]
    d2 = np.zeros(cand.shape)
    for j in range(X.shape[1]):
        d2 += (X[cand, j] - X[:, j, None]) ** 2
    d2[cand == np.arange(n)[:, None]] = np.inf  # exclude self
    order = np.lexsort((cand, d2))
    cand = np.take_along_axis(cand, order, axis=1)
    d2 = np.take_along_axis(d2, order, axis=1)
    margin = 4 * (X.shape[1] + 1 + n.bit_length()) * np.finfo(float).eps
    # Column -2 is the farthest candidate other than self, which sorts last;
    # without self among them it is a nearer one, a stricter test.
    settled = (k == n) | (d2[:, K - 1] < (1 - margin) * d2[:, -2])
    indices = cand[:, :K].copy()
    for i in np.flatnonzero(~settled):
        d2 = cdist(X[i : i + 1], X, metric="sqeuclidean")[0]
        d2[i] = np.inf  # exclude self
        indices[i] = np.argsort(d2, kind="stable")[:K]
    return indices


def save_neighbor_graph(graph, path) -> None:
    """Write an (N, K) neighbor index array as integer CSV, one row per point."""
    write_rows(np.asarray(graph).tolist(), path)
