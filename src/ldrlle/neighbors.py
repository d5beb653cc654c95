"""Exact K-nearest-neighbor graphs."""

import numpy as np
from scipy.spatial.distance import cdist

from .datasets import validate_cloud, write_rows


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
    """Exact brute-force K-nearest-neighbor graph as an (N, K) index array.

    Row i holds the K nearest neighbors of point i (self excluded) by
    increasing Euclidean distance.  Requires 1 <= K < N.  Distances are
    squared Euclidean (same ordering as Euclidean, cheaper); ties are
    resolved toward the smaller index by the stable argsort, so the result is
    permutation-checkable and deterministic.
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
    indices = np.empty((n, K), dtype=np.intp)
    for i in range(n):
        d2 = cdist(X[i : i + 1], X, metric="sqeuclidean")[0]
        d2[i] = np.inf  # exclude self
        indices[i] = np.argsort(d2, kind="stable")[:K]
    return indices


def save_neighbor_graph(graph, path) -> None:
    """Write an (N, K) neighbor index array as integer CSV, one row per point."""
    write_rows(np.asarray(graph).tolist(), path)
