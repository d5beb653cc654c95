"""Exact K-nearest-neighbor graphs and centered neighborhood matrices."""

from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.spatial.distance import cdist

from .datasets import validate_cloud

# Row-chunk size for the pairwise-distance sweep; bounds peak memory at about
# CHUNK * N doubles without changing results.
_CHUNK = 512


@dataclass
class NeighborGraph:
    """Per-point neighbor lists ordered by increasing Euclidean distance.

    indices[i] holds the K nearest neighbors of point i (self excluded);
    equidistant candidates are broken toward the smaller index.
    """

    indices: np.ndarray  # (N, K) integer

    @property
    def K(self) -> int:
        return self.indices.shape[1]

    @property
    def N(self) -> int:
        return self.indices.shape[0]


def knn(cloud, K: int) -> NeighborGraph:
    """Exact brute-force K-nearest-neighbor graph.

    Requires 1 <= K < N.  Distances are squared Euclidean (same ordering as
    Euclidean, cheaper); ties are resolved toward the smaller index by the
    stable argsort, so the result is permutation-checkable and deterministic.
    """
    X = validate_cloud(cloud)
    n = X.shape[0]
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    if K >= n:
        raise ValueError(f"K must be < N = {n}, got {K}")
    indices = np.empty((n, K), dtype=np.intp)
    for start in range(0, n, _CHUNK):
        stop = min(start + _CHUNK, n)
        d2 = cdist(X[start:stop], X, metric="sqeuclidean")
        d2[np.arange(stop - start), np.arange(start, stop)] = np.inf  # exclude self
        order = np.argsort(d2, axis=1, kind="stable")
        indices[start:stop] = order[:, :K]
    return NeighborGraph(indices)


@dataclass
class NeighborhoodMatrix:
    """One point's neighborhood, centered on the point: row j is eta_j - x_i."""

    center_index: int
    rows: np.ndarray  # (K, D)
    radius: float     # max row norm

    @classmethod
    def from_rows(cls, rows, center_index: int = -1) -> "NeighborhoodMatrix":
        rows = np.atleast_2d(np.asarray(rows, dtype=float))
        radius = float(np.sqrt((rows * rows).sum(axis=1).max()))
        return cls(center_index, rows, radius)


def neighborhood_matrix(cloud, graph: NeighborGraph, i: int) -> NeighborhoodMatrix:
    """Centered neighborhood of point i, rows in the graph's stored order.

    Zero rows are permitted (duplicate points); downstream solvers decide
    whether the neighborhood is usable.
    """
    X = validate_cloud(cloud)
    n = X.shape[0]
    if not 0 <= i < n:
        raise IndexError(f"point index {i} out of range for N = {n}")
    return NeighborhoodMatrix.from_rows(X[graph.indices[i]] - X[i], center_index=i)


def save_neighbor_graph(graph: NeighborGraph, path) -> None:
    """Write neighbor indices as integer CSV, one row per point."""
    lines = [",".join(str(int(j)) for j in row) for row in graph.indices]
    Path(path).write_text("\n".join(lines) + "\n")
