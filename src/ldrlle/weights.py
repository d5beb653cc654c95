"""Reconstruction-weight solvers.

Two methods are provided.  The classical solver reconstructs each point from
its neighbors as they sit in the ambient space, regularizing the Gram matrix
when asked to (mandatory once K > D, where the Gram matrix is singular).  The
low-dimensional-representation (LDR) solver first replaces each neighborhood
by its best rank-d approximation and returns the minimum-norm weights that
reconstruct the center exactly from that representation; it needs no
regularization, and the weights depend only on the projector onto the
discarded singular directions, which is well defined whenever the top-d
spectral gap is.

A neighborhood is a plain (K, D) array of centered rows eta_j - x_i.  Every
solve is written once, as a kernel over a stack of such neighborhoods of
shape (N, K, D); the public solvers take one neighborhood or a stack, and a
single neighborhood runs as a stack of one.  A kernel raises the typed error
of its first failing row, with the row as point_index.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sparse

from .datasets import validate_cloud, write_rows
from .errors import DegenerateWeightsError, GeneralPositionError, SingularNeighborhoodError
from .neighbors import check_extent

# Regularization scale: the ridge added to the Gram matrix is
# (delta / K) * trace(G), so it is invariant to input scaling.
DEFAULT_DELTA = 1e-9

# Reciprocal-condition floor below which an unregularized Gram solve refuses.
RCOND_MIN = 1e-12

# Per-neighbor floor on 1'U2U2'1 (scaled by K) for the general-position check.
GENERAL_POSITION_TOL = 1e-12

# Relative spectral-gap floor below which the rank-d split is flagged.
GAP_WARN_REL = 1e-6

# The errors of a single neighborhood, which assembly re-raises naming the point.
_ROW_ERRORS = (SingularNeighborhoodError, DegenerateWeightsError, GeneralPositionError)


@dataclass
class NeighborhoodSpectrum:
    """SVD of one centered neighborhood, split at rank d.

    singular_values has length K (zero-padded when D < K) in descending
    order.  U1 spans the top-d left-singular directions and U2 the rest;
    alpha = (1/K) * ||U1' 1||^2 measures how much of the ones vector the
    retained subspace captures (alpha -> 1 means the projected neighbors
    leave general position).  gap_warning flags a numerically ill-defined
    split: (lambda_d - lambda_{d+1}) / lambda_1 below 1e-6.
    """

    singular_values: np.ndarray  # (K,)
    U1: np.ndarray               # (K, d)
    U2: np.ndarray               # (K, K - d)
    alpha: float
    d: int
    gap_warning: bool = False


@dataclass
class Spectra:
    """Rank-d splits of all neighborhoods of a cloud; row i belongs to point i.

    singular_values, alpha and gap_warning are as in NeighborhoodSpectrum;
    radius is the largest distance from the point to one of its neighbors.
    """

    singular_values: np.ndarray  # (N, K)
    alpha: np.ndarray            # (N,)
    radius: np.ndarray           # (N,)
    gap_warning: np.ndarray      # (N,) bool
    d: int


def _per_row(kernel, rows, *args):
    """A kernel's output on an (N, K, D) stack, or on one (K, D) neighborhood
    run as a stack of one, whose errors then name no point."""
    rows = np.asarray(rows, dtype=float)
    if rows.ndim == 3:
        return kernel(rows, *args)
    if rows.ndim != 2:
        raise ValueError(f"need one (K, D) neighborhood or an (N, K, D) stack, got {rows.shape}")
    try:
        return kernel(rows[None], *args)[0]
    except _ROW_ERRORS as exc:
        exc.point_index = None
        raise


def _sqnorm(v: np.ndarray) -> np.ndarray:
    """Squared norm of each row of v, one dot product per row."""
    return (v[:, None, :] @ v[:, :, None])[:, 0, 0]


def _fix_signs(U: np.ndarray) -> np.ndarray:
    """Make each column's largest-magnitude entry positive (first one on ties), per matrix."""
    lead = np.argmax(np.abs(U), axis=-2)
    picked = np.take_along_axis(U, lead[..., None, :], axis=-2)
    return U * np.where(picked < 0.0, -1.0, 1.0)


def _split(rows: np.ndarray, d: int):
    """Stacked SVD split at rank d: sign-fixed left-singular bases (N, K, K) and Spectra."""
    n, K = rows.shape[:2]
    if not 1 <= d < K:
        raise ValueError(f"need 1 <= d < K = {K}, got d = {d}")
    U, s, _ = np.linalg.svd(rows, full_matrices=True)
    U = _fix_signs(U)
    lam = np.zeros((n, K))
    lam[:, : s.shape[1]] = s
    alpha = _sqnorm(np.ones(K) @ U[:, :, :d]) / K
    radius = np.sqrt((rows * rows).sum(axis=2).max(axis=1))
    top = lam[:, 0]
    gap = (top <= 0.0) | (
        (lam[:, d - 1] - lam[:, d]) / np.where(top > 0.0, top, 1.0) < GAP_WARN_REL
    )
    return U, Spectra(lam, alpha, radius, gap, d)


def _ldr(U: np.ndarray, spectra: Spectra) -> np.ndarray:
    """Stacked w = U2 U2' 1 / (1' U2 U2' 1) from a split's output, U2 = U[:, :, d:]."""
    U2, alpha = U[:, :, spectra.d:], spectra.alpha
    K = U2.shape[1]
    coef = np.ones(K) @ U2
    denom = _sqnorm(coef)
    bad = denom <= GENERAL_POSITION_TOL * K
    if bad.any():
        i = int(np.argmax(bad))
        raise GeneralPositionError(
            f"projected neighborhood is not in general position "
            f"(1'U2U2'1 = {denom[i]:.3e}, alpha = {alpha[i]:.6f})",
            alpha=float(alpha[i]), point_index=i,
        )
    return (U2 @ coef[:, :, None])[:, :, 0] / denom[:, None]


def _classical(rows: np.ndarray, delta: float, pinv_singular: bool = False) -> np.ndarray:
    """Stacked classical weights: (G + delta_eff I) w = 1, normalized.

    With delta = 0, a row whose Gram matrix is singular to working precision
    is refused, or with pinv_singular gets the pseudo-inverse solution G^+ 1.
    """
    if not 0.0 <= delta < np.inf:
        raise ValueError(f"delta must be finite and >= 0, got {delta}")
    n, K = rows.shape[:2]
    G = rows @ rows.transpose(0, 2, 1)
    trace = np.trace(G, axis1=1, axis2=2)
    singular = np.zeros(n, dtype=bool)
    if delta == 0.0:
        evals = np.linalg.eigvalsh(G)
        top = evals[:, -1]
        rcond = np.divide(np.maximum(evals[:, 0], 0.0), top, out=np.zeros(n), where=top > 0.0)
        singular = rcond < RCOND_MIN
        lhs = G
    else:
        lhs = G + ((delta / K) * trace)[:, None, None] * np.eye(K)
    # With all neighbors on the center only the ridge objective remains; its
    # minimizer under the sum constraint is uniform, which the identity system
    # yields.  Singular rows solve it too and are replaced or refused below.
    lhs = np.where((singular | (trace == 0.0))[:, None, None], np.eye(K), lhs)
    w = np.linalg.solve(lhs, np.ones((n, K, 1)))[:, :, 0]
    if pinv_singular:
        # G^+ 1 = R^+' R^+ 1: a pseudo-inverse of G itself squares the condition
        # number, and its cutoff can drop every small direction (weights sum to 0).
        P = np.linalg.pinv(rows[singular])
        w[singular] = ((P @ np.ones(K))[:, None, :] @ P)[:, 0, :]
        singular[:] = False
    total = w.sum(axis=1)
    bad = singular | (total == 0.0) | (np.abs(total) < 1e-14 * np.abs(w).sum(axis=1))
    if bad.any():
        i = int(np.argmax(bad))
        if singular[i]:
            raise SingularNeighborhoodError(
                f"Gram matrix is singular to working precision (rcond = {rcond[i]:.2e}); "
                "pass delta > 0 or use the rank-d method",
                rcond=float(rcond[i]), point_index=i,
            )
        raise DegenerateWeightsError(
            "weight vector sums to zero; normalization undefined", point_index=i
        )
    return w / total[:, None]


def neighborhood_spectrum(rows, d: int) -> NeighborhoodSpectrum:
    """Full SVD split of one (K, D) neighborhood at rank d (requires 1 <= d < K).

    Column signs follow the largest-magnitude-entry-positive convention, so
    repeated runs on the same machine agree bit for bit.
    """
    U, spec = _split(np.asarray(rows, dtype=float)[None], d)
    return NeighborhoodSpectrum(spec.singular_values[0], U[0, :, :d], U[0, :, d:],
                                float(spec.alpha[0]), d, bool(spec.gap_warning[0]))


def lle_weights(rows, delta: float) -> np.ndarray:
    """Classical reconstruction weights, optionally regularized.

    Solves (G + delta_eff * I) w = 1 for the Gram matrix G = rows rows' and
    normalizes w to sum to one, with delta_eff = (delta / K) * trace(G).
    With delta = 0 the Gram matrix must be nonsingular to working precision
    (reciprocal condition number above 1e-12), which fails whenever K > D.
    rows is one (K, D) neighborhood, giving (K,) weights, or an (N, K, D)
    stack, giving (N, K).
    """
    return _per_row(_classical, rows, delta)


def lle_weights_pinv(rows) -> np.ndarray:
    """Unregularized weights via the pseudo-inverse: G^+ 1, normalized.

    Minimum-norm solution of the stationarity equation G w proportional to 1
    (G^-1 1 where G is nonsingular to working precision); used where the
    exact delta = 0 solution is wanted even when G is singular.  Takes one
    neighborhood or a stack, as lle_weights does.
    """
    return _per_row(_classical, rows, 0.0, True)


def ldr_weights(rows, d: int) -> np.ndarray:
    """Weights that reconstruct the center exactly from the rank-d
    approximation of its neighborhood.

    w = U2 U2' 1 / (1' U2 U2' 1): the unique minimum-norm vector in the span
    of the discarded K - d left-singular directions whose entries sum to one.
    No regularization parameter exists; when K > D (ambient dimension) the
    discarded span always contains exact annihilators of the data, so the
    reconstruction is exact where the classical Gram solve would have needed
    a ridge.  Raises GeneralPositionError when 1' U2 U2' 1 <= 1e-12 * K, i.e.
    the ones vector numerically lies inside the retained subspace (alpha = 1).
    Takes one neighborhood or a stack, as lle_weights does.
    """
    return _per_row(lambda stack: _ldr(*_split(stack, d)), rows)


def assemble_weight_matrix(cloud, graph, method: str, *, d: int,
                           delta: float = DEFAULT_DELTA):
    """Solve every point's weights and assemble the sparse N x N row-stochastic W.

    graph is the (N, K) neighbor index array of knn, integers in [0, N).
    method is "classical" (ambient-space weights regularized by delta) or
    "ldr" (rank-d representation weights).  Neighborhood spectra are computed
    for every point regardless of method, so callers can report alpha,
    singular values, radii, and gap warnings; for classical with d >= K no
    rank split exists and the spectra are None.

    Returns (W, spectra) with W in CSR format, row i carrying point i's
    weights on its neighbor columns, and spectra a Spectra record.  A
    neighborhood failure is raised for the first failing point, with its
    index attached.
    """
    X = validate_cloud(cloud)
    if method not in ("classical", "ldr"):
        raise ValueError(f"unknown method {method!r}; expected 'classical' or 'ldr'")
    graph = np.asarray(graph)
    n, K = graph.shape
    if X.shape[0] != n:
        raise ValueError(f"cloud has {X.shape[0]} points but the neighbor graph has {n}")
    if not np.issubdtype(graph.dtype, np.integer):
        raise ValueError(f"neighbor graph must hold integer indices, got dtype {graph.dtype}")
    outside = ((graph < 0) | (graph >= n)).any(axis=1)
    if outside.any():
        raise ValueError(f"neighbor graph row {int(np.argmax(outside))} has an index "
                         f"outside [0, {n})")
    if method == "ldr" and not 1 <= d < K:
        raise ValueError(f"rank-d method needs 1 <= d < K = {K}, got d = {d}")
    check_extent(X)
    rows = X[graph] - X[:, None, :]
    U, spectra = _split(rows, d) if 1 <= d < K else (None, None)
    try:
        data = _ldr(U, spectra) if method == "ldr" else _classical(rows, delta)
    except _ROW_ERRORS as exc:
        exc.args = (f"point {exc.point_index}: {exc.args[0]}",)
        raise
    indptr = np.arange(0, n * K + 1, K)
    W = sparse.csr_matrix((data.ravel(), graph.ravel().copy(), indptr), shape=(n, n))
    return W, spectra


def save_weight_matrix(W, path) -> None:
    """Write W as coordinate-format text: one "i,j,value" line per entry."""
    coo = sparse.coo_matrix(W)
    write_rows(zip(coo.row.tolist(), coo.col.tolist(), coo.data.tolist()), path)


def save_spectra(spectra: Spectra, path) -> None:
    """Write spectra as CSV rows: point index, lambda_1..lambda_K, alpha, radius."""
    table = np.column_stack([spectra.singular_values, spectra.alpha, spectra.radius])
    write_rows(([i, *row] for i, row in enumerate(table.tolist())), path)
