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

Both are spectral filters on one thin SVD per neighborhood, taken in one
place (_svd) for every solver, assembly and the perturbation study alike.
With rows = U S V', left-singular vectors u_j, singular values lambda_j (zero
past m = min(K, D)) and c_j = u_j'1, every solver returns
w = sum_j f_j c_j u_j normalized to sum to one; only the filter f differs.
The rank-d filter is f_j = [j > d]; the classical one is
f_j = 1 / (lambda_j^2 + mu), the ridge solve (G + mu I)^-1 1 without ever
forming the Gram matrix G = rows rows', whose condition number is the square
of the rows'.  Every filter is constant past m, at its value f_tail at
lambda = 0, and the discarded columns span the complement of the first m, so
w = f_tail 1 + sum_{j<m} (f_j - f_tail) c_j u_j needs only the m columns of
the thin basis; the (K, K) basis is never computed, and no function returns
a basis.  Assembly reads its one spectrum record, Spectra (singular values,
alpha, radius and gap flags for every point), off the same SVD.

A neighborhood is a plain (K, D) array of centered rows eta_j - x_i.  Every
solve is written once, as a kernel over a stack of such neighborhoods of
shape (N, K, D); the public solvers take one neighborhood or a stack, and a
single neighborhood runs as a stack of one.  A kernel raises the typed error
of its first failing row i, named by the kernel's label, a format string: the
message starts with label.format(i) + ": " and point_index is i.  The public
solvers pass "point {}" for a stack, as assembly does, and None for one
neighborhood, whose error then has no prefix and point_index None.
Assembly runs the kernels on one block of BLOCK points at a time and passes
the index of the block's first point, so i is the point's index in the cloud.
"""

from dataclasses import dataclass

import numpy as np

from .datasets import BLOCK, as_count, validate_cloud, write_rows
from .errors import DegenerateWeightsError, GeneralPositionError, SingularNeighborhoodError
from .neighbors import check_extent

__all__ = [
    "DEFAULT_DELTA",
    "Spectra",
    "assemble_weight_matrix",
    "ldr_weights",
    "lle_weights",
    "lle_weights_pinv",
    "save_spectra",
    "save_weight_matrix",
]

# Regularization scale: the ridge added to the Gram matrix is
# (delta / K) * trace(G), so it is invariant to input scaling.
DEFAULT_DELTA = 1e-9

# Floor on the Gram matrix's reciprocal condition number, (lambda_K / lambda_1)^2,
# below which unregularized classical weights are refused.
RCOND_MIN = 1e-12

# Per-neighbor floor on 1'U2U2'1 (scaled by K) for the general-position check.
GENERAL_POSITION_TOL = 1e-12

# Relative spectral-gap floor below which the rank-d split is flagged.
GAP_WARN_REL = 1e-6


@dataclass
class Spectra:
    """Rank-d splits of all neighborhoods of a cloud; row i belongs to point i.

    singular_values holds each neighborhood's K singular values in descending
    order, zero-padded past m = min(K, D).  alpha = (1/K) * ||U1' 1||^2, with
    U1 the top-d left-singular directions, measures how much of the ones
    vector the retained subspace captures (alpha -> 1 means the projected
    neighbors leave general position).  gap_warning flags a numerically
    ill-defined split: lambda_1 = 0, or (lambda_d - lambda_{d+1}) / lambda_1
    below 1e-6.  Past the thin rank, d >= m, U1 is the whole thin basis, so
    alpha (and the ldr weights) equal those at d = m bit for bit, and for
    d > m every row is gap-warned, lambda_d = lambda_{d+1} = 0.  At d >= K
    nothing is discarded: the pair reads (lambda_K, lambda_K), so every row is
    gap-warned too.  radius is the largest distance from the point to one of
    its neighbors.  The singular values and radii do not depend on d.
    """

    singular_values: np.ndarray  # (N, K)
    alpha: np.ndarray            # (N,)
    radius: np.ndarray           # (N,)
    gap_warning: np.ndarray      # (N,) bool
    d: int


def _per_row(kernel, rows):
    """kernel(U, lam, label) on the stacked SVD of an (N, K, D) stack, with
    label "point {}", or of one (K, D) neighborhood run as a stack of one, with
    label None, so its errors name no point.  An empty or non-finite
    neighborhood is refused before the SVD."""
    rows = np.asarray(rows, dtype=float)
    if rows.ndim not in (2, 3):
        raise ValueError(f"need one (K, D) neighborhood or an (N, K, D) stack, got {rows.shape}")
    if 0 in rows.shape[-2:]:
        raise ValueError(f"need K >= 1 neighbors with D >= 1 coordinates, got {rows.shape}")
    stack = rows.reshape(-1, *rows.shape[-2:])
    bad = ~np.isfinite(stack).all(axis=(1, 2))
    if bad.any():
        row = f" {int(np.argmax(bad))}" if rows.ndim == 3 else ""
        raise ValueError(f"neighborhood{row} contains non-finite entries")
    U, lam, _ = _svd(stack)
    return kernel(U, lam, "point {}" if rows.ndim == 3 else None).reshape(rows.shape[:-1])


def _row_error(kind, label, i: int, message: str, **fields):
    """The kind of error for row i of a stack, its message prefixed with
    label.format(i) and its point_index i; with label None, for a single
    neighborhood, the bare message and point_index None."""
    if label is None:
        return kind(message, **fields)
    return kind(f"{label.format(i)}: {message}", point_index=i, **fields)


def check_delta(delta) -> None:
    """Refuse a classical regularization scale that is not finite and >= 0
    with ValueError "delta must be finite and >= 0, got ...".  The one owner
    of the delta rule: assembly and lle_weights call it at entry, and the
    CLI before it reads or generates any input."""
    if not 0.0 <= delta < np.inf:
        raise ValueError(f"delta must be finite and >= 0, got {delta}")


def _sqnorm(v: np.ndarray) -> np.ndarray:
    """Squared norm of each row of v, one dot product per row."""
    return (v[:, None, :] @ v[:, :, None])[:, 0, 0]


def _svd(rows: np.ndarray):
    """Stacked thin SVD of an (N, K, D) stack, the only SVD the library takes.

    Returns the left-singular bases (N, K, m), m = min(K, D), with LAPACK's
    column signs; the singular values, descending and zero-padded to (N, K);
    and each neighborhood's radius (N,), the largest norm of one of its rows.
    No caller returns a basis, and every weight and alpha is invariant under
    a column's sign, so no sign is fixed.  Each neighborhood is first scaled
    by a power of two to a largest entry in [1/2, 1) (an all-zero one is left
    as it is), where LAPACK applies no scaling of its own, so the basis is the
    same bits for the cloud scaled by any 2^k and the singular values scale
    exactly.  The radius is taken on the same scaled rows, where the largest
    squared row norm cannot underflow."""
    e = np.frexp(np.abs(rows).max(axis=(1, 2)))[1]
    scaled = np.ldexp(rows, -e[:, None, None])
    U, s, _ = np.linalg.svd(scaled, full_matrices=False)
    lam = np.pad(np.ldexp(s, e[:, None]), ((0, 0), (0, rows.shape[1] - s.shape[1])))
    np.square(scaled, out=scaled)
    return U, lam, np.ldexp(np.sqrt(scaled.sum(axis=2).max(axis=1)), e)


def _filtered(U: np.ndarray, f: np.ndarray):
    """Stacked w = U diag(f) U'1 and its sum 1'w on the thin basis U (N, K, m).

    f holds the filter at all K zero-padded singular values, so when m < K
    its last entry is f_tail, the filter at lambda = 0, and with c = U'1,
    w = f_tail 1 + U ((f_m - f_tail) c), 1'w = sum_j (f_j - f_tail) c_j^2 + K f_tail.
    When m = K there is no tail: f_tail = 0 and this is U diag(f) U'1 itself."""
    N, K, m = U.shape
    f = np.broadcast_to(np.asarray(f, dtype=float), (N, K))
    tail = f[:, -1] if m < K else np.zeros(N)
    c = np.ones(K) @ U
    g = (f[:, :m] - tail[:, None]) * c
    w = (U @ g[:, :, None])[:, :, 0] + tail[:, None]
    return w, (g[:, None, :] @ c[:, :, None])[:, 0, 0] + K * tail


def _ldr(U: np.ndarray, d: int, label, first: int = 0) -> np.ndarray:
    """Stacked w = U2 U2' 1 / (1' U2 U2' 1), the filter [j >= d].

    U2 spans the discarded directions, so U2 U2' 1 = 1 - U1 (U1' 1): on the
    thin basis, w = (1 - U1 c1) / (K - ||c1||^2) when m < K.  A row out of
    general position raises GeneralPositionError named by label (see
    _row_error), with first the index of the stack's first row.  d is a
    count below K (see as_count): nothing is discarded at d >= K."""
    K = U.shape[1]
    d = as_count(d, "d", (K, "K"))
    w, total = _filtered(U, np.arange(K) >= d)
    bad = total <= GENERAL_POSITION_TOL * K
    if bad.any():
        i = int(np.argmax(bad))
        alpha = 1.0 - float(total[i]) / K
        raise _row_error(
            GeneralPositionError, label, first + i,
            f"projected neighborhood is not in general position "
            f"(1'U2U2'1 = {total[i]:.3e}, alpha = {alpha:.6f})",
            alpha=alpha,
        )
    return w / total[:, None]


def _classical(U: np.ndarray, lam: np.ndarray, delta: float, label,
               pinv_singular: bool = False, first: int = 0) -> np.ndarray:
    """Stacked classical weights: (G + delta_eff I)^-1 1, normalized.

    With delta = 0, a row whose Gram matrix is singular to working precision
    is refused.  pinv_singular (passed with delta = 0) instead gives every row
    the pseudo-inverse solution G^+ 1, which drops the directions with
    lambda_j <= K eps lambda_1 and equals G^-1 1 where G is nonsingular.  A
    singular row, or one whose weights sum to zero, raises its error named by
    label (see _row_error), with first the index of the stack's first row.
    delta is checked by its callers (see check_delta).
    """
    K = lam.shape[1]
    # A positive factor per row cancels in the normalization, so the filter is
    # taken on r = lambda / lambda_1, whose square neither overflows nor
    # underflows whatever the scale of the input.
    r = np.divide(lam, lam[:, :1], out=np.zeros_like(lam), where=lam[:, :1] > 0.0)
    if pinv_singular:
        f = np.divide(1.0, r * r, out=np.zeros_like(r), where=r > K * np.finfo(float).eps)
    else:
        rcond = r[:, -1] ** 2
        singular = (delta == 0.0) & (rcond < RCOND_MIN)
        if singular.any():
            i = int(np.argmax(singular))
            raise _row_error(
                SingularNeighborhoodError, label, first + i,
                f"Gram matrix is singular to working precision (rcond = {rcond[i]:.2e}); "
                "pass delta > 0 or use the rank-d method",
                rcond=float(rcond[i]),
            )
        ridge = r * r + (delta / K) * _sqnorm(r)[:, None]
        # With all neighbors on the center only the ridge objective remains;
        # its minimizer under the sum constraint is uniform, which f = 1 yields.
        f = np.divide(1.0, ridge, out=np.ones_like(r), where=ridge > 0.0)
    w, total = _filtered(U, f)
    bad = total <= 1e-14 * np.abs(w).sum(axis=1)
    if bad.any():
        raise _row_error(DegenerateWeightsError, label, first + int(np.argmax(bad)),
                         "weight vector sums to zero; normalization undefined")
    return w / total[:, None]


def lle_weights(rows, delta: float) -> np.ndarray:
    """Classical reconstruction weights, optionally regularized.

    Solves (G + delta_eff * I) w = 1 for the Gram matrix G = rows rows' and
    normalizes w to sum to one, with delta_eff = (delta / K) * trace(G).  The
    solve is the filter 1 / (lambda_j^2 + delta_eff) on the SVD of rows, so G
    is never formed and the weights keep full precision at any input scale.
    With delta = 0 the Gram matrix must be nonsingular to working precision
    (reciprocal condition number (lambda_K / lambda_1)^2 above 1e-12), which
    fails whenever K > D.  rows is one (K, D) neighborhood, giving (K,)
    weights, or an (N, K, D) stack, giving (N, K); the error of a stack's
    failing row i starts "point i: ", as assembly's does.  A delta that is
    not finite and >= 0 raises ValueError before the rows are read.
    """
    check_delta(delta)
    return _per_row(lambda U, lam, label: _classical(U, lam, delta, label), rows)


def lle_weights_pinv(rows) -> np.ndarray:
    """Unregularized weights via the pseudo-inverse: G^+ 1, normalized.

    Minimum-norm solution of the stationarity equation G w proportional to 1
    (G^-1 1 where G is nonsingular to working precision); used where the
    exact delta = 0 solution is wanted even when G is singular.  It is the
    filter 1 / lambda_j^2 on the SVD of rows, cut to 0 where
    lambda_j <= K * eps * lambda_1 (numpy's pinv cutoff when K >= D).  Raises
    DegenerateWeightsError when the result sums to zero, as for the planar
    cross, whose kept directions are orthogonal to the ones vector.  Takes
    one neighborhood or a stack, as lle_weights does.
    """
    return _per_row(lambda U, lam, label: _classical(U, lam, 0.0, label, True), rows)


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
    For d >= m = min(K, D) the retained span is the whole column space, so
    the weights equal those at d = m bit for bit.  d is a count with
    1 <= d < K, checked by as_count once the neighborhood's K is known: a d
    such as 2.0 raises TypeError, d < 1 ValueError "d must be >= 1, got 0"
    and d >= K ValueError "d must be < K = 12, got 12".  Takes one
    neighborhood or a stack, as lle_weights does.
    """
    return _per_row(lambda U, lam, label: _ldr(U, d, label), rows)


def _block(X: np.ndarray, graph: np.ndarray, first: int, method: str, d: int,
           delta: float):
    """Weights, singular values, radii and alpha of points first to
    first + BLOCK - 1, from their own gathered and centered rows.  The rows
    and their basis end with the call, so assembly holds one block's."""
    rows = X[graph[first:first + BLOCK]]
    rows -= X[first:first + BLOCK, None, :]
    U, lam, radius = _svd(rows)
    if method == "ldr":
        data = _ldr(U, d, "point {}", first)
    else:
        data = _classical(U, lam, delta, "point {}", first=first)
    K = U.shape[1]
    return data, lam, radius, _sqnorm(np.ones(K) @ U[:, :, :d]) / K


def assemble_weight_matrix(cloud, graph, method: str, *, d: int,
                           delta: float = DEFAULT_DELTA):
    """Solve every point's weights and assemble the sparse N x N row-stochastic W.

    graph is the (N, K) neighbor index array of knn, integers in [0, N), with
    K >= 1.  method is "classical" (ambient-space weights regularized by
    delta) or "ldr" (rank-d representation weights).  One SVD per
    neighborhood feeds both the weights and the spectra, which are computed
    for every point regardless of method, so callers can report alpha,
    singular values, radii, and gap warnings.  The points are solved BLOCK
    at a time, so no stack of the whole cloud's neighborhoods is held.
    Classical weights take any d >= 1: at d >= K nothing is discarded and
    every spectra row is gap-warned, while the ldr weights refuse d >= K.
    Both d checks run before any neighborhood is solved: a d that is not an
    integer (2.0) raises TypeError and a d below 1 ValueError at entry,
    before the cloud is read, and the ldr weights' d >= K raises ValueError
    ("d must be < K = ...") on the first block's SVD, before any of its
    weights.  With method "classical", a delta that is not finite and >= 0
    raises ValueError at entry too, after the d count and before the cloud
    is read; the ldr weights read no delta.

    Returns (W, spectra) with W in CSR format, row i carrying point i's
    weights on its neighbor columns, and spectra a Spectra record.  A
    neighborhood failure is raised for the first failing point, with its
    index attached.
    """
    import scipy.sparse as sparse

    d = as_count(d, "d")
    if method == "classical":
        check_delta(delta)
    X = validate_cloud(cloud)
    if method not in ("classical", "ldr"):
        raise ValueError(f"unknown method {method!r}; expected 'classical' or 'ldr'")
    graph = np.asarray(graph)
    if graph.ndim != 2 or graph.shape[1] < 1:
        raise ValueError(f"neighbor graph must be an (N, K) array with K >= 1, "
                         f"got shape {graph.shape}")
    n, K = graph.shape
    if X.shape[0] != n:
        raise ValueError(f"cloud has {X.shape[0]} points but the neighbor graph has {n}")
    if not np.issubdtype(graph.dtype, np.integer):
        raise ValueError(f"neighbor graph must hold integer indices, got dtype {graph.dtype}")
    outside = ((graph < 0) | (graph >= n)).any(axis=1)
    if outside.any():
        raise ValueError(f"neighbor graph row {int(np.argmax(outside))} has an index "
                         f"outside [0, {n})")
    check_extent(X)
    # Blocks run in ascending order and each kernel raises for its own first
    # failing row, so the point named is still the cloud's first failing one.
    data, lam, radius, alpha = map(np.concatenate, zip(*[
        _block(X, graph, first, method, d, delta) for first in range(0, n, BLOCK)]))
    # At d >= K the pair clips to (lambda_K, lambda_K): a zero gap, so every row is flagged.
    pair = np.take(lam, [d - 1, d], axis=1, mode="clip")
    top = lam[:, 0]
    gap = (top <= 0.0) | ((pair[:, 0] - pair[:, 1]) / np.where(top > 0.0, top, 1.0) < GAP_WARN_REL)
    spectra = Spectra(lam, alpha, radius, gap, d)
    indptr = np.arange(0, n * K + 1, K)
    W = sparse.csr_matrix((data.ravel(), graph.ravel().copy(), indptr), shape=(n, n))
    return W, spectra


def save_weight_matrix(W, path) -> None:
    """Write W as coordinate-format text: one "i,j,value" line per entry."""
    import scipy.sparse as sparse

    coo = sparse.coo_matrix(W)
    write_rows([coo.row, coo.col, coo.data], path)


def save_spectra(spectra: Spectra, path) -> None:
    """Write spectra as CSV rows: point index, lambda_1..lambda_K, alpha, radius."""
    n = len(spectra.alpha)
    write_rows([np.arange(n), *spectra.singular_values.T, spectra.alpha, spectra.radius], path)
