"""Spectral embedding from a reconstruction-weight matrix.

The embedding minimizes the output-side reconstruction error
sum_i ||y_i - sum_j W_ij y_j||^2 over centered, orthonormal coordinates; the
minimizer is read off the bottom eigenvectors of M = (I - W)'(I - W), with the
constant near-zero mode dropped.
"""

from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.csgraph as csgraph
import scipy.sparse.linalg

from .datasets import validate_cloud, write_json, write_rows
from .errors import DisconnectedGraphError, EigenSolverError
from .weights import _fix_signs

# An eigenvalue counts as "the zero mode" when it is below this times
# lambda_max(M) and its eigenvector correlates with the ones vector.
ZERO_EIG_REL = 1e-9
ONES_CORR_MIN = 0.99

# Number of bottom eigenpairs computed internally (when N allows), regardless
# of the requested d.  Exact reconstruction can fuse the constant mode with
# up to D coordinate modes into one numerically degenerate cluster; a fixed,
# d-independent subspace keeps the whole cluster in view, and makes the
# returned coordinates for different d nested by construction.
MIN_SUBSPACE = 8


@dataclass
class Embedding:
    """Output coordinates with the eigenvalues they came from.

    Columns of Y are unit-norm eigenvectors of M = (I - W)'(I - W) for the d
    smallest non-zero eigenvalues, ascending; the near-zero constant mode is
    dropped and its eigenvalue recorded.  Y'1 = 0 and Y'Y = I hold to 1e-8.
    """

    Y: np.ndarray             # (N, d)
    eigenvalues: np.ndarray   # (d,) ascending, non-negative
    dropped_eigenvalue: float


def build_m(W) -> sparse.csr_matrix:
    """M = (I - W)'(I - W) in CSR form."""
    W = sparse.csr_matrix(W)
    n = W.shape[0]
    if W.shape[1] != n:
        raise ValueError(f"W must be square, got shape {W.shape}")
    A = sparse.eye(n, format="csr") - W
    return (A.T @ A).tocsr()


def _bottom_subspace(M, k: int):
    """Orthonormal basis of M's k-dim bottom eigenspace, and lambda_max(M), by ARPACK.

    The bottom basis comes from shift-invert about zero.  When M is singular to
    working precision its LU factorization can fail; the solve is then retried
    about a small negative shift, which keeps M - sigma*I definite.
    """
    n = M.shape[0]
    # Fixed, non-constant start vector keeps ARPACK deterministic; the
    # constant vector is (near) the null space of M and would stall it.
    v0 = np.cos(np.arange(n))
    A = M.tocsc()
    try:
        lam_max = float(
            sparse.linalg.eigsh(M, k=1, which="LM", v0=v0, return_eigenvectors=False)[0]
        )
        try:
            _, basis = sparse.linalg.eigsh(A, k=k, sigma=0.0, which="LM", v0=v0)
        except RuntimeError:
            _, basis = sparse.linalg.eigsh(
                A, k=k, sigma=-1e-6 * lam_max, which="LM", v0=v0
            )
    except sparse.linalg.ArpackError as exc:
        raise EigenSolverError(f"eigensolver failed: {exc}") from exc
    return basis, lam_max


def embed(W, d: int) -> Embedding:
    """Embed into d dimensions from a row-stochastic weight matrix.

    Computes the bottom eigenspace of M = (I - W)'(I - W), drops its
    ones-aligned near-zero direction, diagonalizes M on the rest, and returns
    the d smallest pairs in ascending eigenvalue order with deterministic
    column signs (largest-magnitude entry positive).

    Raises
    ------
    DisconnectedGraphError
        when W has more than one closed class: a strongly connected
        component of its nonzero pattern that no weight leaves.  Each closed
        class adds a null vector to I - W, so the zero eigenvalue is not
        simple; a W that splits into pieces has at least one per piece.
    EigenSolverError
        when the eigensolver failed, or no eigenpair looks like the
        constant mode.
    """
    W = sparse.csr_matrix(W)
    M = build_m(W)
    n = M.shape[0]
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if d > n - 2:
        raise ValueError(f"d must be <= N - 2 = {n - 2}, got {d}")

    src, dst = W.nonzero()
    edges = sparse.coo_matrix((np.ones(src.size), (src, dst)), shape=(n, n))
    n_comp, labels = csgraph.connected_components(edges, directed=True, connection="strong")
    closed = n_comp - np.unique(labels[src[labels[src] != labels[dst]]]).size
    if closed > 1:
        raise DisconnectedGraphError(
            f"neighbor graph has {closed} connected components that no weight leaves; "
            "embed each component separately",
            n_components=int(closed),
        )

    k = min(n - 1, max(d + 1, MIN_SUBSPACE))
    basis, lam_max = _bottom_subspace(M, k)

    # Remove the constant mode and rotate the rest by one Rayleigh-Ritz step
    # with M applied through W: G's first column is the ones-aligned direction
    # of the computed subspace and the others span its complement there, so
    # R = (I - W) G yields both the dropped residual and G1'M G1 = R1'R1.
    # Nothing depends on ARPACK's eigenvalues, which are accurate only to
    # about machine epsilon times lambda_max: when exact reconstruction makes
    # the bottom cluster numerically degenerate (the linear-projection
    # regime), they would set the output rotation by rounding, not by W.
    y = basis.T @ np.full(n, 1.0 / np.sqrt(n))
    _, (captured,), Vt = np.linalg.svd(y[None, :])
    if captured < ONES_CORR_MIN:
        raise EigenSolverError(
            f"the constant mode is missing from the computed bottom subspace "
            f"(captured fraction {captured:.3f}); the eigensolve looks unreliable"
        )
    G = basis @ Vt.T
    R = G - W @ G
    dropped = float(R[:, 0] @ R[:, 0])
    if dropped >= ZERO_EIG_REL * lam_max:
        raise EigenSolverError(
            f"constant-mode eigenvalue {dropped:.3e} is not near zero "
            f"(lambda_max = {lam_max:.3e}); weight rows may not sum to one"
        )
    _, V = np.linalg.eigh(R[:, 1:].T @ R[:, 1:])
    # Candidate columns span the constant-free part of the computed subspace.
    # Eigenvalues are reported as directly evaluated squared residual norms
    # ||(I - W) c||^2 (the Rayleigh quotients), so phi(Y) and the eigenvalue
    # sum agree identically.  The candidate pool depends on the subspace
    # size, not on d, so smaller-d output is a prefix of larger-d output for
    # the same W.
    C = G[:, 1:] @ V
    res = C - W @ C
    mu = (res * res).sum(axis=0)
    order = np.argsort(mu, kind="stable")[:d]
    # No renormalization: the columns are orthonormal to solver precision
    # already, and the sign flip negates residuals exactly, so the reported
    # eigenvalues stay bit-consistent with a direct phi evaluation of Y.
    Y = _fix_signs(C[:, order])
    return Embedding(Y, mu[order].copy(), dropped)


def phi(Y, W) -> float:
    """Output reconstruction error ||(I - W) Y||_F^2.

    Accepts any column count, so it applies to embeddings and to ground-truth
    preimages alike.
    """
    Y = np.asarray(Y, dtype=float)
    if Y.ndim == 1:
        Y = Y[:, None]
    if Y.ndim != 2 or Y.shape[0] != W.shape[0]:
        raise ValueError(f"Y shape {Y.shape} does not match W shape {W.shape}")
    R = Y - W @ Y
    return float((R * R).sum())


def save_embedding(emb: Embedding, path, metadata: dict | None = None) -> None:
    """Write Y as headerless CSV plus a JSON sidecar.

    The sidecar carries the kept eigenvalues, the dropped near-zero
    eigenvalue, and any caller-supplied metadata (run configuration,
    diagnostics).  Keys are sorted so identical runs produce identical bytes.
    The sidecar is strict JSON: a non-finite value raises LdrLleError before
    either file is written.  A path ending in ".json" is its own sidecar path
    and raises ValueError, also before any write.
    """
    sidecar = {
        "eigenvalues": [float(v) for v in emb.eigenvalues],
        "dropped_eigenvalue": float(emb.dropped_eigenvalue),
    }
    if metadata:
        sidecar.update(metadata)
    sidecar_path = Path(path).with_suffix(".json")
    if sidecar_path == Path(path):
        raise ValueError(f"embedding path {path} is its own sidecar path; use another suffix")
    Y = validate_cloud(emb.Y)
    write_json(sidecar, sidecar_path)
    write_rows(Y.tolist(), path)
