"""Spectral embedding from a reconstruction-weight matrix.

The embedding minimizes the output-side reconstruction error
sum_i ||y_i - sum_j W_ij y_j||^2 over centered, orthonormal coordinates; the
minimizer is read off the bottom eigenvectors of M = (I - W)'(I - W), with the
constant near-zero mode dropped.
"""

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.csgraph as csgraph
import scipy.sparse.linalg

from .datasets import save_csv
from .errors import DisconnectedGraphError, EigenSolverError, LdrLleError
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
    """M = (I - W)'(I - W) in CSR form, explicitly symmetrized against roundoff."""
    W = sparse.csr_matrix(W)
    n = W.shape[0]
    if W.shape[1] != n:
        raise ValueError(f"W must be square, got shape {W.shape}")
    A = sparse.eye(n, format="csr") - W
    M = (A.T @ A).tocsr()
    return ((M + M.T) * 0.5).tocsr()


def _complement_basis(y: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the complement of unit vector y, via Householder."""
    k = y.size
    s = 1.0 if y[0] >= 0.0 else -1.0
    v = y.copy()
    v[0] += s
    v /= np.linalg.norm(v)
    H = np.eye(k) - 2.0 * np.outer(v, v)
    return H[:, 1:]


def _bottom_eigenpairs(M, k: int):
    """The k smallest eigenpairs of M, ascending, and lambda_max(M), by ARPACK.

    The bottom pairs come from shift-invert about zero.  When M is singular to
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
            evals, evecs = sparse.linalg.eigsh(A, k=k, sigma=0.0, which="LM", v0=v0)
        except RuntimeError:
            evals, evecs = sparse.linalg.eigsh(
                A, k=k, sigma=-1e-6 * lam_max, which="LM", v0=v0
            )
    except sparse.linalg.ArpackError as exc:
        raise EigenSolverError(f"eigensolver failed: {exc}") from exc
    order = np.argsort(evals, kind="stable")
    return evals[order], evecs[:, order], lam_max


def embed(W, d: int) -> Embedding:
    """Embed into d dimensions from a row-stochastic weight matrix.

    Computes the d + 1 smallest eigenpairs of M = (I - W)'(I - W), drops the
    near-zero pair aligned with the ones vector, and returns the rest in
    ascending eigenvalue order with deterministic column signs
    (largest-magnitude entry positive).

    Raises
    ------
    DisconnectedGraphError
        when the neighbor graph behind W splits into several components, or
        when more than one near-zero constant-correlated eigenvalue shows up.
    EigenSolverError
        when the eigensolver failed, or no eigenpair looks like the
        constant mode.
    """
    W = sparse.csr_matrix(W)
    n = W.shape[0]
    if W.shape[1] != n:
        raise ValueError(f"W must be square, got shape {W.shape}")
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if d > n - 2:
        raise ValueError(f"d must be <= N - 2 = {n - 2}, got {d}")

    n_comp = csgraph.connected_components(
        W, directed=True, connection="weak", return_labels=False
    )
    if n_comp > 1:
        raise DisconnectedGraphError(
            f"neighbor graph has {n_comp} connected components; "
            "embed each component separately",
            n_components=int(n_comp),
        )

    M = build_m(W)
    k = min(n - 1, max(d + 1, MIN_SUBSPACE))
    evals, evecs, lam_max = _bottom_eigenpairs(M, k)

    lam = np.maximum(evals, 0.0)
    # Remove the constant mode by diagonalizing M restricted to the computed
    # bottom subspace intersected with the complement of the ones vector.
    # With a simple, well-separated zero eigenvalue this reduces to dropping
    # the near-zero ones-aligned pair; when exact reconstruction makes the
    # bottom cluster numerically degenerate (the linear-projection regime,
    # where coordinate modes join the constant at working precision), it
    # still yields centered output and the correct residual subspace.
    u = np.full(n, 1.0 / np.sqrt(n))
    y = evecs.T @ u
    captured = float(np.linalg.norm(y))
    if captured < ONES_CORR_MIN:
        raise EigenSolverError(
            f"the constant mode is missing from the computed bottom subspace "
            f"(captured fraction {captured:.3f}); the eigensolve looks unreliable"
        )
    ones_dir = evecs @ (y / captured)
    r = ones_dir - W @ ones_dir
    dropped = float(r @ r)
    if dropped >= ZERO_EIG_REL * lam_max:
        raise EigenSolverError(
            f"constant-mode eigenvalue {dropped:.3e} is not near zero "
            f"(lambda_max = {lam_max:.3e}); weight rows may not sum to one"
        )
    Q = _complement_basis(y / captured)
    S = (Q.T * lam) @ Q
    _, R = np.linalg.eigh((S + S.T) * 0.5)
    # Candidate columns span the constant-free part of the computed subspace.
    # Eigenvalues are reported as directly evaluated squared residual norms
    # ||(I - W) c||^2 (the Rayleigh quotients): for the tiny eigenvalues that
    # matter here these beat the eigensolver's values, which are accurate
    # only to about machine epsilon times lambda_max, and they make phi(Y)
    # and the eigenvalue sum agree identically.  The candidate pool depends
    # on the subspace size, not on d, so smaller-d output is a prefix of
    # larger-d output for the same W.
    C = evecs @ (Q @ R)
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
    either file is written.
    """
    sidecar = {
        "eigenvalues": [float(v) for v in emb.eigenvalues],
        "dropped_eigenvalue": float(emb.dropped_eigenvalue),
    }
    if metadata:
        sidecar.update(metadata)
    sidecar_path = Path(path).with_suffix(".json")
    try:
        text = json.dumps(sidecar, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise LdrLleError(f"sidecar {sidecar_path} not written: {exc}") from exc
    save_csv(emb.Y, path)
    sidecar_path.write_text(text + "\n")
