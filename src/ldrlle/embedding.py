"""Spectral embedding from a reconstruction-weight matrix.

The embedding minimizes the output-side reconstruction error
sum_i ||y_i - sum_j W_ij y_j||^2 over centered, orthonormal coordinates; the
minimizer is read off the bottom eigenvectors of M = (I - W)'(I - W), with the
constant zero mode dropped.  Nothing here forms M, whose condition number is
the square of that of A = I - W, or applies it: embed forms A once, reads W's
closed classes off A's nonzero pattern, and runs ARPACK on M's pseudo-inverse,
applied through one sparse LU of A with a single pinned diagonal entry.  Once
the checks are done, A is converted to CSC once and the entry is pinned in
that CSC, so the pinned matrix is only ever built as CSC; it ends with the LU.
The output comes from a Rayleigh-Ritz step through W.
"""

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .datasets import as_columns, as_count, validate_cloud, write_json, write_rows
from .errors import DisconnectedGraphError, EigenSolverError

__all__ = [
    "Embedding",
    "embed",
    "phi",
    "save_embedding",
]

# The constant mode's eigenvalue ||(I - W)1||^2 / N must be below this times
# ||I - W||_F^2 / N, a lower bound on the largest eigenvalue of M that needs
# no solve; otherwise the rows of W do not sum to one.
ZERO_EIG_REL = 1e-9

# Number of bottom eigenpairs past the constant mode computed internally (when
# N allows), regardless of the requested d.  Exact reconstruction can fuse up
# to D coordinate modes into one numerically degenerate cluster; a fixed,
# d-independent subspace keeps the whole cluster in view, and makes the
# returned coordinates for different d nested by construction.
MIN_SUBSPACE = 7


@dataclass
class Embedding:
    """Output coordinates with the eigenvalues they came from.

    Columns of Y are unit-norm eigenvectors of M = (I - W)'(I - W) for its d
    smallest eigenvalues on the complement of the ones vector, ascending.  The
    constant mode is dropped and its eigenvalue ||(I - W)1||^2 / N recorded.
    Y'1 = 0 and Y'Y = I hold to 1e-8, also when W reconstructs its input
    exactly and M's null space has more than one dimension.
    """

    Y: np.ndarray             # (N, d)
    eigenvalues: np.ndarray   # (d,) ascending, non-negative
    dropped_eigenvalue: float


def _fix_signs(U: np.ndarray) -> np.ndarray:
    """Make each column's largest-magnitude entry positive (first one on ties)."""
    lead = np.argmax(np.abs(U), axis=0)
    return U * np.where(U[lead, np.arange(U.shape[1])] < 0.0, -1.0, 1.0)


def _bottom_subspace(W, k: int):
    """Orthonormal basis of the k-dim bottom eigenspace of M = A'A on the
    complement of the ones vector, A = I - W, by ARPACK on M's
    pseudo-inverse, with the dropped constant mode's eigenvalue.  The basis
    is orthogonal to the ones vector to rounding, not to the solver's
    tolerance: it comes from one QR of the ones vector and the purified block.

    A is formed once, as CSR, and read by the closed-class and zero-mode
    checks.  A = I - W has the ones vector as its right null vector and some
    z as its left one.  Pinning the diagonal entry r, the lowest index of W's
    one closed class, gives A_hat = A + e_r e_r', whose determinant is
    proportional to z_r, so A_hat is exactly nonsingular and factors once,
    with A's sparsity pattern.  Once the checks are done, the class arrays
    end and A is converted to CSC once; A_hat is only ever built as CSC,
    from that CSC, and ends with the factorization, so no array of this
    call's own outgrows ARPACK's Lanczos block and workspace.
    z = A_hat^-T e_r, since A_hat'z is proportional to e_r and 1'A' = 0.
    ARPACK keeps the largest eigenvalues of P1 A_hat^-1 Pz A_hat^-T P1, where
    P1 and Pz project out the ones vector and z: M's pseudo-inverse on the
    complement of the ones vector, whose largest eigenvalues are the
    reciprocals of M's smallest.  Both projections are needed: without them
    the null directions, amplified by both inverses, swamp the rest.
    """
    import scipy.linalg
    import scipy.sparse as sparse
    import scipy.sparse.csgraph as csgraph
    import scipy.sparse.linalg

    n = W.shape[0]
    A = sparse.eye(n, format="csr") - W

    # A has W's nonzero pattern plus the diagonal (sparse subtraction stores
    # no zeros), and a diagonal entry joins a class only to itself.
    n_comp, labels = csgraph.connected_components(A, directed=True, connection="strong")
    src, dst = A.nonzero()
    leaving = np.unique(labels[src[labels[src] != labels[dst]]])
    closed = n_comp - leaving.size
    if closed > 1:
        raise DisconnectedGraphError(
            f"neighbor graph has {closed} connected components that no weight leaves; "
            "embed each component separately",
            n_components=int(closed),
        )
    # The lowest index of the one closed class, whose diagonal entry is pinned.
    r = int(np.flatnonzero(~np.isin(labels, leaving))[0])
    u = A @ np.full(n, 1.0 / np.sqrt(n))
    dropped = float(u @ u)
    # ||A||_F^2 / N <= ||A||_2^2 = lambda_max(M), read off A's stored entries.
    scale = float(np.square(A.data).sum()) / n
    if not dropped < ZERO_EIG_REL * scale:
        raise EigenSolverError(
            f"constant-mode eigenvalue {dropped:.3e} is not near zero "
            f"(||I - W||_F^2 / N = {scale:.3e}); weight rows may not sum to one"
        )
    # Plain del, not a helper per step: it ends each array where its last
    # reader is done in fewer lines than the calls and returns would take.
    del labels, src, dst, leaving, u
    # A fixed, non-constant start vector and a seeded generator for restart
    # vectors keep ARPACK deterministic: once the Krylov space is exhausted
    # (duplicate-heavy input), eigsh draws a restart vector, from OS entropy
    # unless rng is given.  The constant vector spans the operator's null
    # space and would stall it.
    v0 = np.cos(np.arange(n))
    try:
        A = A.tocsc()
        A = A + sparse.csc_matrix(([1.0], ([r], [r])), shape=(n, n))
        lu = sparse.linalg.splu(A, permc_spec="MMD_AT_PLUS_A",
                                diag_pivot_thresh=0.0, options={"SymmetricMode": True})
        del A
        z = lu.solve(np.eye(1, n, r)[0], trans="T")
        z /= np.linalg.norm(z)

        def pinv_m(x):
            y = lu.solve(x - x.mean(axis=0), trans="T")
            y = lu.solve(y - np.multiply.outer(z, z @ y))
            return y - y.mean(axis=0)

        pinv = sparse.linalg.LinearOperator((n, n), matvec=pinv_m, matmat=pinv_m, dtype=float)
        _, basis = sparse.linalg.eigsh(pinv, k=k, v0=v0, rng=0)
    # splu raises RuntimeError on an exactly singular factor; ArpackError is its subclass.
    except RuntimeError as exc:
        raise EigenSolverError(f"eigensolver failed: {exc}") from exc
    # One more application of the inverse purifies the Ritz vectors: the
    # Lanczos recurrence can leave in them components of modes far above the
    # bottom cluster, whose energy adds visibly to the cluster's eigenvalues
    # when those sit at rounding level (classical weights on a sheet).  The
    # purified block is orthonormalised together with the ones vector, whose
    # column is then dropped: Householder QR keeps every later column
    # orthogonal to the first to working precision however ill-conditioned
    # the block is, while QR of the block alone lets that conditioning, severe
    # when W reconstructs exactly, bring the constant mode back.
    # scipy's QR, not numpy's: with two BLAS threads, numpy's QR of a
    # 2000 x 7 block left the next scipy.linalg.eigh of a 300 x 300 matrix,
    # perfbench's calibration kernel, about 1.8x slower, which halved a
    # workload's scaled op_s.
    Q = scipy.linalg.qr(np.column_stack([np.ones(n), pinv @ basis]), mode="economic")[0]
    return Q[:, 1:], dropped


def embed(W, d: int) -> Embedding:
    """Embed into d dimensions from a row-stochastic weight matrix.

    Computes the bottom eigenspace of M = (I - W)'(I - W) on the complement
    of the ones vector with one ARPACK run on M's pseudo-inverse, without
    forming or applying M, diagonalizes M on it through W, and returns the d
    smallest pairs in ascending eigenvalue order with deterministic column
    signs (largest-magnitude entry positive).  The dropped constant mode's
    eigenvalue is ||(I - W)1||^2 / N, computed directly and checked against
    ||I - W||_F^2 / N before anything is factored.  Each array ends when its
    last reader is done: once the checks are done, I - W is converted to CSC
    once and pinned in that CSC, which is the only form the pinned matrix
    takes; the sparse LU is formed while only W and it are alive, and ARPACK
    runs on the LU alone.

    Raises
    ------
    TypeError
        when d is not an integer (2.0), before anything else.
    ValueError
        when d is below 1, before W's shape is read; when W is not square,
        or d >= N - 1 ("d must be < N - 1 = ..."), before I - W is formed.
    DisconnectedGraphError
        when W has more than one closed class: a strongly connected
        component of its nonzero pattern that no weight leaves.  Each closed
        class adds a null vector to I - W, so the zero eigenvalue is not
        simple; a W that splits into pieces has at least one per piece.
    EigenSolverError
        when the factorization or the eigensolver failed, or the constant
        mode's eigenvalue is not near zero (or not finite, as when W holds a
        NaN or inf weight).
    """
    import scipy.sparse as sparse

    d = as_count(d, "d")
    W = sparse.csr_matrix(W)
    n = W.shape[0]
    if W.shape[1] != n:
        raise ValueError(f"W must be square, got shape {W.shape}")
    as_count(d, "d", (n - 1, "N - 1"))
    basis, dropped = _bottom_subspace(W, min(n - 2, max(d, MIN_SUBSPACE)))

    # Rotate the constant-free basis by one Rayleigh-Ritz step with M applied
    # through W: R = (I - W) basis gives basis'M basis = R'R.  Nothing depends
    # on ARPACK's eigenvalues, which are those of M's pseudo-inverse and are
    # discarded: when exact reconstruction makes the bottom cluster
    # numerically degenerate (the linear-projection regime), they would set
    # the output rotation by rounding, not by W.
    R = basis - W @ basis
    _, V = np.linalg.eigh(R.T @ R)
    # Eigenvalues are reported as directly evaluated squared residual norms
    # ||(I - W) c||^2 (the Rayleigh quotients), so phi(Y) and the eigenvalue
    # sum agree identically.  The candidate pool depends on the subspace
    # size, not on d, so smaller-d output is a prefix of larger-d output for
    # the same W.
    C = basis @ V
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
    preimages alike; a 1-D Y is one column, and a Y of more dimensions raises
    ValueError.
    """
    Y = as_columns(Y)
    if Y.shape[0] != W.shape[0]:
        raise ValueError(f"Y shape {Y.shape} does not match W shape {W.shape}")
    R = Y - W @ Y
    return float((R * R).sum())


def sidecar_path(path) -> Path:
    """The JSON sidecar written beside an embedding file: path with suffix ".json".

    A path that already ends in ".json" is its own sidecar path and raises
    ValueError.
    """
    sidecar = Path(path).with_suffix(".json")
    if sidecar == Path(path):
        raise ValueError(f"embedding path {path} is its own sidecar path; use another suffix")
    return sidecar


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
        **(metadata or {}),
    }
    Y = validate_cloud(emb.Y)
    write_json(sidecar, sidecar_path(path))
    write_rows(Y.T, path)
