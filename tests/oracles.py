"""Independent reference implementations used to cross-check the library.

Everything here is written the slow, obvious way (explicit loops, dense KKT
systems, pseudo-inverses) and avoids the library's own linear-algebra paths,
so agreement between the two is evidence and not tautology.
"""

from fractions import Fraction

import numpy as np


def brute_force_knn(X, K):
    """Neighbor lists by sorting (distance, index) pairs per point.

    At ulp-level ties this is a set oracle, not an order oracle: diff @ diff
    does not round like cdist(..., "sqeuclidean"), so two near-tied
    candidates can swap places.  Order checks against it need exact or
    well-separated inputs; near-tied shells are checked against
    test_neighbors.row_sweep_knn instead."""
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    out = np.empty((n, K), dtype=np.intp)
    for i in range(n):
        cand = []
        for j in range(n):
            if j == i:
                continue
            diff = X[j] - X[i]
            cand.append((float(diff @ diff), j))
        cand.sort()
        out[i] = [j for _, j in cand[:K]]
    return out


def kkt_min_norm_weights(rows, d):
    """Minimum-norm weights orthogonal to the top-d singular directions.

    Solves min ||w||^2 subject to U1'w = 0 and 1'w = 1 by a dense KKT
    system, with U1 taken from the eigendecomposition of the Gram matrix
    (a different route than the library's SVD).
    """
    rows = np.asarray(rows, dtype=float)
    K = rows.shape[0]
    G = rows @ rows.T
    evals, evecs = np.linalg.eigh(G)
    U1 = evecs[:, ::-1][:, :d]
    A = np.vstack([U1.T, np.ones((1, K))])
    m = A.shape[0]
    kkt = np.zeros((K + m, K + m))
    kkt[:K, :K] = 2.0 * np.eye(K)
    kkt[:K, K:] = A.T
    kkt[K:, :K] = A
    b = np.zeros(K + m)
    b[-1] = 1.0
    return np.linalg.solve(kkt, b)[:K]


def constrained_lsq_weights(rows):
    """Sum-to-one reconstruction weights from the stationarity system.

    Solves min w'Gw subject to 1'w = 1 via the bordered system
    [[2G, 1], [1', 0]] [w; nu] = [0; 1]; valid when G is nonsingular.
    """
    rows = np.asarray(rows, dtype=float)
    K = rows.shape[0]
    G = rows @ rows.T
    kkt = np.zeros((K + 1, K + 1))
    kkt[:K, :K] = 2.0 * G
    kkt[:K, K] = 1.0
    kkt[K, :K] = 1.0
    b = np.zeros(K + 1)
    b[K] = 1.0
    return np.linalg.solve(kkt, b)[:K]


def exact_gram_weights(rows, delta):
    """Classical weights (G + mu I)^-1 1, normalized, in exact arithmetic.

    G = rows rows' and mu = (delta / K) trace(G) are formed from the exact
    binary values of the float inputs with fractions.Fraction, and the
    system is solved by Gauss-Jordan elimination, so the only rounding is the
    final conversion of each weight to float.  G + mu I must be nonsingular;
    it is positive definite then, so no pivoting is needed.
    """
    R = [[Fraction(float(x)) for x in row] for row in np.asarray(rows, dtype=float)]
    K = len(R)
    G = [[sum(a * b for a, b in zip(R[i], R[j])) for j in range(K)] for i in range(K)]
    mu = Fraction(float(delta)) / K * sum(G[i][i] for i in range(K))
    A = [G[i] + [Fraction(1)] for i in range(K)]
    for i in range(K):
        A[i][i] += mu
    for col in range(K):
        pivot = A[col]
        for i in range(K):
            if i != col and A[i][col] != 0:
                m = A[i][col] / pivot[col]
                A[i] = [a - m * b for a, b in zip(A[i], pivot)]
    w = [A[i][K] / A[i][i] for i in range(K)]
    total = sum(w)
    return np.array([float(x / total) for x in w])


def feasible_sum_one_vectors(K, count, rng):
    """Random non-optimal vectors summing to one."""
    out = []
    for _ in range(count):
        r = rng.normal(size=K)
        out.append(np.full(K, 1.0 / K) + (r - r.mean()))
    return out


def feasible_in_discarded_span(U2, count, rng):
    """Random vectors in span(U2) whose entries sum to one.

    These satisfy both constraints of the minimum-norm problem, so any of
    them upper-bounds the norm of the true solution.
    """
    t = U2.T @ np.ones(U2.shape[0])
    out = []
    while len(out) < count:
        c = rng.normal(size=U2.shape[1])
        scale = float(c @ t)
        if abs(scale) < 1e-6:
            continue
        out.append(U2 @ (c / scale))
    return out


def rank_d_truncation(rows, d):
    """Best rank-d approximation from a fresh SVD."""
    U, s, Vt = np.linalg.svd(np.asarray(rows, dtype=float), full_matrices=False)
    return (U[:, :d] * s[:d]) @ Vt[:d]


def random_centered_orthonormal(n, d, rng):
    """Random N x d matrix with orthonormal columns summing to zero.

    QR of a column-centered Gaussian matrix: every column of Q is a linear
    combination of centered columns, hence centered itself.
    """
    A = rng.normal(size=(n, d))
    A -= A.mean(axis=0)
    Q, _ = np.linalg.qr(A)
    return Q


def random_orthogonal(D, rng):
    """Haar-ish orthogonal matrix from QR with sign fixing."""
    Q, R = np.linalg.qr(rng.normal(size=(D, D)))
    return Q * np.sign(np.diag(R))


def phi_row_by_row(Y, W_dense):
    """Direct per-row evaluation of the reconstruction objective."""
    Y = np.asarray(Y, dtype=float)
    if Y.ndim == 1:
        Y = Y[:, None]
    total = 0.0
    for i in range(Y.shape[0]):
        pred = np.zeros(Y.shape[1])
        for j in range(Y.shape[0]):
            pred += W_dense[i, j] * Y[j]
        diff = Y[i] - pred
        total += float(diff @ diff)
    return total


def dense_bottom_eigenpairs(W_dense, k):
    """The k smallest eigenpairs of (I - W)'(I - W), from a dense eigh."""
    A = np.eye(W_dense.shape[0]) - np.asarray(W_dense, dtype=float)
    evals, evecs = np.linalg.eigh(A.T @ A)
    return evals[:k], evecs[:, :k]
