"""Verification harnesses and embedding-quality statistics.

Covers the pieces that check the algorithm rather than run it: per-point
reconstruction errors, the perturbation-stability bound and its Monte Carlo
study on the grid cross, the preimage objective-value scaling check, and the
statistics used to compare embeddings against ground truth (affine-fit R^2,
Procrustes residual, rank correlation).
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .datasets import as_columns, as_count
from .embedding import phi
from .weights import _classical, _ldr, _sqnorm, _svd

__all__ = [
    "DEFAULT_EPSILONS",
    "DEFAULT_TRIALS",
    "EmbeddingDiagnostics",
    "PerturbationReport",
    "Theorem2Result",
    "grid_cross_neighborhood",
    "linear_projection_diagnostic",
    "linear_r2",
    "monotonicity_1d",
    "permuted_preimage_null",
    "perturbation_experiment",
    "perturbation_report_dict",
    "procrustes_residual",
    "reconstruction_error",
    "theorem1_bound",
    "theorem2_check_from_parts",
]

# Top singular value of the rescaled grid cross; must stay below 1 for the
# stability bound to apply, and 0.99 keeps all the study epsilons inside the
# bound's precondition region.
CROSS_LAMBDA1 = 0.99

DEFAULT_EPSILONS = (1e-2, 1e-4, 1e-6)
DEFAULT_TRIALS = 1000


def reconstruction_error(rows, w) -> float:
    """Squared residual ||sum_j w_j (eta_j - x_i)||^2 = w' rows rows' w of a
    (K, D) neighborhood."""
    rows = np.asarray(rows, dtype=float)
    w = np.asarray(w, dtype=float)
    if w.shape != (rows.shape[0],):
        raise ValueError(
            f"weight vector shape {w.shape} does not match K = {rows.shape[0]}"
        )
    r = rows.T @ w
    return float(r @ r)


def theorem1_bound(lambda_d: float, alpha: float, epsilon: float) -> Optional[float]:
    """Stability bound 20 * epsilon / (lambda_d^2 * (1 - alpha)), or None.

    The bound on the weight displacement under a unit-Frobenius perturbation
    of size epsilon holds only when
    epsilon < min(lambda_d^4, lambda_d^2 * (1 - alpha)) / 72 (and the
    neighborhood is scaled so its top singular value is below 1, which is the
    caller's responsibility).  When the precondition fails, None is returned
    and nothing is asserted.
    """
    if not 0.0 < lambda_d < np.inf:
        raise ValueError(f"lambda_d must be finite and > 0, got {lambda_d}")
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"alpha must be in [0, 1), got {alpha}")
    if not 0.0 < epsilon < np.inf:
        raise ValueError(f"epsilon must be finite and > 0, got {epsilon}")
    limit = min(lambda_d ** 4, lambda_d ** 2 * (1.0 - alpha)) / 72.0
    if not epsilon < limit:
        return None
    return 20.0 * epsilon / (lambda_d ** 2 * (1.0 - alpha))


def grid_cross_neighborhood() -> np.ndarray:
    """The planar grid cross: a grid point's 4 nearest neighbors, centered.

    Rows are (+-1, 0, 0, 0) and (0, +-1, 0, 0) rescaled so the top singular
    value is CROSS_LAMBDA1; K = D = 4, the two non-zero singular values
    coincide, alpha = 0, and the exact reconstruction weights are uniform.
    Returns the (4, 4) array of rows.
    """
    rows = np.zeros((4, 4))
    rows[0, 0] = 1.0
    rows[1, 0] = -1.0
    rows[2, 1] = 1.0
    rows[3, 1] = -1.0
    rows *= CROSS_LAMBDA1 / np.sqrt(2.0)  # unscaled singular values: sqrt(2), sqrt(2), 0, 0
    return rows


@dataclass
class PerturbationReport:
    """Per-epsilon record of weight displacements under unit-Frobenius noise."""

    epsilon: float
    distances_classical: np.ndarray
    distances_ldr: np.ndarray
    bound: Optional[float]  # None when the bound's preconditions fail


def perturbation_experiment(epsilons=DEFAULT_EPSILONS, trials: int = DEFAULT_TRIALS,
                            seed: int = 0) -> list[PerturbationReport]:
    """Monte Carlo stability study on the grid cross.

    Each trial perturbs the cross by epsilon times a unit-Frobenius Gaussian
    matrix and records how far both solvers' weights move from the exact
    uniform answer.  Both arms are read off one SVD of the perturbed rows.
    The classical arm takes the pseudo-inverse weights G^+ 1 (K = D, so no
    regularization is called for), dropping singular values at or below
    K * eps * lambda_1; the rank-d arm uses d = 2, the cross's true dimension.
    The bound takes lambda_d = CROSS_LAMBDA1 (the cross's two non-zero
    singular values coincide) and alpha = 0 from the cross's definition (see
    grid_cross_neighborhood).

    The noise is one draw, np.random.default_rng(seed).standard_normal((trials,
    4, 4)), taken before the epsilon loop: trial t is the same direction at
    every epsilon, a report depends only on (seed, trials, epsilon), and a run
    with fewer trials is a prefix of one with more.  A trial whose classical
    weights sum to zero raises DegenerateWeightsError, and one whose projected
    neighborhood leaves general position GeneralPositionError; either message
    starts "epsilon e, trial t: ", with the trial as point_index.  Every
    epsilon is checked before the noise draw and the first SVD: one that is
    not finite and positive raises theorem1_bound's ValueError; before that,
    a trial count that is not an integer raises TypeError and one below 1
    ValueError.
    """
    trials = as_count(trials, "trials")
    bounds = [(eps, theorem1_bound(CROSS_LAMBDA1, 0.0, eps)) for eps in epsilons]
    base = grid_cross_neighborhood()
    uniform = np.full(4, 0.25)
    noise = np.random.default_rng(seed).standard_normal((trials, 4, 4))
    noise /= np.sqrt(_sqnorm(noise.reshape(trials, 16)))[:, None, None]
    reports = []
    for eps, bound in bounds:
        U, lam, _ = _svd(base + eps * noise)
        label = f"epsilon {eps:g}, trial {{}}"
        w_cl = _classical(U, lam, 0.0, label, pinv_singular=True)
        w_ldr = _ldr(U, 2, label)
        reports.append(PerturbationReport(
            float(eps), np.sqrt(_sqnorm(w_cl - uniform)),
            np.sqrt(_sqnorm(w_ldr - uniform)), bound,
        ))
    return reports


def perturbation_report_dict(reports) -> dict:
    """JSON-ready summary: per-epsilon distance stats, bound, violation count.

    A violation is a rank-d displacement at or above the bound in a trial
    whose preconditions held; the bound is a strict inequality.
    """
    rows = []
    for r in reports:
        violations = None
        if r.bound is not None:
            violations = int(np.sum(r.distances_ldr >= r.bound))
        rows.append({
            "epsilon": r.epsilon,
            "trials": int(r.distances_ldr.size),
            "bound": r.bound,
            "preconditions_met": r.bound is not None,
            "violations": violations,
            "classical": _distance_stats(r.distances_classical),
            "ldr": _distance_stats(r.distances_ldr),
        })
    return {"reports": rows}


def _distance_stats(d: np.ndarray) -> dict:
    return {
        "median": float(np.median(d)),
        "p95": float(np.percentile(d, 95)),
        "max": float(d.max()),
    }


TAIL_VANISH_REL = 1e-12


@dataclass
class Theorem2Result:
    """Preimage objective value against its spectral-tail scale.

    ratio = (phi(Z)/N) / (max_i lambda_{d+1}(i) * r_max^2), or None where it
    is undefined: when the spectral tail vanishes (max_lambda_dp1 within
    TAIL_VANISH_REL of the largest lambda_1: rank-d data reconstructs exactly,
    leaving both numerator and denominator at rounding level), or when the
    denominator, which scales as the cube of the cloud, underflows to 0
    (max_lambda_dp1 * r_max^2 == 0).
    """

    phi_z_over_n: float
    max_lambda_dp1: float
    r_max: float
    ratio: Optional[float]


def theorem2_check_from_parts(preimage, W, spectra) -> Theorem2Result:
    """Objective value of the ground-truth preimage under assembled rank-d weights.

    For a well-sampled smooth sheet the ratio stays bounded as n grows; that
    boundedness is the check.  The tail counts as vanished when the largest
    discarded singular value is within TAIL_VANISH_REL of the largest
    retained one; an exact-zero test would miss data that is rank d up to
    rounding.  The tail is lambda_{d+1}, so the check needs d < K: it raises
    ValueError for spectra of classical weights assembled with d >= K, which
    discard nothing.
    """
    if spectra.d >= spectra.singular_values.shape[1]:
        raise ValueError("the preimage check needs a rank-d split (1 <= d < K); "
                         "the weights were assembled without one")
    n = W.shape[0]
    phi_z = phi(preimage, W) / n
    max_tail = float(spectra.singular_values[:, spectra.d].max())
    max_lead = float(spectra.singular_values[:, 0].max())
    r_max = float(spectra.radius.max())
    if max_tail <= TAIL_VANISH_REL * max_lead or max_tail * r_max ** 2 == 0.0:
        return Theorem2Result(phi_z, max_tail, r_max, None)
    return Theorem2Result(phi_z, max_tail, r_max, phi_z / (max_tail * r_max ** 2))


def permuted_preimage_null(W, preimage, permutations: int = 20, seed: int = 0) -> float:
    """Median phi(Z_perm)/N over random row permutations of the preimage.

    Null scale for the objective when weights and parameters are unrelated;
    a real preimage should sit far below it.  A permutation count that is
    not an integer raises TypeError and one below 1 ValueError; a preimage
    whose row count differs from W's raises phi's ValueError.
    """
    permutations = as_count(permutations, "permutations")
    Z = np.asarray(preimage, dtype=float)
    rng = np.random.default_rng(seed)
    n = W.shape[0]
    vals = [phi(Z[rng.permutation(Z.shape[0])], W) / n for _ in range(permutations)]
    return float(np.median(vals))


@dataclass
class EmbeddingDiagnostics:
    """Quality statistics for one embedding run."""

    phi_value: Optional[float]
    linear_r2: float
    procrustes_residual: Optional[float]
    rank_correlation: Optional[float]


def linear_r2(X, Y) -> float:
    """Fraction of centered output variance explained by the best affine map X -> Y.

    A value near 1 means the embedding is (close to) a linear projection of
    the input; clipped into [0, 1] against roundoff.  A 1-D Y is one column.
    """
    X = np.asarray(X, dtype=float)
    Y = as_columns(Y)
    if X.ndim != 2 or X.shape[0] != Y.shape[0]:
        raise ValueError(f"X shape {X.shape} does not match Y shape {Y.shape}")
    # Centring replaces the ones column, whose scale against X's would
    # otherwise decide which columns lstsq's rank cutoff drops.  Subtracting
    # a reference row first is exact for a constant column, whose mean can be
    # off by far more than a small varying column's spread.
    Xc = X - X[0]
    Xc -= Xc.mean(axis=0)
    Yc = Y - Y.mean(axis=0)
    coef, *_ = np.linalg.lstsq(Xc, Yc, rcond=None)
    resid = Yc - Xc @ coef
    denom = float((Yc * Yc).sum())
    if denom == 0.0:
        raise ValueError("output has zero variance; affine fit undefined")
    return float(np.clip(1.0 - float((resid * resid).sum()) / denom, 0.0, 1.0))


def procrustes_residual(Y, reference) -> float:
    """Relative residual of the best scaled orthogonal alignment of Y to the reference.

    Both inputs are centered first; the residual is normalized by the
    reference's Frobenius norm, so 0 means a perfect match up to rigid motion
    and scale.  A 1-D input is one column; an input of more than two
    dimensions raises ValueError.
    """
    from scipy.linalg import orthogonal_procrustes

    Y = as_columns(Y)
    R = as_columns(reference)
    if Y.shape != R.shape:
        raise ValueError(f"shapes {Y.shape} and {R.shape} differ")
    Yc = Y - Y.mean(axis=0)
    Rc = R - R.mean(axis=0)
    ynorm2 = float((Yc * Yc).sum())
    rnorm2 = float((Rc * Rc).sum())
    if ynorm2 == 0.0 or rnorm2 == 0.0:
        raise ValueError("degenerate (constant) input; alignment undefined")
    Q, scale = orthogonal_procrustes(Yc, Rc)
    c = scale / ynorm2
    diff = c * (Yc @ Q) - Rc
    return float(np.sqrt(float((diff * diff).sum()) / rnorm2))


def monotonicity_1d(Y, preimage) -> float:
    """Spearman rank correlation of a one-column embedding against ground truth.

    Signed: -1 is as good as +1 (the embedding's orientation is arbitrary).
    It is the Pearson correlation of the average ranks, computed as
    scipy.stats.spearmanr does, and NaN when either input holds a NaN.
    Each input is a 1-D array or one column; any other shape raises
    ValueError, and so does a constant input, as in linear_r2 and
    procrustes_residual.
    """
    y = as_columns(Y)
    z = as_columns(preimage)
    if y.shape[1] != 1 or z.shape[1] != 1:
        raise ValueError(f"need one column each, got shapes {y.shape} and {z.shape}")
    y, z = y[:, 0], z[:, 0]
    if y.shape != z.shape:
        raise ValueError(f"lengths {y.size} and {z.size} differ")
    if np.ptp(y) == 0.0 or np.ptp(z) == 0.0:
        raise ValueError("rank correlation undefined for constant input")
    if np.isnan(y).any() or np.isnan(z).any():
        return float("nan")
    return float(np.corrcoef(_average_ranks(y), _average_ranks(z))[1, 0])


def _average_ranks(v: np.ndarray) -> np.ndarray:
    """1-based ranks with ties sharing their average, as scipy.stats.rankdata
    gives them; loading scipy.stats for it took about 0.65 s."""
    _, group, counts = np.unique(v, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2.0)[group]


def linear_projection_diagnostic(X, Y, reference=None, weights=None,
                                 preimage=None) -> EmbeddingDiagnostics:
    """Bundle of embedding-quality statistics.

    linear_r2 is always computed from (X, Y).  procrustes_residual is filled
    when a same-shape reference is supplied, phi_value when a weight matrix
    is supplied, and rank_correlation when Y and the supplied preimage are
    both one-column.
    """
    r2 = linear_r2(X, Y)
    pres = procrustes_residual(Y, reference) if reference is not None else None
    phi_v = phi(Y, weights) if weights is not None else None
    rc = None
    if preimage is not None and as_columns(Y).shape[1] == as_columns(preimage).shape[1] == 1:
        rc = monotonicity_1d(Y, preimage)
    return EmbeddingDiagnostics(phi_v, r2, pres, rc)
