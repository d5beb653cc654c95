"""Release acceptance gate.

Each test exercises one numbered acceptance criterion end to end at its
stated tolerance and prints a single [PASS]/[FAIL] line with the measured
values.  The heavy shared artifacts (2000-point rolled-sheet runs) are
computed once per module.
"""

import time

import numpy as np
import pytest

from ldrlle import (
    assemble_weight_matrix,
    embed,
    generate,
    grid_cross_neighborhood,
    knn,
    ldr_weights,
    linear_r2,
    lle_weights,
    monotonicity_1d,
    permuted_preimage_null,
    perturbation_experiment,
    perturbation_report_dict,
    phi,
    reconstruction_error,
    theorem2_check_from_parts,
)
from oracles import (
    constrained_lsq_weights,
    feasible_sum_one_vectors,
    kkt_min_norm_weights,
    random_orthogonal,
)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d}: {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


def hood(rows):
    return np.asarray(rows, dtype=float)


@pytest.fixture(scope="module")
def swissroll2000():
    sample = generate("swissroll", 2000, seed=0)
    return sample, knn(sample.points, 12)


@pytest.fixture(scope="module")
def classical_runs(swissroll2000):
    sample, graph = swissroll2000
    W, _ = assemble_weight_matrix(sample.points, graph, "classical", d=2, delta=1e-9)
    return W, embed(W, 1), embed(W, 2)


@pytest.fixture(scope="module")
def ldr_runs(swissroll2000):
    sample, graph = swissroll2000
    W, spectra = assemble_weight_matrix(sample.points, graph, "ldr", d=2)
    return W, spectra, embed(W, 2)


@pytest.fixture(scope="module")
def ring_runs():
    sample = generate("ring", 16, seed=0)
    graph = knn(sample.points, 4)
    Wl, _ = assemble_weight_matrix(sample.points, graph, "ldr", d=1)
    Wc, _ = assemble_weight_matrix(sample.points, graph, "classical", d=1, delta=1e-9)
    return sample, (Wl, embed(Wl, 1)), (Wc, embed(Wc, 1))


@pytest.fixture(scope="module")
def perturbation():
    start = time.perf_counter()
    reports = perturbation_experiment()  # 3 noise levels x 1000 trials, seed 0
    return reports, time.perf_counter() - start


def test_criterion_01_stability_bound_never_violated(perturbation):
    reports, elapsed = perturbation
    rows = perturbation_report_dict(reports)["reports"]
    violations = sum(row["violations"] for row in rows)
    preconditions = all(row["preconditions_met"] for row in rows)
    trials = sum(row["trials"] for row in rows)
    ok = violations == 0 and preconditions and elapsed < 10.0
    report(
        1, ok,
        f"rank-d displacement vs stability bound: {violations} violations over "
        f"{trials} qualifying trials, {elapsed:.2f} s (< 10 s)",
    )


def test_criterion_02_noise_separates_the_two_weight_methods(perturbation):
    reports, _ = perturbation
    r = next(r for r in reports if np.isclose(r.epsilon, 1e-4))
    med_ldr = float(np.median(r.distances_ldr))
    med_classical = float(np.median(r.distances_classical))
    ok = med_ldr < 1e-2 and med_classical > 0.1
    report(
        2, ok,
        f"at noise 1e-4: median rank-d displacement {med_ldr:.3e} (< 1e-2), "
        f"median classical {med_classical:.3e} (> 0.1)",
    )


def test_criterion_03_rank_d_weights_match_kkt_oracle():
    rng = np.random.default_rng(3)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        K = int(rng.integers(4, 13))
        D = int(rng.integers(2, 7))
        d = int(rng.integers(1, min(K, D)))
        rows = rng.normal(size=(K, D))
        w = ldr_weights(hood(rows), d)
        worst = max(worst, float(np.linalg.norm(w - kkt_min_norm_weights(rows, d))))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-8 and elapsed < 5.0
    report(
        3, ok,
        f"200 random neighborhoods: worst rank-d-vs-KKT-oracle distance "
        f"{worst:.2e} (< 1e-8), {elapsed:.2f} s (< 5 s)",
    )


def test_criterion_04_classical_weights_are_the_constrained_minimizer():
    rng = np.random.default_rng(4)
    worst = 0.0
    never_beaten = True
    for _ in range(200):
        K = int(rng.integers(2, 7))
        D = int(rng.integers(K, 9))
        rows = rng.normal(size=(K, D))
        h = hood(rows)
        w = lle_weights(h, delta=0.0)
        worst = max(worst, float(np.linalg.norm(w - constrained_lsq_weights(rows))))
        err = reconstruction_error(h, w)
        for v in feasible_sum_one_vectors(K, 100, rng):
            if err > reconstruction_error(h, v):
                never_beaten = False
    ok = worst < 1e-8 and never_beaten
    report(
        4, ok,
        f"200 nonsingular neighborhoods: worst distance to constrained-least-"
        f"squares oracle {worst:.2e} (< 1e-8); never beaten by any of 100 "
        f"random sum-to-one vectors each: {never_beaten}",
    )


def test_criterion_05_embedding_constraints_hold(classical_runs, ldr_runs, ring_runs):
    Wc, ec1, ec2 = classical_runs
    Wl, _, el2 = ldr_runs
    _, (Wrl, erl), (Wrc, erc) = ring_runs
    runs = [
        (Wc, ec1), (Wc, ec2), (Wl, el2), (Wrl, erl), (Wrc, erc),
    ]
    worst_center = worst_ortho = worst_rel = 0.0
    for W, emb in runs:
        Y = emb.Y
        worst_center = max(worst_center, float(np.max(np.abs(Y.T @ np.ones(Y.shape[0])))))
        gram = Y.T @ Y - np.eye(Y.shape[1])
        worst_ortho = max(worst_ortho, float(np.max(np.abs(gram))))
        total = float(emb.eigenvalues.sum())
        value = phi(Y, W)
        worst_rel = max(worst_rel, abs(value - total) / max(value, total, 1e-300))
    ok = worst_center < 1e-8 and worst_ortho < 1e-8 and worst_rel < 1e-8
    report(
        5, ok,
        f"{len(runs)} embeddings: max |Y'1| {worst_center:.1e}, max |Y'Y - I| "
        f"{worst_ortho:.1e}, max objective-vs-eigenvalue-sum relative deviation "
        f"{worst_rel:.1e} (all < 1e-8)",
    )


def test_criterion_06_classical_embeddings_nest(classical_runs):
    _, e1, e2 = classical_runs
    first = e1.Y[:, 0]
    col = e2.Y[:, 0]
    sign = 1.0 if float(first @ col) >= 0.0 else -1.0
    dev = float(np.max(np.abs(first - sign * col)))
    ok = dev < 1e-6
    report(
        6, ok,
        f"classical 1-D output equals the first 2-D column up to sign: "
        f"max deviation {dev:.1e} (< 1e-6); rank-d runs rebuild weights per "
        f"dimension and are exempt",
    )


def test_criterion_07_classical_output_is_nearly_linear_in_input(
    swissroll2000, classical_runs, ldr_runs
):
    sample, _ = swissroll2000
    _, _, ec2 = classical_runs
    _, _, el2 = ldr_runs
    r2_classical = linear_r2(sample.points, ec2.Y)
    r2_ldr = linear_r2(sample.points, el2.Y)
    ok = r2_classical > 0.9 and r2_ldr <= r2_classical - 0.2
    report(
        7, ok,
        f"2000-point rolled sheet: classical affine fit r2 {r2_classical:.4f} "
        f"(> 0.9), rank-d r2 {r2_ldr:.4f} (at least 0.2 lower)",
    )


def test_criterion_08_ring_order_recovered_by_rank_d_only():
    start = time.perf_counter()
    sample = generate("ring", 16, seed=0)
    graph = knn(sample.points, 4)
    Wl, _ = assemble_weight_matrix(sample.points, graph, "ldr", d=1)
    rho_ldr = monotonicity_1d(embed(Wl, 1).Y, sample.preimage)
    Wc, _ = assemble_weight_matrix(sample.points, graph, "classical", d=1, delta=1e-9)
    rho_classical = monotonicity_1d(embed(Wc, 1).Y, sample.preimage)
    elapsed = time.perf_counter() - start
    ok = (
        abs(rho_ldr) > 0.95
        and abs(rho_classical) < abs(rho_ldr)
        and elapsed < 1.0
    )
    report(
        8, ok,
        f"16-point open ring: |rank correlation| rank-d {abs(rho_ldr):.4f} "
        f"(> 0.95) vs classical {abs(rho_classical):.4f} (strictly smaller), "
        f"{elapsed:.2f} s (< 1 s)",
    )


def test_criterion_09_preimage_objective_stays_bounded(swissroll2000, ldr_runs):
    results = {}
    for n in (500, 1000):
        sample = generate("swissroll", n, seed=0)
        graph = knn(sample.points, 12)
        W, spectra = assemble_weight_matrix(sample.points, graph, "ldr", d=2)
        res = theorem2_check_from_parts(sample.preimage, W, spectra)
        null = permuted_preimage_null(W, sample.preimage, permutations=20, seed=0)
        results[n] = (res, null)
    sample, _ = swissroll2000
    W, spectra, _ = ldr_runs
    res = theorem2_check_from_parts(sample.preimage, W, spectra)
    results[2000] = (
        res, permuted_preimage_null(W, sample.preimage, permutations=20, seed=0)
    )
    base = results[500][0].ratio
    bounded = all(
        np.isfinite(r.ratio) and r.ratio <= 2.0 * base for r, _ in results.values()
    )
    null_margin = min(null / r.phi_z_over_n for r, null in results.values())
    ok = bounded and null_margin >= 10.0
    ratios = ", ".join(f"n={n}: {r.ratio:.2e}" for n, (r, _) in sorted(results.items()))
    report(
        9, ok,
        f"objective-to-spectral-tail ratio stays within 2x of its n=500 value "
        f"({ratios}); preimage beats permuted null by >= {null_margin:.0f}x "
        f"(need >= 10x)",
    )


def test_criterion_10_invariance_under_scaling_and_rotation():
    rng = np.random.default_rng(10)
    worst = 0.0
    for _ in range(50):
        K = int(rng.integers(2, 7))
        D = int(rng.integers(K, 9))
        rows = rng.normal(size=(K, D))
        R = random_orthogonal(D, rng)
        base = lle_weights(hood(rows), delta=1e-9)
        for variant in (rows @ R, 1e-3 * rows, 1e3 * rows):
            w = lle_weights(hood(variant), delta=1e-9)
            worst = max(worst, float(np.max(np.abs(w - base))))
    for _ in range(50):
        K = int(rng.integers(4, 13))
        D = int(rng.integers(2, 7))
        d = int(rng.integers(1, min(K, D)))
        rows = rng.normal(size=(K, D))
        R = random_orthogonal(D, rng)
        base = ldr_weights(hood(rows), d)
        for variant in (rows @ R, 1e-3 * rows, 1e3 * rows):
            w = ldr_weights(hood(variant), d)
            worst = max(worst, float(np.max(np.abs(w - base))))
    X = rng.normal(size=(100, 3))
    moved = X @ random_orthogonal(3, rng) + rng.normal(size=3)
    graphs_equal = bool(np.array_equal(knn(X, 6), knn(moved, 6)))
    ok = worst < 1e-10 and graphs_equal
    report(
        10, ok,
        f"both weight methods under rotations and scalings 1e-3/1e3: worst "
        f"deviation {worst:.2e} (< 1e-10); neighbor lists unchanged under "
        f"rigid motion: {graphs_equal}",
    )


def test_criterion_11_large_ridge_gives_uniform_weights():
    w = lle_weights(grid_cross_neighborhood(), delta=1e6)
    dev = float(np.max(np.abs(w - 0.25)))
    ok = dev < 1e-6
    report(
        11, ok,
        f"cross neighborhood at ridge 1e6: max deviation from uniform "
        f"{dev:.2e} (< 1e-6)",
    )
