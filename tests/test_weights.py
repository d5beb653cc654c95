"""Weight solvers: classical regularized and rank-d representation weights."""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ldrlle import (
    DEFAULT_DELTA,
    DEFAULT_EPSILONS,
    DegenerateWeightsError,
    GeneralPositionError,
    SingularNeighborhoodError,
    assemble_weight_matrix,
    gen_scurve,
    gen_swissroll,
    grid_cross_neighborhood,
    knn,
    ldr_weights,
    lle_weights,
    lle_weights_pinv,
    perturbation_experiment,
    save_spectra,
    save_weight_matrix,
)
from ldrlle.weights import BLOCK, GAP_WARN_REL, _classical, _ldr, _sqnorm, _svd
from oracles import (
    constrained_lsq_weights,
    exact_gram_weights,
    feasible_in_discarded_span,
    feasible_sum_one_vectors,
    kkt_min_norm_weights,
    random_orthogonal,
    rank_d_truncation,
)


def hood(rows):
    return np.asarray(rows, dtype=float)


def random_hood(rng, K, D):
    return hood(rng.normal(size=(K, D)))


TWO_OPPOSITE = hood([[-1.0, 0.0], [1.0, 0.0]])


def spectra_of(rows, d):
    """Row 0 of the spectra assembly reports for the star cloud of one
    neighborhood: point 0 at the origin, points 1..K at the rows, and every
    point's neighbors all the other points, so point 0's neighborhood is rows."""
    X = np.vstack([np.zeros((1, hood(rows).shape[1])), hood(rows)])
    graph = np.array([[j for j in range(len(X)) if j != i] for i in range(len(X))])
    spectra = assemble_weight_matrix(X, graph, "classical", d=d)[1]
    return SimpleNamespace(**{field: getattr(spectra, field)[0] for field in
                              ("singular_values", "alpha", "radius", "gap_warning")})


class TestNeighborhoodSpectrum:
    def test_two_opposite_points(self):
        spec = spectra_of(TWO_OPPOSITE, 1)
        np.testing.assert_allclose(spec.singular_values, [np.sqrt(2.0), 0.0], atol=1e-15)
        assert spec.alpha == pytest.approx(0.0, abs=1e-15)

    def test_grid_cross_spectrum(self):
        spec = spectra_of(grid_cross_neighborhood(), 2)
        np.testing.assert_allclose(
            spec.singular_values, [0.99, 0.99, 0.0, 0.0], atol=1e-15
        )
        assert spec.alpha == pytest.approx(0.0, abs=1e-15)

    def test_singular_values_padded_and_sorted(self, rng):
        spec = spectra_of(random_hood(rng, 9, 3), 2)
        assert spec.singular_values.shape == (9,)
        np.testing.assert_array_equal(spec.singular_values[3:], 0.0)
        assert np.all(np.diff(spec.singular_values) <= 0.0)
        assert np.all(spec.singular_values >= 0.0)

    def test_alpha_matches_projected_moment_identity(self, rng):
        # alpha = mu' S^+ mu with mu and S the first and second moments of
        # the rank-d projected rows; evaluated via an independent pinv route.
        for _ in range(50):
            K = int(rng.integers(3, 12))
            D = int(rng.integers(2, 7))
            d = int(rng.integers(1, min(K, D)))
            rows = rng.normal(size=(K, D))
            spec = spectra_of(rows, d)
            trunc = rank_d_truncation(rows, d)
            P = trunc @ np.linalg.pinv(trunc)
            alpha_oracle = float(np.ones(K) @ P @ np.ones(K)) / K
            assert abs(alpha_oracle - spec.alpha) < 1e-10

    def test_alpha_within_unit_interval(self, rng):
        for _ in range(20):
            spec = spectra_of(random_hood(rng, 6, 4), 2)
            assert -1e-12 <= spec.alpha <= 1.0 + 1e-12

    def test_gap_warning_on_coincident_split(self):
        # The cross has a double top singular value: splitting at d = 1 is
        # ill-defined and must be flagged; splitting at d = 2 is clean.
        assert spectra_of(grid_cross_neighborhood(), 1).gap_warning
        assert not spectra_of(grid_cross_neighborhood(), 2).gap_warning


class TestClassicalWeights:
    def test_two_neighbor_minimizer(self):
        # min a^2 + 4(1-a)^2 has a = 0.8 by scalar calculus.
        w = lle_weights(hood([[1.0, 0.0], [0.0, 2.0]]), delta=0.0)
        np.testing.assert_allclose(w, [0.8, 0.2], atol=1e-12)

    def test_cross_is_uniform_for_any_regularization(self):
        for delta in (1e-9, 1e-3, 1.0, 1e6):
            w = lle_weights(grid_cross_neighborhood(), delta=delta)
            np.testing.assert_allclose(w, 0.25, atol=1e-12)

    def test_uniform_limit_for_large_regularization(self, rng):
        w = lle_weights(random_hood(rng, 6, 3), delta=1e6)
        np.testing.assert_allclose(w, 1.0 / 6.0, atol=1e-6)

    def test_collinear_neighbors_rejected_without_regularization(self):
        with pytest.raises(SingularNeighborhoodError) as excinfo:
            lle_weights(TWO_OPPOSITE, delta=0.0)
        assert excinfo.value.rcond is not None
        assert excinfo.value.rcond < 1e-12

    def test_negative_regularization_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            lle_weights(TWO_OPPOSITE, delta=-1.0)

    @pytest.mark.parametrize("delta", [float("nan"), float("inf")])
    def test_non_finite_regularization_rejected(self, delta):
        with pytest.raises(ValueError, match="delta must be finite"):
            lle_weights(TWO_OPPOSITE, delta=delta)

    def test_a_bad_delta_is_refused_before_the_rows_are_read(self):
        # The delta rule is checked at entry, so it is named ahead of bad rows.
        with pytest.raises(ValueError, match="delta must be finite and >= 0, got nan"):
            lle_weights(np.ones(5), delta=float("nan"))

    @pytest.mark.parametrize("shape", [(5,), (2, 5, 6, 3)])
    def test_neither_a_neighborhood_nor_a_stack_is_refused(self, shape):
        with pytest.raises(ValueError, match=r"\(N, K, D\) stack"):
            lle_weights(np.ones(shape), delta=DEFAULT_DELTA)

    def test_all_duplicate_neighbors_fall_back_to_uniform(self):
        w = lle_weights(hood(np.zeros((3, 2))), delta=1e-9)
        np.testing.assert_allclose(w, 1.0 / 3.0, atol=1e-15)

    def test_matches_constrained_lsq_oracle(self, rng):
        for _ in range(50):
            K = int(rng.integers(2, 7))
            D = int(rng.integers(K, 9))
            rows = rng.normal(size=(K, D))
            w = lle_weights(hood(rows), delta=0.0)
            np.testing.assert_allclose(w, constrained_lsq_weights(rows), atol=1e-10)

    def test_regularized_solution_matches_direct_formula(self, rng):
        rows = rng.normal(size=(8, 3))
        delta = 1e-6
        G = rows @ rows.T
        ridge = (delta / 8.0) * np.trace(G)
        w_oracle = np.linalg.solve(G + ridge * np.eye(8), np.ones(8))
        w_oracle /= w_oracle.sum()
        np.testing.assert_allclose(
            lle_weights(hood(rows), delta=delta), w_oracle, atol=1e-12
        )

    def test_weights_sum_to_one(self, rng):
        for _ in range(20):
            w = lle_weights(random_hood(rng, 10, 3), delta=DEFAULT_DELTA)
            assert abs(w.sum() - 1.0) < 1e-10

    def test_scale_invariance(self, rng):
        rows = rng.normal(size=(5, 8))
        base = lle_weights(hood(rows), delta=1e-9)
        for c in (1e-3, 1e3):
            scaled = lle_weights(hood(c * rows), delta=1e-9)
            assert np.max(np.abs(scaled - base)) < 1e-10

    def test_rotation_invariance(self, rng):
        rows = rng.normal(size=(4, 6))
        R = random_orthogonal(6, rng)
        base = lle_weights(hood(rows), delta=0.0)
        rotated = lle_weights(hood(rows @ R), delta=0.0)
        assert np.max(np.abs(rotated - base)) < 1e-10

    def test_matches_exact_arithmetic_at_the_default_ridge(self):
        # Forming the Gram matrix squares the rows' condition number; at
        # delta = 1e-9 that cost about 7 digits against the exact solve.
        X = gen_swissroll(2000, seed=0).points
        rows = (X[knn(X, 12)] - X[:, None])[::200]
        exact = np.array([exact_gram_weights(h, DEFAULT_DELTA) for h in rows])
        np.testing.assert_allclose(lle_weights(rows, DEFAULT_DELTA), exact, rtol=0, atol=1e-12)

    def test_beats_random_feasible_vectors(self, rng):
        from ldrlle import reconstruction_error

        for _ in range(10):
            K = int(rng.integers(2, 6))
            rows = rng.normal(size=(K, K + 2))
            h = hood(rows)
            w = lle_weights(h, delta=0.0)
            best = reconstruction_error(h, w)
            for v in feasible_sum_one_vectors(K, 20, rng):
                assert best <= reconstruction_error(h, v) + 1e-12


class TestPinvWeights:
    def test_matches_exact_solve_when_nonsingular(self):
        h = hood([[1.0, 0.0], [0.0, 2.0]])
        np.testing.assert_allclose(
            lle_weights_pinv(h), lle_weights(h, delta=0.0), atol=1e-12
        )

    def test_nearly_planar_cross_keeps_its_small_directions(self):
        # Lifting the cross off its plane by 1e-8 leaves Gram eigenvalues
        # near 1e-16, under a pseudo-inverse cutoff taken on G itself, which
        # then returns weights summing to zero.  Through the rows they are
        # kept, and the weights match G^-1 1 = R^-T R^-1 1 solved on R.
        rows = grid_cross_neighborhood()
        rows[:, 2:] = 1e-8 * np.array([[0.3, -0.5], [0.7, 0.2], [-0.4, 0.6], [0.1, -0.9]])
        w = lle_weights_pinv(hood(rows))
        direct = np.linalg.solve(rows.T, np.linalg.solve(rows, np.ones(4)))
        np.testing.assert_allclose(w, direct / direct.sum(), rtol=1e-6)

    def test_matches_exact_arithmetic_on_the_perturbation_study(self):
        # The study's epsilon = 1e-4 trials, rebuilt from its one draw of
        # noise directions: G has condition number about 1e8.
        study = perturbation_experiment(seed=5)[DEFAULT_EPSILONS.index(1e-4)]
        for t, noise in enumerate(np.random.default_rng(5).standard_normal((20, 4, 4))):
            rows = grid_cross_neighborhood() + 1e-4 * noise / np.linalg.norm(noise)
            exact = exact_gram_weights(rows, 0.0)
            assert np.linalg.norm(lle_weights_pinv(rows) - exact) <= 1e-9 * np.linalg.norm(exact)
            assert study.distances_classical[t] == pytest.approx(
                np.linalg.norm(exact - 0.25), rel=1e-9)

    def test_unperturbed_cross_is_degenerate(self):
        # The cross's Gram matrix annihilates the ones vector, so the
        # minimum-norm stationary solution sums to zero and has no
        # normalization; the solver must say so rather than divide.
        with pytest.raises(DegenerateWeightsError):
            lle_weights_pinv(grid_cross_neighborhood())


class TestRankDWeights:
    def test_two_opposite_points(self):
        np.testing.assert_allclose(ldr_weights(TWO_OPPOSITE, 1), [0.5, 0.5], atol=1e-15)

    def test_cross_is_uniform(self):
        np.testing.assert_allclose(
            ldr_weights(grid_cross_neighborhood(), 2), 0.25, atol=1e-15
        )

    def test_matches_kkt_oracle(self, rng):
        for _ in range(50):
            K = int(rng.integers(4, 13))
            D = int(rng.integers(2, 7))
            d = int(rng.integers(1, min(K, D)))
            rows = rng.normal(size=(K, D))
            w = ldr_weights(hood(rows), d)
            np.testing.assert_allclose(w, kkt_min_norm_weights(rows, d), atol=1e-8)

    def test_annihilates_the_retained_part(self, rng):
        for _ in range(20):
            K = int(rng.integers(4, 10))
            D = int(rng.integers(3, 6))
            d = int(rng.integers(1, min(K, D)))
            rows = rng.normal(size=(K, D))
            w = ldr_weights(hood(rows), d)
            retained = rank_d_truncation(rows, d)
            top = np.linalg.svd(rows, compute_uv=False)[0]
            assert np.linalg.norm(w @ retained) < 1e-8 * top

    def test_minimum_norm_among_feasible(self, rng):
        count = 0
        while count < 100:
            K = int(rng.integers(3, 9))
            D = int(rng.integers(2, 6))
            d = int(rng.integers(1, min(K, D)))
            h = random_hood(rng, K, D)
            U2 = np.linalg.svd(h)[0][:, d:]
            w = ldr_weights(h, d)
            for v in feasible_in_discarded_span(U2, 5, rng):
                assert np.linalg.norm(w) <= np.linalg.norm(v) + 1e-8
            count += 1

    def test_reconstruction_error_bounded_by_discarded_spectrum(self, rng):
        from ldrlle import reconstruction_error

        for _ in range(20):
            K = int(rng.integers(4, 10))
            D = int(rng.integers(3, 7))
            d = int(rng.integers(1, min(K, D)))
            h = random_hood(rng, K, D)
            w = ldr_weights(h, d)
            tail = np.linalg.svd(h, compute_uv=False)[d]
            bound = tail**2 * float(w @ w) + 1e-10
            assert reconstruction_error(h, w) <= bound

    def test_exact_reconstruction_for_rank_d_neighborhoods(self, rng):
        # When the neighborhood itself has rank d, the discarded span
        # annihilates every row, so the residual against the full (not
        # truncated) neighborhood vanishes.
        from ldrlle import reconstruction_error

        rows = rng.normal(size=(12, 2)) @ rng.normal(size=(2, 3))
        w = ldr_weights(hood(rows), 2)
        assert reconstruction_error(hood(rows), w) < 1e-20

    def test_sum_to_one(self, rng):
        for _ in range(20):
            K = int(rng.integers(3, 12))
            w = ldr_weights(random_hood(rng, K, 4), min(2, K - 1))
            assert abs(w.sum() - 1.0) < 1e-10

    def test_scale_invariance(self, rng):
        rows = rng.normal(size=(9, 4))
        base = ldr_weights(hood(rows), 2)
        for c in (1e-3, 1e3):
            scaled = ldr_weights(hood(c * rows), 2)
            assert np.max(np.abs(scaled - base)) < 1e-10

    def test_rotation_invariance(self, rng):
        rows = rng.normal(size=(9, 4))
        R = random_orthogonal(4, rng)
        base = ldr_weights(hood(rows), 2)
        rotated = ldr_weights(hood(rows @ R), 2)
        assert np.max(np.abs(rotated - base)) < 1e-10

    def test_duplicate_of_center_tolerated(self, rng):
        rows = rng.normal(size=(6, 3))
        rows[2] = 0.0
        w = ldr_weights(hood(rows), 2)
        assert abs(w.sum() - 1.0) < 1e-10

    @pytest.mark.parametrize("d, message", [(3, "d must be < K = 3, got 3"),
                                            (0, "d must be >= 1, got 0")])
    def test_rank_outside_one_to_k_is_refused_by_the_count_rule(self, d, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            ldr_weights(hood(np.eye(3)), d)

    def test_coincident_neighbors_violate_general_position(self):
        with pytest.raises(GeneralPositionError) as excinfo:
            ldr_weights(hood([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]]), 1)
        assert excinfo.value.alpha == pytest.approx(1.0, abs=1e-12)

    @given(
        hnp.arrays(
            np.float64,
            (5, 3),
            elements=st.floats(-100.0, 100.0, allow_nan=False, width=64),
        )
    )
    # Tied top singular values: the d = 1 subspace is undefined, so this SVD
    # may keep another U[:, 0] than the solver's.
    @example(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]] + [[5e-324] * 3] * 3))
    @example(np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]] + [[5e-324] * 3] * 3))
    @settings(max_examples=50, deadline=None)
    def test_contract_holds_for_arbitrary_neighborhoods(self, rows):
        try:
            w = ldr_weights(hood(rows), 1)
        except GeneralPositionError:
            assume(False)
        assert abs(w.sum() - 1.0) < 1e-9
        U, lam, _ = np.linalg.svd(rows, full_matrices=True)
        # Orthogonality to the retained direction holds only where the split
        # is defined, a relative gap above the one assembly flags.
        if lam[0] - lam[1] > GAP_WARN_REL * lam[0]:
            assert abs(float(U[:, 0] @ w)) < 1e-9 * max(1.0, np.abs(w).max())


class TestAssembly:
    def test_ring_rows_sum_to_one(self, ring16, ring16_graph):
        W, _ = assemble_weight_matrix(ring16.points, ring16_graph, "ldr", d=1)
        sums = np.asarray(W.sum(axis=1)).ravel()
        assert np.max(np.abs(sums - 1.0)) < 1e-10

    @pytest.mark.parametrize("delta", [float("nan"), float("inf")])
    def test_non_finite_delta_rejected(self, ring16, ring16_graph, delta):
        with pytest.raises(ValueError, match="delta must be finite"):
            assemble_weight_matrix(ring16.points, ring16_graph, "classical", d=1, delta=delta)

    @pytest.mark.parametrize("delta", [float("nan"), -1.0])
    def test_a_bad_delta_is_refused_before_the_cloud_is_read(self, delta):
        with pytest.raises(ValueError, match=f"delta must be finite and >= 0, got {delta}"):
            assemble_weight_matrix("not a cloud", None, "classical", d=1, delta=delta)

    def test_matrix_matches_per_point_solves(self, ring16, ring16_graph):
        for method, kwargs in (("classical", {"delta": 1e-9}), ("ldr", {})):
            W, _ = assemble_weight_matrix(
                ring16.points, ring16_graph, method, d=1, **kwargs
            )
            dense = W.toarray()
            for i in range(16):
                h = ring16.points[ring16_graph[i]] - ring16.points[i]
                if method == "classical":
                    w = lle_weights(h, delta=1e-9)
                else:
                    w = ldr_weights(h, 1)
                np.testing.assert_array_equal(dense[i, ring16_graph[i]], w)

    def test_diagonal_zero_and_row_support(self, ring16, ring16_graph):
        W, _ = assemble_weight_matrix(ring16.points, ring16_graph, "ldr", d=1)
        assert np.max(np.abs(W.diagonal())) == 0.0
        per_row = np.diff(W.tocsr().indptr)
        assert np.all(per_row <= 4)

    def test_spectra_metadata(self, ring16, ring16_graph):
        _, spectra = assemble_weight_matrix(ring16.points, ring16_graph, "ldr", d=1)
        # Row i belongs to point i.
        for i in range(16):
            h = ring16.points[ring16_graph[i]] - ring16.points[i]
            spec = spectra_of(h, 1)
            np.testing.assert_array_equal(spectra.singular_values[i], spec.singular_values)
            assert spectra.alpha[i] == spec.alpha
            assert spectra.radius[i] == np.sqrt((h * h).sum(axis=1).max())
        assert np.all(spectra.radius > 0)
        assert np.all(spectra.alpha < 1.0)

    def test_swissroll_has_no_general_position_failures(self):
        sample = gen_swissroll(500, seed=0)
        graph = knn(sample.points, 12)
        _, spectra = assemble_weight_matrix(sample.points, graph, "ldr", d=2)
        assert spectra.alpha.shape == (500,)
        assert spectra.alpha.max() < 1.0

    def test_classical_returns_spectra_when_no_split_exists(self, rng):
        # d >= K splits nothing off, yet the record is returned: the same
        # singular values and radii as at any d, with every row gap-warned.
        X = rng.normal(size=(10, 3))
        graph = knn(X, 2)
        W, spectra = assemble_weight_matrix(X, graph, "classical", d=5)
        _, at_one = assemble_weight_matrix(X, graph, "classical", d=1)
        assert spectra.d == 5
        np.testing.assert_array_equal(spectra.singular_values, at_one.singular_values)
        np.testing.assert_array_equal(spectra.radius, at_one.radius)
        assert spectra.gap_warning.all()
        assert W.shape == (10, 10)

    def test_failures_name_the_point(self):
        X = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [5.0, 5.0]])
        graph = knn(X, 2)
        with pytest.raises(GeneralPositionError, match="point 0") as excinfo:
            assemble_weight_matrix(X, graph, "ldr", d=1)
        assert excinfo.value.point_index == 0

    def test_unknown_method_rejected(self, ring16, ring16_graph):
        with pytest.raises(ValueError, match="unknown method"):
            assemble_weight_matrix(ring16.points, ring16_graph, "other", d=1)

    def test_rank_parameter_validated(self, ring16, ring16_graph):
        with pytest.raises(ValueError):
            assemble_weight_matrix(ring16.points, ring16_graph, "ldr", d=4)
        with pytest.raises(ValueError):
            assemble_weight_matrix(ring16.points, ring16_graph, "ldr", d=0)

    @pytest.mark.parametrize("n_cloud", [25, 15])
    def test_cloud_and_graph_sizes_must_match(self, n_cloud, rng):
        graph = knn(rng.normal(size=(20, 3)), 4)
        X = rng.normal(size=(n_cloud, 3))
        with pytest.raises(ValueError, match=f"cloud has {n_cloud} points .* graph has 20"):
            assemble_weight_matrix(X, graph, "ldr", d=2)

    @pytest.mark.parametrize("bad", [-1, 20])
    def test_out_of_range_neighbor_index_rejected(self, bad, rng):
        X = rng.normal(size=(20, 3))
        graph = knn(X, 4)
        graph[[3, 7], 0] = bad
        with pytest.raises(ValueError, match=r"row 3 has an index outside \[0, 20\)"):
            assemble_weight_matrix(X, graph, "ldr", d=2)

    @pytest.mark.parametrize("shape", [(20, 0), (20,)])
    def test_neighbor_graph_must_be_n_by_k(self, shape, rng):
        X = rng.normal(size=(20, 3))
        with pytest.raises(ValueError, match=rf"K >= 1, got shape \({shape[0]},"):
            assemble_weight_matrix(X, np.zeros(shape, dtype=np.intp), "classical", d=2)

    def test_non_integer_neighbor_graph_rejected(self, rng):
        X = rng.normal(size=(20, 3))
        with pytest.raises(ValueError, match="integer indices, got dtype float64"):
            assemble_weight_matrix(X, knn(X, 4).astype(float), "classical", d=2)


def full_basis_weights(rows, filter_of):
    """Stacked w = U diag(f) U'1, normalized, on the full (N, K, K) basis: the
    filtered weights with no tail, f taken at the K zero-padded singular values."""
    U, s, _ = np.linalg.svd(rows, full_matrices=True)
    lam = np.zeros(rows.shape[:2])
    lam[:, : s.shape[1]] = s
    c = np.ones(rows.shape[1]) @ U
    w = (U @ (filter_of(lam) * c)[:, :, None])[:, :, 0]
    return w / w.sum(axis=1, keepdims=True)


def rank_d_filter(d):
    return lambda lam: (np.arange(lam.shape[1]) >= d).astype(float)


def ridge_filter(delta):
    def f(lam):
        ridge = lam * lam + delta / lam.shape[1] * (lam * lam).sum(axis=1, keepdims=True)
        return np.divide(1.0, ridge, out=np.ones_like(lam), where=ridge > 0.0)
    return f


def pinv_filter(lam):
    kept = lam > lam.shape[1] * np.finfo(float).eps * lam[:, :1]
    return np.divide(1.0, lam * lam, out=np.zeros_like(lam), where=kept)


class TestThinKernels:
    # The kernels read only the m = min(K, D) columns of the thin SVD plus
    # the filter's constant tail; the oracle sums over all K columns.
    SOLVERS = {
        "ldr": (lambda rows: ldr_weights(rows, 2), rank_d_filter(2)),
        "ridge": (lambda rows: lle_weights(rows, DEFAULT_DELTA), ridge_filter(DEFAULT_DELTA)),
        "pinv": (lle_weights_pinv, pinv_filter),
    }

    @pytest.mark.parametrize("solver", sorted(SOLVERS))
    @pytest.mark.parametrize("case", ["swissroll", "scurve", "D > K", "K = D"])
    def test_matches_the_full_basis(self, case, solver):
        rng = np.random.default_rng(7)
        if case in ("swissroll", "scurve"):
            X = {"swissroll": gen_swissroll, "scurve": gen_scurve}[case](600, seed=3).points
            rows = X[knn(X, 12)] - X[:, None]
        else:
            rows = rng.normal(size=(40, 12, 20) if case == "D > K" else (40, 6, 6))
        solve, filter_of = self.SOLVERS[solver]
        assert np.max(np.abs(solve(rows) - full_basis_weights(rows, filter_of))) < 1e-13

    def test_all_zero_neighborhood_is_uniform(self, rng):
        # mu = 0 there, so the whole filter, tail included, is 1.
        rows = np.concatenate([np.zeros((1, 7, 3)), rng.normal(size=(3, 7, 3))])
        w = lle_weights(rows, DEFAULT_DELTA)
        np.testing.assert_array_equal(w[0], np.full(7, 1.0 / 7.0))
        assert np.max(np.abs(w - full_basis_weights(rows, ridge_filter(DEFAULT_DELTA)))) < 1e-13

    def test_rank_cut_pseudo_inverse_row(self, rng):
        # Rank-2 rows in 3-D: the third singular value falls under the cut,
        # so the pseudo-inverse filter is 0 there and in the tail.
        rows = rng.normal(size=(10, 6, 2)) @ rng.normal(size=(10, 2, 3))
        s = np.linalg.svd(rows, compute_uv=False)
        assert np.all(s[:, 2] <= 6 * np.finfo(float).eps * s[:, 0])
        w = lle_weights_pinv(rows)
        assert np.max(np.abs(w - full_basis_weights(rows, pinv_filter))) < 1e-13


@pytest.mark.parametrize("stacked", [False, True])
@pytest.mark.parametrize("bad", ["nan", "inf", "K = 0", "D = 0"])
@pytest.mark.parametrize("solver", sorted(TestThinKernels.SOLVERS))
def test_bad_neighborhoods_are_refused_before_the_svd(solver, bad, stacked, monkeypatch):
    rows = np.random.default_rng(0).normal(size=(5, 4, 3))
    if bad in ("nan", "inf"):
        rows[3, 1, 2] = float(bad)
        match = "neighborhood 3 contains non-finite" if stacked else "neighborhood contains non-finite"
    else:
        rows = rows[:, :0] if bad == "K = 0" else rows[:, :, :0]
        match = "K >= 1 neighbors with D >= 1 coordinates"
    monkeypatch.setattr(np.linalg, "svd", None)
    solve, _ = TestThinKernels.SOLVERS[solver]
    with pytest.raises(ValueError, match=match):
        solve(rows if stacked else rows[3])


def test_ranks_past_the_thin_rank_are_the_thin_rank():
    # K = 12 neighbors in D = 3: the thin rank is m = 3, and the discarded
    # span for any d >= m is the complement of the whole column space.
    X = gen_swissroll(1500, seed=0).points
    graph = knn(X, 12)
    rows = X[graph] - X[:, None]
    W3, spectra3 = assemble_weight_matrix(X, graph, "ldr", d=3)
    assert not spectra3.gap_warning.all()
    for d in (4, 7, 11):
        W, spectra = assemble_weight_matrix(X, graph, "ldr", d=d)
        np.testing.assert_array_equal(W.toarray(), W3.toarray())
        np.testing.assert_array_equal(spectra.alpha, spectra3.alpha)
        assert spectra.gap_warning.all()
        np.testing.assert_array_equal(ldr_weights(rows, d), ldr_weights(rows, 3))


@pytest.mark.parametrize("method", ["classical", "ldr"])
@pytest.mark.parametrize("cloud", ["swissroll", "gaussian"])
def test_spectra_exist_at_every_rank(method, cloud):
    # K > D (m = 3 < K = 12) and K <= D (m = K = 4).  The ldr weights refuse
    # d >= K; the classical ones take every d >= 1.
    if cloud == "swissroll":
        X, K = gen_swissroll(300, seed=0).points, 12
    else:
        X, K = np.random.default_rng(5).normal(size=(40, 6)), 4
    m = min(K, X.shape[1])
    graph = knn(X, K)
    last = K + 2 if method == "classical" else K - 1
    records = {d: assemble_weight_matrix(X, graph, method, d=d)[1]
               for d in range(1, last + 1)}
    for d, spectra in records.items():
        assert spectra.d == d
        np.testing.assert_array_equal(spectra.singular_values, records[1].singular_values)
        np.testing.assert_array_equal(spectra.radius, records[1].radius)
        if d >= m:
            np.testing.assert_array_equal(spectra.alpha, records[m].alpha)
        if d > m or d >= K:
            assert spectra.gap_warning.all()
    for d in (0, -1):
        with pytest.raises(ValueError, match="d must be >= 1"):
            assemble_weight_matrix(X, graph, method, d=d)


class TestAssemblyCost:
    def test_traced_peak_stays_under_the_full_basis(self):
        # The full (N, K, K) basis alone is 8000 * 12 * 12 * 8 bytes = 8.8 MiB;
        # with it, assembly peaked at 16.9 MiB.
        X = gen_swissroll(8000, seed=11).points
        graph = knn(X, 12)
        for method in ("ldr", "classical"):
            tracemalloc.start()
            try:
                assemble_weight_matrix(X, graph, method, d=2)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 12 * 2**20, method

    def test_traced_peak_is_bounded_by_the_block(self):
        # With the whole (N, K, D) stack gathered at once, assembly peaked at
        # 35.6 (ldr) and 37.2 MiB (classical) here; one block's stack is 1.1 MiB.
        X = gen_swissroll(32000, seed=11).points
        graph = knn(X, 12)
        for method in ("ldr", "classical"):
            tracemalloc.start()
            try:
                assemble_weight_matrix(X, graph, method, d=2)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 16 * 2**20, method

    def test_one_thin_svd_per_call(self, monkeypatch, ring16, ring16_graph):
        calls = []
        svd = np.linalg.svd

        def counting_svd(*args, **kwargs):
            calls.append(kwargs)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        assemble_weight_matrix(ring16.points, ring16_graph, "ldr", d=1)
        assert calls == [{"full_matrices": False}]
        calls.clear()
        perturbation_experiment(epsilons=(1e-3,), trials=5)
        assert len(calls) == 1
        rows = ring16.points[ring16_graph] - ring16.points[:, None]
        for solve, _ in TestThinKernels.SOLVERS.values():
            for neighborhoods in (rows[0], rows):
                calls.clear()
                solve(neighborhoods)
                assert calls == [{"full_matrices": False}]


class TestBlocks:
    """Assembly solves BLOCK points at a time and gives the bits and errors of
    one stack of the whole cloud."""

    @staticmethod
    def chain(singular):
        """2 BLOCK + 500 random points in R^3, each with the next two as its
        K = 2 neighbors, and each point of singular given collinear ones."""
        n = 2 * BLOCK + 500
        X = np.random.default_rng(4).normal(size=(n, 3))
        graph = (np.arange(n)[:, None] + np.arange(1, 3)) % n
        for i in singular:
            X[i + 2] = X[i] + 2.0 * (X[i + 1] - X[i])
        return X, graph

    @pytest.mark.parametrize("i", [BLOCK, 2 * BLOCK + 123])
    def test_error_past_the_first_block_names_the_global_point(self, i):
        X, graph = self.chain([i])
        with pytest.raises(SingularNeighborhoodError) as excinfo:
            assemble_weight_matrix(X, graph, "classical", d=1, delta=0.0)
        assert str(excinfo.value).startswith(f"point {i}: ")
        assert excinfo.value.point_index == i

    @pytest.mark.parametrize("i", [BLOCK, 2 * BLOCK + 123])
    def test_first_block_error_comes_first(self, i):
        X, graph = self.chain([17, i])
        with pytest.raises(SingularNeighborhoodError) as excinfo:
            assemble_weight_matrix(X, graph, "classical", d=1, delta=0.0)
        assert str(excinfo.value).startswith("point 17: ")
        assert excinfo.value.point_index == 17

    @pytest.fixture(scope="class")
    def roll(self):
        X = gen_swissroll(2 * BLOCK + 1, seed=11).points
        return X, knn(X, 12)

    @pytest.mark.parametrize("method", ["classical", "ldr"])
    @pytest.mark.parametrize("d", [1, 2, 11])
    def test_blocks_change_no_bit(self, roll, method, d):
        X, graph = roll
        n, K = graph.shape
        U, lam, radius = _svd(X[graph] - X[:, None])
        if method == "ldr":
            data = _ldr(U, d, "point {}")
        else:
            data = _classical(U, lam, DEFAULT_DELTA, "point {}")
        top = lam[:, 0]
        gap = (top <= 0.0) | ((lam[:, d - 1] - lam[:, d]) / np.where(top > 0.0, top, 1.0) < 1e-6)
        W, spectra = assemble_weight_matrix(X, graph, method, d=d)
        np.testing.assert_array_equal(W.data, data.ravel())
        np.testing.assert_array_equal(W.indices, graph.ravel())
        np.testing.assert_array_equal(W.indptr, np.arange(0, n * K + 1, K))
        np.testing.assert_array_equal(spectra.singular_values, lam)
        np.testing.assert_array_equal(spectra.alpha, _sqnorm(np.ones(K) @ U[:, :, :d]) / K)
        np.testing.assert_array_equal(spectra.radius, radius)
        np.testing.assert_array_equal(spectra.gap_warning, gap)
        assert spectra.d == d


@pytest.mark.parametrize("method", ["classical", "ldr"])
def test_overflowing_offsets_rejected(method):
    # Each point gets the points farthest from it along the first axis as
    # neighbors, so on a cloud spanning +-1e308 some centered offsets overflow
    # to inf, and the stacked SVD of such neighborhoods does not return.
    X = np.random.default_rng(0).uniform(-1.0, 1.0, size=(20, 3))
    far = np.argsort(-np.abs(X[:, None, 0] - X[None, :, 0]), axis=1, kind="stable")
    with pytest.raises(ValueError, match="overflow"):
        assemble_weight_matrix(1e308 * X, far[:, :6], method, d=2)


@pytest.fixture(scope="module")
def roll600():
    """Swiss roll n = 600, seed 3, its K = 10 graph, and both unscaled W."""
    X = gen_swissroll(600, seed=3).points
    graph = knn(X, 10)
    return X, graph, {m: assemble_weight_matrix(X, graph, m, d=2)[0].toarray()
                      for m in ("classical", "ldr")}


@pytest.mark.parametrize("method", ["classical", "ldr"])
@pytest.mark.parametrize("scale", [1e-150, 1e-160])
def test_weights_hold_at_tiny_scales(roll600, method, scale):
    # Through the Gram matrix, classical weights overflowed at 1e-150 and
    # turned to NaN at 1e-160.
    X, graph, W = roll600
    scaled, _ = assemble_weight_matrix(scale * X, graph, method, d=2)
    assert np.max(np.abs(scaled.toarray() - W[method])) < 1e-12


def test_radius_holds_at_a_tiny_scale(roll600):
    # The squared offsets underflow at this scale unless the radius rescales.
    X, graph, _ = roll600
    _, spectra = assemble_weight_matrix(X, graph, "ldr", d=2)
    _, tiny = assemble_weight_matrix(1e-170 * X, graph, "ldr", d=2)
    np.testing.assert_allclose(tiny.radius, 1e-170 * spectra.radius, rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("method", ["classical", "ldr"])
@given(st.integers(-500, 500))
@example(-500)
@example(500)
@settings(max_examples=20, deadline=None)
def test_weights_are_invariant_under_power_of_two_scaling(roll600, method, k):
    X, graph, W = roll600
    scaled, _ = assemble_weight_matrix(np.ldexp(X, k), graph, method, d=2)
    assert np.max(np.abs(scaled.toarray() - W[method])) < 1e-12


@st.composite
def degenerate_clouds(draw):
    """Small clouds on an integer grid or a line, so duplicate points,
    collinear neighborhoods and singular Gram matrices are common; d is
    often K - 1."""
    n = draw(st.integers(4, 9))
    D = draw(st.integers(1, 3))
    coord = st.integers(-2, 2).map(float)
    if draw(st.booleans()):
        X = np.array(draw(st.lists(st.lists(coord, min_size=D, max_size=D),
                                   min_size=n, max_size=n)))
    else:
        t = np.array(draw(st.lists(coord, min_size=n, max_size=n)))
        direction = np.array(draw(st.lists(coord, min_size=D, max_size=D)))
        X = t[:, None] * direction + 0.5
    K = draw(st.integers(2, n - 1))
    d = draw(st.integers(1, K - 1))
    return X, K, d


@pytest.mark.parametrize(
    "method, delta", [("ldr", DEFAULT_DELTA), ("classical", 1e-9), ("classical", 0.0)]
)
@given(degenerate_clouds())
@settings(max_examples=150, deadline=None)
def test_assembly_agrees_with_per_point_solves(method, delta, cloud):
    # Assembly and the solvers run on the whole stack of neighborhoods either
    # return the rows the single-neighborhood solvers return, or raise the
    # error of the first point whose single solve fails.
    X, K, d = cloud
    graph = knn(X, K)
    rows = X[graph] - X[:, None]

    def solve(h):
        return ldr_weights(h, d) if method == "ldr" else lle_weights(h, delta)

    expected, failure = [], None
    for i in range(len(X)):
        try:
            expected.append(solve(rows[i]))
        except (SingularNeighborhoodError, DegenerateWeightsError, GeneralPositionError) as exc:
            failure = (i, exc)
            break
    if failure is None:
        W, _ = assemble_weight_matrix(X, graph, method, d=d, delta=delta)
        dense = W.toarray()
        stacked = solve(rows)
        for i, w in enumerate(expected):
            np.testing.assert_array_equal(dense[i, graph[i]], w)
            np.testing.assert_array_equal(stacked[i], w)
        return
    i, single = failure
    assert single.point_index is None
    with pytest.raises(type(single)) as excinfo:
        assemble_weight_matrix(X, graph, method, d=d, delta=delta)
    assert excinfo.value.point_index == i
    assert str(excinfo.value) == f"point {i}: {single}"
    with pytest.raises(type(single)) as stacked:
        solve(rows)
    assert stacked.value.point_index == i
    assert str(stacked.value) == str(excinfo.value)
    for attr in ("alpha", "rcond"):
        assert getattr(excinfo.value, attr, None) == getattr(single, attr, None)
        assert getattr(stacked.value, attr, None) == getattr(single, attr, None)


class TestWeightSerialization:
    def test_coordinate_format_round_trip(self, tmp_path, ring16, ring16_graph):
        W, _ = assemble_weight_matrix(ring16.points, ring16_graph, "ldr", d=1)
        path = tmp_path / "w.csv"
        save_weight_matrix(W, path)
        rebuilt = np.zeros((16, 16))
        for line in path.read_text().splitlines():
            i, j, v = line.split(",")
            rebuilt[int(i), int(j)] = float(v)
        np.testing.assert_array_equal(rebuilt, W.toarray())

    def test_dumps_convert_their_rows_block_by_block(self, tmp_path):
        # 96,000 entries: as three whole .tolist() lists the W dump traced a
        # 10.5 MiB peak.  8000 points span two blocks, so the rows on both
        # sides of a boundary are checked too.
        X = gen_swissroll(8000, seed=11).points
        W, spectra = assemble_weight_matrix(X, knn(X, 12), "ldr", d=2)
        path = tmp_path / "w.csv"
        tracemalloc.start()
        try:
            save_weight_matrix(W, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20
        coo = W.tocoo()
        rows = zip(coo.row.tolist(), coo.col.tolist(), coo.data.tolist())
        assert path.read_text() == "".join("%s,%s,%s\n" % row for row in rows)
        save_spectra(spectra, path)
        table = np.column_stack([spectra.singular_values, spectra.alpha, spectra.radius])
        assert path.read_text() == "".join(
            ",".join(map(str, [i, *row])) + "\n" for i, row in enumerate(table.tolist()))

    def test_spectra_rows(self, tmp_path, ring16, ring16_graph):
        _, spectra = assemble_weight_matrix(ring16.points, ring16_graph, "ldr", d=1)
        path = tmp_path / "spec.csv"
        save_spectra(spectra, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 16
        first = lines[0].split(",")
        # center index, 4 singular values, alpha, radius
        assert len(first) == 7
        assert int(first[0]) == 0
        assert float(first[-1]) == pytest.approx(spectra.radius[0])
