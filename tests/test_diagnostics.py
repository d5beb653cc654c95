"""Verification harnesses: stability study, objective-value checks, quality metrics."""

import functools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ldrlle import (
    DegenerateWeightsError,
    UndefinedCorrelationError,
    assemble_weight_matrix,
    embed,
    gen_open_ring,
    gen_swissroll,
    grid_cross_neighborhood,
    knn,
    ldr_weights,
    linear_projection_diagnostic,
    linear_r2,
    lle_weights,
    lle_weights_pinv,
    monotonicity_1d,
    permuted_preimage_null,
    perturbation_experiment,
    perturbation_report_dict,
    procrustes_residual,
    reconstruction_error,
    theorem1_bound,
    theorem2_check_from_parts,
)
from oracles import random_centered_orthonormal, random_orthogonal


@functools.cache
def swissroll_rank2_embedding():
    """Swiss roll (n = 600, seed 3) and its rank-2 weight embedding at K = 10."""
    X = gen_swissroll(600, seed=3).points
    W, _ = assemble_weight_matrix(X, knn(X, 10), "ldr", d=2)
    return X, embed(W, 2).Y


class TestReconstructionError:
    def test_two_neighbor_example(self):
        h = np.array([[1.0, 0.0], [0.0, 2.0]])
        # Residual vector 0.8*(1,0) + 0.2*(0,2) = (0.8, 0.4); squared norm 0.8.
        assert reconstruction_error(h, np.array([0.8, 0.2])) == pytest.approx(0.8)

    def test_uniform_weights_cancel_on_the_cross(self):
        w = np.full(4, 0.25)
        assert reconstruction_error(grid_cross_neighborhood(), w) == 0.0

    def test_quadratic_homogeneity_in_scale(self, rng):
        rows = rng.normal(size=(5, 3))
        w = rng.normal(size=5)
        w /= w.sum()
        base = reconstruction_error(rows, w)
        scaled = reconstruction_error(3.0 * rows, w)
        assert scaled == pytest.approx(9.0 * base, rel=1e-12)

    def test_shape_mismatch(self):
        h = np.array([[1.0, 0.0], [0.0, 2.0]])
        with pytest.raises(ValueError):
            reconstruction_error(h, np.ones(3))


class TestStabilityBound:
    def test_hand_computed_value(self):
        # 20e-4 / (0.25 * 0.5) with preconditions comfortably met.
        assert theorem1_bound(0.5, 0.5, 1e-4) == pytest.approx(0.016)

    def test_boundary_is_a_precondition_failure(self):
        limit = min(1.0**4, 1.0**2 * 1.0) / 72.0
        assert theorem1_bound(1.0, 0.0, limit) is None
        assert theorem1_bound(1.0, 0.0, limit * 0.999) is not None

    def test_crowded_subspace_forces_failure_marker(self):
        # As alpha -> 1 the admissible epsilon window closes.
        assert theorem1_bound(1.0, 1.0 - 1e-9, 1e-10) is None

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            theorem1_bound(0.0, 0.5, 1e-4)
        # An infinite lambda_d would give a bound of 0, which every
        # displacement violates.
        with pytest.raises(ValueError, match="lambda_d must be finite"):
            theorem1_bound(np.inf, 0.0, 1e-3)
        with pytest.raises(ValueError):
            theorem1_bound(0.5, 1.0, 1e-4)
        with pytest.raises(ValueError):
            theorem1_bound(0.5, -0.1, 1e-4)
        with pytest.raises(ValueError):
            theorem1_bound(0.5, 0.5, 0.0)

    @pytest.mark.parametrize("epsilon", [np.inf, np.nan])
    def test_non_finite_epsilon_rejected(self, epsilon):
        with pytest.raises(ValueError, match="finite"):
            theorem1_bound(0.5, 0.5, epsilon)


class TestGridCross:
    def test_geometry(self):
        cross = grid_cross_neighborhood()
        assert cross.shape == (4, 4)
        s = 0.99 / np.sqrt(2.0)
        want = np.zeros((4, 4))
        want[0, 0], want[1, 0], want[2, 1], want[3, 1] = s, -s, s, -s
        np.testing.assert_allclose(cross, want, atol=1e-15)
        assert np.sqrt((cross * cross).sum(axis=1).max()) == pytest.approx(s)

    def test_classical_weights_are_uniform_for_any_ridge(self):
        w = lle_weights(grid_cross_neighborhood(), delta=123.0)
        np.testing.assert_allclose(w, 0.25, atol=1e-12)


class TestPerturbationExperiment:
    def test_deterministic(self):
        a = perturbation_experiment(trials=25, seed=5)
        b = perturbation_experiment(trials=25, seed=5)
        for ra, rb in zip(a, b):
            np.testing.assert_array_equal(ra.distances_ldr, rb.distances_ldr)
            np.testing.assert_array_equal(ra.distances_classical, rb.distances_classical)

    def test_trials_seeded_independently_of_count(self):
        short = perturbation_experiment(trials=10, seed=3)
        long = perturbation_experiment(trials=30, seed=3)
        for rs, rl in zip(short, long):
            np.testing.assert_array_equal(rs.distances_ldr, rl.distances_ldr[:10])

    def test_bound_holds_on_every_qualifying_trial(self):
        for r in perturbation_experiment(trials=100, seed=0):
            assert r.bound is not None
            assert np.all(r.distances_ldr < r.bound)

    def test_completes_where_the_gram_pseudo_inverse_degenerates(self):
        # Trial 133 at epsilon 1e-6 of this seed lies within 2e-8 of the
        # cross's plane; a pseudo-inverse of its Gram matrix summed to zero.
        seed, trial = 92, 133
        noise = np.random.default_rng(seed).standard_normal((trial + 1, 4, 4))[trial]
        rows = grid_cross_neighborhood() + 1e-6 * noise / np.linalg.norm(noise)
        assert np.linalg.svd(rows, compute_uv=False)[2] <= 2e-8
        for r in perturbation_experiment(seed=seed):
            assert np.all(np.isfinite(r.distances_classical))

    def test_a_report_depends_only_on_its_epsilon(self):
        alone = perturbation_experiment(epsilons=(1e-4,), trials=20, seed=6)[0]
        paired = perturbation_experiment(epsilons=(1e-2, 1e-4), trials=20, seed=6)[1]
        np.testing.assert_array_equal(alone.distances_ldr, paired.distances_ldr)
        np.testing.assert_array_equal(alone.distances_classical, paired.distances_classical)

    def test_rank_d_tracks_noise_while_classical_stalls(self):
        reports = perturbation_experiment(trials=100, seed=0)
        for r in reports:
            assert np.median(r.distances_ldr) < np.median(r.distances_classical)
        # The rank-d displacement shrinks with epsilon; classical stays O(1).
        med_ldr = [np.median(r.distances_ldr) for r in reports]
        assert med_ldr[0] > med_ldr[1] > med_ldr[2]
        med_classical = [np.median(r.distances_classical) for r in reports]
        assert min(med_classical) > 0.1

    def test_distances_non_negative(self):
        for r in perturbation_experiment(trials=20, seed=1):
            assert np.all(r.distances_ldr >= 0.0)
            assert np.all(r.distances_classical >= 0.0)

    def test_one_svd_per_noisy_cross(self, monkeypatch):
        # One factorisation per epsilon, which both arms read; the bound
        # takes its spectrum from the cross's definition.
        calls = []
        svd = np.linalg.svd

        def counting_svd(*args, **kwargs):
            calls.append(args[0].shape)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        epsilons = (1e-2, 1e-4, 1e-6)
        perturbation_experiment(epsilons=epsilons, trials=5)
        assert len(calls) == len(epsilons)

    def test_degenerate_trial_names_its_epsilon_and_trial(self):
        # So small a perturbation is below the pseudo-inverse cutoff: the
        # classical arm falls back to the planar cross, whose weights sum to zero.
        with pytest.raises(DegenerateWeightsError, match="^epsilon 1e-15, trial 0: ") as excinfo:
            perturbation_experiment(epsilons=(1e-15,), trials=3)
        assert excinfo.value.point_index == 0

    def test_distances_are_the_public_solvers_on_the_same_stack(self):
        # Trials rebuilt from the study's one draw, shared by every epsilon.
        def norms(v):
            return np.sqrt(np.array([row @ row for row in v]))

        seed, trials = 4, 6
        noise = np.random.default_rng(seed).standard_normal((trials, 4, 4))
        noise /= norms(noise.reshape(trials, 16))[:, None, None]
        for r in perturbation_experiment(trials=trials, seed=seed):
            rows = grid_cross_neighborhood() + r.epsilon * noise
            np.testing.assert_array_equal(r.distances_ldr, norms(ldr_weights(rows, 2) - 0.25))
            np.testing.assert_array_equal(r.distances_classical,
                                          norms(lle_weights_pinv(rows) - 0.25))

    def test_report_dict_shape(self):
        reports = perturbation_experiment(trials=10, seed=2)
        payload = perturbation_report_dict(reports)
        assert len(payload["reports"]) == 3
        for row in payload["reports"]:
            assert row["violations"] == 0
            assert row["preconditions_met"] is True
            for stats in (row["classical"], row["ldr"]):
                assert stats["median"] <= stats["p95"] <= stats["max"]

    def test_validation(self):
        with pytest.raises(ValueError):
            perturbation_experiment(trials=0)
        with pytest.raises(ValueError):
            perturbation_experiment(epsilons=(1e-2, -1.0), trials=5)

    @pytest.mark.parametrize("epsilon", [0.0, -1.0, np.inf, np.nan])
    def test_bad_epsilon_is_refused_before_its_svd(self, epsilon, monkeypatch):
        def refusing_svd(*args, **kwargs):
            raise AssertionError("svd ran on a refused epsilon")

        monkeypatch.setattr(np.linalg, "svd", refusing_svd)
        with pytest.raises(ValueError, match="epsilon must be finite and > 0"):
            perturbation_experiment(epsilons=(epsilon,), trials=3)

    def test_a_bad_last_epsilon_is_refused_before_the_first_svd(self, monkeypatch):
        def refusing_svd(*args, **kwargs):
            raise AssertionError("svd ran before every epsilon was checked")

        monkeypatch.setattr("ldrlle.diagnostics._svd", refusing_svd)
        with pytest.raises(ValueError, match="epsilon must be finite and > 0, got -1"):
            perturbation_experiment(epsilons=(1e-2, 1e-4, -1.0), trials=3)


class TestObjectiveValueCheck:
    def test_ring_preimage_beats_permuted_null(self):
        sample = gen_open_ring(64)
        graph = knn(sample.points, 4)
        W, spectra = assemble_weight_matrix(sample.points, graph, "ldr", d=1)
        result = theorem2_check_from_parts(sample.preimage, W, spectra)
        assert np.isfinite(result.ratio)
        assert result.phi_z_over_n > 0.0
        null = permuted_preimage_null(W, sample.preimage, permutations=20, seed=0)
        assert null >= 10.0 * result.phi_z_over_n

    def test_planar_data_reconstructs_its_own_coordinates(self, rng):
        # Points already in a d-plane: the discarded spectrum is zero, the
        # weights reproduce the plane coordinates exactly, and the ratio is
        # flagged as undefined rather than divided out.
        coords = rng.normal(size=(40, 2))
        basis = np.linalg.qr(rng.normal(size=(3, 2)))[0]
        X = coords @ basis.T
        graph = knn(X, 8)
        W, spectra = assemble_weight_matrix(X, graph, "ldr", d=2)
        result = theorem2_check_from_parts(coords, W, spectra)
        assert result.max_lambda_dp1 < 1e-12
        assert result.phi_z_over_n < 1e-20
        assert result.ratio is None

    def test_rigid_motion_invariance_of_objective(self, rng):
        sample = gen_open_ring(48)
        graph = knn(sample.points, 4)
        W, spectra = assemble_weight_matrix(sample.points, graph, "ldr", d=1)
        base = theorem2_check_from_parts(sample.preimage, W, spectra)
        moved = sample.preimage @ random_orthogonal(1, rng) + 7.5
        shifted = theorem2_check_from_parts(moved, W, spectra)
        assert abs(shifted.phi_z_over_n - base.phi_z_over_n) < 1e-10 * max(
            base.phi_z_over_n, 1.0
        )

    @pytest.mark.parametrize("scale", [1e-110, 1e-160])
    def test_tiny_cloud_ratio_is_past_float_range(self, scale):
        # The denominator lambda_{d+1} * r_max^2 scales as the cube of the
        # cloud and underflows to zero, while phi(Z)/N does not scale.
        sample = gen_swissroll(500, seed=3)
        X = scale * sample.points
        W, spectra = assemble_weight_matrix(X, knn(X, 10), "ldr", d=2)
        result = theorem2_check_from_parts(sample.preimage, W, spectra)
        assert result.ratio is None
        assert result.max_lambda_dp1 * result.r_max ** 2 == 0.0
        assert 0.0 < result.phi_z_over_n < np.inf

    def test_weights_without_a_rank_split_are_refused_before_phi(self, monkeypatch):
        # Classical weights assembled with d >= K discard nothing, so their
        # spectra hold no lambda_{d+1}.
        sample = gen_swissroll(300, seed=0)
        W, spectra = assemble_weight_matrix(
            sample.points, knn(sample.points, 12), "classical", d=12
        )
        assert spectra.d == 12

        def refusing_phi(*args):
            raise AssertionError("phi ran")

        monkeypatch.setattr("ldrlle.diagnostics.phi", refusing_phi)
        with pytest.raises(ValueError, match="rank-d split"):
            theorem2_check_from_parts(sample.preimage, W, spectra)

    def test_permuted_null_deterministic(self):
        sample = gen_open_ring(32)
        graph = knn(sample.points, 4)
        W, _ = assemble_weight_matrix(sample.points, graph, "ldr", d=1)
        a = permuted_preimage_null(W, sample.preimage, permutations=10, seed=4)
        b = permuted_preimage_null(W, sample.preimage, permutations=10, seed=4)
        assert a == b
        with pytest.raises(ValueError):
            permuted_preimage_null(W, sample.preimage, permutations=0)

    @pytest.mark.parametrize("rows", [74, 50])
    def test_permuted_null_refuses_a_preimage_of_another_length(self, rows):
        # A 74-row preimage must not be scored on random 64-row subsets, nor a
        # 50-row one fail with a bare IndexError.
        sample = gen_open_ring(64)
        W, _ = assemble_weight_matrix(sample.points, knn(sample.points, 4), "ldr", d=1)
        preimage = np.resize(sample.preimage, (rows, sample.preimage.shape[1]))
        with pytest.raises(ValueError, match="does not match W shape"):
            permuted_preimage_null(W, preimage, permutations=5)


class TestLinearR2:
    def test_exact_affine_map_scores_one(self, rng):
        X = rng.normal(size=(100, 3))
        P = rng.normal(size=(3, 2))
        Y = X @ P + np.array([1.0, -2.0])
        assert linear_r2(X, Y) == pytest.approx(1.0, abs=1e-12)

    def test_random_orthonormal_scores_near_zero(self, rng):
        X = rng.normal(size=(400, 3))
        values = [
            linear_r2(X, random_centered_orthonormal(400, 2, rng)) for _ in range(100)
        ]
        assert np.mean(values) < 0.05
        assert np.max(values) < 0.2

    def test_clipped_to_unit_interval(self, rng):
        X = rng.normal(size=(50, 2))
        Y = rng.normal(size=(50, 2))
        value = linear_r2(X, Y)
        assert 0.0 <= value <= 1.0

    def test_accepts_single_column(self, rng):
        X = rng.normal(size=(30, 2))
        assert linear_r2(X, X[:, 0]) == pytest.approx(1.0, abs=1e-12)

    def test_zero_variance_rejected(self, rng):
        X = rng.normal(size=(10, 2))
        with pytest.raises(ValueError, match="variance"):
            linear_r2(X, np.ones(10))

    def test_shape_mismatch(self, rng):
        with pytest.raises(ValueError):
            linear_r2(rng.normal(size=(10, 2)), rng.normal(size=(11, 2)))

    def test_three_dimensional_output_is_refused(self, rng):
        # Not a linear-algebra failure: a shape the statistic does not take.
        with pytest.raises(ValueError, match="shape") as excinfo:
            linear_r2(rng.normal(size=(20, 2)), rng.normal(size=(20, 2, 1)))
        assert not isinstance(excinfo.value, np.linalg.LinAlgError)

    @given(
        k=st.integers(-500, 500),
        offset=st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=3),
    )
    @example(k=-500, offset=[1e6, -1e6, 1e6])
    @example(k=500, offset=[-1e6, 1e6, -1e6])
    @example(k=-47, offset=[0.0, 0.0, 0.0])
    @example(k=47, offset=[0.0, 0.0, 0.0])
    @settings(max_examples=50, deadline=None)
    def test_invariant_under_binary_scaling_and_offset(self, k, offset):
        # X -> 2^k (X + offset * spread) is an affine map of the input, so the
        # best affine fit to Y explains the same variance.
        X, Y = swissroll_rank2_embedding()
        moved = np.ldexp(X + np.array(offset) * np.ptp(X, axis=0), k)
        assert linear_r2(moved, Y) == pytest.approx(linear_r2(X, Y), abs=1e-9)

    def test_constant_column_far_above_a_tiny_varying_one(self):
        # The constant column's mean is off by far more than the varying
        # column's spread; centring must not leave that error behind.
        v = np.linspace(0.0, 1e-148, 50)
        X = np.column_stack([v, np.full(50, 1e150)])
        assert linear_r2(X, np.linspace(0.0, 1.0, 50)) == pytest.approx(1.0, abs=1e-12)


class TestProcrustesResidual:
    def test_rigid_motion_and_scale_align_perfectly(self, rng):
        Y = rng.normal(size=(40, 2))
        R = random_orthogonal(2, rng)
        moved = 3.7 * (Y @ R) + np.array([5.0, -1.0])
        assert procrustes_residual(moved, Y) < 1e-10

    def test_unrelated_clouds_do_not_align(self, rng):
        assert procrustes_residual(
            rng.normal(size=(60, 2)), rng.normal(size=(60, 2))
        ) > 0.1

    def test_single_column_inputs(self, rng):
        y = rng.normal(size=30)
        assert procrustes_residual(-2.0 * y, y) < 1e-10

    def test_degenerate_input_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            procrustes_residual(np.ones(5), np.arange(5.0))

    def test_shape_mismatch(self, rng):
        with pytest.raises(ValueError):
            procrustes_residual(rng.normal(size=(10, 2)), rng.normal(size=(10, 3)))

    def test_three_dimensional_inputs_are_refused(self, rng):
        with pytest.raises(ValueError, match="shape"):
            procrustes_residual(rng.normal(size=(20, 2, 1)), rng.normal(size=(20, 2, 1)))


class TestMonotonicity:
    def test_identical_order(self):
        z = np.linspace(0.0, 1.0, 16)
        assert monotonicity_1d(z, z) == 1.0

    def test_reversed_order(self):
        z = np.linspace(0.0, 1.0, 16)
        assert monotonicity_1d(-z, z) == -1.0

    def test_shuffled_order_is_weak(self):
        rng = np.random.default_rng(1)
        z = np.arange(16.0)
        values = [abs(monotonicity_1d(rng.permutation(z), z)) for _ in range(100)]
        assert np.mean(values) < 0.35

    def test_constant_input_rejected(self):
        with pytest.raises(UndefinedCorrelationError):
            monotonicity_1d(np.ones(8), np.arange(8.0))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            monotonicity_1d(np.arange(8.0), np.arange(9.0))

    def test_matches_scipy_spearman_bit_for_bit(self):
        from scipy.stats import spearmanr

        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(2, 40))
            # Few distinct values, so ties (and -0.0 against 0.0) are common.
            y = rng.integers(-3, 4, size=n) * rng.choice([1.0, -0.0, 0.5], size=n)
            z = rng.normal(size=n) if rng.random() < 0.5 else rng.integers(0, 5, size=n) * 1.0
            if np.ptp(y) == 0.0 or np.ptp(z) == 0.0:
                continue
            assert monotonicity_1d(y, z) == spearmanr(y, z).statistic

    def test_nan_input_gives_nan(self):
        assert np.isnan(monotonicity_1d(np.array([0.0, np.nan, 2.0]), np.arange(3.0)))

    def test_one_column_inputs(self):
        z = np.linspace(0.0, 1.0, 16)
        assert monotonicity_1d(-z[:, None], z[:, None]) == -1.0

    @pytest.mark.parametrize("shape", [(20, 2), (1, 20)], ids=["two-columns", "one-row"])
    def test_inputs_of_more_than_one_column_are_refused(self, shape):
        # Raveling them would rank unrelated coordinates against each other.
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="one column"):
            monotonicity_1d(rng.random(shape), rng.random(shape))


class TestDiagnosticBundle:
    def test_all_fields_populated(self, ring16, ring16_graph):
        from ldrlle import embed

        W, _ = assemble_weight_matrix(ring16.points, ring16_graph, "ldr", d=1)
        emb = embed(W, 1)
        diag = linear_projection_diagnostic(
            ring16.points,
            emb.Y,
            reference=ring16.preimage,
            weights=W,
            preimage=ring16.preimage,
        )
        assert diag.phi_value == pytest.approx(float(emb.eigenvalues.sum()), rel=1e-8)
        assert 0.0 <= diag.linear_r2 <= 1.0
        assert diag.procrustes_residual is not None
        assert abs(diag.rank_correlation) > 0.95

    def test_optional_fields_default_to_none(self, rng):
        X = rng.normal(size=(30, 3))
        Y = random_centered_orthonormal(30, 2, rng)
        diag = linear_projection_diagnostic(X, Y)
        assert diag.phi_value is None
        assert diag.procrustes_residual is None
        assert diag.rank_correlation is None

    def test_rank_correlation_only_for_single_columns(self, rng):
        X = rng.normal(size=(30, 3))
        Y = random_centered_orthonormal(30, 2, rng)
        diag = linear_projection_diagnostic(X, Y, preimage=rng.normal(size=(30, 2)))
        assert diag.rank_correlation is None
