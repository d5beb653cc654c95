"""Spectral embedding: the quadratic form, the eigensolve, and its contracts."""

import inspect
import json
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sparse
import scipy.sparse.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import subspace_angles

from ldrlle import (
    DisconnectedGraphError,
    EigenSolverError,
    LdrLleError,
    assemble_weight_matrix,
    embed,
    gen_scurve,
    gen_swissroll,
    knn,
    ldr_weights,
    perturbation_experiment,
    permuted_preimage_null,
    phi,
    save_embedding,
)
from oracles import (
    dense_bottom_eigenpairs,
    phi_row_by_row,
    random_centered_orthonormal,
    random_orthogonal,
)


def cycle_weights(n):
    """Uniform half-half weights on the two cycle neighbors."""
    W = np.zeros((n, n))
    for i in range(n):
        W[i, (i - 1) % n] = 0.5
        W[i, (i + 1) % n] = 0.5
    return sparse.csr_matrix(W)


def chain3_weights():
    return sparse.csr_matrix(
        np.array([[0.0, 0.5, 0.5], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0]])
    )


def two_closed_classes_weights():
    """Two 2-cycles that no weight leaves, joined only by points that put
    weight into both: weakly connected, yet I - W has two null vectors."""
    W = np.zeros((7, 7))
    W[0, 1] = W[1, 0] = W[2, 3] = W[3, 2] = 1.0
    W[4, [0, 2]] = 0.5
    W[5, [1, 3]] = [0.3, 0.7]
    W[6, [4, 5]] = 0.5
    return W


def random_row_stochastic(n, k, rng):
    W = np.zeros((n, n))
    for i in range(n):
        others = np.delete(np.arange(n), i)
        cols = rng.choice(others, size=k, replace=False)
        vals = rng.random(k) + 0.1
        W[i, cols] = vals / vals.sum()
    return sparse.csr_matrix(W)


def strongly_connected_row_stochastic(n, k, rng):
    """Random positive weights on the edge i -> i + 1 plus k - 1 other columns.

    The cycle edge makes the weight graph strongly connected, so the zero
    eigenvalue of M is simple.
    """
    W = np.zeros((n, n))
    for i in range(n):
        others = np.setdiff1d(np.arange(n), [i, (i + 1) % n])
        cols = np.append(rng.choice(others, size=k - 1, replace=False), (i + 1) % n)
        vals = rng.random(k) + 0.1
        W[i, cols] = vals / vals.sum()
    return sparse.csr_matrix(W)


def fuzz_cloud(family, n, D, rng):
    """An (n, D) cloud of one of the families that strain the embedding: Gaussian,
    rounded to one decimal, drawn from at most three distinct points, or scaled
    by 10^+-200."""
    if family == "duplicates":
        pool = rng.normal(size=(int(rng.integers(1, 4)), D))
        return pool[rng.integers(0, len(pool), size=n)]
    X = rng.normal(size=(n, D))
    if family == "rounded":
        return np.round(X, 1)
    if family == "scaled":
        return X * 10.0 ** rng.choice([-200, 200])
    return X


def assert_embedding_contract(emb, W):
    Y = emb.Y
    d = Y.shape[1]
    assert np.max(np.abs(Y.T @ np.ones(Y.shape[0]))) < 1e-8
    assert np.max(np.abs(Y.T @ Y - np.eye(d))) < 1e-8
    assert np.all(emb.eigenvalues >= 0.0)
    assert np.all(np.diff(emb.eigenvalues) >= -1e-15)
    total = float(emb.eigenvalues.sum())
    value = phi(Y, W)
    assert abs(value - total) <= 1e-8 * max(value, total, 1e-300)


class TestPhi:
    def test_three_point_chain_by_hand(self):
        # Residuals: 0 - 1.5, 1 - 1, 2 - 0.5 -> 2.25 + 0 + 2.25.
        assert phi(np.array([0.0, 1.0, 2.0]), chain3_weights()) == pytest.approx(4.5)

    def test_fixed_point_is_zero(self):
        W = cycle_weights(6)
        assert phi(np.ones(6), W) == 0.0

    def test_matches_row_by_row_oracle_on_ring(self, ring16, ring16_graph):
        W, _ = assemble_weight_matrix(ring16.points, ring16_graph, "ldr", d=1)
        Z = ring16.preimage - ring16.preimage.mean(axis=0)
        direct = phi_row_by_row(Z, W.toarray())
        assert phi(Z, W) == pytest.approx(direct, rel=1e-12)

    def test_rotation_invariance(self, rng):
        W = random_row_stochastic(30, 4, rng)
        Y = rng.normal(size=(30, 3))
        R = random_orthogonal(3, rng)
        base = phi(Y, W)
        assert abs(phi(Y @ R, W) - base) < 1e-10 * max(base, 1.0)

    def test_accepts_single_column_vector(self):
        W = chain3_weights()
        assert phi(np.array([[0.0], [1.0], [2.0]]), W) == pytest.approx(4.5)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            phi(np.zeros(4), chain3_weights())

    def test_three_dimensional_input_is_refused(self):
        with pytest.raises(ValueError, match="shape"):
            phi(np.zeros((3, 2, 1)), chain3_weights())


class TestEmbed:
    def test_cycle_recovers_sine_cosine_plane(self):
        n = 8
        W = cycle_weights(n)
        emb = embed(W, 2)
        assert_embedding_contract(emb, W)
        t = 2.0 * np.pi * np.arange(n) / n
        reference = np.column_stack([np.cos(t), np.sin(t)])
        angles = subspace_angles(emb.Y, reference)
        assert np.max(angles) < 1e-6
        lam = (1.0 - np.cos(2.0 * np.pi / n)) ** 2
        np.testing.assert_allclose(emb.eigenvalues, [lam, lam], atol=1e-12)
        assert emb.dropped_eigenvalue < 1e-12

    def test_contract_on_ring_weights(self, ring16, ring16_graph):
        W, _ = assemble_weight_matrix(ring16.points, ring16_graph, "ldr", d=1)
        for d in (1, 2, 3):
            assert_embedding_contract(embed(W, d), W)

    def test_minimizes_among_constrained_competitors(self, ring16, ring16_graph, rng):
        W, _ = assemble_weight_matrix(ring16.points, ring16_graph, "ldr", d=1)
        emb = embed(W, 2)
        best = phi(emb.Y, W)
        for _ in range(100):
            Y = random_centered_orthonormal(16, 2, rng)
            assert best <= phi(Y, W) + 1e-8

    def test_deterministic_across_calls(self, ring16, ring16_graph):
        W, _ = assemble_weight_matrix(ring16.points, ring16_graph, "ldr", d=1)
        a = embed(W, 2)
        b = embed(W, 2)
        np.testing.assert_array_equal(a.Y, b.Y)
        np.testing.assert_array_equal(a.eigenvalues, b.eigenvalues)

    def test_column_sign_convention(self, ring16, ring16_graph):
        W, _ = assemble_weight_matrix(ring16.points, ring16_graph, "ldr", d=1)
        Y = embed(W, 2).Y
        lead = np.argmax(np.abs(Y), axis=0)
        assert np.all(Y[lead, np.arange(2)] >= 0.0)

    def test_smaller_output_is_prefix_of_larger_same_weights(self):
        sample = gen_swissroll(300, seed=1)
        graph = knn(sample.points, 12)
        W, _ = assemble_weight_matrix(sample.points, graph, "classical", d=2)
        e1 = embed(W, 1)
        e3 = embed(W, 3)
        np.testing.assert_array_equal(e1.Y[:, 0], e3.Y[:, 0])
        np.testing.assert_array_equal(e1.eigenvalues, e3.eigenvalues[:1])

    def test_rank_d_weight_matrices_differ_across_d(self):
        # The rank-d method rebuilds W per d, so its embeddings need not nest.
        sample = gen_swissroll(300, seed=1)
        graph = knn(sample.points, 12)
        W1, _ = assemble_weight_matrix(sample.points, graph, "ldr", d=1)
        W2, _ = assemble_weight_matrix(sample.points, graph, "ldr", d=2)
        assert np.max(np.abs((W1 - W2).toarray())) > 1e-6

    def test_solver_paths_agree(self):
        sample = gen_swissroll(600, seed=2)
        graph = knn(sample.points, 12)
        W, _ = assemble_weight_matrix(sample.points, graph, "ldr", d=2)
        emb = embed(W, 2)
        evals, evecs = dense_bottom_eigenpairs(W.toarray(), 3)
        assert np.max(np.abs(emb.eigenvalues - evals[1:])) < 1e-6
        assert np.max(subspace_angles(emb.Y, evecs[:, 1:])) < 1e-6

    @pytest.mark.parametrize(
        "W, d, want",
        [(chain3_weights(), 1, [2.25]), (cycle_weights(6), 2, [0.25, 0.25])],
        ids=["chain3", "cycle6"],
    )
    def test_singular_weights_take_no_shifted_retry(self, W, d, want, monkeypatch):
        # On these small W with exactly representable weights M and I - W are
        # exactly singular; the pinned factorization of I - W is not, so every
        # eigensolve runs about zero or without a shift.
        sigmas = []
        eigsh = scipy.sparse.linalg.eigsh

        def recording_eigsh(*args, **kwargs):
            sigmas.append(kwargs.get("sigma"))
            return eigsh(*args, **kwargs)

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", recording_eigsh)
        emb = embed(W, d)
        assert sigmas
        assert all(s is None or s == 0.0 for s in sigmas)
        np.testing.assert_allclose(emb.eigenvalues, want, atol=1e-12)
        assert_embedding_contract(emb, W)

    def test_only_i_minus_w_is_factored(self, ring16, ring16_graph, monkeypatch):
        # The one sparse LU is of I - W with a pinned diagonal entry: W's
        # pattern plus the diagonal, far sparser than M = (I - W)'(I - W).
        factored = []
        splu = scipy.sparse.linalg.splu

        def recording_splu(A, *args, **kwargs):
            factored.append(A)
            return splu(A, *args, **kwargs)

        W, _ = assemble_weight_matrix(ring16.points, ring16_graph, "ldr", d=1)
        monkeypatch.setattr(scipy.sparse.linalg, "splu", recording_splu)
        assert_embedding_contract(embed(W, 2), W)
        assert len(factored) == 1
        A = sparse.eye(16) - W
        assert factored[0].nnz == W.nnz + 16
        assert factored[0].nnz < (A.T @ A).nnz

    def test_the_factor_is_formed_with_nothing_else_of_embed_alive(self, monkeypatch):
        # I - W is converted to CSC once and pinned in that CSC, so nothing of
        # embed's own sets the traced peak: ARPACK's Lanczos block and
        # workspace inside eigsh do, 0.82 MiB here (the bound below is 5 MiB
        # at n = 8000 scaled by n).  Before eigsh runs the peak is 0.78 MiB;
        # a pinned CSR alive beside A and its CSC took it to 0.94 MiB.
        peaks = []
        eigsh = scipy.sparse.linalg.eigsh

        def peak_splitting_eigsh(*args, **kwargs):
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            result = eigsh(*args, **kwargs)
            peaks.append(tracemalloc.get_traced_memory()[1])
            return result

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", peak_splitting_eigsh)
        X = gen_swissroll(2000, seed=11).points
        graph = knn(X, 12)
        for method in ["ldr", "classical"]:
            W, _ = assemble_weight_matrix(X, graph, method, d=2)
            want = embed(W, 2)
            peaks.clear()
            tracemalloc.start()
            try:
                emb = embed(W, 2)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            at_entry, inside = peaks
            assert at_entry < inside, method
            assert max(at_entry, peak) < 1.25 * 2**20, method
            np.testing.assert_array_equal(emb.Y, want.Y)

    def test_caller_weights_with_unsorted_indices_are_untouched(self, ring16, ring16_graph):
        # embed must not sort a caller's column indices in place.
        W, _ = assemble_weight_matrix(ring16.points, ring16_graph, "ldr", d=1)
        order = np.lexsort((-W.indices, np.repeat(np.arange(16), np.diff(W.indptr))))
        W = sparse.csr_matrix((W.data[order], W.indices[order], W.indptr), shape=W.shape)
        assert not W.has_sorted_indices
        before = W.data.copy(), W.indices.copy(), W.indptr.copy()
        assert_embedding_contract(embed(W, 2), W)
        for got, want in zip((W.data, W.indices, W.indptr), before):
            np.testing.assert_array_equal(got, want)
        assert not W.has_sorted_indices

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_weight_is_refused(self, value, ring16, ring16_graph):
        W, _ = assemble_weight_matrix(ring16.points, ring16_graph, "ldr", d=1)
        W.data[5] = value
        with pytest.raises(EigenSolverError, match="constant-mode eigenvalue"):
            embed(W, 1)

    @pytest.mark.parametrize("method", ["ldr", "classical"])
    def test_one_eigensolve_per_embed(self, method, ring16, ring16_graph, monkeypatch):
        # ARPACK runs once, in standard mode on M's pseudo-inverse: no solve
        # for lambda_max and no shift-invert wrapper around an operator for M.
        if method == "ldr":
            W, _ = assemble_weight_matrix(ring16.points, ring16_graph, "ldr", d=1)
        else:
            X = gen_swissroll(600, seed=1).points
            W, _ = assemble_weight_matrix(X, knn(X, 12), "classical", d=2)
        calls = []
        eigsh = scipy.sparse.linalg.eigsh

        def recording_eigsh(*args, **kwargs):
            calls.append(inspect.signature(eigsh).bind(*args, **kwargs).arguments)
            return eigsh(*args, **kwargs)

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", recording_eigsh)
        assert_embedding_contract(embed(W, 2), W)
        assert len(calls) == 1
        assert "sigma" not in calls[0] and "OPinv" not in calls[0]

    @given(
        n=st.integers(3, 40),
        k=st.integers(1, 4),
        full=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_dense_oracle_on_random_weights(self, n, k, full, seed):
        W = strongly_connected_row_stochastic(n, min(k, n - 1), np.random.default_rng(seed))
        d = n - 2 if full else 1
        emb = embed(W, d)
        assert_embedding_contract(emb, W)
        evals, _ = dense_bottom_eigenpairs(W.toarray(), d + 1)
        assert np.max(np.abs(emb.eigenvalues - evals[1:])) < 1e-10

    @pytest.mark.parametrize(
        "generator, seed", [(gen_scurve, 0), (gen_swissroll, 8)], ids=["scurve", "swissroll"]
    )
    def test_classical_output_does_not_depend_on_the_start_vector(
        self, generator, seed, monkeypatch
    ):
        # Classical weights reconstruct these sheets exactly, so the bottom of
        # M is a cluster of eigenvalues at rounding level.  The output must be
        # fixed by W, not by where ARPACK starts its iteration.
        X = generator(600, seed=seed).points
        W, _ = assemble_weight_matrix(X, knn(X, 12), "classical", d=2)
        first = embed(W, 2)
        starts = []
        eigsh = scipy.sparse.linalg.eigsh

        def restarted_eigsh(A, *args, **kwargs):
            kwargs["v0"] = np.sin(1.7 * np.arange(A.shape[0])) + 0.3
            starts.append(kwargs["v0"])
            return eigsh(A, *args, **kwargs)

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", restarted_eigsh)
        second = embed(W, 2)
        assert starts
        assert np.min(np.cos(subspace_angles(first.Y, second.Y))) >= 0.999

    def test_classical_eigenvalues_reach_the_bottom_singular_values(self):
        # Classical weights reconstruct the swiss roll exactly, so the bottom
        # of M is a cluster near 1e-21.  Its smallest non-zero eigenvalues are
        # the squared singular values of I - W, which a dense SVD gets to an
        # absolute error of about eps * ||I - W||.  Ritz vectors that keep
        # components of higher modes overshoot them (by 25% on this cloud).
        X = gen_swissroll(1000, seed=12).points
        W, _ = assemble_weight_matrix(X, knn(X, 12), "classical", d=2)
        sv = np.linalg.svd((sparse.eye(1000) - W).toarray(), compute_uv=False)
        assert embed(W, 2).eigenvalues.sum() <= 1.01 * (sv[-3:-1] ** 2).sum()

    def test_factorization_failure_is_typed(self, ring16, ring16_graph, monkeypatch):
        def failing_splu(*args, **kwargs):
            raise RuntimeError("Factor is exactly singular")

        W, _ = assemble_weight_matrix(ring16.points, ring16_graph, "ldr", d=1)
        monkeypatch.setattr(scipy.sparse.linalg, "splu", failing_splu)
        with pytest.raises(EigenSolverError, match="eigensolver failed: Factor is exactly singular"):
            embed(W, 2)

    def test_eigensolver_failure_is_typed(self, ring16, ring16_graph, monkeypatch):
        def failing_eigsh(*args, **kwargs):
            raise scipy.sparse.linalg.ArpackNoConvergence("no convergence", [], [])

        W, _ = assemble_weight_matrix(ring16.points, ring16_graph, "ldr", d=1)
        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", failing_eigsh)
        with pytest.raises(EigenSolverError, match="eigensolver failed"):
            embed(W, 1)

    @given(
        family=st.sampled_from(["gaussian", "rounded", "duplicates", "scaled"]),
        n=st.integers(3, 39),
        D=st.integers(1, 5),
        K=st.integers(1, 12),
        d=st.integers(1, 5),
        method=st.sampled_from(["classical", "ldr"]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(family="gaussian", n=4, D=1, K=3, d=2, method="ldr", seed=0)
    @settings(max_examples=150, deadline=None)
    def test_small_clouds_keep_the_contract_or_raise_a_typed_error(
        self, family, n, D, K, d, method, seed
    ):
        # ldr weights with d >= D, and classical weights on a flat cloud,
        # reconstruct every neighbourhood exactly, so M has a null space of
        # several dimensions and the constant mode must still be kept out of Y.
        X = fuzz_cloud(family, n, D, np.random.default_rng(seed))
        try:
            W, _ = assemble_weight_matrix(X, knn(X, min(K, n - 1)), method, d=d)
            emb = embed(W, d)
        except (LdrLleError, ValueError):
            return
        assert_embedding_contract(emb, W)

    def test_exact_reconstruction_on_the_roll_keeps_the_constant_mode_out(self):
        # ldr weights with d = 4 > D = 3 reconstruct the roll exactly, so M's
        # null space holds the coordinates too and the QR block is badly
        # conditioned; the constant mode must still stay out of all four columns.
        X = gen_swissroll(2000, seed=11).points
        W, _ = assemble_weight_matrix(X, knn(X, 12), "ldr", d=4)
        assert_embedding_contract(embed(W, 4), W)

    def test_duplicate_heavy_reruns_are_identical(self):
        # ARPACK exhausts its Krylov space on this cloud and draws a restart
        # vector, which must come from a fixed seed, not from OS entropy.
        X = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 3.0, 3.0, 3.0])[:, None]
        W, _ = assemble_weight_matrix(X, knn(X, 4), "classical", d=2)
        runs = [embed(W, 2) for _ in range(5)]
        assert len({(r.Y.tobytes(), r.eigenvalues.tobytes()) for r in runs}) == 1

    def test_exact_reconstruction_regime_is_handled(self, rng):
        # Points lying in a plane are reconstructed exactly by ambient-space
        # weights, which collapses several eigenvalues to numerical zero; the
        # embedding must still come out centered and orthonormal.
        coords = rng.normal(size=(60, 2))
        basis = np.linalg.qr(rng.normal(size=(3, 2)))[0]
        X = coords @ basis.T
        graph = knn(X, 12)
        W, _ = assemble_weight_matrix(X, graph, "classical", d=2, delta=1e-9)
        emb = embed(W, 2)
        assert_embedding_contract(emb, W)

    def test_disconnected_graph_reported(self):
        X = np.array([[0.0, 0.0], [0.1, 0.0], [10.0, 0.0], [10.1, 0.0]])
        graph = knn(X, 1)
        W, _ = assemble_weight_matrix(X, graph, "classical", d=1, delta=1e-9)
        with pytest.raises(DisconnectedGraphError) as excinfo:
            embed(W, 1)
        assert excinfo.value.n_components == 2

    def test_two_closed_classes_reported(self):
        with pytest.raises(DisconnectedGraphError) as excinfo:
            embed(sparse.csr_matrix(two_closed_classes_weights()), 2)
        assert excinfo.value.n_components == 2

    def test_stored_zero_weight_is_not_an_edge(self):
        # An explicit 0.0 from class {0, 1} into class {2, 3} puts no weight
        # there, so both classes stay closed.
        W = two_closed_classes_weights()
        W[0, 2] = -1.0
        W = sparse.csr_matrix(W)
        W.data[W.data == -1.0] = 0.0
        assert W.nnz == 11
        with pytest.raises(DisconnectedGraphError) as excinfo:
            embed(W, 2)
        assert excinfo.value.n_components == 2

    def test_dimension_validation(self, ring16, ring16_graph):
        W, _ = assemble_weight_matrix(ring16.points, ring16_graph, "ldr", d=1)
        with pytest.raises(ValueError, match=">= 1"):
            embed(W, 0)
        with pytest.raises(ValueError, match="N - 1"):
            embed(W, 15)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            embed(sparse.csr_matrix(np.ones((3, 4))), 1)

    @pytest.mark.parametrize("factor", [0.5, 1 + 1e-3])
    def test_rows_not_summing_to_one_have_no_zero_mode(self, factor, ring16, ring16_graph):
        # Scaling W leaves rows summing to the factor: the ones vector is no
        # longer reconstructed, so the constant mode's eigenvalue is far from zero.
        W, _ = assemble_weight_matrix(ring16.points, ring16_graph, "ldr", d=1)
        with pytest.raises(EigenSolverError, match="constant-mode eigenvalue .* not near zero"):
            embed(factor * W, 1)

    def test_rows_summing_to_one_within_the_cutoff_are_embedded(self, ring16, ring16_graph):
        # The constant mode's eigenvalue is 1e-10 here, below 1e-9 times
        # ||I - W||_F^2 / N = 1.44 (the cutoff factor is 1 + 3.8e-5).
        W, _ = assemble_weight_matrix(ring16.points, ring16_graph, "ldr", d=1)
        W = W * (1 + 1e-5)
        assert_embedding_contract(embed(W, 1), W)


class TestSaveEmbedding:
    def test_csv_round_trip_and_sidecar(self, tmp_path, ring16, ring16_graph):
        from ldrlle import load_csv

        W, _ = assemble_weight_matrix(ring16.points, ring16_graph, "ldr", d=1)
        emb = embed(W, 2)
        path = tmp_path / "emb.csv"
        save_embedding(emb, path, metadata={"note": "test"})
        np.testing.assert_array_equal(load_csv(path), emb.Y)
        sidecar = json.loads((tmp_path / "emb.json").read_text())
        np.testing.assert_allclose(sidecar["eigenvalues"], emb.eigenvalues)
        assert sidecar["dropped_eigenvalue"] == emb.dropped_eigenvalue
        assert sidecar["note"] == "test"

    def test_json_path_is_refused_as_its_own_sidecar(self, tmp_path, ring16, ring16_graph):
        W, _ = assemble_weight_matrix(ring16.points, ring16_graph, "ldr", d=1)
        with pytest.raises(ValueError, match="its own sidecar path"):
            save_embedding(embed(W, 1), tmp_path / "y.json")
        assert list(tmp_path.iterdir()) == []

    def test_sidecar_bytes_are_canonical(self, tmp_path, ring16, ring16_graph):
        W, _ = assemble_weight_matrix(ring16.points, ring16_graph, "ldr", d=1)
        emb = embed(W, 1)
        path = tmp_path / "emb.csv"
        save_embedding(emb, path)
        text = (tmp_path / "emb.json").read_text()
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


SIZE_ARGUMENTS = [
    pytest.param(lambda X, W, graph, size: knn(X, size), "K", id="knn-K"),
    pytest.param(lambda X, W, graph, size: assemble_weight_matrix(X, graph, "ldr", d=size),
                 "d", id="assemble-d"),
    pytest.param(lambda X, W, graph, size: embed(W, size), "d", id="embed-d"),
    pytest.param(lambda X, W, graph, size: ldr_weights(X[graph] - X[:, None], size), "d",
                 id="ldr-weights-d"),
    pytest.param(lambda X, W, graph, size: gen_swissroll(size), "n", id="swissroll-n"),
    pytest.param(lambda X, W, graph, size: perturbation_experiment(trials=size), "trials",
                 id="perturbation-trials"),
    pytest.param(lambda X, W, graph, size: permuted_preimage_null(W, X[:, :2], permutations=size),
                 "permutations", id="null-permutations"),
]


@pytest.mark.parametrize("call, name", SIZE_ARGUMENTS)
def test_a_size_that_is_not_an_integer_is_refused_at_entry(call, name, monkeypatch):
    X = gen_swissroll(60, seed=1).points
    graph = knn(X, 8)
    W, _ = assemble_weight_matrix(X, graph, "ldr", d=2)
    assert call(X, W, graph, np.int64(2)) is not None

    def refusing_eigsh(*args, **kwargs):
        raise AssertionError("eigensolver ran")

    # embed refuses before its eigensolver runs.
    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", refusing_eigsh)
    with pytest.raises(TypeError, match=f"{name} must be an integer"):
        call(X, W, graph, 2.0)


@pytest.mark.parametrize("d", [0, -1])
@pytest.mark.parametrize("method", ["classical", "ldr"])
def test_a_rank_below_one_is_refused_before_any_neighborhood_is_solved(method, d, monkeypatch):
    X = gen_swissroll(60, seed=1).points
    graph = knn(X, 8)

    def refusing_svd(*args, **kwargs):
        raise AssertionError("a neighborhood was solved")

    monkeypatch.setattr("ldrlle.weights._svd", refusing_svd)
    with pytest.raises(ValueError, match=f"^d must be >= 1, got {d}$"):
        assemble_weight_matrix(X, graph, method, d=d)
