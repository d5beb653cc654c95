"""Whole-pipeline invariance: knn, assembly and embed under exact translations,
power-of-two scalings, relabellings and rotations of the cloud.

Translations that round-trip exactly and 2^k scalings leave every centered
neighborhood the same bits up to an exact power of two, so graph, W and Y
must be bit-identical.  A relabelling permutes W exactly on a tie-free cloud,
but not Y: the eigensolver's start vector and its LU ordering follow the
labels.  A rotation moves W by rounding.  So those two hold Y and the
eigenvalues to tolerances measured on swiss rolls and S-curves with n = 1000,
seeds 0-11 (the suite runs 0-5), K = 12 and d = 2.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ldrlle import assemble_weight_matrix, embed, gen_scurve, gen_swissroll, knn
from oracles import random_orthogonal

METHODS = ("ldr", "classical")


def pipeline(X, method, K):
    graph = knn(X, K)
    W, _ = assemble_weight_matrix(X, graph, method, d=2)
    return graph, W, embed(W, 2)


def assert_bit_identical(got, expected):
    (g1, W1, e1), (g0, W0, e0) = got, expected
    np.testing.assert_array_equal(g1, g0)
    for attr in ("indptr", "indices", "data"):
        np.testing.assert_array_equal(getattr(W1, attr), getattr(W0, attr))
    np.testing.assert_array_equal(e1.Y, e0.Y)
    np.testing.assert_array_equal(e1.eigenvalues, e0.eigenvalues)
    assert e1.dropped_eigenvalue == e0.dropped_eigenvalue


@pytest.fixture(scope="module")
def dyadic_roll():
    """Swiss roll n = 400 on the 2^-30 grid, and its pipeline outputs.

    Its coordinates are below 2^4, so each has at most 34 significant bits,
    and X + t is exact for any t on the same grid below 2^22."""
    X = np.ldexp(np.round(np.ldexp(gen_swissroll(400, seed=3).points, 30)), -30)
    return X, {m: pipeline(X, m, 10) for m in METHODS}


@pytest.mark.parametrize("method", METHODS)
@given(st.lists(st.integers(-2**52, 2**52), min_size=3, max_size=3))
@example([2**52, -2**52, 1])
@settings(max_examples=10, deadline=None)
def test_exact_translation_changes_nothing(dyadic_roll, method, mantissas):
    X, outputs = dyadic_roll
    t = np.ldexp(np.array(mantissas, dtype=float), -30)
    moved = X + t
    np.testing.assert_array_equal(moved - t, X)
    assert_bit_identical(pipeline(moved, method, 10), outputs[method])


@pytest.mark.parametrize("method", METHODS)
@given(st.integers(-500, 500))
@example(-500)
@example(500)
@settings(max_examples=10, deadline=None)
def test_power_of_two_scaling_changes_nothing(dyadic_roll, method, k):
    X, outputs = dyadic_roll
    assert_bit_identical(pipeline(np.ldexp(X, k), method, 10), outputs[method])


GENERATORS = {"swissroll": gen_swissroll, "scurve": gen_scurve}


@pytest.fixture(scope="module")
def base_run():
    """(gen, seed) -> the n = 1000 cloud and both methods' pipeline outputs,
    each computed once, for the relabelling and the rotation test to share."""
    runs = {}

    def run(gen, seed):
        if (gen, seed) not in runs:
            X = GENERATORS[gen](1000, seed=seed).points
            runs[gen, seed] = X, {m: pipeline(X, m, 12) for m in METHODS}
        return runs[gen, seed]
    return run


def relative(a, b):
    return float(np.max(np.abs(a / b - 1.0)))


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("gen", sorted(GENERATORS))
def test_relabelling_permutes_the_pipeline(base_run, gen, seed):
    X, outputs = base_run(gen, seed)
    perm = np.random.default_rng(seed).permutation(len(X))
    inverse = np.argsort(perm)
    for method in METHODS:
        g0, W0, e0 = outputs[method]
        g1, W1, e1 = pipeline(X[perm], method, 12)
        np.testing.assert_array_equal(g1, inverse[g0[perm]])
        assert (W1 != W0[perm][:, perm]).nnz == 0
        if method == "ldr":
            # Worst measured: Y 8.3e-8 and eigenvalues 2.9e-8 relative (swiss
            # roll seed 4, whose two bottom eigenvalues are 8e-10 and 6.6e-8).
            assert np.max(np.abs(e1.Y - e0.Y[perm])) < 1e-6
            assert relative(e1.eigenvalues, e0.eigenvalues) < 1e-6
        else:
            # The classical bottom cluster sits at rounding level (about 1e-22
            # on the S-curve); worst measured eigenvalue-sum change 5.5e-5.
            assert relative(e1.eigenvalues.sum(), e0.eigenvalues.sum()) < 1e-3


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("gen", sorted(GENERATORS))
def test_rotation_moves_the_pipeline_by_rounding(base_run, gen, seed):
    X, outputs = base_run(gen, seed)
    Q = random_orthogonal(3, np.random.default_rng(seed))
    for method in METHODS:
        g0, W0, e0 = outputs[method]
        g1, W1, e1 = pipeline(X @ Q.T, method, 12)
        np.testing.assert_array_equal(g1, g0)
        # Worst measured W change: 1.6e-14 (ldr) and 6.7e-14 (classical).
        assert abs(W1 - W0).max() < 1e-12
        if method == "ldr":
            # Worst measured: Y 2.4e-11 and eigenvalues 3.7e-12 relative.
            assert np.max(np.abs(e1.Y - e0.Y)) < 1e-9
            assert relative(e1.eigenvalues, e0.eigenvalues) < 1e-10
        else:
            # Worst measured eigenvalue-sum change: 1.8e-5.
            assert relative(e1.eigenvalues.sum(), e0.eigenvalues.sum()) < 1e-3
