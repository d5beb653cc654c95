"""Exact nearest-neighbor graphs and centered neighborhood matrices."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ldrlle import assemble_weight_matrix, gen_swissroll, knn, save_neighbor_graph
from oracles import brute_force_knn, random_orthogonal


class TestKnn:
    def test_three_points_on_a_line_single_neighbor(self):
        X = np.array([[0.0], [1.0], [3.0]])
        graph = knn(X, 1)
        np.testing.assert_array_equal(graph, [[1], [0], [1]])

    def test_three_points_on_a_line_two_neighbors(self):
        X = np.array([[0.0], [1.0], [3.0]])
        graph = knn(X, 2)
        np.testing.assert_array_equal(graph, [[1, 2], [0, 2], [1, 0]])

    def test_ties_break_toward_smaller_index(self):
        square = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        graph = knn(square, 2)
        np.testing.assert_array_equal(graph, [[1, 2], [0, 3], [0, 3], [1, 2]])

    def test_matches_brute_force_on_ring(self, ring16):
        # Mirror-image pairs on the uniform ring are equidistant in exact
        # arithmetic; which one sorts first depends on rounding, so only the
        # neighbor sets are comparable here.  Order is pinned on tie-free
        # data below.
        graph = knn(ring16.points, 4)
        expected = brute_force_knn(ring16.points, 4)
        np.testing.assert_array_equal(
            np.sort(graph, axis=1), np.sort(expected, axis=1)
        )

    def test_matches_brute_force_on_random_cloud(self, rng):
        X = rng.normal(size=(120, 3))
        graph = knn(X, 7)
        np.testing.assert_array_equal(graph, brute_force_knn(X, 7))

    def test_ring_neighborhoods_stay_on_the_arc(self, ring16, ring16_graph):
        # No neighbor list may jump the opening: indices stay within 4 arc steps.
        offsets = np.abs(ring16_graph - np.arange(16)[:, None])
        assert offsets.max() == 4

    def test_self_never_included(self, rng):
        X = rng.normal(size=(40, 2))
        graph = knn(X, 5)
        assert not np.any(graph == np.arange(40)[:, None])

    def test_rotation_translation_invariance(self, rng):
        X = rng.normal(size=(80, 3))
        R = random_orthogonal(3, rng)
        shift = rng.normal(size=3)
        moved = X @ R + shift
        np.testing.assert_array_equal(knn(X, 6), knn(moved, 6))

    def test_relabeling_equivariance(self, rng):
        X = rng.normal(size=(50, 2))
        perm = rng.permutation(50)
        inv = np.empty(50, dtype=np.intp)
        inv[perm] = np.arange(50)
        base = knn(X, 3)
        shuffled = knn(X[perm], 3)
        np.testing.assert_array_equal(perm[shuffled[inv]], base)

    def test_shape_properties(self, rng):
        X = rng.normal(size=(30, 4))
        graph = knn(X, 9)
        assert graph.shape == (30, 9)

    def test_k_bounds(self):
        X = np.eye(3)
        with pytest.raises(ValueError, match=">= 1"):
            knn(X, 0)
        with pytest.raises(ValueError, match="< N"):
            knn(X, 3)

    def test_overflowing_squared_distances_rejected(self, rng):
        # Finite coordinates whose squared distances are all inf would leave
        # every row with the lowest indices, in index order.
        X = 1e160 * rng.normal(size=(20, 3))
        with pytest.raises(ValueError, match="overflow"):
            knn(X, 4)

    def test_tiny_spread_beside_a_large_offset(self, rng):
        # Scaled by the largest coordinate, the varying column's squared
        # differences would underflow; the spread sets the scale instead.
        v = 1e-150 * rng.normal(size=50)
        X = np.column_stack([np.full(50, 1e150), v])
        np.testing.assert_array_equal(knn(X, 4), knn(v[:, None], 4))

    def test_chunked_path_matches_oracle(self, rng):
        # Named for the block sweep knn once used; still a larger cloud than above.
        X = rng.normal(size=(530, 2))
        graph = knn(X, 3)
        np.testing.assert_array_equal(graph, brute_force_knn(X, 3))


@pytest.fixture(scope="module")
def roll600():
    """Swiss roll n = 600, seed 3, and its K = 10 graph."""
    X = gen_swissroll(600, seed=3).points
    return X, knn(X, 10)


@given(st.integers(-1000, 500))
@example(-1000)
@example(500)
@settings(max_examples=20, deadline=None)
def test_graph_is_invariant_under_power_of_two_scaling(roll600, k):
    # Below about 2^-565 the squared distances underflow unless knn rescales.
    X, graph = roll600
    np.testing.assert_array_equal(knn(np.ldexp(X, k), 10), graph)


class TestNeighborhoodMatrix:
    def test_rows_are_centered_differences(self):
        X = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]])
        graph = knn(X, 2)
        hood = X[graph[0]] - X[0]
        np.testing.assert_array_equal(hood, [[1.0, 0.0], [0.0, 2.0]])
        _, spectra = assemble_weight_matrix(X, graph, "ldr", d=1)
        assert spectra.radius[0] == 2.0

    def test_duplicate_point_yields_zero_row(self):
        X = np.array([[1.0, 1.0], [1.0, 1.0], [3.0, 0.0]])
        graph = knn(X, 1)
        hood = X[graph[0]] - X[0]
        np.testing.assert_array_equal(hood, [[0.0, 0.0]])


class TestSerialization:
    def test_integer_csv(self, tmp_path):
        X = np.array([[0.0], [1.0], [3.0]])
        graph = knn(X, 2)
        path = tmp_path / "nbrs.csv"
        save_neighbor_graph(graph, path)
        assert path.read_text() == "1,2\n0,2\n1,0\n"

    def test_round_trip_through_loadtxt(self, tmp_path):
        sample = gen_swissroll(60, seed=0)
        graph = knn(sample.points, 5)
        path = tmp_path / "nbrs.csv"
        save_neighbor_graph(graph, path)
        back = np.loadtxt(path, delimiter=",", dtype=np.intp)
        np.testing.assert_array_equal(back, graph)
