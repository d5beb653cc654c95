"""Exact nearest-neighbor graphs and centered neighborhood matrices."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

import ldrlle.neighbors

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


@given(side=st.integers(2, 5), dim=st.integers(1, 3), data=st.data())
@settings(max_examples=60, deadline=None)
def test_lattices_with_duplicates_match_the_oracle(side, dim, data):
    # Integer lattices tie at every distance, and duplicated rows tie at zero;
    # integer coordinates make every squared distance exact for both searches.
    lattice = np.stack(np.meshgrid(*[np.arange(side)] * dim, indexing="ij"), axis=-1)
    lattice = lattice.reshape(-1, dim).astype(float)
    dup = data.draw(st.lists(st.integers(0, len(lattice) - 1), max_size=20))
    X = np.concatenate([lattice, lattice[dup]])
    X = X[data.draw(st.permutations(range(len(X))))]
    K = data.draw(st.integers(1, min(12, len(X) - 1)))
    np.testing.assert_array_equal(knn(X, K), brute_force_knn(X, K))


def row_sweep_knn(X, K):
    """One point at a time: cdist of its row, self to inf, stable argsort."""
    out = np.empty((len(X), K), dtype=np.intp)
    for i in range(len(X)):
        d2 = cdist(X[i : i + 1], X, metric="sqeuclidean")[0]
        d2[i] = np.inf
        out[i] = np.argsort(d2, kind="stable")[:K]
    return out


def near_tied_shell(rng, D):
    """A centre and 40 points around it whose radii differ by at most 3 ulps."""
    centre = rng.normal(size=D)
    u = rng.normal(size=(40, D))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    r = rng.uniform(1.0, 1.5)
    radii = r + rng.integers(0, 4, size=40) * np.spacing(r)
    return np.vstack([centre, centre + radii[:, None] * u])


@given(D=st.sampled_from([2, 3, 9, 16]), K=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_near_tied_shells_match_the_row_sweep(D, K, seed):
    # The shell points tie with the centre up to rounding, so the order is the
    # rounding of the squared distances itself. brute_force_knn's diff @ diff
    # rounds unlike cdist, so the reference is the row sweep knn must
    # reproduce bit for bit.
    rng = np.random.default_rng(seed)
    shell = near_tied_shell(rng, D)
    far = shell[0] + 100.0 + rng.normal(size=(100, D))
    X = np.vstack([shell, far])
    X = X[rng.permutation(len(X))]
    np.testing.assert_array_equal(knn(X, K), row_sweep_knn(X, K))


@given(D=st.sampled_from([2, 3]), K=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=10, deadline=None)
def test_near_tied_shells_under_a_deep_tree_match_the_row_sweep(D, K, seed):
    # The shell inside 2000 background points: the tree is several levels
    # deep around it, so tied shell points are pruned with their nodes on
    # bounds built up split by split, not only scored at a leaf.
    rng = np.random.default_rng(seed)
    shell = near_tied_shell(rng, D)
    box = rng.uniform(-8.0, 8.0, size=(2000, D))
    background = shell[0] + box[np.linalg.norm(box, axis=1) > 3.0]
    X = np.vstack([shell, background])
    X = X[rng.permutation(len(X))]
    np.testing.assert_array_equal(knn(X, K), row_sweep_knn(X, K))


class TestTreeSearchIsExact:
    def test_fifty_dimensional_gaussian(self, rng):
        X = rng.normal(size=(400, 50))
        np.testing.assert_array_equal(knn(X, 7), brute_force_knn(X, 7))

    def test_identical_points_beside_others(self, rng):
        X = np.concatenate([np.ones((300, 3)), rng.normal(size=(20, 3))])
        X = X[rng.permutation(len(X))]
        np.testing.assert_array_equal(knn(X, 12), brute_force_knn(X, 12))

    def test_duplicate_cluster_wider_than_the_query(self, rng):
        # 30 copies of one point tie at zero beyond the K + 2 = 6 candidates.
        X = np.concatenate([np.full((30, 2), 0.5), rng.integers(0, 6, size=(60, 2))]).astype(float)
        np.testing.assert_array_equal(knn(X, 4), brute_force_knn(X, 4))

    def test_lattice_rows_tied_past_the_query_take_the_row_sweep(self, monkeypatch):
        # On the 3^4 lattice at K = 1 every row has at least 4 neighbors at
        # distance 1, more than the tree's 3 candidates hold.
        lattice = np.stack(np.meshgrid(*[np.arange(3)] * 4, indexing="ij"), axis=-1)
        X = lattice.reshape(-1, 4).astype(float)
        swept = []

        def counting_cdist(XA, XB, metric):
            swept.append(len(XA))
            return cdist(XA, XB, metric=metric)

        monkeypatch.setattr(ldrlle.neighbors, "cdist", counting_cdist)
        np.testing.assert_array_equal(knn(X, 1), brute_force_knn(X, 1))
        assert swept

    def test_swiss_roll_never_takes_the_row_sweep(self, monkeypatch):
        X = gen_swissroll(2000, seed=11).points
        expected = knn(X, 12)

        def refusing_cdist(*args, **kwargs):
            raise AssertionError("row sweep ran on a tie-free cloud")

        monkeypatch.setattr(ldrlle.neighbors, "cdist", refusing_cdist)
        np.testing.assert_array_equal(knn(X, 12), expected)

    def test_small_clouds_never_take_the_row_sweep(self, rng, monkeypatch):
        # With N <= K + 2 the tree returns every point, so each row is exact.
        # Unrounded Gaussian clouds keep the oracle's order away from near-ties.
        def refusing_cdist(*args, **kwargs):
            raise AssertionError("row sweep ran on a small cloud")

        monkeypatch.setattr(ldrlle.neighbors, "cdist", refusing_cdist)
        for n in range(2, 16):
            for D in (1, 2, 3, 5):
                X = rng.normal(size=(n, D))
                for K in range(1, n):
                    graph = knn(X, K)
                    assert graph.shape == (n, K) and graph.dtype == np.intp
                    assert graph.flags.c_contiguous
                    np.testing.assert_array_equal(graph, brute_force_knn(X, K))

    def test_identical_points_stay_within_a_fixed_memory_budget(self):
        # One fixed query bounds the candidate arrays at K + 2 per row; a
        # search widening until ties resolve would hold about n candidates each.
        X = np.ones((4000, 3))
        tracemalloc.start()
        try:
            graph = knn(X, 12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20
        np.testing.assert_array_equal(graph[0], np.arange(1, 13))


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
