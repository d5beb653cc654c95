"""Sample generators, cloud validation, and CSV round-trips."""

import tempfile
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ldrlle import (
    CsvFormatError,
    GENERATORS,
    assemble_weight_matrix,
    embed,
    gen_open_ring,
    gen_scurve,
    gen_swissroll,
    generate,
    knn,
    load_csv,
    preimage_path,
    save_csv,
    save_embedding,
    save_neighbor_graph,
    save_sample,
    save_spectra,
    save_weight_matrix,
    scurve_map,
    swissroll_map,
    validate_cloud,
)
from ldrlle.datasets import BLOCK, as_columns, write_rows


class TestValidateCloud:
    def test_returns_float64_array(self):
        out = validate_cloud([[1, 2], [3, 4]])
        assert out.dtype == np.float64
        assert out.shape == (2, 2)

    def test_rejects_one_dimensional(self):
        with pytest.raises(ValueError, match="2-D"):
            validate_cloud(np.arange(4.0))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            validate_cloud(np.empty((0, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            validate_cloud([[1.0, np.nan]])
        with pytest.raises(ValueError, match="finite"):
            validate_cloud([[np.inf, 0.0]])


class TestOpenRing:
    def test_points_on_unit_circle(self, ring16):
        norms = np.linalg.norm(ring16.points, axis=1)
        assert np.max(np.abs(norms - 1.0)) < 1e-12

    def test_angles_span_three_quarter_turn(self, ring16):
        theta = ring16.preimage[:, 0]
        assert theta[0] == 0.0
        assert theta[-1] == pytest.approx(1.5 * np.pi, abs=1e-15)
        assert np.all(np.diff(theta) > 0)

    def test_preimage_matches_points(self, ring16):
        theta = ring16.preimage[:, 0]
        rebuilt = np.column_stack([np.cos(theta), np.sin(theta)])
        np.testing.assert_array_equal(rebuilt, ring16.points)

    def test_equally_spaced(self, ring16):
        gaps = np.diff(ring16.preimage[:, 0])
        assert np.max(np.abs(gaps - gaps[0])) < 1e-12

    def test_gap_is_wider_than_four_spacings(self, ring16):
        # The opening must exceed K = 4 point spacings, otherwise Euclidean
        # neighborhoods jump the gap and the ring closes into a cycle.
        theta = ring16.preimage[:, 0]
        spacing = theta[1] - theta[0]
        opening = 2.0 * np.pi - theta[-1]
        assert opening > 4.0 * spacing

    def test_smallest_ring(self):
        sample = gen_open_ring(3)
        assert sample.points.shape == (3, 2)

    def test_too_small_rejected(self):
        with pytest.raises(ValueError, match="n >= 3"):
            gen_open_ring(2)

    def test_a_size_that_is_not_an_integer_is_refused(self):
        # The ring's size goes through the same count check as the sheets'.
        assert gen_open_ring(np.int64(3)).points.shape == (3, 2)
        with pytest.raises(TypeError, match=r"^n must be an integer, got 3\.0$"):
            gen_open_ring(3.0)
        with pytest.raises(ValueError, match="^n must be >= 1, got 0$"):
            gen_open_ring(0)


class TestSheetMaps:
    def test_s_shape_center(self):
        np.testing.assert_allclose(scurve_map(0.0, 1.0).ravel(), [0.0, 1.0, 0.0])

    def test_s_shape_endpoint(self):
        got = scurve_map(1.5 * np.pi, 0.7).ravel()
        np.testing.assert_allclose(got, [-1.0, 0.7, -1.0], atol=1e-12)

    def test_roll_radius_equals_parameter(self):
        got = swissroll_map(1.5 * np.pi, 5.0).ravel()
        np.testing.assert_allclose(got, [0.0, 5.0, -1.5 * np.pi], atol=1e-12)


class TestScurve:
    def test_shapes(self):
        sample = gen_scurve(100, seed=1)
        assert sample.points.shape == (100, 3)
        assert sample.preimage.shape == (100, 2)

    def test_points_rebuilt_from_preimage(self):
        sample = gen_scurve(64, seed=3)
        t, h = sample.preimage[:, 0], sample.preimage[:, 1]
        np.testing.assert_array_equal(scurve_map(t, h), sample.points)

    def test_parameter_ranges(self):
        sample = gen_scurve(500, seed=5)
        t, h = sample.preimage[:, 0], sample.preimage[:, 1]
        assert np.all(np.abs(t) < 1.5 * np.pi)
        assert np.all((h >= 0.0) & (h < 2.0))

    def test_empty_sample_is_refused(self):
        with pytest.raises(ValueError, match="n must be >= 1, got 0"):
            gen_scurve(0)

    def test_seed_determinism(self):
        a = gen_scurve(32, seed=9)
        b = gen_scurve(32, seed=9)
        np.testing.assert_array_equal(a.points, b.points)
        assert not np.array_equal(a.points, gen_scurve(32, seed=10).points)


class TestSwissroll:
    def test_radius_equals_roll_parameter(self):
        sample = gen_swissroll(200, seed=2)
        t = sample.preimage[:, 0]
        radius = np.hypot(sample.points[:, 0], sample.points[:, 2])
        np.testing.assert_allclose(radius, t, rtol=1e-12)

    def test_parameter_ranges(self):
        sample = gen_swissroll(500, seed=4)
        t, h = sample.preimage[:, 0], sample.preimage[:, 1]
        assert np.all((t > 1.5 * np.pi) & (t < 4.5 * np.pi))
        assert np.all((h >= 0.0) & (h < 21.0))

    def test_points_rebuilt_from_preimage(self):
        sample = gen_swissroll(64, seed=6)
        t, h = sample.preimage[:, 0], sample.preimage[:, 1]
        np.testing.assert_array_equal(swissroll_map(t, h), sample.points)

    def test_height_column_passthrough(self):
        sample = gen_swissroll(64, seed=8)
        np.testing.assert_array_equal(sample.points[:, 1], sample.preimage[:, 1])


class TestSheetSampler:
    @pytest.mark.parametrize("gen, t_of_u, height", [
        (gen_scurve, lambda u: 3.0 * np.pi * (u - 0.5), 2.0),
        (gen_swissroll, lambda u: 1.5 * np.pi * (1.0 + 2.0 * u), 21.0),
    ], ids=["scurve", "swissroll"])
    def test_preimage_is_one_uniform_draw_mapped(self, gen, t_of_u, height):
        # Both sheets read their parameters off one (n, 2) draw, column 0
        # for t and column 1 for the height, bit for bit.
        uv = np.random.default_rng(7).random((33, 2))
        expected = np.column_stack([t_of_u(uv[:, 0]), height * uv[:, 1]])
        np.testing.assert_array_equal(gen(33, seed=7).preimage, expected)


class TestAsColumns:
    def test_a_vector_is_one_column(self):
        got = as_columns([1, 2, 3])
        assert got.dtype == float
        np.testing.assert_array_equal(got, [[1.0], [2.0], [3.0]])

    def test_a_matrix_is_left_as_it_is(self):
        a = np.arange(6.0).reshape(3, 2)
        np.testing.assert_array_equal(as_columns(a), a)
        assert as_columns(a.T).shape == (2, 3)

    @pytest.mark.parametrize("shape", [(), (3, 2, 1)])
    def test_other_dimensions_are_refused(self, shape):
        with pytest.raises(ValueError, match="shape"):
            as_columns(np.zeros(shape))


class TestGenerateDispatch:
    def test_known_names(self):
        assert sorted(GENERATORS) == ["ring", "scurve", "swissroll"]
        for name in GENERATORS:
            sample = generate(name, 16, seed=0)
            assert sample.points.shape[0] == 16

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown generator"):
            generate("torus", 16)

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            generate("swissroll", 0)


class TestCsvRoundTrip:
    def test_exact_round_trip(self, tmp_path):
        sample = gen_swissroll(50, seed=11)
        path = tmp_path / "pts.csv"
        save_csv(sample.points, path)
        np.testing.assert_array_equal(load_csv(path), sample.points)

    def test_headerless_plain_text(self, tmp_path):
        path = tmp_path / "pts.csv"
        save_csv(np.array([[1.5, -2.0]]), path)
        assert path.read_text() == "1.5,-2.0\n"

    def test_trailing_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("1.0,2.0\n3.0,4.0\n\n\n")
        assert load_csv(path).shape == (2, 2)

    def test_ragged_rows_rejected_with_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(CsvFormatError, match="line 2") as excinfo:
            load_csv(path)
        assert excinfo.value.row == 2

    def test_unparseable_cell_rejected_with_position(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0\n3.0,oops\n")
        with pytest.raises(CsvFormatError, match="line 2, column 2") as excinfo:
            load_csv(path)
        assert excinfo.value.row == 2
        assert excinfo.value.column == 2

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(CsvFormatError, match="empty"):
            load_csv(path)

    def test_non_finite_values_rejected(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("1.0,nan\n")
        with pytest.raises(ValueError, match="finite"):
            load_csv(path)

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_csv(tmp_path / "does-not-exist.csv")

    @given(
        hnp.arrays(
            np.float64,
            hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=5),
            elements=st.floats(allow_nan=False, allow_infinity=False, width=64),
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_round_trip_any_finite_values(self, arr):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "arr.csv"
            save_csv(arr, path)
            np.testing.assert_array_equal(load_csv(path), arr)


@pytest.fixture(scope="module")
def across_blocks():
    """A classical run on 2 BLOCK + 1 points: each writer converts three
    blocks, the last of one row, and must give the bytes of one whole-table
    conversion."""
    X = gen_swissroll(2 * BLOCK + 1, seed=11).points
    graph = knn(X, 12)
    W, spectra = assemble_weight_matrix(X, graph, "classical", d=2)
    return SimpleNamespace(X=X, graph=graph, W=W, coo=W.tocoo(), spectra=spectra,
                           emb=embed(W, 2))


# Each writer, and its table's rows from one whole-table .tolist().
WRITERS = {
    "cloud": (lambda run, path: save_csv(run.X, path), lambda run: run.X.tolist()),
    "graph": (lambda run, path: save_neighbor_graph(run.graph, path),
              lambda run: run.graph.tolist()),
    "Y": (lambda run, path: save_embedding(run.emb, path), lambda run: run.emb.Y.tolist()),
    "spectra": (lambda run, path: save_spectra(run.spectra, path), lambda run: [
        [i, *row] for i, row in enumerate(np.column_stack(
            [run.spectra.singular_values, run.spectra.alpha, run.spectra.radius]).tolist())]),
    "W": (lambda run, path: save_weight_matrix(run.W, path),
          lambda run: zip(run.coo.row.tolist(), run.coo.col.tolist(), run.coo.data.tolist())),
}


class TestWriteRows:
    # The writer formats each line with one "%s,...,%s" string; it must give
    # the bytes of the plain str-and-join expression over the table's rows of
    # Python scalars.
    @staticmethod
    def joined(rows):
        return "".join(",".join(map(str, row)) + "\n" for row in rows)

    @pytest.mark.parametrize("rows", [
        [[0, -0.0, 5e-324, 1e16, 1e-5], [7, 0.1, -2.5e-300, 1.7976931348623157e308, 3.0]],
        [(1e-2, 0, 0.25, 1e-17)],
        [[1.0], [-0.0], [5e-324]],
        # No rows give no columns.  Its id is the one it had in the row-iterator
        # table, whose rows3, a zero-width row, has no column form.
        pytest.param([], id="rows4"),
    ])
    def test_bytes_match_the_joined_strings(self, tmp_path, rows):
        path = tmp_path / "rows.csv"
        write_rows([np.array(column) for column in zip(*rows)], path)
        assert path.read_bytes() == self.joined(rows).encode()

    def test_header_is_the_first_line(self, tmp_path):
        path = tmp_path / "header.csv"
        write_rows([np.array([1e-2]), np.array([0]), np.array([0.25]), np.array([1e-17])], path,
                   header=("epsilon", "trial", "classical", "ldr"))
        assert path.read_text() == "epsilon,trial,classical,ldr\n0.01,0,0.25,1e-17\n"

    def test_empty_row_set_writes_an_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_rows([np.array([]), np.array([], dtype=int)], path)
        assert path.read_bytes() == b""

    def test_holds_one_line_not_the_file(self, tmp_path):
        # These rows make a 4.9 MiB file; joining its text before writing it
        # traced a 20.6 MiB peak.
        i = np.arange(200_000)
        columns = [i, i % 12, (i + 0.5) / 7.0]
        path = tmp_path / "big.csv"
        tracemalloc.start()
        try:
            write_rows(columns, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert path.read_bytes() == self.joined(zip(*[c.tolist() for c in columns])).encode()

    @pytest.mark.parametrize("save, rows", WRITERS.values(), ids=WRITERS)
    def test_every_writer_matches_the_whole_table_across_blocks(
            self, tmp_path, across_blocks, save, rows):
        path = tmp_path / "table.csv"
        save(across_blocks, path)
        assert path.read_text() == self.joined(rows(across_blocks))

    def test_neighbor_graph_peak_does_not_grow_with_n(self, tmp_path):
        # Converting the whole (32000, 12) graph with one .tolist() traced a
        # 16.5 MiB peak; a block at a time holds about 1.9 MiB.
        graph = knn(gen_swissroll(32_000, seed=11).points, 12)
        tracemalloc.start()
        try:
            save_neighbor_graph(graph, tmp_path / "graph.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestSampleFiles:
    def test_preimage_sibling_naming(self):
        assert preimage_path("runs/x.csv") == Path("runs/x.preimage.csv")
        assert preimage_path("runs/x") == Path("runs/x.preimage.csv")

    def test_save_sample_writes_both_files(self, tmp_path):
        sample = gen_scurve(20, seed=0)
        path = tmp_path / "s.csv"
        save_sample(sample, path)
        np.testing.assert_array_equal(load_csv(path), sample.points)
        np.testing.assert_array_equal(load_csv(preimage_path(path)), sample.preimage)
