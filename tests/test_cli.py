"""End-to-end command-line behavior: files, exit codes, determinism."""

import contextlib
import dataclasses
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, event, given, settings
from hypothesis import strategies as st
from scipy.linalg import subspace_angles

import ldrlle
from ldrlle import (
    CsvFormatError,
    DisconnectedGraphError,
    EigenSolverError,
    GeneralPositionError,
    cli,
    diagnostics,
    load_csv,
    preimage_path,
    save_csv,
    save_sample,
)
from ldrlle import assemble_weight_matrix, knn
from ldrlle.datasets import gen_open_ring, gen_swissroll


def run(*argv):
    return cli.main(list(argv))


def fresh_python(*args, **kwargs):
    """Run python with args in a new interpreter that imports this checkout's ldrlle."""
    env = dict(os.environ, PYTHONPATH=str(Path(ldrlle.__file__).parents[1]))
    return subprocess.run([sys.executable, *args], env=env, **kwargs)


class TestGenerate:
    def test_writes_points_and_preimage(self, tmp_path, capsys):
        out = tmp_path / "ring.csv"
        assert run("generate", "ring", "--n", "16", "--out", str(out)) == 0
        assert load_csv(out).shape == (16, 2)
        assert load_csv(preimage_path(out)).shape == (16, 1)
        assert "ring.csv" in capsys.readouterr().out

    def test_default_output_name(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run("generate", "scurve", "--n", "10", "--seed", "3") == 0
        assert (tmp_path / "scurve.csv").exists()
        assert (tmp_path / "scurve.preimage.csv").exists()

    def test_unknown_generator_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            run("generate", "torus")
        assert excinfo.value.code == 2

    def test_invalid_size_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert run("generate", "ring", "--n", "2", "--out", str(out)) == 2
        assert "error" in capsys.readouterr().err


class TestEmbed:
    def test_ring_end_to_end(self, tmp_path, capsys):
        out = tmp_path / "emb.csv"
        rc = run(
            "embed", "--generator", "ring", "--n", "16", "--k", "4", "--d", "1",
            "--method", "ldr", "--out", str(out),
        )
        assert rc == 0
        Y = load_csv(out)
        assert Y.shape == (16, 1)
        sidecar = json.loads(out.with_suffix(".json").read_text())
        total = float(np.sum(sidecar["eigenvalues"]))
        assert sidecar["phi"] == pytest.approx(total, rel=1e-8)
        assert abs(sidecar["rank_correlation"]) > 0.95
        assert sidecar["method"] == "ldr"
        assert sidecar["K"] == 4
        assert sidecar["n"] == 16
        assert sidecar["alpha"]["max"] < 1.0
        assert sidecar["r_max"] > 0.0
        assert "phi =" in capsys.readouterr().out

    def test_classical_sheet_run_reports_linearity(self, tmp_path):
        out = tmp_path / "emb.csv"
        rc = run(
            "embed", "--generator", "scurve", "--n", "200", "--k", "12", "--d", "2",
            "--method", "classical", "--out", str(out),
        )
        assert rc == 0
        sidecar = json.loads(out.with_suffix(".json").read_text())
        assert 0.0 <= sidecar["linear_r2"] <= 1.0
        assert sidecar["delta"] == pytest.approx(1e-9)

    def test_input_file_with_sibling_preimage(self, tmp_path):
        from ldrlle import gen_open_ring

        src = tmp_path / "arc.csv"
        save_sample(gen_open_ring(16), src)
        out = tmp_path / "emb.csv"
        rc = run(
            "embed", "--input", str(src), "--k", "4", "--d", "1",
            "--method", "ldr", "--out", str(out),
        )
        assert rc == 0
        sidecar = json.loads(out.with_suffix(".json").read_text())
        # rank correlation can only appear if the sibling file was discovered.
        assert abs(sidecar["rank_correlation"]) > 0.95
        assert sidecar["input"].endswith("arc.csv")

    def test_two_column_preimage_skips_rank_correlation(self, tmp_path):
        sample = gen_swissroll(150, seed=4)
        src = tmp_path / "roll.csv"
        save_sample(sample, src)
        out = tmp_path / "emb.csv"
        rc = run(
            "embed", "--input", str(src), "--k", "8", "--d", "1",
            "--method", "ldr", "--out", str(out),
        )
        assert rc == 0
        sidecar = json.loads(out.with_suffix(".json").read_text())
        assert sidecar["rank_correlation"] is None

    def test_constant_preimage_is_a_usage_error_and_writes_nothing(self, tmp_path, capsys):
        src = tmp_path / "ring.csv"
        save_csv(gen_open_ring(16).points, src)
        save_csv(np.ones((16, 1)), preimage_path(src))
        before = set(tmp_path.iterdir())
        rc = run("embed", "--input", str(src), "--k", "4", "--d", "1",
                 "--out", str(tmp_path / "emb.csv"))
        assert rc == 2
        assert "rank correlation" in capsys.readouterr().err
        assert set(tmp_path.iterdir()) == before

    def test_input_file_without_preimage(self, tmp_path):
        sample = gen_swissroll(120, seed=5)
        src = tmp_path / "pts.csv"
        save_csv(sample.points, src)
        out = tmp_path / "emb.csv"
        rc = run(
            "embed", "--input", str(src), "--k", "8", "--d", "2",
            "--method", "ldr", "--out", str(out),
        )
        assert rc == 0
        sidecar = json.loads(out.with_suffix(".json").read_text())
        assert sidecar["rank_correlation"] is None
        assert sidecar["generator"] is None

    def test_explicit_preimage_row_mismatch(self, tmp_path, capsys):
        sample = gen_swissroll(50, seed=6)
        src = tmp_path / "pts.csv"
        save_csv(sample.points, src)
        pre = tmp_path / "pre.csv"
        save_csv(sample.preimage[:40], pre)
        out = tmp_path / "emb.csv"
        rc = run(
            "embed", "--input", str(src), "--preimage", str(pre),
            "--k", "8", "--d", "2", "--out", str(out),
        )
        assert rc == 2
        assert "rows" in capsys.readouterr().err

    def test_missing_input_file(self, tmp_path):
        rc = run(
            "embed", "--input", str(tmp_path / "nope.csv"),
            "--k", "4", "--d", "1", "--out", str(tmp_path / "o.csv"),
        )
        assert rc == 2

    def test_malformed_csv_names_the_line(self, tmp_path, capsys):
        src = tmp_path / "bad.csv"
        src.write_text("1.0,2.0\n3.0\n")
        rc = run(
            "embed", "--input", str(src), "--k", "2", "--d", "1",
            "--out", str(tmp_path / "o.csv"),
        )
        assert rc == 2
        assert "line 2" in capsys.readouterr().err

    def test_undecodable_preimage_names_its_path_and_line(self, tmp_path, capsys):
        # embed reads two files, so the error must say which one is not text.
        src = tmp_path / "ring.csv"
        save_sample(gen_open_ring(16), src)
        preimage_path(src).write_bytes(b"0.0\n\xff\xfe\n")
        rc = run(
            "embed", "--input", str(src), "--k", "4", "--d", "1",
            "--out", str(tmp_path / "o.csv"),
        )
        assert rc == 2
        assert f"{preimage_path(src)}: cannot decode line 2" in capsys.readouterr().err

    def test_too_few_neighbors_for_rank_method(self, tmp_path):
        rc = run(
            "embed", "--generator", "ring", "--n", "16", "--k", "1", "--d", "1",
            "--method", "ldr", "--out", str(tmp_path / "o.csv"),
        )
        assert rc == 2

    def test_neighbor_count_at_least_sample_size(self, tmp_path):
        rc = run(
            "embed", "--generator", "ring", "--n", "16", "--k", "16", "--d", "1",
            "--out", str(tmp_path / "o.csv"),
        )
        assert rc == 2

    def test_disconnected_graph_exit_code(self, tmp_path, capsys):
        src = tmp_path / "two.csv"
        save_csv(
            np.array([[0.0, 0.0], [0.1, 0.0], [10.0, 0.0], [10.1, 0.0]]), src
        )
        rc = run(
            "embed", "--input", str(src), "--k", "1", "--d", "1",
            "--method", "classical", "--out", str(tmp_path / "o.csv"),
        )
        assert rc == 3
        assert "2 connected components" in capsys.readouterr().err

    def test_general_position_exit_code(self, tmp_path, capsys):
        src = tmp_path / "dup.csv"
        save_csv(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [5.0, 5.0]]), src)
        rc = run(
            "embed", "--input", str(src), "--k", "2", "--d", "1",
            "--method", "ldr", "--out", str(tmp_path / "o.csv"),
        )
        assert rc == 4
        assert "point 0" in capsys.readouterr().err

    def test_dump_side_outputs(self, tmp_path):
        out = tmp_path / "emb.csv"
        rc = run(
            "embed", "--generator", "ring", "--n", "16", "--k", "4", "--d", "1",
            "--method", "ldr", "--out", str(out),
            "--dump-neighbors", str(tmp_path / "nbrs.csv"),
            "--dump-weights", str(tmp_path / "w.csv"),
            "--dump-spectra", str(tmp_path / "spec.csv"),
        )
        assert rc == 0
        nbrs = np.loadtxt(tmp_path / "nbrs.csv", delimiter=",", dtype=int)
        assert nbrs.shape == (16, 4)
        w_lines = (tmp_path / "w.csv").read_text().splitlines()
        assert len(w_lines) == 16 * 4
        spec_lines = (tmp_path / "spec.csv").read_text().splitlines()
        assert len(spec_lines) == 16

    @pytest.mark.parametrize("method", ["classical", "ldr"])
    def test_dumps_read_back_exactly(self, tmp_path, method):
        X = gen_swissroll(300, seed=5).points
        src = tmp_path / "pts.csv"
        save_csv(X, src)
        rc = run(
            "embed", "--input", str(src), "--k", "8", "--method", method,
            "--out", str(tmp_path / "emb.csv"),
            "--dump-neighbors", str(tmp_path / "nbrs.csv"),
            "--dump-weights", str(tmp_path / "w.csv"),
            "--dump-spectra", str(tmp_path / "spec.csv"),
        )
        assert rc == 0
        graph = knn(X, 8)
        W, spectra = assemble_weight_matrix(X, graph, method, d=2)
        coo = W.tocoo()
        np.testing.assert_array_equal(
            np.loadtxt(tmp_path / "nbrs.csv", delimiter=",", dtype=graph.dtype), graph, strict=True
        )
        np.testing.assert_array_equal(
            np.loadtxt(tmp_path / "w.csv", delimiter=","),
            np.column_stack([coo.row, coo.col, coo.data]), strict=True,
        )
        np.testing.assert_array_equal(
            np.loadtxt(tmp_path / "spec.csv", delimiter=","),
            np.column_stack([np.arange(300), spectra.singular_values,
                             spectra.alpha, spectra.radius]),
            strict=True,
        )

    @pytest.mark.parametrize("delta", ["nan", "inf"])
    def test_non_finite_delta_is_a_usage_error(self, tmp_path, capsys, delta):
        rc = run(
            "embed", "--generator", "swissroll", "--n", "300", "--method", "classical",
            "--delta", delta, "--out", str(tmp_path / "emb.csv"),
        )
        assert rc == 2
        assert "delta" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_size_with_an_input_is_refused(self, tmp_path, capsys):
        src = tmp_path / "pts.csv"
        save_csv(gen_swissroll(60, seed=1).points, src)
        rc = run("embed", "--input", str(src), "--n", "50", "--k", "8",
                 "--out", str(tmp_path / "emb.csv"))
        assert rc == 2
        assert "--n" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["pts.csv"]

    def test_seed_with_an_input_is_refused(self, tmp_path, capsys):
        # A seed draws nothing from an input CSV, so the sidecar must not
        # record one; without the flag it records null.
        src = tmp_path / "pts.csv"
        save_csv(gen_swissroll(60, seed=1).points, src)
        out = tmp_path / "emb.csv"
        rc = run("embed", "--input", str(src), "--seed", "5", "--k", "8", "--out", str(out))
        assert rc == 2
        assert "--seed" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["pts.csv"]
        assert run("embed", "--input", str(src), "--k", "8", "--out", str(out)) == 0
        assert json.loads(out.with_suffix(".json").read_text())["seed"] is None

    def test_delta_with_the_rank_d_method_is_refused(self, tmp_path, capsys):
        # The rank-d weights take no ridge, so the sidecar must not record
        # one; without the flag it records null.
        out = tmp_path / "emb.csv"
        argv = ["embed", "--generator", "swissroll", "--n", "120", "--k", "8",
                "--method", "ldr", "--out", str(out)]
        assert run(*argv, "--delta", "0.5") == 2
        assert "--delta" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []
        assert run(*argv) == 0
        sidecar = json.loads(out.with_suffix(".json").read_text())
        assert sidecar["delta"] is None
        assert sidecar["seed"] == 0

    def test_json_output_is_refused_before_its_sidecar_overwrites_it(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        rc = run(
            "embed", "--generator", "ring", "--n", "16", "--k", "4", "--d", "1",
            "--out", str(out),
        )
        assert rc == 2
        assert "x.json" in capsys.readouterr().err
        assert not out.exists()

    def test_json_output_is_refused_before_any_dump_is_written(self, tmp_path, capsys):
        rc = run(
            "embed", "--generator", "ring", "--n", "16", "--k", "4", "--d", "1",
            "--out", str(tmp_path / "y.json"), "--dump-weights", str(tmp_path / "w.csv"),
        )
        assert rc == 2
        assert "its own sidecar path" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_json_output_is_refused_before_any_input_is_read(
        self, tmp_path, capsys, monkeypatch
    ):
        def refusing_knn(*args):
            raise AssertionError("knn ran")

        monkeypatch.setattr("ldrlle.neighbors.knn", refusing_knn)
        rc = run("embed", "--generator", "swissroll", "--n", "300", "--out",
                 str(tmp_path / "x.json"))
        assert rc == 2
        assert "its own sidecar path" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_spectra_dump_without_a_rank_split_is_written(self, tmp_path):
        # Classical weights at d >= K discard nothing, yet the record is
        # total, so the dump is written: one row of K + 3 fields per point.
        rc = run(
            "embed", "--generator", "ring", "--n", "16", "--k", "2", "--d", "3",
            "--method", "classical", "--out", str(tmp_path / "emb.csv"),
            "--dump-spectra", str(tmp_path / "spec.csv"),
        )
        assert rc == 0
        assert load_csv(tmp_path / "spec.csv").shape == (16, 5)

    @pytest.mark.parametrize("source", [["--generator", "ring", "--n", "16"],
                                        ["--input", "ring.csv"]], ids=["generator", "input"])
    def test_spectra_dump_at_d_equal_to_k_is_written_from_either_source(
            self, source, tmp_path, monkeypatch):
        # From either source, d = K is a run like any other.
        monkeypatch.chdir(tmp_path)
        save_csv(gen_open_ring(16).points, "ring.csv")
        rc = run("embed", *source, "--k", "4", "--d", "4", "--method", "classical",
                 "--out", "emb.csv", "--dump-spectra", "spec.csv")
        assert rc == 0
        assert load_csv("spec.csv").shape == (16, 7)

    def test_non_finite_sidecar_is_numerical_and_writes_nothing(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr(diagnostics, "phi", lambda Y, W: float("nan"))
        out = tmp_path / "emb.csv"
        rc = run(
            "embed", "--generator", "ring", "--n", "16", "--k", "4", "--d", "1",
            "--method", "ldr", "--out", str(out),
        )
        assert rc == 5
        assert "emb.json" in capsys.readouterr().err
        assert not out.exists()
        assert not out.with_suffix(".json").exists()

    def test_preimage_with_a_generator_is_refused(self, tmp_path, capsys):
        rc = run(
            "embed", "--generator", "ring", "--n", "16", "--k", "4", "--d", "1",
            "--preimage", str(tmp_path / "missing.csv"), "--out", str(tmp_path / "emb.csv"),
        )
        assert rc == 2
        assert "--preimage" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_linear_algebra_failure_is_numerical(self, tmp_path, capsys, monkeypatch):
        # LinAlgError subclasses ValueError but is not a usage problem.
        def failing_svd(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", failing_svd)
        rc = run(
            "embed", "--generator", "ring", "--n", "16", "--k", "4", "--d", "1",
            "--method", "ldr", "--out", str(tmp_path / "emb.csv"),
        )
        assert rc == 5
        assert "SVD did not converge" in capsys.readouterr().err

    def test_overflowing_coordinates_are_a_usage_error(self, tmp_path, capsys):
        src = tmp_path / "huge.csv"
        X = gen_swissroll(40, seed=0).points
        save_csv(X / np.abs(X).max() * 1e308, src)
        rc = run("embed", "--input", str(src), "--k", "6", "--out", str(tmp_path / "o.csv"))
        assert rc == 2
        assert "overflow" in capsys.readouterr().err

    def test_classical_run_at_a_tiny_scale_embeds_like_the_unscaled_cloud(self, tmp_path):
        # Classical weights through the Gram matrix were NaN at this scale, and
        # the run exited 5 blaming the eigensolver.
        X = gen_swissroll(600, seed=3).points
        Ys = []
        for name, cloud in (("unit", X), ("tiny", 1e-160 * X)):
            src, out = tmp_path / f"{name}.csv", tmp_path / f"{name}.emb.csv"
            save_csv(cloud, src)
            rc = run("embed", "--input", str(src), "--method", "classical", "--k", "10",
                     "--out", str(out))
            assert rc == 0
            Ys.append(load_csv(out))
        assert np.cos(subspace_angles(*Ys)).min() >= 0.9999

    @pytest.mark.parametrize("method", ["classical", "ldr"])
    def test_run_below_the_squared_distance_underflow_embeds_like_the_unscaled_cloud(
        self, tmp_path, method
    ):
        # At this scale squared distances underflow; without rescaling the
        # graph changes, every radius reads 0, and the run exits 0 with a wrong Y.
        X = gen_swissroll(600, seed=3).points
        Ys, r_max = [], []
        for name, cloud in (("unit", X), ("tiny", 1e-170 * X)):
            src, out = tmp_path / f"{name}.csv", tmp_path / f"{name}.emb.csv"
            save_csv(cloud, src)
            rc = run("embed", "--input", str(src), "--method", method, "--k", "10",
                     "--out", str(out))
            assert rc == 0
            Ys.append(load_csv(out))
            r_max.append(json.loads(out.with_suffix(".json").read_text())["r_max"])
        assert np.cos(subspace_angles(*Ys)).min() >= 0.9999
        assert r_max[1] == pytest.approx(1e-170 * r_max[0], rel=1e-12)

    def test_classical_run_without_a_rank_split_records_its_spectra(self, tmp_path):
        # At d >= K the sidecar records the spectra as at any d: K = D = 2, so
        # the retained span is the whole neighborhood, and every row is gap-warned.
        sidecars = {}
        for d in (1, 3):
            out = tmp_path / f"emb{d}.csv"
            rc = run(
                "embed", "--generator", "ring", "--n", "16", "--k", "2", "--d", str(d),
                "--method", "classical", "--out", str(out),
            )
            assert rc == 0
            sidecars[d] = json.loads(out.with_suffix(".json").read_text())
        alpha = sidecars[3]["alpha"]
        assert alpha["mean"] == pytest.approx(1.0, abs=1e-12)
        assert alpha["min"] <= alpha["mean"] <= alpha["max"]
        assert sidecars[3]["r_max"] == sidecars[1]["r_max"]
        assert sidecars[3]["gap_warnings"] == list(range(16))

    def test_byte_identical_reruns(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / f"{name}.csv"
            rc = run(
                "embed", "--generator", "swissroll", "--n", "120", "--k", "8",
                "--d", "2", "--method", "ldr", "--seed", "7", "--out", str(out),
            )
            assert rc == 0
            outs.append((out.read_bytes(), out.with_suffix(".json").read_bytes()))
        a_csv, a_json = outs[0]
        b_csv, b_json = outs[1]
        assert a_csv == b_csv
        # Sidecars differ only in the recorded output path.
        assert a_json.replace(b"a.csv", b"") == b_json.replace(b"b.csv", b"")

    @pytest.mark.parametrize("method", ["classical", "ldr"])
    def test_outputs_do_not_depend_on_the_blas_thread_count(self, tmp_path, method):
        runs = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=str(Path(ldrlle.__file__).parents[1]),
                       OPENBLAS_NUM_THREADS=threads)
            out = tmp_path / threads / "y.csv"
            out.parent.mkdir()
            subprocess.run([sys.executable, "-m", "ldrlle.cli", "embed", "--generator",
                            "swissroll", "--n", "1000", "--method", method, "--out", str(out),
                            "--dump-weights", str(out.with_name("w.csv")),
                            "--dump-neighbors", str(out.with_name("nbrs.csv"))],
                           env=env, check=True, capture_output=True)
            sidecar = json.loads(out.with_suffix(".json").read_text())
            sidecar["output"] = None
            runs.append((out.read_bytes(), out.with_name("w.csv").read_bytes(),
                         out.with_name("nbrs.csv").read_bytes(), sidecar))
        assert runs[0] == runs[1]


class TestPerturb:
    def test_report_and_exit_code(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        rc = run("perturb", "--trials", "5", "--out", str(out))
        assert rc == 0
        payload = json.loads(out.read_text())
        assert len(payload["reports"]) == 3
        for row in payload["reports"]:
            assert row["violations"] == 0
        assert "violations 0" in capsys.readouterr().out

    def test_report_records_its_config(self, tmp_path):
        out = tmp_path / "report.json"
        rc = run("perturb", "--trials", "3", "--epsilons", "1e-2", "1e-4", "--seed", "7",
                 "--out", str(out))
        assert rc == 0
        assert json.loads(out.read_text())["config"] == {
            "command": "perturb", "epsilons": [1e-2, 1e-4], "trials": 3, "seed": 7,
            "output": str(out),
        }

    def test_summary_prints_the_epsilon_it_ran(self, tmp_path, capsys):
        rc = run("perturb", "--epsilons", "2.5e-3", "--trials", "3",
                 "--out", str(tmp_path / "r.json"))
        assert rc == 0
        assert "epsilon 0.0025:" in capsys.readouterr().out

    def test_byte_identical_reruns(self, tmp_path):
        blobs = []
        for name in ("r1.json", "r2.json"):
            out = tmp_path / name
            assert run("perturb", "--trials", "10", "--seed", "1", "--out", str(out)) == 0
            blobs.append(json.loads(out.read_text()))
        blobs[0]["config"].pop("output")
        blobs[1]["config"].pop("output")
        assert blobs[0] == blobs[1]

    def test_raw_distance_dump(self, tmp_path):
        out = tmp_path / "report.json"
        csv = tmp_path / "raw.csv"
        rc = run(
            "perturb", "--trials", "4", "--epsilons", "1e-2", "1e-4",
            "--out", str(out), "--csv", str(csv),
        )
        assert rc == 0
        lines = csv.read_text().splitlines()
        assert lines[0] == "epsilon,trial,classical,ldr"
        assert len(lines) == 1 + 2 * 4

    def test_raw_distance_dump_reads_back_exactly(self, tmp_path):
        csv = tmp_path / "raw.csv"
        rc = run(
            "perturb", "--trials", "4", "--epsilons", "1e-2", "1e-4", "--seed", "3",
            "--out", str(tmp_path / "report.json"), "--csv", str(csv),
        )
        assert rc == 0
        reports = diagnostics.perturbation_experiment(epsilons=[1e-2, 1e-4], trials=4, seed=3)
        want = np.array([
            [r.epsilon, t, c, l] for r in reports
            for t, (c, l) in enumerate(zip(r.distances_classical, r.distances_ldr))
        ])
        np.testing.assert_array_equal(np.loadtxt(csv, delimiter=",", skiprows=1), want,
                                      strict=True)

    def test_bound_violations_exit_numerical(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(diagnostics, "theorem1_bound", lambda lam_d, alpha, eps: 0.0)
        out = tmp_path / "report.json"
        rc = run("perturb", "--trials", "3", "--epsilons", "1e-2", "1e-4", "--out", str(out))
        assert rc == 5
        assert "error: 6 bound violations" in capsys.readouterr().err
        payload = json.loads(out.read_text())
        assert [row["violations"] for row in payload["reports"]] == [3, 3]

    def test_summary_says_n_a_where_the_bound_does_not_apply(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        rc = run("perturb", "--epsilons", "0.5", "1e-2", "--trials", "20", "--out", str(out))
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].endswith(", bound n/a, violations n/a")
        assert lines[1].endswith(", violations 0")
        assert [row["violations"] for row in json.loads(out.read_text())["reports"]] == [None, 0]

    def test_invalid_epsilon(self, tmp_path):
        rc = run("perturb", "--epsilons", "-1.0", "--trials", "3",
                 "--out", str(tmp_path / "r.json"))
        assert rc == 2

    def test_infinite_epsilon_is_a_usage_error(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        rc = run("perturb", "--epsilons", "inf", "--trials", "3", "--out", str(out))
        assert rc == 2
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    def test_invalid_trials(self, tmp_path):
        rc = run("perturb", "--trials", "0", "--out", str(tmp_path / "r.json"))
        assert rc == 2

    def test_degenerate_trial_is_a_numerical_failure_naming_it(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        rc = run("perturb", "--epsilons", "1e-14", "--out", str(out))
        assert rc == 5
        assert "error: epsilon 1e-14, trial 415: " in capsys.readouterr().err
        assert not out.exists()


class TestObjectiveValueCommand:
    def test_generator_sweep(self, tmp_path, capsys):
        out = tmp_path / "sweep.json"
        rc = run(
            "theorem2", "--generator", "ring", "--n-list", "48", "64",
            "--k", "4", "--d", "1", "--permutations", "5", "--out", str(out),
        )
        assert rc == 0
        payload = json.loads(out.read_text())
        assert [row["n"] for row in payload["rows"]] == [48, 64]
        assert isinstance(payload["bounded"], bool)
        for row in payload["rows"]:
            assert row["null_over_phi"] >= 10.0
        assert "ratio bounded" in capsys.readouterr().out

    def test_bounded_compares_with_the_smallest_n(self, tmp_path):
        # The verdict must not depend on the order of --n-list.
        verdicts = []
        for order in (["500", "1000"], ["1000", "500"]):
            out = tmp_path / f"sweep-{order[0]}.json"
            rc = run("theorem2", "--generator", "swissroll", "--n-list", *order,
                     "--permutations", "2", "--out", str(out))
            assert rc == 0
            payload = json.loads(out.read_text())
            assert [row["n"] for row in payload["rows"]] == [int(n) for n in order]
            verdicts.append(payload["bounded"])
        assert verdicts == [True, True]

    def test_planar_input_writes_strict_json(self, tmp_path, capsys):
        # Planar points reconstruct exactly, so the ratio is undefined: the
        # sidecar must say null, not NaN, and the console n/a.  The objective
        # is rounding noise, so the null over it (about 1e30) is undefined too.
        rng = np.random.default_rng(20260814)
        coords = rng.normal(size=(40, 2))
        basis = np.linalg.qr(rng.normal(size=(3, 2)))[0]
        src = tmp_path / "pts.csv"
        pre = tmp_path / "pre.csv"
        save_csv(coords @ basis.T, src)
        save_csv(coords, pre)
        out = tmp_path / "r.json"
        rc = run("theorem2", "--input", str(src), "--preimage", str(pre),
                 "--k", "8", "--d", "2", "--permutations", "5", "--out", str(out))
        assert rc == 0

        def reject(name):
            raise ValueError(f"{name} is not valid JSON")

        payload = json.loads(out.read_text(), parse_constant=reject)
        assert payload["rows"][0]["ratio"] is None
        assert payload["rows"][0]["null_over_phi"] is None
        assert "ratio n/a, null/phi n/a" in capsys.readouterr().out

    def test_input_requires_ground_truth(self, tmp_path, capsys):
        src = tmp_path / "pts.csv"
        save_csv(gen_swissroll(60, seed=1).points, src)
        rc = run("theorem2", "--input", str(src), "--k", "8",
                 "--out", str(tmp_path / "r.json"))
        assert rc == 2
        assert "--preimage" in capsys.readouterr().err

    def test_input_without_any_preimage_names_its_path_and_writes_nothing(
        self, tmp_path, capsys
    ):
        src = tmp_path / "pts.csv"
        save_csv(gen_swissroll(60, seed=1).points, src)
        rc = run("theorem2", "--input", str(src), "--k", "8", "--out", str(tmp_path / "r.json"))
        assert rc == 2
        err = capsys.readouterr().err
        assert "--preimage" in err and str(preimage_path(src)) in err
        assert [p.name for p in tmp_path.iterdir()] == ["pts.csv"]

    def test_input_finds_the_preimage_beside_it(self, tmp_path):
        src = tmp_path / "roll.csv"
        save_sample(gen_swissroll(150, seed=2), src)
        reports = []
        given = ["--preimage", str(preimage_path(src))]
        for name, extra in (("found.json", []), ("given.json", given)):
            out = tmp_path / name
            rc = run("theorem2", "--input", str(src), *extra, "--k", "10",
                     "--permutations", "3", "--out", str(out))
            assert rc == 0
            report = json.loads(out.read_text())
            assert report["config"].pop("output") == str(out)
            reports.append(report)
        assert reports[0] == reports[1]

    def test_sizes_with_a_bare_input_are_refused_as_sizes(self, tmp_path, capsys):
        # The size flag is refused first, as embed refuses --n with --input.
        src = tmp_path / "pts.csv"
        save_csv(gen_swissroll(60, seed=1).points, src)
        rc = run("theorem2", "--input", str(src), "--n-list", "50",
                 "--out", str(tmp_path / "r.json"))
        assert rc == 2
        assert "--n-list" in capsys.readouterr().err

    def test_preimage_with_a_generator_is_refused(self, tmp_path, capsys):
        rc = run(
            "theorem2", "--generator", "ring", "--n-list", "48", "--k", "4", "--d", "1",
            "--preimage", str(tmp_path / "missing.csv"), "--out", str(tmp_path / "r.json"),
        )
        assert rc == 2
        assert "--preimage" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_sizes_with_an_input_are_refused(self, tmp_path, capsys):
        sample = gen_swissroll(80, seed=2)
        src, pre = tmp_path / "pts.csv", tmp_path / "pre.csv"
        save_csv(sample.points, src)
        save_csv(sample.preimage, pre)
        rc = run("theorem2", "--input", str(src), "--preimage", str(pre),
                 "--n-list", "50", "60", "--k", "8", "--out", str(tmp_path / "r.json"))
        assert rc == 2
        assert "--n-list" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["pre.csv", "pts.csv"]

    def test_non_finite_report_is_numerical_and_writes_nothing(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr(
            diagnostics, "permuted_preimage_null", lambda *args, **kwargs: float("nan")
        )
        out = tmp_path / "r.json"
        rc = run("theorem2", "--generator", "ring", "--n-list", "48", "--k", "4",
                 "--d", "1", "--permutations", "2", "--out", str(out))
        assert rc == 5
        assert "r.json" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("ratio", [float("nan"), float("inf")])
    def test_non_finite_ratio_is_numerical_and_writes_nothing(
        self, tmp_path, capsys, monkeypatch, ratio
    ):
        # The library's undefined ratio is None; a NaN or inf one is a fault,
        # not a null to be written.
        check = diagnostics.theorem2_check_from_parts
        monkeypatch.setattr(
            diagnostics, "theorem2_check_from_parts",
            lambda *args: dataclasses.replace(check(*args), ratio=ratio),
        )
        out = tmp_path / "r.json"
        rc = run("theorem2", "--generator", "ring", "--n-list", "48", "--k", "4",
                 "--d", "1", "--permutations", "2", "--out", str(out))
        assert rc == 5
        captured = capsys.readouterr()
        assert "r.json" in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_input_with_ground_truth(self, tmp_path):
        sample = gen_swissroll(150, seed=2)
        src = tmp_path / "pts.csv"
        pre = tmp_path / "pre.csv"
        save_csv(sample.points, src)
        save_csv(sample.preimage, pre)
        out = tmp_path / "r.json"
        rc = run(
            "theorem2", "--input", str(src), "--preimage", str(pre),
            "--k", "12", "--d", "2", "--permutations", "5", "--out", str(out),
        )
        assert rc == 0
        payload = json.loads(out.read_text())
        assert len(payload["rows"]) == 1
        assert payload["bounded"] is None

    def test_preimage_row_mismatch(self, tmp_path):
        sample = gen_swissroll(60, seed=3)
        src = tmp_path / "pts.csv"
        pre = tmp_path / "pre.csv"
        save_csv(sample.points, src)
        save_csv(sample.preimage[:50], pre)
        rc = run("theorem2", "--input", str(src), "--preimage", str(pre),
                 "--k", "8", "--out", str(tmp_path / "r.json"))
        assert rc == 2

    def test_general_position_exit_code(self, tmp_path, capsys):
        src = tmp_path / "dup.csv"
        pre = tmp_path / "pre.csv"
        save_csv(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [5.0, 5.0]]), src)
        save_csv(np.arange(4.0)[:, None], pre)
        out = tmp_path / "r.json"
        rc = run("theorem2", "--input", str(src), "--preimage", str(pre),
                 "--k", "2", "--d", "1", "--out", str(out))
        assert rc == 4
        assert "point 0" in capsys.readouterr().err
        assert not out.exists()

    def test_tiny_cloud_records_a_null_ratio(self, tmp_path, capsys):
        # lambda_{d+1} * r_max^2 underflows to zero at this scale, which puts
        # the ratio past float range.
        sample = gen_swissroll(500, seed=3)
        save_csv(1e-110 * sample.points, tmp_path / "pts.csv")
        save_csv(sample.preimage, tmp_path / "pre.csv")
        out = tmp_path / "r.json"
        rc = run("theorem2", "--input", str(tmp_path / "pts.csv"),
                 "--preimage", str(tmp_path / "pre.csv"), "--k", "10", "--out", str(out))
        assert rc == 0
        (row,) = json.loads(out.read_text())["rows"]
        assert row["ratio"] is None
        assert "ratio n/a" in capsys.readouterr().out

    @pytest.mark.parametrize("source", ["generator", "input"])
    def test_byte_identical_reruns(self, tmp_path, capsys, source):
        if source == "generator":
            argv = ["--generator", "swissroll", "--n-list", "150", "300"]
        else:
            sample = gen_swissroll(150, seed=2)
            save_csv(sample.points, tmp_path / "pts.csv")
            save_csv(sample.preimage, tmp_path / "pre.csv")
            argv = ["--input", str(tmp_path / "pts.csv"), "--preimage", str(tmp_path / "pre.csv")]
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            rc = run("theorem2", *argv, "--permutations", "5", "--seed", "3", "--out", str(out))
            assert rc == 0
            # The reports differ only in the recorded output path.
            outs.append((out.read_bytes().replace(name.encode(), b""), capsys.readouterr().out))
        assert outs[0] == outs[1]


class TestTopLevel:
    def test_no_command_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            run()
        assert excinfo.value.code == 2

    def test_unknown_command_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            run("frobnicate")
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("command", ["embed", "theorem2"])
    def test_pipeline_commands_list_the_shared_flags(self, command, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run(command, "--help")
        assert excinfo.value.code == 0
        text = capsys.readouterr().out
        for flag in ("--input", "--generator", "--preimage", "--k", "--d", "--out"):
            assert re.search(rf"^ +{flag}\b", text, re.MULTILINE), flag

    def test_embed_help_says_the_preimage_is_found_beside_the_input(self, capsys):
        with pytest.raises(SystemExit):
            run("embed", "--help")
        assert "auto-discovered next to --input" in " ".join(capsys.readouterr().out.split())

    def test_import_leaves_scipy_stats_unloaded(self):
        # Nothing in the package needs it, and loading it doubles the import time.
        code = "import sys, ldrlle.cli; assert 'scipy.stats' not in sys.modules"
        fresh_python("-c", code, check=True)

    @pytest.mark.parametrize("statement", [
        "import ldrlle\nldrlle.monotonicity_1d([0.0, 2.0, 2.0, 1.0], [3.0, 1.0, 2.0, 0.0])",
        "from ldrlle import cli\nassert cli.main(['embed', '--generator', 'ring', '--n', '16',"
        " '--k', '4', '--d', '1', '--out', 'y.csv']) == 0",
    ], ids=["monotonicity_1d", "embed-ring"])
    def test_rank_correlation_leaves_scipy_stats_unloaded(self, statement, tmp_path):
        # The ranks come from numpy, so neither the statistic nor the
        # one-column run that scores it loads scipy.stats.
        code = f"import sys\n{statement}\nassert 'scipy.stats' not in sys.modules"
        fresh_python("-c", code, cwd=tmp_path, check=True, capture_output=True)

    @pytest.mark.parametrize("statement", [
        "import ldrlle",
        "import ldrlle.cli",
        "from ldrlle import cli\n"
        "assert cli.main(['perturb', '--trials', '3', '--out', 'r.json', '--csv', 'r.csv']) == 0",
        "from ldrlle import cli\n"
        "assert cli.main(['generate', 'swissroll', '--n', '50', '--out', 'roll.csv']) == 0",
    ], ids=["import", "import-cli", "perturb", "generate"])
    def test_numpy_only_paths_load_no_scipy(self, statement, tmp_path):
        # Each scipy module is imported by the function that runs it, so the
        # perturbation study and the generators never load one.
        code = (f"import sys\n{statement}\n"
                "loaded = [m for m in sys.modules if m.startswith('scipy')]\n"
                "assert not loaded, loaded")
        fresh_python("-c", code, cwd=tmp_path, check=True, capture_output=True)

    @pytest.mark.parametrize("call, module", [
        ("ldrlle.knn(np.arange(12.0).reshape(6, 2), 2)", "scipy.spatial"),
        ("ldrlle.embed((np.roll(np.eye(16), 1, 1) + np.roll(np.eye(16), -1, 1)) / 2, 1)",
         "scipy.sparse.linalg"),
    ], ids=["knn", "embed"])
    def test_the_first_call_loads_its_scipy_module(self, call, module):
        code = (f"import sys\nimport numpy as np\nimport ldrlle\n"
                f"assert {module!r} not in sys.modules\n{call}\n"
                f"assert {module!r} in sys.modules")
        fresh_python("-c", code, check=True)

    def test_module_entry_point_exits_with_the_command_code(self, tmp_path):
        def entry(*argv):
            return fresh_python("-m", "ldrlle.cli", *argv, cwd=tmp_path,
                                capture_output=True).returncode

        assert entry("perturb", "--trials", "3", "--out", "r.json") == 0
        assert len(json.loads((tmp_path / "r.json").read_text())["reports"]) == 3
        assert entry("embed", "--out", "y.csv") == 2
        assert not (tmp_path / "y.csv").exists()

    @pytest.mark.parametrize("exc, code", [
        (DisconnectedGraphError("split", n_components=2), 3),
        (GeneralPositionError("crowded", alpha=1.0), 4),
        (EigenSolverError("stalled"), 5),
        (np.linalg.LinAlgError("no convergence"), 5),
        (CsvFormatError("ragged", row=2), 2),
        (FileNotFoundError("missing.csv"), 2),
        (ValueError("bad flag"), 2),
    ], ids=lambda v: type(v).__name__ if isinstance(v, Exception) else str(v))
    def test_each_failure_kind_has_its_exit_code(self, exc, code, tmp_path, monkeypatch,
                                                 capsys):
        # LinAlgError and CsvFormatError are both ValueErrors, so the order of
        # the table decides their codes.
        def failing_command(args):
            raise exc

        monkeypatch.setattr(cli, "cmd_perturb", failing_command)
        assert run("perturb", "--out", str(tmp_path / "r.json")) == code
        assert capsys.readouterr().err == f"error: {exc}\n"

    def test_every_svd_is_thin(self, tmp_path, monkeypatch):
        calls = []
        svd = np.linalg.svd

        def counting_svd(*args, **kwargs):
            calls.append(kwargs)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        for method in ("ldr", "classical"):
            assert run("embed", "--generator", "swissroll", "--n", "300", "--method", method,
                       "--out", str(tmp_path / f"{method}.csv"),
                       "--dump-spectra", str(tmp_path / f"{method}.spectra.csv")) == 0
        assert run("perturb", "--trials", "5", "--out", str(tmp_path / "p.json")) == 0
        assert run("theorem2", "--generator", "ring", "--n-list", "48", "64", "--k", "4",
                   "--d", "1", "--permutations", "2", "--out", str(tmp_path / "t.json")) == 0
        # One per embed, one per epsilon, one per size.
        assert len(calls) == 2 + 3 + 2
        assert all(kwargs.get("full_matrices", True) is False for kwargs in calls)


OVERWRITES = [
    pytest.param(["embed", "--input", "roll.csv", "--out", "roll.preimage.csv"],
                 ("--out", "--input"), id="embed-out-is-the-input-preimage"),
    pytest.param(["embed", "--input", "roll.csv", "--out", "emb.csv",
                  "--dump-weights", "emb.json"],
                 ("--dump-weights", "--out"), id="weights-dump-is-the-sidecar"),
    pytest.param(["embed", "--input", "roll.csv", "--out", "emb.csv",
                  "--dump-spectra", "./sub/../emb.csv"],
                 ("--dump-spectra", "--out"), id="spectra-dump-is-the-embedding"),
    pytest.param(["perturb", "--trials", "3", "--out", "r.json", "--csv", "r.json"],
                 ("--csv", "--out"), id="perturb-csv-is-the-report"),
    pytest.param(["theorem2", "--input", "roll.csv", "--preimage", "roll.preimage.csv",
                  "--out", "roll.csv"],
                 ("--out", "--input"), id="theorem2-out-is-the-input"),
]


@pytest.mark.parametrize("argv, flags", OVERWRITES)
def test_an_output_that_would_overwrite_a_file_of_the_run_is_refused(
        argv, flags, tmp_path, monkeypatch, capsys):
    # Paths compare resolved, and the refusal comes before any file is written.
    monkeypatch.chdir(tmp_path)
    save_sample(gen_swissroll(60, seed=1), "roll.csv")
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert all(flag in err for flag in flags)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


DIRECTORY_OUTPUTS = [
    pytest.param(["embed", "--generator", "ring", "--n", "16", "--k", "2", "--d", "1",
                  "--out", "outdir"], "--out", id="embed-out"),
    pytest.param(["embed", "--generator", "ring", "--n", "16", "--k", "2", "--d", "1",
                  "--out", "y.csv", "--dump-weights", "outdir"], "--dump-weights",
                 id="embed-dump-weights"),
    pytest.param(["embed", "--generator", "ring", "--n", "16", "--k", "2", "--d", "1",
                  "--out", "outdir.csv"], "the sidecar of --out", id="embed-sidecar"),
    pytest.param(["perturb", "--trials", "3", "--out", "r.json", "--csv", "outdir"], "--csv",
                 id="perturb-csv"),
    pytest.param(["generate", "ring", "--n", "16", "--out", "outdir"], "--out",
                 id="generate-out"),
    pytest.param(["generate", "ring", "--n", "16", "--out", "outdir.csv"],
                 "the preimage beside --out", id="generate-preimage"),
    pytest.param(["theorem2", "--generator", "ring", "--n-list", "48", "--k", "4", "--d", "1",
                  "--out", "outdir"], "--out", id="theorem2-out"),
]


@pytest.mark.parametrize("argv, flag", DIRECTORY_OUTPUTS)
def test_an_output_that_is_a_directory_is_refused_before_any_write(
        argv, flag, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for name in ("outdir", "outdir.json", "outdir.preimage.csv"):
        (tmp_path / name).mkdir()
    assert run(*argv) == 2
    assert capsys.readouterr().err.startswith(f"error: {flag} outdir")
    assert sorted(p.name for p in tmp_path.rglob("*")) == [
        "outdir", "outdir.json", "outdir.preimage.csv"]


MISSING_PARENT_OUTPUTS = [
    pytest.param(["embed", "--generator", "ring", "--n", "16", "--k", "2", "--d", "1",
                  "--out", "nodir/y.csv"], "--out", False, id="embed-out"),
    pytest.param(["embed", "--generator", "ring", "--n", "16", "--k", "2", "--d", "1",
                  "--out", "y.csv", "--dump-weights", "nodir/W.txt"], "--dump-weights", False,
                 id="embed-dump-weights"),
    pytest.param(["perturb", "--trials", "3", "--out", "r.json", "--csv", "nodir/r.csv"],
                 "--csv", False, id="perturb-csv"),
    pytest.param(["generate", "ring", "--n", "16", "--out", "nodir/ring.csv"], "--out", False,
                 id="generate-out"),
    pytest.param(["theorem2", "--generator", "ring", "--n-list", "48", "--k", "4", "--d", "1",
                  "--out", "nodir/t.json"], "--out", False, id="theorem2-out"),
    pytest.param(["embed", "--generator", "ring", "--n", "16", "--k", "2", "--d", "1",
                  "--out", "y.csv", "--dump-neighbors", "nodir/N.txt"], "--dump-neighbors",
                 True, id="embed-dump-under-a-file"),
]


@pytest.mark.parametrize("argv, flag, parent_is_file", MISSING_PARENT_OUTPUTS)
def test_an_output_outside_an_existing_directory_is_refused_before_any_work(
        argv, flag, parent_is_file, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    if parent_is_file:
        (tmp_path / "nodir").write_text("")

    def no_work(*args, **kwargs):
        raise AssertionError("work ran before the outputs were checked")

    for module, name in ((cli.datasets, "generate"), (cli.neighbors, "knn"),
                         (cli.diagnostics, "perturbation_experiment")):
        monkeypatch.setattr(module, name, no_work)
    assert run(*argv) == 2
    assert capsys.readouterr().err.startswith(f"error: {flag} nodir/")
    assert [p.name for p in tmp_path.rglob("*")] == (["nodir"] if parent_is_file else [])


BAD_COUNTS = [
    pytest.param(["embed", "--generator", "swissroll", "--n", "300", "--d", "0", "--out", "y.csv"],
                 "d must be >= 1, got 0", True, id="embed-d"),
    pytest.param(["embed", "--generator", "swissroll", "--n", "300", "--k", "0", "--out", "y.csv"],
                 "K must be >= 1, got 0", True, id="embed-k"),
    pytest.param(["theorem2", "--generator", "swissroll", "--n-list", "300", "--d", "0",
                  "--out", "t.json"], "d must be >= 1, got 0", True, id="theorem2-d"),
    pytest.param(["theorem2", "--generator", "swissroll", "--n-list", "300",
                  "--permutations", "0", "--out", "t.json"],
                 "permutations must be >= 1, got 0", True, id="theorem2-permutations"),
    pytest.param(["embed", "--generator", "swissroll", "--n", "300", "--k", "12", "--d", "12",
                  "--out", "y.csv"], "d must be < K = 12, got 12", True, id="embed-rank"),
    pytest.param(["theorem2", "--generator", "swissroll", "--n-list", "300", "--k", "4", "--d", "4",
                  "--out", "t.json"], "d must be < K = 4, got 4", True, id="theorem2-rank"),
    pytest.param(["theorem2", "--generator", "ring", "--n-list", "48", "2", "--k", "4", "--d", "1",
                  "--out", "t.json"], "open ring needs n >= 3, got 2", False,
                 id="theorem2-late-size"),
    pytest.param(["embed", "--generator", "swissroll", "--n", "300", "--method", "classical",
                  "--delta", "nan", "--out", "y.csv"],
                 "delta must be finite and >= 0, got nan", True, id="embed-delta-nan"),
    pytest.param(["embed", "--generator", "swissroll", "--n", "300", "--method", "classical",
                  "--delta", "-1", "--out", "y.csv"],
                 "delta must be finite and >= 0, got -1.0", True, id="embed-delta-negative"),
    pytest.param(["embed", "--generator", "swissroll", "--n", "300", "--k", "4", "--d", "299",
                  "--method", "classical", "--out", "y.csv"],
                 "d must be < N - 1 = 299, got 299", True, id="embed-classical-d-generated"),
]


@pytest.mark.parametrize("argv, message, before_generate", BAD_COUNTS)
def test_a_bad_count_or_size_is_refused_before_any_knn(
        argv, message, before_generate, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)

    def no_work(*args, **kwargs):
        raise AssertionError("work ran before the counts and sizes were checked")

    monkeypatch.setattr(cli.neighbors, "knn", no_work)
    if before_generate:
        monkeypatch.setattr(cli.datasets, "generate", no_work)
    assert run(*argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == []


def test_a_classical_d_past_the_read_cloud_is_refused_before_any_knn(
        tmp_path, monkeypatch, capsys):
    # N of an --input is known once the CSV is read, before knn.
    monkeypatch.chdir(tmp_path)
    save_csv(gen_swissroll(40, seed=1).points, tmp_path / "x.csv")

    def no_work(*args, **kwargs):
        raise AssertionError("knn ran before --d was checked against N - 1")

    monkeypatch.setattr(cli.neighbors, "knn", no_work)
    assert run("embed", "--input", "x.csv", "--k", "4", "--d", "39", "--method", "classical",
               "--out", "y.csv") == 2
    assert capsys.readouterr().err == "error: d must be < N - 1 = 39, got 39\n"
    assert [p.name for p in tmp_path.iterdir()] == ["x.csv"]


# The exit-code contract as a property: small CSVs with duplicate, ragged,
# empty, NaN, non-numeric, huge and subnormal cells, and flag sets for all
# four commands, each run in-process in a fresh directory.
BAD_CELLS = ["", "nan", "x", "1e200", "1e-310", "inf"]


@st.composite
def csv_texts(draw):
    """A CSV of n <= 60 rows in D <= 5 columns: Gaussian, on a 3-level grid
    (duplicate-heavy) or in two far clusters, with a few duplicated rows and,
    each one time in three, bad cells and a ragged row."""
    n = draw(st.integers(0, 60))
    D = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    values = rng.normal(size=(n, D))
    shape = draw(st.sampled_from(["gaussian", "grid", "two clusters"]))
    if shape == "grid":
        values = rng.integers(0, 3, size=(n, D)).astype(float)
    elif shape == "two clusters":
        values[: n // 2] += 100.0
    cells = [[repr(v) for v in row] for row in values.tolist()]
    if n:
        row = st.integers(0, n - 1)
        for src, dst in draw(st.lists(st.tuples(row, row), max_size=3)):
            cells[dst] = list(cells[src])
        bad = st.tuples(row, st.integers(0, D - 1), st.sampled_from(BAD_CELLS))
        for i, j, cell in draw(_sometimes(st.lists(bad, min_size=1, max_size=2))):
            cells[i][j] = cell
        for i in draw(_sometimes(st.lists(row, min_size=1, max_size=1))):
            cells[i] = cells[i][:-1] or ["1.0", "2.0"]
    return "".join(",".join(row) + "\n" for row in cells)


@st.composite
def inputs(draw):
    """An input CSV and the preimage written beside it and as pre.csv: none,
    the input itself, or another CSV."""
    text = draw(csv_texts())
    return text, draw(st.sampled_from([None, text, None]) | csv_texts())


def _sometimes(strategy, otherwise=()):
    """list(otherwise) two times in three, else a value of strategy."""
    return st.sampled_from([False, False, True]).flatmap(
        lambda drawn: strategy if drawn else st.just(list(otherwise)))


def _out(good, *bad):
    """--out good two times in three, else --out one of bad."""
    return _sometimes(st.sampled_from(bad).map(lambda out: ["--out", out]), ["--out", good])


def _optional(flag, values):
    """No flag two times in three, else flag with one of values."""
    return _sometimes(st.sampled_from(values).map(lambda v: [flag, v]))


def _pipeline_flags(sizes):
    source = st.one_of(
        st.tuples(st.just(["--input", "in.csv"]), _sometimes(sizes)),
        st.tuples(st.sampled_from(["ring", "scurve", "swissroll"]).map(
            lambda g: ["--generator", g]), sizes))
    return st.tuples(
        source.map(lambda s: s[0] + s[1]),
        _optional("--preimage", ["pre.csv", "in.csv"]),
        _optional("--k", ["0", "1", "2", "4", "6", "12", "x"]),
        _optional("--d", ["0", "1", "2", "2", "3"]),
    ).map(lambda parts: [flag for part in parts for flag in part])


SIZES = st.lists(st.sampled_from(["0", "3", "20", "40", "60", "80"]), min_size=1, max_size=2)
EMBED = st.tuples(
    st.just(["embed"]),
    _pipeline_flags(SIZES.map(lambda s: ["--n", s[0]])),
    _optional("--method", ["classical", "ldr", "other"]),
    _optional("--delta", ["0", "1e-3", "nan", "-1"]),
    _optional("--seed", ["0", "3", "-1"]),
    _optional("--dump-neighbors", ["nb.csv", "y.csv"]),
    _optional("--dump-weights", ["w.csv"]),
    _optional("--dump-spectra", ["s.csv", "sub"]),
    _out("y.csv", "y.json", "sub", "in.csv", "missing/y.csv"),
)
THEOREM2 = st.tuples(
    st.just(["theorem2"]),
    _pipeline_flags(SIZES.map(lambda s: ["--n-list", *s])),
    _optional("--seed", ["0", "3"]),
    _optional("--permutations", ["0", "1", "3"]),
    _out("t.json", "in.csv", "sub"),
)
PERTURB = st.tuples(
    st.just(["perturb"]),
    st.lists(st.sampled_from(["1e-3", "0.1", "1", "0", "-1", "nan", "1e-15"]),
             min_size=1, max_size=3).map(lambda e: ["--epsilons", *e]),
    st.sampled_from(["1", "5", "20", "0"]).map(lambda t: ["--trials", t]),
    _optional("--seed", ["0", "1", "-1"]),
    _optional("--csv", ["p.csv", "p.json"]),
    _out("p.json", "sub"),
)
GENERATE = st.tuples(
    st.sampled_from(["ring", "scurve", "swissroll", "swissroll", "torus"]).map(
        lambda g: ["generate", g]),
    st.sampled_from(["-1", "0", "2", "3", "16", "80"]).map(lambda n: ["--n", n]),
    _optional("--seed", ["0", "5", "-1"]),
    _optional("--out", ["g.csv", "in.csv", "sub"]),
)
ARGVS = st.one_of(EMBED, THEOREM2, PERTURB, GENERATE).map(
    lambda parts: [flag for part in parts for flag in part])


def _tree(root):
    return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def _main_in(root, argv):
    """cli.main(argv) run in root with its console captured: the exit code, or
    SystemExit's code when argparse refuses the flags."""
    cwd = os.getcwd()
    os.chdir(root)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return cli.main(argv)
    except SystemExit as exc:
        assert exc.code == 2, f"argparse exited {exc.code}"
        return "argparse"
    finally:
        os.chdir(cwd)


def _refuse_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@given(files=inputs(), argv=ARGVS)
# One shrunk failure and no explain phase: with every run failing alike (an
# exception escaping main), the explain phase's line tracing took minutes.
@settings(max_examples=100, deadline=None, report_multiple_bugs=False,
          phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.shrink])
def test_every_run_exits_by_the_contract_and_a_failed_one_writes_nothing(files, argv):
    text, preimage = files
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "in.csv").write_text(text)
        if preimage is not None:
            (root / "pre.csv").write_text(preimage)
            (root / "in.preimage.csv").write_text(preimage)
        (root / "sub").mkdir()
        before = _tree(root)
        code = _main_in(root, argv)
        event(f"{argv[0]} exit {code}")
        assert code in (0, 2, 3, 4, 5, "argparse")
        after = _tree(root)
        written = {p for p in after if before.get(p) != after[p]}
        if code != 0:
            assert written == set(), f"exit {code} wrote {sorted(map(str, written))}"
            return
        for p in written:
            if p.suffix == ".json":
                json.loads(after[p], parse_constant=_refuse_constant)
        for p in written:
            (root / p).unlink()
        assert _main_in(root, argv) == 0
        assert _tree(root) == after
