"""End-to-end command-line behavior: files, exit codes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import subspace_angles

import ldrlle
from ldrlle import cli, diagnostics, load_csv, preimage_path, save_csv, save_sample
from ldrlle import assemble_weight_matrix, knn
from ldrlle.datasets import gen_swissroll


def run(*argv):
    return cli.main(list(argv))


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
            "embed", "--input", str(src), "--k", "1", "--d", "1",
            "--out", str(tmp_path / "o.csv"),
        )
        assert rc == 2
        assert "line 2" in capsys.readouterr().err

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

    def test_spectra_dump_without_a_rank_split_is_refused(self, tmp_path, capsys):
        rc = run(
            "embed", "--generator", "ring", "--n", "16", "--k", "2", "--d", "3",
            "--method", "classical", "--out", str(tmp_path / "emb.csv"),
            "--dump-spectra", str(tmp_path / "spec.csv"),
        )
        assert rc == 2
        assert "--dump-spectra" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

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

    def test_classical_run_without_a_rank_split_records_null_spectra(self, tmp_path):
        out = tmp_path / "emb.csv"
        rc = run(
            "embed", "--generator", "ring", "--n", "16", "--k", "2", "--d", "3",
            "--method", "classical", "--out", str(out),
        )
        assert rc == 0
        sidecar = json.loads(out.with_suffix(".json").read_text())
        assert sidecar["alpha"] is None
        assert sidecar["r_max"] is None
        assert sidecar["gap_warnings"] is None

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
        # sidecar must say null, not NaN, and the console n/a.
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
        assert "ratio n/a" in capsys.readouterr().out

    def test_input_requires_ground_truth(self, tmp_path, capsys):
        src = tmp_path / "pts.csv"
        save_csv(gen_swissroll(60, seed=1).points, src)
        rc = run("theorem2", "--input", str(src), "--k", "8",
                 "--out", str(tmp_path / "r.json"))
        assert rc == 2
        assert "--preimage" in capsys.readouterr().err

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

    def test_import_leaves_scipy_stats_unloaded(self):
        # Nothing in the package needs it, and loading it doubles the import time.
        env = dict(os.environ, PYTHONPATH=str(Path(ldrlle.__file__).parents[1]))
        code = "import sys, ldrlle.cli; assert 'scipy.stats' not in sys.modules"
        subprocess.run([sys.executable, "-c", code], env=env, check=True)

    def test_module_entry_point_exits_with_the_command_code(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=str(Path(ldrlle.__file__).parents[1]))

        def entry(*argv):
            return subprocess.run([sys.executable, "-m", "ldrlle.cli", *argv], env=env,
                                  cwd=tmp_path, capture_output=True).returncode

        assert entry("perturb", "--trials", "3", "--out", "r.json") == 0
        assert len(json.loads((tmp_path / "r.json").read_text())["reports"]) == 3
        assert entry("embed", "--out", "y.csv") == 2
        assert not (tmp_path / "y.csv").exists()

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
