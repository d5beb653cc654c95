"""End-to-end command-line behavior: files, exit codes, determinism."""

import json

import numpy as np
import pytest

from ldrlle import cli, diagnostics, load_csv, preimage_path, save_csv, save_sample
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

    def test_invalid_epsilon(self, tmp_path):
        rc = run("perturb", "--epsilons", "-1.0", "--trials", "3",
                 "--out", str(tmp_path / "r.json"))
        assert rc == 2

    def test_invalid_trials(self, tmp_path):
        rc = run("perturb", "--trials", "0", "--out", str(tmp_path / "r.json"))
        assert rc == 2


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


class TestTopLevel:
    def test_no_command_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            run()
        assert excinfo.value.code == 2

    def test_unknown_command_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            run("frobnicate")
        assert excinfo.value.code == 2
