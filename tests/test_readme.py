"""The README's library and command-line examples run against the current API."""

import re
import shlex
from pathlib import Path

import ldrlle
from ldrlle import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_examples_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def test_cli_examples_run_in_order(tmp_path, monkeypatch):
    # In order: `generate` writes the roll.csv that later lines read.
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(), flags=re.M | re.S)
    lines = [line for block in blocks for line in block.splitlines()
             if line.startswith("ldrlle ")]
    assert lines
    monkeypatch.chdir(tmp_path)
    for line in lines:
        assert cli.main(shlex.split(line)[1:]) == 0, line


PUBLIC = [
    "CsvFormatError", "DEFAULT_DELTA", "DEFAULT_EPSILONS", "DEFAULT_TRIALS",
    "DegenerateWeightsError", "DisconnectedGraphError", "EigenSolverError", "Embedding",
    "EmbeddingDiagnostics", "GENERATORS", "GeneralPositionError", "GeneratedSample",
    "LdrLleError", "PerturbationReport", "SingularNeighborhoodError", "Spectra",
    "Theorem2Result", "UndefinedCorrelationError", "__version__", "assemble_weight_matrix",
    "embed", "gen_open_ring", "gen_scurve", "gen_swissroll", "generate",
    "grid_cross_neighborhood", "knn", "ldr_weights", "linear_projection_diagnostic",
    "linear_r2", "lle_weights", "lle_weights_pinv", "load_csv", "monotonicity_1d",
    "permuted_preimage_null", "perturbation_experiment", "perturbation_report_dict", "phi",
    "preimage_path", "procrustes_residual", "reconstruction_error", "save_csv",
    "save_embedding", "save_neighbor_graph", "save_sample", "save_spectra",
    "save_weight_matrix", "scurve_map", "swissroll_map", "theorem1_bound",
    "theorem2_check_from_parts", "validate_cloud",
]


def test_public_surface():
    # A change to the public names shows as a diff of this list.
    assert PUBLIC == sorted(set(PUBLIC))
    assert sorted(ldrlle.__all__) == PUBLIC
    assert len(ldrlle.__all__) == len(PUBLIC)
    assert all(hasattr(ldrlle, name) for name in PUBLIC)
    # Every `name(` the README calls is public; scipy's cdist is the one exemption.
    called = set(re.findall(r"`(\w+)\(", README.read_text())) - {"cdist"}
    assert called
    assert called <= set(PUBLIC)
