"""The README's library and command-line examples run against the current API."""

import importlib
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
    "Theorem2Result", "__version__", "assemble_weight_matrix", "embed", "gen_open_ring",
    "gen_scurve", "gen_swissroll", "generate",
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


MODULES = ("datasets", "diagnostics", "embedding", "errors", "neighbors", "weights")


def test_public_surface_is_partitioned_by_module():
    # Each public name is declared once, in the `__all__` of the module that
    # defines it; the package's list is their union plus __version__.
    modules = [importlib.import_module(f"ldrlle.{name}") for name in MODULES]
    for module in modules:
        for name in module.__all__:
            obj = getattr(module, name)
            assert getattr(obj, "__module__", module.__name__) == module.__name__, name
    names = [name for module in modules for name in module.__all__]
    assert len(names) == len(set(names))
    assert sorted(names + ["__version__"]) == sorted(ldrlle.__all__)
    namespace = {}
    exec("from ldrlle.weights import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(ldrlle.weights.__all__)
