"""Workloads, correctness gates and metrics of the ldrlle benchmark.

Imported by run.py after it has pinned the BLAS thread count, so importing
this module is where numpy, scipy and ldrlle load.  Each workload class
generates its inputs from the seed in `setup`, runs one operation in `op`
(the only timed call) and checks that operation's output in `check`, which
returns the operation's accuracy residual or raises GateFailure.
"""

import ctypes
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import contextmanager, redirect_stdout
from pathlib import Path

import numpy as np
import scipy
import scipy.linalg
import scipy.sparse as sparse

import ldrlle
from ldrlle import cli, datasets, diagnostics, embedding, neighbors, weights
from spans import Tracer, first_root_counters, summarize, write_spans

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
SPEC = json.loads((Path(__file__).resolve().parent / "workloads.json").read_text())

# Set-up (input generation, CSV writing, warm-up) runs this many times per
# run and setup_s reports the median, plus the one-off import time.
SETUP_REPS = 3

# Correctness gate tolerances (absolute for the constraints, relative for phi).
CONSTRAINT_TOL = 1e-8
PHI_REL_TOL = 1e-8

MODULES = [ldrlle, datasets, neighbors, weights, embedding, diagnostics, cli]

# Functions traced in --trace 1 runs, named <module>.<function>.  Each is
# wrapped on every ldrlle module that refers to it.
TRACED = [
    "datasets.load_csv", "datasets.save_csv", "datasets.validate_cloud",
    "neighbors.knn", "neighbors.neighborhood_matrix",
    "weights.assemble_weight_matrix", "weights.neighborhood_spectrum",
    "weights.ldr_weights_from_spectrum", "weights.lle_weights",
    "weights.lle_weights_pinv", "weights.ldr_weights",
    "weights.save_weight_matrix", "weights.save_spectra",
    "embedding.embed", "embedding.build_m", "embedding.phi", "embedding.save_embedding",
    "diagnostics.linear_projection_diagnostic", "diagnostics.linear_r2",
    "diagnostics.procrustes_residual", "diagnostics.perturbation_experiment",
    "cli.main",
]
# Traced only for datasets.generate_s: it runs in set-up, never in an operation.
SETUP_TRACED = ["datasets.generate"]
TARGETS = [
    (getattr(ldrlle, name.split(".")[0]), name.split(".")[1], name)
    for name in TRACED + SETUP_TRACED
]

# Calls made inside weights.assemble_weight_matrix that count as per-point work.
PER_POINT = ["neighbors.neighborhood_matrix", "weights.neighborhood_spectrum",
             "weights.ldr_weights_from_spectrum", "weights.lle_weights"]


def _gap_warnings(result):
    spectra = result[1]
    # A list of per-point spectra today; a single record holding a
    # gap_warning array is the planned replacement.
    flags = getattr(spectra, "gap_warning", None)
    if flags is None:
        flags = [s.gap_warning for s in spectra]
    return {"gap_warnings": int(np.count_nonzero(flags))}


def _m_size(M):
    return {"nnz": int(M.nnz),
            "bytes": int(M.data.nbytes + M.indices.nbytes + M.indptr.nbytes)}


OBSERVERS = {"weights.assemble_weight_matrix": _gap_warnings, "embedding.build_m": _m_size}

END_TO_END_UNITS = {
    "op_s": "s", "items_per_s": "items/s", "setup_s": "s",
    "peak_rss_mb": "MiB", "accuracy_resid": "1",
}
FUNCTION_UNITS = {"calls": "count", "total_s": "s", "self_s": "s", "errors": "count"}
DERIVED_UNITS = {
    "neighbors.knn_s": "s",
    "weights.assemble_s": "s",
    "weights.per_point_calls": "count",
    "weights.single_solve_s": "s",
    "weights.lle_fallback_ratio": "1",
    "weights.gap_warnings": "count",
    "embedding.embed_s": "s",
    "embedding.build_m_s": "s",
    "embedding.embed_self_s": "s",
    "embedding.m_nnz": "count",
    "embedding.m_bytes_computed": "bytes",
    "diagnostics.quality_s": "s",
    "diagnostics.perturbation_self_s": "s",
    "datasets.load_csv_s": "s",
    "datasets.generate_s": "s",
    "weights.save_s": "s",
    "embedding.save_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


def per_layer_units():
    units = {f"{name}.{field}": unit
             for name in TRACED for field, unit in FUNCTION_UNITS.items()}
    units.update(DERIVED_UNITS)
    return units


class GateFailure(Exception):
    """An operation's output failed the correctness gate."""


def check_embedding(W, Y, eigenvalues, n, d):
    """Gate shared by the embed workloads, computed without the library."""
    W = sparse.csr_matrix(W)
    if Y.shape != (n, d) or not np.all(np.isfinite(Y)):
        raise GateFailure(f"Y has shape {Y.shape} or non-finite entries; expected ({n}, {d})")
    row_err = float(np.abs(np.asarray(W.sum(axis=1)).ravel() - 1.0).max())
    if row_err > CONSTRAINT_TOL:
        raise GateFailure(f"rows of W do not sum to one (max error {row_err:.3e})")
    centered = float(np.abs(Y.sum(axis=0)).max())
    if centered > CONSTRAINT_TOL:
        raise GateFailure(f"|Y'1| = {centered:.3e}")
    ortho = float(np.linalg.norm(Y.T @ Y - np.eye(d)))
    if ortho > CONSTRAINT_TOL:
        raise GateFailure(f"||Y'Y - I|| = {ortho:.3e}")
    R = Y - W @ Y
    phi = float((R * R).sum())
    total = float(np.sum(eigenvalues))
    if abs(phi - total) > PHI_REL_TOL * abs(total):
        raise GateFailure(f"phi(Y, W) = {phi!r} but the eigenvalues sum to {total!r}")


def _input_seed(seed, j):
    return seed * 1000 + j


class LibraryEmbed:
    """The library pipeline knn -> weights -> embed -> quality statistics."""

    def __init__(self, params, seed, workdir):
        self.p = params
        self.seed = seed
        self.items_per_op = params["n"]

    def setup(self):
        p = self.p
        self.samples = [datasets.generate(p["generator"], p["n"], _input_seed(self.seed, j))
                        for j in range(p["pool"])]
        self._pipeline(datasets.generate(p["generator"], p["warmup_n"], self.seed))

    def _pipeline(self, sample):
        p = self.p
        X = sample.points
        graph = neighbors.knn(X, p["K"])
        W, _ = weights.assemble_weight_matrix(X, graph, p["method"], d=p["d"])
        emb = embedding.embed(W, p["d"])
        diag = diagnostics.linear_projection_diagnostic(
            X, emb.Y, reference=sample.preimage, weights=W, preimage=sample.preimage)
        return W, emb, diag

    def op(self, i):
        return self._pipeline(self.samples[i % len(self.samples)])

    def check(self, i, out):
        W, emb, diag = out
        check_embedding(W, emb.Y, emb.eigenvalues, self.p["n"], self.p["d"])
        return diag.procrustes_residual


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


def _load_weights(path, n):
    """W from an `i,j,value` dump, keeping each row's entries in file order.

    The classical weights here reconstruct exactly, so phi is at rounding
    level (about 1e-19) and W @ Y cancels almost completely: summing a row's
    products in another order (as a COO-to-CSR conversion, which sorts the
    columns, would) moves phi by more than the 1e-8 relative gate.
    """
    ijv = np.loadtxt(path, delimiter=",", ndmin=2)
    rows = ijv[:, 0].astype(np.intp)
    order = np.argsort(rows, kind="stable")
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])
    return sparse.csr_matrix((ijv[order, 2], ijv[order, 1].astype(np.intp), indptr),
                             shape=(n, n))


class CliEmbed:
    """`ldrlle embed` on a CSV with every sidecar and dump file written."""

    def __init__(self, params, seed, workdir):
        self.p = params
        self.seed = seed
        self.items_per_op = params["n"]
        self.dir = workdir
        self.out = workdir / "emb.csv"
        self.sidecar = workdir / "emb.json"
        self.w_path = workdir / "W.txt"
        self.spectra_path = workdir / "spectra.csv"

    def _write(self, sample, name):
        path = self.dir / name
        datasets.save_sample(sample, path)
        return path

    def setup(self):
        p = self.p
        self.dir.mkdir(parents=True, exist_ok=True)
        self.samples = [datasets.generate(p["generator"], p["n"], _input_seed(self.seed, j))
                        for j in range(p["pool"])]
        self.inputs = [self._write(s, f"in{j}.csv") for j, s in enumerate(self.samples)]
        warm = self._write(datasets.generate(p["generator"], p["warmup_n"], self.seed), "warm.csv")
        rc = self._main(warm)
        if rc != 0:
            raise GateFailure(f"warm-up exited with {rc}")
        self._clear()

    def _main(self, path):
        p = self.p
        argv = ["embed", "--input", str(path), "--method", p["method"],
                "--k", str(p["K"]), "--d", str(p["d"]), "--out", str(self.out),
                "--dump-weights", str(self.w_path), "--dump-spectra", str(self.spectra_path)]
        with redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def _clear(self):
        for path in (self.out, self.sidecar, self.w_path, self.spectra_path):
            path.unlink(missing_ok=True)

    def op(self, i):
        return self._main(self.inputs[i % len(self.inputs)])

    def check(self, i, rc):
        n, d = self.p["n"], self.p["d"]
        try:
            if rc != 0:
                raise GateFailure(f"exit code {rc}")
            try:
                meta = json.loads(self.sidecar.read_text(), parse_constant=_reject_constant)
            except ValueError as exc:
                raise GateFailure(f"sidecar is not strict JSON: {exc}") from None
            Y = np.loadtxt(self.out, delimiter=",", ndmin=2)
            check_embedding(_load_weights(self.w_path, n), Y,
                            np.array(meta["eigenvalues"]), n, d)
            spectra_rows = len(self.spectra_path.read_text().splitlines())
            if spectra_rows != n:
                raise GateFailure(f"spectra dump has {spectra_rows} rows, expected {n}")
            sample = self.samples[i % len(self.samples)]
            return diagnostics.procrustes_residual(Y, sample.preimage)
        finally:
            self._clear()


class Perturb:
    """The Monte Carlo stability study on the grid cross."""

    def __init__(self, params, seed, workdir):
        self.p = params
        self.seed = seed
        self.items_per_op = 2 * params["trials"] * len(params["epsilons"])

    def setup(self):
        diagnostics.perturbation_experiment(
            epsilons=self.p["epsilons"], trials=self.p["warmup_trials"], seed=self.seed)

    def op(self, i):
        return diagnostics.perturbation_experiment(
            epsilons=self.p["epsilons"], trials=self.p["trials"],
            seed=_input_seed(self.seed, i % self.p["pool"]))

    def check(self, i, reports):
        if len(reports) != len(self.p["epsilons"]):
            raise GateFailure(f"{len(reports)} reports for {len(self.p['epsilons'])} epsilons")
        ratio = 0.0
        for r in reports:
            if r.bound is None:
                raise GateFailure(f"epsilon {r.epsilon}: bound preconditions failed")
            d_ldr = np.asarray(r.distances_ldr)
            if d_ldr.shape != (self.p["trials"],) or not np.all(np.isfinite(d_ldr)):
                raise GateFailure(f"epsilon {r.epsilon}: malformed rank-d distances")
            violations = int(np.sum(d_ldr >= r.bound))
            if violations:
                raise GateFailure(f"epsilon {r.epsilon}: {violations} bound violations")
            ratio = max(ratio, float(d_ldr.max()) / r.bound)
        return ratio


KINDS = {"library": LibraryEmbed, "cli": CliEmbed, "perturb": Perturb}


class Calibration:
    """A fixed kernel, timed between operations, that measures machine speed.

    The 2-CPU Xeon VM this benchmark was defined on changes speed by up to 2x
    within seconds to minutes as other tenants load its host, which moved
    the median of a 30 s run by 16-41% (first to third quartile over median)
    between runs.  Each workload names a kernel that does the same kind of
    work as its dominant layer, in the benchmark's own code (numpy and scipy
    only, never ldrlle): "sort" is a stable row argsort like brute-force
    knn, "eigh" a dense symmetric eigensolve like the dense embed path,
    "small" 4x4 SVDs and solves in a Python loop like the single-neighbourhood
    weight solves.  The end-to-end times of a run are multiplied by
    NOMINAL_S / (median kernel time in the run), which gives seconds at the
    speed the machine had when NOMINAL_S was measured.  In six-run trials
    this cut the spread of the run medians to 2-16%.  The unscaled times
    are kept in the run record.
    """

    NOMINAL_S = {"sort": 0.050, "eigh": 0.0142, "small": 0.025}
    SHARE = 0.1  # kernel time per operation, as a share of the last operation's

    def __init__(self, kind):
        rng = np.random.default_rng(0)
        self.kind = kind
        self.times = []
        if kind == "sort":
            rows = rng.random((64, 8000))
            self._kernel = lambda: np.argsort(rows, axis=1, kind="stable")
        elif kind == "eigh":
            B = rng.standard_normal((300, 300))
            B = B @ B.T
            self._kernel = lambda: scipy.linalg.eigh(B)
        elif kind == "small":
            mats = rng.standard_normal((1000, 4, 4))
            ones, eye = np.ones(4), np.eye(4)

            def kernel():
                for M in mats:
                    np.linalg.svd(M)
                    np.linalg.solve(M @ M.T + eye, ones)
            self._kernel = kernel
        else:
            raise ValueError(f"unknown calibration kernel {kind!r}")

    def sample(self, last_op_s):
        """Time the kernel at least once and for about SHARE * last_op_s."""
        stop = time.perf_counter() + self.SHARE * last_op_s
        while True:
            t0 = time.perf_counter()
            self._kernel()
            self.times.append(time.perf_counter() - t0)
            if time.perf_counter() >= stop:
                return

    def scale(self):
        """Factor that turns this run's seconds into seconds at nominal speed."""
        return self.NOMINAL_S[self.kind] / statistics.median(self.times)


def _blas_threads():
    """Thread counts reported by each loaded OpenBLAS, by library file name."""
    counts = {}
    try:
        with open("/proc/self/maps") as maps:
            libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    except OSError:
        return counts
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                counts[Path(path).name] = fn()
                break
    return counts


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def environment():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = None
    cpu = None
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "cpu": cpu,
        "blas": blas,
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads": _blas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "ldrlle": ldrlle.__version__,
        "commit": _git_commit(),
    }


@contextmanager
def _traced(tracer, root):
    """Trace the block under a root span named `root`; no-op without a tracer."""
    if tracer is None:
        yield
        return
    with tracer.installed(MODULES, TARGETS, OBSERVERS), tracer.span(root):
        yield


def run(name, seed, seconds, trace, import_s):
    """Set up and measure one workload; returns (record, result line dict)."""
    spec = SPEC["workloads"][name]
    params = spec["params"]
    workdir = OUT_DIR / f"work-{name}-{seed}-{os.getpid()}"
    tracer = Tracer() if trace else None
    try:
        setup_times = []
        for _ in range(SETUP_REPS):
            wl = KINDS[spec["kind"]](params, seed, workdir)
            t0 = time.perf_counter()
            with _traced(tracer, "bench.setup"):
                wl.setup()
            setup_times.append(time.perf_counter() - t0)

        durations = {False: [], True: []}  # successful operations, by traced
        walls = []
        accuracy = {}
        failures = []
        calibration = Calibration(spec["calibration"])
        i = 0
        start = time.perf_counter()
        while True:
            traced = trace and i % 2 == 1
            t_iter = time.perf_counter()
            calibration.sample(walls[-1] if walls else 0.0)
            t0 = time.perf_counter()
            try:
                try:
                    with _traced(tracer if traced else None, "bench.op"):
                        out = wl.op(i)
                finally:
                    dt = time.perf_counter() - t0
                acc = wl.check(i, out)
            except Exception as exc:  # a failed operation; the run goes on
                failures.append(f"op {i}: {type(exc).__name__}: {exc}")
                if len(failures) <= 3:
                    traceback.print_exception(exc, file=sys.stderr)
            else:
                durations[traced].append(dt)
                accuracy[i % params["pool"]] = acc
            walls.append(time.perf_counter() - t_iter)
            i += 1
            # Stop when one more iteration would end past `seconds` by more
            # than half its length; a traced run first needs a traced sample.
            if not trace or durations[True] or len(walls) >= 4:
                if time.perf_counter() - start + statistics.median(walls) / 2 > seconds:
                    break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = i
    if trace:
        metrics = layer_metrics(tracer, durations, workload=name, seed=seed)
        units = per_layer_units()
    else:
        metrics = end_to_end_metrics(wl, durations[False], calibration.scale(),
                                     setup_times, import_s, accuracy)
        units = END_TO_END_UNITS
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "kind": spec["kind"], "params": params, "environment": environment(),
        "import_s": import_s, "setup_times_s": setup_times,
        "op_durations_s": durations[False], "traced_op_durations_s": durations[True],
        "accuracy_by_input": {str(k): v for k, v in sorted(accuracy.items())},
        "calibration": {"kernel": calibration.kind, "scale": calibration.scale(),
                        "times_s": calibration.times},
        "failures": failures,
    }
    return record, result


def end_to_end_metrics(wl, durations, scale, setup_times, import_s, accuracy):
    """Times are scaled to nominal machine speed (see Calibration)."""
    metrics = {}
    if durations:
        metrics["op_s"] = statistics.median(durations) * scale
        metrics["items_per_s"] = wl.items_per_op * len(durations) / (sum(durations) * scale)
    metrics["setup_s"] = (import_s + statistics.median(setup_times)) * scale
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if accuracy:
        metrics["accuracy_resid"] = statistics.median(accuracy.values())
    return metrics


def layer_metrics(tracer, durations, workload, seed):
    ops, stats = summarize(tracer.spans, "bench.op")
    setups, setup_stats = summarize(tracer.spans, "bench.setup")
    ops = max(ops, 1)
    # Counts observed on results come from the first traced operation, which
    # always runs on the same input, so they repeat exactly for a given seed.
    first = first_root_counters(tracer.spans, "bench.op")
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "errors": 0,
             "durations": [], "under": {}}

    def st(name):
        return stats.get(name, empty)

    metrics = {}
    for name in TRACED:
        for field in FUNCTION_UNITS:
            metrics[f"{name}.{field}"] = st(name)[field] / ops
    solves = st("weights.ldr_weights")["durations"] + st("weights.lle_weights")["durations"]
    lle_calls = st("weights.lle_weights")["calls"]
    assemble = "weights.assemble_weight_matrix"
    metrics.update({
        "neighbors.knn_s": st("neighbors.knn")["total_s"] / ops,
        "weights.assemble_s": st(assemble)["total_s"] / ops,
        "weights.per_point_calls": sum(st(n)["under"].get(assemble, 0) for n in PER_POINT) / ops,
        "weights.single_solve_s": statistics.median(solves) if solves else 0.0,
        "weights.lle_fallback_ratio": (st("weights.lle_weights_pinv")["calls"] / lle_calls
                                       if lle_calls else 0.0),
        "weights.gap_warnings": first.get((assemble, "gap_warnings"), 0),
        "embedding.embed_s": st("embedding.embed")["total_s"] / ops,
        "embedding.build_m_s": st("embedding.build_m")["total_s"] / ops,
        "embedding.embed_self_s": st("embedding.embed")["self_s"] / ops,
        "embedding.m_nnz": first.get(("embedding.build_m", "nnz"), 0),
        "embedding.m_bytes_computed": first.get(("embedding.build_m", "bytes"), 0),
        "diagnostics.quality_s": st("diagnostics.linear_projection_diagnostic")["total_s"] / ops,
        "diagnostics.perturbation_self_s":
            st("diagnostics.perturbation_experiment")["self_s"] / ops,
        "datasets.load_csv_s": st("datasets.load_csv")["total_s"] / ops,
        "datasets.generate_s": (setup_stats.get("datasets.generate", empty)["total_s"]
                                / max(setups, 1)),
        "weights.save_s": (st("weights.save_weight_matrix")["total_s"]
                           + st("weights.save_spectra")["total_s"]) / ops,
        "embedding.save_s": st("embedding.save_embedding")["total_s"] / ops,
        "cli.self_s": st("cli.main")["self_s"] / ops,
        "trace.overhead_s": (statistics.median(durations[True])
                             - statistics.median(durations[False])
                             if durations[True] and durations[False] else 0.0),
    })
    # Keep the spans of the last traced operation only: one whole tree.
    last = max((s[0] for s in tracer.spans if s[1] == -1 and s[2] == "bench.op"), default=None)
    if last is not None:
        OUT_DIR.mkdir(exist_ok=True)
        write_spans(tracer.spans[last:], OUT_DIR / f"spans-{workload}-seed{seed}.csv")
    return metrics
