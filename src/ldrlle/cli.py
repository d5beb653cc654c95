"""Command-line interface: generate samples, embed them, run the studies.

Exit codes: 0 success, 2 usage or input-format problems, 3 disconnected
neighbor graph, 4 general-position violation, 5 numerical failure.
"""

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from . import datasets, diagnostics, embedding, neighbors, weights
from .errors import (
    DisconnectedGraphError,
    GeneralPositionError,
    LdrLleError,
)

EXIT_USAGE = 2
EXIT_DISCONNECTED = 3
EXIT_GENERAL_POSITION = 4
EXIT_NUMERICAL = 5


def cmd_generate(args) -> int:
    sample = datasets.generate(args.name, args.n, args.seed)
    out = args.out if args.out is not None else Path(f"{args.name}.csv")
    datasets.save_sample(sample, out)
    n, D = sample.points.shape
    print(f"wrote {out} ({n} x {D}) and {datasets.preimage_path(out)}")
    return 0


def _refuse_shared_paths(inputs, outputs) -> None:
    """Raise ValueError, naming both flags, for an output that names an input
    or another output.  Both are (flag, path or None) pairs; paths compare
    resolved.  Commands call it before they read or write anything."""
    seen = {path.resolve(): flag for flag, path in inputs if path is not None}
    for flag, path in outputs:
        if path is not None and seen.setdefault(path.resolve(), flag) != flag:
            raise ValueError(f"{flag} {path} is the same file as {seen[path.resolve()]}; "
                             "an output may not overwrite an input or another output")


def _inputs(args):
    """The files embed and theorem2 may read.  The preimage beside --input
    counts whether or not it exists: once written, it is read as ground truth."""
    inputs = [("--input", args.input), ("--preimage", args.preimage)]
    if args.input is not None:
        inputs.append(("the preimage beside --input", datasets.preimage_path(args.input)))
    return inputs


def _samples(args, sizes):
    """Yield (points, preimage or None): one lazily generated sample per size
    with --generator, else the --input file once, with --preimage or else the
    sibling preimage file when it exists."""
    if args.generator is not None:
        if args.preimage is not None:
            raise ValueError("--preimage applies only with --input: "
                             "a generated sample carries its own preimage")
        for n in sizes:
            sample = datasets.generate(args.generator, n, args.seed)
            yield sample.points, sample.preimage
        return
    X = datasets.load_csv(args.input)
    sibling = datasets.preimage_path(args.input)
    pre_path = args.preimage or (sibling if sibling.exists() else None)
    preimage = None if pre_path is None else datasets.load_csv(pre_path)
    if preimage is not None and preimage.shape[0] != X.shape[0]:
        raise ValueError(f"preimage has {preimage.shape[0]} rows but input has {X.shape[0]}")
    yield X, preimage


def cmd_embed(args) -> int:
    if args.input is not None and args.n is not None:
        raise ValueError("--n applies only with --generator: an --input CSV sets its size")
    if args.input is not None and args.seed is not None:
        raise ValueError("--seed applies only with --generator: an --input CSV draws nothing")
    if args.method == "ldr" and args.delta is not None:
        raise ValueError("--delta applies only with --method classical: "
                         "the rank-d weights take no regularization")
    sidecar = args.out.with_suffix(".json")
    _refuse_shared_paths(_inputs(args), [
        ("--out", args.out),
        # save_embedding refuses an --out that is its own sidecar, in its own words.
        ("the sidecar of --out", None if sidecar == args.out else sidecar),
        ("--dump-neighbors", args.dump_neighbors),
        ("--dump-weights", args.dump_weights),
        ("--dump-spectra", args.dump_spectra),
    ])
    # The sidecar records the seed and delta that were used, null where none was.
    if args.generator is not None and args.seed is None:
        args.seed = 0
    if args.method == "classical" and args.delta is None:
        args.delta = weights.DEFAULT_DELTA
    X, preimage = next(_samples(args, [2000 if args.n is None else args.n]))
    graph = neighbors.knn(X, args.k)
    W, spectra = weights.assemble_weight_matrix(
        X, graph, args.method, d=args.d, delta=args.delta
    )
    if args.dump_spectra is not None and spectra is None:
        raise ValueError(f"--dump-spectra needs a rank-d split (1 <= d < K = {args.k}), "
                         f"got d = {args.d}")
    emb = embedding.embed(W, args.d)
    diag = diagnostics.linear_projection_diagnostic(
        X, emb.Y, weights=W, preimage=preimage
    )

    meta = {
        "command": "embed",
        "input": str(args.input) if args.input is not None else None,
        "generator": args.generator,
        "n": int(X.shape[0]),
        "K": args.k,
        "d": args.d,
        "method": args.method,
        "delta": args.delta,
        "seed": args.seed,
        "output": str(args.out),
        "phi": diag.phi_value,
        "linear_r2": diag.linear_r2,
        "rank_correlation": diag.rank_correlation,
    }
    if spectra is not None:
        meta["alpha"] = {
            "min": float(spectra.alpha.min()),
            "mean": float(spectra.alpha.mean()),
            "max": float(spectra.alpha.max()),
        }
        meta["r_max"] = float(spectra.radius.max())
        meta["gap_warnings"] = np.flatnonzero(spectra.gap_warning).tolist()
    else:
        meta["alpha"] = None
        meta["r_max"] = None
        meta["gap_warnings"] = None

    embedding.save_embedding(emb, args.out, metadata=meta)
    if args.dump_neighbors is not None:
        neighbors.save_neighbor_graph(graph, args.dump_neighbors)
    if args.dump_weights is not None:
        weights.save_weight_matrix(W, args.dump_weights)
    if args.dump_spectra is not None:
        weights.save_spectra(spectra, args.dump_spectra)
    print(
        f"wrote {args.out} ({X.shape[0]} x {args.d}), "
        f"phi = {diag.phi_value:.6e}, linear_r2 = {diag.linear_r2:.4f}"
    )
    return 0


def cmd_perturb(args) -> int:
    _refuse_shared_paths([], [("--out", args.out), ("--csv", args.csv)])
    reports = diagnostics.perturbation_experiment(
        epsilons=args.epsilons, trials=args.trials, seed=args.seed
    )
    config = {
        "command": "perturb",
        "epsilons": list(args.epsilons),
        "trials": args.trials,
        "seed": args.seed,
        "output": str(args.out),
    }
    payload = {**diagnostics.perturbation_report_dict(reports), "config": config}
    datasets.write_json(payload, args.out)
    if args.csv is not None:
        datasets.write_rows([("epsilon", "trial", "classical", "ldr")] + [
            (r.epsilon, t, *pair) for r in reports for t, pair in
            enumerate(np.column_stack([r.distances_classical, r.distances_ldr]).tolist())
        ], args.csv)

    total_violations = 0
    for row in payload["reports"]:
        bound = "n/a" if row["bound"] is None else f"{row['bound']:.3e}"
        print(
            f"epsilon {row['epsilon']:g}: median classical "
            f"{row['classical']['median']:.3e}, median rank-d "
            f"{row['ldr']['median']:.3e}, bound {bound}, "
            f"violations {row['violations']}"
        )
        if row["violations"]:
            total_violations += row["violations"]
    if total_violations:
        print(f"error: {total_violations} bound violations", file=sys.stderr)
        return EXIT_NUMERICAL
    return 0


def cmd_theorem2(args) -> int:
    if args.input is not None and args.n_list is not None:
        raise ValueError("--n-list applies only with --generator: an --input CSV sets its size")
    if args.input is not None and args.preimage is None:
        raise ValueError(
            "--input requires --preimage: the objective-value check "
            "scores ground-truth parameters, which an arbitrary CSV does not carry"
        )
    _refuse_shared_paths(_inputs(args), [("--out", args.out)])
    rows = []
    for X, Z in _samples(args, args.n_list or (500, 1000, 2000)):
        graph = neighbors.knn(X, args.k)
        W, spectra = weights.assemble_weight_matrix(X, graph, "ldr", d=args.d)
        result = diagnostics.theorem2_check_from_parts(Z, W, spectra)
        null = diagnostics.permuted_preimage_null(
            W, Z, permutations=args.permutations, seed=args.seed
        )
        rows.append(_theorem2_row(X.shape[0], result, null))

    bounded = None
    if len(rows) > 1:
        base = min(rows, key=lambda r: r["n"])["ratio"]
        bounded = base is not None and all(
            r["ratio"] is not None and r["ratio"] <= 2.0 * base for r in rows
        )
    config = {
        "command": "theorem2",
        "generator": args.generator,
        "input": str(args.input) if args.input is not None else None,
        "K": args.k,
        "d": args.d,
        "seed": args.seed,
        "permutations": args.permutations,
        "output": str(args.out),
    }
    report = {"config": config, "rows": rows, "bounded": bounded}
    datasets.write_json(report, args.out)
    for r in rows:
        ratio = "n/a" if r["ratio"] is None else f"{r['ratio']:.3e}"
        null_over_phi = "n/a" if r["null_over_phi"] is None else f"{r['null_over_phi']:.1f}"
        print(
            f"n {r['n']}: phi/n {r['phi_z_over_n']:.3e}, ratio {ratio}, "
            f"null/phi {null_over_phi}"
        )
    if bounded is not None:
        print(f"ratio bounded (within 2x of smallest n): {bounded}")
    return 0


def _theorem2_row(n, result, null) -> dict:
    row = dataclasses.asdict(result)
    # Strict JSON: an undefined ratio or a quotient over a zero objective is null.
    row.update(
        n=int(n),
        ratio=result.ratio if np.isfinite(result.ratio) else None,
        null_phi_z_over_n=null,
        null_over_phi=null / result.phi_z_over_n if result.phi_z_over_n > 0.0 else None,
    )
    return row


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ldrlle",
        description="Locally linear embedding with classical or rank-d "
                    "neighborhood weights, plus verification studies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic sample (+ preimage sidecar)")
    p.add_argument("name", choices=sorted(datasets.GENERATORS))
    p.add_argument("--n", type=int, default=2000, help="sample size (default 2000)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=Path, default=None, help="default <name>.csv")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("embed", help="embed a sample and write Y + JSON sidecar")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", type=Path, help="points CSV (headerless)")
    src.add_argument("--generator", choices=sorted(datasets.GENERATORS))
    p.add_argument("--n", type=int, help="sample size with --generator (default 2000)")
    p.add_argument("--k", type=int, default=12, help="neighbors per point (default 12)")
    p.add_argument("--d", type=int, default=2, help="output dimension (default 2)")
    p.add_argument("--method", choices=("classical", "ldr"), default="ldr")
    p.add_argument("--delta", type=float,
                   help="classical regularization scale (default 1e-9; "
                        "refused with --method ldr)")
    p.add_argument("--seed", type=int,
                   help="sample seed with --generator (default 0; refused with --input)")
    p.add_argument("--preimage", type=Path,
                   help="ground-truth parameter CSV for quality statistics "
                        "(auto-discovered next to --input when present)")
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--dump-neighbors", type=Path, help="also write the neighbor lists")
    p.add_argument("--dump-weights", type=Path, help="also write W as i,j,value text")
    p.add_argument("--dump-spectra", type=Path, help="also write per-point spectra")
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("perturb", help="grid-cross weight-stability study")
    p.add_argument("--epsilons", type=float, nargs="+",
                   default=list(diagnostics.DEFAULT_EPSILONS))
    p.add_argument("--trials", type=int, default=diagnostics.DEFAULT_TRIALS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--csv", type=Path, help="also dump raw per-trial distances")
    p.set_defaults(func=cmd_perturb)

    p = sub.add_parser("theorem2",
                       help="preimage objective-value scaling check")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--generator", choices=sorted(datasets.GENERATORS))
    src.add_argument("--input", type=Path, help="points CSV (needs --preimage)")
    p.add_argument("--preimage", type=Path, help="ground-truth parameter CSV")
    p.add_argument("--n-list", type=int, nargs="+", dest="n_list",
                   help="sample sizes with --generator (default 500 1000 2000)")
    p.add_argument("--k", type=int, default=12)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--permutations", type=int, default=20)
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(func=cmd_theorem2)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DisconnectedGraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DISCONNECTED
    except GeneralPositionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GENERAL_POSITION
    except (LdrLleError, np.linalg.LinAlgError) as exc:
        # Before ValueError, which LinAlgError subclasses.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError) as exc:
        # CsvFormatError is a ValueError; missing files land here too.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
