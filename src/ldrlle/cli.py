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

# The exit code of a failed command is the first entry its exception matches.
# The order matters: LinAlgError is a ValueError but a numerical failure,
# while CsvFormatError is a ValueError and a usage problem, as is a missing file.
EXIT_CODES = (
    ((DisconnectedGraphError,), EXIT_DISCONNECTED),
    ((GeneralPositionError,), EXIT_GENERAL_POSITION),
    ((LdrLleError, np.linalg.LinAlgError), EXIT_NUMERICAL),
    ((ValueError, OSError), EXIT_USAGE),
)


def cmd_generate(args) -> int:
    out = args.out if args.out is not None else Path(f"{args.name}.csv")
    preimage = datasets.preimage_path(out)
    _refuse_shared_paths([], [("--out", out), ("the preimage beside --out", preimage)])
    sample = datasets.generate(args.name, args.n, args.seed)
    datasets.save_sample(sample, out)
    n, D = sample.points.shape
    print(f"wrote {out} ({n} x {D}) and {preimage}")
    return 0


def _refuse_shared_paths(inputs, outputs) -> None:
    """Raise ValueError, naming the flag, for an output that is an existing
    directory or whose parent is not one, and, naming both flags, for an
    output that names an input or another output.  Both are (flag, path or
    None) pairs; paths compare resolved.  Commands call it before they read
    or write anything."""
    seen = {path.resolve(): flag for flag, path in inputs if path is not None}
    for flag, path in outputs:
        if path is None:
            continue
        if path.is_dir():
            raise ValueError(f"{flag} {path} is a directory; an output must name a file")
        if seen.setdefault(path.resolve(), flag) != flag:
            raise ValueError(f"{flag} {path} is the same file as {seen[path.resolve()]}; "
                             "an output may not overwrite an input or another output")
        if not path.parent.is_dir():
            raise ValueError(f"{flag} {path}: {path.parent} is not an existing directory")


def _inputs(args):
    """The files embed and theorem2 may read.  The preimage beside --input
    counts whether or not it exists: once written, it is read as ground truth."""
    inputs = [("--input", args.input), ("--preimage", args.preimage)]
    if args.input is not None:
        inputs.append(("the preimage beside --input", datasets.preimage_path(args.input)))
    return inputs


def _config(args, **fields) -> dict:
    """The run record a report carries: the command, its seed and its output
    path, plus the command's own fields."""
    return {"command": args.command, "seed": args.seed, "output": str(args.out), **fields}


def _pipeline_config(args, **fields) -> dict:
    """_config plus the sample source, K and d that embed and theorem2 share."""
    return _config(args, input=None if args.input is None else str(args.input),
                   generator=args.generator, K=args.k, d=args.d, **fields)


def _samples(args, flag, sizes, default):
    """The list of (points, preimage or None) pairs: one generated sample per
    size with --generator, else the --input file once, with --preimage or
    else the preimage file beside --input when it exists.  The sizes are the
    caller's size flag's value, or its default when the flag was not given
    (None); the flag is refused with --input.  --k and --d are checked as
    counts first, --d below --k with --method ldr, whose rank-d weights
    discard nothing at d >= K, and every sample is built before the list is
    returned, so a bad count or size is refused before any input is read or
    any knn runs.  With --method classical, --d is checked below N - 1, the
    embedding's own bound, once N is known: before a size is generated, and
    after --input is read; with ldr, --d < --k and knn's K < N imply it."""
    datasets.as_count(args.k, "K")
    datasets.as_count(args.d, "d", (args.k, "K") if args.method == "ldr" else None)
    if args.generator is not None:
        if args.preimage is not None:
            raise ValueError("--preimage applies only with --input: "
                             "a generated sample carries its own preimage")
        sizes = default if sizes is None else sizes
        for n in sizes:
            _embeddable(args, n)
        samples = [datasets.generate(args.generator, n, args.seed) for n in sizes]
        return [(s.points, s.preimage) for s in samples]
    if sizes is not None:
        raise ValueError(f"{flag} applies only with --generator: an --input CSV sets its size")
    X = datasets.load_csv(args.input)
    _embeddable(args, X.shape[0])
    sibling = datasets.preimage_path(args.input)
    pre_path = args.preimage or (sibling if sibling.exists() else None)
    preimage = None if pre_path is None else datasets.load_csv(pre_path)
    if preimage is not None and preimage.shape[0] != X.shape[0]:
        raise ValueError(f"preimage has {preimage.shape[0]} rows but input has {X.shape[0]}")
    return [(X, preimage)]


def _embeddable(args, n) -> None:
    """Refuse a classical --d at or above N - 1 for a sample of n points,
    with embed's own message, from the one owner of a count's range."""
    if args.method == "classical":
        datasets.as_count(args.d, "d", (n - 1, "N - 1"))


def cmd_embed(args) -> int:
    if args.input is not None and args.seed is not None:
        raise ValueError("--seed applies only with --generator: an --input CSV draws nothing")
    if args.method == "ldr" and args.delta is not None:
        raise ValueError("--delta applies only with --method classical: "
                         "the rank-d weights take no regularization")
    _refuse_shared_paths(_inputs(args), [
        ("--out", args.out),
        ("the sidecar of --out", embedding.sidecar_path(args.out)),
        ("--dump-neighbors", args.dump_neighbors),
        ("--dump-weights", args.dump_weights),
        ("--dump-spectra", args.dump_spectra),
    ])
    # The sidecar records the seed and delta that were used, null where none was.
    if args.generator is not None and args.seed is None:
        args.seed = 0
    if args.method == "classical":
        args.delta = weights.DEFAULT_DELTA if args.delta is None else args.delta
        weights.check_delta(args.delta)
    [(X, preimage)] = _samples(args, "--n", None if args.n is None else [args.n], [2000])
    graph = neighbors.knn(X, args.k)
    W, spectra = weights.assemble_weight_matrix(
        X, graph, args.method, d=args.d, delta=args.delta
    )
    emb = embedding.embed(W, args.d)
    diag = diagnostics.linear_projection_diagnostic(
        X, emb.Y, weights=W, preimage=preimage
    )

    meta = _pipeline_config(
        args,
        n=int(X.shape[0]),
        method=args.method,
        delta=args.delta,
        phi=diag.phi_value,
        linear_r2=diag.linear_r2,
        rank_correlation=diag.rank_correlation,
        alpha={
            "min": float(spectra.alpha.min()),
            "mean": float(spectra.alpha.mean()),
            "max": float(spectra.alpha.max()),
        },
        r_max=float(spectra.radius.max()),
        gap_warnings=np.flatnonzero(spectra.gap_warning).tolist(),
    )
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
    config = _config(args, epsilons=list(args.epsilons), trials=args.trials)
    payload = {**diagnostics.perturbation_report_dict(reports), "config": config}
    datasets.write_json(payload, args.out)
    if args.csv is not None:
        datasets.write_rows([
            np.repeat([r.epsilon for r in reports], args.trials),
            np.tile(np.arange(args.trials), len(reports)),
            np.concatenate([r.distances_classical for r in reports]),
            np.concatenate([r.distances_ldr for r in reports]),
        ], args.csv, header=("epsilon", "trial", "classical", "ldr"))

    for row in payload["reports"]:
        print(
            f"epsilon {row['epsilon']:g}: median classical "
            f"{row['classical']['median']:.3e}, median rank-d {row['ldr']['median']:.3e}, "
            f"bound {_shown(row['bound'], '.3e')}, violations {_shown(row['violations'])}"
        )
    total_violations = sum(row["violations"] or 0 for row in payload["reports"])
    if total_violations:
        print(f"error: {total_violations} bound violations", file=sys.stderr)
        return EXIT_NUMERICAL
    return 0


def cmd_theorem2(args) -> int:
    _refuse_shared_paths(_inputs(args), [("--out", args.out)])
    datasets.as_count(args.permutations, "permutations")
    rows = []
    for X, Z in _samples(args, "--n-list", args.n_list, [500, 1000, 2000]):
        if Z is None:
            raise ValueError("the check scores ground-truth parameters: pass --preimage or write "
                             f"{datasets.preimage_path(args.input)}, the preimage beside --input")
        graph = neighbors.knn(X, args.k)
        W, spectra = weights.assemble_weight_matrix(X, graph, args.method, d=args.d)
        result = diagnostics.theorem2_check_from_parts(Z, W, spectra)
        null = diagnostics.permuted_preimage_null(
            W, Z, permutations=args.permutations, seed=args.seed
        )
        # Strict JSON: a quotient over a zero objective is null, as an undefined ratio is.
        over = null / result.phi_z_over_n if result.phi_z_over_n > 0.0 else None
        rows.append(dict(dataclasses.asdict(result), n=int(X.shape[0]),
                         null_phi_z_over_n=null, null_over_phi=over))

    bounded = None
    if len(rows) > 1:
        base = min(rows, key=lambda r: r["n"])["ratio"]
        bounded = base is not None and all(
            r["ratio"] is not None and r["ratio"] <= 2.0 * base for r in rows
        )
    config = _pipeline_config(args, permutations=args.permutations)
    report = {"config": config, "rows": rows, "bounded": bounded}
    datasets.write_json(report, args.out)
    for r in rows:
        print(f"n {r['n']}: phi/n {r['phi_z_over_n']:.3e}, ratio {_shown(r['ratio'], '.3e')}, "
              f"null/phi {_shown(r['null_over_phi'], '.1f')}")
    if bounded is not None:
        print(f"ratio bounded (within 2x of smallest n): {bounded}")
    return 0


def _shown(value, spec="") -> str:
    """A report value as the console prints it: formatted by spec, or "n/a"
    where it is undefined (None)."""
    return "n/a" if value is None else format(value, spec)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ldrlle",
        description="Locally linear embedding with classical or rank-d "
                    "neighborhood weights, plus verification studies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # The source, graph and output flags embed and theorem2 share.
    pipeline = argparse.ArgumentParser(add_help=False)
    src = pipeline.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", type=Path, help="points CSV (headerless)")
    src.add_argument("--generator", choices=sorted(datasets.GENERATORS))
    pipeline.add_argument("--preimage", type=Path,
                          help="ground-truth parameter CSV (auto-discovered next to --input)")
    pipeline.add_argument("--k", type=int, default=12, help="neighbors per point (default 12)")
    pipeline.add_argument("--d", type=int, default=2, help="output dimension (default 2)")
    pipeline.add_argument("--out", type=Path, required=True)

    p = sub.add_parser("generate", help="write a synthetic sample (+ preimage sidecar)")
    p.add_argument("name", choices=sorted(datasets.GENERATORS))
    p.add_argument("--n", type=int, default=2000, help="sample size (default 2000)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=Path, default=None, help="default <name>.csv")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("embed", parents=[pipeline],
                       help="embed a sample and write Y + JSON sidecar")
    p.add_argument("--n", type=int, help="sample size with --generator (default 2000)")
    p.add_argument("--method", choices=("classical", "ldr"), default="ldr")
    p.add_argument("--delta", type=float,
                   help="classical regularization scale (default 1e-9; "
                        "refused with --method ldr)")
    p.add_argument("--seed", type=int,
                   help="sample seed with --generator (default 0; refused with --input)")
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

    p = sub.add_parser("theorem2", parents=[pipeline],
                       help="preimage objective-value scaling check")
    p.add_argument("--n-list", type=int, nargs="+", dest="n_list",
                   help="sample sizes with --generator (default 500 1000 2000)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--permutations", type=int, default=20)
    p.set_defaults(func=cmd_theorem2, method="ldr")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except tuple(kind for kinds, _ in EXIT_CODES for kind in kinds) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kinds, code in EXIT_CODES if isinstance(exc, kinds))


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
