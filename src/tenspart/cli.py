"""Command-line driver: ingest, normalize, approx, partition, expand.

Every run writes its reports into ``--out DIR`` together with the full
effective configuration and sha256 checksums of every file it read (the
input, and the ``--labels`` and ``--recurse`` files when given), so that
identical configs on identical inputs reproduce identical reports.

Exit codes: 0 success, 2 validation error, 3 solver non-convergence
(results are still written), 4 I/O error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

from . import expansion, lowrank, partition, preprocess
from .sparse_tensor import SparseTensor3

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NONCONVERGED = 3
EXIT_IO = 4


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


# the flags of the files a command reads; every one of them is checksummed
_READ_FILES = ("input", "labels", "recurse")


def _write_run_config(args: argparse.Namespace) -> None:
    cfg = {k: v for k, v in vars(args).items() if k != "func"}  # paths written by default=str
    read = (getattr(args, flag, None) for flag in _READ_FILES)
    cfg["input_checksums"] = {str(p): _sha256(p) for p in read if p is not None and Path(p).is_file()}
    with open(args.out / "run_config.json", "w", encoding="utf-8") as fh:
        json.dump(cfg, fh, indent=2, default=str)


# --normalize choice -> slice normalization.  The lambdas look the functions up on
# preprocess at call time, so wrappers patched onto the module (perfbench spans) see them.
_NORMALIZERS = {
    "none": lambda T: T,
    "adjacency": lambda T: preprocess.normalize_slices_adjacency(T),
    "frobenius": lambda T: preprocess.normalize_slices_frobenius(T),
    "nonsymmetric": lambda T: preprocess.nonsymmetric_normalize(T),
}


def _load_tensor(args) -> SparseTensor3:
    return _NORMALIZERS[args.normalize](preprocess.load_coordinate_file(args.input))


def _solver_config(args) -> lowrank.SolverConfig:
    return lowrank.SolverConfig(
        max_iters=args.max_iter,
        rel_tol=args.tol,
        seed=args.seed,
        num_restarts=args.restarts,
    )


def _load_labels(args, extent: int):
    if args.labels is None:
        return None
    return preprocess.load_labels(args.labels, extent)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_ingest(args) -> int:
    if args.format == "tns":
        T = preprocess.load_coordinate_file(args.input)
        labels = None
    else:
        log = preprocess.load_record_log(args.input)
        T, labels = preprocess.bin_and_symmetrize(
            log, args.bin_size, restrict_bidirectional=args.bidirectional_only
        )
    if labels is not None:  # first: a label that cannot be written leaves no tensor behind
        preprocess.save_labels(labels, args.out / "labels.txt")
    preprocess.save_coordinate_file(T, args.out / "tensor.tns")
    print(f"dims {T.dims[0]} {T.dims[1]} {T.dims[2]}  nnz {T.nnz}")
    return EXIT_OK


def cmd_normalize(args) -> int:
    T = _load_tensor(args)
    preprocess.save_coordinate_file(T, args.out / "tensor.tns")
    print(f"normalized ({args.normalize})  dims {T.dims}  nnz {T.nnz}")
    return EXIT_OK


def _run_approx(args, T: SparseTensor3):
    cfg = _solver_config(args)
    ranks = tuple(args.rank)
    if args.symmetric:
        return lowrank.hooi_symmetric(T, ranks, cfg)
    return lowrank.hooi(T, ranks, cfg)


def cmd_approx(args) -> int:
    T = _load_tensor(args)
    approx = _run_approx(args, T)
    lowrank.save_approximation(approx, args.out)
    print(f"objective {approx.objective:.6g}  iterations {len(approx.objective_history)}")
    return EXIT_OK if approx.converged else EXIT_NONCONVERGED


def _load_index_sets(path) -> dict:
    sets = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(sets, dict):
        raise ValueError(f"{path}: expected a JSON object with index sets I and J")
    missing = [key for key in ("I", "J") if key not in sets]
    if missing:
        raise ValueError(f"{path}: missing index set {' and '.join(missing)}")
    return sets


def cmd_partition(args) -> int:
    index_sets = None if args.recurse is None else _load_index_sets(args.recurse)
    T = _load_tensor(args)
    labels = _load_labels(args, T.dims[0])
    approx = _run_approx(args, T)
    report = partition.partition_report(T, approx, labels=labels, corner_width=args.corner_width)
    if index_sets is not None:
        nested, _ = partition.restrict_and_recurse(
            T,
            index_sets["I"],
            index_sets["J"],
            index_sets.get("K", list(range(T.dims[2]))),
            tuple(args.rank),
            _solver_config(args),
            labels=labels,
            symmetric=args.symmetric,
            corner_width=args.corner_width,
        )
        partition.save_partition_report(nested, args.out, prefix="partition_nested")
    partition.save_partition_report(report, args.out)
    lowrank.save_approximation(approx, args.out)
    print(f"splits {report.split_points}  total norm {report.total_norm:.6g}")
    return EXIT_OK if approx.converged else EXIT_NONCONVERGED


def cmd_expand(args) -> int:
    T = _load_tensor(args)
    labels = _load_labels(args, T.dims[0])
    terms, residual_norms = expansion.expand(
        T,
        q=args.terms,
        theta=args.theta,
        mode=args.threshold_mode,
        cfg=_solver_config(args),
    )
    expansion.save_expansion_report(terms, residual_norms, args.out, labels=labels)
    for v, term in enumerate(terms, start=1):
        l1, l2 = term.eigenvalues
        print(
            f"term {v}: ||B_hat|| {term.norm_B_hat:.4g}  ||F|| {term.norm_F:.4g}  "
            f"eig {l1:.4g}/{l2:.4g}  structured {term.structured}"
        )
    print(f"final residual norm {residual_norms[-1]:.6g}")
    return EXIT_OK if all(t.converged for t in terms) else EXIT_NONCONVERGED


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_solver_args(p: argparse.ArgumentParser, *, ranks: bool, labels: bool) -> None:
    if ranks:
        p.add_argument("--rank", nargs=3, type=int, default=[2, 2, 2], metavar=("R1", "R2", "R3"))
        p.add_argument("--symmetric", action="store_true", help="use the shared-factor solver")
    p.add_argument("--normalize", choices=["adjacency", "frobenius", "none"], default="none")
    p.add_argument("--tol", type=float, default=1e-8, help="relative objective tolerance")
    p.add_argument("--max-iter", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--restarts", type=int, default=1)
    if labels:
        p.add_argument("--labels", type=Path, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tenspart",
        description="Sparse 3-tensor partitioning and rank-(2,2,1) expansion toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="convert inputs to canonical .tns form")
    p.add_argument("input", type=Path)
    p.add_argument("--format", choices=["tns", "log-csv"], required=True)
    p.add_argument("--bin-size", type=int, default=1)
    p.add_argument("--bidirectional-only", action="store_true")
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("normalize", help="slice normalization")
    p.add_argument("input", type=Path)
    p.add_argument(
        "--normalize",
        choices=["adjacency", "frobenius", "nonsymmetric"],
        required=True,
    )
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(func=cmd_normalize)

    p = sub.add_parser("approx", help="best rank-(r1,r2,r3) approximation")
    p.add_argument("input", type=Path)
    _add_solver_args(p, ranks=True, labels=False)
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(func=cmd_approx)

    p = sub.add_parser("partition", help="reorder, split and report block norms")
    p.add_argument("input", type=Path)
    _add_solver_args(p, ranks=True, labels=True)
    p.add_argument("--corner-width", type=int, default=None)
    p.add_argument(
        "--recurse",
        type=Path,
        default=None,
        help="JSON file with index sets I, J (and optional K) for a nested run",
    )
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("expand", help="expansion of a symmetric tensor; each term always solves "
                       "rank-(2,2,1) with one shared mode-1/2 factor")
    p.add_argument("input", type=Path)
    _add_solver_args(p, ranks=False, labels=True)
    p.add_argument("--theta", type=float, required=True)
    p.add_argument(
        "--threshold-mode", choices=["positive", "absolute"], default="positive"
    )
    p.add_argument("--terms", type=int, required=True, metavar="Q")
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(func=cmd_expand)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.out.mkdir(parents=True, exist_ok=True)
        code = args.func(args)
        _write_run_config(args)  # only once the command has returned an exit code
        return code
    except (ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())
