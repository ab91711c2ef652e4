"""One pass of each workload, run inside the pass process.

Every pass starts from the inputs on disk or from the arrays loaded at
set-up, builds a fresh ``SparseTensor3`` (no unfolding cache survives from
one pass to the next), and writes its outputs to ``out``.  Library names are
looked up on their modules at call time, so the span wrappers of a traced
run see every call.  A pass returns ``False`` when the program reports a
failure (non-zero CLI exit or a solve flagged not converged).
"""

from __future__ import annotations

import contextlib
import io
from pathlib import Path

import numpy as np

from tenspart import cli, expansion, lowrank, partition, preprocess, sparse_tensor

import inputs


def _warm(d: Path, names) -> None:
    """Read input files once, so every pass finds them in the page cache."""
    for name in names:
        with open(d / name, "rb") as fh:
            while fh.read(1 << 20):
                pass


def _load_arrays(d: Path, name: str) -> dict:
    with np.load(d / name) as z:
        return {key: z[key] for key in z.files}


def _cli(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main([str(a) for a in argv])


def setup_log_partition(d: Path):
    _warm(d, ["log.csv"])
    return [d]


def pass_log_partition(d: Path, out: Path) -> bool:
    rc = _cli(["ingest", d / "log.csv", "--format", "log-csv", "--bin-size", inputs.LOG_BIN,
               "--out", out / "ingest"])
    if rc != 0:
        return False
    rc = _cli(["partition", out / "ingest" / "tensor.tns", "--symmetric", "--rank", "2", "2", "1",
               "--normalize", "adjacency", "--labels", out / "ingest" / "labels.txt", "--out", out / "part"])
    return rc == 0


def setup_expand_sym(d: Path):
    return [_load_arrays(d, f"tensor{v}.npz") for v in range(inputs.VARIANTS)]


def pass_expand_sym(a: dict, out: Path) -> bool:
    T = sparse_tensor.SparseTensor3(a["dims"], a["i"], a["j"], a["k"], a["vals"])
    terms, residual_norms = expansion.expand(T, q=3, theta=0.25, mode="positive")
    expansion.save_expansion_report(terms, residual_norms, out)
    return all(t.converged for t in terms)


def setup_approx_general(d: Path):
    return [_load_arrays(d, f"tensor{v}.npz") for v in range(inputs.VARIANTS)]


def pass_approx_general(a: dict, out: Path) -> bool:
    T = sparse_tensor.SparseTensor3(a["dims"], a["i"], a["j"], a["k"], a["vals"])
    T = preprocess.nonsymmetric_normalize(T)
    approx = lowrank.hooi(T, (2, 2, 2), lowrank.SolverConfig(num_restarts=3))
    report, _ = partition.partition_tensor(T, approx)
    lowrank.save_approximation(approx, out)
    partition.save_partition_report(report, out)
    return approx.converged


# workload -> (set-up returning one pass argument per input variant, pass)
PASSES = {
    "log_partition": (setup_log_partition, pass_log_partition),
    "expand_sym": (setup_expand_sym, pass_expand_sym),
    "approx_general": (setup_approx_general, pass_approx_general),
}
