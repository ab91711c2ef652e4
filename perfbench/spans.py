"""Span wrappers installed from outside the program, and the per-layer metrics.

A traced pass process replaces public module attributes and methods of
tenspart with wrappers that record one span per call: name, start, end,
parent span, pass id, the rise of the process RSS high-water mark, and a
few derived quantities (flops, file bytes, kept share).  Callers look these
names up at call time, so no program change is needed.  A name that no
longer exists is reported as absent instead of failing the run.

Layer names follow ``<module>.<function>``; several attributes may feed one
layer, e.g. every module-level alias of ``is_12_symmetric``.
"""

from __future__ import annotations

import functools
import os
import resource
import time

import numpy as np

MB = 1024 * 1024

# (module, class or None, attribute, layer)
TARGETS = [
    ("sparse_tensor", "SparseTensor3", "__init__", "sparse_tensor.construct"),
    ("sparse_tensor", "SparseTensor3", "unfolding", "sparse_tensor.unfolding"),
    ("sparse_tensor", "SparseTensor3", "contract_modes12", "sparse_tensor.contract"),
    ("sparse_tensor", "SparseTensor3", "contract_modes13", "sparse_tensor.contract"),
    ("sparse_tensor", "SparseTensor3", "contract_modes23", "sparse_tensor.contract"),
    ("sparse_tensor", None, "mode_multiply", "sparse_tensor.mode_multiply"),
    ("sparse_tensor", None, "is_12_symmetric", "sparse_tensor.is_12_symmetric"),
    ("lowrank", None, "is_12_symmetric", "sparse_tensor.is_12_symmetric"),
    ("preprocess", None, "is_12_symmetric", "sparse_tensor.is_12_symmetric"),
    ("cli", None, "is_12_symmetric", "sparse_tensor.is_12_symmetric"),
    ("expansion", None, "is_12_symmetric", "sparse_tensor.is_12_symmetric"),
    ("partition", None, "permute_mode", "sparse_tensor.permute_mode"),
    ("partition", None, "subtensor", "sparse_tensor.subtensor"),
    ("preprocess", None, "load_record_log", "preprocess.load_record_log"),
    ("preprocess", None, "bin_and_symmetrize", "preprocess.bin_and_symmetrize"),
    ("preprocess", None, "load_coordinate_file", "preprocess.load_coordinate_file"),
    ("preprocess", None, "save_coordinate_file", "preprocess.save_coordinate_file"),
    ("preprocess", None, "load_labels", "preprocess.load_labels"),
    ("preprocess", None, "save_labels", "preprocess.save_labels"),
    ("preprocess", None, "normalize_slices_adjacency", "preprocess.normalize"),
    ("preprocess", None, "normalize_slices_frobenius", "preprocess.normalize"),
    ("preprocess", None, "nonsymmetric_normalize", "preprocess.normalize"),
    ("lowrank", None, "hosvd_init", "lowrank.hosvd_init"),
    ("lowrank", None, "dominant_subspace", "lowrank.dominant_subspace"),
    ("lowrank", None, "hooi", "lowrank.solve"),
    ("lowrank", None, "hooi_symmetric", "lowrank.solve"),
    ("expansion", None, "hooi_symmetric", "lowrank.solve"),
    ("lowrank", None, "save_approximation", "lowrank.save_approximation"),
    ("partition", None, "partition_tensor", "partition.partition_tensor"),
    ("partition", None, "block_norms", "partition.block_norms"),
    ("partition", None, "save_partition_report", "partition.save_partition_report"),
    ("expansion", None, "expand", "expansion.expand"),
    ("expansion", None, "form_B", "expansion.form_B"),
    ("expansion", None, "threshold_B", "expansion.threshold_B"),
    ("expansion", "DeflatedOperator", "contract_modes12", "expansion.deflated_contract"),
    ("expansion", "DeflatedOperator", "contract_modes13", "expansion.deflated_contract"),
    ("expansion", "DeflatedOperator", "contract_modes23", "expansion.deflated_contract"),
    ("expansion", "DeflatedOperator", "norm_squared", "expansion.norm_squared"),
    ("expansion", None, "save_expansion_report", "expansion.save_expansion_report"),
    ("cli", None, "main", "cli.main"),
]

# Per-layer metrics in the order BENCHMARK.json lists them: (name, unit).
LAYER_METRICS = [
    ("preprocess.load_record_log.self_s", "s"),
    ("preprocess.bin_and_symmetrize.self_s", "s"),
    ("preprocess.save_coordinate_file.self_s", "s"),
    ("preprocess.save_coordinate_file.mb_per_s", "MB/s"),
    ("preprocess.load_coordinate_file.self_s", "s"),
    ("preprocess.load_coordinate_file.mb_per_s", "MB/s"),
    ("preprocess.load_coordinate_file.rss_rise_mb", "MB"),
    ("preprocess.normalize.self_s", "s"),
    ("sparse_tensor.is_12_symmetric.calls", "count"),
    ("sparse_tensor.is_12_symmetric.self_s", "s"),
    ("sparse_tensor.construct.calls", "count"),
    ("sparse_tensor.construct.self_s", "s"),
    ("lowrank.hosvd_init.calls", "count"),
    ("lowrank.hosvd_init.self_s", "s"),
    ("lowrank.hosvd_init.rss_rise_mb", "MB"),
    ("lowrank.dominant_subspace.calls", "count"),
    ("lowrank.dominant_subspace.self_s", "s"),
    ("sparse_tensor.mode_multiply.calls", "count"),
    ("sparse_tensor.mode_multiply.self_s", "s"),
    ("sparse_tensor.mode_multiply.flops", "flop"),
    ("sparse_tensor.mode_multiply.bytes", "B_computed"),
    ("sparse_tensor.unfolding.calls", "count"),
    ("sparse_tensor.unfolding.self_s", "s"),
    ("sparse_tensor.contract.self_s", "s"),
    ("lowrank.solve.total_s", "s"),
    ("lowrank.solve.self_s", "s"),
    ("lowrank.solve.rss_rise_mb", "MB"),
    ("lowrank.sweeps", "count"),
    ("lowrank.converged", "ratio"),
    ("partition.partition_tensor.self_s", "s"),
    ("partition.partition_tensor.rss_rise_mb", "MB"),
    ("partition.block_norms.self_s", "s"),
    ("sparse_tensor.subtensor.calls", "count"),
    ("sparse_tensor.subtensor.self_s", "s"),
    ("sparse_tensor.permute_mode.calls", "count"),
    ("sparse_tensor.permute_mode.self_s", "s"),
    ("expansion.form_B.self_s", "s"),
    ("expansion.form_B.rss_rise_mb", "MB"),
    ("expansion.threshold_B.self_s", "s"),
    ("expansion.threshold_B.kept_frac", "ratio"),
    ("expansion.threshold_B.rss_rise_mb", "MB"),
    ("expansion.deflated_contract.calls", "count"),
    ("expansion.deflated_contract.self_s", "s"),
    ("expansion.norm_squared.calls", "count"),
    ("expansion.norm_squared.self_s", "s"),
    ("lowrank.save_approximation.self_s", "s"),
    ("partition.save_partition_report.self_s", "s"),
    ("expansion.save_expansion_report.self_s", "s"),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("trace.overhead_s", "s"),
    ("run.blas1_wall_s", "s"),
]


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs.get(name)


# Derived quantities, computed from a call's arguments and result.  They
# return a dict that is stored on the span.


def _mode_multiply_work(args, kwargs, result):
    """2*nnz*p flops; bytes computed as COO indices+values read plus output written."""
    T, M = _arg(args, kwargs, 0, "T"), _arg(args, kwargs, 1, "M")
    p = np.shape(M)[0]
    return {"flops": 2.0 * T.nnz * p, "bytes": 32.0 * T.nnz + 8.0 * np.size(result)}


def _file_in(args, kwargs, result):
    return {"file_bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


def _file_out(args, kwargs, result):
    return {"file_bytes": os.path.getsize(_arg(args, kwargs, 1, "path"))}


def _kept(args, kwargs, result):
    m = result.shape[0]
    return {"kept_frac": result.nnz / float(m * m)}


def _solve(args, kwargs, result):
    return {"sweeps": len(result.objective_history), "converged": bool(result.converged)}


DERIVED = {
    "sparse_tensor.mode_multiply": _mode_multiply_work,
    "preprocess.load_coordinate_file": _file_in,
    "preprocess.save_coordinate_file": _file_out,
    "expansion.threshold_B": _kept,
    "lowrank.solve": _solve,
}


class Tracer:
    """Collects spans in memory while its wrappers are installed."""

    def __init__(self):
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.pass_id = -1
        self.absent: list[str] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, fn, layer: str):
        derive = DERIVED.get(layer)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(tracer.spans)
            span = {"name": layer, "pass": tracer.pass_id,
                    "parent": tracer.stack[-1] if tracer.stack else None}
            tracer.spans.append(span)
            tracer.stack.append(sid)
            rss0 = _maxrss_mb()
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                span["rss_rise_mb"] = _maxrss_mb() - rss0
                tracer.stack.pop()
            if derive is not None:
                try:
                    span.update(derive(args, kwargs, result))
                except (AttributeError, TypeError, IndexError, OSError):
                    pass  # a changed signature loses the derived figures, not the span
            return result

        return wrapper

    def install(self, package) -> None:
        """Wrap every target that exists on ``package``; record the others."""
        for mod_name, cls_name, attr, layer in TARGETS:
            owner = getattr(package, mod_name, None)
            if owner is not None and cls_name is not None:
                owner = getattr(owner, cls_name, None)
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                self.absent.append(".".join(x for x in (mod_name, cls_name, attr) if x))
                continue
            self._restore.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, layer))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore.clear()


def top_level_time(spans: list[dict], pass_id: int) -> float:
    """Time covered by the spans of one pass that have no parent."""
    return sum(s["end"] - s["start"] for s in spans if s["pass"] == pass_id and s["parent"] is None)


def layer_metrics(spans: list[dict], npasses: int) -> dict[str, float]:
    """Per-pass layer statistics from the spans of ``npasses`` traced passes.

    ``calls``, ``total_s``, ``self_s``, ``flops`` and ``bytes`` are per-pass
    means; ``rss_rise_mb`` is the largest rise of any span; ``mb_per_s`` is
    file bytes over span time; ``kept_frac`` and ``converged`` are means
    over calls; ``lowrank.sweeps`` is the per-pass sum of sweeps over the
    returned solves.
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    by_layer: dict[str, list[int]] = {}
    for sid, s in enumerate(spans):
        by_layer.setdefault(s["name"], []).append(sid)

    out: dict[str, float] = {}
    for layer, ids in by_layer.items():
        dur = [spans[i]["end"] - spans[i]["start"] for i in ids]
        out[f"{layer}.calls"] = len(ids) / npasses
        out[f"{layer}.total_s"] = sum(dur) / npasses
        out[f"{layer}.self_s"] = sum(d - child_time[i] for d, i in zip(dur, ids)) / npasses
        out[f"{layer}.rss_rise_mb"] = max(spans[i]["rss_rise_mb"] for i in ids)
        def derived(key):
            return [spans[i][key] for i in ids if key in spans[i]]

        if derived("file_bytes"):
            out[f"{layer}.mb_per_s"] = sum(derived("file_bytes")) / MB / max(sum(dur), 1e-9)
        for key in ("flops", "bytes"):
            if derived(key):
                out[f"{layer}.{key}"] = sum(derived(key)) / npasses
        if derived("kept_frac"):
            out[f"{layer}.kept_frac"] = float(np.mean(derived("kept_frac")))
        if derived("sweeps"):
            out["lowrank.sweeps"] = sum(derived("sweeps")) / npasses
            out["lowrank.converged"] = float(np.mean(derived("converged")))
    return out
