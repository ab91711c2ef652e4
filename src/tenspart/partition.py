"""Reordering-based spectral-style partitioning of 3-tensors.

The workflow mirrors the matrix case: take the factor matrices of a best
low-rank approximation, reorder each mode so the second factor column
becomes monotone (nonincreasing), split at the sign change of that column,
and read off block norms and per-end label rankings from the reordered
tensor.  The third (temporal) mode is treated exactly like modes 1 and 2.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .lowrank import RankApproximation, SolverConfig, hooi, hooi_symmetric
from .preprocess import LabelTable
from .sparse_tensor import SparseTensor3, _norm, frobenius_norm, permute_modes, subtensor

__all__ = [
    "PartitionReport",
    "monotone_reorder",
    "sign_change_split",
    "block_norms",
    "corner_block_norms",
    "significance_ranking",
    "partition_report",
    "partition_tensor",
    "restrict_and_recurse",
    "save_partition_report",
]

# labels ranked at each end of mode 1, and in its middle sample
_TOP_K = 25


@dataclass
class PartitionReport:
    """Everything the reordering workflow produces for one tensor."""

    mode1_perm: np.ndarray
    mode2_perm: np.ndarray
    mode3_perm: np.ndarray
    split_points: dict[int, int]
    no_split_flags: dict[int, bool]
    total_norm: float
    block_norm_table: np.ndarray | None = None
    block_boundaries: tuple[list[int], list[int]] | None = None
    top_terms: dict[str, list[tuple[str, float]]] | None = None
    insignificance_scores: np.ndarray | None = None
    symmetric: bool = False

    def to_dict(self) -> dict:
        d = {
            "mode1_perm": self.mode1_perm.tolist(),
            "mode2_perm": self.mode2_perm.tolist(),
            "mode3_perm": self.mode3_perm.tolist(),
            "split_points": {str(k): v for k, v in self.split_points.items()},
            "no_split_flags": {str(k): v for k, v in self.no_split_flags.items()},
            "total_norm": self.total_norm,
            "symmetric": self.symmetric,
        }
        if self.block_norm_table is not None:
            d["block_norm_table"] = self.block_norm_table.tolist()
            d["block_boundaries"] = [list(b) for b in self.block_boundaries]
            # squared at the total's power-of-two scale: finite, and table**2 / total**2 where that is
            e = np.frexp(self.total_norm)[1]
            d["block_mass_fractions"] = (
                (np.ldexp(self.block_norm_table, -e) ** 2 / np.ldexp(self.total_norm, -e) ** 2).tolist()
                if self.total_norm > 0 else None
            )
        if self.top_terms is not None:
            d["top_terms"] = self.top_terms
        if self.insignificance_scores is not None:
            d["insignificance_scores"] = self.insignificance_scores.tolist()
        return d


def monotone_reorder(U: np.ndarray):
    """Permutation sorting the second factor column into nonincreasing order.

    Returns (perm, u1_reordered, u2_reordered) where ``perm`` is in gather
    convention (``u2[perm]`` is sorted).  The sort is stable, so ties keep
    their original relative order.
    """
    U = np.asarray(U, dtype=float)
    if U.ndim != 2 or U.shape[1] < 2:
        raise ValueError("need a factor matrix with at least two columns")
    perm = np.argsort(-U[:, 1], kind="stable")
    return perm, U[perm, 0], U[perm, 1]


def sign_change_split(u2_reordered: np.ndarray):
    """Index of the sign change in a nonincreasing second-column vector.

    Returns (split, no_split_flag): the smallest s with u2[s-1] >= 0 > u2[s].
    Without a sign change the split is 0 or the extent and the flag is set.
    """
    u2 = np.asarray(u2_reordered, dtype=float)
    change = np.flatnonzero(u2 < 0)
    if change.size == 0:
        return len(u2), True
    s = int(change[0])
    return (s, False) if s > 0 else (0, True)


def _block_of(bounds: list[int], perm: np.ndarray) -> np.ndarray:
    """Block number, under the increasing cuts ``bounds``, of every index's
    position after the reordering by ``perm`` (gather convention): the
    per-position block table composed with the inverse permutation."""
    moved = np.empty_like(perm)
    moved[perm] = np.repeat(np.arange(len(bounds) - 1), np.diff(bounds))
    return moved


def _entry_blocks(T: SparseTensor3, bounds1, bounds2, perm1, perm2) -> np.ndarray:
    """Block id a * (len(bounds2) - 1) + b of every entry of T, its rows and
    columns reordered by ``perm1`` and ``perm2`` (see :func:`_block_of`)."""
    ids = _block_of(bounds1, perm1)[T.i]
    ids *= len(bounds2) - 1
    ids += _block_of(bounds2, perm2)[T.j]
    return ids


def block_norms(
    T: SparseTensor3,
    bounds1: list[int],
    bounds2: list[int],
) -> np.ndarray:
    """Frobenius norms of the blocks T[I_a, J_b, :] defined by boundary cuts.

    ``bounds1``/``bounds2`` are increasing cut positions including 0 and
    the extent; block (a, b) covers rows [bounds1[a], bounds1[a+1]) and
    columns [bounds2[b], bounds2[b+1]).  Over a full partition the squared
    norms sum to ||T||^2.
    """
    l, m, _ = T.dims
    for bounds, extent in ((bounds1, l), (bounds2, m)):
        if bounds[0] != 0 or bounds[-1] != extent or any(
            b >= c for b, c in zip(bounds, bounds[1:])
        ):
            raise ValueError(f"invalid block boundaries {bounds} for extent {extent}")
    # block id of every entry, then one correctly rounded sum of squares
    # per block: the same sums as the norms of the blocks cut out one by one
    rows, cols = len(bounds1) - 1, len(bounds2) - 1
    ids = _entry_blocks(T, bounds1, bounds2, np.arange(l), np.arange(m))
    return _norm(T.vals, ids, rows * cols).reshape(rows, cols)


def _corner_bounds(dims, width: int) -> tuple[list[int], list[int]]:
    l, m, _ = dims
    if not 0 < width < min(l, m) / 2:
        raise ValueError(f"corner width {width} invalid for dims {dims}")
    return [0, width, l - width, l], [0, width, m - width, m]


def corner_block_norms(T: SparseTensor3, width: int):
    """3x3 corner-block table: outermost blocks are ``width`` indices wide."""
    b1, b2 = _corner_bounds(T.dims, width)
    return block_norms(T, b1, b2), (b1, b2)


def significance_ranking(
    u1: np.ndarray, u2: np.ndarray, labels: LabelTable, k: int
) -> dict[str, list[tuple[str, float]]]:
    """Top-k labels at each end of the reordered mode plus a middle sample.

    Expects already-reordered u1/u2 and labels permuted the same way.  The
    middle sample is centered at the sign-change split of u2.  Scores are
    the |u1| magnitudes (small values mark insignificant indices).  ``k``
    must be at least 1 and at most the extent.
    """
    extent = len(u1)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k > extent:
        raise ValueError(f"k={k} exceeds extent {extent}")
    if len(labels) != extent:
        raise ValueError("labels length must equal the mode extent")
    split, _ = sign_change_split(u2)
    mid_lo = max(0, min(extent - k, split - k // 2))
    score = np.abs(np.asarray(u1, dtype=float))

    def take(idx):
        return [(labels[int(t)], float(score[int(t)])) for t in idx]

    return {
        "head": take(range(k)),
        "middle": take(range(mid_lo, mid_lo + k)),
        "tail": take(range(extent - k, extent)),
    }


def _check_labels(labels: LabelTable | None, extent: int) -> None:
    if labels is not None and len(labels) != extent:
        raise ValueError(f"{len(labels)} labels for a mode-1 extent of {extent}")


def partition_report(
    T: SparseTensor3,
    approx: RankApproximation,
    labels: LabelTable | None = None,
    corner_width: int | None = None,
) -> PartitionReport:
    """Report how the approximation factors reorder and split the tensor.

    Each mode is reordered by its own factor; when V is U (a shared-factor
    solve) modes 1 and 2 get equal permutations and splits, and the report
    is flagged ``symmetric``.  ``corner_width`` defaults to 10% of the
    smaller mode-1/2 extent; it must be positive, and a width of at least
    half that extent skips the corner table.  ``labels``, when given, must
    hold one label per mode-1 index (checked before any work); the report
    then ranks the first, middle and last ``_TOP_K`` = 25 of them, or all
    when mode 1 is shorter (see :func:`significance_ranking`).

    No reordered tensor is built.  The corner table and the total norm are
    read off T's own entries: every entry's block is looked up through the
    per-index block tables composed with the inverse permutations, so the
    table is bitwise what :func:`block_norms` of the reordered tensor
    gives, and the total comes from the same pass's exact level sums,
    bitwise :func:`frobenius_norm` of T.  That pass holds three nnz-sized
    arrays.
    """
    l, m, n = T.dims
    if approx.U.shape[0] != l or approx.V.shape[0] != m or approx.W.shape[0] != n:
        raise ValueError("approximation factors do not match tensor dims")
    _check_labels(labels, l)
    p1, u1, u2 = monotone_reorder(approx.U)
    p2, _, v2 = monotone_reorder(approx.V)
    if approx.W.shape[1] >= 2:
        p3, w1, w2 = monotone_reorder(approx.W)
        s3, f3 = sign_change_split(w2)
    else:
        p3 = np.argsort(-approx.W[:, 0], kind="stable")
        s3, f3 = len(p3), True

    s1, f1 = sign_change_split(u2)
    s2, f2 = sign_change_split(v2)

    if corner_width is None:
        corner_width = max(1, min(l, m) // 10)
    table = boundaries = None
    if corner_width < min(l, m) / 2:
        b1, b2 = boundaries = _corner_bounds(T.dims, corner_width)
        ids = _entry_blocks(T, b1, b2, p1, p2)
        table, total_norm = _norm(T.vals, ids, 9, total=True)
        table = table.reshape(3, 3)
    else:
        total_norm = frobenius_norm(T)

    top_terms = None
    if labels is not None:
        reord_labels = LabelTable(tuple(labels[int(t)] for t in p1))
        top_terms = significance_ranking(u1, u2, reord_labels, min(_TOP_K, l))

    return PartitionReport(
        mode1_perm=p1,
        mode2_perm=p2,
        mode3_perm=p3,
        split_points={1: s1, 2: s2, 3: s3},
        no_split_flags={1: f1, 2: f2, 3: f3},
        total_norm=total_norm,
        block_norm_table=table,
        block_boundaries=boundaries,
        top_terms=top_terms,
        insignificance_scores=np.abs(approx.U[:, 0]),
        symmetric=approx.V is approx.U,
    )


def partition_tensor(
    T: SparseTensor3,
    approx: RankApproximation,
    labels: LabelTable | None = None,
    corner_width: int | None = None,
):
    """(:func:`partition_report`, T reordered by the report's permutations).

    The arguments are those of :func:`partition_report`, checked there
    before any work.  The report is made first, so its nnz-sized arrays
    are freed before the reordering (:func:`permute_modes`), which peaks
    at about 33 bytes per entry with the reordered tensor included.
    """
    report = partition_report(T, approx, labels, corner_width)
    return report, permute_modes(T, report.mode1_perm, report.mode2_perm, report.mode3_perm)


def restrict_and_recurse(
    T: SparseTensor3,
    I,
    J,
    K,
    ranks: tuple[int, int, int],
    cfg: SolverConfig | None = None,
    labels: LabelTable | None = None,
    symmetric: bool = False,
    corner_width: int | None = None,
) -> PartitionReport:
    """Re-run the approximation on the subtensor T[I, J, K] and report its partition.

    Labels, when given, must hold one label per mode-1 index of T (checked
    before any work) and are carried through to the restricted mode-1 index
    set, and ``corner_width`` is passed to :func:`partition_report`; no
    reordered subtensor is built.  Raises when the restriction has no
    support.
    """
    _check_labels(labels, T.dims[0])
    sub = subtensor(T, I, J, K)
    if sub.nnz == 0:
        raise ValueError("restricted subtensor has no support")
    approx = hooi_symmetric(sub, ranks, cfg) if symmetric else hooi(sub, ranks, cfg)
    sub_labels = None
    if labels is not None:
        sub_labels = LabelTable(tuple(labels[int(t)] for t in np.asarray(I, dtype=int)))
    return partition_report(sub, approx, labels=sub_labels, corner_width=corner_width)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _format_top_terms(top_terms: dict[str, list[tuple[str, float]]]) -> str:
    cols = ["head", "middle", "tail"]
    rows = max(len(top_terms[c]) for c in cols)
    lines = [f"{'beginning':<28}{'middle':<28}{'end':<28}"]
    lines.append("-" * 84)
    for r in range(rows):
        cells = []
        for c in cols:
            cells.append(top_terms[c][r][0] if r < len(top_terms[c]) else "")
        lines.append("".join(f"{cell:<28}" for cell in cells))
    return "\n".join(lines)


def save_partition_report(report: PartitionReport, outdir, prefix: str = "partition") -> None:
    """Write JSON report, per-mode permutation files and plain-text tables."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    with open(outdir / f"{prefix}_report.json", "w", encoding="utf-8") as fh:
        json.dump(report.to_dict(), fh, indent=2)
    for mode, perm in ((1, report.mode1_perm), (2, report.mode2_perm), (3, report.mode3_perm)):
        np.savetxt(outdir / f"{prefix}_perm_mode{mode}.txt", perm, fmt="%d")
    lines = [f"total norm: {report.total_norm:.6g}"]
    for mode in (1, 2, 3):
        flag = " (no sign change)" if report.no_split_flags[mode] else ""
        lines.append(f"mode {mode} split at {report.split_points[mode]}{flag}")
    if report.block_norm_table is not None:
        lines.append("")
        lines.append("block norms (rows: mode-1 blocks, cols: mode-2 blocks):")
        for row in report.block_norm_table:
            lines.append("  " + "  ".join(f"{x:10.4g}" for x in row))
    if report.top_terms is not None:
        lines.append("")
        lines.append(_format_top_terms(report.top_terms))
    (outdir / f"{prefix}_tables.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
