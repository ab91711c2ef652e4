"""Data ingestion and slice normalization.

File formats
------------
Coordinate tensor file (``.tns``): whitespace-separated lines ``i j k v``
with 1-based indices; ``#`` starts a comment; an optional first
non-comment line ``dims l m n`` fixes the extents (otherwise the maximum
index per mode is used).

Label file: UTF-8 text, one label per line; line N names index N (1-based
on disk, 0-based in memory).

Record log: CSV with a header row and columns ``source,destination,timestamp``.
Ids are arbitrary strings, mapped to a contiguous vocabulary in first-seen
order.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .sparse_tensor import SparseTensor3, is_12_symmetric

__all__ = [
    "LabelTable",
    "RecordLog",
    "TensorFileError",
    "load_coordinate_file",
    "save_coordinate_file",
    "load_labels",
    "save_labels",
    "load_record_log",
    "normalize_slices_adjacency",
    "normalize_slices_frobenius",
    "nonsymmetric_normalize",
    "bin_and_symmetrize",
]


class TensorFileError(ValueError):
    """A malformed input file; the message names the offending line."""


@dataclass(frozen=True)
class LabelTable:
    """Ordered labels for one tensor mode; index lookup is total."""

    labels: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.labels)

    def __getitem__(self, index: int) -> str:
        return self.labels[index]

    @classmethod
    def default(cls, extent: int, prefix: str = "idx") -> "LabelTable":
        return cls(tuple(f"{prefix}{i}" for i in range(extent)))


@dataclass
class RecordLog:
    """Ordered (source-id, destination-id, timestamp) records."""

    records: list[tuple[str, str, str]] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.records)


# ---------------------------------------------------------------------------
# file I/O
# ---------------------------------------------------------------------------


def load_coordinate_file(path) -> SparseTensor3:
    """Read a 1-based ``i j k v`` coordinate file into a tensor.

    Duplicate triples are summed; explicit zeros are dropped.  Extents come
    from an optional ``dims l m n`` header, else from the largest index
    seen per mode.
    """
    i, j, k, v = [], [], [], []
    dims = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if dims is None and not i and parts[0] == "dims":
                if len(parts) != 4:
                    raise TensorFileError(f"{path}:{lineno}: malformed dims header")
                try:
                    dims = tuple(int(p) for p in parts[1:])
                except ValueError:
                    raise TensorFileError(f"{path}:{lineno}: non-integer extent") from None
                continue
            if len(parts) != 4:
                raise TensorFileError(
                    f"{path}:{lineno}: expected 'i j k v', got {len(parts)} fields"
                )
            try:
                ii, jj, kk = int(parts[0]), int(parts[1]), int(parts[2])
                vv = float(parts[3])
            except ValueError:
                raise TensorFileError(f"{path}:{lineno}: non-numeric field") from None
            if min(ii, jj, kk) < 1:
                raise TensorFileError(f"{path}:{lineno}: indices are 1-based, got {parts[:3]}")
            if not math.isfinite(vv):
                raise TensorFileError(f"{path}:{lineno}: non-finite value")
            i.append(ii - 1)
            j.append(jj - 1)
            k.append(kk - 1)
            v.append(vv)
    if dims is None:
        if not i:
            raise TensorFileError(f"{path}: empty coordinate file and no dims header")
        dims = (max(i) + 1, max(j) + 1, max(k) + 1)
    return SparseTensor3(dims, i, j, k, v)


def save_coordinate_file(T: SparseTensor3, path) -> None:
    """Write canonical ``.tns`` output (dims header, 1-based, canonical order)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"dims {T.dims[0]} {T.dims[1]} {T.dims[2]}\n")
        for i, j, k, v in T.entries():
            fh.write(f"{i + 1} {j + 1} {k + 1} {v!r}\n")


def load_labels(path, extent: int | None = None) -> LabelTable:
    labels = Path(path).read_text(encoding="utf-8").splitlines()
    if extent is not None and len(labels) != extent:
        raise TensorFileError(
            f"{path}: {len(labels)} labels but mode extent is {extent}"
        )
    return LabelTable(tuple(labels))


def save_labels(table: LabelTable, path) -> None:
    Path(path).write_text("\n".join(table.labels) + "\n", encoding="utf-8")


def load_record_log(path) -> RecordLog:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise TensorFileError(f"{path}: empty record log") from None
        if len(header) < 3:
            raise TensorFileError(f"{path}:1: header must have 3 columns")
        records = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) < 3:
                raise TensorFileError(f"{path}:{lineno}: expected 3 fields")
            records.append((row[0], row[1], row[2]))
    return RecordLog(records)


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------


def _check_nonnegative(T: SparseTensor3) -> None:
    if T.nnz and T.vals.min() < 0:
        raise ValueError("tensor has negative entries; normalization expects nonnegative data")


def normalize_slices_adjacency(T: SparseTensor3, sym_tol: float = 1e-12) -> SparseTensor3:
    """Replace every 3-slice A by D^{-1/2} A D^{-1/2}, slice-wise degrees.

    Degrees are d = A e per slice; rows/columns with zero degree stay zero.
    The normalized slice of a connected graph has largest eigenvalue 1.
    Requires a (1,2)-symmetric tensor with nonnegative values; on such a
    tensor row and column degrees coincide, so this is
    :func:`nonsymmetric_normalize` behind a symmetry check.
    """
    if not is_12_symmetric(T, tol=sym_tol):
        raise ValueError("tensor is not (1,2)-symmetric; use nonsymmetric_normalize")
    return nonsymmetric_normalize(T)


def normalize_slices_frobenius(T: SparseTensor3, skip_empty: bool = False) -> SparseTensor3:
    """Scale every 3-slice to Frobenius norm 1.

    All-zero slices raise unless ``skip_empty`` is set (then left zero).
    """
    nonempty = np.zeros(T.dims[2], dtype=bool)
    vals = T.vals.copy()
    for kk, run in T.slice_runs():
        nonempty[kk] = True
        norm = math.sqrt(math.fsum(T.vals[run] * T.vals[run]))
        vals[run] = T.vals[run] / norm
    if not skip_empty and not nonempty.all():
        empty = np.flatnonzero(~nonempty)
        raise ValueError(f"all-zero 3-slices at k={empty.tolist()} (pass skip_empty=True)")
    return SparseTensor3(T.dims, T.i, T.j, T.k, vals)


def nonsymmetric_normalize(T: SparseTensor3) -> SparseTensor3:
    """Normalize each slice A as D_r^{-1/2} A D_c^{-1/2} (row/column degrees).

    Equivalent to symmetric adjacency normalization of the symmetric block
    embedding [[0, T], [T', 0]] restricted to its (1,2) block.  Zero rows
    and columns stay zero.
    """
    _check_nonnegative(T)
    l, m, _ = T.dims
    vals = T.vals.copy()
    for _, run in T.slice_runs():
        dr = np.zeros(l)
        dc = np.zeros(m)
        np.add.at(dr, T.i[run], T.vals[run])
        np.add.at(dc, T.j[run], T.vals[run])
        ir = np.zeros(l)
        ic = np.zeros(m)
        ir[dr > 0] = 1.0 / np.sqrt(dr[dr > 0])
        ic[dc > 0] = 1.0 / np.sqrt(dc[dc > 0])
        vals[run] = T.vals[run] * ir[T.i[run]] * ic[T.j[run]]
    return SparseTensor3(T.dims, T.i, T.j, T.k, vals)


# ---------------------------------------------------------------------------
# record-log binning
# ---------------------------------------------------------------------------


def bin_and_symmetrize(
    log: RecordLog,
    bin_size: int,
    restrict_bidirectional: bool = False,
) -> tuple[SparseTensor3, LabelTable]:
    """Turn a record log into a binary (1,2)-symmetric communication tensor.

    Every ``bin_size`` consecutive records form one 3-slice; a_ijk = 1 when
    i and j communicated (either direction) inside bin k.  Values are
    indicators, not counts.  With ``restrict_bidirectional`` the vocabulary
    is limited to ids that both sent and received at least one message.
    """
    if bin_size < 1:
        raise ValueError("bin_size must be >= 1")
    if not log.records:
        raise ValueError("record log is empty")

    vocab: dict[str, int] = {}
    for src, dst, _ in log.records:
        for ident in (src, dst):
            if ident not in vocab:
                vocab[ident] = len(vocab)

    keep = None
    if restrict_bidirectional:
        senders = {src for src, _, _ in log.records}
        receivers = {dst for _, dst, _ in log.records}
        both = senders & receivers
        if not both:
            raise ValueError("no id both sent and received; nothing left after restriction")
        keep = {ident: pos for pos, ident in enumerate(v for v in vocab if v in both)}

    table = keep if keep is not None else vocab
    labels = LabelTable(tuple(table))
    m = len(table)
    n = -(-len(log.records) // bin_size)  # ceil

    seen: set[tuple[int, int, int]] = set()
    i, j, k = [], [], []
    for pos, (src, dst, _) in enumerate(log.records):
        if keep is not None and (src not in keep or dst not in keep):
            continue
        a, b = table[src], table[dst]
        bin_idx = pos // bin_size
        for x, y in ((a, b), (b, a)):
            if (x, y, bin_idx) not in seen:
                seen.add((x, y, bin_idx))
                i.append(x)
                j.append(y)
                k.append(bin_idx)
    vals = np.ones(len(i))
    return SparseTensor3((m, m, n), i, j, k, vals), labels
