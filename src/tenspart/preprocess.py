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
import io
import math
import re
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .sparse_tensor import SparseTensor3, _norm, _symmetry_tol, is_12_symmetric

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
    seen per mode.  Plain files are parsed in one call to numpy's C text
    reader; anything else (comments, odd bytes, a malformed or invalid
    line) goes through the line-by-line reader, whose errors name the line.
    """
    with open(path, "rb") as fh:
        parsed = _parse_plain_coordinates(fh.read())
    if parsed is None:
        return _load_coordinate_lines(path)
    dims, i, j, k, v = parsed
    if dims is None:
        dims = (int(i.max()), int(j.max()), int(k.max()))
    return SparseTensor3(dims, i - 1, j - 1, k - 1, v)


_LEADING_BLANKS = re.compile(rb"[ \t\r\n]*")
_DIMS_HEADER = re.compile(rb"dims[ \t]+(\d+)[ \t]+(\d+)[ \t]+(\d+)[ \t]*\r?(?:\n|\Z)")
# the bytes of a plain body; numpy may read any other byte unlike the line reader
_PLAIN_BYTES = b"0123456789+-.eE \t\r\n"
_ENTRY = np.dtype([("i", np.int64), ("j", np.int64), ("k", np.int64), ("v", np.float64)])


def _parse_plain_coordinates(data: bytes):
    """(dims or None, i, j, k, v) with 1-based indices, or None.

    Accepts only files the line reader reads to the same tensor: an
    optional ``dims`` header of plain digits on the first non-blank line,
    then a body of digits, ``+-.eE``, blanks and line ends that numpy's
    ``loadtxt`` reads as lines of four fields (three ``int64`` indices
    >= 1 and a finite double; numpy parses both as ``int`` and ``float``
    do).  Returns None for everything else, including a file without
    entries, so the line reader decides and names the offending line.
    """
    start = _LEADING_BLANKS.match(data).end()
    dims = None
    if data.startswith(b"dims", start):
        header = _DIMS_HEADER.match(data, start)
        if header is None:
            return None
        dims = tuple(int(g) for g in header.groups())
        start = _LEADING_BLANKS.match(data, header.end()).end()
    if start == len(data) or data[start:].translate(None, _PLAIN_BYTES):
        return None
    body = io.BytesIO(data)
    body.seek(start)
    try:
        # numpy < 2 only warns on "1.0" in an int column; as an error it raises ValueError
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            rows = np.loadtxt(body, dtype=_ENTRY, comments=None, ndmin=1)
    except ValueError:
        return None
    i, j, k, v = rows["i"], rows["j"], rows["k"], rows["v"]
    if min(i.min(), j.min(), k.min()) < 1 or not np.all(np.isfinite(v)):
        return None
    return dims, i, j, k, v


def _load_coordinate_lines(path) -> SparseTensor3:
    """Line-by-line reader; the reference semantics of :func:`load_coordinate_file`."""
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


# entries per writer chunk; bounds the writer's transient memory
_WRITE_CHUNK = 1 << 15


def _tokens(column: np.ndarray, fmt, end: str) -> tuple[np.ndarray, np.ndarray]:
    """Per-entry padded token bytes ``fmt(x) + end`` and the mask of their used bytes."""
    distinct, inverse = np.unique(column, return_inverse=True)
    text = [fmt(x) + end for x in distinct.tolist()]
    table = np.array(text, dtype="S").view(np.uint8).reshape(len(text), -1)
    used = np.arange(table.shape[1]) < np.array([len(t) for t in text])[:, None]
    return table[inverse], used[inverse]


def save_coordinate_file(T: SparseTensor3, path) -> None:
    """Write canonical ``.tns`` output (dims header, 1-based, canonical order).

    Each entry is the line ``f"{i+1} {j+1} {k+1} {v!r}\\n"``.  The lines are
    built chunk by chunk: ``str``/``repr`` run once per distinct number of a
    column in the chunk, and one masked gather from the padded token tables
    gives the chunk's bytes.
    """
    with open(path, "wb") as fh:
        fh.write(f"dims {T.dims[0]} {T.dims[1]} {T.dims[2]}\n".encode())
        for a in range(0, T.nnz, _WRITE_CHUNK):
            b = a + _WRITE_CHUNK
            fields = [
                _tokens(T.i[a:b] + 1, str, " "),
                _tokens(T.j[a:b] + 1, str, " "),
                _tokens(T.k[a:b] + 1, str, " "),
                _tokens(T.vals[a:b], repr, "\n"),
            ]
            rows = np.concatenate([table for table, _ in fields], axis=1)
            used = np.concatenate([mask for _, mask in fields], axis=1)
            fh.write(rows[used])


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


def normalize_slices_adjacency(T: SparseTensor3) -> SparseTensor3:
    """Replace every 3-slice A by D^{-1/2} A D^{-1/2}, slice-wise degrees.

    Degrees are d = A e per slice; rows/columns with zero degree stay zero.
    The normalized slice of a connected graph has largest eigenvalue 1.
    Requires a (1,2)-symmetric tensor with nonnegative values; on such a
    tensor row and column degrees coincide, so this is
    :func:`nonsymmetric_normalize` behind a symmetry check.
    """
    if not is_12_symmetric(T, tol=_symmetry_tol(T)):
        raise ValueError("tensor is not (1,2)-symmetric; use nonsymmetric_normalize")
    return nonsymmetric_normalize(T)


def normalize_slices_frobenius(T: SparseTensor3, skip_empty: bool = False) -> SparseTensor3:
    """Scale every 3-slice to Frobenius norm 1.

    All-zero slices raise unless ``skip_empty`` is set (then left zero).
    Only values change, so the result keeps the input's index arrays and
    its canonical stack's pattern, if built.
    """
    n = T.dims[2]
    if not skip_empty:
        empty = np.flatnonzero(np.bincount(T.k, minlength=n) == 0)
        if empty.size:
            raise ValueError(f"all-zero 3-slices at k={empty.tolist()} (pass skip_empty=True)")
    norms = _norm(T.vals, T.k, n)
    return T._with_values(T.vals / norms[T.k])


def _inv_sqrt(d: np.ndarray) -> np.ndarray:
    out = np.zeros_like(d)
    pos = d > 0
    out[pos] = 1.0 / np.sqrt(d[pos])
    return out


def nonsymmetric_normalize(T: SparseTensor3) -> SparseTensor3:
    """Normalize each slice A as D_r^{-1/2} A D_c^{-1/2} (row/column degrees).

    Equivalent to symmetric adjacency normalization of the symmetric block
    embedding [[0, T], [T', 0]] restricted to its (1,2) block.  Zero rows
    and columns stay zero.  The degrees of all slices come from one
    ``bincount`` per side over the codes k*l + i and k*m + j, which adds
    each degree's terms in entry order; only values change, so the result
    keeps the input's index arrays and its canonical stack's pattern, if
    built (the symmetry check of :func:`normalize_slices_adjacency` builds it).
    """
    _check_nonnegative(T)
    l, m, n = T.dims
    row = T.k * l + T.i
    col = T.k * m + T.j
    ir = _inv_sqrt(np.bincount(row, weights=T.vals, minlength=n * l))
    ic = _inv_sqrt(np.bincount(col, weights=T.vals, minlength=n * m))
    vals = T.vals * ir[row] * ic[col]
    return T._with_values(vals)


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

    records = log.records
    vocab = dict.fromkeys(ident for src, dst, _ in records for ident in (src, dst))
    if restrict_bidirectional:
        both = {src for src, _, _ in records} & {dst for _, dst, _ in records}
        if not both:
            raise ValueError("no id both sent and received; nothing left after restriction")
        vocab = dict.fromkeys(v for v in vocab if v in both)

    labels = LabelTable(tuple(vocab))
    table = {ident: pos for pos, ident in enumerate(vocab)}
    m = len(table)
    n = -(-len(records) // bin_size)  # ceil

    # codes -1 mark ids left out by the restriction; such records are dropped
    a = np.fromiter((table.get(src, -1) for src, _, _ in records), np.int64, len(records))
    b = np.fromiter((table.get(dst, -1) for _, dst, _ in records), np.int64, len(records))
    kept = (a >= 0) & (b >= 0)
    a, b = a[kept], b[kept]
    bins = np.flatnonzero(kept) // bin_size
    # both orientations; repeats (and a self-loop's two copies) sum, then become 1
    T = SparseTensor3(
        (m, m, n), np.concatenate((a, b)), np.concatenate((b, a)),
        np.concatenate((bins, bins)), np.ones(2 * a.size),
    )
    return T._with_values(np.ones(T.nnz)), labels
