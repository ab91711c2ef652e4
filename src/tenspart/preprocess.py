"""Data ingestion and slice normalization.

File formats
------------
Coordinate tensor file (``.tns``): whitespace-separated lines ``i j k v``
with 1-based indices; ``#`` starts a comment; an optional first
non-comment line ``dims l m n`` fixes the extents (otherwise the maximum
index per mode is used).

Label file: UTF-8 text, one label per line; line N names index N (1-based
on disk, 0-based in memory).  Lines end in LF or CRLF; no other character
(CR alone, U+0085, U+2028, ...) breaks a line, so a label may hold it.

Record log: CSV with a header row and columns ``source,destination,timestamp``
(further columns are ignored).  The timestamp column must be present but is
not read: records are binned by their order in the file.  Ids are arbitrary
strings, mapped to a contiguous vocabulary in first-seen order.  The file is
read once and split into two columns of strings, sources and destinations,
with no object per record: a plain file (no ``"``, no NUL, no CR outside a
CRLF line end, and exactly three fields on every line after the header)
chunk by chunk of whole lines, any other file by ``csv.reader``, the
reference, whose errors name the line.  Either way equal ids share one
string.
"""

from __future__ import annotations

import csv
import io
import math
import os
import re
import warnings
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .sparse_tensor import (
    SparseTensor3,
    _check_cells,
    _check_size,
    _decode,
    _norm,
    _require_12_symmetric,
)

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
    """Ordered records as two equal-length columns of strings.

    Record r is the message ``sources[r]`` -> ``destinations[r]``; its
    position r is all that binning reads of its time.  No tuple per record
    is kept.
    """

    sources: list[str] = field(default_factory=list)
    destinations: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if len(self.sources) != len(self.destinations):
            raise ValueError("record log columns differ in length")

    def __len__(self) -> int:
        return len(self.sources)


# ---------------------------------------------------------------------------
# file I/O
# ---------------------------------------------------------------------------


def load_coordinate_file(path) -> SparseTensor3:
    """Read a 1-based ``i j k v`` coordinate file into a tensor.

    Duplicate triples are summed; explicit zeros are dropped.  Extents come
    from an optional ``dims l m n`` header, else from the largest index
    seen per mode.  A plain file (see :func:`_parse_plain_coordinates`) is
    checked once as bytes and then parsed by numpy's C text reader from
    its path, chunk by chunk, into four typed columns, which the loader
    decrements in place and hands to the tensor read-only: a file in
    canonical order, as :func:`save_coordinate_file` writes it, is kept as
    read without a sort or a copy.  Anything else (comments, odd bytes, a
    malformed or invalid line, a compressed-file suffix, a file changed
    between the check and the parse) goes through the line-by-line
    reader, whose errors name the line.
    """
    parsed = _parse_plain_coordinates(path)
    if parsed is None:
        return _load_coordinate_lines(path)
    dims, i, j, k, v = parsed
    if dims is None:
        dims = (int(i.max()), int(j.max()), int(k.max()))
    for column in (i, j, k):
        column -= 1
    for column in (i, j, k, v):
        column.flags.writeable = False  # read-only and owned: the constructor need not copy it
    return SparseTensor3(dims, i, j, k, v)


_LEADING_BLANKS = re.compile(rb"[ \t\r\n]*")
_DIMS_HEADER = re.compile(rb"dims[ \t]+(\d+)[ \t]+(\d+)[ \t]+(\d+)[ \t]*(?:\r\n?|\n|\Z)")
# the bytes of a plain body; numpy may read any other byte unlike the line reader
_PLAIN_BYTES = b"0123456789+-.eE \t\r\n"
_ENTRY = np.dtype([("i", np.int64), ("j", np.int64), ("k", np.int64), ("v", np.float64)])
# suffixes numpy's file opener decompresses by name
_COMPRESSED = (".gz", ".bz2", ".xz", ".lzma")


def _parse_plain_coordinates(path):
    """(dims or None, i, j, k, v) with 1-based indices in owned columns, or None.

    Accepts only files the line reader reads to the same tensor: an
    optional ``dims`` header of plain digits on the first non-blank line,
    then a body of digits, ``+-.eE``, blanks and line ends that numpy's
    ``loadtxt`` reads as lines of four fields (three ``int64`` indices
    >= 1 and a finite double; numpy parses both as ``int`` and ``float``
    do).  The bytes are checked on one read of the file and freed; then
    ``loadtxt`` reads the file again from its absolute path, which it does
    in chunks, skipping the lines before the body as its text-mode open
    counts them (LF, CRLF and a lone CR end a line).  Returns None for
    everything else, including a file without entries, a name numpy would
    decompress, and a file whose inode, size or modification time differ
    between the two reads, so the line reader decides and names the
    offending line.
    """
    path = os.path.abspath(os.fsdecode(path))  # numpy takes a relative "scheme://..." for a URL
    if path.endswith(_COMPRESSED):
        return None
    with open(path, "rb") as fh:
        checked = os.fstat(fh.fileno())
        data = fh.read()
    start = _LEADING_BLANKS.match(data).end()
    dims = header = None
    if data.startswith(b"dims", start):
        header = _DIMS_HEADER.match(data, start)
        if header is None:
            return None
        dims = tuple(int(g) for g in header.groups())
        start = _LEADING_BLANKS.match(data, header.end()).end()
    if start == len(data) or data[start:].translate(None, _PLAIN_BYTES):
        return None
    head = data[:start]
    skip = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")
    del data, head, header  # a match holds the bytes it was made on
    try:
        # numpy < 2 only warns on "1.0" in an int column; as an error it raises ValueError
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            rows = np.loadtxt(path, dtype=_ENTRY, comments=None, skiprows=skip, ndmin=1,
                              encoding="latin1")
        parsed = os.stat(path)
    except (ValueError, OSError):
        return None
    same = ("st_dev", "st_ino", "st_size", "st_mtime_ns")
    if any(getattr(checked, f) != getattr(parsed, f) for f in same):
        return None
    i, j, k, v = (rows[name].copy() for name in _ENTRY.names)
    del rows
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


def _digits(column: np.ndarray, rows: np.ndarray, used: np.ndarray) -> None:
    """Fill ``rows`` with the decimal digits of ``column`` (all >= 1) and a blank.

    Row p holds byte p of every entry's token: the digits right-aligned in
    all rows but the last, which is the blank.  ``used`` marks the bytes to
    keep, i.e. all but the leading zeros.
    """
    rows[-1] = ord(" ")
    used[-1] = True
    rest = column
    for p in range(rows.shape[0] - 2, -1, -1):
        used[p] = rest > 0
        high = rest // 10  # floor division by a scalar: far cheaper than divmod
        rows[p] = rest - high * 10
        rest = high
    rows[:-1] += ord("0")


def save_coordinate_file(T: SparseTensor3, path) -> None:
    """Write canonical ``.tns`` output (dims header, 1-based, canonical order).

    Each entry is the line ``f"{i+1} {j+1} {k+1} {v!r}\\n"``.  The lines are
    built chunk by chunk in a byte table with one row per byte position:
    the three index tokens by digit arithmetic (one floor division by 10
    per digit), the value tokens by ``repr`` once per distinct value of the
    chunk.  One masked gather of the table's transpose gives the chunk's
    bytes.
    """
    with open(path, "wb") as fh:
        fh.write(f"dims {T.dims[0]} {T.dims[1]} {T.dims[2]}\n".encode())
        for a in range(0, T.nnz, _WRITE_CHUNK):
            b = a + _WRITE_CHUNK
            indices = [T.i[a:b] + 1, T.j[a:b] + 1, T.k[a:b] + 1]
            values, value_used = _tokens(T.vals[a:b], repr, "\n")
            widths = [len(str(int(x.max()))) + 1 for x in indices]
            rows = np.empty((sum(widths) + values.shape[1], values.shape[0]), np.uint8)
            used = np.empty(rows.shape, bool)
            top = 0
            for x, w in zip(indices, widths):
                _digits(x, rows[top : top + w], used[top : top + w])
                top += w
            rows[top:] = values.T
            used[top:] = value_used.T
            fh.write(rows.T[used.T])


def load_labels(path, extent: int | None = None) -> LabelTable:
    """Read one label per line; only LF and CRLF end a line."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        labels = fh.read().replace("\r\n", "\n").split("\n")
    if labels[-1] == "":
        labels.pop()  # the last line's end
    if extent is not None and len(labels) != extent:
        raise TensorFileError(
            f"{path}: {len(labels)} labels but mode extent is {extent}"
        )
    return LabelTable(tuple(labels))


def save_labels(table: LabelTable, path) -> None:
    """Write one label per line; a label holding a line end cannot be written."""
    for label in table.labels:
        if "\n" in label or "\r" in label:
            raise ValueError(f"label {label!r} holds a line end; a label file cannot store it")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("".join(label + "\n" for label in table.labels))


def load_record_log(path) -> RecordLog:
    """Read a ``source,destination,timestamp`` CSV log into its two id columns.

    Sources and destinations are kept in file order; the timestamp and any
    further fields are checked for presence only.  The file is read once.
    A plain file (see :func:`_split_plain_log`) is split chunk by chunk;
    any other goes through ``csv.reader``, which names the offending line
    of a malformed file.  A NUL anywhere in the file raises
    :class:`TensorFileError` naming the line of the first one, on every
    Python version (``csv.reader`` accepts NUL from 3.11 on).
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        text = fh.read()
    log = _split_plain_log(text)
    return log if log is not None else _read_log_rows(path, text)


# characters per chunk of whole lines that the plain split checks and splits at once
_LOG_CHUNK = 1 << 14


def _split_plain_log(text: str) -> RecordLog | None:
    """The log of a plain file, split chunk by chunk, or None.

    Plain: no ``"``, no NUL, no CR outside a CRLF line end, a header of at
    least three fields, and exactly three fields on every later line, none
    longer than ``csv.field_size_limit()``.  ``csv.reader`` reads such a
    file to the same columns; every other file, the malformed ones
    included, is left to it (None).  The body is checked and split in
    chunks of whole lines of about ``_LOG_CHUNK`` characters, so the
    check's arrays and the chunk's field strings are chunk-sized: only
    sources and destinations are kept, through one dict, so equal ids
    share one string; the timestamps go with their chunk.
    """
    if '"' in text or "\0" in text:
        return None
    limit = csv.field_size_limit()
    nl = text.find("\n")
    header = text if nl < 0 else text[: nl - (text[nl - 1 : nl] == "\r")]
    if "\r" in header or header.count(",") < 2 or len(header) > limit:
        return None
    log = RecordLog()
    seen: dict[str, str] = {}
    pos = len(text) if nl < 0 else nl + 1
    while pos < len(text):
        end = text.find("\n", pos + _LOG_CHUNK)
        end = len(text) if end < 0 else end + 1
        chunk = text[pos:end]
        pos = end
        if "\r" in chunk:
            chunk = chunk.replace("\r\n", "\n")
            if "\r" in chunk:
                return None
        if not chunk.endswith("\n"):
            chunk += "\n"
        # two commas on line t are commas 2t and 2t+1: with 2L commas in all,
        # each between its line's start and end, every line holds exactly two
        raw = np.frombuffer(chunk.encode("utf-8"), np.uint8)
        ends = np.flatnonzero(raw == ord("\n"))
        commas = np.flatnonzero(raw == ord(","))
        starts = np.concatenate(([0], ends[:-1] + 1))
        if commas.size != 2 * ends.size or np.any(commas[0::2] < starts) or np.any(commas[1::2] > ends):
            return None
        if (ends - starts).max() > limit:  # UTF-8 bytes bound a field's characters
            return None
        fields = chunk.replace("\n", ",").split(",")
        fields.pop()  # after the last line end
        sources, destinations = fields[0::3], fields[1::3]
        log.sources.extend(map(seen.setdefault, sources, sources))
        log.destinations.extend(map(seen.setdefault, destinations, destinations))
    return log


def _read_log_rows(path, text: str) -> RecordLog:
    """``csv.reader`` over the log; the reference semantics of :func:`load_record_log`.

    A NUL is refused before ``csv.reader`` sees the text, with the line
    ``csv.reader`` would count (line ends: LF, CRLF or a lone CR).  Every
    source and destination goes through one dict, as in
    :func:`_split_plain_log`, so equal ids share one string.
    """
    at = text.find("\0")
    if at >= 0:
        head = text[:at]
        line = head.count("\n") + head.count("\r") - head.count("\r\n") + 1
        raise TensorFileError(f"{path}:{line}: line contains NUL")
    reader = csv.reader(io.StringIO(text, newline=""))
    log = RecordLog()
    seen: dict[str, str] = {}
    try:
        header = next(reader, None)
        if header is None:
            raise TensorFileError(f"{path}: empty record log")
        if len(header) < 3:
            raise TensorFileError(f"{path}:{reader.line_num}: header must have 3 columns")
        for row in reader:
            if not row:
                continue
            if len(row) < 3:
                raise TensorFileError(f"{path}:{reader.line_num}: expected 3 fields")
            log.sources.append(seen.setdefault(row[0], row[0]))
            log.destinations.append(seen.setdefault(row[1], row[1]))
    except csv.Error as exc:
        raise TensorFileError(f"{path}:{reader.line_num}: {exc}") from None
    return log


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
    _require_12_symmetric(T, "tensor is not (1,2)-symmetric; use nonsymmetric_normalize")
    return nonsymmetric_normalize(T)


def normalize_slices_frobenius(T: SparseTensor3) -> SparseTensor3:
    """Scale every 3-slice to Frobenius norm 1.

    An all-zero slice stays zero, as zero-degree rows do under the degree
    normalizations.  Only values change, so the result keeps the input's
    index arrays and its canonical stack's pattern, if built.
    """
    norms = _norm(T.vals, T.k, T.dims[2])
    return T._with_values(T.vals / norms[T.k])


def _inv_sqrt(d: np.ndarray) -> np.ndarray:
    out = np.zeros(d.shape)  # float for the integer bincount of no entries too
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
    The degree arrays, n*(l + m) entries, are checked against memory first.
    Each side's codes and gathered factor are freed before the other side's
    are built, so the pass holds at most three nnz-sized arrays, the result
    included; the product is (v * r) * c either way.
    """
    _check_nonnegative(T)
    l, m, n = T.dims
    _check_size("the slice degrees", 2 * n * (l + m))  # both bincounts and their inverse roots
    row = T.k * l + T.i
    vals = _inv_sqrt(np.bincount(row, weights=T.vals, minlength=n * l))[row]
    del row  # the row pass is done before the column pass starts
    np.multiply(T.vals, vals, out=vals)  # v * r, as v * r * c evaluates it
    col = T.k * m + T.j
    vals *= _inv_sqrt(np.bincount(col, weights=T.vals, minlength=n * m))[col]
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
    The sorted, distinct cell codes of both orientations are the canonical
    order, so the tensor goes through the trusted constructor.
    """
    if bin_size < 1:
        raise ValueError("bin_size must be >= 1")
    if not log:
        raise ValueError("record log is empty")

    # the vocabulary in first-seen order over s0, d0, s1, d1, ...
    ids = [None] * (2 * len(log))
    ids[0::2] = log.sources
    ids[1::2] = log.destinations
    vocab = dict.fromkeys(ids)
    del ids
    if restrict_bidirectional:
        both = set(log.sources).intersection(log.destinations)
        if not both:
            raise ValueError("no id both sent and received; nothing left after restriction")
        vocab = dict.fromkeys(v for v in vocab if v in both)

    labels = LabelTable(tuple(vocab))
    table = {ident: pos for pos, ident in enumerate(vocab)}
    m = len(table)
    n = -(-len(log) // bin_size)  # ceil
    _check_cells((m, m, n))
    # the codes of both orientations, then the result's four arrays at most
    _check_size("the binned cell codes", 2 * len(log), 5 * 8)

    # codes -1 mark ids left out by the restriction; such records are dropped
    a = np.fromiter(map(table.get, log.sources, repeat(-1)), np.int64, len(log))
    b = np.fromiter(map(table.get, log.destinations, repeat(-1)), np.int64, len(log))
    bins = np.arange(len(log)) // bin_size
    if restrict_bidirectional:
        kept = (a >= 0) & (b >= 0)
        a, b, bins = a[kept], b[kept], bins[kept]
        del kept
    # the cells (bin*m + a)*m + b and (bin*m + b)*m + a in one buffer, sorted in
    # place; a repeat (and a self-loop's two copies) is dropped, every value is 1
    bins *= m
    codes = np.concatenate(((bins + a) * m + b, (bins + b) * m + a))
    del a, b, bins
    codes.sort()
    first = np.ones(codes.size, dtype=bool)
    np.not_equal(codes[1:], codes[:-1], out=first[1:])
    if not first.all():
        codes = codes[first]
    del first
    i, j, k = _decode(codes, m, m)
    return SparseTensor3._canonical((m, m, n), i, j, k, np.ones(j.size)), labels
