import csv
import math
import os
import re
import tracemalloc

import numpy as np
import pytest

from tenspart import (
    SparseTensor3,
    bin_and_symmetrize,
    frobenius_norm,
    is_12_symmetric,
    load_coordinate_file,
    load_labels,
    load_record_log,
    nonsymmetric_normalize,
    normalize_slices_adjacency,
    normalize_slices_frobenius,
    save_coordinate_file,
    symmetric_embed,
)
from tenspart import preprocess, sparse_tensor
from tenspart.preprocess import (
    LabelTable,
    RecordLog,
    TensorFileError,
    _load_coordinate_lines,
    save_labels,
)
from tenspart.sparse_tensor import TensorShapeError

from conftest import BEYOND_SQUARE_RANGE, pow2_scaled, random_sparse, random_symmetric


def log_of(records):
    """The RecordLog of a list of (source, destination) pairs."""
    return RecordLog([s for s, _ in records], [d for _, d in records])


def _save_coordinate_lines(T, path):
    """One f-string per entry; the byte-for-byte reference of save_coordinate_file."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"dims {T.dims[0]} {T.dims[1]} {T.dims[2]}\n")
        for i, j, k, v in T.entries():
            fh.write(f"{i + 1} {j + 1} {k + 1} {v!r}\n")


class TestCoordinateFile:
    def test_single_line(self, tmp_path):
        p = tmp_path / "t.tns"
        p.write_text("1 1 1 2.0\n")
        T = load_coordinate_file(p)
        assert T.dims == (1, 1, 1) and T.vals[0] == 2.0

    def test_duplicates_summed(self, tmp_path):
        p = tmp_path / "t.tns"
        p.write_text("1 2 1 1.0\n1 2 1 1.0\n")
        T = load_coordinate_file(p)
        assert T.nnz == 1 and T.vals[0] == 2.0

    def test_comments_and_dims_header(self, tmp_path):
        p = tmp_path / "t.tns"
        p.write_text("# comment\ndims 3 4 5\n1 1 1 1.0  # trailing\n")
        T = load_coordinate_file(p)
        assert T.dims == (3, 4, 5)

    def test_roundtrip(self, tmp_path, rng):
        T = random_sparse(rng, (5, 4, 3), density=0.5)
        p = tmp_path / "t.tns"
        save_coordinate_file(T, p)
        assert load_coordinate_file(p) == T

    def test_roundtrip_idempotent_bytes(self, tmp_path, rng):
        T = random_sparse(rng, (5, 4, 3), density=0.5)
        p1, p2 = tmp_path / "a.tns", tmp_path / "b.tns"
        save_coordinate_file(T, p1)
        save_coordinate_file(load_coordinate_file(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("chunk", [1, 3, 1 << 15])
    def test_writer_matches_line_oracle(self, tmp_path, rng, monkeypatch, chunk):
        monkeypatch.setattr(preprocess, "_WRITE_CHUNK", chunk)
        hard = [1.0, -1.0, 0.1 + 0.2, 1e-300, 5e-324, 1.7976931348623157e308, -2.5e16, 1e22,
                123456.789]
        tensors = [
            random_sparse(rng, (5, 4, 3), density=0.5),
            SparseTensor3((1200, 30, 11), rng.integers(0, 1200, 40), rng.integers(0, 30, 40),
                          rng.integers(0, 11, 40), rng.choice(hard, 40)),
            SparseTensor3((9, 9, 2), rng.integers(0, 9, 25), rng.integers(0, 9, 25),
                          rng.integers(0, 2, 25), np.ones(25)),
        ]
        # written indices 1, 9/10, 99/100, ..., 10**13 - 1/10**13 in each mode in turn,
        # the other two modes small; the large extent is above 10**12
        written = np.array([1] + [10**e + d for e in range(1, 14) for d in (-1, 0)])
        for mode in range(3):
            dims = [7, 12, 3]
            dims[mode] = 10**13
            idx = [rng.integers(0, d, written.size) for d in dims]
            idx[mode] = written - 1
            tensors.append(SparseTensor3(dims, *idx, rng.choice(hard, written.size)))
        p, ref = tmp_path / "t.tns", tmp_path / "ref.tns"
        for T in tensors:
            save_coordinate_file(T, p)
            _save_coordinate_lines(T, ref)
            assert p.read_bytes() == ref.read_bytes()

    def test_empty_tensor_writes_header_only(self, tmp_path):
        p = tmp_path / "t.tns"
        save_coordinate_file(SparseTensor3((3, 4, 2)), p)
        assert p.read_bytes() == b"dims 3 4 2\n"

    @pytest.mark.parametrize(
        "line", ["1 1 1", "x 1 1 2.0", "0 1 1 2.0", "1 1 1 nan"]
    )
    def test_malformed_line_reports_lineno(self, tmp_path, line):
        p = tmp_path / "bad.tns"
        p.write_text("1 1 1 1.0\n" + line + "\n")
        with pytest.raises(TensorFileError, match=":2"):
            load_coordinate_file(p)

    def test_load_memory_per_entry(self, tmp_path, monkeypatch):
        # 200k entries in canonical order, as save_coordinate_file writes them:
        # the parsed rows (32 B per entry) and their four owned columns, which
        # the tensor keeps without a sort or a copy (32 B per entry).  Bound:
        # 72 B per entry at the peak, 33 B per entry retained
        rng = np.random.default_rng(5)
        dims, nnz = (1500, 1500, 10), 200_000
        codes = np.sort(rng.choice(np.prod(dims), nnz, replace=False))
        k, i, j = np.unravel_index(codes, (dims[2], dims[0], dims[1]))
        T = SparseTensor3(dims, i, j, k, rng.integers(1, 4, nnz).astype(float))
        p = tmp_path / "m.tns"
        save_coordinate_file(T, p)
        monkeypatch.setattr(sparse_tensor, "_stable_sort", lambda *a: pytest.fail("canonical file sorted"))
        tracemalloc.start()
        try:
            S = load_coordinate_file(p)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert S == T
        assert peak <= 72 * nnz and retained <= 33 * nnz


def _outcome(loader, path):
    """(dims, i, j, k, vals) of the loaded tensor, or (error type, message)."""
    try:
        T = loader(path)
    except Exception as exc:  # noqa: BLE001 - the error itself is compared
        return type(exc).__name__, str(exc)
    return T.dims, T.i.tolist(), T.j.tolist(), T.k.tolist(), T.vals.tolist()


# Lines mixed into the fuzzed files: plain entries, and everything the
# plain-file parser must hand to the line reader or reject the same way.
_ODD_LINES = [
    "", "   ", "\t", "# comment", "2 1 1 3.0  # trailing", "1 1 1 0", "1 1 1 0.0", "1 1 1 -0.0",
    "1.0 1 1 2.0", "1 1 1 nan", "1 1 1 inf", "1 1 1 1e999", "1_0 1 1 2.0", "1 1 1 1_5",
    "0 1 1 2.0", "-1 1 1 2.0", "+2 1 1 2.0", "1 1", "1 1 1 1 1", "1 1 1 2.0\r", "x 1 1 2.0",
    "1 1 1 .5", "1 1 1 5.", "1 1 1 1e-3", "1 1 1 -2E+2", "1 1 1 e5", "1 1 1 +-1", "007 1 1 1.5",
    "dims 9 9 9", "1\t2\t1\t4.0", "99999999999999999999 1 1 1.0", "1 1 1 \u00a02.0",
    "1 1 1 1.0\r2 1 1 2.0", "\r", "1 1 1 2.0\x0c", "\x0c", "1 1 1 \x002.0", "\x00",
    "1e2 1 1 1.0", "00000000000000000002 1 1 1.0", "1 1 1 1-", "1 1 1 -", "1 1\r1 1.0",
]
# Value tokens that are hard to round: 25 significant digits, near-halfway
# between neighbouring doubles, subnormal, below the smallest subnormal, and
# next to the largest double.
_HARD_VALUES = [
    "1.000000000000000000000001", "9007199254740993", "9007199254740992.5000000000000000001",
    "0.1000000000000000055511151231257827", "2.2250738585072011e-308",
    "4.9406564584124654e-324", "2.4703282292062328e-324", "2.4703282292062327e-324",
    "1e-400", "-1.7976931348623157e308", "1.797693134862315807e308", "+3.0E-05",
]


class TestCoordinateFileParity:
    """The plain-file parser gives what the line reader gives, or defers to it."""

    def check(self, path):
        assert _outcome(load_coordinate_file, path) == _outcome(_load_coordinate_lines, path)

    def test_fuzzed_files(self, tmp_path):
        rng = np.random.default_rng(2024)
        p = tmp_path / "f.tns"
        headers = ["dims 6 5 4", "dims 2 2 2", "  dims\t6 5 4", "dims +6 05 4", "dims 6 5 4\r",
                   "dims 6 5", "dims 6 5 x"]
        for trial in range(600):
            odd = trial % 2  # even trials: plain files, which the fast parser takes
            lines = []
            if rng.random() < 0.5:
                lines.append(str(rng.choice(headers[: 5 + 2 * odd])))
            for _ in range(rng.integers(0, 12)):
                if odd and rng.random() < 0.15:
                    lines.append(str(rng.choice(_ODD_LINES)))
                    continue
                i, j, k = rng.integers(1, rng.choice([6, 1200]), size=3)
                v = repr(float(rng.choice([1.0, 0.5, 2.25, 0.0, 3.0e-8, -1.5, 10.0])))
                if rng.random() < 0.3:
                    v = repr(float(rng.standard_normal() * 10.0 ** rng.integers(-300, 300)))
                elif rng.random() < 0.2:
                    v = str(rng.choice(_HARD_VALUES))
                lines.append(f"{i} {j} {k} {v}")
            sep = str(rng.choice(["\n", "\r\n", "\r"] if odd else ["\n", "\r\n"]))
            if rng.random() < 0.2:
                lines.insert(0, "")
            tail = sep if rng.random() < 0.7 else ""
            p.write_bytes((sep.join(lines) + tail).encode("utf-8"))
            self.check(p)

    @staticmethod
    def fast_path_only(monkeypatch):
        """Fail on the line reader; return the list of what ``np.loadtxt`` is given."""
        def no_fallback(path):
            raise AssertionError("line reader used on a plain file")

        given = []
        loadtxt = np.loadtxt
        monkeypatch.setattr(preprocess, "_load_coordinate_lines", no_fallback)
        monkeypatch.setattr(np, "loadtxt", lambda fname, *a, **kw: given.append(fname) or loadtxt(fname, *a, **kw))
        return given

    @pytest.mark.parametrize("header", [True, False], ids=["header", "no_header"])
    @pytest.mark.parametrize("eol", ["\n", "\r\n", "\r"], ids=["LF", "CRLF", "CR"])
    def test_plain_file_takes_fast_path(self, tmp_path, rng, monkeypatch, eol, header):
        # numpy reads the file by its absolute path (so in chunks), not from
        # an iterable of lines
        T = random_sparse(rng, (120, 15, 11), density=0.05)
        p = tmp_path / "t.tns"
        save_coordinate_file(T, p)
        lines = p.read_text().splitlines()[0 if header else 1 :]
        p.write_bytes((eol.join(lines) + eol).encode("utf-8"))
        expected = _load_coordinate_lines(p)
        if header:
            assert expected == T

        given = self.fast_path_only(monkeypatch)
        assert load_coordinate_file(p) == expected
        assert given == [os.path.abspath(p)]

    @pytest.mark.parametrize(
        "text",
        [
            "\r\rdims 3 3 3\r1 1 1 1.0\r2 2 2 2.0\r",
            "\r\n\r\ndims 3 3 3\r\n1 1 1 1.0\r\n2 2 2 2.0\r\n",
            "\r\n \r\t\n dims 3 3 3 \r\r\n\r 1 1 1 1.0\n2 2 2 2.0",
            "\n\r\r\ndims 3 3 3\r\n\r\n\n\r1 1 1 1.0\r2 2 2 2.0\r\n",
            "\r\r\n\n1 1 1 1.0\r2 2 2 2.0",
        ],
        ids=["CR", "CRLF", "mixed", "mixed_blank_body_lines", "no_header"],
    )
    def test_blank_lines_before_header(self, tmp_path, monkeypatch, text):
        # the lines before the body are skipped as numpy's text-mode open
        # counts them: a count one short reads the header as an entry, one
        # too many drops the first entry
        p = tmp_path / "b.tns"
        p.write_bytes(text.encode("ascii"))
        expected = _load_coordinate_lines(p)
        assert expected == SparseTensor3((3, 3, 3) if "dims" in text else (2, 2, 2),
                                         [0, 1], [0, 1], [0, 1], [1.0, 2.0])
        given = self.fast_path_only(monkeypatch)
        assert load_coordinate_file(p) == expected and len(given) == 1

    @pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
    def test_compressed_suffix_read_as_plain_text(self, tmp_path, rng, monkeypatch, suffix):
        # numpy's opener would decompress a file by this name; the line reader
        # reads it as the plain text it is
        T = random_sparse(rng, (20, 15, 4), density=0.1)
        p = tmp_path / f"t.tns{suffix}"
        save_coordinate_file(T, p)
        monkeypatch.setattr(np, "loadtxt", lambda *a, **kw: pytest.fail("loadtxt opened " + str(a[0])))
        assert load_coordinate_file(p) == T
        self.check(p)

    @pytest.mark.parametrize("change", ["grown", "same_size_touched", "replaced"])
    def test_file_changed_between_check_and_parse(self, tmp_path, monkeypatch, change):
        # the file is rewritten, still plain, after its bytes are checked and
        # before numpy parses it: its size, its modification time or its inode
        # differ, and the line reader reads what is there now
        p = tmp_path / "c.tns"
        p.write_text("dims 3 3 3\n1 1 1 1.0\n2 2 2 2.0\n")
        before = os.stat(p)
        new_text = {
            "grown": "dims 3 3 3\n1 1 1 1.0\n2 2 2 2.0\n3 3 3 4.0\n",
            "same_size_touched": "dims 3 3 3\n1 1 1 5.0\n2 2 2 2.0\n",
            "replaced": "dims 3 3 3\n1 1 1 5.0\n2 2 2 2.0\n",
        }[change]
        loadtxt = np.loadtxt
        read_by_lines = []

        def rewrite_then_load(fname, *a, **kw):
            if change == "replaced":
                q = tmp_path / "new.tns"
                q.write_text(new_text)
                os.utime(q, ns=(before.st_atime_ns, before.st_mtime_ns))
                os.replace(q, p)
            else:
                p.write_text(new_text)
                if change == "same_size_touched":
                    os.utime(p, ns=(before.st_atime_ns, before.st_mtime_ns + 1))
            return loadtxt(fname, *a, **kw)

        monkeypatch.setattr(np, "loadtxt", rewrite_then_load)
        lines = preprocess._load_coordinate_lines
        monkeypatch.setattr(preprocess, "_load_coordinate_lines",
                            lambda path: read_by_lines.append(path) or lines(path))
        T = load_coordinate_file(p)
        assert read_by_lines == [p]
        assert T == _load_coordinate_lines(p)
        assert T != SparseTensor3((3, 3, 3), [0, 1], [0, 1], [0, 1], [1.0, 2.0])

    @pytest.mark.parametrize(
        "text",
        [
            "1 1 1 1.0\r\n2 2 2 2.0\r\n",
            "\n\n1 1 1 1.0\n\n2 1 1 2.0\n",
            "dims 3 3 3\n1 1 1 1.0\n",
            "1 1 1 1.0\n",
            "2 2 2 1.0\n2 2 2 -1.0\n1 1 1 3.0\n",
            "1 1 1 0\n1 1 1 0.0\n",
            "1.0 1 1 2.0\n",
            "1 1 1 nan\n",
            "1_0 1 1 2.0\n",
            "0 1 1 2.0\n",
            "dims 3 3 3\n",
            "",
            "1 1 1 1.0\r2 2 2 1.0\n",
            "1 1 1 1.0\ndims 3 3 3\n",
            "dims 1 1 1\n2 2 2 1.0\n",
            "1 1 1 1e999\n",
            "1 1 1 1.0\n2 1 1 -1e400\n",
            "1 1 1\udca01.0\n",
            "1 1 1 1.0\udc85\n",
            "\r\rdims 3 3 3\r1 1 1 1.0\r",
            "\r\n\r\ndims 3 3 3\r\n1 1 1 1.0\r\n",
            "\r\rdims 3 3 3\r\n\r1 1 1 1.0\n",
            "\r\ndims 3 3 3\rx\n",
            "\rdims 3 3\r3\r1 1 1 1.0\r",
        ],
    )
    def test_edge_cases(self, tmp_path, text):
        # lone surrogates stand for raw bytes that are not UTF-8; numpy's
        # reader would take 0xA0 and 0x85 as blanks, the line reader fails
        p = tmp_path / "e.tns"
        p.write_bytes(text.encode("utf-8", "surrogateescape"))
        self.check(p)


class TestLabels:
    def test_roundtrip(self, tmp_path):
        table = LabelTable(("alpha", "beta", "gamma"))
        p = tmp_path / "labels.txt"
        save_labels(table, p)
        assert load_labels(p) == table

    def test_roundtrip_other_line_breaks(self, tmp_path):
        # str.splitlines would split at every one of these
        table = LabelTable(("a\x85b", "\u2028", "c\u2029", "\x0b", "\x0c", "\x1c\x1d\x1e", "", "é", ""))
        p = tmp_path / "labels.txt"
        save_labels(table, p)
        assert load_labels(p, extent=len(table)) == table

    @pytest.mark.parametrize(
        "text", ["a\r\nb\r\n", "a\nb", "a\r\nb"], ids=["CRLF", "LF_no_final_end", "CRLF_no_final_end"]
    )
    def test_crlf_and_no_final_line_end(self, tmp_path, text):
        p = tmp_path / "labels.txt"
        p.write_bytes(text.encode())
        assert load_labels(p, extent=2) == LabelTable(("a", "b"))

    @pytest.mark.parametrize("label", ["x\ny", "x\ry", "\r\n"], ids=["LF", "CR", "CRLF"])
    def test_label_with_line_end_rejected(self, tmp_path, label):
        with pytest.raises(ValueError, match=re.escape(repr(label))):
            save_labels(LabelTable(("ok", label)), tmp_path / "labels.txt")

    def test_extent_check(self, tmp_path):
        p = tmp_path / "labels.txt"
        p.write_text("a\nb\n")
        with pytest.raises(TensorFileError):
            load_labels(p, extent=3)


class TestAdjacencyNormalization:
    def test_unit_degrees_unchanged(self):
        T = SparseTensor3((2, 2, 1), [0, 1], [1, 0], [0, 0], [1.0, 1.0])
        N = normalize_slices_adjacency(T)
        assert np.allclose(N.to_dense(), T.to_dense())

    def test_star_graph_top_eigenvalue_one(self):
        # K_{1,3}: hub 0 connected to 1, 2, 3
        edges = [(0, j) for j in (1, 2, 3)]
        i = [a for a, b in edges] + [b for a, b in edges]
        j = [b for a, b in edges] + [a for a, b in edges]
        T = SparseTensor3((4, 4, 1), i, j, [0] * 6, [1.0] * 6)
        N = normalize_slices_adjacency(T)
        top = np.linalg.eigvalsh(N.to_dense()[:, :, 0]).max()
        assert abs(top - 1.0) <= 1e-10

    def test_matches_dense_degree_oracle(self, rng):
        T = random_symmetric(rng, 9, 4, density=0.4)
        T = SparseTensor3(T.dims, T.i, T.j, T.k, np.abs(T.vals))
        dense = T.to_dense()
        expect = np.zeros_like(dense)
        for k in range(dense.shape[2]):
            deg = dense[:, :, k].sum(axis=1)
            inv = np.zeros_like(deg)
            inv[deg > 0] = 1.0 / np.sqrt(deg[deg > 0])
            expect[:, :, k] = inv[:, None] * dense[:, :, k] * inv[None, :]
        N = normalize_slices_adjacency(T)
        assert np.abs(N.to_dense() - expect).max() <= 1e-14

    def test_random_connected_slice_top_eigenvalue(self, rng):
        m = 7
        A = np.abs(rng.standard_normal((m, m)))
        A = A + A.T  # dense symmetric positive -> connected
        np.fill_diagonal(A, 0)
        T = SparseTensor3.from_dense(A[:, :, None])
        N = normalize_slices_adjacency(T)
        top = np.linalg.eigvalsh(N.to_dense()[:, :, 0]).max()
        assert abs(top - 1.0) <= 1e-10

    def test_preserves_symmetry_and_pattern(self, rng):
        T = random_symmetric(rng, 6, 3, density=0.4)
        T = SparseTensor3(T.dims, T.i, T.j, T.k, np.abs(T.vals))
        N = normalize_slices_adjacency(T)
        assert is_12_symmetric(N, tol=1e-14)
        assert np.array_equal(N.i, T.i) and np.array_equal(N.j, T.j)

    def test_rejects_negative(self):
        T = SparseTensor3((2, 2, 1), [0, 1], [1, 0], [0, 0], [-1.0, -1.0])
        with pytest.raises(ValueError):
            normalize_slices_adjacency(T)

    def test_rejects_asymmetric(self):
        T = SparseTensor3((2, 2, 1), [0], [1], [0], [1.0])
        with pytest.raises(ValueError):
            normalize_slices_adjacency(T)


class TestFrobeniusNormalization:
    def test_single_entry(self):
        T = SparseTensor3((2, 2, 1), [0], [1], [0], [5.0])
        N = normalize_slices_frobenius(T)
        assert N.vals[0] == 1.0

    def test_already_unit_unchanged(self):
        T = SparseTensor3((2, 2, 1), [0], [1], [0], [1.0])
        N = normalize_slices_frobenius(T)
        assert abs(N.vals[0] - 1.0) <= 1e-15

    def test_all_slices_unit(self, rng):
        T = random_sparse(rng, (6, 6, 5), density=0.6)
        N = normalize_slices_frobenius(T)
        for kk, run in N.slice_runs():
            assert abs(np.sqrt((N.vals[run] ** 2).sum()) - 1.0) <= 1e-14


def degree_normalize_oracle(T):
    """Per-slice np.add.at degrees, as the normalization was first written."""
    l, m, _ = T.dims
    vals = T.vals.copy()
    for _, run in T.slice_runs():
        dr, dc = np.zeros(l), np.zeros(m)
        np.add.at(dr, T.i[run], T.vals[run])
        np.add.at(dc, T.j[run], T.vals[run])
        ir, ic = np.zeros(l), np.zeros(m)
        ir[dr > 0] = 1.0 / np.sqrt(dr[dr > 0])
        ic[dc > 0] = 1.0 / np.sqrt(dc[dc > 0])
        vals[run] = T.vals[run] * ir[T.i[run]] * ic[T.j[run]]
    return vals


class TestNormalizationParity:
    """Value-only normalizations: bitwise equal to per-slice oracles (tolerance 0)."""

    @pytest.mark.parametrize("dims", [(6, 6, 3), (9, 4, 5), (1, 7, 2), (30, 30, 4)])
    def test_degree_normalization_bitwise(self, dims):
        rng = np.random.default_rng(sum(dims))
        for _ in range(10):
            T = SparseTensor3.from_dense(np.abs(random_sparse(rng, dims, density=0.4).to_dense()))
            N = nonsymmetric_normalize(T)
            assert np.array_equal(N.vals, degree_normalize_oracle(T))
            assert np.array_equal(N.i, T.i) and np.array_equal(N.k, T.k)
            S = random_symmetric(rng, dims[0], dims[2], density=0.4)
            S = SparseTensor3.from_dense(np.abs(S.to_dense()))
            assert np.array_equal(normalize_slices_adjacency(S).vals, degree_normalize_oracle(S))

    def test_frobenius_bitwise(self, rng):
        for _ in range(10):
            T = random_sparse(rng, (7, 5, 6), density=0.3)
            vals = T.vals.copy()
            for _, run in T.slice_runs():
                vals[run] = T.vals[run] / math.sqrt(math.fsum(T.vals[run] * T.vals[run]))
            N = normalize_slices_frobenius(T)
            assert np.array_equal(N.vals, vals) and np.shares_memory(N.j, T.j)

    def test_frobenius_bitwise_many_slices(self, rng):
        # several hundred slices, some empty, with values spread over 2**-500 .. 2**500
        T = random_sparse(rng, (4, 3, 400), density=0.2)
        T = SparseTensor3(T.dims, T.i, T.j, T.k, T.vals * 2.0 ** rng.integers(-500, 500, T.nnz))
        vals = T.vals.copy()
        for _, run in T.slice_runs():
            vals[run] = T.vals[run] / math.sqrt(math.fsum(T.vals[run] * T.vals[run]))
        assert np.bincount(T.k, minlength=400).min() == 0
        N = normalize_slices_frobenius(T)  # the empty slices stay empty
        assert np.array_equal(N.k, T.k) and np.array_equal(N.vals, vals)

    @pytest.mark.parametrize("s", BEYOND_SQUARE_RANGE)
    def test_frobenius_scale_invariant(self, rng, s):
        # squared entries leave the float range; the slice norms scale with
        # the entries, so the normalized values are the unscaled ones bitwise
        T = random_sparse(rng, (7, 5, 6), density=0.3)
        want = normalize_slices_frobenius(T)
        got = normalize_slices_frobenius(pow2_scaled(T, s))
        assert got == want

    def test_empty_tensor(self):
        T = SparseTensor3((3, 4, 2))
        assert nonsymmetric_normalize(T) == T


class TestNonsymmetricNormalization:
    def test_scalar_slice(self):
        T = SparseTensor3((1, 1, 1), [0], [0], [0], [4.0])
        N = nonsymmetric_normalize(T)
        assert N.vals[0] == pytest.approx(1.0)

    def test_zero_rows_left_zero(self):
        T = SparseTensor3((3, 2, 1), [0], [0], [0], [2.0])
        N = nonsymmetric_normalize(T)
        assert N.nnz == 1

    def test_memory_per_entry(self):
        # about 290k entries over 300 x 200 x 10 extents: the row factor gathered
        # per entry and multiplied by the values in place, then the column codes
        # and the column factor gathered.  Bound above the input, result (8 B
        # per entry) and degree arrays included: 28 B per entry
        rng = np.random.default_rng(1)
        dims = (300, 200, 10)
        codes = np.unique(rng.integers(0, np.prod(dims), 400_000))
        k, i, j = np.unravel_index(codes, (dims[2], dims[0], dims[1]))
        T = SparseTensor3(dims, i, j, k, rng.random(codes.size) + 0.5)
        tracemalloc.start()
        try:
            N = nonsymmetric_normalize(T)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 28 * T.nnz
        # bitwise the one-expression product v * r[row] * c[col] (every row and
        # column has entries, so no degree is zero)
        l, m, n = dims
        row, col = T.k * l + T.i, T.k * m + T.j
        r = 1.0 / np.sqrt(np.bincount(row, weights=T.vals, minlength=n * l))
        c = 1.0 / np.sqrt(np.bincount(col, weights=T.vals, minlength=n * m))
        assert N.vals.tobytes() == (T.vals * r[row] * c[col]).tobytes()

    def test_matches_embedding_oracle(self, rng):
        dense = np.abs(rng.standard_normal((5, 7, 2)))
        dense[rng.random((5, 7, 2)) > 0.5] = 0.0
        T = SparseTensor3.from_dense(dense)
        N = nonsymmetric_normalize(T)
        emb = normalize_slices_adjacency(symmetric_embed(T))
        block = emb.to_dense()[:5, 5:, :]
        assert np.abs(N.to_dense() - block).max() <= 1e-13


class TestBinAndSymmetrize:
    def test_single_record(self):
        T, labels = bin_and_symmetrize(log_of([("a", "b")]), bin_size=1)
        assert T.dims == (2, 2, 1)
        d = T.to_dense()
        assert d[0, 1, 0] == 1 and d[1, 0, 0] == 1 and d.sum() == 2
        assert labels.labels == ("a", "b")

    def test_duplicate_record_is_indicator(self):
        log = log_of([("a", "b"), ("a", "b")])
        T, _ = bin_and_symmetrize(log, bin_size=2)
        assert T.to_dense().sum() == 2  # still 0/1, both directions

    def test_binning_matches_set_oracle(self, rng):
        ids = ["h0", "h1", "h2", "h3"]
        records = [(ids[rng.integers(4)], ids[rng.integers(4)]) for _ in range(10)]
        T, labels = bin_and_symmetrize(log_of(records), bin_size=3)
        assert T.dims[2] == 4
        lookup = {lab: idx for idx, lab in enumerate(labels.labels)}
        expected = set()
        for pos, (s, d) in enumerate(records):
            a, b = lookup[s], lookup[d]
            expected.add((a, b, pos // 3))
            expected.add((b, a, pos // 3))
        got = {(int(i), int(j), int(k)) for i, j, k, _ in T.entries()}
        assert got == expected

    def test_symmetric_binary_output(self, rng):
        records = [(f"s{rng.integers(5)}", f"s{rng.integers(5)}") for _ in range(30)]
        T, _ = bin_and_symmetrize(log_of(records), bin_size=7)
        assert is_12_symmetric(T)
        assert set(np.unique(T.vals)) <= {1.0}

    def test_bidirectional_restriction(self):
        log = log_of([("a", "b"), ("b", "a"), ("c", "a")])
        T, labels = bin_and_symmetrize(log, bin_size=3, restrict_bidirectional=True)
        assert set(labels.labels) == {"a", "b"}
        assert T.dims[0] == 2

    def test_empty_log_rejected(self):
        with pytest.raises(ValueError):
            bin_and_symmetrize(RecordLog(), bin_size=1)

    def test_unequal_columns_rejected(self):
        with pytest.raises(ValueError, match="columns differ in length"):
            RecordLog(["a", "b"], ["b"])

    def test_too_many_cells_refused(self, monkeypatch):
        # the constructor's l*m*n refusal, with its text; 2 ids in 2 bins are 8 cells
        monkeypatch.setattr(sparse_tensor, "_MAX_CELLS", 7)
        log = log_of([("a", "b"), ("b", "a")])
        with pytest.raises(TensorShapeError, match=r"dims \(2, 2, 2\) have l\*m\*n = 8 cells"):
            bin_and_symmetrize(log, bin_size=1)
        assert bin_and_symmetrize(log, bin_size=2)[0].dims == (2, 2, 1)

    @staticmethod
    def loop_oracle(log, bin_size, restrict_bidirectional=False):
        """The per-record set loop that bin_and_symmetrize replaced."""
        records = list(zip(log.sources, log.destinations))
        if bin_size < 1:
            raise ValueError("bin_size must be >= 1")
        if not records:
            raise ValueError("record log is empty")
        vocab = {}
        for src, dst in records:
            for ident in (src, dst):
                if ident not in vocab:
                    vocab[ident] = len(vocab)
        keep = None
        if restrict_bidirectional:
            senders = {src for src, _ in records}
            receivers = {dst for _, dst in records}
            both = senders & receivers
            if not both:
                raise ValueError("no id both sent and received; nothing left after restriction")
            keep = {ident: pos for pos, ident in enumerate(v for v in vocab if v in both)}
        table = keep if keep is not None else vocab
        m = len(table)
        n = -(-len(records) // bin_size)
        seen = set()
        i, j, k = [], [], []
        for pos, (src, dst) in enumerate(records):
            if keep is not None and (src not in keep or dst not in keep):
                continue
            a, b = table[src], table[dst]
            for x, y in ((a, b), (b, a)):
                if (x, y, pos // bin_size) not in seen:
                    seen.add((x, y, pos // bin_size))
                    i.append(x)
                    j.append(y)
                    k.append(pos // bin_size)
        return SparseTensor3((m, m, n), i, j, k, np.ones(len(i))), LabelTable(tuple(table))

    def test_matches_loop_oracle_fuzzed(self, rng):
        def outcome(fn, *args):
            try:
                return fn(*args)
            except ValueError as exc:
                return str(exc)

        for _ in range(300):
            ids = [f"h{x}" for x in range(int(rng.integers(1, 6)))]
            # few ids and short bins: self-loops and repeated pairs within a bin
            records = [
                (ids[rng.integers(len(ids))], ids[rng.integers(len(ids))])
                for _ in range(int(rng.integers(0, 25)))
            ]
            log = log_of(records)
            for bin_size in (0, 1, 2, 3, 7):
                for restrict in (False, True):
                    got = outcome(bin_and_symmetrize, log, bin_size, restrict)
                    want = outcome(self.loop_oracle, log, bin_size, restrict)
                    assert type(got) is type(want)
                    if isinstance(want, str):
                        assert got == want
                    else:
                        assert got[0] == want[0] and got[1] == want[1]


class TestRecordLogFile:
    def test_load(self, tmp_path):
        p = tmp_path / "log.csv"
        p.write_text("source,destination,timestamp\na,b,1\nb,c,2\n")
        log = load_record_log(p)
        assert log == RecordLog(["a", "b"], ["b", "c"])

    def test_short_row_rejected(self, tmp_path):
        p = tmp_path / "log.csv"
        p.write_text("source,destination,timestamp\na,b\n")
        with pytest.raises(TensorFileError, match=":2"):
            load_record_log(p)

    def test_error_names_line_not_row(self, tmp_path):
        # the quoted id spans lines 2 and 3, so the short row is line 4 (row 3)
        p = tmp_path / "log.csv"
        p.write_text('source,destination,timestamp\n"two\nlines",b,1\na,b\n')
        with pytest.raises(TensorFileError, match=r"log\.csv:4: expected 3 fields"):
            load_record_log(p)

    def test_csv_error_is_file_error(self, tmp_path):
        p = tmp_path / "log.csv"
        p.write_text('source,destination,timestamp\na,b,1\n"' + "x" * (csv.field_size_limit() + 1) + '",b,2\n')
        with pytest.raises(TensorFileError, match=r"log\.csv:3: field larger than field limit"):
            load_record_log(p)

    @pytest.mark.parametrize(
        "text, line",
        [
            ("source,destination,timestamp\na,b\0,c\n", 2),  # plain but for the NUL
            ('s,d,t\r\n"x\ny",b,1\ra,"b\0",2\n', 4),  # quoted, the NUL inside quotes
            ("s\0,d,t\na,b,1\n", 1),
        ],
        ids=["plain", "quoted", "header"],
    )
    def test_nul_rejected_before_csv_reader(self, tmp_path, monkeypatch, text, line):
        # csv.reader accepts NUL from Python 3.11 on and refuses it before; a
        # NUL is refused before it reads the text, so the outcome is the same
        # on every version
        p = tmp_path / "log.csv"
        p.write_bytes(text.encode("utf-8"))

        def no_reader(*args, **kwargs):
            raise AssertionError("csv.reader reached a NUL")

        monkeypatch.setattr(preprocess.csv, "reader", no_reader)
        with pytest.raises(TensorFileError, match=rf"log\.csv:{line}: line contains NUL$"):
            load_record_log(p)

    @pytest.mark.parametrize(
        "text",
        [
            "source,destination,timestamp\na,b,1\nb,c,2\n",
            "s,d,t\r\na,b,1\r\nb,c,2",
            "s,d,t,extra\nü,\u2028x,\x85\n,,\n a , b ,\t\n",
            "s,d,t\n",
            "s,d,t",
        ],
        ids=["LF", "CRLF_no_final_end", "odd_ids", "header_only", "header_no_end"],
    )
    def test_plain_file_takes_fast_path(self, tmp_path, monkeypatch, text):
        p = tmp_path / "log.csv"
        p.write_bytes(text.encode("utf-8"))
        expected = preprocess._read_log_rows(p, text)

        def no_fallback(path, text):
            raise AssertionError("csv.reader used on a plain file")

        monkeypatch.setattr(preprocess, "_read_log_rows", no_fallback)
        assert load_record_log(p) == expected

    @staticmethod
    def random_log(rng):
        """CSV text: a log of mostly three-field lines, then up to two edits.

        Some files have quoted fields (holding a comma, line end, quote or
        NUL), stray quotes or NULs, lone CR line ends, blank, short or long
        lines, or no final line end.  The edits move a comma to another
        line, turn a line end into a lone CR, or insert a special character.
        """

        def pick(options):  # not rng.choice: numpy strings drop a trailing NUL
            return options[int(rng.integers(len(options)))]

        chars = ["a", "b", "7", " ", "\t", "é", "\u2028", "\x85", "\x0b", "\x1c"]
        odd_field, odd_count, odd_end = (pick([0.0, 0.0, 0.0, 0.2]) for _ in range(3))

        def field(longest):
            text = "".join(pick(chars) for _ in range(int(rng.integers(0, longest + 1))))
            if rng.random() < odd_field:
                if rng.random() < 0.7:  # quoted
                    inner = pick([",", "\n", "\r\n", "\r", '""', "\0"])
                    text = '"' + text + inner + text + '"'
                else:
                    text += pick(['"', "\0"])
            return text

        def line(longest):
            count = pick([0, 1, 2, 4]) if rng.random() < odd_count else 3
            return ",".join(field(longest) for _ in range(count))

        ends = ["\n", "\r\n", "\r"] if odd_end else [pick(["\n", "\r\n"])]
        # short header fields, so that a header can pass a field limit that a body field fails
        lengths = ([2] + [6] * 5)[: int(rng.integers(0, 7))]
        text = "".join(line(longest) + pick(ends) for longest in lengths)
        if rng.random() < 0.2:  # no final line end
            text = text.rstrip("\r\n")
        for _ in range(pick([0, 0, 0, 1, 2])):
            edit = pick(["move comma", "lone CR", "insert"])
            if edit == "move comma" and "," in text:
                cut = pick([t for t, c in enumerate(text) if c == ","])
                text = text[:cut] + text[cut + 1 :]
                at = int(rng.integers(len(text) + 1))
                text = text[:at] + "," + text[at:]
            elif edit == "lone CR" and "\n" in text:
                at = pick([t for t, c in enumerate(text) if c == "\n"])
                text = text[:at] + "\r" + text[at + 1 :]
            elif edit == "insert":
                at = int(rng.integers(len(text) + 1))
                text = text[:at] + pick([",", "\n", "\r", '"', "\0"]) + text[at:]
        return text

    def test_plain_split_matches_csv_reference_fuzzed(self, tmp_path):
        self.check_fuzzed_parity(tmp_path)

    def test_plain_split_matches_csv_reference_fuzzed_small_chunks(self, tmp_path, monkeypatch):
        # chunks of a few lines: CRLF ends, multi-byte ids and a late malformed
        # line land in later chunks, and the fallback still names the line
        monkeypatch.setattr(preprocess, "_LOG_CHUNK", 24)
        self.check_fuzzed_parity(tmp_path)

    def check_fuzzed_parity(self, tmp_path):
        def outcome(fn, *args):
            try:
                return fn(*args)
            except TensorFileError as exc:
                return str(exc)

        rng = np.random.default_rng(19)
        p = tmp_path / "log.csv"
        default = csv.field_size_limit()
        plain = 0
        try:
            for case in range(1000):
                text = self.random_log(rng)
                p.write_bytes(text.encode("utf-8"))
                # small field limits, so that some fields and lines pass them
                csv.field_size_limit([default, default, 4, 12][case % 4])
                want = outcome(preprocess._read_log_rows, p, text)
                split = preprocess._split_plain_log(text)
                if split is not None:
                    plain += 1
                    assert split == want
                assert outcome(load_record_log, p) == want
        finally:
            csv.field_size_limit(default)
        assert 150 <= plain <= 850  # both paths are exercised

    def test_equal_ids_share_one_object(self, tmp_path):
        p = tmp_path / "log.csv"
        p.write_text("s,d,t\nab,cd,1\ncd,ab,2\nab,ab,3\n")
        log = load_record_log(p)
        assert log == RecordLog(["ab", "cd", "ab"], ["cd", "ab", "ab"])
        ids = log.sources + log.destinations
        assert len({id(x) for x in ids}) == len(set(ids)) == 2

    def test_timestamps_and_extra_columns_not_read(self, tmp_path, rng):
        # records are binned by their order: logs that differ only in the
        # timestamp and further columns give one tensor and one label table,
        # on the plain split and on the csv.reader path
        ids = [f"h{x}" for x in range(6)]
        pairs = [(ids[rng.integers(6)], ids[rng.integers(6)]) for _ in range(40)]
        times = [
            [str(t) for t in range(40)],
            [str(39 - t) for t in range(40)],  # reversed
            ["" for _ in range(40)],
            [f"2020-01-0{1 + t % 9}T00:00" for t in range(40)],
        ]
        texts = ["s,d,t\n" + "".join(f"{a},{b},{t}\n" for (a, b), t in zip(pairs, ts)) for ts in times]
        plain = len(texts)
        texts += [
            # a quoted timestamp holding a comma and a line end
            "s,d,t\n" + "".join(f'{a},{b},"{t},\n{t}"\n' for t, (a, b) in enumerate(pairs)),
            # a fourth and fifth column
            "s,d,t,x,y\n" + "".join(f"{a},{b},{t},{-t},z\n" for t, (a, b) in enumerate(pairs)),
        ]
        p = tmp_path / "log.csv"
        results = []
        for n, text in enumerate(texts):
            p.write_text(text)
            assert (preprocess._split_plain_log(text) is not None) == (n < plain)
            results.append(bin_and_symmetrize(load_record_log(p), bin_size=7))
        T, labels = results[0]
        assert T.dims == (len(labels), len(labels), 6) and T.nnz > 0
        for other in results[1:]:
            assert other[0] == T and other[1] == labels

    def test_memory_budget(self, tmp_path):
        # 100k records between 1500 ids: the loaded log keeps two lists and
        # one string per distinct id, no timestamp and no string per id
        # occurrence; on the plain split and, with one id quoted, on the
        # csv.reader path
        records, ids, bin_size = 100_000, 1500, 10_000
        rng = np.random.default_rng(5)
        src = rng.integers(0, ids, records).tolist()
        dst = rng.integers(0, ids, records).tolist()
        body = "s,d,t\n" + "".join(f"u{a},u{b},{t}\n" for t, (a, b) in enumerate(zip(src, dst)))
        at = body.index("\nu1,") + 1
        for text in (body, body[:at] + '"u1"' + body[at + 2 :]):
            p = tmp_path / "log.csv"
            p.write_text(text)
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                log = load_record_log(p)
                retained = tracemalloc.get_traced_memory()[0] - base
                T, labels = bin_and_symmetrize(log, bin_size)
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            assert len(log) == records and len(labels) == ids and T.dims[2] == records // bin_size
            assert retained <= 24 * records
            assert peak <= 120 * records
            del log, T, labels
