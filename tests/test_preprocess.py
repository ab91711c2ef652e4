import math

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
from tenspart import preprocess
from tenspart.preprocess import (
    LabelTable,
    RecordLog,
    TensorFileError,
    _load_coordinate_lines,
    save_labels,
)

from conftest import BEYOND_SQUARE_RANGE, pow2_scaled, random_sparse, random_symmetric


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

    @pytest.mark.parametrize("chunk", [3, 1 << 15])
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

    @pytest.mark.parametrize("header", [True, False], ids=["header", "no_header"])
    @pytest.mark.parametrize("eol", ["\n", "\r\n"], ids=["LF", "CRLF"])
    def test_plain_file_takes_fast_path(self, tmp_path, rng, monkeypatch, eol, header):
        T = random_sparse(rng, (120, 15, 11), density=0.05)
        p = tmp_path / "t.tns"
        save_coordinate_file(T, p)
        lines = p.read_text().splitlines()[0 if header else 1 :]
        p.write_bytes((eol.join(lines) + eol).encode("utf-8"))
        expected = _load_coordinate_lines(p)
        if header:
            assert expected == T

        def no_fallback(path):
            raise AssertionError("line reader used on a plain file")

        monkeypatch.setattr(preprocess, "_load_coordinate_lines", no_fallback)
        assert load_coordinate_file(p) == expected

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

    def test_empty_slice_requires_flag(self):
        T = SparseTensor3((2, 2, 3), [0], [1], [0], [2.0])
        with pytest.raises(ValueError):
            normalize_slices_frobenius(T)
        N = normalize_slices_frobenius(T, skip_empty=True)
        assert N.nnz == 1 and N.vals[0] == 1.0


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
            N = normalize_slices_frobenius(T, skip_empty=True)
            assert np.array_equal(N.vals, vals) and np.shares_memory(N.j, T.j)

    def test_frobenius_bitwise_many_slices(self, rng):
        # several hundred slices, some empty, with values spread over 2**-500 .. 2**500
        T = random_sparse(rng, (4, 3, 400), density=0.2)
        T = SparseTensor3(T.dims, T.i, T.j, T.k, T.vals * 2.0 ** rng.integers(-500, 500, T.nnz))
        vals = T.vals.copy()
        for _, run in T.slice_runs():
            vals[run] = T.vals[run] / math.sqrt(math.fsum(T.vals[run] * T.vals[run]))
        assert np.bincount(T.k, minlength=400).min() == 0
        with pytest.raises(ValueError, match="all-zero 3-slices at k="):
            normalize_slices_frobenius(T)
        assert np.array_equal(normalize_slices_frobenius(T, skip_empty=True).vals, vals)

    @pytest.mark.parametrize("s", BEYOND_SQUARE_RANGE)
    def test_frobenius_scale_invariant(self, rng, s):
        # squared entries leave the float range; the slice norms scale with
        # the entries, so the normalized values are the unscaled ones bitwise
        T = random_sparse(rng, (7, 5, 6), density=0.3)
        want = normalize_slices_frobenius(T, skip_empty=True)
        got = normalize_slices_frobenius(pow2_scaled(T, s), skip_empty=True)
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
        T, labels = bin_and_symmetrize(RecordLog([("a", "b", "0")]), bin_size=1)
        assert T.dims == (2, 2, 1)
        d = T.to_dense()
        assert d[0, 1, 0] == 1 and d[1, 0, 0] == 1 and d.sum() == 2
        assert labels.labels == ("a", "b")

    def test_duplicate_record_is_indicator(self):
        log = RecordLog([("a", "b", "0"), ("a", "b", "1")])
        T, _ = bin_and_symmetrize(log, bin_size=2)
        assert T.to_dense().sum() == 2  # still 0/1, both directions

    def test_binning_matches_set_oracle(self, rng):
        ids = ["h0", "h1", "h2", "h3"]
        records = [
            (ids[rng.integers(4)], ids[rng.integers(4)], str(t)) for t in range(10)
        ]
        T, labels = bin_and_symmetrize(RecordLog(records), bin_size=3)
        assert T.dims[2] == 4
        lookup = {lab: idx for idx, lab in enumerate(labels.labels)}
        expected = set()
        for pos, (s, d, _) in enumerate(records):
            a, b = lookup[s], lookup[d]
            expected.add((a, b, pos // 3))
            expected.add((b, a, pos // 3))
        got = {(int(i), int(j), int(k)) for i, j, k, _ in T.entries()}
        assert got == expected

    def test_symmetric_binary_output(self, rng):
        records = [(f"s{rng.integers(5)}", f"s{rng.integers(5)}", "t") for _ in range(30)]
        T, _ = bin_and_symmetrize(RecordLog(records), bin_size=7)
        assert is_12_symmetric(T)
        assert set(np.unique(T.vals)) <= {1.0}

    def test_bidirectional_restriction(self):
        log = RecordLog([("a", "b", "0"), ("b", "a", "1"), ("c", "a", "2")])
        T, labels = bin_and_symmetrize(log, bin_size=3, restrict_bidirectional=True)
        assert set(labels.labels) == {"a", "b"}
        assert T.dims[0] == 2

    def test_empty_log_rejected(self):
        with pytest.raises(ValueError):
            bin_and_symmetrize(RecordLog([]), bin_size=1)

    @staticmethod
    def loop_oracle(log, bin_size, restrict_bidirectional=False):
        """The per-record set loop that bin_and_symmetrize replaced."""
        if bin_size < 1:
            raise ValueError("bin_size must be >= 1")
        if not log.records:
            raise ValueError("record log is empty")
        vocab = {}
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
        m = len(table)
        n = -(-len(log.records) // bin_size)
        seen = set()
        i, j, k = [], [], []
        for pos, (src, dst, _) in enumerate(log.records):
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
                (ids[rng.integers(len(ids))], ids[rng.integers(len(ids))], "t")
                for _ in range(int(rng.integers(0, 25)))
            ]
            log = RecordLog(records)
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
        assert log.records == [("a", "b", "1"), ("b", "c", "2")]

    def test_short_row_rejected(self, tmp_path):
        p = tmp_path / "log.csv"
        p.write_text("source,destination,timestamp\na,b\n")
        with pytest.raises(TensorFileError, match=":2"):
            load_record_log(p)
