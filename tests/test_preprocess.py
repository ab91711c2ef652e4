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
from tenspart.preprocess import LabelTable, RecordLog, TensorFileError, save_labels

from conftest import random_sparse, random_symmetric


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

    @pytest.mark.parametrize(
        "line", ["1 1 1", "x 1 1 2.0", "0 1 1 2.0", "1 1 1 nan"]
    )
    def test_malformed_line_reports_lineno(self, tmp_path, line):
        p = tmp_path / "bad.tns"
        p.write_text("1 1 1 1.0\n" + line + "\n")
        with pytest.raises(TensorFileError, match=":2"):
            load_coordinate_file(p)


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
