import json
import math
import tracemalloc

import numpy as np
import pytest

from tenspart import (
    LabelTable,
    SolverConfig,
    SparseTensor3,
    block_norms,
    corner_block_norms,
    frobenius_norm,
    hooi,
    hooi_symmetric,
    monotone_reorder,
    normalize_slices_adjacency,
    partition,
    partition_tensor,
    restrict_and_recurse,
    sign_change_split,
    significance_ranking,
    subtensor,
)
from tenspart.lowrank import RankApproximation
from tenspart.partition import save_partition_report

from conftest import BEYOND_SQUARE_RANGE, pow2_scaled, random_sparse

TIGHT = SolverConfig(rel_tol=1e-12, max_iters=500)


def two_block_tensor(sizes, n, seed=0, noise=0.0, base=0.2, block=1.0):
    """Symmetric tensor: weak background plus two strong diagonal blocks.

    The background couples the blocks so the second factor column is signed
    (one sign per block) rather than a nonnegative block indicator.
    """
    rng = np.random.default_rng(seed)
    l = sum(sizes)
    d = np.full((l, l, n), base)
    start = 0
    for sz in sizes:
        blk = slice(start, start + sz)
        d[blk, blk, :] += block
        start += sz
    if noise:
        pert = rng.normal(scale=noise, size=d.shape)
        d += pert + pert.transpose(1, 0, 2)
    # shuffle rows/cols identically so the blocks are hidden
    perm = rng.permutation(l)
    d = d[perm][:, perm]
    return SparseTensor3.from_dense(d), (perm >= sizes[0]).astype(int)


class TestMonotoneReorder:
    def test_sorts_second_column(self, rng):
        U = rng.standard_normal((10, 2))
        perm, u1, u2 = monotone_reorder(U)
        assert np.all(np.diff(u2) <= 0)
        assert np.allclose(U[perm, 1], u2)
        assert np.allclose(U[perm, 0], u1)

    def test_stable_on_ties(self):
        U = np.array([[1.0, 0.5], [2.0, 0.5], [3.0, -0.1]])
        perm, _, _ = monotone_reorder(U)
        assert perm.tolist() == [0, 1, 2]

    def test_single_column_rejected(self):
        with pytest.raises(ValueError):
            monotone_reorder(np.ones((4, 1)))


class TestSignChangeSplit:
    def test_basic_split(self):
        assert sign_change_split(np.array([0.9, 0.3, -0.1, -0.8])) == (2, False)

    def test_zero_counts_as_nonnegative(self):
        assert sign_change_split(np.array([0.5, 0.0, -0.2])) == (2, False)

    def test_all_positive_no_split(self):
        assert sign_change_split(np.array([0.5, 0.3, 0.1])) == (3, True)

    def test_all_negative_no_split(self):
        assert sign_change_split(np.array([-0.1, -0.5])) == (0, True)


class TestBlockNorms:
    def test_matches_dense_oracle(self, rng):
        T = random_sparse(rng, (8, 6, 3), density=0.5)
        d = T.to_dense()
        b1, b2 = [0, 3, 8], [0, 2, 6]
        table = block_norms(T, b1, b2)
        for a in range(2):
            for b in range(2):
                blk = d[b1[a] : b1[a + 1], b2[b] : b2[b + 1], :]
                assert table[a, b] == pytest.approx(np.linalg.norm(blk), abs=1e-13)

    def test_pythagorean_total(self, rng):
        T = random_sparse(rng, (9, 7, 2), density=0.6)
        table = block_norms(T, [0, 4, 9], [0, 3, 5, 7])
        assert math.fsum((table**2).ravel()) == pytest.approx(
            frobenius_norm(T) ** 2, rel=1e-12
        )

    def test_bitwise_equal_to_subtensor_oracle(self, rng):
        for dims, b1, b2 in (
            ((8, 6, 3), [0, 3, 8], [0, 2, 6]),
            ((20, 20, 4), [0, 3, 17, 20], [0, 3, 17, 20]),
            ((9, 7, 2), [0, 1, 2, 9], [0, 7]),
            ((6, 6, 1), [0, 6], [0, 1, 5, 6]),
        ):
            for density in (0.0, 0.05, 0.5, 1.0):
                T = random_sparse(rng, dims, density=density)
                K = np.arange(dims[2])
                oracle = np.array([
                    [frobenius_norm(subtensor(T, np.arange(b1[a], b1[a + 1]),
                                              np.arange(b2[b], b2[b + 1]), K))
                     for b in range(len(b2) - 1)]
                    for a in range(len(b1) - 1)
                ])
                assert np.array_equal(block_norms(T, b1, b2), oracle)

    def test_random_bounds_equal_subtensor_oracle(self):
        rng = np.random.default_rng(99)
        for _ in range(60):
            dims = tuple(int(d) for d in rng.integers(1, 12, 3))
            T = random_sparse(rng, dims, density=rng.uniform(0.05, 1.0))
            b1, b2 = ([0, *sorted(rng.choice(np.arange(1, d), rng.integers(0, d), replace=False)), d]
                      for d in dims[:2])
            K = np.arange(dims[2])
            oracle = [[frobenius_norm(subtensor(T, np.arange(b1[a], b1[a + 1]), np.arange(b2[b], b2[b + 1]), K))
                       for b in range(len(b2) - 1)] for a in range(len(b1) - 1)]
            assert np.array_equal(block_norms(T, b1, b2), np.array(oracle))

    def test_invalid_boundaries(self, rng):
        T = random_sparse(rng, (5, 5, 2))
        with pytest.raises(ValueError):
            block_norms(T, [0, 5, 5], [0, 5])
        with pytest.raises(ValueError):
            block_norms(T, [1, 5], [0, 5])

    def test_corner_table_shape(self, rng):
        T = random_sparse(rng, (20, 20, 2), density=0.4)
        table, (b1, b2) = corner_block_norms(T, 3)
        assert table.shape == (3, 3)
        assert b1 == [0, 3, 17, 20]
        with pytest.raises(ValueError):
            corner_block_norms(T, 10)

    @pytest.mark.parametrize("s", BEYOND_SQUARE_RANGE)
    def test_scale_with_entries(self, rng, s):
        # squared entries leave the float range; the norms are the unscaled ones times 2**s bitwise
        T = random_sparse(rng, (9, 8, 4), density=0.5)
        want = np.ldexp(block_norms(T, [0, 3, 9], [0, 2, 5, 8]), s)
        got = block_norms(pow2_scaled(T, s), [0, 3, 9], [0, 2, 5, 8])
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert np.all((0.0 < got) & (got < math.inf))


class TestSignificanceRanking:
    def test_planted_ranking(self):
        u1 = np.array([0.9, 0.8, 0.01, 0.02, 0.7, 0.6])
        u2 = np.array([0.5, 0.4, 0.1, -0.1, -0.4, -0.5])
        labels = LabelTable(tuple(f"v{t}" for t in range(6)))
        out = significance_ranking(u1, u2, labels, 2)
        assert [t for t, _ in out["head"]] == ["v0", "v1"]
        assert [t for t, _ in out["tail"]] == ["v4", "v5"]
        assert {t for t, _ in out["middle"]} == {"v2", "v3"}
        # scores are |u1| magnitudes: the middle entries are insignificant
        assert all(s < 0.05 for _, s in out["middle"])

    def test_k_too_large(self):
        with pytest.raises(ValueError):
            significance_ranking(np.ones(3), np.ones(3), LabelTable.default(3), 4)

    def test_label_length_mismatch(self):
        with pytest.raises(ValueError):
            significance_ranking(np.ones(3), np.ones(3), LabelTable.default(4), 2)

    @pytest.mark.parametrize("k", [0, -2])
    def test_k_below_one_refused(self, k):
        # a k below 1 gave empty head, middle and tail lists
        with pytest.raises(ValueError, match=f"^k must be >= 1, got {k}$"):
            significance_ranking(np.ones(3), np.ones(3), LabelTable.default(3), k)


@pytest.fixture
def no_work(monkeypatch):
    """Make every step of a partition after its argument checks fail."""

    def work(*args, **kwargs):
        raise AssertionError("work started before the arguments were checked")

    for name in ("monotone_reorder", "permute_modes", "subtensor", "hooi", "hooi_symmetric"):
        monkeypatch.setattr(partition, name, work)


class TestPartitionTensor:
    def test_recovers_planted_two_block(self):
        T, membership = two_block_tensor((12, 8), 3, seed=3, noise=0.01)
        ap = hooi_symmetric(T, (2, 2, 1), TIGHT)
        report, reordered = partition_tensor(T, ap)
        s = report.split_points[1]
        groups = membership[report.mode1_perm]
        # both sides of the split are pure, so the split hits a block size
        assert s in (8, 12)
        assert len(set(groups[:s].tolist())) == 1
        assert len(set(groups[s:].tolist())) == 1
        assert not report.no_split_flags[1]
        assert report.symmetric

    def test_block_mass_concentrated_on_diagonal(self):
        T, _ = two_block_tensor((10, 10), 2, seed=5)
        ap = hooi_symmetric(T, (2, 2, 1), TIGHT)
        report, reordered = partition_tensor(T, ap)
        s = report.split_points[1]
        table = block_norms(reordered, [0, s, 20], [0, s, 20])
        # diagonal blocks hold the strong entries, off-diagonal only background
        assert min(table[0, 0], table[1, 1]) > 3 * max(table[0, 1], table[1, 0])
        assert math.fsum((table**2).ravel()) == pytest.approx(
            report.total_norm**2, rel=1e-12
        )

    def test_reordered_norm_preserved(self, rng):
        T = random_sparse(rng, (8, 8, 3), density=0.5)
        ap = hooi(T, (2, 2, 2), TIGHT)
        report, reordered = partition_tensor(T, ap)
        assert frobenius_norm(reordered) == frobenius_norm(T)

    def test_nonsymmetric_modes_get_own_perms(self, rng):
        T = random_sparse(rng, (8, 6, 4), density=0.6)
        ap = hooi(T, (2, 2, 2), TIGHT)
        report, _ = partition_tensor(T, ap)
        assert len(report.mode1_perm) == 8
        assert len(report.mode2_perm) == 6
        assert len(report.mode3_perm) == 4
        assert not report.symmetric

    def test_shared_factor_gives_mode2_the_mode1_perm_and_split(self, rng):
        # V is U: mode 2 is reordered and split as mode 1, ties and zeros in the key included
        for _ in range(20):
            l, n = (int(d) for d in rng.integers(3, 30, 2))
            ap = self.random_approx(rng, (l, l, n), symmetric=True)
            ap.U[:, 1] = np.round(ap.U[:, 1], 1)
            report, _ = partition_tensor(random_sparse(rng, (l, l, n), density=0.5), ap)
            assert report.symmetric
            assert np.array_equal(report.mode2_perm, report.mode1_perm)
            assert report.split_points[2] == report.split_points[1]
            assert report.no_split_flags[2] == report.no_split_flags[1]

    def test_rank_one_third_mode_flagged(self, rng):
        T = random_sparse(rng, (8, 8, 4), density=0.6)
        ap = hooi(T, (2, 2, 1), TIGHT)
        report, _ = partition_tensor(T, ap)
        assert report.no_split_flags[3]
        assert report.split_points[3] == 4

    def test_labels_flow_through(self):
        T, _ = two_block_tensor((6, 6), 2, seed=1)
        labels = LabelTable(tuple(f"node{t}" for t in range(12)))
        ap = hooi_symmetric(T, (2, 2, 1), TIGHT)
        report, _ = partition_tensor(T, ap, labels=labels)
        assert set(report.top_terms) == {"head", "middle", "tail"}
        assert len(report.top_terms["head"]) == 12  # all of them, under the 25 ranked

    @pytest.mark.parametrize("count", [17, 9, 0])
    def test_labels_of_another_length_refused(self, no_work, count):
        # 17 labels were cut to the first 12, and 9 failed with a bare IndexError
        T, _ = two_block_tensor((6, 6), 2, seed=1)
        ap = hooi_symmetric(T, (2, 2, 1), TIGHT)
        labels = LabelTable(tuple(f"node{t}" for t in range(count)))
        with pytest.raises(ValueError, match=f"^{count} labels for a mode-1 extent of 12$"):
            partition_tensor(T, ap, labels=labels)

    @staticmethod
    def random_approx(rng, dims, symmetric=False):
        U, V, W = (np.linalg.qr(rng.standard_normal((d, 2)))[0] for d in dims)
        return RankApproximation(U, U if symmetric else V, W, core=np.ones((2, 2, 2)))

    @pytest.mark.parametrize("s", [0, 500, -500])
    def test_table_and_total_bitwise(self, s):
        # the table read from T's own entries is the reordered tensor's block
        # norms, and the total from the same pass is T's norm, bit for bit
        rng = np.random.default_rng(abs(s))
        for trial in range(40):
            l, m, n = (int(d) for d in rng.integers(3, 30, 3))
            symmetric = trial % 4 == 0
            dims = (l, l, n) if symmetric else (l, m, n)
            T = pow2_scaled(random_sparse(rng, dims, density=rng.uniform(0.0, 0.8)), s)
            report, reordered = partition_tensor(T, self.random_approx(rng, dims, symmetric))
            assert report.total_norm.hex() == frobenius_norm(T).hex(), trial
            want = block_norms(reordered, *report.block_boundaries)
            assert np.array_equal(report.block_norm_table.view(np.int64), want.view(np.int64)), trial

    def test_table_skipped(self, rng):
        T = random_sparse(rng, (10, 12, 3), density=0.5)
        report, _ = partition_tensor(T, self.random_approx(rng, T.dims), corner_width=5)
        assert report.block_norm_table is None and report.block_boundaries is None
        assert report.total_norm.hex() == frobenius_norm(T).hex()

    @pytest.mark.parametrize("width", [0, -1])
    def test_nonpositive_corner_width_rejected(self, rng, width):
        T = random_sparse(rng, (10, 12, 3), density=0.5)
        with pytest.raises(ValueError, match="corner width"):
            partition_tensor(T, self.random_approx(rng, T.dims), corner_width=width)

    def test_memory_per_entry(self):
        # the corner table from T's entries (block ids, scaled squares and one
        # extraction level: 24 B per entry), then the reordering.  Bound, the
        # reordered tensor (32 B per entry) included: 42 B per entry
        rng = np.random.default_rng(6)
        dims, nnz = (1000, 700, 10), 500_000
        T = SparseTensor3(dims, *(rng.integers(0, d, nnz) for d in dims), rng.standard_normal(nnz))
        approx = self.random_approx(rng, dims)
        tracemalloc.start()
        try:
            report, reordered = partition_tensor(T, approx)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.block_norm_table.shape == (3, 3) and reordered.nnz == T.nnz
        assert peak <= 42 * T.nnz

    @pytest.mark.parametrize("symmetric", [False, True])
    def test_report_alone_builds_no_reordering(self, rng, monkeypatch, symmetric):
        # partition_report is partition_tensor's report, bit for bit, without
        # the reordered tensor
        T, _ = two_block_tensor((7, 5), 3, seed=2, noise=0.05)
        ap = hooi_symmetric(T, (2, 2, 1), TIGHT) if symmetric else hooi(T, (2, 2, 2), TIGHT)
        labels = LabelTable.default(12)
        want, _ = partition_tensor(T, ap, labels=labels, corner_width=2)
        monkeypatch.setattr(partition, "permute_modes", lambda *a: pytest.fail("reordered"))
        got = partition.partition_report(T, ap, labels=labels, corner_width=2)
        assert json.dumps(got.to_dict()) == json.dumps(want.to_dict())
        for name in ("mode1_perm", "mode2_perm", "mode3_perm", "block_norm_table", "insignificance_scores"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()

    def test_dim_mismatch_rejected(self, rng):
        T = random_sparse(rng, (8, 8, 3), density=0.5)
        ap = hooi(random_sparse(rng, (7, 7, 3), density=0.5), (2, 2, 2), TIGHT)
        with pytest.raises(ValueError):
            partition_tensor(T, ap)


class TestKarateOracle:
    """Replicated-slice adjacency tensor must split like the matrix method."""

    def test_matches_matrix_fiedler_style_partition(self):
        nx = pytest.importorskip("networkx")
        G = nx.karate_club_graph()
        A = nx.to_numpy_array(G)
        n = A.shape[0]
        T = SparseTensor3.from_dense(np.repeat(A[:, :, None], 3, axis=2))
        T = normalize_slices_adjacency(T)

        # matrix oracle: signs of the second-largest eigenvector of one slice
        An = T.to_dense()[:, :, 0]
        evals, evecs = np.linalg.eigh(An)
        u2 = evecs[:, np.argsort(evals)[-2]]
        if u2[np.argmax(np.abs(u2))] < 0:
            u2 = -u2
        oracle = u2 >= 0

        ap = hooi_symmetric(T, (2, 2, 1), TIGHT)
        report, _ = partition_tensor(T, ap)
        s = report.split_points[1]
        side = np.zeros(n, dtype=bool)
        side[report.mode1_perm[:s]] = True
        assert np.array_equal(side, oracle) or np.array_equal(side, ~oracle)


class TestRestrictAndRecurse:
    def test_nested_planted_blocks(self):
        # outer structure: blocks {0..9} and {10..21} on a weak background;
        # inside the first block a finer 6/4 structure at weaker coupling
        d = np.full((22, 22, 2), 0.1)
        d[0:10, 0:10, :] += 0.8
        d[10:22, 10:22, :] += 0.8
        d[0:6, 0:6, :] += 0.5
        d[6:10, 6:10, :] += 0.3
        T = SparseTensor3.from_dense(d)
        ap = hooi_symmetric(T, (2, 2, 1), TIGHT)
        report, _ = partition_tensor(T, ap)
        s = report.split_points[1]
        first = np.sort(report.mode1_perm[:s])
        if set(first.tolist()) != set(range(10)):
            first = np.sort(report.mode1_perm[s:])
        assert set(first.tolist()) == set(range(10))

        I = first
        sub_report = restrict_and_recurse(T, I, I, [0, 1], (2, 2, 1), TIGHT, symmetric=True)
        s2 = sub_report.split_points[1]
        inner = {int(I[t]) for t in sub_report.mode1_perm[:s2]}
        assert inner in ({0, 1, 2, 3, 4, 5}, {6, 7, 8, 9})

    def test_labels_carried_to_the_restriction(self):
        # the nested top terms name the vertices of I by their own labels
        T, _ = two_block_tensor((8, 6), 3, seed=2, noise=0.05)
        labels = LabelTable(tuple(f"v{t}" for t in range(14)))
        I = np.array([0, 2, 3, 5, 7, 9, 10, 12])
        got = restrict_and_recurse(T, I, I, [0, 1, 2], (2, 2, 1), TIGHT, labels=labels, symmetric=True)
        sub = subtensor(T, I, I, [0, 1, 2])
        want = partition.partition_report(
            sub, hooi_symmetric(sub, (2, 2, 1), TIGHT), labels=LabelTable(tuple(f"v{t}" for t in I))
        )
        assert json.dumps(got.to_dict()) == json.dumps(want.to_dict())
        named = {name for column in got.top_terms.values() for name, _ in column}
        assert named and named <= {f"v{t}" for t in I}

    @pytest.mark.parametrize("count", [17, 9])
    def test_labels_of_another_length_refused(self, no_work, count):
        # checked against T's mode-1 extent, before the restriction is built
        T, _ = two_block_tensor((8, 6), 3, seed=2, noise=0.05)
        labels = LabelTable(tuple(f"v{t}" for t in range(count)))
        with pytest.raises(ValueError, match=f"^{count} labels for a mode-1 extent of 14$"):
            restrict_and_recurse(T, [0, 2, 3], [0, 2, 3], [0, 1], (2, 2, 1), TIGHT, labels=labels, symmetric=True)

    def test_empty_restriction_rejected(self):
        T = SparseTensor3((6, 6, 2), [0, 1], [0, 1], [0, 1], [1.0, 2.0])
        with pytest.raises(ValueError):
            restrict_and_recurse(T, [2, 3], [4, 5], [0, 1], (1, 1, 1))


class TestSavePartitionReport:
    def test_files_written_and_json_consistent(self, tmp_path):
        T, _ = two_block_tensor((6, 6), 2, seed=2)
        labels = LabelTable.default(12)
        ap = hooi_symmetric(T, (2, 2, 1), TIGHT)
        report, _ = partition_tensor(T, ap, labels=labels)
        save_partition_report(report, tmp_path)
        data = json.loads((tmp_path / "partition_report.json").read_text())
        assert data["split_points"]["1"] == report.split_points[1]
        perm = np.loadtxt(tmp_path / "partition_perm_mode1.txt", dtype=int)
        assert np.array_equal(perm, report.mode1_perm)
        text = (tmp_path / "partition_tables.txt").read_text()
        assert "total norm" in text and "block norms" in text

    @pytest.mark.parametrize("s", BEYOND_SQUARE_RANGE)
    def test_json_scales_with_entries(self, tmp_path, s):
        # total and block norms times 2**s bitwise, mass fractions unchanged,
        # and no NaN or Infinity anywhere in the file
        T, _ = two_block_tensor((6, 6), 2, seed=2)
        ap = hooi_symmetric(T, (2, 2, 1), TIGHT)

        def load(path):
            def reject(name):
                raise ValueError(f"{name} in report")

            return json.loads((path / "partition_report.json").read_text(), parse_constant=reject)

        for sub, tensor in (("plain", T), ("scaled", pow2_scaled(T, s))):
            save_partition_report(partition_tensor(tensor, ap)[0], tmp_path / sub)
        want, got = load(tmp_path / "plain"), load(tmp_path / "scaled")
        assert got["total_norm"] == math.ldexp(want["total_norm"], s) > 0.0
        assert got["block_norm_table"] == np.ldexp(want["block_norm_table"], s).tolist()
        assert got["block_mass_fractions"] == want["block_mass_fractions"]
        for key in want.keys() - {"total_norm", "block_norm_table"}:
            assert got[key] == want[key], key
