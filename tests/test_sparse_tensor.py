import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from tenspart import (
    SparseTensor3,
    deflate,
    expand,
    frobenius_norm,
    hooi_symmetric,
    inner,
    is_12_symmetric,
    mode_multiply,
    multi_multiply,
    permute_mode,
    permute_modes,
    subtensor,
    symmetric_embed,
)
from tenspart import lowrank, sparse_tensor
from tenspart.expansion import DeflatedOperator, threshold_B
from tenspart.preprocess import nonsymmetric_normalize, normalize_slices_adjacency, normalize_slices_frobenius
from tenspart.sparse_tensor import TensorShapeError, _exact_sum, _norm, _stable_sort

from conftest import BEYOND_SQUARE_RANGE, pow2_scaled, random_orthogonal, random_sparse, random_symmetric


def mode1_oracle(dense, M):
    """Defining triple-loop summation for the mode-1 product."""
    p = M.shape[0]
    l, m, n = dense.shape
    out = np.zeros((p, m, n))
    for i in range(p):
        for j in range(m):
            for k in range(n):
                out[i, j, k] = sum(M[i, a] * dense[a, j, k] for a in range(l))
    return out


class TestConstruction:
    def test_canonical_order(self):
        T = SparseTensor3((2, 2, 2), [1, 0, 0], [0, 1, 0], [0, 0, 1], [1.0, 2.0, 3.0])
        lins = list(zip(T.k.tolist(), T.i.tolist(), T.j.tolist()))
        assert lins == sorted(lins)

    def test_duplicates_summed(self):
        T = SparseTensor3((2, 2, 1), [0, 0], [1, 1], [0, 0], [1.5, 2.5])
        assert T.nnz == 1
        assert T.vals[0] == 4.0

    def test_explicit_zeros_dropped(self):
        T = SparseTensor3((2, 2, 1), [0, 1], [0, 1], [0, 0], [0.0, 1.0])
        assert T.nnz == 1

    def test_cancelling_duplicates_dropped(self):
        T = SparseTensor3((2, 2, 1), [0, 0], [0, 0], [0, 0], [1.0, -1.0])
        assert T.nnz == 0

    def test_out_of_range_rejected(self):
        with pytest.raises(IndexError):
            SparseTensor3((2, 2, 2), [2], [0], [0], [1.0])

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            SparseTensor3((2, 2, 2), [0], [0], [0], [np.nan])

    @pytest.mark.parametrize(
        "args, match",
        [
            (((2, 2), [], [], []), "three positive extents"),
            (((2, 0, 2), [], [], []), "three positive extents"),
            (((2, 2, 2), [0, 1], [0], [0]), "equal length"),
        ],
        ids=["two extents", "zero extent", "unequal lengths"],
    )
    def test_bad_shape_rejected(self, args, match):
        with pytest.raises(TensorShapeError, match=match):
            SparseTensor3(*args, [1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_from_dense_nonfinite_rejected(self, bad):
        # a NaN cell once failed |a| > 0 and was dropped, so the tensor kept
        # the other three cells; it is refused as an inf is
        d = np.ones((2, 2, 1))
        d[1, 0, 0] = bad
        with pytest.raises(ValueError, match="^tensor values must be finite$"):
            SparseTensor3.from_dense(d)

    def test_from_dense_needs_three_modes(self):
        with pytest.raises(TensorShapeError, match="3-dimensional"):
            SparseTensor3.from_dense(np.ones((2, 2)))

    def test_code_overflow_rejected(self):
        # past l*m*n = 2**63 - 1 the int64 codes (k*l + i)*m + j wrap: these
        # two entries were once stored with k = [-1, 0]
        d = 2**22
        with pytest.raises(TensorShapeError, match=r"dims \(4194304, 4194304, 4194304\)"):
            SparseTensor3((d, d, d), [d - 1, 0], [d - 1, 1], [d - 1, 0], [1.0, 2.0])
        with pytest.raises(TensorShapeError, match="2\\*\\*63"):
            SparseTensor3((2**21, 2**21, 2**21))  # exactly 2**63 cells

    def test_widest_codes_decode(self):
        # l*m*n just below 2**63: the largest codes take 63 bits, and every
        # index comes back from them (through the argsort fallback)
        e = 2**21
        T = SparseTensor3((e, e, e - 1), [e - 1, 0, 5, e - 1], [e - 1, 3, 0, e - 1],
                          [e - 2, 0, e - 2, e - 2], [1.0, 2.0, 3.0, 4.0])
        assert T.k.tolist() == [0, e - 2, e - 2]
        assert T.i.tolist() == [0, 5, e - 1]
        assert T.j.tolist() == [3, 0, e - 1]
        assert T.vals.tolist() == [2.0, 3.0, 5.0]

    def test_memory_per_entry(self):
        # 500k entries in the approximation bench's 1000 x 700 x 10 extents,
        # about 3.5% of them duplicates: one code buffer sorted in place, the
        # gathered values, and the decoded indices.  Bound, result (32 B per
        # stored entry) included: 40 B per input entry
        rng = np.random.default_rng(3)
        dims, nnz = (1000, 700, 10), 500_000
        i, j, k = (rng.integers(0, d, nnz) for d in dims)
        vals = rng.standard_normal(nnz)
        tracemalloc.start()
        try:
            T = SparseTensor3(dims, i, j, k, vals)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 0.9 * nnz < T.nnz < nnz
        assert peak <= 40 * nnz

    def test_memory_per_entry_canonical(self):
        # the same extents with 500k distinct entries in canonical order, from
        # writable arrays: the codes and their order check, freed before the
        # four copies the result keeps.  Bound, result included: 40 B per entry
        rng = np.random.default_rng(3)
        dims, nnz = (1000, 700, 10), 500_000
        codes = np.sort(rng.choice(np.prod(dims), nnz, replace=False))
        k, i, j = np.unravel_index(codes, (dims[2], dims[0], dims[1]))
        vals = rng.standard_normal(nnz)
        tracemalloc.start()
        try:
            T = SparseTensor3(dims, i, j, k, vals)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert T.nnz == nnz and np.array_equal(T.i, i)
        assert peak <= 40 * nnz

    def test_equality_by_entry_list(self, rng):
        T = random_sparse(rng, (4, 5, 3))
        S = SparseTensor3(T.dims, T.i[::-1], T.j[::-1], T.k[::-1], T.vals[::-1])
        assert T == S

    def test_dense_roundtrip(self, rng):
        T = random_sparse(rng, (4, 3, 5))
        assert SparseTensor3.from_dense(T.to_dense()) == T

    @pytest.mark.parametrize("name", ["i", "j", "k", "vals"])
    def test_arrays_read_only(self, rng, name):
        T = random_sparse(rng, (4, 3, 5))
        with pytest.raises(ValueError):
            getattr(T, name)[0] = 1
        P = permute_mode(T, np.arange(3)[::-1], 2)  # built by the trusted constructor
        with pytest.raises(ValueError):
            getattr(P, name)[0] = 1

    def test_trusted_result_shares_index_arrays(self, rng):
        T = SparseTensor3.from_dense(np.abs(random_sparse(rng, (4, 3, 5)).to_dense()))
        N = nonsymmetric_normalize(T)
        assert np.shares_memory(N.i, T.i) and np.shares_memory(N.k, T.k)
        assert not np.shares_memory(N.vals, T.vals)

    @pytest.mark.parametrize(
        "normalize", [nonsymmetric_normalize, normalize_slices_adjacency, normalize_slices_frobenius]
    )
    def test_value_only_map_shares_canonical_stack(self, rng, normalize):
        T = random_symmetric(rng, 9, 4, density=0.5)
        T = SparseTensor3(T.dims, T.i, T.j, T.k, np.abs(T.vals))
        S = T._slice_stack(2)
        N = normalize(T)
        NS = N._stacks[2]  # there before any contraction of N
        assert np.shares_memory(NS.indptr, S.indptr) and np.shares_memory(NS.indices, S.indices)
        assert np.shares_memory(NS.data, N.vals)
        V = rng.standard_normal((9, 3))
        fresh = SparseTensor3(N.dims, N.i, N.j, N.k, N.vals)
        assert N.half_product(V).tobytes() == fresh.half_product(V).tobytes()

    def test_value_only_map_shares_only_a_built_stack_of_the_same_pattern(self, rng):
        T = SparseTensor3.from_dense(np.abs(random_sparse(rng, (5, 4, 3), density=0.6).to_dense()))
        assert nonsymmetric_normalize(T)._stacks == {}  # the source has built none
        T._slice_stack(2)
        vals = T.vals.copy()
        vals[0] = 0.0  # a zero drops an entry: a new pattern
        Z = T._with_values(vals)
        assert Z.nnz == T.nnz - 1 and Z._stacks == {}
        assert Z == SparseTensor3(T.dims, T.i, T.j, T.k, vals)

    def test_duplicates_summed_in_input_order(self):
        # runs of 3-6 duplicates whose left-to-right sum depends on the order
        # (1e16 + 1.0 rounds back to 1e16); the oracle is the stable sort
        rng = np.random.default_rng(7)
        order_mattered = 0
        for _ in range(300):
            dims = tuple(int(d) for d in rng.integers(1, 6, 3))
            cells = rng.integers(0, np.prod(dims), rng.integers(1, 12))
            reps = rng.integers(3, 7, cells.size)
            codes = np.repeat(cells, reps)
            vals = np.concatenate([rng.permutation([1e16, 1.0, -1e16, 0.5, -2.0, 3.0][:r]) for r in reps])
            perm = rng.permutation(codes.size)
            codes, vals = codes[perm], vals[perm]
            # append unique entries, so runs of one mix with the duplicates
            codes = np.concatenate((codes, np.arange(np.prod(dims))))
            vals = np.concatenate((vals, rng.standard_normal(np.prod(dims))))
            i, j, k = np.unravel_index(codes, dims)
            T = SparseTensor3(dims, i, j, k, vals)

            l, m, _ = dims
            lin = (k * l + i) * m + j
            order = np.argsort(lin, kind="stable")
            uniq, start = np.unique(lin[order], return_index=True)
            summed = np.add.reduceat(vals[order], start)
            keep = summed != 0.0
            assert np.array_equal(T.vals, summed[keep])
            assert np.array_equal((T.k * l + T.i) * m + T.j, uniq[keep])
            backwards = np.add.reduceat(vals[np.lexsort((-np.arange(lin.size), lin))], start)
            order_mattered += not np.array_equal(summed, backwards)
        assert order_mattered > 100

    @pytest.mark.parametrize("dups", [False, True])
    @pytest.mark.parametrize("zeros", [False, True])
    def test_matches_dict_sum_oracle(self, dups, zeros):
        # the constructor skips the duplicate sum and the zero filter when
        # there is nothing to sum or drop; either way the result is the sum
        # per (k, i, j) without zeros, from read-only input (the values are
        # dyadic, so every order of summation is exact; test above covers order)
        rng = np.random.default_rng(11)
        dims = (7, 6, 5)
        for _ in range(60):
            codes = rng.choice(np.prod(dims), rng.integers(1, 60), replace=False)
            if dups:
                codes = rng.permutation(np.concatenate((codes, rng.choice(codes, 40))))
            vals = rng.choice([1.0, -1.0, 0.5, 3.0, -2.5, 0.25], codes.size)
            if zeros:
                vals[rng.random(codes.size) < 0.3] = 0.0
            i, j, k = np.unravel_index(codes, dims)
            for a in (i, j, k, vals):
                a.flags.writeable = False
            T = SparseTensor3(dims, i, j, k, vals)

            oracle = {}
            for key, v in zip(zip(k.tolist(), i.tolist(), j.tolist()), vals.tolist()):
                oracle[key] = oracle.get(key, 0.0) + v
            want = sorted((key, v) for key, v in oracle.items() if v != 0.0)
            got = list(zip(zip(T.k.tolist(), T.i.tolist(), T.j.tolist()), T.vals.tolist()))
            assert got == want
            assert all(not a.flags.writeable for a in (T.i, T.j, T.k, T.vals))
            assert T.i.dtype == T.j.dtype == T.k.dtype == np.int64


def _sort_path(dims, i, j, k, vals):
    """(i, j, k, vals) as the constructor's sort path gives them: a stable sort
    of the codes, each run of duplicates summed in input order, zeros dropped."""
    l, m, _ = dims
    lin = (k * l + i) * m + j
    order = np.argsort(lin, kind="stable")
    uniq, start = np.unique(lin[order], return_index=True)
    summed = np.add.reduceat(vals[order], start) if start.size else vals[:0]
    keep = summed != 0.0
    uniq = uniq[keep]
    return uniq // m % l, uniq % m, uniq // (l * m), summed[keep]


class TestCanonicalInput:
    """Entries in canonical (k, i, j) order without duplicates skip the sort, the
    duplicate sums and the decode; the result is bitwise the sort path's, and it
    shares no memory that the caller can still write."""

    @staticmethod
    def entries(rng, dims, nnz, kind):
        """(i, j, k, vals) of ``nnz`` random cells, in order or shuffled, with
        or without duplicates, with some explicit zeros among the values."""
        cells = rng.integers(0, np.prod(dims), nnz)
        if kind.startswith("dup"):
            codes = np.repeat(cells, rng.integers(1, 4, cells.size))
        else:
            codes = np.unique(cells)
        codes = rng.permutation(codes) if kind.endswith("shuffled") else np.sort(codes)
        vals = rng.choice([1e16, 1.0, -1e16, 0.5, 0.0, -0.0, -2.0, 5e-324], codes.size)
        k, i, j = (np.array(a) for a in np.unravel_index(codes, (dims[2], dims[0], dims[1])))
        return i, j, k, vals  # each owns its memory (unravel_index views one array)

    @pytest.mark.parametrize("huge", [False, True])
    @pytest.mark.parametrize("kind", ["sorted", "shuffled", "dup_sorted", "dup_shuffled"])
    def test_fuzz_bitwise_equal_to_sort_path(self, huge, kind):
        # extents up to 2**21, so codes take up to 63 bits; the values sum to
        # different doubles in different orders (1e16 + 1.0 rounds to 1e16)
        rng = np.random.default_rng(21)
        for trial in range(150):
            dims = tuple(int(d) for d in rng.integers(1, 2**21 if huge else 7, 3))
            i, j, k, vals = self.entries(rng, dims, int(rng.integers(0, 30)), kind)
            T = SparseTensor3(dims, i, j, k, vals)
            for got, want in zip((T.i, T.j, T.k, T.vals), _sort_path(dims, i, j, k, vals)):
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), trial
            assert all(not a.flags.writeable for a in (T.i, T.j, T.k, T.vals))

    def test_no_sort_on_canonical_input(self, monkeypatch):
        rng = np.random.default_rng(4)
        calls = []
        stable_sort = sparse_tensor._stable_sort
        monkeypatch.setattr(sparse_tensor, "_stable_sort", lambda *a: calls.append(1) or stable_sort(*a))
        dims = (40, 30, 5)
        for kind in ("sorted", "shuffled"):
            i, j, k, vals = self.entries(rng, dims, 500, kind)
            SparseTensor3(dims, i, j, k, vals)
            SparseTensor3(dims, i.tolist(), j.tolist(), k.tolist(), vals.tolist())
            assert len(calls) == (0 if kind == "sorted" else 2)

    @pytest.mark.parametrize("zeros", [False, True])
    @pytest.mark.parametrize("layout", ["1d", "2d", "read_only_view"])
    def test_caller_arrays_not_shared(self, layout, zeros):
        # writable arrays, a writable 2-D array (its ravel views it) and
        # read-only views of writable memory are copied; later writes to
        # them do not reach the tensor, and their flags are left as they were
        rng = np.random.default_rng(8)
        dims = (6, 5, 4)
        i, j, k, vals = self.entries(rng, dims, 40, "sorted")
        if not zeros:
            vals[vals == 0.0] = 3.0
        base = [i, j, k, vals]
        args = [b[:, None] if layout == "2d" else b for b in base]
        if layout == "read_only_view":
            args = [b[:] for b in base]
            for a in args:
                a.flags.writeable = False
        T = SparseTensor3(dims, *args)
        want = [a.copy() for a in (T.i, T.j, T.k, T.vals)]
        assert all(b.flags.writeable for b in base)
        assert all(a.flags.writeable == (layout != "read_only_view") for a in args)
        for b in base:
            assert not any(np.shares_memory(b, a) for a in (T.i, T.j, T.k, T.vals))
            b[:] = 1
        assert all(np.array_equal(a, w) for a, w in zip((T.i, T.j, T.k, T.vals), want))

    def test_read_only_owned_arrays_kept(self):
        # an array that owns its memory and is read-only is kept, not copied
        rng = np.random.default_rng(9)
        dims = (6, 5, 4)
        i, j, k, vals = self.entries(rng, dims, 40, "sorted")
        vals[vals == 0.0] = 3.0
        for a in (i, j, k, vals):
            a.flags.writeable = False
        T = SparseTensor3(dims, i, j, k, vals)
        assert all(np.shares_memory(a, b) for a, b in zip((T.i, T.j, T.k, T.vals), (i, j, k, vals)))


class TestStableSort:
    """The packed-key sort against a stable argsort, and the constructor on both
    of its paths: packed keys of up to 63 bits, and the argsort fallback."""

    @pytest.mark.parametrize(
        "n, bound", [(0, 5), (1, 1), (1, 2**63), (5, 1), (1000, 7), (1000, 2**40), (1000, 2**60)]
    )
    def test_equals_stable_argsort(self, n, bound):
        # the sort consumes its argument: packed keys are sorted in its own
        # buffer, except 2**60 codes with 10 position bits, which take the
        # argsort fallback and come back in a new array
        rng = np.random.default_rng(n)
        codes = rng.integers(0, bound, n, dtype=np.int64)
        buffer = codes.copy()
        order, got = _stable_sort(buffer, bound)
        want = np.argsort(codes, kind="stable")
        assert np.array_equal(order, want) and np.array_equal(got, codes[want])
        assert (got is buffer) == (bound != 2**60)

    def test_fallback_past_63_bits(self, monkeypatch):
        calls = []
        argsort = np.argsort
        monkeypatch.setattr(np, "argsort", lambda *a, **kw: calls.append(kw) or argsort(*a, **kw))
        codes = np.array([2**54, 3, 2**54, 0, 3], dtype=np.int64)
        _stable_sort(codes.copy(), 2**55)  # 55 + 3 bits: packed
        assert calls == []
        order, got = _stable_sort(np.repeat(codes, 100), 2**55)  # 55 + 9 bits: fallback
        assert calls == [{"kind": "stable"}]
        assert np.array_equal(got, np.sort(np.repeat(codes, 100)))
        assert np.array_equal(order, argsort(np.repeat(codes, 100), kind="stable"))

    @pytest.mark.parametrize("huge", [False, True])
    def test_constructor_fuzz(self, monkeypatch, huge):
        # runs of duplicates whose sum depends on their order (1e16 + 1.0 rounds
        # back to 1e16) summed in input order, zeros dropped; with extents of
        # 2**21 the codes take 63 bits and the packed keys would need more
        argsort = np.argsort
        fallbacks = []
        monkeypatch.setattr(np, "argsort", lambda *a, **kw: fallbacks.append(1) or argsort(*a, **kw))
        rng = np.random.default_rng(99)
        for trial in range(200):
            dims = tuple(int(d) for d in rng.integers(1, 2**21 if huge else 7, 3))
            cells = rng.integers(0, np.prod(dims), rng.integers(1, 30))
            codes = rng.permutation(np.repeat(cells, rng.integers(1, 5, cells.size)))
            vals = rng.choice([1e16, 1.0, -1e16, 0.5, 0.0, -2.0], codes.size)
            i, j, k = np.unravel_index(codes, dims)
            T = SparseTensor3(dims, i, j, k, vals)

            l, m, _ = dims
            lin = (k * l + i) * m + j
            order = argsort(lin, kind="stable")
            uniq, start = np.unique(lin[order], return_index=True)
            summed = np.add.reduceat(vals[order], start)
            keep = summed != 0.0
            assert np.array_equal(T.vals, summed[keep]), trial
            assert np.array_equal((T.k * l + T.i) * m + T.j, uniq[keep]), trial
        assert bool(fallbacks) == huge


class TestSizeCheck:
    """Dense results past physical memory raise before anything is allocated;
    every case here would need terabytes."""

    BIG = (100_000, 100_000, 10_000)
    MATCH = r"needs \d+ entries \(\d+ bytes\), more than the \d+ bytes of physical memory"

    def test_to_dense(self):
        with pytest.raises(ValueError, match=self.MATCH):
            SparseTensor3(self.BIG).to_dense()
        with pytest.raises(ValueError, match=self.MATCH):
            DeflatedOperator(SparseTensor3(self.BIG)).to_dense()

    def test_mode3_mode_multiply(self):
        with pytest.raises(ValueError, match=self.MATCH):
            mode_multiply(SparseTensor3(self.BIG), np.broadcast_to(1.0, (2, self.BIG[2])), 3)

    def test_reconstruct(self):
        l, m, n = self.BIG
        ap = lowrank.RankApproximation(
            *(np.broadcast_to(1.0, (d, 1)) for d in (l, m, n)), core=np.ones((1, 1, 1))
        )
        with pytest.raises(ValueError, match=self.MATCH):
            lowrank.reconstruct(ap)

    def test_half_product(self):
        # 10**13 entries (80 TB) for 10**9 factor columns; raised before the
        # slice stack is built
        T = SparseTensor3((1000, 1000, 10), [1], [2], [3], [1.0])
        with pytest.raises(ValueError, match=self.MATCH):
            T.half_product(np.broadcast_to(1.0, (1000, 10**9)))
        with pytest.raises(ValueError, match=self.MATCH):
            T.half_product(np.broadcast_to(1.0, (1000, 10**9)), transposed=True)
        assert T._stacks == {}

    def test_transposed_half_product_counts_the_tile(self, monkeypatch):
        # n*m*p = 10*10*2 = 200 entries (1600 B) of half product fit in 4000 B,
        # but not with the n*l*p = 10*100*2 = 2000 entries of the tiled
        # factor; refused before the column index or the tile is built
        T = SparseTensor3((100, 10, 10), [1], [2], [3], [1.0])
        T._slice_stack(2)
        monkeypatch.setattr(sparse_tensor, "_physical_memory", lambda: 4000.0)
        with pytest.raises(ValueError, match=r"needs 2200 entries"):
            T.half_product(np.ones((100, 2)), transposed=True)
        assert set(T._stacks) == {2}

    def test_slice_arrays(self):
        # n*l = 10**11 row pointers of the canonical stack (the symmetry check,
        # adjacency normalization) and n*(l + m) slice degrees (both
        # normalizations); refused before any of them is allocated
        T = SparseTensor3((10**6, 10**6, 10**5), [1], [2], [3], [1.0])
        tracemalloc.start()
        try:
            for run in (is_12_symmetric, normalize_slices_adjacency, nonsymmetric_normalize):
                with pytest.raises(ValueError, match=self.MATCH):
                    run(T)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20 and T._stacks == {}

    def test_names_count_and_bytes(self, monkeypatch):
        monkeypatch.setattr(sparse_tensor, "_physical_memory", lambda: 1000.0)
        with pytest.raises(ValueError, match=r"a dense tensor needs 150 entries \(1200 bytes\)"):
            SparseTensor3((5, 5, 6)).to_dense()
        assert SparseTensor3((5, 5, 5)).to_dense().shape == (5, 5, 5)  # 1000 bytes fit

    def test_threshold_kept_entries(self, monkeypatch):
        # at theta = 0 every nonzero of the 100 x 100 B is kept, at 80 B each
        U = np.linalg.qr(np.random.default_rng(0).standard_normal((100, 2)))[0]
        monkeypatch.setattr(sparse_tensor, "_physical_memory", lambda: 80.0 * 5000)
        with pytest.raises(ValueError, match=r"thresholded B needs \d+ entries \(\d+ bytes\)"):
            threshold_B((U, np.eye(2)), 0.0, "absolute")
        assert threshold_B((U, np.eye(2)), 0.6, "absolute").nnz < 5000


class TestModeMultiply:
    def test_identity_is_noop(self, rng):
        T = random_sparse(rng, (4, 3, 2))
        out = mode_multiply(T, np.eye(4), 1)
        assert np.array_equal(out, T.to_dense())

    def test_zero_tensor(self):
        T = SparseTensor3((3, 4, 2))
        out = mode_multiply(T, np.ones((2, 3)), 1)
        assert np.all(out == 0) and out.shape == (2, 4, 2)

    def test_matches_triple_loop_oracle(self, rng):
        T = random_sparse(rng, (3, 4, 2), density=0.6)
        M = rng.standard_normal((2, 3))
        got = mode_multiply(T, M, 1)
        want = mode1_oracle(T.to_dense(), M)
        assert np.abs(got - want).max() <= 1e-13 * max(1.0, np.abs(want).max())

    @pytest.mark.parametrize("mode", [2, 3])
    def test_other_modes_match_einsum(self, rng, mode):
        T = random_sparse(rng, (3, 4, 5), density=0.5)
        M = rng.standard_normal((2, T.dims[mode - 1]))
        got = mode_multiply(T, M, mode)
        subs = {2: "ja,iak->ijk", 3: "ka,ija->ijk"}[mode]
        want = np.einsum(subs, M, T.to_dense())
        assert np.allclose(got, want, rtol=1e-13, atol=1e-14)

    def test_dimension_mismatch(self, rng):
        T = random_sparse(rng, (3, 4, 2))
        with pytest.raises(TensorShapeError):
            mode_multiply(T, np.ones((2, 5)), 1)

    def test_nonfinite_matrix(self, rng):
        T = random_sparse(rng, (3, 4, 2))
        M = np.ones((2, 3))
        M[0, 0] = np.inf
        with pytest.raises(ValueError):
            mode_multiply(T, M, 1)

    @pytest.mark.parametrize("mode", [0, 4, -1])
    def test_invalid_mode(self, rng, mode):
        T = random_sparse(rng, (3, 4, 2))
        with pytest.raises(ValueError, match="mode must be 1, 2 or 3"):
            mode_multiply(T, np.ones((2, 3)), mode)

    def test_vector_rejected(self, rng):
        with pytest.raises(TensorShapeError, match="M must be 2-dimensional"):
            mode_multiply(random_sparse(rng, (3, 4, 2)), np.ones(3), 1)

    @pytest.mark.parametrize(
        "dims, mode", [((5, 4, 6000), 1), ((5, 4, 6000), 2), ((50, 3000, 4), 3), ((50, 3000, 40), 3)]
    )
    def test_memory_without_identity(self, rng, dims, mode):
        # 50 entries and M of at most 5 rows; the peak is at most twice the
        # result, the factor tiled once per slice (mode 1) and one l x m
        # plane (mode 3); an n x n or m x m identity (288 MB for n = 6000,
        # 72 MB for m = 3000) is far over, and so is the dense tensor of the
        # mode 3 with n = 40 (48 MB)
        l, m, n = dims
        T = SparseTensor3(dims, *(rng.integers(0, d, 50) for d in dims), rng.standard_normal(50))
        M = rng.standard_normal((min(dims[mode - 1], 5), dims[mode - 1]))
        tracemalloc.start()
        try:
            out = mode_multiply(T, M, mode)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        tile = n * M.size if mode == 1 else 0
        plane = l * m if mode == 3 else 0
        assert peak <= 2 * (out.nbytes + 8 * (tile + plane))


def _factor(rng, rows, cols, layout):
    """Orthonormal factor, Fortran-ordered or a strided column slice."""
    r = min(rows, cols)
    if layout == "F":
        return np.asfortranarray(np.linalg.qr(rng.standard_normal((rows, r)))[0])
    square = np.linalg.svd(rng.standard_normal((rows, rows + 2)), full_matrices=False)[0]
    return square[:, :r]  # not contiguous when rows > r


class TestContractionKernel:
    """Every contraction against dense einsum, on shapes where a mode mix-up shows."""

    @pytest.mark.parametrize("dims", [(1, 5, 3), (4, 1, 2), (6, 5, 1), (4, 3, 5)])
    @pytest.mark.parametrize("source", ["direct", "permute_modes", "nonsymmetric_normalize"])
    @pytest.mark.parametrize("layout", ["F", "slice"])
    def test_matches_dense_einsum(self, rng, dims, source, layout):
        dense = rng.standard_normal(dims)
        dense[rng.random(dims) > 0.6] = 0.0
        if dims[2] > 1:
            dense[:, :, 0] = 0.0  # an empty 3-slice
        if dims[0] > 1:
            dense[0] = 0.0  # an empty row in every slice
        T = SparseTensor3.from_dense(dense)
        if source == "permute_modes":
            T = permute_modes(T, *(rng.permutation(d) for d in dims))
        elif source == "nonsymmetric_normalize":
            T = nonsymmetric_normalize(SparseTensor3.from_dense(np.abs(dense)))
        D = T.to_dense()
        U, V, W = (_factor(rng, d, 2, layout) for d in dims)

        def check(got, want):
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())

        check(T.contract_modes23(V, W), np.einsum("ijk,jq,kr->iqr", D, V, W))
        check(T.contract_modes13(U, W), np.einsum("ijk,ip,kr->jpr", D, U, W))
        check(T.contract_modes12(U, V), np.einsum("ijk,ip,jq->kpq", D, U, V))
        check(mode_multiply(T, U.T, 1), np.einsum("ijk,ip->pjk", D, U))
        check(mode_multiply(T, V.T, 2), np.einsum("ijk,jq->iqk", D, V))
        check(mode_multiply(T, W.T, 3), np.einsum("ijk,kr->ijr", D, W))
        check(multi_multiply(T, U, V, W), np.einsum("ijk,ip,jq,kr->pqr", D, U, V, W))


class TestTransposedHalfProduct:
    """The transposed half product, D' times the factor tiled once per slice,
    against the product of a stack of the transposed slices built by scipy's
    COO-to-CSR conversion.  Tolerance: exact (bitwise)."""

    @staticmethod
    def reference(T, U):
        l, m, n = T.dims
        St = sp.csr_matrix((T.vals, (T.k * m + T.j, T.i)), shape=(n * m, l))
        return (St @ U).reshape(n, m, U.shape[1])

    @staticmethod
    def tensor(rng, dims):
        """A random tensor with an empty slice, an empty row and an empty column."""
        dense = rng.standard_normal(dims)
        dense[rng.random(dims) > 0.5] = 0.0
        dense[:, :, 1] = 0.0
        dense[2] = 0.0
        dense[:, 1] = 0.0
        return SparseTensor3.from_dense(dense)

    @pytest.mark.parametrize("cols", [1, 2, 13])
    @pytest.mark.parametrize("dims", [(7, 5, 4), (5, 9, 3), (12, 12, 6)])
    def test_sparse_tensor(self, rng, dims, cols):
        T = self.tensor(rng, dims)
        U = rng.standard_normal((dims[0], cols))
        assert T.half_product(U, transposed=True).tobytes() == self.reference(T, U).tobytes()

    @pytest.mark.parametrize("cols", [1, 2, 13])
    def test_deflated_operator(self, rng, cols):
        T = self.tensor(rng, (9, 9, 4))
        B = sp.csr_matrix(np.triu(rng.random((9, 9))) * (rng.random((9, 9)) < 0.5))
        R = deflate(DeflatedOperator(T), rng.random(4), B + sp.triu(B, 1).T)
        U = rng.standard_normal((9, cols))
        P, (BU,) = R.half_product(U, transposed=True)
        assert P.tobytes() == self.reference(T, U).tobytes()
        assert BU.tobytes() == (R.terms[0][1].T @ U).tobytes()

    def test_column_index_holds_4_bytes_per_entry(self, rng):
        T = self.tensor(rng, (12, 10, 6))
        S, D = T._slice_stack(2), T._slice_stack(1)
        assert D.shape == (6 * 12, 6 * 10)
        assert D.indices.nbytes == 4 * T.nnz
        assert np.array_equal(D.indices, T.k * 10 + T.j)
        assert np.shares_memory(D.indptr, S.indptr) and np.shares_memory(D.data, T.vals)


class TestMultiMultiply:
    def test_basis_columns_extract_element(self, rng):
        T = random_sparse(rng, (4, 5, 3), density=0.9)
        i, j, k = 2, 4, 1
        e = lambda n, t: np.eye(n)[:, [t]]
        got = multi_multiply(T, e(4, i), e(5, j), e(3, k))
        assert got.shape == (1, 1, 1)
        assert got[0, 0, 0] == T.to_dense()[i, j, k]

    def test_all_identity_gives_dense_copy(self, rng):
        T = random_sparse(rng, (3, 4, 2))
        got = multi_multiply(T, np.eye(3), np.eye(4), np.eye(2))
        assert np.allclose(got, T.to_dense(), rtol=1e-14, atol=0)

    def test_matches_sequential_contraction_oracle(self, rng):
        T = random_sparse(rng, (4, 5, 3), density=0.5)
        X = np.linalg.qr(rng.standard_normal((4, 2)))[0]
        Y = np.linalg.qr(rng.standard_normal((5, 2)))[0]
        Z = np.linalg.qr(rng.standard_normal((3, 2)))[0]
        got = multi_multiply(T, X, Y, Z)
        # contract one mode at a time, dense, in an independent order (3,2,1)
        d = T.to_dense()
        d = np.einsum("ijk,kr->ijr", d, Z)
        d = np.einsum("ijr,jq->iqr", d, Y)
        want = np.einsum("iqr,ip->pqr", d, X)
        assert np.abs(got - want).max() <= 1e-13 * max(1.0, np.abs(want).max())

    def test_factor_rows_checked(self, rng):
        T = random_sparse(rng, (4, 5, 3))
        with pytest.raises(TensorShapeError, match="do not match tensor dims"):
            multi_multiply(T, np.eye(4), np.eye(4), np.eye(3))

    def test_contraction_order_invariance(self, rng):
        T = random_sparse(rng, (5, 4, 6), density=0.4)
        X, Y, Z = (rng.standard_normal((n, 2)) for n in T.dims)
        ref = multi_multiply(T, X, Y, Z)
        d = T.to_dense()
        orders = [
            np.einsum("ijk,ip,jq,kr->pqr", d, X, Y, Z),
            np.einsum("ijk,kr,ip,jq->pqr", d, Z, X, Y),
        ]
        for want in orders:
            assert np.allclose(ref, want, rtol=1e-12, atol=1e-12)


def same_bits(a, b) -> bool:
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def fsum_or_error(x):
    try:
        return math.fsum(x)
    except (OverflowError, ValueError) as exc:
        return type(exc), str(exc)


def exact_sum_or_error(*args):
    try:
        return _exact_sum(*args)
    except (OverflowError, ValueError) as exc:
        return type(exc), str(exc)


def sum_cases(rng, n):
    """Arrays of one of nine kinds, chosen so that rounding is hard to get right."""
    size = int(rng.integers(0, 48))
    kind = n % 9
    if kind == 0:  # normal values of one random magnitude
        return rng.standard_normal(size) * 10.0 ** rng.uniform(-8, 8)
    if kind == 1:  # subnormals, alone or next to the smallest normals
        x = rng.standard_normal(size) * 2.0**-1060
        return np.where(rng.random(size) < 0.3, x * 2.0**40, x)
    if kind == 2:  # exact cancellation around a few small leftovers
        v = rng.standard_normal(size // 2) * 2.0 ** rng.integers(-30, 30, size // 2)
        x = np.concatenate((v, -v, rng.standard_normal(size % 2) * 1e-20))
        return rng.permutation(x)
    if kind == 3:  # magnitudes spread over 2**-1000 .. 2**1000
        return rng.standard_normal(size) * 2.0 ** rng.integers(-1000, 1000, size)
    if kind == 4:  # dyadic values whose sums land on rounding ties
        return rng.integers(-(2**20), 2**20, size) * 2.0 ** rng.integers(-60, 20, size)
    if kind == 5:  # signed zeros, alone or with a few values
        x = rng.choice([0.0, -0.0], size)
        x[rng.random(size) < 0.2] = 1.5
        return x
    if kind == 6:  # inf and nan among normal values
        x = rng.standard_normal(max(size, 1))
        x[rng.integers(0, x.size, 2)] = rng.choice([np.inf, -np.inf, np.nan], 2)
        return x
    if kind == 7:  # near the top of the float range, where sigma would overflow
        return rng.choice([1.0, -1.0], size) * rng.uniform(0.5, 1.79, size) * 1e308
    return rng.standard_normal(size)  # kind 8: unit normals


class TestExactSum:
    """_exact_sum against math.fsum, bit for bit: tolerance 0, errors included."""

    def test_fuzz_equals_fsum(self):
        rng = np.random.default_rng(2008)
        for n in range(20_000):
            x = sum_cases(rng, n)
            want, got = fsum_or_error(x.tolist()), exact_sum_or_error(x)
            if isinstance(want, tuple):
                assert got == want, (n, x)
            else:
                assert isinstance(got, float) and same_bits(got, want), (n, x)

    @pytest.mark.parametrize("x, want", [
        ([], 0.0),
        ([-0.0], 0.0),
        ([1e16, 1.0, -1e16], 1.0),
        ([1.0, 2.0**-53], 1.0),
        ([1.0, 2.0**-53, 2.0**-106], 1.0 + 2.0**-52),
        ([2.0**1023, 2.0**1023, -(2.0**1023)], None),
        ([1e308, 1e308, -1e308], None),
        ([np.inf, 1.0], np.inf),
    ])
    def test_known_sums(self, x, want):
        if want is None:  # fsum's intermediate overflow is kept
            with pytest.raises(OverflowError):
                math.fsum(x)
            with pytest.raises(OverflowError):
                _exact_sum(np.array(x))
        else:
            assert same_bits(_exact_sum(np.array(x)), want)

    def test_inf_minus_inf_raises_like_fsum(self):
        with pytest.raises(ValueError, match="-inf \\+ inf"):
            _exact_sum(np.array([np.inf, -np.inf]))

    def test_long_arrays(self):
        # 2**17 terms: sigma takes 18 more bits, so fewer per level
        rng = np.random.default_rng(5)
        for scale in (1.0, 2.0**-1000, 2.0**900):
            x = rng.standard_normal(2**17) ** 3 * scale
            before = x.copy()
            assert same_bits(_exact_sum(x), math.fsum(x))
            assert np.array_equal(x, before)  # the input is not overwritten
        x = np.full(2**17, 2.0**1000)  # the level sum reaches 2**1017
        assert same_bits(_exact_sum(x), math.fsum(x))

    def test_grouped_equals_fsum_per_group(self):
        rng = np.random.default_rng(31)
        for n in range(2_000):
            x = sum_cases(rng, n)
            count = int(rng.integers(1, 6))
            groups = rng.integers(0, count, x.size)
            want = [fsum_or_error(x[groups == g].tolist()) for g in range(count)]
            got = exact_sum_or_error(x, groups, count)
            errors = [w for w in want if isinstance(w, tuple)]
            if errors:
                assert got in errors, (n, x, groups)
            else:
                assert isinstance(got, np.ndarray) and got.shape == (count,)
                assert np.array_equal(got.view(np.int64), np.array(want).view(np.int64)), (n, x, groups)

    def test_grouped_total_equals_fsum(self):
        # the total from the grouped levels is fsum of all of x, on the
        # extraction path and on the fsum fallback; the group sums are unchanged
        rng = np.random.default_rng(32)
        for n in range(2_000):
            x = sum_cases(rng, n)
            count = int(rng.integers(1, 6))
            groups = rng.integers(0, count, x.size)
            want = fsum_or_error(x.tolist())
            try:
                sums, total = _exact_sum(x, groups, count, total=True)
            except (OverflowError, ValueError) as exc:  # fsum's error, of a group or of all of x
                errors = [want] + [fsum_or_error(x[groups == g].tolist()) for g in range(count)]
                assert (type(exc), str(exc)) in errors, (n, x, groups)
                continue
            assert np.array_equal(sums.view(np.int64), _exact_sum(x, groups, count).view(np.int64)), n
            assert isinstance(total, float) and same_bits(total, want), (n, x, groups)

    def test_norm_memory(self):
        # the scaled squares are the one array the extraction works in: one
        # more temporary of their size (8 B per entry each), nothing else of it
        x = np.random.default_rng(1).standard_normal(1_000_000)
        want = math.sqrt(math.fsum(x * x))
        tracemalloc.start()
        try:
            got = _norm(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got == want
        assert peak <= 2 * 8 * x.size + 64 * 1024

    def test_overwrite_same_bits(self):
        # in place or not, the same sum (or error) for all nine kinds of input
        rng = np.random.default_rng(8)
        for n in range(2_000):
            x = sum_cases(rng, n)
            want = exact_sum_or_error(x)
            try:
                got = _exact_sum(x.copy(), overwrite=True)
            except (OverflowError, ValueError) as exc:
                got = type(exc), str(exc)
            assert got == want if isinstance(want, tuple) else same_bits(got, want), (n, x)

    def test_grouped_empty(self):
        assert np.array_equal(_exact_sum(np.zeros(0), np.zeros(0, dtype=np.int64), 3), np.zeros(3))
        got = _exact_sum(np.array([1e16, 1.0, -1e16]), np.array([2, 2, 2]), 4)
        assert np.array_equal(got, [0.0, 0.0, 1.0, 0.0])


class TestInnerAndNorm:
    def test_single_entry_self_inner(self):
        T = SparseTensor3((2, 2, 2), [0], [1], [1], [3.0])
        assert inner(T, T) == 9.0

    def test_inner_with_zero(self):
        T = SparseTensor3((2, 2, 2), [0], [1], [1], [3.0])
        Z = SparseTensor3((2, 2, 2))
        assert inner(T, Z) == 0.0

    def test_inner_matches_dense_loop_oracle(self, rng):
        A = random_sparse(rng, (6, 6, 4), density=0.4)
        B = random_sparse(rng, (6, 6, 4), density=0.4)
        da, db = A.to_dense(), B.to_dense()
        prods = [
            da[i, j, k] * db[i, j, k]
            for k in range(4)
            for i in range(6)
            for j in range(6)
        ]
        assert inner(A, B) == math.fsum(prods)

    def test_inner_sparse_dense_mix(self, rng):
        A = random_sparse(rng, (4, 3, 2))
        d = rng.standard_normal((4, 3, 2))
        assert inner(A, d) == pytest.approx(float((A.to_dense() * d).sum()), rel=1e-14)

    def test_shape_mismatch(self, rng):
        with pytest.raises(TensorShapeError):
            inner(random_sparse(rng, (2, 2, 2)), random_sparse(rng, (2, 2, 3)))

    def test_inner_memory_per_entry(self):
        # both code arrays, one search position and one match mask per entry
        # of B, then the matched values: about 33 B per entry, whether the
        # patterns coincide or are independent.  Bound: 40 B per entry
        rng = np.random.default_rng(6)
        dims, nnz = (1000, 700, 10), 400_000
        A = SparseTensor3(dims, *(rng.integers(0, d, nnz) for d in dims), rng.standard_normal(nnz))
        same = SparseTensor3(dims, A.i, A.j, A.k, rng.standard_normal(A.nnz))
        other = SparseTensor3(dims, *(rng.integers(0, d, A.nnz) for d in dims), rng.standard_normal(A.nnz))
        for B in (same, other):
            tracemalloc.start()
            try:
                inner(A, B)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= 40 * max(A.nnz, B.nnz)

    def test_norm_single_negative_entry(self):
        T = SparseTensor3((1, 1, 1), [0], [0], [0], [-3.0])
        assert frobenius_norm(T) == 3.0

    def test_norm_122(self):
        T = SparseTensor3((3, 1, 1), [0, 1, 2], [0, 0, 0], [0, 0, 0], [1.0, 2.0, 2.0])
        assert frobenius_norm(T) == 3.0

    def test_norm_zero_iff_empty(self):
        assert frobenius_norm(SparseTensor3((3, 3, 3))) == 0.0

    def test_orthogonal_invariance(self, rng):
        T = random_sparse(rng, (5, 4, 3), density=0.5)
        nrm = frobenius_norm(T)
        for _ in range(20):
            U, V, W = (random_orthogonal(rng, n) for n in T.dims)
            rotated = multi_multiply(T, U, V, W)
            assert abs(frobenius_norm(rotated) - nrm) <= 1e-12 * nrm


def times_pow2(x, s):
    """x * 2**s, inf or 0 where that leaves the float range."""
    with np.errstate(over="ignore", under="ignore"):
        return np.ldexp(x, s)


@pytest.mark.parametrize("s", BEYOND_SQUARE_RANGE)
class TestScaleCovariance:
    """A tensor scaled by 2**s has its norms times 2**s and its squared norms
    and inner products times 2**(2s), bit for bit; squares of its entries leave
    the float range, the norms do not."""

    def test_norm(self, rng, s):
        T = random_sparse(rng, (7, 6, 5), density=0.4)
        Ts = pow2_scaled(T, s)
        assert 0.0 < Ts.norm() < math.inf
        assert same_bits(Ts.norm(), math.ldexp(T.norm(), s))
        assert same_bits(Ts.norm_squared(), times_pow2(T.norm_squared(), 2 * s))

    def test_frobenius_norm(self, rng, s):
        T = random_sparse(rng, (7, 6, 5), density=0.4)
        Ts = pow2_scaled(T, s)
        want = math.ldexp(frobenius_norm(T), s)
        assert same_bits(frobenius_norm(Ts), want)
        assert same_bits(frobenius_norm(Ts.to_dense()), want)

    def test_inner(self, rng, s):
        T, U = (random_sparse(rng, (7, 6, 5), density=0.6) for _ in range(2))
        Ts, Us = pow2_scaled(T, s), pow2_scaled(U, s)
        want = times_pow2(inner(T, U), 2 * s)
        for a, b in ((Ts, Us), (Ts, Us.to_dense()), (Ts.to_dense(), Us), (Ts.to_dense(), Us.to_dense())):
            assert same_bits(inner(a, b), want)
        assert same_bits(inner(Ts, U), math.ldexp(inner(T, U), s))
        assert same_bits(inner(Ts, Ts), times_pow2(T.norm_squared(), 2 * s))


class TestSymmetryGate:
    """hooi_symmetric, expand and normalize_slices_adjacency gate on
    |a_ijk - a_jik| <= 1e-12 max|a|, whatever the scale of the entries."""

    def test_tiny_asymmetric_tensor_rejected(self):
        d = np.random.default_rng(8).random((5, 5, 2)) * 1e-13
        T = SparseTensor3.from_dense(d)
        with pytest.raises(ValueError, match="^tensor is not \\(1,2\\)-symmetric$"):
            hooi_symmetric(T, (2, 2, 1))
        with pytest.raises(ValueError, match="expansion needs a \\(1,2\\)-symmetric tensor"):
            expand(T, 1, theta=0.1)
        with pytest.raises(ValueError, match="use nonsymmetric_normalize"):
            normalize_slices_adjacency(T)

    @pytest.mark.parametrize("s", [531, -531])
    def test_rounding_asymmetry_accepted_at_any_scale(self, s):
        rng = np.random.default_rng(21)
        S = random_symmetric(rng, 8, 3, density=0.6)
        N = nonsymmetric_normalize(SparseTensor3.from_dense(np.abs(S.to_dense())))
        assert not is_12_symmetric(N)  # normalized entries differ in their last bits
        Ns = pow2_scaled(N, s)
        assert hooi_symmetric(Ns, (2, 2, 1)).U.shape == (8, 2)
        assert len(expand(Ns, 1, theta=0.1)[0]) == 1
        assert normalize_slices_adjacency(Ns).nnz == Ns.nnz


class TestSymmetry:
    def test_simple_symmetric_pair(self):
        T = SparseTensor3((2, 2, 1), [0, 1], [1, 0], [0, 0], [2.0, 2.0])
        assert is_12_symmetric(T)

    def test_asymmetric_pair(self):
        T = SparseTensor3((2, 2, 1), [0, 1], [1, 0], [0, 0], [2.0, 2.5])
        assert not is_12_symmetric(T, tol=1e-9)

    def test_rectangular_never_symmetric(self, rng):
        assert not is_12_symmetric(random_sparse(rng, (2, 3, 1), density=1.0))

    def test_symmetrized_tensor_passes_at_zero_tol(self, rng):
        T = random_sparse(rng, (5, 5, 3))
        d = T.to_dense()
        S = SparseTensor3.from_dense(0.5 * (d + d.transpose(1, 0, 2)))
        assert is_12_symmetric(S, tol=0.0)

    def test_missing_counterpart_detected(self):
        T = SparseTensor3((3, 3, 1), [0], [1], [0], [1.0])
        assert not is_12_symmetric(T, tol=1e-9)

    @staticmethod
    def union_oracle(T, tol):
        """The reference check: look both patterns up on their union."""
        l, m, _ = T.dims
        if l != m:
            return False
        lin = (T.k * l + T.i) * m + T.j
        lin_t = (T.k * l + T.j) * m + T.i
        order = np.argsort(lin_t, kind="stable")
        lin_t, vals_t = lin_t[order], T.vals[order]
        union = np.union1d(lin, lin_t)

        def lookup(codes, sorted_codes, sorted_vals):
            pos = np.searchsorted(sorted_codes, codes)
            pos = np.clip(pos, 0, len(sorted_codes) - 1) if len(sorted_codes) else pos
            out = np.zeros(len(codes))
            if len(sorted_codes):
                hit = sorted_codes[pos] == codes
                out[hit] = sorted_vals[pos[hit]]
            return out

        va = lookup(union, lin, T.vals)
        vb = lookup(union, lin_t, vals_t)
        return bool(np.all(np.abs(va - vb) <= tol))

    @pytest.mark.parametrize("tol", [0.0, 1e-12, 1e-3, 0.5])
    def test_matches_union_oracle(self, tol):
        # same pattern, exactly or nearly symmetric values; and patterns that
        # differ only by entries below or above tol
        rng = np.random.default_rng(7)
        cases = []
        for _ in range(40):
            S = random_symmetric(rng, 6, 3, density=0.4)
            d = S.to_dense()
            cases.append(S)
            noisy = d + np.where(d != 0, rng.uniform(-1e-3, 1e-3, d.shape), 0.0)
            cases.append(SparseTensor3.from_dense(noisy))
            extra = d.copy()
            i, j, k = rng.integers(0, 6), rng.integers(0, 6), rng.integers(0, 3)
            extra[i, j, k] = rng.choice([1e-13, 1e-4, 0.3, 2.0])
            cases.append(SparseTensor3.from_dense(extra))
            cases.append(random_sparse(rng, (6, 6, 3), density=0.2))
        cases += [
            SparseTensor3((3, 3, 2)),
            SparseTensor3((3, 4, 2), [0], [1], [0], [1.0]),
            # differences of exactly 0.5, on one pattern and on differing patterns
            SparseTensor3((2, 2, 1), [0, 1], [1, 0], [0, 0], [2.0, 2.5]),
            SparseTensor3((3, 3, 1), [0], [1], [0], [0.5]),
        ]
        results = [is_12_symmetric(T, tol) for T in cases]
        assert results == [self.union_oracle(T, tol) for T in cases]
        assert True in results and False in results

    def test_check_caches_no_transposed_stack(self, rng):
        # the check transposes blocks of slices for itself only and caches no
        # column index; one a contraction cached before stays cached
        T = random_symmetric(rng, 9, 4, density=0.4)
        assert is_12_symmetric(T)
        assert set(T._stacks) == {2}
        St = T._slice_stack(1)
        assert is_12_symmetric(T)
        assert T._stacks[1] is St

    def test_check_memory_per_entry(self):
        # with the canonical stack and its column index built, the check
        # holds one block's temporaries at a time (about 25 B per entry of a
        # block of at most 2**17 entries and rows; four of the 12 slices
        # here): bound 12 B per entry of the tensor
        rng = np.random.default_rng(5)
        T = random_symmetric(rng, 200, 12, density=0.45)
        assert T.nnz >= 200_000
        for col_mode in (1, 2):
            T._slice_stack(col_mode)
        tracemalloc.start()
        try:
            assert is_12_symmetric(T)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 12 * T.nnz


class TestSymmetricEmbed:
    def test_scalar_case(self):
        T = SparseTensor3((1, 1, 1), [0], [0], [0], [4.5])
        E = symmetric_embed(T)
        assert E.dims == (2, 2, 1)
        assert np.allclose(E.to_dense()[:, :, 0], [[0, 4.5], [4.5, 0]])

    def test_empty(self):
        E = symmetric_embed(SparseTensor3((3, 4, 2)))
        assert E.dims == (7, 7, 2) and E.nnz == 0

    def test_structure_and_norm(self, rng):
        T = random_sparse(rng, (3, 4, 2), density=0.7)
        E = symmetric_embed(T)
        assert is_12_symmetric(E)
        assert abs(frobenius_norm(E) - math.sqrt(2) * frobenius_norm(T)) <= 1e-13
        d = E.to_dense()
        assert np.array_equal(d[:3, 3:, :], T.to_dense())
        assert np.all(d[:3, :3, :] == 0) and np.all(d[3:, 3:, :] == 0)


class TestPermute:
    def test_identity(self, rng):
        T = random_sparse(rng, (4, 3, 2))
        assert permute_mode(T, np.arange(3), 2) == T

    def test_inverse_roundtrip(self, rng):
        T = random_sparse(rng, (4, 5, 3))
        perm = rng.permutation(5)
        inv = np.argsort(perm)
        assert permute_mode(permute_mode(T, perm, 2), inv, 2) == T

    def test_elementwise_oracle(self, rng):
        T = random_sparse(rng, (4, 5, 3), density=0.5)
        perm = rng.permutation(5)
        P = permute_mode(T, perm, 2)
        assert np.array_equal(P.to_dense(), T.to_dense()[:, perm, :])

    def test_norm_preserved_exactly(self, rng):
        T = random_sparse(rng, (6, 6, 4))
        perm = rng.permutation(6)
        assert frobenius_norm(permute_mode(T, perm, 1)) == frobenius_norm(T)

    def test_non_bijection_rejected(self, rng):
        T = random_sparse(rng, (4, 3, 2))
        with pytest.raises(ValueError):
            permute_mode(T, [0, 0, 1], 2)

    def test_three_modes_equal_chained(self, rng):
        for dims in ((4, 5, 3), (7, 7, 1), (1, 6, 5)):
            T = random_sparse(rng, dims, density=0.5)
            p1, p2, p3 = (rng.permutation(d) for d in dims)
            chained = permute_mode(permute_mode(permute_mode(T, p1, 1), p2, 2), p3, 3)
            P = permute_modes(T, p1, p2, p3)
            assert P == chained and P.dims == chained.dims
            assert np.array_equal(P.to_dense(), T.to_dense()[p1][:, p2][:, :, p3])

    def test_memory_per_entry(self):
        # the new codes in one buffer sorted in place, the gathered values
        # and the decoded indices.  Bound, result (32 B per entry) included:
        # 42 B per entry
        rng = np.random.default_rng(4)
        dims, nnz = (1000, 700, 10), 500_000
        T = SparseTensor3(dims, *(rng.integers(0, d, nnz) for d in dims), rng.standard_normal(nnz))
        perms = [rng.permutation(d) for d in dims]
        tracemalloc.start()
        try:
            P = permute_modes(T, *perms)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert P.nnz == T.nnz
        assert peak <= 42 * T.nnz

    def test_three_modes_non_bijection_rejected(self, rng):
        T = random_sparse(rng, (4, 3, 2))
        with pytest.raises(ValueError):
            permute_modes(T, np.arange(4), np.arange(3), [1, 1])


class TestSubtensor:
    def test_full_sets_identity(self, rng):
        T = random_sparse(rng, (4, 3, 2))
        assert subtensor(T, range(4), range(3), range(2)) == T

    def test_disjoint_support_empty(self):
        T = SparseTensor3((4, 4, 2), [0], [0], [0], [1.0])
        S = subtensor(T, [2, 3], [2, 3], [1])
        assert S.nnz == 0 and S.dims == (2, 2, 1)

    def test_pythagorean_partition(self, rng):
        T = random_sparse(rng, (6, 5, 4), density=0.6)
        total = frobenius_norm(T) ** 2
        acc = 0.0
        for I in ([0, 1, 2], [3, 4, 5]):
            for J in ([0, 1], [2, 3, 4]):
                acc += frobenius_norm(subtensor(T, I, J, range(4))) ** 2
        assert abs(acc - total) <= 1e-12 * total

    def test_out_of_range(self, rng):
        T = random_sparse(rng, (4, 3, 2))
        with pytest.raises(IndexError):
            subtensor(T, [0, 4], [0], [0])

    @pytest.mark.parametrize(
        "J, match", [([], "index set J is empty"), ([2, 1], "J must be strictly increasing"), ([1, 1], "strictly")]
    )
    def test_bad_index_set(self, rng, J, match):
        with pytest.raises(ValueError, match=match):
            subtensor(random_sparse(rng, (4, 3, 2)), [0, 1], J, [0])
