import math

import numpy as np
import pytest

from tenspart import (
    SparseTensor3,
    frobenius_norm,
    inner,
    is_12_symmetric,
    mode_multiply,
    multi_multiply,
    permute_mode,
    permute_modes,
    subtensor,
    symmetric_embed,
)
from tenspart.preprocess import nonsymmetric_normalize
from tenspart.sparse_tensor import TensorShapeError

from conftest import random_orthogonal, random_sparse, random_symmetric


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

    def test_result_cached_per_tol(self):
        T = SparseTensor3((2, 2, 1), [0, 1], [1, 0], [0, 0], [2.0, 2.0 + 1e-6])
        assert not is_12_symmetric(T, tol=1e-9)
        assert is_12_symmetric(T, tol=1e-3)
        assert T._sym_cache == {1e-9: False, 1e-3: True}
        assert not is_12_symmetric(T, tol=1e-9)
        T._sym_cache[1e-9] = True  # later calls read the cache, not the entries
        assert is_12_symmetric(T, tol=1e-9)


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
