import dataclasses
import importlib.util
import json
import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from tenspart import (
    DeflatedOperator,
    LabelTable,
    SolverConfig,
    SparseTensor3,
    deflate,
    expand,
    frobenius_norm,
    overlap_cosines,
    rank221_term,
    subgraph_export,
    threshold_B,
)
from tenspart import expansion
from tenspart.expansion import save_expansion_report

from conftest import planted_bipartite, pow2_scaled, random_symmetric

TIGHT = SolverConfig(rel_tol=1e-12, max_iters=500)
BENCH_INPUTS = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"


def planted_two_terms(seed=0):
    """Sum of two disjoint bipartite-block terms with distinct temporal profiles."""
    rng = np.random.default_rng(seed)
    l, n = 20, 6
    u1 = np.zeros(l)
    v1 = np.zeros(l)
    u1[0:4] = rng.random(4) + 0.5
    v1[4:8] = rng.random(4) + 0.5
    u2 = np.zeros(l)
    v2 = np.zeros(l)
    u2[10:13] = rng.random(3) + 0.5
    v2[13:17] = rng.random(4) + 0.5
    for x in (u1, v1, u2, v2):
        x /= np.linalg.norm(x)
    w1 = np.zeros(n)
    w1[:3] = [1.0, 0.8, 0.6]
    w2 = np.zeros(n)
    w2[3:] = [0.9, 0.7, 0.5]
    A1 = np.outer(u1, v1)
    A1 = A1 + A1.T
    A2 = np.outer(u2, v2)
    A2 = A2 + A2.T
    d = 8.0 * A1[:, :, None] * w1[None, None, :] + 5.0 * A2[:, :, None] * w2[None, None, :]
    return SparseTensor3.from_dense(d), (A1, w1, 8.0), (A2, w2, 5.0)


def form_B(U, core):
    """Dense B = U G U' from the 2x2 core slice G: the oracle of the pair (U, G) path."""
    G = np.asarray(core, dtype=float)
    if G.ndim == 3:
        G = G[:, :, 0]
    if G.shape != (2, 2) or U.shape[1] != 2:
        raise ValueError("form_B expects a mx2 factor and a 2x2 core slice")
    return U @ G @ U.T


def dyadic_pair(rng, m, nonnegative=False):
    """A pair (U, G), G symmetric, of few-bit dyadic entries: every product and
    sum behind b_ij is exact, so the pair path and ``form_B`` agree bitwise and
    B is exactly symmetric."""
    low = 0 if nonnegative else -8
    U = rng.integers(low, 9, size=(m, 2)) / 8.0
    G = rng.integers(low, 9, size=(2, 2)) / 4.0
    return U, np.triu(G) + np.triu(G, 1).T


class TestFormB:
    def test_norm_equals_core_norm(self, rng):
        T = random_symmetric(rng, 8, 3, density=0.5)
        ap = rank221_term(T, TIGHT)
        B = form_B(ap.U, ap.core)
        G = ap.core[:, :, 0]
        assert np.linalg.norm(B) == pytest.approx(np.linalg.norm(G), rel=1e-12)

    def test_symmetric_and_rank_two(self, rng):
        T = random_symmetric(rng, 8, 3, density=0.5)
        ap = rank221_term(T, TIGHT)
        B = form_B(ap.U, ap.core)
        assert np.abs(B - B.T).max() <= 1e-12
        assert np.linalg.matrix_rank(B, tol=1e-10) <= 2

    def test_eigen_structure_matches_core(self, rng):
        T = random_symmetric(rng, 8, 3, density=0.5)
        ap = rank221_term(T, TIGHT)
        B = form_B(ap.U, ap.core)
        G = 0.5 * (ap.core[:, :, 0] + ap.core[:, :, 0].T)
        ev = np.linalg.eigvalsh(B)
        nonzero = np.sort(ev[np.argsort(-np.abs(ev))[:2]])
        assert np.allclose(nonzero, np.sort(np.linalg.eigvalsh(G)), atol=1e-10)

    def test_bad_shapes_rejected(self):
        # the oracle and the pair path refuse the same shapes
        for U, G in ((np.ones((4, 3)), np.eye(2)), (np.ones((4, 2)), np.eye(3))):
            with pytest.raises(ValueError):
                form_B(U, G)
            with pytest.raises(ValueError):
                threshold_B((U, G), 0.5)


class TestBipartitePlantedTerm:
    """A single bipartite block must come back exactly, with the expected core."""

    def test_exact_core_and_vectors(self):
        tau = 2.0
        w = np.array([3.0, 4.0]) / 5.0
        T, u, v, w = planted_bipartite(4, 5, 2, tau=tau, w=w, seed=11)
        ap = rank221_term(T, TIGHT)
        G = ap.core[:, :, 0]
        # canonical core is anti-diagonal with value tau
        assert abs(G[0, 0]) <= 1e-10 and abs(G[1, 1]) <= 1e-10
        assert abs(abs(G[0, 1]) - tau) <= 1e-10
        assert abs(abs(ap.W[:, 0] @ w) - 1.0) <= 1e-10

    def test_structure_flag_from_expand(self):
        w = np.array([3.0, 4.0]) / 5.0
        T, _, _, _ = planted_bipartite(4, 5, 2, tau=2.0, w=w, seed=11)
        terms, _ = expand(T, 1, theta=0.0, mode="absolute", cfg=TIGHT)
        t = terms[0]
        assert t.structured
        l1, l2 = t.eigenvalues
        assert l1 * l2 < 0

    @pytest.mark.parametrize("s", [531, -545])
    def test_structure_flag_at_any_scale(self, s):
        # the product of the two eigenvalues overflows or underflows; their signs do not
        w = np.array([3.0, 4.0]) / 5.0
        T, _, _, _ = planted_bipartite(4, 5, 2, tau=2.0, w=w, seed=11)
        terms, _ = expand(pow2_scaled(T, s), 1, theta=0.0, mode="absolute", cfg=TIGHT)
        assert terms[0].structured

    def test_unstructured_positive_blocks(self):
        # two same-sign diagonal blocks: eigenvalues both positive
        d = np.zeros((8, 8, 2))
        d[0:4, 0:4, :] = 1.0
        d[4:8, 4:8, :] = 0.7
        T = SparseTensor3.from_dense(d)
        terms, _ = expand(T, 1, theta=0.0, mode="absolute", cfg=TIGHT)
        l1, l2 = terms[0].eigenvalues
        assert l1 > 0 and l2 > 0
        assert not terms[0].structured


class TestThresholdB:
    """The pair (U, G) on exact dyadic data, against masks of the dense B = form_B(U, G)."""

    def test_positive_mode_oracle(self, rng):
        U, G = dyadic_pair(rng, 7)
        B, theta = form_B(U, G), 0.3
        Bh = threshold_B((U, G), theta, "positive").toarray()
        expect = np.where(B > theta * B.max(), B, 0.0)
        assert B.max() > 0 and np.array_equal(Bh, expect)

    def test_absolute_mode_oracle(self, rng):
        U, G = dyadic_pair(rng, 7)
        B, theta = form_B(U, G), 0.4
        Bh = threshold_B((U, G), theta, "absolute").toarray()
        expect = np.where(np.abs(B) > theta * np.abs(B).max(), B, 0.0)
        assert np.array_equal(Bh, expect)

    def test_theta_zero_absolute_keeps_all(self, rng):
        U, G = dyadic_pair(rng, 6)
        Bh = threshold_B((U, G), 0.0, "absolute")
        assert Bh.nnz == np.count_nonzero(form_B(U, G))

    def test_nnz_monotone_in_theta(self, rng):
        U, G = dyadic_pair(rng, 10, nonnegative=True)
        sizes = [threshold_B((U, G), th, "positive").nnz for th in (0.0, 0.2, 0.5, 0.9)]
        assert sizes == sorted(sizes, reverse=True)

    def test_result_symmetric(self, rng):
        U, G = dyadic_pair(rng, 9)
        Bh = threshold_B((U, G), 0.25, "absolute")
        assert (Bh != Bh.T).nnz == 0

    def test_invalid_args(self):
        U = np.linalg.qr(np.random.default_rng(0).standard_normal((4, 2)))[0]
        for theta, mode, match in ((1.0, "positive", "theta"), (-0.1, "positive", "theta"),
                                   (math.nan, "positive", "theta"), (0.5, "weird", "mode")):
            with pytest.raises(ValueError, match=match):
                threshold_B((U, np.eye(2)), theta, mode)


def threshold_oracle(B, theta, mode):
    """Dense thresholding on a whole-matrix mask, with the symmetric tie rule."""
    if mode == "positive":
        scale = np.abs(B).max()
        mask = B > theta * B.max() if B.max() > 1e-12 * scale else np.zeros(B.shape, bool)
    else:
        mask = B != 0 if theta == 0.0 else np.abs(B) > theta * np.abs(B).max()
    mask &= mask.T
    return np.where(mask, B, 0.0)


def factor_cases(m, rng):
    """(name, U, G): opposite-sign and same-sign core eigenvalues, no positive part."""
    U = rng.standard_normal((m, 2))
    if m >= 2:
        U = np.linalg.qr(U)[0]
    return [
        ("opposite", U, np.array([[0.1, 2.0], [2.0, -0.3]])),
        ("same", U, np.array([[3.0, 0.5], [0.4, 1.0]])),
        ("nonpositive", np.abs(U), -np.array([[1.0, 0.2], [0.3, 0.7]])),
    ]


class TestStreamedThreshold:
    """threshold_B on the pair (U, G) against ``threshold_oracle`` on the dense B = form_B(U, G).

    Both compute b_ij = (U G)_i . u_j, the streamed path one row block at a
    time; BLAS may round a block product differently from the whole
    product (seen: 1.2e-16 * max|B| at m = 500).  So the supports must be
    identical except for entries whose value (|b_ij| in absolute mode), or
    whose mirror's, lies within 4 ulp * max|B| of the cut, and kept values
    and the extremes agree to 1e-15 * max|B|.
    """

    @staticmethod
    def check(U, G, theta, mode):
        B = form_B(U, G)
        scale = np.abs(B).max()
        tol = 1e-15 * scale
        b_max, b_min = expansion._extremes((U, G))
        assert abs(b_max - B.max()) <= tol and abs(b_min - B.min()) <= tol
        want = threshold_oracle(B, theta, mode)
        got = threshold_B((U, G), theta, mode)
        assert got.has_canonical_format or got.nnz == 0
        got = got.toarray()
        both = (got != 0) & (want != 0)
        assert np.abs(got[both] - want[both]).max(initial=0.0) <= tol
        if mode == "positive":
            value, cut = B, theta * B.max()
        else:
            value, cut = np.abs(B), theta * scale
        near = np.abs(value - cut) <= 4 * np.finfo(float).eps * scale
        near |= near.T
        assert not np.any(((got != 0) != (want != 0)) & ~near)

    @pytest.mark.parametrize("block", [20, 1000])
    @pytest.mark.parametrize("m", [1, 2, 7, 255, 256, 257, 500])
    def test_matches_dense(self, monkeypatch, m, block):
        monkeypatch.setattr(expansion, "_BLOCK_ENTRIES", block)
        rng = np.random.default_rng(m)
        for _, U, G in factor_cases(m, rng):
            for mode in ("positive", "absolute"):
                for theta in (0.0, 0.25, 0.9):
                    self.check(U, G, theta, mode)

    def test_no_positive_part_is_empty(self):
        _, U, G = factor_cases(50, np.random.default_rng(1))[2]
        assert form_B(U, G).max() <= 0
        assert threshold_B((U, G), 0.25, "positive").nnz == 0

    @pytest.mark.parametrize("mode", ["positive", "absolute"])
    def test_exact_ties_at_the_cut(self, monkeypatch, mode):
        # dyadic rows: every product is exact, equal rows give equal entries,
        # and at theta = 0.25 the entries 1 (= 0.25 * max B = 0.25 * 4) sit on the cut
        monkeypatch.setattr(expansion, "_BLOCK_ENTRIES", 24)
        rows = np.array([[1.0, 0.0], [0.5, 0.0], [0.0, 1.0], [0.5, 0.5]])
        U = rows[np.random.default_rng(5).integers(0, 4, 40)]
        G = np.array([[4.0, 0.0], [0.0, 1.0]])
        B = form_B(U, G)
        assert np.count_nonzero(B == 1.0) > 0
        for theta in (0.0, 0.25, 0.9):
            got = threshold_B((U, G), theta, mode).toarray()
            assert np.array_equal(got, threshold_oracle(B, theta, mode))

    def test_pair_shape_rejected(self):
        with pytest.raises(ValueError):
            threshold_B((np.ones((4, 3)), np.eye(2)), 0.5)
        with pytest.raises(ValueError):
            threshold_B((np.ones((4, 2)), np.eye(3)), 0.5)
        with pytest.raises(ValueError):
            threshold_B(np.ones((4, 3)), 0.5)



def planted_factor(m, rng, groups=(120, 150), noise=0.002):
    """Orthonormal m x 2 factor of a bipartite pair of planted groups: (u + v, u - v) plus noise."""
    u, v = np.zeros(m), np.zeros(m)
    cut = groups[0] + groups[1]
    u[: groups[0]] = rng.random(groups[0]) + 0.5
    v[groups[0] : cut] = rng.random(groups[1]) + 0.5
    u, v = u / np.linalg.norm(u), v / np.linalg.norm(v)
    U = np.column_stack((u + v, u - v)) + noise * rng.standard_normal((m, 2))
    return np.linalg.qr(U[rng.permutation(m)])[0]


class TestBoundedScan:
    """The pair (U, G) is scanned only where |b_ij| <= |(U G)_i| |U_j| can pass
    the running extremes or the cut; masks of the dense B = form_B(U, G) are
    the oracle, with TestStreamedThreshold's tolerance model (supports equal
    except within 4 ulp * max|B| of the cut, values and extremes within
    1e-15 * max|B|)."""

    THETAS = (0.0, 0.1, 0.25, 0.9)

    @classmethod
    def check(cls, U, G):
        """Every mode and theta on one factor pair, against masks of the dense B."""
        B = form_B(U, G)
        m, scale = B.shape[0], np.abs(B).max()
        tol, near = 1e-15 * scale, 4 * np.finfo(float).eps * scale
        b_max, b_min = expansion._extremes((U, G))
        assert abs(b_max - B.max()) <= tol and abs(b_min - B.min()) <= tol
        for mode in ("positive", "absolute"):
            value = B if mode == "positive" else np.abs(B)
            for theta in cls.THETAS:
                got = threshold_B((U, G), theta, mode)
                assert got.has_canonical_format or got.nnz == 0
                cut = theta * (B.max() if mode == "positive" else scale)
                if mode == "positive" and B.max() <= 1e-12 * scale:
                    assert got.nnz == 0
                    continue
                mask = B != 0 if mode == "absolute" and theta == 0 else value > cut
                mask &= mask.T
                want = np.flatnonzero(mask)  # row-major codes of a symmetric pattern
                codes = expansion._codes(got)
                if np.array_equal(codes, want):
                    assert np.abs(got.data - B.ravel()[want]).max(initial=0.0) <= tol
                    continue
                i, j = np.divmod(codes, m)
                assert np.array_equal(np.sort(j * m + i), codes)  # a symmetric pattern
                common = np.intersect1d(codes, want, assume_unique=True)
                kept = got.data[np.searchsorted(codes, common)]
                assert np.abs(kept - B.ravel()[common]).max(initial=0.0) <= tol
                # an entry kept by one side only must sit at the cut, or its mirror must
                i, j = np.divmod(np.setxor1d(codes, want, assume_unique=True), m)
                assert np.all((np.abs(value[i, j] - cut) <= near) | (np.abs(value[j, i] - cut) <= near))

    @staticmethod
    def cases(m, rng):
        U = planted_factor(m, rng)
        Z = U.copy()
        Z[rng.choice(m, m // 5, replace=False)] = 0.0
        phi = rng.uniform(0, 2 * np.pi, m)
        E = np.column_stack((np.cos(phi), np.sin(phi))) / np.sqrt(m)
        return [
            ("planted", U, np.array([[0.02, 5.3], [5.3, 0.01]])),
            ("zero rows", Z, np.array([[0.4, 2.0], [2.0, -0.3]])),
            # an orthogonal G keeps every |(U G)_i| equal: the worst case
            ("equal norms", E, np.array([[0.6, 0.8], [0.8, -0.6]])),
            ("no positive part", np.abs(U), -np.array([[1.0, 0.2], [0.2, 0.7]])),
        ]

    @pytest.mark.parametrize("case", range(4))
    def test_matches_dense_oracle(self, case):
        _, U, G = self.cases(3000, np.random.default_rng(17))[case]
        self.check(U, G)

    def test_single_vertex(self):
        for G in (np.array([[2.0, 0.5], [0.5, -1.0]]), -np.eye(2), np.zeros((2, 2))):
            for U in (np.array([[0.6, 0.8]]), np.zeros((1, 2))):
                for mode in ("positive", "absolute"):
                    for theta in self.THETAS:
                        got = threshold_B((U, G), theta, mode).toarray()
                        assert np.array_equal(got, threshold_oracle(form_B(U, G), theta, mode))
                assert expansion._extremes((U, G)) == (form_B(U, G)[0, 0],) * 2

    def test_planted_scan_is_output_sensitive(self, monkeypatch):
        # m = 20000: a full scan reads 4e8 entries per pass; the planted
        # groups' pairs (270^2 = 72900) and the noise that bounds the
        # extremes stay far below 1% of m^2 over both passes
        m = 20000
        U = planted_factor(m, np.random.default_rng(3))
        G = np.array([[0.02, 5.3], [5.3, 0.01]])
        scanned = []
        blocks = expansion._bounded_blocks

        def counted(B, need):
            for rows, cols, blk in blocks(B, need):
                assert blk.shape == (rows.size, cols.size)
                assert blk.size <= expansion._BLOCK_ENTRIES
                scanned.append(blk.size)
                yield rows, cols, blk

        monkeypatch.setattr(expansion, "_bounded_blocks", counted)
        B_hat = threshold_B((U, G), 0.25, "positive")
        assert sum(scanned) < 0.01 * m * m
        assert 0 < B_hat.nnz <= 2 * 120 * 150


class TestNonFinite:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_dense_rejected(self, bad):
        # B is read only as the pair (U, G): a dense matrix, finite or not, and
        # a tuple of three are refused before any entry is read
        B = np.ones((5, 5))
        B[1, 3] = bad
        U = np.ones((5, 2))
        for given in (B, np.ones((5, 5)), (U, np.eye(2), np.eye(2))):
            for mode in ("positive", "absolute"):
                with pytest.raises(ValueError, match="must be a pair"):
                    threshold_B(given, 0.25, mode)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["U", "G"])
    def test_pair_rejected(self, bad, where):
        U, G = np.linalg.qr(np.random.default_rng(4).standard_normal((6, 2)))[0], np.eye(2)
        (U if where == "U" else G)[1, 0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            threshold_B((U, G), 0.25)
        with pytest.raises(ValueError, match="non-finite"):
            threshold_B((U, G), 0.0, "absolute")


class TestDeflatedOperator:
    def test_matches_materialized_residual(self, rng):
        T = random_symmetric(rng, 7, 4, density=0.5)
        w = rng.random(4)
        B = sp.csr_matrix(np.triu(rng.random((7, 7))) + np.triu(rng.random((7, 7))).T)
        R = deflate(DeflatedOperator(T), w, B)
        dense = T.to_dense() - B.toarray()[:, :, None] * w[None, None, :]
        V = rng.standard_normal((7, 2))
        W = rng.standard_normal((4, 2))
        assert np.abs(
            R.contract_modes23(V, W) - np.einsum("ijk,jq,kr->iqr", dense, V, W)
        ).max() <= 1e-12
        assert np.abs(
            R.contract_modes13(V, W) - np.einsum("ijk,ip,kr->jpr", dense, V, W)
        ).max() <= 1e-12
        assert np.abs(
            R.contract_modes12(V, V) - np.einsum("ijk,ip,jq->kpq", dense, V, V)
        ).max() <= 1e-12
        assert R.norm() == pytest.approx(np.linalg.norm(dense), rel=1e-12)
        assert np.abs(R.to_dense() - dense).max() <= 1e-12

    def test_base_untouched(self, rng):
        T = random_symmetric(rng, 6, 3, density=0.5)
        before = T.to_dense().copy()
        R0 = DeflatedOperator(T)
        R1 = deflate(R0, np.ones(3), sp.eye(6, format="csr"))
        assert np.array_equal(T.to_dense(), before)
        assert not R0.terms and len(R1.terms) == 1

    def test_shape_validation(self, rng):
        T = random_symmetric(rng, 6, 3, density=0.5)
        with pytest.raises(ValueError):
            deflate(DeflatedOperator(T), np.ones(2), sp.eye(6, format="csr"))
        with pytest.raises(ValueError):
            deflate(DeflatedOperator(T), np.ones(3), sp.eye(5, format="csr"))


def norm_squared_from_scratch(R):
    """fsum of ||base||^2, -2<base, term> by fancy indexing, and every term Gram
    product as the product of the fsums over w and over B."""
    T = R.base
    parts = [T.norm_squared()]
    for w, B in R.terms:
        bvals = np.asarray(B.tocsr()[T.i, T.j]).ravel()
        parts.append(-2.0 * math.fsum(T.vals * w[T.k] * bvals))
    for wa, Ba in R.terms:
        for wb, Bb in R.terms:
            parts.append(math.fsum(wa * wb) * math.fsum(Ba.multiply(Bb).data))
    return math.fsum(parts)


def random_term(rng, m, n, density=0.3):
    B = sp.random(m, m, density=density, random_state=rng, format="csr")
    return rng.standard_normal(n), (B + B.T).tocsr()


class TestNormCache:
    def test_chain_matches_from_scratch(self, rng):
        T = random_symmetric(rng, 9, 4, density=0.5)
        chain = [DeflatedOperator(T)]
        for _ in range(4):
            R = deflate(chain[-1], *random_term(rng, 9, 4))
            got = R.norm_squared()
            assert got == norm_squared_from_scratch(R)
            assert got == pytest.approx(np.linalg.norm(R.to_dense()) ** 2, rel=1e-12)
            chain.append(R)
        # deflating never changes the cached norm of the operator it extends
        for R in chain:
            assert R.norm_squared() == norm_squared_from_scratch(R)

    def test_duplicate_unsorted_entries_canonicalized(self, rng):
        T = random_symmetric(rng, 6, 3, density=0.6)
        w = rng.standard_normal(3)
        # row 0 stores column 4 twice and its columns out of order; dyadic
        # values make the duplicate sum exact
        data = np.array([0.25, 0.5, 0.75, 1.0, -0.5, 1.5])
        indices = np.array([4, 1, 4, 0, 3, 2])
        indptr = np.array([0, 3, 4, 4, 5, 5, 6])
        B = sp.csr_matrix((data, indices, indptr), shape=(6, 6))
        assert not B.has_canonical_format
        canonical = sp.csr_matrix(B.toarray())
        R = deflate(DeflatedOperator(T), w, B)
        assert R.norm_squared() == deflate(DeflatedOperator(T), w, canonical).norm_squared()
        assert R.norm_squared() == pytest.approx(np.linalg.norm(R.to_dense()) ** 2, rel=1e-12)
        assert np.array_equal(B.indices, indices) and np.array_equal(B.data, data)

    def test_direct_construction_fills_cache_lazily(self, rng):
        T = random_symmetric(rng, 8, 4, density=0.5)
        terms = [random_term(rng, 8, 4) for _ in range(2)]
        direct = DeflatedOperator(T, terms)
        chained = deflate(deflate(DeflatedOperator(T), *terms[0]), *terms[1])
        assert isinstance(direct.terms, tuple)
        assert direct.norm_squared() == chained.norm_squared() == norm_squared_from_scratch(direct)


    def test_terms_far_from_base_scale(self, rng):
        # every factor of an inner product is scaled by its own power of two
        # and the cache moves to the largest term's scale, so O(1) terms on
        # a base near 2**-600, tiny terms, and O(1) terms whose w and B lie
        # far apart all give finite, exact norms
        T = random_symmetric(rng, 9, 4, density=0.5)
        tiny = SparseTensor3(T.dims, T.i, T.j, T.k, np.ldexp(T.vals, -600))
        for base, w_scale, B_scale in ((tiny, 0, 0), (T, 0, -600), (T, 600, -600)):
            R = DeflatedOperator(base)
            R.norm()
            for _ in range(3):
                w, B = random_term(rng, 9, 4)
                B = sp.csr_matrix((np.ldexp(B.data, B_scale), B.indices, B.indptr), shape=B.shape)
                R = deflate(R, np.ldexp(w, w_scale), B)
                assert R.norm() == pytest.approx(np.linalg.norm(R.to_dense()), rel=1e-12)
                assert R.norm_squared() == pytest.approx(R.norm() ** 2, rel=1e-12)

    def test_zero_terms_keep_scale(self, rng):
        # an empty B_hat or a zero w adds nothing and must not move a tiny
        # base's parts to a scale where they underflow
        T = random_symmetric(rng, 9, 4, density=0.5)
        tiny = DeflatedOperator(SparseTensor3(T.dims, T.i, T.j, T.k, np.ldexp(T.vals, -600)))
        w, B = random_term(rng, 9, 4)
        R = deflate(deflate(tiny, w, sp.csr_matrix((9, 9))), np.zeros(4), B)
        assert R.norm() == tiny.norm() == math.ldexp(DeflatedOperator(T).norm(), -600)

    def test_norm_below_squared_range(self, rng):
        # ||R||^2 underflows near 1e-170 while ||R|| does not; the root is taken
        # at the cached scale, so it is the unscaled norm times 2**-565 bitwise
        T = random_symmetric(rng, 8, 4, density=0.5)
        w, B = random_term(rng, 8, 4)
        small = SparseTensor3(T.dims, T.i, T.j, T.k, np.ldexp(T.vals, -565))
        B_small = sp.csr_matrix((np.ldexp(B.data, -565), B.indices, B.indptr), shape=B.shape)
        for R, R_small in ((DeflatedOperator(T), DeflatedOperator(small)),
                           (deflate(DeflatedOperator(T), w, B), deflate(DeflatedOperator(small), w, B_small))):
            assert R_small.norm_squared() < 1e-300
            assert R_small.norm() == math.ldexp(R.norm(), -565) > 0.0


class TestExpand:
    def test_two_planted_terms_recovered(self):
        T, (A1, w1, c1), (A2, w2, c2) = planted_two_terms(seed=4)
        terms, residuals = expand(T, 2, theta=0.0, mode="absolute", cfg=TIGHT)
        # stronger term first
        got_w = [t.w / np.linalg.norm(t.w) for t in terms]
        assert abs(got_w[0] @ (w1 / np.linalg.norm(w1))) >= 0.999
        assert abs(got_w[1] @ (w2 / np.linalg.norm(w2))) >= 0.999
        assert residuals[0] > residuals[1] > residuals[2]
        assert residuals[2] <= 1e-5 * residuals[0]
        C = overlap_cosines(terms)
        assert abs(C[0, 1]) <= 0.01
        assert all(t.structured for t in terms)

    def test_pythagorean_residual_decrease(self, rng):
        # theta=0 absolute keeps B_hat == B, so each deflation step removes
        # an orthogonal component: ||R_next||^2 = ||R||^2 - ||F||^2
        T = random_symmetric(rng, 8, 4, density=0.6)
        terms, residuals = expand(T, 2, theta=0.0, mode="absolute", cfg=TIGHT)
        for v, t in enumerate(terms):
            lhs = residuals[v + 1] ** 2
            rhs = residuals[v] ** 2 - t.norm_F**2
            assert abs(lhs - rhs) <= 1e-9 * residuals[0] ** 2
            # the scaled norm gives the fsum formula's bits where that is finite
            assert t.norm_F == math.sqrt(math.fsum((t.core * t.core).ravel()))

    def test_residual_norms_finite_near_float_max(self, rng):
        # squares of entries near 1e160 pass the float range; the norm parts
        # are kept at the base's power-of-two scale, so the scaled tensor's
        # norms are the unscaled ones times 2**531
        T = random_symmetric(rng, 8, 4, density=0.6)
        big = SparseTensor3(T.dims, T.i, T.j, T.k, np.ldexp(T.vals, 531))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            terms, residuals = expand(big, 2, 0.1)
        small_terms, small_residuals = expand(T, 2, 0.1)
        assert all(math.isfinite(r) for r in residuals)
        np.testing.assert_allclose(residuals, np.ldexp(small_residuals, 531), rtol=1e-12)
        for t, s in zip(terms, small_terms):
            assert math.isfinite(t.norm_B_hat)
            assert t.norm_B_hat == pytest.approx(math.ldexp(s.norm_B_hat, 531), rel=1e-12)
        R = deflate(DeflatedOperator(big), terms[0].w, terms[0].B_hat)
        assert R.norm_squared() == math.inf and math.isfinite(R.norm())

    def test_norm_B_hat_is_correctly_rounded(self, rng):
        # norm_B_hat is the root of the fsum of the squares, and it scales
        # exactly with the tensor, past the range of the squares
        with pytest.warns(RuntimeWarning, match="did not converge"):  # most of these terms stall
            for v in range(6):
                T = random_symmetric(rng, 100, 3, density=0.3)
                terms, _ = expand(T, 2, theta=0.0, mode="absolute", cfg=TIGHT)
                for t in terms:
                    assert t.B_hat.nnz > 5000
                    assert t.norm_B_hat == math.sqrt(math.fsum(t.B_hat.data * t.B_hat.data))
                if v == 0:
                    big, _ = expand(pow2_scaled(T, 531), 2, theta=0.0, mode="absolute", cfg=TIGHT)
                    assert [t.norm_B_hat for t in big] == [math.ldexp(t.norm_B_hat, 531) for t in terms]

    def test_residual_norms_length(self, rng):
        T = random_symmetric(rng, 6, 3, density=0.6)
        terms, residuals = expand(T, 3, theta=0.0, mode="absolute", cfg=TIGHT)
        assert len(terms) == 3 and len(residuals) == 4
        assert residuals[0] == pytest.approx(frobenius_norm(T), rel=1e-12)

    def test_asymmetric_rejected(self, rng):
        d = rng.random((5, 5, 2))
        with pytest.raises(ValueError):
            expand(SparseTensor3.from_dense(d), 1, theta=0.1)

    def test_empty_term_warns(self):
        # theta close to 1 in positive mode on an all-negative B empties B_hat
        d = np.zeros((6, 6, 2))
        d[0:3, 3:6, :] = -1.0
        d[3:6, 0:3, :] = -1.0
        T = SparseTensor3.from_dense(d)
        with pytest.warns(UserWarning, match="empty"):
            expand(T, 1, theta=0.9, mode="positive", cfg=TIGHT)

    def test_solver_warnings_reach_caller(self, rng):
        # each term whose solve stops at max_iters warns once, as hooi_symmetric does
        T = random_symmetric(rng, 12, 3, density=0.5)
        with pytest.warns(RuntimeWarning, match="HOOI did not converge within max_iters") as record:
            terms, _ = expand(T, 2, theta=0.2, cfg=SolverConfig(max_iters=1))
        unconverged = [w for w in record if "did not converge" in str(w.message)]
        assert len(unconverged) == sum(not t.converged for t in terms) == 2

    def test_empty_tensor_rejected(self):
        with pytest.raises(ValueError, match="^cannot approximate an empty tensor$"):
            expand(SparseTensor3((6, 6, 2)), 1, theta=0.1)

    def test_invalid_q(self, rng):
        T = random_symmetric(rng, 5, 2, density=0.5)
        with pytest.raises(ValueError):
            expand(T, 0, theta=0.1)

    @pytest.mark.parametrize(
        "theta, mode, match",
        [(1.5, "positive", "theta"), (math.nan, "positive", "theta"), (-0.1, "absolute", "theta"),
         (0.25, "weird", "mode")],
    )
    def test_cut_checked_before_the_solve(self, rng, theta, mode, match):
        # the symmetry check is O(nnz) and builds the canonical stack, and a
        # solve follows it; a bad theta or mode is refused before either runs
        T = random_symmetric(rng, 30, 4, density=0.3)
        with pytest.raises(ValueError, match=match):
            expand(T, 2, theta=theta, mode=mode)
        assert T._stacks == {}

    def test_single_start_independent_of_seed(self, rng):
        # every term starts from hosvd_init, whose sketch has its own fixed seed
        T = random_symmetric(rng, 12, 5, density=0.5)
        runs = [expand(T, 2, theta=0.25, cfg=SolverConfig(seed=s))[0] for s in (0, 5)]
        for a, b in zip(*runs):
            for x, y in ((a.U, b.U), (a.w, b.w), (a.core, b.core), (a.B_hat.data, b.B_hat.data)):
                assert x.tobytes() == y.tobytes()

    def test_caches_only_the_canonical_stack(self, rng):
        # the symmetry check caches no transposed block, and the symmetric
        # solves never build the column index of the transposed products
        T = random_symmetric(rng, 12, 5, density=0.5)
        expand(T, 2, theta=0.25)
        assert set(T._stacks) == {2}

    def test_memory_below_dense_B(self):
        # a dense B alone is m^2 * 8 bytes (72 MB); the expansion path must
        # stay under a quarter of that (it peaked at 146 MB with dense B)
        m, n = 3000, 4
        rng = np.random.default_rng(2024)
        i, j = rng.integers(0, m, 20000), rng.integers(0, m, 20000)
        p, q = np.meshgrid(np.arange(100), np.arange(100, 200), indexing="ij")
        i, j = np.concatenate((i, p.ravel())), np.concatenate((j, q.ravel()))
        k = rng.integers(0, n, i.size)
        T = SparseTensor3((m, m, n), np.concatenate((i, j)), np.concatenate((j, i)),
                          np.concatenate((k, k)), np.ones(2 * i.size))
        # a short run builds the cached slice layouts
        with pytest.warns(RuntimeWarning, match="did not converge"):
            expand(T, 1, 0.25, cfg=SolverConfig(max_iters=2))
        tracemalloc.start()
        try:
            expand(T, 1, 0.25)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < m * m * 8 / 4

    def test_benchmark_seed7_variant2_terms_converge(self, tmp_path):
        # a random start stalled the third term of this input at objective
        # 13.7 after 200 sweeps; its planted burst is at 99.8
        spec = importlib.util.spec_from_file_location("bench_inputs", BENCH_INPUTS)
        inputs = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(inputs)
        inputs.gen_expand_sym(7, tmp_path)
        with np.load(tmp_path / "tensor2.npz") as z:
            T = SparseTensor3(z["dims"], z["i"], z["j"], z["k"], z["vals"])
        terms, _ = expand(T, 3, theta=0.25, mode="positive")
        assert all(t.converged for t in terms)


class TestOverlapCosines:
    def test_disjoint_supports_zero(self):
        T, _, _ = planted_two_terms(seed=9)
        terms, _ = expand(T, 2, theta=0.0, mode="absolute", cfg=TIGHT)
        C = overlap_cosines(terms)
        assert C.shape == (2, 2)
        assert np.allclose(np.diag(C), 1.0)
        assert abs(C[0, 1]) <= 0.01

    def test_identical_terms_cosine_one(self, rng):
        T = random_symmetric(rng, 6, 3, density=0.6)
        terms, _ = expand(T, 1, theta=0.0, mode="absolute", cfg=TIGHT)
        C = overlap_cosines(terms + terms)
        assert C[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            overlap_cosines([])

    def test_zero_norm_term_rejected(self, rng):
        T = random_symmetric(rng, 6, 3, density=0.6)
        terms, _ = expand(T, 1, theta=0.0, mode="absolute", cfg=TIGHT)
        empty = dataclasses.replace(terms[0], B_hat=sp.csr_matrix(terms[0].B_hat.shape))
        with pytest.raises(ValueError, match="zero-norm term"):
            overlap_cosines(terms + [empty])

    @pytest.mark.parametrize("scales", [(531, 531, 531), (-545, -545, -545), (531, -545, 0)])
    def test_exact_at_extreme_scales(self, rng, scales):
        # products of two B_hat norms pass the float range at 2**531 and
        # underflow at 2**-545; the cosines are computed from scaled parts,
        # so scaling any term by a power of two leaves them bit for bit
        T = random_symmetric(rng, 10, 4, density=0.6)
        terms, _ = expand(T, 3, theta=0.1, mode="absolute", cfg=SolverConfig(max_iters=500))
        scaled = []
        for t, s in zip(terms, scales):
            B = sp.csr_matrix((np.ldexp(t.B_hat.data, s), t.B_hat.indices, t.B_hat.indptr), shape=t.B_hat.shape)
            scaled.append(dataclasses.replace(t, B_hat=B, norm_B_hat=math.ldexp(t.norm_B_hat, s)))
        want = overlap_cosines(terms)
        assert np.all(np.abs(want[~np.eye(3, dtype=bool)]) > 1e-3)
        assert overlap_cosines(scaled).tobytes() == want.tobytes()


class TestSubgraphExport:
    def test_edges_cover_support(self):
        T, _, _ = planted_two_terms(seed=2)
        terms, _ = expand(T, 1, theta=0.1, mode="absolute", cfg=TIGHT)
        labels = LabelTable(tuple(f"n{t}" for t in range(20)))
        edges, vertices = subgraph_export(terms[0], labels)
        coo = terms[0].B_hat.tocoo()
        assert len(edges) == sum(1 for i, j in zip(coo.row, coo.col) if i <= j)
        touched = {f"n{t}" for t in set(coo.row.tolist()) | set(coo.col.tolist())}
        assert set(vertices) == touched

    def test_equals_loop_oracle(self, rng):
        # the per-entry loop that subgraph_export replaced, kept as the oracle
        def oracle(term, labels):
            coo = term.B_hat.tocoo()
            edges, support = [], set()
            for i, j, v in zip(coo.row, coo.col, coo.data):
                support.update((int(i), int(j)))
                if i <= j:
                    edges.append((labels[int(i)], labels[int(j)], float(v)))
            return edges, [labels[i] for i in sorted(support)]

        T, _, _ = planted_two_terms(seed=2)
        terms, _ = expand(T, 2, theta=0.1, mode="absolute", cfg=TIGHT)
        # B_hat as expand leaves it, and random ones: empty, full, not symmetric
        for m, density, symmetric in ((20, 0.0, True), (20, 0.1, False), (20, 1.0, False), (7, 0.4, True)):
            B = sp.random(m, m, density=density, random_state=rng, format="csr")
            term = dataclasses.replace(terms[0], B_hat=(B + B.T).tocsr() if symmetric else B)
            labels = LabelTable(tuple(f"v{t}" for t in range(m)))
            got = subgraph_export(term, labels)
            assert got == oracle(term, labels)
            assert all(type(v) is float for _, _, v in got[0])
        for term in terms:
            assert subgraph_export(term, LabelTable.default(20)) == oracle(term, LabelTable.default(20))

    def test_label_mismatch_rejected(self):
        T, _, _ = planted_two_terms(seed=2)
        terms, _ = expand(T, 1, theta=0.1, mode="absolute", cfg=TIGHT)
        with pytest.raises(ValueError):
            subgraph_export(terms[0], LabelTable.default(5))


class TestSaveExpansionReport:
    def test_files_and_json(self, tmp_path):
        T, _, _ = planted_two_terms(seed=6)
        terms, residuals = expand(T, 2, theta=0.0, mode="absolute", cfg=TIGHT)
        report = save_expansion_report(terms, residuals, tmp_path)
        data = json.loads((tmp_path / "expansion_report.json").read_text())
        assert data["num_terms"] == 2
        assert data["residual_norms"] == pytest.approx(residuals)
        assert len(data["terms"]) == 2
        for v in (1, 2):
            assert (tmp_path / f"expansion_term{v}_edges.txt").exists()
            assert (tmp_path / f"expansion_term{v}_w.csv").exists()
        assert "overlap_cosines" in data
