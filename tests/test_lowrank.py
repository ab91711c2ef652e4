import csv
import math
import tracemalloc
import warnings
import weakref
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from tenspart import (
    DeflatedOperator,
    SolverConfig,
    SparseTensor3,
    deflate,
    expand,
    expansion,
    frobenius_norm,
    hooi,
    hooi_symmetric,
    hosvd_init,
    lowrank,
    multi_multiply,
    reconstruct,
    sparse_tensor,
)
from tenspart.lowrank import save_approximation
from tenspart.preprocess import normalize_slices_adjacency
from tenspart.sparse_tensor import _norm

from conftest import planted_bipartite, pow2_scaled, random_orthogonal, random_sparse, random_symmetric

TIGHT = SolverConfig(rel_tol=1e-12, max_iters=500)
RUN = lowrank._run  # one HOOI run, before any test patches it
LOCKSTEP = lowrank._lockstep  # the scheduler of a batch of runs, likewise


def subspace_distance(A, B):
    """|| P_A - P_B || for the column spaces (0 when spans agree)."""
    return np.linalg.norm(A @ A.T - B @ B.T)


class TestDominantSubspace:
    """The dominant subspace from ``_leading`` on small unstructured inputs,
    and the cases TestLeading's graded matrices do not reach (a diagonal,
    full column rank, a rank out of range, rank one)."""

    def test_diagonal(self):
        Q, deficient = lowrank._leading(np.diag([3.0, 1.0]), 1)
        assert np.allclose(Q[:, 0], [1.0, 0.0]) and not deficient

    def test_orthonormal_input_preserves_space(self, rng):
        M = np.linalg.qr(rng.standard_normal((6, 3)))[0]
        Q, deficient = lowrank._leading(M, 3)
        assert subspace_distance(Q, M) <= 1e-12 and not deficient

    def test_matches_full_svd_oracle(self, rng):
        M = rng.standard_normal((8, 3))
        Q, _ = lowrank._leading(M, 2)
        U = np.linalg.svd(M)[0][:, :2]
        assert subspace_distance(Q, U) <= 1e-10

    def test_sign_convention(self, rng):
        M = rng.standard_normal((7, 4))
        Q, _ = lowrank._leading(M, 3)
        for c in range(3):
            assert Q[np.argmax(np.abs(Q[:, c])), c] > 0

    def test_rank_out_of_range(self, rng):
        with pytest.raises(ValueError, match="out of range"):
            lowrank._leading(rng.standard_normal((3, 2)), 3)

    def test_rank_deficiency_flagged_and_padded(self):
        M = np.outer(np.arange(1.0, 5.0), [1.0, 2.0, 3.0])  # rank 1
        Q, deficient = lowrank._leading(M, 2)
        assert deficient
        assert np.allclose(Q.T @ Q, np.eye(2), atol=1e-12)


def graded(rng, shape, r, ratio):
    """Matrix with r leading singular values 1 .. ratio and the rest ten times below ratio."""
    d, q = shape
    k = min(shape)
    tail = ratio * np.geomspace(0.1, 1e-3, k - r) if k > r else []
    s = np.concatenate([np.geomspace(1.0, ratio, r), tail])
    A = np.linalg.qr(rng.standard_normal((d, k)))[0]
    B = np.linalg.qr(rng.standard_normal((q, k)))[0]
    return (A * s) @ B.T


class TestLeading:
    """The Gram-eigenvector kernel against the SVD oracle."""

    SHAPES = [
        pytest.param((60, 8), id="tall"),
        pytest.param((8, 60), id="wide"),
        pytest.param((20, 20), id="square"),
    ]

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("ratio", [1e-1, 1e-2, 1e-4])
    def test_matches_svd_oracle(self, rng, shape, ratio):
        r = 3
        M = graded(rng, shape, r, ratio)
        Q, deficient = lowrank._leading(M, r)
        assert not deficient
        assert np.abs(Q.T @ Q - np.eye(r)).max() <= 1e-13
        for c in range(r):
            assert Q[np.argmax(np.abs(Q[:, c])), c] > 0
        # the Gram squares the condition: the r-th direction is resolved to
        # about eps * (s_1 / s_r)^2 (eps * s_1^2 over the gap s_r^2 - s_{r+1}^2,
        # with s_{r+1} = s_r / 10); 50x that leaves room for the constants
        tol = 50 * np.finfo(float).eps / ratio**2
        U = np.linalg.svd(M, full_matrices=False)[0][:, :r]
        assert subspace_distance(Q, U) <= tol

    @pytest.mark.parametrize("shape", SHAPES)
    def test_exact_low_rank_flagged(self, rng, shape):
        M = rng.standard_normal((shape[0], 2)) @ rng.standard_normal((2, shape[1]))
        Q, deficient = lowrank._leading(M, 3)
        assert deficient
        # the padding column is an orthonormal complement of the rank-2 range
        assert np.abs(Q.T @ Q - np.eye(3)).max() <= 1e-13
        U = np.linalg.svd(M, full_matrices=False)[0][:, :2]
        assert subspace_distance(Q[:, :2], U) <= 1e-12
        assert lowrank._leading(M, 2)[1] is False

    @pytest.mark.parametrize(
        "M, match",
        [(np.ones(4), "^M must be a matrix$"), (np.array([[1.0, np.nan], [0.0, 1.0]]), "non-finite")],
        ids=["vector", "nan"],
    )
    def test_bad_matrix_rejected(self, M, match):
        with pytest.raises(ValueError, match=match):
            lowrank._leading(M, 1)

    @pytest.mark.parametrize("shape", [(5, 3), (3, 5), (4, 4)])
    def test_zero_matrix(self, shape):
        Q, deficient = lowrank._leading(np.zeros(shape), 2)
        assert deficient
        assert np.abs(Q.T @ Q - np.eye(2)).max() <= 1e-15

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("exponent", [531, -531])  # 2**531 is about 1e160
    def test_scale_is_exact(self, rng, shape, exponent):
        # unscaled, the Gram overflows (2**1062) or underflows to zero; scaled
        # by the exponent of max|M| both give the same bits
        M = graded(rng, shape, 3, 1e-2)
        Q, deficient = lowrank._leading(M, 3)
        scaled = lowrank._leading(np.ldexp(M, exponent), 3)
        assert np.array_equal(scaled[0], Q) and scaled[1] is deficient is False

    @pytest.mark.parametrize("shape", SHAPES)
    def test_subnormal_entries(self, rng, shape):
        # entries near 1e-310 keep about 44 of 53 bits, so the result agrees
        # with the unscaled one to about 2**-44 relative, not bitwise
        M = graded(rng, shape, 3, 1e-2)
        Q, deficient = lowrank._leading(M * 1e-310, 3)
        assert not deficient
        assert subspace_distance(Q, lowrank._leading(M, 3)[0]) <= 1e-10


class TestFrobenius:
    """The objective ||core||, summed by the one scaled-sum kernel."""

    @pytest.mark.parametrize("exponent", [0, -150, 150])  # squares stay normal
    def test_bitwise_equal_to_unscaled_formula(self, rng, exponent):
        for _ in range(200):
            shape = tuple(int(d) for d in rng.integers(1, 6, size=3))
            core = rng.standard_normal(shape) * 10.0**exponent
            assert _norm(core) == math.sqrt(math.fsum((core * core).ravel()))
        ap = hooi(SparseTensor3.from_dense(rng.standard_normal((6, 5, 4)) * 10.0**exponent), (2, 2, 2))
        assert ap.objective_history[-1] == math.sqrt(math.fsum((ap.core * ap.core).ravel()))

    def test_finite_where_unscaled_overflows(self, rng):
        core = rng.standard_normal((2, 2, 2))
        with np.errstate(over="raise"):
            assert _norm(np.ldexp(core, 531)) == np.ldexp(_norm(core), 531)
        # a whole solve scales exactly, so its objective history does too
        T = random_sparse(rng, (6, 5, 4), density=0.6)
        want = [math.ldexp(x, 531) for x in hooi(T, (2, 2, 2)).objective_history]
        assert hooi(pow2_scaled(T, 531), (2, 2, 2)).objective_history == want


def test_solvers_take_no_svd(rng, monkeypatch):
    def no_svd(*args, **kwargs):
        raise AssertionError("np.linalg.svd called")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    T = random_sparse(rng, (12, 10, 5), density=0.5)
    hooi(T, (2, 2, 2), SolverConfig(num_restarts=2))
    S = random_symmetric(rng, 10, 4, density=0.5)
    hooi_symmetric(S, (2, 2, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # empty-term warnings
        expand(S, 2, theta=0.1)


@pytest.mark.parametrize("rel_tol", [math.nan, math.inf, 0.0, -1e-8])
def test_solver_config_rejects_bad_rel_tol(rel_tol):
    # nan <= 0 is False, so a sign test alone let nan through, and a nan
    # tolerance never stops the sweeps
    with pytest.raises(ValueError, match="rel_tol"):
        SolverConfig(rel_tol=rel_tol)


@pytest.mark.parametrize("name", ["max_iters", "num_restarts"])
def test_solver_config_rejects_zero_counts(name):
    with pytest.raises(ValueError, match=f"^{name} must be >= 1$"):
        SolverConfig(**{name: 0})


class TestHosvdInit:
    def test_exact_rank_one(self, rng):
        a, b, c = rng.random(4), rng.random(5), rng.random(3)
        T = SparseTensor3.from_dense(np.einsum("i,j,k->ijk", a, b, c))
        U, V, W = hosvd_init(T, (1, 1, 1))
        for Q, vec in ((U, a), (V, b), (W, c)):
            assert subspace_distance(Q, (vec / np.linalg.norm(vec))[:, None]) <= 1e-12

    def test_full_rank_diagonal(self):
        t = np.arange(3)
        T = SparseTensor3((3, 3, 3), t, t, t, t + 1.0)
        U, V, W = hosvd_init(T, (3, 3, 3))
        obj = frobenius_norm(multi_multiply(T, U, V, W))
        assert obj == pytest.approx(frobenius_norm(T), rel=1e-12)

    @staticmethod
    def unfolding_svd_oracle(T, ranks):
        """Leading left singular subspaces of the dense unfoldings."""
        dense = T.to_dense()
        return [
            np.linalg.svd(
                np.moveaxis(dense, mode - 1, 0).reshape(dense.shape[mode - 1], -1),
                full_matrices=False,
            )[0][:, :r]
            for mode, r in zip((1, 2, 3), ranks)
        ]

    # the sketch is exact when each oversampled rank reaches the extent or
    # the product of the other two extents; the thin shapes hit the latter
    @pytest.mark.parametrize(
        "dims, ranks",
        [
            pytest.param((6, 5, 4), (2, 2, 2), id="6x5x4-r222"),
            pytest.param((100, 1, 5), (1, 1, 1), id="100x1x5-r111"),
            pytest.param((10, 1, 1), (1, 1, 1), id="10x1x1-r111"),
            pytest.param((100, 2, 3), (2, 2, 1), id="100x2x3-r221"),
        ],
    )
    def test_matches_unfolding_svd_oracle(self, rng, dims, ranks):
        T = random_sparse(rng, dims, density=0.5)
        factors = hosvd_init(T, ranks)
        for Q, ref in zip(factors, self.unfolding_svd_oracle(T, ranks)):
            assert subspace_distance(Q, ref) <= 1e-10

    def test_planted_with_noise_close_to_oracle(self, rng):
        # 200x150x30 is far above r + 8 in every mode, so the sketch is not
        # exact; the planted core's unfoldings have singular values ~10-30
        # against a noise spectral norm of ~0.4-0.8
        dims = (200, 150, 30)
        G = 10.0 * rng.standard_normal((2, 2, 2))
        A, B, C = (np.linalg.qr(rng.standard_normal((d, 2)))[0] for d in dims)
        noise = 0.01 * rng.standard_normal(dims)
        noise[rng.random(dims) > 0.2] = 0.0
        T = SparseTensor3.from_dense(np.einsum("pqr,ip,jq,kr->ijk", G, A, B, C) + noise)
        factors = hosvd_init(T, (2, 2, 2))
        for Q, ref in zip(factors, self.unfolding_svd_oracle(T, (2, 2, 2))):
            assert subspace_distance(Q, ref) <= 1e-2

    def test_deflated_operator_matches_materialized(self, rng):
        T = random_symmetric(rng, 8, 5, density=0.5)
        upper = np.triu(rng.random((8, 8)))
        B = sp.csr_matrix(upper + np.triu(upper, 1).T)
        R = deflate(DeflatedOperator(T), rng.random(5), B)
        implicit = hosvd_init(R, (2, 2, 1))
        dense = hosvd_init(SparseTensor3.from_dense(R.to_dense()), (2, 2, 1))
        for Q, ref in zip(implicit, dense):
            assert subspace_distance(Q, ref) <= 1e-10

    # p_i reaches the extent in every mode, so the shared sketch is exact too
    @pytest.mark.parametrize("ranks", [(2, 2, 2), (2, 2, 1), (3, 3, 2)])
    def test_shared_start_matches_unfolding_svd_oracle(self, rng, ranks):
        T = random_symmetric(rng, 6, 4, density=0.5)
        U, V, W = hosvd_init(T, ranks, shared=True)
        assert V is U
        for Q, ref in zip((U, U, W), self.unfolding_svd_oracle(T, ranks)):
            assert subspace_distance(Q, ref) <= 1e-10

    def test_shared_start_needs_square_ranks(self, rng):
        with pytest.raises(ValueError, match="shared"):
            hosvd_init(random_sparse(rng, (6, 5, 4)), (2, 2, 1), shared=True)
        with pytest.raises(ValueError, match="shared"):
            hosvd_init(random_symmetric(rng, 6, 4), (2, 1, 2), shared=True)

    def test_rank_exceeds_extent(self, rng):
        with pytest.raises(ValueError):
            hosvd_init(random_sparse(rng, (3, 3, 3)), (4, 1, 1))

    def test_empty_tensor_rejected(self):
        # the start checks its problem as a solve does
        with pytest.raises(ValueError, match="^cannot approximate an empty tensor$"):
            hosvd_init(SparseTensor3((4, 4, 2)), (2, 2, 1))

    def test_shared_start_needs_symmetric_tensor(self, rng):
        with pytest.raises(ValueError, match=r"^tensor is not \(1,2\)-symmetric$"):
            hosvd_init(random_sparse(rng, (6, 6, 3), density=0.5), (2, 2, 1), shared=True)

    def test_sketch_recycles_only_bases_of_its_shapes(self, rng):
        T = random_symmetric(rng, 12, 5, density=0.5)

        def same(a, b):
            return all(getattr(a, f).tobytes() == getattr(b, f).tobytes() for f in ("U", "V", "W", "core"))

        sketch = []
        # an empty list draws afresh, as a solve without one does, and keeps the bases
        assert same(hooi_symmetric(T, (2, 2, 1), sketch=sketch), hooi_symmetric(T, (2, 2, 1)))
        assert [b.shape for b in sketch[0]] == [(12, 10), (12, 10), (5, 5)]
        first = sketch[0]
        # bases of other shapes (p = 11/11/5 here) are not read
        assert same(hooi_symmetric(T, (3, 3, 1), sketch=sketch), hooi_symmetric(T, (3, 3, 1)))
        assert [b.shape for b in sketch[0]] == [(12, 11), (12, 11), (5, 5)]
        # one sweep from matching bases: a solve of the requested shape
        sketch[:] = [first]
        ap = hooi_symmetric(T, (2, 2, 1), sketch=sketch)
        assert ap.V is ap.U and ap.U.shape == (12, 2) and ap.W.shape == (5, 1)
        assert sketch[0][0] is not first[0]


def reference_sweeps(T, U, V, W, ranks, cfg, shared):
    """The sweep loop written from the three contraction shorthands.

    Every contraction makes its own sparse product; this is the loop the
    carried half product of ``lowrank._run`` must reproduce bit for bit.
    """
    r1, r2, r3 = ranks
    history = []
    converged = deficient = False
    for _ in range(cfg.max_iters):
        C = T.contract_modes23(U if shared else V, W)
        U, low_u = lowrank._leading(C.reshape(C.shape[0], -1), r1)
        if shared:
            V, low_v = U, False
        else:
            C = T.contract_modes13(U, W)
            V, low_v = lowrank._leading(C.reshape(C.shape[0], -1), r2)
        C12 = T.contract_modes12(U, V)
        W, low_w = lowrank._leading(C12.reshape(C12.shape[0], -1), r3)
        deficient = deficient or low_u or low_v or low_w
        core = lowrank._core_from_c12(C12, W)
        obj = _norm(core)
        converged = bool(history) and abs(obj - history[-1]) <= cfg.rel_tol * max(obj, 1e-300)
        history.append(obj)
        if converged:
            break
    return lowrank.RankApproximation(U, V, W, core, history, converged, deficient)


def reference_run(T, start, ranks, max_iters, rel_tol, shared):
    """``lowrank._run`` as a reference run: it asks the scheduler for no product."""
    return reference_sweeps(T, *start, ranks, SolverConfig(max_iters=max_iters, rel_tol=rel_tol), shared)
    yield  # a generator, as ``_run`` is


def alone(T, start, ranks, max_iters, rel_tol, shared):
    """One ``lowrank._run`` driven by the scheduler with no other run beside it."""
    return LOCKSTEP(T, [RUN(T, start, ranks, max_iters, rel_tol, shared)])[0]


def assert_same_bits(a, b):
    for x, y in ((a.U, b.U), (a.V, b.V), (a.W, b.W), (a.core, b.core)):
        assert x.tobytes() == y.tobytes()
    assert a.objective_history == b.objective_history
    assert (a.converged, a.rank_deficient) == (b.converged, b.rank_deficient)


def two_term_operator(rng, T):
    """T deflated by two random symmetric terms."""
    m, _, n = T.dims
    R = DeflatedOperator(T)
    for _ in range(2):
        upper = np.triu(rng.random((m, m)))
        upper[upper < 0.5] = 0.0
        R = deflate(R, rng.random(n), sp.csr_matrix(upper + np.triu(upper, 1).T))
    return R


class TestCarriedHalfProduct:
    """The sweeps carry one half product per factor update; the results are
    those of one sparse product per contraction.  Tolerance: exact (bitwise)."""

    @pytest.mark.parametrize(
        "dims, ranks", [((7, 6, 5), (2, 2, 2)), ((12, 9, 4), (3, 2, 2)), ((20, 15, 6), (2, 3, 2))]
    )
    def test_hooi_bitwise_equals_reference(self, rng, monkeypatch, dims, ranks):
        T = random_sparse(rng, dims, density=0.4)
        cfg = SolverConfig(seed=5, num_restarts=3)
        carried = hooi(T, ranks, cfg)
        monkeypatch.setattr(lowrank, "_run", reference_run)  # the start's sketch too
        assert_same_bits(carried, hooi(T, ranks, cfg))

    def test_hooi_on_deflated_operator_bitwise_equals_reference(self, rng, monkeypatch):
        R = two_term_operator(rng, random_symmetric(rng, 9, 5, density=0.5))
        cfg = SolverConfig(seed=1, num_restarts=2)
        carried = hooi(R, (2, 2, 1), cfg)
        monkeypatch.setattr(lowrank, "_run", reference_run)
        assert_same_bits(carried, hooi(R, (2, 2, 1), cfg))

    @pytest.mark.parametrize("deflated", [False, True])
    @pytest.mark.parametrize("ranks", [(2, 2, 1), (3, 3, 2)])
    def test_shared_sweeps_bitwise_equal_reference(self, rng, deflated, ranks):
        T = random_symmetric(rng, 10, 5, density=0.5)
        if deflated:
            T = two_term_operator(rng, T)
        U = np.linalg.qr(rng.standard_normal((10, ranks[0])))[0]
        W = np.linalg.qr(rng.standard_normal((5, ranks[2])))[0]
        cfg = SolverConfig(max_iters=50, rel_tol=1e-12)
        got = alone(T, (U, U, W), ranks, cfg.max_iters, cfg.rel_tol, shared=True)
        assert got.V is got.U
        assert_same_bits(got, reference_sweeps(T, U, U, W, ranks, cfg, shared=True))


class ProtocolOnly:
    """A sparse tensor seen through the solvers' operator protocol alone:
    ``dims``, ``nnz``, ``half_product`` and ``reduce_half``."""

    __slots__ = ("dims", "nnz", "half_product", "reduce_half")

    def __init__(self, T):
        self.dims, self.nnz = T.dims, T.nnz
        self.half_product, self.reduce_half = T.half_product, T.reduce_half


class TestOperatorProtocol:
    """The start and both solvers read an operator only through the protocol
    of :class:`ProtocolOnly`.  Tolerance: exact (bitwise)."""

    def test_hosvd_init(self, rng):
        T = random_sparse(rng, (12, 9, 5), density=0.4)
        for got, want in zip(hosvd_init(ProtocolOnly(T), (3, 2, 2)), hosvd_init(T, (3, 2, 2))):
            assert got.tobytes() == want.tobytes()

    def test_hooi_with_restarts(self, rng):
        T = random_sparse(rng, (12, 9, 5), density=0.4)
        cfg = SolverConfig(seed=4, num_restarts=3)
        assert_same_bits(hooi(ProtocolOnly(T), (3, 2, 2), cfg), hooi(T, (3, 2, 2), cfg))

    def test_hooi_symmetric(self, rng):
        T = random_symmetric(rng, 10, 5, density=0.5)
        cfg = SolverConfig(seed=4, num_restarts=3)
        assert_same_bits(hooi_symmetric(ProtocolOnly(T), (2, 2, 1), cfg), hooi_symmetric(T, (2, 2, 1), cfg))


def sketch_ranks(T, ranks, shared):
    """The oversampled ranks p of the solve's sketch run."""
    return lowrank._sketch(T, ranks, shared, None)[1]


class TestLockstepRestarts:
    """Restarts sweep in lockstep with the start's sketch and share every
    sparse product, yet each run, the sketch included, has the bits it has
    alone from the same start.  Tolerance: exact (bitwise)."""

    @pytest.fixture
    def batches(self, monkeypatch):
        """(runs, results) of every ``_lockstep`` call."""
        calls = []

        def recorded(T, runs):
            results = LOCKSTEP(T, runs)
            calls.append((runs, results))
            return results

        monkeypatch.setattr(lowrank, "_lockstep", recorded)
        return calls

    @pytest.fixture
    def runs(self, monkeypatch):
        """(start, ranks, max_iters, result) of every ``_run``, in the order the
        runs make their first request: the sketch, the restarts >= 1, then
        restart 0, which the sketch hands over to once it ends."""
        made = []

        def tapped(T, start, ranks, max_iters, rel_tol, shared):
            run = [start, ranks, max_iters, None]
            made.append(run)
            run[3] = yield from RUN(T, start, ranks, max_iters, rel_tol, shared)
            return run[3]

        monkeypatch.setattr(lowrank, "_run", tapped)
        return made

    def check_runs_alone(self, T, batches, runs, ranks, cfg, shared):
        [(batch, results)] = batches  # one batch: the sketch (then restart 0) and the restarts
        assert len(batch) == cfg.num_restarts and len(runs) == cfg.num_restarts + 1
        (start, p, sweeps, handed), *rest, restart0 = runs
        assert p == sketch_ranks(T, ranks, shared)
        sketch = alone(T, start, p, sweeps, cfg.rel_tol, shared)
        assert_same_bits(handed, sketch)
        # restart 0 starts from the lone sketch's lift
        lift = lowrank._sketch(T, ranks, shared, None)[3]
        assert all(a.tobytes() == b.tobytes() for a, b in zip(restart0[0], lift(sketch)))
        assert restart0[1:3] == [ranks, cfg.max_iters]
        starts = [(lift(sketch), ranks, cfg.max_iters)] + [run[:3] for run in rest]
        lone = [alone(T, *run, cfg.rel_tol, shared) for run in starts]
        for a, b in zip(results, lone):
            assert_same_bits(a, b)
        # the runs leave the batch at different sweeps
        assert len({len(a.objective_history) for a in lone}) > 1
        return lowrank._best(lone, cfg.rel_tol)

    @pytest.mark.parametrize("dims, ranks", [((16, 15, 6), (2, 2, 2)), ((20, 18, 5), (3, 2, 2))])
    def test_hooi(self, batches, runs, dims, ranks):
        T = random_sparse(np.random.default_rng(21), dims, density=1.0)
        cfg = SolverConfig(rel_tol=1e-10, seed=2, num_restarts=3)
        assert lowrank._batch_size(T, ranks, sketch_ranks(T, ranks, False), shared=False) >= 3
        got = hooi(T, ranks, cfg)
        assert_same_bits(got, self.check_runs_alone(T, batches, runs, ranks, cfg, False))

    @pytest.mark.parametrize("deflated", [False, True])
    @pytest.mark.parametrize("ranks", [(2, 2, 2), (2, 2, 1)])
    def test_hooi_symmetric(self, batches, runs, deflated, ranks):
        rng = np.random.default_rng(22)
        T = random_symmetric(rng, 20, 6, density=0.9)
        if deflated:
            T = two_term_operator(rng, T)
        cfg = SolverConfig(rel_tol=1e-10, seed=3, num_restarts=3)
        assert lowrank._batch_size(T, ranks, sketch_ranks(T, ranks, True), shared=True) >= 3
        got = hooi_symmetric(T, ranks, cfg)
        best = self.check_runs_alone(T, batches, runs, ranks, cfg, True)
        if ranks == (2, 2, 1):
            best = lowrank._fix_rotation_221(best)
        assert_same_bits(got, best)

    def test_runs_do_not_batch_past_nnz(self, rng, batches):
        # n*l*p2 = 20*30*10 = 6000 entries for the sketch's half product alone, above nnz
        T = random_sparse(rng, (30, 25, 20), density=0.01)
        p = sketch_ranks(T, (2, 2, 2), False)
        assert 0 < T.nnz < 6000 and lowrank._batch_size(T, (2, 2, 2), p, shared=False) == 1
        hooi(T, (2, 2, 2), SolverConfig(num_restarts=3))
        # the sketch and then restart 0, then one restart each
        assert [len(runs) for runs, _ in batches] == [1, 1, 1]

    def test_wide_products_within_nnz(self, rng, monkeypatch, batches):
        T = random_sparse(rng, (24, 20, 6), density=0.8)
        l, m, n = T.dims
        products = []  # (columns, entries of the half product, entries of its tiled input)
        half = SparseTensor3.half_product

        def recorded(self, X, transposed=False):
            P = half(self, X, transposed)
            products.append((X.shape[1], P.size, n * X.size if transposed else 0))
            return P

        monkeypatch.setattr(SparseTensor3, "half_product", recorded)
        hooi(T, (2, 2, 2), SolverConfig(num_restarts=3))
        assert [len(runs) for runs, _ in batches] == [3]
        # the sketch's p = 10 columns beside the two restarts' 2 each, then
        # narrower as runs leave; every array of a product holds at most nnz entries
        assert products[0][0] == 14
        assert max(max(size, tile) for _, size, tile in products) <= T.nnz


class TestProductCount:
    """Sparse products, counted as ``SparseTensor3.half_product`` calls (one
    per product): 2 is the canonical stack, 1 the transposed slices."""

    @pytest.fixture
    def reads(self, monkeypatch):
        reads = []
        half = SparseTensor3.half_product

        def counted(self, V, transposed=False):
            reads.append(1 if transposed else 2)
            return half(self, V, transposed)

        monkeypatch.setattr(SparseTensor3, "half_product", counted)
        return reads

    @pytest.mark.parametrize("deflated", [False, True])
    @pytest.mark.parametrize("max_iters", [1, 4])
    def test_shared_sweep_makes_one_product(self, rng, reads, deflated, max_iters):
        T = random_symmetric(rng, 8, 5, density=0.5)
        if deflated:
            T = two_term_operator(rng, T)
        U, W = random_orthogonal(rng, 8)[:, :2], random_orthogonal(rng, 5)[:, :1]
        cfg = SolverConfig(max_iters=max_iters, rel_tol=1e-15)
        sweeps = len(alone(T, (U, U, W), (2, 2, 1), max_iters, cfg.rel_tol, shared=True).objective_history)
        # one product to start, then one per sweep, carried into the next
        assert reads == [2] * (1 + sweeps)

    @pytest.mark.parametrize("max_iters", [1, 4])
    def test_unshared_sweep_makes_two_products(self, rng, reads, max_iters):
        T = random_sparse(rng, (8, 7, 5), density=0.5)
        U, V, W = (random_orthogonal(rng, d)[:, :2] for d in (8, 7, 5))
        cfg = SolverConfig(max_iters=max_iters, rel_tol=1e-15)
        sweeps = len(alone(T, (U, V, W), (2, 2, 2), max_iters, cfg.rel_tol, shared=False).objective_history)
        # one sweep alone: 2 canonical and 1 transposed; each further sweep
        # adds one of each
        assert reads == [2] + [1, 2] * sweeps

    @pytest.mark.parametrize("shared, restarts", [(False, 1), (False, 3), (True, 1), (True, 3)])
    def test_sketch_sweeps_with_the_restarts(self, reads, monkeypatch, shared, restarts):
        # Products come in rounds: one canonical-stack product, then in an
        # unshared solve one transposed product if any run sweeps on.  Restart
        # a >= 1 sweeps from round 1 and ends at round 1 + S_a; the sketch
        # ends its 2 sweeps at round 3, and restart 0 enters at round 4, so
        # it ends at round 4 + S_0.  With one restart that is the single-start
        # count 5 + (1 + 2 S_0), or 3 + (1 + S_0) shared.
        rng = np.random.default_rng(23)
        T = random_symmetric(rng, 20, 6, density=0.9) if shared else random_sparse(rng, (24, 20, 6), 0.8)
        ranks = (2, 2, 1) if shared else (2, 2, 2)
        assert lowrank._batch_size(T, ranks, sketch_ranks(T, ranks, shared), shared) >= restarts
        solved = []

        def recorded(T, runs):
            solved.extend(LOCKSTEP(T, runs))
            return solved[-len(runs) :]

        monkeypatch.setattr(lowrank, "_lockstep", recorded)
        solve = hooi_symmetric if shared else hooi
        solve(T, ranks, SolverConfig(rel_tol=1e-10, num_restarts=restarts))
        S0, *S = (len(ap.objective_history) for ap in solved)
        ends = [4 + S0] + [1 + Sa for Sa in S]
        going = lambda t: t < 3 or 4 <= t < ends[0] or any(t < end for end in ends[1:])
        rounds = [[2] + ([1] if going(t) and not shared else []) for t in range(1, max(ends) + 1)]
        assert reads == sum(rounds, [])
        if restarts == 1:
            assert len(reads) == (4 + S0 if shared else 6 + 2 * S0)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_expand_recycles_the_sketch(self, reads, monkeypatch, seed):
        # canonical-stack products of a q = 3 expansion, per term: term 1's
        # sketch makes 3 (two sweeps from the random draw), each later term's
        # sketch 2 (one sweep from the previous term's bases), each solve
        # 1 + its sweeps, and the rotation of the (2,2,1) factor none
        T = random_symmetric(np.random.default_rng(seed), 12, 5, density=0.5)
        solves = []  # (products, sweeps) per term
        solve = expansion.hooi_symmetric

        def counted(R, ranks, cfg=None, **kwargs):
            before = len(reads)
            ap = solve(R, ranks, cfg, **kwargs)
            solves.append((reads[before:], len(ap.objective_history)))
            return ap

        monkeypatch.setattr(expansion, "hooi_symmetric", counted)
        expand(T, 3, theta=0.25)
        assert len(solves) == 3
        for v, (products, sweeps) in enumerate(solves):
            assert products == [2] * ((3 if v == 0 else 2) + 1 + sweeps)

    def test_shared_start_reads_no_transposed_stack(self, rng):
        T = random_symmetric(rng, 12, 5, density=0.4)
        U, V, _ = hosvd_init(T, (2, 2, 1), shared=True)
        assert V is U
        assert 1 not in T._stacks
        fresh = SparseTensor3(T.dims, T.i, T.j, T.k, T.vals)
        R = two_term_operator(rng, fresh)
        hosvd_init(R, (2, 2, 1), shared=True)
        assert 1 not in fresh._stacks


class TestHalfProductLifetime:
    """A solve holds at most one half product at a time: every product is
    freed before the next one is made, by the scheduler and by every run."""

    @pytest.mark.parametrize("shared", [False, True])
    def test_earlier_products_freed(self, monkeypatch, shared):
        made = []  # a weak reference to every half product returned
        half = SparseTensor3.half_product

        def tracked(self, V, transposed=False):
            assert all(ref() is None for ref in made), "an earlier half product is alive"
            P = half(self, V, transposed)
            made.append(weakref.ref(P))
            return P

        monkeypatch.setattr(SparseTensor3, "half_product", tracked)
        rng = np.random.default_rng(24)
        cfg = SolverConfig(rel_tol=1e-10, num_restarts=3)
        if shared:  # the operator's products hold the sparse tensor's
            R = two_term_operator(rng, random_symmetric(rng, 20, 6, density=0.9))
            assert lowrank._batch_size(R, (2, 2, 1), sketch_ranks(R, (2, 2, 1), True), True) >= 3
            hooi_symmetric(R, (2, 2, 1), cfg)
        else:
            T = random_sparse(rng, (24, 20, 6), density=0.8)
            assert lowrank._batch_size(T, (2, 2, 2), sketch_ranks(T, (2, 2, 2), False), False) >= 3
            hooi(T, (2, 2, 2), cfg)
        assert len(made) > 10 and made[-1]() is None


def start_unshared(T, ranks):
    return hosvd_init(T, ranks)


def start_shared(T, ranks):
    return hosvd_init(T, ranks, shared=True)


class TestStackLifetime:
    """A solve or start leaves a sparse tensor's slice stacks as it found
    them: the stacks it built for its products are dropped when it returns
    or raises, and a stack the tensor held before stays, the same object."""

    CALLS = [(hooi, (2, 2, 2)), (hooi_symmetric, (2, 2, 1)), (start_unshared, (2, 2, 2)), (start_shared, (2, 2, 1))]

    @staticmethod
    def tensor():
        """A (1,2)-symmetric 12x12x4 tensor on which every solve converges."""
        return planted_bipartite(5, 7, 4, 2.0, [0.5, 0.5, 0.5, 0.5], seed=1)[0]

    @pytest.mark.parametrize("call, ranks", CALLS)
    def test_empty_cache_stays_empty(self, call, ranks):
        T = self.tensor()
        call(T, ranks)
        assert T._stacks == {}

    @pytest.mark.parametrize("call", [hooi, start_unshared])
    def test_empty_after_a_refused_transposed_product(self, rng, monkeypatch, call):
        # dims (20, 20, 4) and sketch ranks p = (10, 10, 4): the first,
        # canonical product needs n*l*p = 800 entries (6400 B) and builds the
        # canonical stack; the transposed one needs n*(m + l)*p = 1600
        # (12800 B), more than the 10000 B allowed here
        T = random_sparse(rng, (20, 20, 4), density=0.5)
        monkeypatch.setattr(sparse_tensor, "_physical_memory", lambda: 10000.0)
        with pytest.raises(ValueError, match="a transposed half product"):
            call(T, (2, 2, 2))
        assert T._stacks == {}

    def test_empty_after_a_refused_shared_product(self, rng, monkeypatch):
        # the symmetry check builds the canonical stack (161 row pointers);
        # the first half product (800 entries, 6400 B) is refused
        T = random_symmetric(rng, 20, 4, density=0.5)
        monkeypatch.setattr(sparse_tensor, "_physical_memory", lambda: 4000.0)
        with pytest.raises(ValueError, match="a half product"):
            hooi_symmetric(T, (2, 2, 1))
        assert T._stacks == {}

    def test_empty_after_a_refused_symmetry_check(self, rng):
        T = random_sparse(rng, (6, 6, 3), density=0.6)
        with pytest.raises(ValueError, match="not \\(1,2\\)-symmetric"):
            hooi_symmetric(T, (2, 2, 1))
        assert T._stacks == {}

    @pytest.mark.parametrize("call, ranks", CALLS)
    @pytest.mark.parametrize("held", [(2,), (2, 1)])
    def test_prebuilt_stacks_stay(self, call, ranks, held):
        T = self.tensor()
        stacks = {mode: T._slice_stack(mode) for mode in held}
        call(T, ranks)
        assert set(T._stacks) == set(held)
        assert all(T._stacks[mode] is S for mode, S in stacks.items())

    @pytest.mark.parametrize("call, ranks", CALLS)
    def test_stack_shared_by_normalization_survives(self, call, ranks):
        # the normalization's symmetry check builds the raw tensor's stack,
        # and the normalized tensor shares its pattern from the start
        N = normalize_slices_adjacency(self.tensor())
        S = N._stacks[2]
        call(N, ranks)
        assert set(N._stacks) == {2} and N._stacks[2] is S

    def test_unshared_solve_retains_no_entry_sized_array(self):
        # 500k entries: a kept canonical stack (its int32 copy of j) and
        # column index would hold about 8 bytes per entry (4 MB); the result
        # holds O(extent * r) bytes, and nothing else may stay
        l, m, n, nnz = 2000, 1500, 30, 500_000
        rng = np.random.default_rng(3)
        codes = np.unique(rng.integers(0, l * m * n, size=nnz + nnz // 10))[:nnz]
        rng.shuffle(codes)
        k, rest = np.divmod(codes, l * m)
        i, j = np.divmod(rest, m)
        T = SparseTensor3((l, m, n), i, j, k, rng.random(codes.size) + 0.5)
        del codes, k, rest, i, j
        assert T.nnz == nnz
        cfg = SolverConfig(max_iters=3)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # 3 sweeps may not converge
            hooi(SparseTensor3((6, 5, 4), [0, 1, 2], [0, 1, 2], [0, 1, 2], [1.0, 2.0, 3.0]), (1, 1, 1), cfg)
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                ap = hooi(T, (2, 2, 2), cfg)
                rise = tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()
        result = sum(x.nbytes for x in (ap.U, ap.V, ap.W, ap.core))
        assert result == 8 * 2 * (l + m + n) + 64
        assert rise <= 2**16 + 2 * result
        assert T._stacks == {}


class TestInPlaceScaling:
    """The U and V updates scale their own contraction in place in
    :func:`lowrank._leading`; every result keeps the bits of a copy."""

    @pytest.fixture
    def copying(self, monkeypatch):
        leading = lowrank._leading
        calls = []

        def never_in_place(M, r, overwrite=False):
            calls.append(overwrite)
            return leading(M, r)

        def apply():
            monkeypatch.setattr(lowrank, "_leading", never_in_place)
            return calls

        return apply

    def test_scales_in_place_with_the_same_bits(self, rng):
        M = rng.standard_normal((40, 6)) * 2.0**300
        copy = M.copy()
        Q, low = lowrank._leading(copy, 3, overwrite=True)
        R, low_r = lowrank._leading(M, 3)
        assert Q.tobytes() == R.tobytes() and low == low_r
        assert not np.array_equal(copy, M)  # scaled where it stood

    @pytest.mark.parametrize("solve, ranks", [(hooi, (2, 2, 2)), (hooi_symmetric, (2, 2, 1))])
    def test_solver_bits_unchanged(self, rng, copying, solve, ranks):
        T = random_symmetric(rng, 14, 5, density=0.5)
        cfg = SolverConfig(num_restarts=3)
        got = solve(T, ranks, cfg)
        calls = copying()
        want = solve(T, ranks, cfg)
        assert True in calls and False in calls
        for a, b in ((got.U, want.U), (got.V, want.V), (got.W, want.W), (got.core, want.core)):
            assert a.tobytes() == b.tobytes()
        assert got.objective_history == want.objective_history

    def test_expand_bits_unchanged(self, rng, copying):
        T = random_symmetric(rng, 14, 5, density=0.5)
        got, got_norms = expand(T, 2, theta=0.25)
        calls = copying()
        want, want_norms = expand(T, 2, theta=0.25)
        assert True in calls and got_norms == want_norms
        for a, b in zip(got, want):
            for x, y in ((a.U, b.U), (a.w, b.w), (a.core, b.core), (a.B_hat.data, b.B_hat.data)):
                assert x.tobytes() == y.tobytes()


class TestRankCheck:
    """r_i <= r_j*r_k is checked before any sweep, with a message naming it."""

    MATCH = r"r_i <= r_j\*r_k"

    @pytest.mark.parametrize("dims, ranks", [((5, 1, 3), (3, 1, 1)), ((1, 1, 2), (1, 1, 2))])
    def test_hooi(self, rng, dims, ranks):
        T = SparseTensor3.from_dense(rng.random(dims) + 0.5)
        with pytest.raises(ValueError, match=self.MATCH):
            hooi(T, ranks)
        with pytest.raises(ValueError, match=self.MATCH):
            hosvd_init(T, ranks)

    @pytest.mark.parametrize("dims, ranks", [((1, 1, 2), (1, 1, 2)), ((4, 4, 3), (1, 1, 2))])
    def test_hooi_symmetric(self, rng, dims, ranks):
        T = random_symmetric(rng, dims[0], dims[2], density=1.0)
        with pytest.raises(ValueError, match=self.MATCH):
            hooi_symmetric(T, ranks)

    @pytest.mark.parametrize(
        "ranks, match",
        [((2, 3, 1), "r1 == r2"), ((7, 7, 1), "exceeds extent"), ((1, 1, 2), MATCH), ((0, 0, 1), "exceeds")],
    )
    def test_hooi_symmetric_checks_ranks_before_symmetry(self, rng, ranks, match):
        # the symmetry check is O(nnz) and builds the slice stacks; bad ranks
        # are refused before it runs
        T = random_symmetric(rng, 6, 3, density=0.6)
        with pytest.raises(ValueError, match=match):
            hooi_symmetric(T, ranks)
        assert T._stacks == {}

    def test_hooi_symmetric_needs_equal_mode12_extents(self, rng):
        T = random_sparse(rng, (5, 4, 2), density=0.8)
        with pytest.raises(ValueError, match="equal mode-1/2 extents"):
            hooi_symmetric(T, (1, 1, 1))
        assert T._stacks == {}

    def test_boundary_ranks_accepted(self, rng):
        T = random_sparse(rng, (5, 4, 3), density=0.8)
        assert hooi(T, (2, 1, 2)).ranks == (2, 1, 2)


class TestHooi:
    def test_exact_rank_one_recovery(self, rng):
        a, b, c = rng.random(5), rng.random(6), rng.random(4)
        T = SparseTensor3.from_dense(np.einsum("i,j,k->ijk", a, b, c))
        ap = hooi(T, (1, 1, 1))
        assert len(ap.objective_history) <= 2
        assert np.linalg.norm(reconstruct(ap) - T.to_dense()) < 1e-10

    def test_single_slice_outer_product(self, rng):
        x, y = rng.random(4), rng.random(6)
        T = SparseTensor3.from_dense(np.einsum("i,j->ij", x, y)[:, :, None])
        ap = hooi(T, (1, 1, 1), TIGHT)
        assert subspace_distance(ap.U, (x / np.linalg.norm(x))[:, None]) <= 1e-8
        assert subspace_distance(ap.V, (y / np.linalg.norm(y))[:, None]) <= 1e-8

    def test_matches_best_of_restarts(self, rng):
        T = random_sparse(rng, (5, 5, 5), density=1.0)
        ap = hooi(T, (2, 2, 2), TIGHT)
        best = max(
            hooi(
                T,
                (2, 2, 2),
                SolverConfig(rel_tol=1e-12, max_iters=500, seed=s, num_restarts=2),
            ).objective
            for s in range(10)
        )
        assert ap.objective >= best - 1e-6

    def test_tied_restarts_return_first_run(self):
        # all six runs reach one optimum; a later one ends 8e-13 relative
        # higher by rounding alone, with a different (18-sweep) history
        T = random_sparse(np.random.default_rng(111), (6, 5, 4), density=0.7)
        cfg = SolverConfig(rel_tol=1e-10, max_iters=500)
        first = hooi(T, (2, 2, 1), cfg)
        best = hooi(T, (2, 2, 1), replace(cfg, num_restarts=6))
        assert best.objective_history == first.objective_history

    @pytest.mark.parametrize("gain, taken", [(2.0, True), (0.5, False)])
    def test_restart_must_beat_best_by_rel_tol(self, rng, monkeypatch, gain, taken):
        # the second run's objective is set to the first's times (1 + gain * rel_tol)
        # before the selection step sees the runs
        cfg = SolverConfig(rel_tol=1e-8, num_restarts=2)
        runs = []
        best = lowrank._best

        def patched(got, rel_tol):
            first, second = got
            second = replace(second, objective_history=[first.objective * (1 + gain * rel_tol)])
            runs.extend((first, second))
            return best([first, second], rel_tol)

        monkeypatch.setattr(lowrank, "_best", patched)
        got = hooi(random_sparse(rng, (5, 4, 3), density=0.8), (2, 2, 1), cfg)
        assert len(runs) == 2
        assert got is runs[1 if taken else 0]

    def test_history_monotone_and_factors_orthonormal(self, rng):
        T = random_sparse(rng, (6, 6, 4), density=0.6)
        ap = hooi(T, (2, 2, 2), TIGHT)
        hist = ap.objective_history
        assert all(b >= a - 1e-12 for a, b in zip(hist, hist[1:]))
        for Q in (ap.U, ap.V, ap.W):
            assert np.abs(Q.T @ Q - np.eye(Q.shape[1])).max() <= 1e-12

    def test_core_consistency(self, rng):
        T = random_sparse(rng, (5, 4, 6), density=0.5)
        ap = hooi(T, (2, 2, 2), TIGHT)
        direct = multi_multiply(T, ap.U, ap.V, ap.W)
        assert np.abs(direct - ap.core).max() <= 1e-12

    def test_objective_bounded_by_norm(self, rng):
        T = random_sparse(rng, (5, 5, 5), density=0.7)
        ap = hooi(T, (2, 2, 2), TIGHT)
        assert ap.objective <= frobenius_norm(T) + 1e-12

    def test_grassmann_invariance(self, rng):
        T = random_sparse(rng, (5, 5, 4), density=0.6)
        ap = hooi(T, (2, 2, 2), TIGHT)
        for _ in range(5):
            Q = random_orthogonal(rng, 2)
            obj = frobenius_norm(multi_multiply(T, ap.U @ Q, ap.V, ap.W))
            assert abs(obj - ap.objective) <= 1e-12 * max(1.0, ap.objective)

    def test_rank111_matches_alternating_power_oracle(self, rng):
        # independent exhaustive alternating power method from many starts
        T = random_sparse(rng, (4, 4, 3), density=0.8)
        d = T.to_dense()
        best = 0.0
        for s in range(50):
            r = np.random.default_rng(1000 + s)
            x = r.standard_normal(4)
            y = r.standard_normal(4)
            z = r.standard_normal(3)
            for _ in range(400):
                x = np.einsum("ijk,j,k->i", d, y, z)
                x /= np.linalg.norm(x)
                y = np.einsum("ijk,i,k->j", d, x, z)
                y /= np.linalg.norm(y)
                z = np.einsum("ijk,i,j->k", d, x, y)
                z /= np.linalg.norm(z)
            best = max(best, abs(np.einsum("ijk,i,j,k->", d, x, y, z)))
        ap = hooi(T, (1, 1, 1), TIGHT)
        assert abs(ap.objective - best) <= 1e-8

    def test_empty_tensor_rejected(self):
        with pytest.raises(ValueError):
            hooi(SparseTensor3((3, 3, 3)), (1, 1, 1))

    @pytest.mark.parametrize("solve", [hooi, hooi_symmetric])
    def test_empty_operator_rejected(self, solve):
        # an implicit operator with no entries is refused as an empty tensor
        # is; it once returned objective 0 with converged=True
        with pytest.raises(ValueError, match="^cannot approximate an empty tensor$"):
            solve(DeflatedOperator(SparseTensor3((4, 4, 2))), (2, 2, 1))

    def test_nonconvergence_flagged(self, rng):
        T = random_sparse(rng, (6, 6, 4), density=0.8)
        with pytest.warns(RuntimeWarning):
            ap = hooi(T, (2, 2, 2), SolverConfig(max_iters=1, rel_tol=1e-15))
        assert not ap.converged
        assert ap.objective_history  # result still returned

    @pytest.mark.parametrize("low_modes", [(), (0,), (1,), (2,), (0, 1, 2)])
    def test_rank_deficiency_flagged(self, rng, low_modes):
        # a sum of two rank-1 terms whose factors coincide in the modes of
        # low_modes, so exactly those unfoldings have rank 1 < 2
        first = [rng.random(d) for d in (6, 5, 4)]
        second = [f if mode in low_modes else rng.random(f.size) for mode, f in enumerate(first)]
        dense = sum(np.einsum("i,j,k->ijk", *fs) for fs in (first, second))
        ap = hooi(SparseTensor3.from_dense(dense), (2, 2, 2))
        assert ap.rank_deficient is bool(low_modes)

    def test_overflow_is_not_rank_deficiency(self, rng):
        # entries near 1e160 would overflow core * core in an unscaled
        # objective; the scaled one stays finite, the solve converges to 1e160
        # times the unscaled objective, and the full-rank problem stays full rank
        T = random_sparse(rng, (6, 5, 4), density=0.6)
        small = hooi(T, (2, 2, 2))
        assert small.rank_deficient is False
        big = SparseTensor3(T.dims, T.i, T.j, T.k, T.vals * 1e160)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ap = hooi(big, (2, 2, 2))
        assert np.all(np.isfinite(ap.objective_history))
        assert ap.converged
        assert ap.objective == pytest.approx(1e160 * small.objective, rel=1e-12)
        assert ap.rank_deficient is False
        C = big.contract_modes23(ap.V, ap.W).reshape(6, -1) / 1e160
        assert np.linalg.svd(C, compute_uv=False)[1] > 0.1


class TestHooiSymmetric:
    def test_single_symmetric_slice(self, rng):
        u = rng.random(5)
        d = np.zeros((5, 5, 1))
        d[:, :, 0] = np.outer(u, u)
        T = SparseTensor3.from_dense(d)
        ap = hooi_symmetric(T, (1, 1, 1), TIGHT)
        un = u / np.linalg.norm(u)
        assert abs(abs(ap.U[:, 0] @ un) - 1.0) <= 1e-10

    def test_core_symmetric(self, rng):
        T = random_symmetric(rng, 6, 4, density=0.5)
        ap = hooi_symmetric(T, (2, 2, 2), TIGHT)
        assert np.abs(ap.core - ap.core.transpose(1, 0, 2)).max() <= 1e-10
        assert ap.V is ap.U

    def test_matches_general_solver_objective(self, rng):
        T = random_symmetric(rng, 6, 4, density=0.6)
        sym = hooi_symmetric(T, (2, 2, 2), TIGHT)
        gen = hooi(T, (2, 2, 2), TIGHT)
        assert abs(sym.objective - gen.objective) <= 1e-8

    def test_asymmetric_input_rejected(self, rng):
        T = random_sparse(rng, (5, 5, 3), density=0.8)
        with pytest.raises(ValueError):
            hooi_symmetric(T, (2, 2, 2))

    @pytest.mark.parametrize("ranks", [(2, 2, 1), (2, 2, 2)])
    def test_restarts_keep_shared_factor_and_best_objective(self, rng, ranks):
        T = random_symmetric(rng, 6, 4, density=0.6)
        single = hooi_symmetric(T, ranks, TIGHT)
        cfg = SolverConfig(rel_tol=1e-12, max_iters=500, seed=3, num_restarts=5)
        ap = hooi_symmetric(T, ranks, cfg)
        again = hooi_symmetric(T, ranks, cfg)
        assert ap.V is ap.U
        assert ap.objective >= single.objective - 1e-12
        for a, b in ((ap.U, again.U), (ap.W, again.W), (ap.core, again.core)):
            assert a.tobytes() == b.tobytes()
        assert ap.objective_history == again.objective_history

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 3")
    def test_shared_factor_history_monotone(self):
        # criterion 3's monotone-history check, applied to the shared-factor solver
        rng = np.random.default_rng(303)
        cfg = SolverConfig(rel_tol=1e-10, max_iters=300, seed=0, num_restarts=20)
        for trial in range(50):
            T = random_symmetric(rng, 6, 4, density=0.6)
            for ranks in ((2, 2, 1), (2, 2, 2)):
                hist = hooi_symmetric(T, ranks, cfg).objective_history
                assert all(b >= a - 1e-12 for a, b in zip(hist, hist[1:])), (trial, ranks)

    def test_prop_structure_recovery(self, rng):
        w = np.array([0.2, 0.5, 0.8, 0.1])
        w /= np.linalg.norm(w)
        T, u, v, w = planted_bipartite(3, 4, 4, tau=2.0, w=w, seed=7)
        ap = hooi_symmetric(T, (2, 2, 1), TIGHT)
        G = ap.core[:, :, 0]
        assert abs(G[0, 0]) <= 1e-8 and abs(G[1, 1]) <= 1e-8
        assert abs(abs(G[0, 1]) - 2.0) <= 1e-8
        # shared factor columns carry u and v on complementary blocks
        cols = {tuple(np.abs(ap.U[:, c]) > 1e-8) for c in range(2)}
        expect_u = tuple([True] * 3 + [False] * 4)
        expect_v = tuple([False] * 3 + [True] * 4)
        assert cols == {expect_u, expect_v}


class TestRotationCore:
    """``_fix_rotation_221`` rotates the core without touching the operator;
    it must equal the core contracted afresh in the new basis.  Tolerance:
    1e-13 relative to the largest core entry (1.6e-15 seen over 300 random
    cases)."""

    @pytest.mark.parametrize("deflated", [False, True])
    @pytest.mark.parametrize("opposite", [False, True])
    @pytest.mark.parametrize("flip", [False, True])
    def test_matches_contracted_core(self, rng, deflated, opposite, flip):
        T = random_symmetric(rng, 9, 4, density=0.6)
        if deflated:
            T = two_term_operator(rng, T)
        w = rng.random(4) + 0.1
        w /= -np.linalg.norm(w) if flip else np.linalg.norm(w)
        W = w[:, None]
        # the 2x2 core slice is Q' diag(e) Q for a pair e of eigenvalues of
        # sum_k w_k A_k: its extreme ones (opposite signs) or its two largest
        evals, vecs = np.linalg.eigh(np.einsum("ijk,k->ij", T.to_dense(), w))
        U = vecs[:, [-1, 0] if opposite else [-1, -2]] @ random_orthogonal(rng, 2)
        core = lowrank._core_from_c12(T.contract_modes12(U, U), W)
        e = evals[[-1, 0] if opposite else [-1, -2]]
        assert (e[0] > 0 > e[1]) == opposite
        ap = lowrank.RankApproximation(U, U, W, core, [_norm(core)])
        fixed = lowrank._fix_rotation_221(ap)
        want = lowrank._core_from_c12(T.contract_modes12(fixed.U, fixed.U), fixed.W)
        assert np.abs(fixed.core - want).max() <= 1e-13 * np.abs(want).max()
        assert fixed.V is fixed.U and fixed.objective_history == ap.objective_history
        # the temporal sign is fixed by the flip: W is -w when w's pivot was negative
        assert (fixed.W.tobytes() == (-W).tobytes()) == flip
        assert np.all(lowrank._column_signs(fixed.U) == 1) and lowrank._column_signs(fixed.W)[0] == 1
        if opposite:  # the 45-degree mix puts the eigenvalues' mean (of the fixed w) on the diagonal
            mean = -e.mean() if flip else e.mean()
            np.testing.assert_allclose(np.diag(fixed.core[:, :, 0]), [mean] * 2, atol=1e-12 * abs(e).max())


class TestReconstruct:
    def test_exact_rank_input(self, rng):
        a, b, c = rng.random(4), rng.random(5), rng.random(3)
        T = SparseTensor3.from_dense(np.einsum("i,j,k->ijk", a, b, c))
        ap = hooi(T, (1, 1, 1), TIGHT)
        assert np.abs(reconstruct(ap) - T.to_dense()).max() <= 1e-10

    def test_norm_equals_core_norm(self, rng):
        T = random_sparse(rng, (5, 5, 4), density=0.6)
        ap = hooi(T, (2, 2, 2), TIGHT)
        B = reconstruct(ap)
        assert abs(frobenius_norm(B) - frobenius_norm(ap.core)) <= 1e-12

    def test_pythagorean_identity(self, rng):
        T = random_sparse(rng, (5, 5, 4), density=0.6)
        ap = hooi(T, (2, 2, 2), TIGHT)
        resid = frobenius_norm(T.to_dense() - reconstruct(ap)) ** 2
        expect = frobenius_norm(T) ** 2 - ap.objective**2
        assert abs(resid - expect) <= 1e-9 * frobenius_norm(T) ** 2


class TestSerialization:
    def test_matrix_csv_matches_csv_writer(self, tmp_path, rng):
        from tenspart.lowrank import _write_matrix_csv

        def reference(path, name, M):
            with open(path, "w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh)
                writer.writerow([name, M.shape[0], M.shape[1]])
                for row in M:
                    writer.writerow([repr(float(x)) for x in row])

        odd = [-0.0, 0.0, 5e-324, -2.5e-310, 1e308, -1e308, 1.0 / 3.0]
        core = rng.standard_normal((2, 3, 4))
        cases = [
            ("U", rng.standard_normal((40, 3))),
            ("V", rng.choice(odd, (25, 4))),
            ("W", np.array([[-0.0]])),
            ("core_2x3x4", core.reshape(2, 12)),
        ]
        for name, M in cases:
            _write_matrix_csv(tmp_path / "got.csv", name, M)
            reference(tmp_path / "want.csv", name, M)
            assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    def test_save_files_and_report(self, tmp_path, rng):
        T = random_sparse(rng, (5, 4, 3), density=0.6)
        ap = hooi(T, (2, 2, 2), TIGHT)
        report = save_approximation(ap, tmp_path)
        for name in ("approx_U.csv", "approx_V.csv", "approx_W.csv", "approx_core.csv"):
            assert (tmp_path / name).exists()
        assert report["converged"]
        assert report["shapes"]["U"] == [5, 2]
