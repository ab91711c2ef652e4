"""Best rank-(r1, r2, r3) approximation by higher-order orthogonal iteration.

The approximation problem is posed as constrained maximization of the
objective ||A . (X, Y, Z)|| over matrices with orthonormal columns; the
core tensor of a solution (U, V, W) is F = A . (U, V, W) and the implied
best approximation is B = (U, V, W) . F.

The solver here is HOOI with a deterministic sketched truncated-HOSVD
start and optional seeded random restarts.  Solver and start touch the
data only through mode contractions against matrices with few columns
(``half_product``, of the transposed stack too in an unshared solve, and
``reduce_half``), so an implicit operator (see :mod:`tenspart.expansion`)
can stand in for a sparse tensor and gets the same start.  Restarts sweep
in lockstep and share each sparse product.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .sparse_tensor import (
    SparseTensor3,
    _check_size,
    _exponent,
    _norm,
    _symmetry_tol,
    is_12_symmetric,
    symmetric_embed,
)

__all__ = [
    "SolverConfig",
    "RankApproximation",
    "dominant_subspace",
    "hosvd_init",
    "hooi",
    "hooi_symmetric",
    "approx_nonsymmetric_via_embedding",
    "reconstruct",
    "save_approximation",
]

# extra columns per mode in the hosvd_init sketch
_OVERSAMPLE = 8


@dataclass
class SolverConfig:
    """Iteration controls for the alternating solver."""

    max_iters: int = 200
    rel_tol: float = 1e-8
    seed: int = 0
    num_restarts: int = 1

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not (math.isfinite(self.rel_tol) and self.rel_tol > 0):
            raise ValueError(f"rel_tol must be positive and finite, got {self.rel_tol!r}")
        if self.num_restarts < 1:
            raise ValueError("num_restarts must be >= 1")


@dataclass
class RankApproximation:
    """Factors, core and convergence record of one approximation.

    U, V, W have orthonormal columns; core = A . (U, V, W).  The objective
    history holds ||core|| per iteration; it is nondecreasing for
    :func:`hooi`, but not yet for the shared-factor solver (see the xfail
    ``test_shared_factor_history_monotone`` in ``tests/test_lowrank.py``).
    ``rank_deficient`` is set when, in any sweep, a contraction a factor was
    taken from had numerical rank below that factor's rank.  For
    (1,2)-symmetric problems V is U.
    """

    U: np.ndarray
    V: np.ndarray
    W: np.ndarray
    core: np.ndarray
    objective_history: list[float] = field(default_factory=list)
    converged: bool = True
    rank_deficient: bool = False

    @property
    def ranks(self) -> tuple[int, int, int]:
        return (self.U.shape[1], self.V.shape[1], self.W.shape[1])

    @property
    def objective(self) -> float:
        return self.objective_history[-1] if self.objective_history else float("nan")


def _fix_column_signs(Q: np.ndarray) -> np.ndarray:
    """Make the largest-|entry| element of each column positive (ties: lowest index)."""
    Q = Q.copy()
    for c in range(Q.shape[1]):
        pivot = Q[np.argmax(np.abs(Q[:, c])), c]
        if pivot < 0:
            Q[:, c] = -Q[:, c]
    return Q


def dominant_subspace(M: np.ndarray, r: int) -> np.ndarray:
    """Orthonormal basis of the r leading left singular directions of M.

    Columns are ordered by singular value and sign-fixed so the
    largest-|entry| element in each column is positive.  When M has rank
    below r the trailing columns are an orthonormal complement, supplied by
    the QR factorization (tall M) or the Gram eigenvectors (wide M) of
    :func:`_leading`; this is reported with a warning.
    """
    Q, deficient = _leading(M, r)
    if deficient:
        warnings.warn(
            f"matrix has numerical rank below {r}; subspace padded with an "
            "orthonormal complement",
            RuntimeWarning,
            stacklevel=2,
        )
    return Q


def _leading(M: np.ndarray, r: int) -> tuple[np.ndarray, bool]:
    """:func:`dominant_subspace` of M, and whether M has numerical rank below r.

    The subspace comes from the eigenvectors of the smaller Gram matrix of
    M, scaled first by an exact power of two so the Gram can neither
    overflow nor underflow.  Tall M (d > q): the top-r eigenvectors V of
    MᵀM are lifted to Y = M V, and the basis is the Q factor of Y.  Wide or
    square M: the basis is the top-r eigenvectors of MMᵀ.  The singular
    values are the column norms of M V (or Mᵀ U), accurate to about
    eps·||M|| in absolute terms, which is the scale of the rank test.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2:
        raise ValueError("M must be a matrix")
    if not np.all(np.isfinite(M)):
        raise ValueError("M contains non-finite values")
    if not 1 <= r <= min(M.shape):
        raise ValueError(f"r={r} out of range for shape {M.shape}")
    M = np.ldexp(M, -_exponent(M))
    if M.shape[0] > M.shape[1]:
        Y = M @ np.linalg.eigh(M.T @ M)[1][:, ::-1][:, :r]
        s = np.linalg.norm(Y, axis=0)
        Q = np.linalg.qr(Y)[0]
    else:
        Q = np.linalg.eigh(M @ M.T)[1][:, ::-1][:, :r]
        s = np.linalg.norm(M.T @ Q, axis=0)
    deficient = bool(s[r - 1] <= max(M.shape) * np.finfo(float).eps * s[0])
    return _fix_column_signs(Q), deficient


def _random_orthonormal(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    Q, _ = np.linalg.qr(rng.standard_normal((rows, cols)))
    return Q


def _core_from_c12(C12: np.ndarray, W: np.ndarray) -> np.ndarray:
    """core[p, q, r] from the modes-(1,2) contraction C12[k, p, q]."""
    return np.einsum("kpq,kr->pqr", C12, W)


def _block(a: int, r: int) -> slice:
    """The columns of the a-th of several r-column factors side by side."""
    return slice(a * r, (a + 1) * r)


def _sweeps(T, starts, ranks, cfg: SolverConfig, shared: bool) -> list[RankApproximation]:
    """Alternating HOOI updates from each of the (U, V, W) ``starts``, in lockstep.

    With ``shared`` the mode-1 and mode-2 factors are one matrix U = V,
    updated from the mode-1 contraction (equal to the mode-2 one on a
    (1,2)-symmetric operator), so the starting V is not read.

    The runs share every sparse product: it takes the factors of the runs
    still sweeping side by side, and each run reduces its own block of
    columns with its own factors, so it gets the bits it would get alone.
    A run leaves once it converges.  Each factor update makes one product.
    The half product P = ``T.half_product(V)`` that the modes-(1,2)
    contraction ends a sweep with is the one the next sweep's modes-(2,3)
    contraction needs, since V has not changed since; it is carried over
    and dropped right after that reduction, so at most one half product is
    alive.  A shared sweep thus makes one canonical-stack product; an
    unshared one adds the modes-(1,3) contraction, the only read of the
    transposed stack.
    """
    r1, r2, r3 = ranks
    runs = [RankApproximation(U, U if shared else V, W, None, converged=False) for U, V, W in starts]
    active = runs
    blocks = range(len(active))  # each active run's block of columns in P
    P = T.half_product(np.hstack([run.V for run in active]))
    for _ in range(cfg.max_iters):
        for a, run in zip(blocks, active):
            C = T.reduce_half(P, 1, run.W, _block(a, r2))  # contract_modes23(V, W): (l, r2, r3)
            run.U, low = _leading(C.reshape(C.shape[0], -1), r1)
            run.rank_deficient |= low
        P = None  # dropped before the next product
        if shared:
            for run in active:
                run.V = run.U
        else:
            Q = T.half_product(np.hstack([run.U for run in active]), transposed=True)
            for a, run in enumerate(active):
                C = T.reduce_half(Q, 1, run.W, _block(a, r1))  # contract_modes13(U, W): (m, r1, r3)
                run.V, low = _leading(C.reshape(C.shape[0], -1), r2)
                run.rank_deficient |= low
            Q = None
        P = T.half_product(np.hstack([run.V for run in active]))
        for a, run in enumerate(active):
            C12 = T.reduce_half(P, 3, run.U, _block(a, r2))  # contract_modes12(U, V): (n, r1, r2)
            run.W, low = _leading(C12.reshape(C12.shape[0], -1), r3)
            run.rank_deficient |= low
            run.core = _core_from_c12(C12, run.W)
            obj = _norm(run.core)
            history = run.objective_history
            run.converged = bool(history) and abs(obj - history[-1]) <= cfg.rel_tol * max(obj, 1e-300)
            history.append(obj)
        blocks = [a for a, run in enumerate(active) if not run.converged]
        active = [active[a] for a in blocks]
        if not active:
            break
    return runs


def _check_ranks(ranks, dims) -> None:
    """Ranks a sweep can reach: 1 <= r_i <= d_i and r_i <= r_j*r_k.

    A mode-i update takes r_i leading left singular vectors of a
    d_i x (r_j r_k) contraction, so r_i cannot exceed r_j r_k either.
    """
    for r, extent in zip(ranks, dims):
        if not 1 <= r <= extent:
            raise ValueError(f"rank {r} exceeds extent {extent}")
    r = tuple(ranks)
    for a, b, c in ((0, 1, 2), (1, 0, 2), (2, 0, 1)):
        if r[a] > r[b] * r[c]:
            raise ValueError(
                f"ranks {r} need r_i <= r_j*r_k in every mode: "
                f"r{a + 1}={r[a]} > r{b + 1}*r{c + 1}={r[b] * r[c]}"
            )


def hosvd_init(
    T, ranks: tuple[int, int, int], shared: bool = False
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sketched truncated-HOSVD starting factors.

    Two HOOI sweeps at oversampled ranks p_i = min(d_i, r_i + 8, d_j d_k)
    from fixed-seed random orthonormal factors give three thin bases (a
    randomized range finder); the truncated HOSVD of the small projected
    core, lifted back through those bases, is the start.  ``T`` is read
    only through its contractions, so sparse tensors and implicit
    operators get the same deterministic start.  The result is the exact
    truncated HOSVD when every p_i equals d_i or d_j d_k.

    With ``shared`` (a (1,2)-symmetric operator and r1 == r2) the sketch
    sweeps keep V = U, as the shared-factor solver does, and the mode-1
    factor is returned as V too; the sketch then never makes a modes-(1,3)
    contraction, so it does not read a sparse tensor's transposed stack.
    """
    dims = T.dims
    _check_ranks(ranks, dims)
    if shared and (dims[0] != dims[1] or ranks[0] != ranks[1]):
        raise ValueError("a shared start needs equal mode-1/2 extents and r1 == r2")
    size = math.prod(dims)
    p = tuple(min(d, r + _OVERSAMPLE, size // d) for d, r in zip(dims, ranks))
    rng = np.random.default_rng(0)
    U, V, W = (_random_orthonormal(rng, d, pi) for d, pi in zip(dims, p))
    sketch = _sweeps(T, [(U, V, W)], p, SolverConfig(max_iters=2), shared)[0]
    bases = (sketch.U, sketch.V, sketch.W)

    def lift(mode: int) -> np.ndarray:
        unfold = np.moveaxis(sketch.core, mode, 0).reshape(p[mode], -1)
        return _fix_column_signs(bases[mode] @ _leading(unfold, ranks[mode])[0])

    U = lift(0)
    return U, U if shared else lift(1), lift(2)


def _batch_size(T, ranks, shared: bool) -> int:
    """Restarts per lockstep batch of :func:`_sweeps`.

    As many as keep every half product within the operator's stored entries
    (n*l*r2 per run on the canonical stack, n*m*r1 on the transposed one),
    and at least one: a lone run's products are as wide as they ever were.
    """
    l, m, n = T.dims
    width = n * l * ranks[1] if shared else n * max(l * ranks[1], m * ranks[0])
    return max(1, T.nnz // width)


def _best(runs: list[RankApproximation], rel_tol: float) -> RankApproximation:
    """The run with the largest objective, the earliest among near ties.

    A later run replaces the best only when its objective is larger by more
    than ``rel_tol`` relative, so runs that reach the same optimum (and tie
    up to rounding) return the earliest.
    """
    best = runs[0]
    for cand in runs[1:]:
        if cand.objective - best.objective > rel_tol * best.objective:
            best = cand
    return best


def _solve(T, ranks, cfg: SolverConfig, shared: bool) -> RankApproximation:
    """Best of ``cfg.num_restarts`` sweep runs, by :func:`_best`.

    The first run starts from :func:`hosvd_init` on every operator, sparse
    tensor or implicit, sketched with the same ``shared`` as the sweeps; so
    a shared solve makes no modes-(1,3) contraction and reads only the
    canonical stack.  The others start from orthonormal factors drawn from
    ``cfg.seed``.  The runs sweep in lockstep, in batches of
    :func:`_batch_size`, and share each batch's sparse products.
    """
    if isinstance(T, SparseTensor3) and T.nnz == 0:
        raise ValueError("cannot approximate an empty tensor")
    l, m, n = T.dims
    rng = np.random.default_rng(cfg.seed)
    starts = [hosvd_init(T, ranks, shared=shared)]
    for _ in range(1, cfg.num_restarts):
        U = _random_orthonormal(rng, l, ranks[0])
        V = U if shared else _random_orthonormal(rng, m, ranks[1])
        starts.append((U, V, _random_orthonormal(rng, n, ranks[2])))
    size = _batch_size(T, ranks, shared)
    runs = []
    for b in range(0, len(starts), size):
        runs += _sweeps(T, starts[b : b + size], ranks, cfg, shared)
    best = _best(runs, cfg.rel_tol)
    if not best.converged:
        warnings.warn("HOOI did not converge within max_iters", RuntimeWarning)
    return best


def hooi(T, ranks: tuple[int, int, int], cfg: SolverConfig | None = None) -> RankApproximation:
    """Best rank-(r1, r2, r3) approximation by alternating subspace updates.

    Starts from :func:`hosvd_init`; with ``cfg.num_restarts > 1`` the
    solve is repeated from seeded random orthonormal factors and the run
    with the largest objective is returned (the earliest, among runs within
    ``cfg.rel_tol`` of each other).  Non-convergence is flagged on the
    result, not fatal.
    """
    return _solve(T, ranks, cfg or SolverConfig(), shared=False)


def _fix_rotation_221(T, ap: RankApproximation) -> RankApproximation:
    """Fix the rotational freedom of a shared rank-(2, 2, 1) factor.

    The shared factor is rotated onto the eigenvectors of the 2x2 core
    slice (mixed at 45 degrees when the eigenvalues have opposite signs),
    column and temporal signs are fixed, and the core is recomputed in the
    new basis.  The objective history is unchanged.
    """
    G = 0.5 * (ap.core[:, :, 0] + ap.core[:, :, 0].T)
    evals, P = np.linalg.eigh(G)
    order = np.argsort(evals)[::-1]
    P = _fix_column_signs(P[:, order])
    evals = evals[order]
    if evals[0] > 0 > evals[1]:  # opposite signs; their product can overflow
        mix = np.array([[1.0, -1.0], [1.0, 1.0]]) / math.sqrt(2.0)
        R = P @ mix.T
    else:
        R = P
    U = _fix_column_signs(ap.U @ R)
    W = -ap.W if ap.W[np.argmax(np.abs(ap.W[:, 0])), 0] < 0 else ap.W
    core = _core_from_c12(T.contract_modes12(U, U), W)
    return replace(ap, U=U, V=U, W=W, core=core)


def hooi_symmetric(T, ranks: tuple[int, int, int], cfg: SolverConfig | None = None) -> RankApproximation:
    """Symmetric HOOI: one shared factor for modes 1 and 2.

    The shared factor is updated from the mode-1 contraction, which equals
    the mode-2 one on a (1,2)-symmetric operator.  The core of a converged
    run is (1,2)-symmetric.  For ranks (2, 2, 1) the rotational freedom of
    the shared factor is fixed deterministically from the
    eigendecomposition of the 2x2 core slice.
    """
    l, m, _ = T.dims
    if l != m:
        raise ValueError("symmetric solver needs equal mode-1/2 extents")
    if isinstance(T, SparseTensor3) and not is_12_symmetric(T, tol=_symmetry_tol(T)):
        raise ValueError("tensor is not (1,2)-symmetric")
    if ranks[0] != ranks[1]:
        raise ValueError("symmetric solver needs r1 == r2")
    best = _solve(T, ranks, cfg or SolverConfig(), shared=True)
    if tuple(ranks) == (2, 2, 1):
        best = _fix_rotation_221(T, best)
    return best


def approx_nonsymmetric_via_embedding(
    T: SparseTensor3, ranks: tuple[int, int, int], cfg: SolverConfig | None = None
) -> RankApproximation:
    """Approximate a general tensor through its symmetric block embedding.

    Runs the symmetric solver on [[0, T], [T', 0]] with a stacked factor of
    r1 + r2 columns, splits it into top and bottom blocks, re-orthonormalizes
    each into U and V, and then polishes with alternating updates on T
    itself before computing W and the core directly from T.
    """
    cfg = cfg or SolverConfig()
    l, m, n = T.dims
    _check_ranks(ranks, T.dims)
    r1, r2, r3 = ranks
    emb = symmetric_embed(T)
    sym = hooi_symmetric(emb, (r1 + r2, r1 + r2, r3), cfg)

    top, bottom = sym.U[:l], sym.U[l:]
    U = _leading(top, r1)[0]
    V = _leading(bottom, r2)[0]
    C12 = T.contract_modes12(U, V)
    W = _leading(C12.reshape(n, -1), r3)[0]

    # polish to a stationary point of the direct problem
    return _sweeps(T, [(U, V, W)], ranks, cfg, shared=False)[0]


def reconstruct(approx: RankApproximation) -> np.ndarray:
    """Dense best-approximation tensor B = (U, V, W) . F."""
    _check_size("reconstruct", approx.U.shape[0] * approx.V.shape[0] * approx.W.shape[0])
    return np.einsum("pqr,ip,jq,kr->ijk", approx.core, approx.U, approx.V, approx.W)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _write_matrix_csv(path, name: str, M: np.ndarray) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([name, M.shape[0], M.shape[1]])
        for row in np.atleast_2d(M):
            writer.writerow([repr(float(x)) for x in row])


def save_approximation(approx: RankApproximation, outdir, prefix: str = "approx") -> dict:
    """Write factors and core as CSV plus a JSON run report; returns the report."""
    from pathlib import Path

    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    _write_matrix_csv(outdir / f"{prefix}_U.csv", "U", approx.U)
    _write_matrix_csv(outdir / f"{prefix}_V.csv", "V", approx.V)
    _write_matrix_csv(outdir / f"{prefix}_W.csv", "W", approx.W)
    r1, r2, r3 = approx.core.shape
    _write_matrix_csv(
        outdir / f"{prefix}_core.csv", f"core_{r1}x{r2}x{r3}", approx.core.reshape(r1, r2 * r3)
    )
    report = {
        "shapes": {
            "U": list(approx.U.shape),
            "V": list(approx.V.shape),
            "W": list(approx.W.shape),
            "core": list(approx.core.shape),
        },
        "objective_history": approx.objective_history,
        "converged": approx.converged,
        "rank_deficient": approx.rank_deficient,
    }
    with open(outdir / f"{prefix}_report.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
    return report
