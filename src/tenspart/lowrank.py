"""Best rank-(r1, r2, r3) approximation by higher-order orthogonal iteration.

The approximation problem is posed as constrained maximization of the
objective ||A . (X, Y, Z)|| over matrices with orthonormal columns; the
core tensor of a solution (U, V, W) is F = A . (U, V, W) and the implied
best approximation is B = (U, V, W) . F.

The solver here is HOOI with a deterministic sketched truncated-HOSVD
start and optional seeded random restarts.  Solver and start touch the
data only through mode contractions against matrices with few columns
(``half_product``, with the transposed slices too in an unshared solve,
and ``reduce_half``), so an implicit operator (see
:mod:`tenspart.expansion`) can stand in for a sparse tensor and gets the
same start.  Restarts sweep in lockstep and share each sparse product;
the start's sketch sweeps with them, as one more run of the first batch,
and the first restart takes its place once its start is lifted.  A
sequence of solves on nearby operators (the terms of an expansion) can
recycle the start's range finder: each sketch then makes one sweep from
the last one's bases.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .sparse_tensor import SparseTensor3, _check_size, _exponent, _norm, _require_12_symmetric

__all__ = [
    "SolverConfig",
    "RankApproximation",
    "hosvd_init",
    "hooi",
    "hooi_symmetric",
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


def _column_signs(Q: np.ndarray) -> np.ndarray:
    """The sign (+1 or -1) of the largest-|entry| element of each column (ties: lowest index)."""
    pivots = Q[np.argmax(np.abs(Q), axis=0), np.arange(Q.shape[1])]
    return np.where(pivots < 0, -1.0, 1.0)


def _fix_column_signs(Q: np.ndarray) -> np.ndarray:
    """Make the largest-|entry| element of each column positive (ties: lowest index)."""
    return Q * _column_signs(Q)


def _leading(M: np.ndarray, r: int) -> tuple[np.ndarray, bool]:
    """Basis of the r leading left singular directions of M, and whether rank(M) < r.

    The basis has orthonormal columns, ordered by singular value and
    sign-fixed so the largest-|entry| element in each column is positive.
    When M has numerical rank below r its trailing columns are an
    orthonormal complement, from the QR factorization (tall M) or the Gram
    eigenvectors (wide M).

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


@dataclass
class _Run:
    """One run of a lockstep batch: its start (U, V, W), ranks and sweep limit.

    ``then``, if set, maps the run's finished approximation to the run that
    takes its place in the batch (the sketch's lift to restart 0).
    """

    start: tuple[np.ndarray, np.ndarray, np.ndarray]
    ranks: tuple[int, int, int]
    max_iters: int
    then: Callable[[RankApproximation], "_Run"] | None = None


def _side_by_side(T, factors: list[np.ndarray], transposed: bool = False):
    """One half product of the factors side by side, and each factor's block of its columns."""
    edges = np.cumsum([0] + [F.shape[1] for F in factors]).tolist()
    P = T.half_product(np.hstack(factors), transposed)
    return P, [slice(a, b) for a, b in zip(edges, edges[1:])]


def _sweeps(T, runs: list[_Run], rel_tol: float, shared: bool) -> list[RankApproximation]:
    """Alternating HOOI updates of every run, in lockstep; one result per run.

    With ``shared`` the mode-1 and mode-2 factors are one matrix U = V,
    updated from the mode-1 contraction (equal to the mode-2 one on a
    (1,2)-symmetric operator), so a start's V is not read.

    Each run has its own ranks and sweep limit, and leaves once it
    converges (relative objective change at most ``rel_tol``) or reaches
    its limit.  The runs share every sparse product: it takes the factors
    of the runs in the batch side by side, and each run reduces its own
    block of columns with its own factors, so it gets the bits it would get
    alone.  Each factor update makes one product.  The canonical-stack half
    product P = ``T.half_product(V)`` that the modes-(1,2) contraction ends
    a sweep with is the one the next sweep's modes-(2,3) contraction
    needs, since V has not changed since; it is carried over and dropped
    right after that reduction, so at most one half product is alive.  A
    run enters the batch at a canonical-stack product, with its start's V:
    all runs at the first, and the run that a finished run's ``then``
    returns at the next one after it, so that run makes no product of its
    own.  The result for a run with ``then`` is that of the last run of
    its chain.  A shared sweep thus makes one canonical-stack product; an
    unshared one adds the modes-(1,3) contraction, the only product with
    the transposed slices.
    """
    results: list[RankApproximation | None] = [None] * len(runs)

    def enter(slot: int, run: _Run):
        U, V, W = run.start
        return slot, run, RankApproximation(U, U if shared else V, W, None, converged=False)

    sweeping, entering = [], [enter(slot, run) for slot, run in enumerate(runs)]
    while sweeping or entering:
        P, cols = _side_by_side(T, [ap.V for _, _, ap in sweeping + entering])
        entered = list(zip(entering, cols[len(sweeping) :]))
        going, entering = [], []
        for (slot, run, ap), c in zip(sweeping, cols):
            C12 = T.reduce_half(P, 3, ap.U, c)  # contract_modes12(U, V): (n, r1, r2)
            ap.W, low = _leading(C12.reshape(C12.shape[0], -1), run.ranks[2])
            ap.rank_deficient |= low
            ap.core = _core_from_c12(C12, ap.W)
            obj = _norm(ap.core)
            history = ap.objective_history
            ap.converged = bool(history) and abs(obj - history[-1]) <= rel_tol * max(obj, 1e-300)
            history.append(obj)
            if not (ap.converged or len(history) == run.max_iters):
                going.append(((slot, run, ap), c))
            elif run.then is None:
                results[slot] = ap
            else:
                entering.append(enter(slot, run.then(ap)))
        going += entered
        for (_, run, ap), c in going:
            C = T.reduce_half(P, 1, ap.W, c)  # contract_modes23(V, W): (l, r2, r3)
            ap.U, low = _leading(C.reshape(C.shape[0], -1), run.ranks[0])
            ap.rank_deficient |= low
        P = None  # dropped before the next product
        sweeping = [member for member, _ in going]
        if shared:
            for _, _, ap in sweeping:
                ap.V = ap.U
        elif sweeping:
            Q, cols = _side_by_side(T, [ap.U for _, _, ap in sweeping], transposed=True)
            for (_, run, ap), c in zip(sweeping, cols):
                C = T.reduce_half(Q, 1, ap.W, c)  # contract_modes13(U, W): (m, r1, r3)
                ap.V, low = _leading(C.reshape(C.shape[0], -1), run.ranks[1])
                ap.rank_deficient |= low
            Q = None
    return results


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


def _sketch(T, ranks, shared: bool, sketch: list | None) -> tuple[_Run, Callable]:
    """The sketch run of :func:`hosvd_init` and the lift of its result to the start.

    The one check site of every solve and start, through ``dims`` and ``nnz``:
    shape, ranks, entries, then, when ``shared``, the (1,2)-symmetry of a
    sparse tensor (an implicit operator's is its builder's to check).
    """
    dims = T.dims
    if shared and (dims[0] != dims[1] or ranks[0] != ranks[1]):
        raise ValueError("a shared-factor solve needs equal mode-1/2 extents and r1 == r2")
    _check_ranks(ranks, dims)
    if T.nnz == 0:
        raise ValueError("cannot approximate an empty tensor")
    if shared and isinstance(T, SparseTensor3):
        _require_12_symmetric(T, "tensor is not (1,2)-symmetric")
    size = math.prod(dims)
    p = tuple(min(d, r + _OVERSAMPLE, size // d) for d, r in zip(dims, ranks))
    if sketch and [b.shape for b in sketch[0]] == list(zip(dims, p)):
        start, sweeps = sketch[0], 1
    else:
        rng = np.random.default_rng(0)
        start, sweeps = tuple(_random_orthonormal(rng, d, pi) for d, pi in zip(dims, p)), 2

    def lift(sketched: RankApproximation) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        bases = (sketched.U, sketched.V, sketched.W)
        if sketch is not None:
            sketch[:] = [bases]

        def one(mode: int) -> np.ndarray:
            unfold = np.moveaxis(sketched.core, mode, 0).reshape(p[mode], -1)
            return _fix_column_signs(bases[mode] @ _leading(unfold, ranks[mode])[0])

        U = one(0)
        return U, U if shared else one(1), one(2)

    return _Run(start, p, sweeps), lift


def hosvd_init(
    T, ranks: tuple[int, int, int], shared: bool = False, *, sketch: list | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sketched truncated-HOSVD starting factors.

    Two HOOI sweeps at oversampled ranks p_i = min(d_i, r_i + 8, d_j d_k)
    from fixed-seed random orthonormal factors give three thin bases (a
    randomized range finder); the truncated HOSVD of the small projected
    core, lifted back through those bases, is the start.  ``T`` is read
    only through its contractions, so sparse tensors and implicit
    operators get the same deterministic start.  The result is the exact
    truncated HOSVD when every p_i equals d_i or d_j d_k.  The problem is
    checked as a solve's is (see :func:`_sketch`).

    This is the sketch run of every solve, run alone, and its lift: a
    solve sweeps the sketch in lockstep with its restarts (see
    :func:`_solve`), so its start has the bits this call returns.

    With ``shared`` (a (1,2)-symmetric operator and r1 == r2) the sketch
    sweeps keep V = U, as the shared-factor solver does, and the mode-1
    factor is returned as V too; the sketch then never makes a modes-(1,3)
    contraction, so it never multiplies by the transposed slices.

    ``sketch`` recycles the range finder across a sequence of nearby
    operators, such as the residuals of an expansion.  It is a list that
    this call leaves holding its final bases (U, V, W); when it already
    holds bases of the shapes (d_i, p_i), the sketch makes one sweep from
    them instead of two from the random draw.  Without it (the default)
    every call draws afresh.
    """
    run, lift = _sketch(T, ranks, shared, sketch)
    return lift(_sweeps(T, [run], SolverConfig().rel_tol, shared)[0])


def _batch_size(T, ranks, p, shared: bool) -> int:
    """Runs per lockstep batch of :func:`_sweeps`, the sketch at ranks ``p`` in one run's place.

    As many as keep every dense array of a product within the operator's
    stored entries: the canonical half product, n*l per column of V, and
    in an unshared solve the transposed half product and the tiled factor
    it multiplies, n*m and n*l per column of U.  The first batch holds the
    sketch (then restart 0, no wider) and restarts of ``ranks``; later
    batches hold restarts only, so they fit as well.  At least one: a lone
    run's products are as wide as they ever were.
    """
    l, m, n = T.dims
    limits = [(n * l, 1)] if shared else [(n * l, 1), (n * max(l, m), 0)]
    return max(1, 1 + min((T.nnz // width - p[mode]) // ranks[mode] for width, mode in limits))


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


def _solve(T, ranks, cfg: SolverConfig, shared: bool, sketch: list | None = None) -> RankApproximation:
    """Best of ``cfg.num_restarts`` sweep runs, by :func:`_best`.

    Restart 0 starts from the :func:`hosvd_init` sketch on every operator,
    sparse tensor or implicit, sketched with the same ``shared`` as the
    sweeps (and recycling ``sketch``, if given); so a shared solve makes no
    modes-(1,3) contraction.  The others start from orthonormal factors
    drawn from ``cfg.seed``.  The runs sweep in lockstep, in batches of
    :func:`_batch_size`, and share each batch's sparse products.  The
    first batch also sweeps the sketch: its two sweeps (one when recycled)
    ride the restarts' first products, and restart 0 takes its place at
    the next canonical-stack product after its start is lifted.  The
    problem is checked in :func:`_sketch`, as :func:`hosvd_init`'s is.
    """
    first, lift = _sketch(T, ranks, shared, sketch)
    l, m, n = T.dims
    first.then = lambda sketched: _Run(lift(sketched), ranks, cfg.max_iters)
    runs = [first]
    rng = np.random.default_rng(cfg.seed)
    for _ in range(1, cfg.num_restarts):
        U = _random_orthonormal(rng, l, ranks[0])
        V = U if shared else _random_orthonormal(rng, m, ranks[1])
        runs.append(_Run((U, V, _random_orthonormal(rng, n, ranks[2])), ranks, cfg.max_iters))
    size = _batch_size(T, ranks, first.ranks, shared)
    found = []
    for b in range(0, len(runs), size):
        found += _sweeps(T, runs[b : b + size], cfg.rel_tol, shared)
    best = _best(found, cfg.rel_tol)
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


def _fix_rotation_221(ap: RankApproximation) -> RankApproximation:
    """Fix the rotational freedom of a shared rank-(2, 2, 1) factor.

    The shared factor is rotated onto the eigenvectors of the 2x2 core
    slice (mixed at 45 degrees when the eigenvalues have opposite signs),
    and column and temporal signs are fixed: U' = U R D with D the column
    sign flips, and W' = s W.  The core in the new basis follows without
    touching the operator: core' = s (RD)' G (RD) for the core slice G,
    since core = A . (U, U, W).  The objective history is unchanged.
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
    UR = ap.U @ R
    d, s = _column_signs(UR), _column_signs(ap.W)
    U, RD = UR * d, R * d
    core = (RD.T @ ap.core[:, :, 0] @ RD)[:, :, None] * s
    return replace(ap, U=U, V=U, W=ap.W * s, core=core)


def hooi_symmetric(
    T, ranks: tuple[int, int, int], cfg: SolverConfig | None = None, *, sketch: list | None = None
) -> RankApproximation:
    """Symmetric HOOI: one shared factor for modes 1 and 2.

    The shared factor is updated from the mode-1 contraction, which equals
    the mode-2 one on a (1,2)-symmetric operator.  The core of a converged
    run is (1,2)-symmetric.  For ranks (2, 2, 1) the rotational freedom of
    the shared factor is fixed deterministically from the
    eigendecomposition of the 2x2 core slice.  The problem is checked in
    :func:`_sketch`.  ``sketch`` recycles the start's range finder, as in
    :func:`hosvd_init`.
    """
    best = _solve(T, ranks, cfg or SolverConfig(), shared=True, sketch=sketch)
    if tuple(ranks) == (2, 2, 1):
        best = _fix_rotation_221(best)
    return best


def reconstruct(approx: RankApproximation) -> np.ndarray:
    """Dense best-approximation tensor B = (U, V, W) . F."""
    _check_size("reconstruct", approx.U.shape[0] * approx.V.shape[0] * approx.W.shape[0])
    return np.einsum("pqr,ip,jq,kr->ijk", approx.core, approx.U, approx.V, approx.W)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _write_matrix_csv(path, name: str, M: np.ndarray) -> None:
    """A ``name,rows,cols`` line, then one line of ``repr`` values per row, in one write.

    Lines end in CRLF; the bytes are those of ``csv.writer``, whose fields
    here need no quoting.
    """
    rows, cols = M.shape
    lines = [f"{name},{rows},{cols}\r\n"]
    lines.extend(",".join(map(repr, row)) + "\r\n" for row in M.tolist())
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("".join(lines))


def save_approximation(approx: RankApproximation, outdir) -> dict:
    """Write factors and core as CSV plus a JSON run report; returns the report."""
    from pathlib import Path

    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    _write_matrix_csv(outdir / "approx_U.csv", "U", approx.U)
    _write_matrix_csv(outdir / "approx_V.csv", "V", approx.V)
    _write_matrix_csv(outdir / "approx_W.csv", "W", approx.W)
    r1, r2, r3 = approx.core.shape
    _write_matrix_csv(
        outdir / "approx_core.csv", f"core_{r1}x{r2}x{r3}", approx.core.reshape(r1, r2 * r3)
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
    with open(outdir / "approx_report.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
    return report
