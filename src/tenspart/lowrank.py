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
same start.  One HOOI run is a generator (:func:`_run`) that asks for
each sparse product it needs, and one scheduler (:func:`_lockstep`) makes
each product once for all the runs of a batch waiting on it.  The
start's sketch is a run of the first batch too, and it hands over to
restart 0 by ``yield from`` once its result is lifted to restart 0's
start.  A sequence of solves on nearby operators (the terms of an
expansion) can recycle the start's range finder: each sketch then makes
one sweep from the last one's bases.  A solve or start on a sparse tensor
drops the slice stacks it built for its products when it returns or
raises, and keeps those the tensor held before (:func:`_stacks_kept`), so
nothing the size of the tensor's entries outlives the call.
"""

from __future__ import annotations

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
    _require_12_symmetric,
    _stacks_kept,
)

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
    :func:`hooi`, but not yet for the shared-factor solver, whose update
    of U = V in :func:`_run` is not an ascent step (see the strict xfail
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


def _leading(M: np.ndarray, r: int, overwrite: bool = False) -> tuple[np.ndarray, bool]:
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
    With ``overwrite`` a float M is scaled in place, for a caller that does
    not read it again: one array of its size fewer, and the same bits.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2:
        raise ValueError("M must be a matrix")
    if not np.all(np.isfinite(M)):
        raise ValueError("M contains non-finite values")
    if not 1 <= r <= min(M.shape):
        raise ValueError(f"r={r} out of range for shape {M.shape}")
    M = np.ldexp(M, -_exponent(M), out=M if overwrite else None)
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


def _run(T, start, ranks, max_iters: int, rel_tol: float, shared: bool):
    """One HOOI run from ``start`` = (U, V, W), as a generator of its sparse products.

    It yields ``(factor, transposed)`` for every half product it needs, is
    sent back ``(P, cols)``, a half product with that factor among its
    columns and the slice of them that is its block, and returns its
    :class:`RankApproximation`.  A sweep updates U from the canonical-stack
    product of V, then, unshared, V from the transposed product of U, then
    W from the canonical-stack product of the new V; it converges when the
    objective moves by at most ``rel_tol`` relative, and the run stops then
    or after ``max_iters`` sweeps.  The last product of a sweep is the one
    the next sweep's U update needs, since V has not changed since, so it
    is carried over: a shared sweep makes one product, an unshared one two.
    With ``shared`` the mode-1 and mode-2 factors are one matrix U = V,
    updated from the mode-1 contraction (equal to the mode-2 one on a
    (1,2)-symmetric operator), so the start's V is not read.  Each product
    and its reduction are dropped before the next request, so at most one
    product is alive and a run waiting on one holds no contraction.  The U
    and V updates hand their contraction to :func:`_leading` to scale in
    place; the W update reads its C12 again for the core, so it does not.
    """
    U, V, W = start
    ap = RankApproximation(U, U if shared else V, W, None, converged=False)
    P, cols = yield ap.V, False
    while True:
        C = T.reduce_half(P, 1, ap.W, cols)  # contract_modes23(V, W): (l, r2, r3)
        ap.U, low = _leading(C.reshape(C.shape[0], -1), ranks[0], overwrite=True)
        ap.rank_deficient |= low
        P = C = None
        if shared:
            ap.V = ap.U
        else:
            Q, cols = yield ap.U, True
            C = T.reduce_half(Q, 1, ap.W, cols)  # contract_modes13(U, W): (m, r1, r3)
            ap.V, low = _leading(C.reshape(C.shape[0], -1), ranks[1], overwrite=True)
            ap.rank_deficient |= low
            Q = C = None
        P, cols = yield ap.V, False
        C12 = T.reduce_half(P, 3, ap.U, cols)  # contract_modes12(U, V): (n, r1, r2)
        ap.W, low = _leading(C12.reshape(C12.shape[0], -1), ranks[2])
        ap.rank_deficient |= low
        ap.core = _core_from_c12(C12, ap.W)
        obj = _norm(ap.core)
        history = ap.objective_history
        ap.converged = bool(history) and abs(obj - history[-1]) <= rel_tol * max(obj, 1e-300)
        history.append(obj)
        if ap.converged or len(history) == max_iters:
            return ap


def _lockstep(T, runs: list) -> list[RankApproximation]:
    """Drive the :func:`_run` generators ``runs`` in lockstep; their results, in order.

    Each round makes one canonical-stack product for every run waiting on
    one, then one transposed product for every run waiting on one.  A
    product takes the waiting runs' factors side by side, and each run
    reduces its own block of columns with its own factors, so it gets the
    bits it would get alone.  A run that asks for a canonical-stack product
    while the round's first one is shared out waits for the next round.
    """
    done, waiting = {}, {False: [], True: []}

    def step(run, reply):
        try:
            factor, transposed = run.send(reply)
        except StopIteration as stop:
            done[run] = stop.value
        else:
            waiting[transposed].append((run, factor))

    for run in runs:
        step(run, None)
    while waiting[False] or waiting[True]:
        for transposed in (False, True):
            batch, waiting[transposed] = waiting[transposed], []
            if batch:
                edges = np.cumsum([0] + [factor.shape[1] for _, factor in batch]).tolist()
                P = T.half_product(np.hstack([factor for _, factor in batch]), transposed)
                for (run, _), a, b in zip(batch, edges, edges[1:]):
                    step(run, (P, slice(a, b)))
                P = None  # dropped before the next product
    return [done[run] for run in runs]


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


def _sketch(T, ranks, shared: bool, sketch: list | None = None):
    """The sketch run of :func:`hosvd_init` as ``(start, p, sweeps, lift)``.

    ``start``, ``p`` and ``sweeps`` are the run's start, oversampled ranks
    and sweep limit; ``lift`` maps its result to the start at ``ranks``.
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

    return start, p, sweeps, lift


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
    truncated HOSVD when every p_i equals d_i or d_j d_k.  The problem is
    checked as a solve's is (see :func:`_sketch`).

    This is the sketch run of every solve, driven alone by
    :func:`_lockstep`, and its lift: a solve runs the same sketch in
    lockstep with its restarts (see :func:`_solve`), and a run has the
    same bits in a batch as alone, so the solve's start is the one this
    call returns.

    With ``shared`` (a (1,2)-symmetric operator and r1 == r2) the sketch
    sweeps keep V = U, as the shared-factor solver does, and the mode-1
    factor is returned as V too; the sketch then never makes a modes-(1,3)
    contraction, so it never multiplies by the transposed slices.  Every
    call draws afresh; a sequence of solves recycles the range finder
    through :func:`hooi_symmetric`'s ``sketch``.  The slice stacks the
    sketch builds on a sparse ``T`` are dropped when it returns or raises
    (:func:`_stacks_kept`).
    """
    with _stacks_kept(T):
        start, p, sweeps, lift = _sketch(T, ranks, shared)
        return lift(_lockstep(T, [_run(T, start, p, sweeps, SolverConfig().rel_tol, shared)])[0])


def _batch_size(T, ranks, p, shared: bool) -> int:
    """Runs per :func:`_lockstep` batch, the sketch at ranks ``p`` in one run's place.

    As many as keep every dense array of a product within the operator's
    stored entries: the canonical half product, n*l per column of V, and
    in an unshared solve the transposed half product and the tiled factor
    it multiplies, n*m and n*l per column of U.  The first batch holds the
    run that sketches and then, at the same place, sweeps restart 0 (no
    wider than the sketch), beside restarts of ``ranks``; later batches
    hold restarts only, so they fit as well.  At least one: a lone run's
    products are as wide as they ever were.
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
    """Best of ``cfg.num_restarts`` HOOI runs, by :func:`_best`.

    Restart 0 starts from the :func:`hosvd_init` sketch on every operator,
    sparse tensor or implicit, sketched with the same ``shared`` as the
    sweeps (and recycling ``sketch``, if given); so a shared solve makes no
    modes-(1,3) contraction.  The others start from orthonormal factors
    drawn from ``cfg.seed``.  The runs go to :func:`_lockstep` in batches
    of :func:`_batch_size` and share each batch's sparse products.  The
    first run of the first batch is the sketch run and then, by
    ``yield from``, restart 0 from the lifted sketch: the sketch's two
    sweeps (one when recycled) ride the restarts' first products, and
    restart 0 asks for its first product, a canonical-stack one, in the
    round the sketch ends, so it joins the next round's.  The problem is
    checked in :func:`_sketch`, as :func:`hosvd_init`'s is, before any
    restart is drawn.  The stacks it builds are dropped by
    :func:`_stacks_kept` before it returns or raises.
    """
    with _stacks_kept(T):
        start, p, sweeps, lift = _sketch(T, ranks, shared, sketch)

        def restart0():
            sketched = yield from _run(T, start, p, sweeps, cfg.rel_tol, shared)
            return (yield from _run(T, lift(sketched), ranks, cfg.max_iters, cfg.rel_tol, shared))

        l, m, n = T.dims
        runs = [restart0()]
        rng = np.random.default_rng(cfg.seed)
        for _ in range(1, cfg.num_restarts):
            U = _random_orthonormal(rng, l, ranks[0])
            V = U if shared else _random_orthonormal(rng, m, ranks[1])
            W = _random_orthonormal(rng, n, ranks[2])
            runs.append(_run(T, (U, V, W), ranks, cfg.max_iters, cfg.rel_tol, shared))
        size = _batch_size(T, ranks, p, shared)
        found = []
        for b in range(0, len(runs), size):
            found += _lockstep(T, runs[b : b + size])
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
    result, not fatal.  The slice stacks it builds on a sparse ``T`` are
    dropped when it returns or raises, and those ``T`` held before stay
    (:func:`_stacks_kept`); so a second call on the same tensor builds them
    again, unless the caller built them first.
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
    :func:`_sketch`.  The canonical stack that the check or the sweeps
    build on a sparse ``T`` is dropped when it returns or raises, as in
    :func:`hooi`.

    ``sketch`` recycles the start's range finder across a sequence of
    nearby operators, such as the residuals of an expansion.  It is a list
    that the solve leaves holding its sketch's final bases (U, V, W); when
    it already holds bases of the shapes (d_i, p_i), the sketch makes one
    sweep from them instead of two from the random draw.  Without it (the
    default) every solve draws afresh.
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
