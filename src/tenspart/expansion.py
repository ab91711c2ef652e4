"""Rank-(2,2,1) expansion of (1,2)-symmetric tensors.

Each expansion step computes a best rank-(2,2,1) approximation of the
current residual, turns it into a symmetric rank-2 matrix B = U G U',
thresholds B into a sparse nonnegative (or signed) B-hat, and deflates.
B is thresholded from its factors in blocks and never formed densely, so
an expansion step holds O(block + nnz(B-hat)) memory, not O(m^2).  The
blocks cover only the pairs (i, j) whose bound |(U G)_i| |U_j| >= |b_ij|
can pass B's extremes or the cut, so a step takes O(m log m + pairs
passing the bound) time; that is O(m^2) only when the norms are all
equal, B has one sign, or theta = 0.
Deflation is lazy: the residual is kept as the original tensor minus the
accumulated terms, so contractions stay sparse and there is no fill-in,
and the residual norm is kept from cached per-term inner products.

The eigenvalue pair of the 2x2 core slice is the structure diagnostic: a
two-group pattern of the bipartite-block type shows up as eigenvalues of
opposite sign and nearly equal magnitude.
"""

from __future__ import annotations

import bisect
import json
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .lowrank import RankApproximation, SolverConfig, hooi_symmetric
from .preprocess import LabelTable
from .sparse_tensor import (
    _BLOCK_ENTRIES,
    SparseTensor3,
    _Contractions,
    _check_size,
    _find,
    _ldexp,
    _norm,
    _require_12_symmetric,
    _scaled_sum,
)

__all__ = [
    "ExpansionTerm",
    "DeflatedOperator",
    "rank221_term",
    "threshold_B",
    "deflate",
    "expand",
    "overlap_cosines",
    "subgraph_export",
    "save_expansion_report",
]

# |b_ij| <= |a_i| |x_j| * _BOUND_SLACK + _BOUND_FLOOR for the computed norms and
# b_ij: the slack covers their relative rounding (about 6 ulp), the floor
# the absolute rounding of products below the normal range
_BOUND_SLACK = 1 + 8 * np.finfo(float).eps
_BOUND_FLOOR = 4 * np.finfo(float).smallest_subnormal
# peak bytes per kept entry of B while thresholding: the kept rows, columns
# and values, their CSR matrix and its product with its transpose's pattern
# (tracemalloc: 78.4-78.7 at m = 3000 with 2.6M to 9M kept entries)
_KEPT_BYTES = 80
# largest |l1 + l2| / |l1| of a term flagged structured (see expand)
_STRUCTURE_MARGIN = 0.05


@dataclass
class ExpansionTerm:
    """One term of the expansion: thresholded matrix, temporal profile, core."""

    U: np.ndarray
    w: np.ndarray
    core: np.ndarray  # 2x2 core slice
    B_hat: sp.csr_matrix
    b_raw_max: float
    b_raw_min: float
    eigenvalues: tuple[float, float]  # lambda1 >= lambda2
    norm_B_hat: float
    norm_F: float
    structured: bool
    converged: bool


@dataclass
class DeflatedOperator(_Contractions):
    """Implicit residual  base - sum_v w^(v) x B_hat^(v)  (outer in mode 3).

    Has the solvers' protocol of a sparse tensor, ``half_product`` (the
    base's, plus each B_hat V) and ``reduce_half``, so the solvers run on
    it directly; the base tensor is never modified.
    ``terms`` is stored as a tuple with each B_hat in canonical CSR form (a
    user-supplied matrix with duplicate or unsorted entries is copied
    first).  ||R||^2 is cached as parts (s, e) standing for
    s * 2**e: a row [||base||^2], then per term t a row [-2<base, t>,
    2<a, t> for each earlier a, <t, t>].  Every sum behind a part (the
    base norm, the base-term products, and the w and B_hat Gram products)
    comes from :func:`_scaled_sum`, correctly rounded at exact power-of-two
    scales.  So :func:`deflate` adds O(q) sparse products for the new term
    only, and no part leaves the float range.  Reading a norm puts the
    parts on one scale and adds them with the exact ``math.fsum``.
    """

    base: SparseTensor3
    terms: tuple[tuple[np.ndarray, sp.csr_matrix], ...] = ()
    _parts: list[list] = field(default_factory=list, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.terms = tuple((w, _canonical_csr(B)) for w, B in self.terms)

    @property
    def dims(self):
        return self.base.dims

    @property
    def nnz(self) -> int:
        """Stored entries: the base tensor's and every B_hat's."""
        return self.base.nnz + sum(B.nnz for _, B in self.terms)

    def _check_term(self, w: np.ndarray, B_hat: sp.spmatrix):
        m = self.base.dims[0]
        n = self.base.dims[2]
        if B_hat.shape != (m, m):
            raise ValueError(f"B_hat shape {B_hat.shape} does not match extent {m}")
        if w.shape != (n,):
            raise ValueError(f"w length {w.shape} does not match extent {n}")

    # contraction interface --------------------------------------------------

    def half_product(self, V: np.ndarray, transposed: bool = False):
        """The base tensor's half product with V and each term's B_hat V (B_hat' V
        with ``transposed``, the same up to rounding for a symmetric B_hat)."""
        BV = tuple((B.T if transposed else B) @ V for _, B in self.terms)
        return self.base.half_product(V, transposed), BV

    def reduce_half(self, P, mode: int, X: np.ndarray, cols=slice(None)) -> np.ndarray:
        """The base reduction of P (as on a sparse tensor) less each term's part."""
        base_P, BV = P
        out = self.base.reduce_half(base_P, mode, X, cols)
        for (w, _), BVt in zip(self.terms, BV):
            BVt = np.ascontiguousarray(BVt[:, cols])
            if mode == 3:
                out -= np.einsum("k,pq->kpq", w, X.T @ BVt)
            else:
                out -= np.einsum("iq,r->iqr", BVt, X.T @ w)
        return out

    # norms ------------------------------------------------------------------

    def _fill_norm_cache(self) -> None:
        """Compute the squared-norm parts of the terms not cached yet."""
        if not self._parts:
            self._parts.append([_scaled_sum(self.base.vals, self.base.vals)])
        for t in range(len(self._parts) - 1, len(self.terms)):
            s, e = self._inner_base_term(*self.terms[t])
            row = [(-s, e + 1)]  # e + 1 doubles a part exactly
            row += [(s, e + 1) for s, e in (self._inner_terms(a, t) for a in range(t))]
            self._parts.append(row + [self._inner_terms(t, t)])

    def _inner_terms(self, a: int, b: int) -> tuple[float, int]:
        """<term a, term b> = <wa, wb> <Ba, Bb> as (s, e)."""
        (wa, Ba), (wb, Bb) = self.terms[a], self.terms[b]
        (sw, ew), (sb, eb) = _scaled_sum(wa, wb), _inner_B(Ba, Bb)
        (mw, xw), (mb, xb) = math.frexp(sw), math.frexp(sb)  # each s may be near 2**1000
        return mw * mb, xw + ew + xb + eb

    def _norm_squared_parts(self) -> tuple[float, int]:
        """||R||^2 as (s, e) with an even e and |s| <= the number of parts."""
        self._fill_norm_cache()
        parts = [math.frexp(s) + (e,) for row in self._parts for s, e in row]
        top = max((x + e for m, x, e in parts if m), default=0)
        top += top % 2
        return math.fsum(math.ldexp(m, x + e - top) for m, x, e in parts), top

    def norm_squared(self) -> float:
        """||R||^2; inf once that passes the float range, where :meth:`norm` does not."""
        return _ldexp(*self._norm_squared_parts())

    def norm(self) -> float:
        s, e = self._norm_squared_parts()
        return math.ldexp(math.sqrt(max(s, 0.0)), e // 2)

    def _inner_base_term(self, w: np.ndarray, B: sp.csr_matrix) -> tuple[float, int]:
        """<base, w x B> as (s, e), over the base entries that canonical B stores."""
        T = self.base
        m = B.shape[1]
        row_nnz = np.diff(B.indptr)
        in_cols = np.zeros(m, dtype=bool)
        in_cols[B.indices] = True
        # only base entries inside B's row and column support can be stored in B
        cand = np.flatnonzero((row_nnz > 0)[T.i] & in_cols[T.j])
        where, at = _find(_codes(B), T.i[cand] * m + T.j[cand])
        where = cand[where]
        return _scaled_sum(T.vals[where], w[T.k[where]], B.data[at])

    def to_dense(self) -> np.ndarray:
        l, m, n = self.dims
        _check_size("a dense residual", 2 * l * m * n + m * m)  # the result, a term, its B_hat
        out = self.base.to_dense()
        for w, B in self.terms:
            out -= B.toarray()[:, :, None] * w[None, None, :]
        return out


def _codes(B: sp.csr_matrix) -> np.ndarray:
    """Row-major codes row * m + column of the entries of a canonical CSR B; sorted."""
    rows = np.repeat(np.arange(B.shape[0], dtype=np.int64), np.diff(B.indptr))
    return rows * B.shape[1] + B.indices


def _inner_B(Ba: sp.csr_matrix, Bb: sp.csr_matrix) -> tuple[float, int]:
    """<Ba, Bb> of two canonical CSR matrices as (s, e), from :func:`_scaled_sum`."""
    where, at = _find(_codes(Ba), _codes(Bb))
    return _scaled_sum(Ba.data[at], Bb.data[where])


def _canonical_csr(B: sp.spmatrix) -> sp.csr_matrix:
    """CSR form of B with sorted indices and no duplicates (a copy if B had them)."""
    B = B.tocsr()
    if not B.has_canonical_format:
        B = B.copy()
        B.sum_duplicates()
    return B


def rank221_term(R, cfg: SolverConfig | None = None, *, sketch: list | None = None) -> RankApproximation:
    """Best rank-(2,2,1) approximation of a residual operator or tensor.

    The temporal vector is sign-fixed so its largest-|entry| component is
    positive; for planted nonnegative structure this makes w nonnegative.
    ``sketch`` recycles the start's range finder, as in
    :func:`tenspart.lowrank.hooi_symmetric`.
    """
    return hooi_symmetric(R, (2, 2, 1), cfg, sketch=sketch)


def _bounded_blocks(B, need):
    """Yield (rows, columns, block) of B = U G U' over the pairs whose bound reaches ``need()``.

    b_ij = a_i . x_j with a_i = (U G)_i and x_j = U_j, so |b_ij| <= |a_i| |x_j|.
    Rows and columns are taken in order of descending norm.  Each block
    takes the next rows whose bound with the largest column still reaches
    ``need()``, and the prefix of columns whose bound with the block's
    first (largest) row reaches it; ``need()`` is read before each block,
    and the scan stops at an empty prefix.  Each block has at most
    ``_BLOCK_ENTRIES`` entries (one row if the prefix is longer) and is
    computed as (U G)[rows] U[cols]', the formula of a full block scan.  A
    pair whose |b_ij| can reach ``need()`` is in some block: the bound is
    widened by ``_BOUND_SLACK`` and ``_BOUND_FLOOR`` to cover the rounding
    of the norms, of their product and of b_ij.
    """
    U, G = B
    A = U @ G
    row_norm, col_norm = np.hypot(A[:, 0], A[:, 1]), np.hypot(U[:, 0], U[:, 1])
    ro, co = np.argsort(-row_norm, kind="stable"), np.argsort(-col_norm, kind="stable")
    A, X, row_norm, col_norm = A[ro], U[co], row_norm[ro], col_norm[co]
    m = A.shape[0]

    def below(row, col):
        return row_norm[row] * _BOUND_SLACK * col_norm[col] + _BOUND_FLOOR < floor

    r = 0
    while r < m:
        floor = need()
        p = bisect.bisect_left(range(m), True, key=lambda j: below(r, j))
        if p == 0:
            return
        # no more rows than reach floor against the largest column
        stop = bisect.bisect_left(range(m), True, lo=r, key=lambda i: below(i, 0))
        stop = min(stop, r + max(1, _BLOCK_ENTRIES // p))
        yield ro[r:stop], co[:p], A[r:stop] @ X[:p].T
        r = stop


def _extremes(B) -> tuple[float, float]:
    """(max, min) over the entries of B = U G U', given as the pair (U, G).

    :func:`_bounded_blocks` scans the pairs that can pass the running
    extremes: need = min(max, -min), which is 0 while either has no sign yet.
    """
    ext = [-math.inf, math.inf]
    for _, _, blk in _bounded_blocks(B, lambda: max(0.0, min(ext[0], -ext[1]))):
        ext[0], ext[1] = max(ext[0], blk.max()), min(ext[1], blk.min())
    return (float(ext[0]), float(ext[1])) if ext[0] >= ext[1] else (0.0, 0.0)


def threshold_B(B, theta: float, mode: str = "positive") -> sp.csr_matrix:
    """Sparsify B by cutting against its largest element.

    positive mode keeps b_ij > theta * max(B); absolute mode keeps
    |b_ij| > theta * max|B|.  With theta = 0 the absolute mode keeps every
    nonzero.  Symmetry is preserved by keeping an entry only when both
    (i, j) and (j, i) pass, which matters only for exact ties at the cut.

    B is the pair (U, G) standing for U G U': an m x 2 factor and a 2x2
    core slice, with finite entries.  B is never formed: it is read in
    blocks, once for its extremes and once for the kept entries, and only
    where the bound |b_ij| <= |(U G)_i| |U_j| can pass the running extremes
    or the cut.  So the working memory is O(block + nnz(B-hat)), and the
    time O(m log m + pairs passing the bound); that is O(m^2) when the
    norms are all equal, when B has one sign (its extremes need every
    entry) or when theta = 0.  Once the kept entries found so far would not
    fit in physical memory (at ``_KEPT_BYTES`` each), a ``ValueError``
    names their count.  Anything but such a pair, and ``theta`` or ``mode``
    outside the values above, raise ``ValueError`` before B is read.
    """
    _check_cut(theta, mode)
    if not (isinstance(B, tuple) and len(B) == 2):
        raise ValueError("B must be a pair (U, G) of an mx2 factor and a 2x2 core slice")
    U, G = (np.asarray(x, dtype=float) for x in B)
    if U.ndim != 2 or U.shape[1] != 2 or G.shape != (2, 2):
        raise ValueError("B as a pair needs an mx2 factor and a 2x2 core slice")
    if not (np.isfinite(U).all() and np.isfinite(G).all()):
        raise ValueError("B's factors contain non-finite values")
    return _threshold(U, G, theta, mode)[0]


def _check_cut(theta: float, mode: str) -> None:
    """Refuse a cut fraction outside [0, 1), nan included, and an unknown threshold mode."""
    if not 0 <= theta < 1:
        raise ValueError(f"theta must satisfy 0 <= theta < 1, got {theta!r}")
    if mode not in ("positive", "absolute"):
        raise ValueError(f"unknown threshold mode {mode!r}")


def _threshold(U: np.ndarray, G: np.ndarray, theta: float, mode: str) -> tuple[sp.csr_matrix, float, float]:
    """(B-hat, max(B), min(B)) of B = U G U' as :func:`threshold_B` computes them, in its two passes.

    Trusts its caller: U (m x 2) and G (2 x 2) are finite floats and the cut passes :func:`_check_cut`.
    """
    B, m = (U, G), U.shape[0]
    b_max, b_min = _extremes(B)
    scale = max(b_max, -b_min)  # max|B|
    if m == 0 or (mode == "positive" and b_max <= 1e-12 * scale):
        # no meaningful positive part; roundoff positives are not entries
        return sp.csr_matrix((m, m)), b_max, b_min
    cut = theta * (b_max if mode == "positive" else scale)
    rows, cols, vals, kept = [], [], [], 0
    for ri, ci, blk in _bounded_blocks(B, lambda: cut):
        keep = blk > cut if mode == "positive" else np.abs(blk) > cut
        r, c = np.nonzero(keep)
        kept += r.size
        _check_size("thresholded B", kept, _KEPT_BYTES)
        rows.append(ri[r])
        cols.append(ci[c])
        vals.append(blk[keep])
    K = sp.csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(m, m))
    # keep (i, j) only when (j, i) passed too: K times its transpose's pattern
    return K.multiply(K.T.astype(bool)).tocsr(), b_max, b_min


def deflate(R: DeflatedOperator, w: np.ndarray, B_hat: sp.spmatrix) -> DeflatedOperator:
    """Append one rank-(2,2,1) term; the base tensor is untouched."""
    w = np.asarray(w, dtype=float).ravel()
    R._check_term(w, B_hat)
    out = DeflatedOperator(R.base, R.terms + ((w, B_hat),))
    out._parts = list(R._parts)  # R's cached norm parts are a prefix of the new operator's
    return out


def expand(
    T: SparseTensor3,
    q: int,
    theta: float,
    mode: str = "positive",
    cfg: SolverConfig | None = None,
):
    """Compute a q-term rank-(2,2,1) expansion of a (1,2)-symmetric tensor.

    Returns (terms, residual_norms) where residual_norms[v] is ||R^(v)||
    before term v is removed and residual_norms[q] is the final residual
    norm.  A term whose solve does not converge is flagged on the term,
    the solver's warning reaches the caller, and the expansion continues.
    ``theta`` and ``mode`` outside the values :func:`threshold_B` takes
    raise before the symmetry check and the first solve; an empty tensor
    raises in the first solve, as in :func:`hooi_symmetric`.

    Each term's B = U G U' is thresholded from the pair (U, G) as in
    :func:`threshold_B`.  A term is flagged ``structured`` when its core
    eigenvalues have opposite signs and |l1 + l2| <= 0.05 |l1|.

    Term 1 starts from the fixed-seed sketch of
    :func:`tenspart.lowrank.hosvd_init`.  Each later residual differs from
    the one before by a single known term, so its sketch recycles the
    previous term's oversampled bases and makes one sweep instead of two
    (subspace recycling for a randomized range finder).
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    _check_cut(theta, mode)
    _require_12_symmetric(T, "expansion needs a (1,2)-symmetric tensor")
    cfg = cfg or SolverConfig()

    R = DeflatedOperator(T)
    terms: list[ExpansionTerm] = []
    residual_norms = [R.norm()]
    sketch = []  # the last term's sketch bases
    for _ in range(q):
        approx = rank221_term(R, cfg, sketch=sketch)
        G = approx.core[:, :, 0]
        w = approx.W[:, 0].copy()
        B_hat, b_raw_max, b_raw_min = _threshold(approx.U, G, theta, mode)
        evals = np.sort(np.linalg.eigvalsh(0.5 * (G + G.T)))[::-1]
        l1, l2 = float(evals[0]), float(evals[1])
        structured = l1 > 0 > l2 and abs(l1 + l2) <= _STRUCTURE_MARGIN * abs(l1)
        terms.append(
            ExpansionTerm(
                U=approx.U,
                w=w,
                core=G,
                B_hat=B_hat,
                b_raw_max=b_raw_max,
                b_raw_min=b_raw_min,
                eigenvalues=(l1, l2),
                norm_B_hat=_norm(B_hat.data),
                norm_F=_norm(G),
                structured=structured,
                converged=approx.converged,
            )
        )
        if B_hat.nnz == 0:
            warnings.warn("thresholding removed every element of B; term is empty", stacklevel=2)
        R = deflate(R, w, B_hat)
        residual_norms.append(R.norm())
    return terms, residual_norms


def overlap_cosines(terms: list[ExpansionTerm]) -> np.ndarray:
    """Pairwise cosines <B_hat_a, B_hat_b> / (||B_hat_a|| ||B_hat_b||).

    Each inner product is a scaled sum (s, e) standing for s * 2**e, and
    the cosine is formed from the s parts with the exponents added apart,
    so it is the same at any power-of-two scale of the B_hat entries.
    """
    if not terms:
        raise ValueError("need at least one term")
    B = [_canonical_csr(t.B_hat) for t in terms]
    q = len(B)
    C = np.eye(q)
    sq = [_inner_B(x, x) for x in B]
    if any(s == 0 for s, _ in sq):
        raise ValueError("zero-norm term; cosines undefined")
    for a in range(q):
        for b in range(a + 1, q):
            s, e = _inner_B(B[a], B[b])
            (sa, ea), (sb, eb) = sq[a], sq[b]
            C[a, b] = C[b, a] = math.ldexp(s / (math.sqrt(sa) * math.sqrt(sb)), e - ea // 2 - eb // 2)
    return C


def subgraph_export(term: ExpansionTerm, labels: LabelTable):
    """Weighted undirected edge list of B_hat plus the labelled vertex set.

    Returns (edges, vertices) where edges are (label_i, label_j, weight)
    with i <= j, and vertices the labels of the induced support.  The
    temporal profile is available as ``term.w``.
    """
    coo = term.B_hat.tocoo()
    if len(labels) != term.B_hat.shape[0]:
        raise ValueError("labels must cover the mode extent")
    upper = coo.row <= coo.col
    edges = [
        (labels[i], labels[j], v)
        for i, j, v in zip(coo.row[upper].tolist(), coo.col[upper].tolist(), coo.data[upper].tolist())
    ]
    vertices = [labels[i] for i in np.union1d(coo.row, coo.col).tolist()]
    return edges, vertices


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def save_expansion_report(
    terms: list[ExpansionTerm],
    residual_norms: list[float],
    outdir,
    labels: LabelTable | None = None,
) -> dict:
    """Write the JSON diagnostics plus per-term edge lists and w CSVs."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    if labels is None and terms:
        labels = LabelTable.default(terms[0].B_hat.shape[0])

    report = {
        "num_terms": len(terms),
        "residual_norms": residual_norms,
        "terms": [],
    }
    nonzero = [t for t in terms if t.norm_B_hat > 0]
    if len(nonzero) == len(terms) and terms:
        report["overlap_cosines"] = overlap_cosines(terms).tolist()
    for v, term in enumerate(terms, start=1):
        report["terms"].append(
            {
                "norm_B_hat": term.norm_B_hat,
                "norm_F": term.norm_F,
                "b_raw_max": term.b_raw_max,
                "b_raw_min": term.b_raw_min,
                "eigenvalues": list(term.eigenvalues),
                "structured": term.structured,
                "converged": term.converged,
                "nnz_B_hat": int(term.B_hat.nnz),
            }
        )
        edges, _ = subgraph_export(term, labels)
        with open(outdir / f"expansion_term{v}_edges.txt", "w", encoding="utf-8") as fh:
            for a, b, wt in edges:
                fh.write(f"{a} {b} {wt!r}\n")
        with open(outdir / f"expansion_term{v}_w.csv", "w", encoding="utf-8") as fh:
            fh.write("slice_index,value\n")
            for idx, val in enumerate(term.w):
                fh.write(f"{idx},{float(val)!r}\n")
    with open(outdir / "expansion_report.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
    return report
