"""Rank-(2,2,1) expansion of (1,2)-symmetric tensors.

Each expansion step computes a best rank-(2,2,1) approximation of the
current residual, turns it into a symmetric rank-2 matrix B = U G U',
thresholds B into a sparse nonnegative (or signed) B-hat, and deflates.
B is thresholded from its factors in row blocks and never formed densely,
so an expansion step holds O(block + nnz(B-hat)) memory, not O(m^2).
Deflation is lazy: the residual is kept as the original tensor minus the
accumulated terms, so contractions stay sparse and there is no fill-in,
and the residual norm is kept from cached per-term inner products.

The eigenvalue pair of the 2x2 core slice is the structure diagnostic: a
two-group pattern of the bipartite-block type shows up as eigenvalues of
opposite sign and nearly equal magnitude.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .lowrank import RankApproximation, SolverConfig, _exponent, _frobenius, hooi_symmetric
from .preprocess import LabelTable
from .sparse_tensor import SparseTensor3, _exact_sum, is_12_symmetric

__all__ = [
    "ExpansionTerm",
    "DeflatedOperator",
    "rank221_term",
    "form_B",
    "threshold_B",
    "deflate",
    "expand",
    "overlap_cosines",
    "subgraph_export",
    "save_expansion_report",
]

# entries of B computed at once while thresholding (2 MB of float64)
_BLOCK_ENTRIES = 1 << 18


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

    @property
    def lambda_sum_ratio(self) -> float:
        l1, l2 = self.eigenvalues
        return abs(l1 + l2) / abs(l1) if l1 != 0 else float("inf")


@dataclass
class DeflatedOperator:
    """Implicit residual  base - sum_v w^(v) x B_hat^(v)  (outer in mode 3).

    Supports the same contraction interface as a sparse tensor, so the
    symmetric solver runs on it directly; the base tensor is never
    modified.  ``terms`` is stored as a tuple with each B_hat in canonical
    CSR form (a user-supplied matrix with duplicate or unsorted entries is
    copied first).  The parts of the squared norm are cached per term, so
    :func:`deflate` adds O(q) sparse products for the new term only.  They
    are kept at the exact scale 4**-e, where 2**e bounds every |entry| of
    the base and of each term; a term that raises the bound rescales the
    cached parts.  Each inner product scales every factor by its own power
    of two first, so the parts stay finite for entries anywhere in the
    float range and equal the unscaled parts times 4**-e bit for bit
    wherever those are finite and no scaled factor is subnormal.
    """

    base: SparseTensor3
    terms: tuple[tuple[np.ndarray, sp.csr_matrix], ...] = ()
    # squared-norm parts times 4**-_exp: ||base||^2, -2<base, term a>, and
    # <term a, term b>; 2**_exp bounds every entry of the base and the terms
    _exp: int = field(default=0, init=False, repr=False, compare=False)
    _base_sq: float | None = field(default=None, init=False, repr=False, compare=False)
    _cross: list[float] = field(default_factory=list, init=False, repr=False, compare=False)
    _gram: list[list[float]] = field(default_factory=list, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.terms = tuple((w, _canonical_csr(B)) for w, B in self.terms)

    @property
    def dims(self):
        return self.base.dims

    def _check_term(self, w: np.ndarray, B_hat: sp.spmatrix):
        m = self.base.dims[0]
        n = self.base.dims[2]
        if B_hat.shape != (m, m):
            raise ValueError(f"B_hat shape {B_hat.shape} does not match extent {m}")
        if w.shape != (n,):
            raise ValueError(f"w length {w.shape} does not match extent {n}")

    # contraction interface --------------------------------------------------

    def contract_modes23(self, V: np.ndarray, W: np.ndarray) -> np.ndarray:
        out = self.base.contract_modes23(V, W)
        for w, B in self.terms:
            out -= np.einsum("iq,r->iqr", B @ V, W.T @ w)
        return out

    def contract_modes13(self, U: np.ndarray, W: np.ndarray) -> np.ndarray:
        out = self.base.contract_modes13(U, W)
        for w, B in self.terms:
            out -= np.einsum("jp,r->jpr", B.T @ U, W.T @ w)
        return out

    def contract_modes12(self, U: np.ndarray, V: np.ndarray) -> np.ndarray:
        out = self.base.contract_modes12(U, V)
        for w, B in self.terms:
            out -= np.einsum("k,pq->kpq", w, U.T @ (B @ V))
        return out

    # norms ------------------------------------------------------------------

    def _fill_norm_cache(self) -> None:
        """Compute the squared-norm parts of the terms not cached yet."""
        if self._base_sq is None:
            self._exp = _exponent(self.base.vals)
            v = np.ldexp(self.base.vals, -self._exp)
            v *= v
            self._base_sq = _exact_sum(v)
        for t in range(len(self._cross), len(self.terms)):
            w, B = self.terms[t]
            if w.any() and B.data.any():  # a zero term must not raise the scale
                self._raise_scale(_exponent(w) + _exponent(B.data))
            self._cross.append(-2.0 * self._inner_base_term(w, B))
            for a in range(t):
                self._gram[a].append(self._inner_terms(a, t))
            self._gram.append([self._inner_terms(t, b) for b in range(t + 1)])

    def _raise_scale(self, e: int) -> None:
        """Move the cached parts to the scale 4**-e if e exceeds ``_exp`` (exact
        but for parts that become subnormal, at most 2**-1022 of the largest)."""
        if e <= self._exp:
            return
        shift = 2 * (self._exp - e)
        self._base_sq = math.ldexp(self._base_sq, shift)
        self._cross = [math.ldexp(c, shift) for c in self._cross]
        self._gram = [[math.ldexp(g, shift) for g in row] for row in self._gram]
        self._exp = e

    def _inner_terms(self, a: int, b: int) -> float:
        """<term a, term b> times 4**-_exp."""
        (wa, Ba), (wb, Bb) = self.terms[a], self.terms[b]
        ea, eb = _exponent(wa), _exponent(wb)
        fa, fb = _exponent(Ba.data), _exponent(Bb.data)
        w_dot = float(np.ldexp(wa, -ea) @ np.ldexp(wb, -eb))
        B_dot = float(_scaled(Ba, -fa).multiply(_scaled(Bb, -fb)).sum())
        return math.ldexp(w_dot * B_dot, ea + eb + fa + fb - 2 * self._exp)

    def _scaled_norm_squared(self) -> float:
        self._fill_norm_cache()
        return math.fsum([self._base_sq, *self._cross, *(g for row in self._gram for g in row)])

    def norm_squared(self) -> float:
        """||R||^2; inf once that passes the float range, where :meth:`norm` does not."""
        sq = self._scaled_norm_squared()
        try:
            return math.ldexp(sq, 2 * self._exp)
        except OverflowError:
            return math.copysign(math.inf, sq)

    def norm(self) -> float:
        return math.ldexp(math.sqrt(max(self._scaled_norm_squared(), 0.0)), self._exp)

    def _inner_base_term(self, w: np.ndarray, B: sp.csr_matrix) -> float:
        """<base, w x B> times 4**-_exp, over the base entries that canonical B stores."""
        T = self.base
        m = B.shape[1]
        row_nnz = np.diff(B.indptr)
        in_cols = np.zeros(m, dtype=bool)
        in_cols[B.indices] = True
        # only base entries inside B's row and column support can be stored in B
        cand = np.flatnonzero((row_nnz > 0)[T.i] & in_cols[T.j])
        b_codes = np.repeat(np.arange(B.shape[0], dtype=np.int64), row_nnz) * m + B.indices
        where, at = _find(b_codes, T.i[cand] * m + T.j[cand])
        where = cand[where]
        factors = (T.vals[where], w[T.k[where]], B.data[at])
        exps = [_exponent(f) for f in factors]
        v, x, b = (np.ldexp(f, -e) for f, e in zip(factors, exps))
        return math.ldexp(_exact_sum(v * x * b), sum(exps) - 2 * self._exp)

    def to_dense(self) -> np.ndarray:
        out = self.base.to_dense()
        for w, B in self.terms:
            out -= B.toarray()[:, :, None] * w[None, None, :]
        return out


def _scaled(B: sp.csr_matrix, e: int) -> sp.csr_matrix:
    """B times 2**e, exactly (a power-of-two scale)."""
    return sp.csr_matrix((np.ldexp(B.data, e), B.indices, B.indptr), shape=B.shape)


def _find(sorted_codes: np.ndarray, codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(where, at) with codes[where] == sorted_codes[at], over the codes present."""
    if not sorted_codes.size:
        return np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp)
    at = np.searchsorted(sorted_codes, codes)
    np.minimum(at, sorted_codes.size - 1, out=at)
    where = np.flatnonzero(sorted_codes[at] == codes)
    return where, at[where]


def _norm_of_data(data: np.ndarray) -> float:
    """``np.linalg.norm(data)`` (scipy's sparse Frobenius norm), summed at an exact
    power-of-two scale: the same bits, and finite near the top of the float range."""
    e = _exponent(data)
    return math.ldexp(float(np.linalg.norm(np.ldexp(data, -e))), e)


def _canonical_csr(B: sp.spmatrix) -> sp.csr_matrix:
    """CSR form of B with sorted indices and no duplicates (a copy if B had them)."""
    B = B.tocsr()
    if not B.has_canonical_format:
        B = B.copy()
        B.sum_duplicates()
    return B


def rank221_term(R, cfg: SolverConfig | None = None) -> RankApproximation:
    """Best rank-(2,2,1) approximation of a residual operator or tensor.

    The temporal vector is sign-fixed so its largest-|entry| component is
    positive; for planted nonnegative structure this makes w nonnegative.
    """
    return hooi_symmetric(R, (2, 2, 1), cfg)


def form_B(U: np.ndarray, core: np.ndarray) -> np.ndarray:
    """Dense symmetric rank-<=2 matrix B = U G U' from the 2x2 core slice G.

    ||B|| equals ||F|| because U has orthonormal columns.  This builds all
    m^2 entries (O(m^2) time and memory); :func:`expand` never calls it but
    thresholds the pair (U, G) in row blocks instead.  It is kept as the
    dense oracle for that path.
    """
    G = np.asarray(core, dtype=float)
    if G.ndim == 3:
        G = G[:, :, 0]
    if G.shape != (2, 2) or U.shape[1] != 2:
        raise ValueError("form_B expects a mx2 factor and a 2x2 core slice")
    return U @ G @ U.T


def _row_blocks(B):
    """Yield (first row, rows) blocks of B, about ``_BLOCK_ENTRIES`` entries each.

    B is a dense square matrix, or a pair (U, G) standing for U G U', whose
    blocks are computed as (U G)[a:b] U' without forming the whole matrix.
    """
    factored = isinstance(B, tuple)
    if factored:
        U, G = B
        UG = U @ G
    m = U.shape[0] if factored else B.shape[0]
    step = max(1, _BLOCK_ENTRIES // max(m, 1))
    for a in range(0, m, step):
        yield a, UG[a : a + step] @ U.T if factored else B[a : a + step]


def _extremes(B) -> tuple[float, float]:
    """(max, min) over the entries of B, read through :func:`_row_blocks`."""
    his, los = [], []
    for _, blk in _row_blocks(B):
        his.append(blk.max())
        los.append(blk.min())
    return (float(np.max(his)), float(np.min(los))) if his else (0.0, 0.0)


def threshold_B(B, theta: float, mode: str = "positive") -> sp.csr_matrix:
    """Sparsify B by cutting against its largest element.

    positive mode keeps b_ij > theta * max(B); absolute mode keeps
    |b_ij| > theta * max|B|.  With theta = 0 the absolute mode keeps every
    nonzero.  Symmetry is preserved by keeping an entry only when both
    (i, j) and (j, i) pass, which matters only for exact ties at the cut.

    B is a dense square matrix or a pair (U, G) standing for U G U' (an
    m x 2 factor and a 2x2 core slice).  Either way B is read in row blocks,
    once for its extremes and once for the kept entries, so the working
    memory is O(block + nnz(B-hat)) and no m x m temporary is allocated.
    """
    if not 0 <= theta < 1:
        raise ValueError("theta must satisfy 0 <= theta < 1")
    if mode not in ("positive", "absolute"):
        raise ValueError(f"unknown threshold mode {mode!r}")
    if isinstance(B, tuple):
        U, G = (np.asarray(x, dtype=float) for x in B)
        if U.ndim != 2 or U.shape[1] != 2 or G.shape != (2, 2):
            raise ValueError("B as a pair needs an mx2 factor and a 2x2 core slice")
        B, m = (U, G), U.shape[0]
    else:
        B = np.asarray(B, dtype=float)
        if B.ndim != 2 or B.shape[0] != B.shape[1]:
            raise ValueError(f"B must be a square matrix, got shape {B.shape}")
        m = B.shape[0]
    b_max, b_min = _extremes(B)
    scale = max(b_max, -b_min)  # max|B|
    if m == 0 or (mode == "positive" and b_max <= 1e-12 * scale):
        # no meaningful positive part; roundoff positives are not entries
        return sp.csr_matrix((m, m))
    rows, cols, vals = [], [], []
    for a, blk in _row_blocks(B):
        if mode == "positive":
            r, c = np.nonzero(blk > theta * b_max)
        elif theta == 0.0:
            r, c = np.nonzero(blk)
        else:
            r, c = np.nonzero(np.abs(blk) > theta * scale)
        rows.append(r + a)
        cols.append(c)
        vals.append(blk[r, c])
    i, j, v = (np.concatenate(x) for x in (rows, cols, vals))
    # row-major codes are sorted; keep (i, j) only when (j, i) passed too
    both, _ = _find(i * m + j, j * m + i)
    i, j, v = i[both], j[both], v[both]
    indptr = np.concatenate(([0], np.cumsum(np.bincount(i, minlength=m))))
    return sp.csr_matrix((v, j, indptr), shape=(m, m))


def deflate(R: DeflatedOperator, w: np.ndarray, B_hat: sp.spmatrix) -> DeflatedOperator:
    """Append one rank-(2,2,1) term; the base tensor is untouched."""
    w = np.asarray(w, dtype=float).ravel()
    R._check_term(w, B_hat)
    out = DeflatedOperator(R.base, R.terms + ((w, B_hat),))
    # R's cached norm parts are a prefix of the new operator's
    out._exp, out._base_sq = R._exp, R._base_sq
    out._cross, out._gram = list(R._cross), [row[:] for row in R._gram]
    return out


def expand(
    T: SparseTensor3,
    q: int,
    theta: float,
    mode: str = "positive",
    cfg: SolverConfig | None = None,
    structure_margin: float = 0.05,
):
    """Compute a q-term rank-(2,2,1) expansion of a (1,2)-symmetric tensor.

    Returns (terms, residual_norms) where residual_norms[v] is ||R^(v)||
    before term v is removed and residual_norms[q] is the final residual
    norm.  Solver failures on individual terms are flagged on the term and
    the expansion continues.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    if not is_12_symmetric(T, tol=1e-12):
        raise ValueError("expansion needs a (1,2)-symmetric tensor")
    cfg = cfg or SolverConfig()

    R = DeflatedOperator(T)
    terms: list[ExpansionTerm] = []
    residual_norms = [R.norm()]
    for _ in range(q):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            approx = rank221_term(R, cfg)
        G = approx.core[:, :, 0]
        w = approx.W[:, 0].copy()
        b_raw_max, b_raw_min = _extremes((approx.U, G))
        B_hat = threshold_B((approx.U, G), theta, mode)
        evals = np.sort(np.linalg.eigvalsh(0.5 * (G + G.T)))[::-1]
        l1, l2 = float(evals[0]), float(evals[1])
        structured = l1 * l2 < 0 and abs(l1 + l2) <= structure_margin * abs(l1)
        terms.append(
            ExpansionTerm(
                U=approx.U,
                w=w,
                core=G,
                B_hat=B_hat,
                b_raw_max=b_raw_max,
                b_raw_min=b_raw_min,
                eigenvalues=(l1, l2),
                norm_B_hat=_norm_of_data(B_hat.data),
                norm_F=_frobenius(G),
                structured=structured,
                converged=approx.converged,
            )
        )
        if B_hat.nnz == 0:
            warnings.warn("thresholding removed every element of B; term is empty")
        R = deflate(R, w, B_hat)
        residual_norms.append(R.norm())
    return terms, residual_norms


def overlap_cosines(terms: list[ExpansionTerm]) -> np.ndarray:
    """Pairwise cosines <B_hat_a, B_hat_b> / (||B_hat_a|| ||B_hat_b||)."""
    if not terms:
        raise ValueError("need at least one term")
    q = len(terms)
    C = np.eye(q)
    norms = [t.norm_B_hat for t in terms]
    if any(n == 0 for n in norms):
        raise ValueError("zero-norm term; cosines undefined")
    for a in range(q):
        for b in range(a + 1, q):
            dot = float(terms[a].B_hat.multiply(terms[b].B_hat).sum())
            C[a, b] = C[b, a] = dot / (norms[a] * norms[b])
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
    prefix: str = "expansion",
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
        with open(outdir / f"{prefix}_term{v}_edges.txt", "w", encoding="utf-8") as fh:
            for a, b, wt in edges:
                fh.write(f"{a} {b} {wt!r}\n")
        with open(outdir / f"{prefix}_term{v}_w.csv", "w", encoding="utf-8") as fh:
            fh.write("slice_index,value\n")
            for idx, val in enumerate(term.w):
                fh.write(f"{idx},{float(val)!r}\n")
    with open(outdir / f"{prefix}_report.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
    return report
