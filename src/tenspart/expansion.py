"""Rank-(2,2,1) expansion of (1,2)-symmetric tensors.

Each expansion step computes a best rank-(2,2,1) approximation of the
current residual, turns it into a symmetric rank-2 matrix B, thresholds B
into a sparse nonnegative (or signed) B-hat, and deflates.  Deflation is
lazy: the residual is kept as the original tensor minus the accumulated
terms, so contractions stay sparse and there is no fill-in.

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
import scipy.sparse.linalg  # noqa: F401  (registers sp.linalg)

from .lowrank import RankApproximation, SolverConfig, hooi_symmetric
from .preprocess import LabelTable
from .sparse_tensor import SparseTensor3, is_12_symmetric

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
    modified.
    """

    base: SparseTensor3
    terms: list[tuple[np.ndarray, sp.csr_matrix]] = field(default_factory=list)

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

    def norm_squared(self) -> float:
        parts = [self.base.norm_squared()]
        for w, B in self.terms:
            parts.append(-2.0 * self._inner_base_term(w, B))
        for a, (wa, Ba) in enumerate(self.terms):
            for b, (wb, Bb) in enumerate(self.terms):
                parts.append(float(wa @ wb) * float(Ba.multiply(Bb).sum()))
        return math.fsum(parts)

    def norm(self) -> float:
        return math.sqrt(max(self.norm_squared(), 0.0))

    def _inner_base_term(self, w: np.ndarray, B: sp.spmatrix) -> float:
        T = self.base
        Bc = B.tocsr()
        bvals = np.asarray(Bc[T.i, T.j]).ravel()
        return math.fsum(T.vals * w[T.k] * bvals)

    def to_dense(self) -> np.ndarray:
        out = self.base.to_dense()
        for w, B in self.terms:
            out -= B.toarray()[:, :, None] * w[None, None, :]
        return out


def rank221_term(R, cfg: SolverConfig | None = None) -> RankApproximation:
    """Best rank-(2,2,1) approximation of a residual operator or tensor.

    The temporal vector is sign-fixed so its largest-|entry| component is
    positive; for planted nonnegative structure this makes w nonnegative.
    """
    return hooi_symmetric(R, (2, 2, 1), cfg)


def form_B(U: np.ndarray, core: np.ndarray) -> np.ndarray:
    """Symmetric rank-<=2 matrix B = U G U' from the 2x2 core slice G.

    ||B|| equals ||F|| because U has orthonormal columns.
    """
    G = np.asarray(core, dtype=float)
    if G.ndim == 3:
        G = G[:, :, 0]
    if G.shape != (2, 2) or U.shape[1] != 2:
        raise ValueError("form_B expects a mx2 factor and a 2x2 core slice")
    return U @ G @ U.T


def threshold_B(B: np.ndarray, theta: float, mode: str = "positive") -> sp.csr_matrix:
    """Sparsify B by cutting against its largest element.

    positive mode keeps b_ij > theta * max(B); absolute mode keeps
    |b_ij| > theta * max|B|.  With theta = 0 the absolute mode keeps every
    nonzero.  Symmetry is preserved by keeping an entry only when both
    (i, j) and (j, i) pass, which matters only for exact ties at the cut.
    """
    if not 0 <= theta < 1:
        raise ValueError("theta must satisfy 0 <= theta < 1")
    if mode not in ("positive", "absolute"):
        raise ValueError(f"unknown threshold mode {mode!r}")
    B = np.asarray(B, dtype=float)
    if mode == "positive":
        b_max = B.max() if B.size else 0.0
        scale = np.abs(B).max() if B.size else 0.0
        if b_max <= 1e-12 * scale:
            # no meaningful positive part; roundoff positives are not entries
            mask = np.zeros(B.shape, dtype=bool)
        else:
            mask = B > theta * b_max
    else:
        b_max = np.abs(B).max() if B.size else 0.0
        mask = np.abs(B) > theta * b_max
        if theta == 0.0:
            mask = B != 0
    mask &= mask.T
    kept = np.where(mask, B, 0.0)
    out = sp.csr_matrix(kept)
    out.eliminate_zeros()
    return out


def deflate(R: DeflatedOperator, w: np.ndarray, B_hat: sp.spmatrix) -> DeflatedOperator:
    """Append one rank-(2,2,1) term; the base tensor is untouched."""
    w = np.asarray(w, dtype=float).ravel()
    B_hat = B_hat.tocsr()
    R._check_term(w, B_hat)
    return DeflatedOperator(R.base, R.terms + [(w, B_hat)])


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
        B = form_B(approx.U, G)
        B_hat = threshold_B(B, theta, mode)
        evals = np.sort(np.linalg.eigvalsh(0.5 * (G + G.T)))[::-1]
        l1, l2 = float(evals[0]), float(evals[1])
        structured = l1 * l2 < 0 and abs(l1 + l2) <= structure_margin * abs(l1)
        norm_F = math.sqrt(float(np.sum(G * G)))
        terms.append(
            ExpansionTerm(
                U=approx.U,
                w=w,
                core=G,
                B_hat=B_hat,
                b_raw_max=float(B.max()),
                b_raw_min=float(B.min()),
                eigenvalues=(l1, l2),
                norm_B_hat=float(sp.linalg.norm(B_hat)) if B_hat.nnz else 0.0,
                norm_F=norm_F,
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
    edges = []
    support = set()
    for i, j, v in zip(coo.row, coo.col, coo.data):
        support.add(int(i))
        support.add(int(j))
        if i <= j:
            edges.append((labels[int(i)], labels[int(j)], float(v)))
    vertices = [labels[i] for i in sorted(support)]
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
