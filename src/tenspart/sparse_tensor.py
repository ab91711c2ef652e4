"""Sparse 3-mode tensor in coordinate format and the multilinear primitives.

The central object is :class:`SparseTensor3`, a real tensor of order three
stored as coordinate (COO) triples.  Entries are kept in canonical
lexicographic order by (slice, row, column), i.e. by (k, i, j), so that the
3-slices are contiguous runs; all slice-wise workloads (normalization,
per-slice adjacency) iterate over these runs.  Tensors are immutable after
construction: every operation returns a new tensor or a dense array.

Dense factor matrices, vectors and small core tensors are plain numpy
arrays.  Contractions that shrink a mode (multiplication by a matrix with
few rows) always produce dense arrays, since in the intended workloads the
small side is never larger than a handful of columns.

Inner products and Frobenius norms are accumulated with ``math.fsum``,
which is correctly rounded and therefore independent of summation order.
This makes the norm exactly invariant under entry reordering.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np
import scipy.sparse as sp

__all__ = [
    "SparseTensor3",
    "mode_multiply",
    "multi_multiply",
    "inner",
    "frobenius_norm",
    "is_12_symmetric",
    "symmetric_embed",
    "permute_mode",
    "subtensor",
]


class TensorShapeError(ValueError):
    """Raised on dimension mismatches between tensors, matrices or vectors."""


def _check_matrix(M: np.ndarray, name: str = "matrix") -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim != 2:
        raise TensorShapeError(f"{name} must be 2-dimensional, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise ValueError(f"{name} contains non-finite values")
    return M


class SparseTensor3:
    """Coordinate-format sparse real 3-tensor.

    Parameters
    ----------
    dims:
        Extents (l, m, n), all positive.
    i, j, k:
        Integer index arrays (0-based), one triple per entry.
    vals:
        Entry values.  Duplicated (i, j, k) triples are summed, explicit
        zeros are dropped, and the result is sorted into canonical
        (k, i, j) order.
    """

    __slots__ = ("dims", "i", "j", "k", "vals", "_unfold_cache")

    def __init__(self, dims, i=(), j=(), k=(), vals=()):
        dims = tuple(int(d) for d in dims)
        if len(dims) != 3 or any(d <= 0 for d in dims):
            raise TensorShapeError(f"dims must be three positive extents, got {dims}")
        i = np.asarray(i, dtype=np.int64).ravel()
        j = np.asarray(j, dtype=np.int64).ravel()
        k = np.asarray(k, dtype=np.int64).ravel()
        vals = np.asarray(vals, dtype=float).ravel()
        if not (len(i) == len(j) == len(k) == len(vals)):
            raise TensorShapeError("index and value arrays must have equal length")
        if not np.all(np.isfinite(vals)):
            raise ValueError("tensor values must be finite")
        for idx, extent, name in ((i, dims[0], "i"), (j, dims[1], "j"), (k, dims[2], "k")):
            if idx.size and (idx.min() < 0 or idx.max() >= extent):
                raise IndexError(f"index {name} out of range for extent {extent}")

        l, m, _ = dims
        lin = (k * l + i) * m + j  # strictly increasing along canonical (k, i, j) order
        order = np.argsort(lin, kind="stable")
        lin, vals = lin[order], vals[order]
        # sum duplicates, then drop explicit zeros
        uniq, start = np.unique(lin, return_index=True)
        summed = np.add.reduceat(vals, start) if vals.size else vals
        keep = summed != 0.0
        uniq, summed = uniq[keep], summed[keep]

        self.dims = dims
        self.k, rem = np.divmod(uniq, l * m)
        self.i, self.j = np.divmod(rem, m)
        self.vals = summed
        self._unfold_cache: dict[int, sp.csr_matrix] = {}

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_entries(cls, dims, entries: Iterable[tuple[int, int, int, float]]) -> "SparseTensor3":
        ent = list(entries)
        if not ent:
            return cls(dims)
        i, j, k, v = zip(*ent)
        return cls(dims, i, j, k, v)

    @classmethod
    def from_dense(cls, array: np.ndarray, tol: float = 0.0) -> "SparseTensor3":
        array = np.asarray(array, dtype=float)
        if array.ndim != 3:
            raise TensorShapeError("from_dense expects a 3-dimensional array")
        i, j, k = np.nonzero(np.abs(array) > tol)
        return cls(array.shape, i, j, k, array[i, j, k])

    # -- basic protocol -------------------------------------------------------

    @property
    def nnz(self) -> int:
        return self.vals.size

    def entries(self):
        """Iterate (i, j, k, value) in canonical order."""
        return zip(self.i.tolist(), self.j.tolist(), self.k.tolist(), self.vals.tolist())

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.dims)
        out[self.i, self.j, self.k] = self.vals
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseTensor3):
            return NotImplemented
        return (
            self.dims == other.dims
            and np.array_equal(self.i, other.i)
            and np.array_equal(self.j, other.j)
            and np.array_equal(self.k, other.k)
            and np.array_equal(self.vals, other.vals)
        )

    def __hash__(self):
        return hash((self.dims, self.nnz))

    def __repr__(self) -> str:
        return f"SparseTensor3(dims={self.dims}, nnz={self.nnz})"

    # -- slice access ---------------------------------------------------------

    def slice_runs(self):
        """Yield (k, slice-of-entry-range) for each nonempty 3-slice.

        Relies on the canonical (k, i, j) order: each 3-slice is one
        contiguous run of the entry arrays.
        """
        if self.nnz == 0:
            return
        bounds = np.flatnonzero(np.diff(self.k)) + 1
        starts = np.concatenate(([0], bounds))
        stops = np.concatenate((bounds, [self.nnz]))
        for s, t in zip(starts, stops):
            yield int(self.k[s]), slice(int(s), int(t))

    def slice_csr(self, run: slice) -> sp.csr_matrix:
        """The 3-slice covered by ``run`` as an (l x m) CSR matrix."""
        l, m, _ = self.dims
        return sp.csr_matrix(
            (self.vals[run], (self.i[run], self.j[run])), shape=(l, m)
        )

    # -- unfoldings -----------------------------------------------------------

    def unfolding(self, mode: int) -> sp.csr_matrix:
        """Sparse unfolding along ``mode`` (1, 2 or 3), cached.

        Column layouts: mode 1 -> j*n + k, mode 2 -> i*n + k, mode 3 -> i*m + j.
        """
        if mode not in self._unfold_cache:
            l, m, n = self.dims
            if mode == 1:
                rows, cols, shape = self.i, self.j * n + self.k, (l, m * n)
            elif mode == 2:
                rows, cols, shape = self.j, self.i * n + self.k, (m, l * n)
            elif mode == 3:
                rows, cols, shape = self.k, self.i * m + self.j, (n, l * m)
            else:
                raise ValueError(f"mode must be 1, 2 or 3, got {mode}")
            self._unfold_cache[mode] = sp.csr_matrix(
                (self.vals, (rows, cols)), shape=shape
            )
        return self._unfold_cache[mode]

    # -- contraction shorthands used by the solvers ---------------------------

    def contract_modes23(self, V: np.ndarray, W: np.ndarray) -> np.ndarray:
        """c[i, q, r] = sum_jk a_ijk V[j, q] W[k, r]; shape (l, r2, r3)."""
        tmp = mode_multiply(self, V.T, 2)  # (l, r2, n)
        return np.einsum("iqk,kr->iqr", tmp, W)

    def contract_modes13(self, U: np.ndarray, W: np.ndarray) -> np.ndarray:
        """c[j, p, r] = sum_ik a_ijk U[i, p] W[k, r]; shape (m, r1, r3)."""
        tmp = mode_multiply(self, U.T, 1)  # (r1, m, n)
        return np.einsum("pjk,kr->jpr", tmp, W)

    def contract_modes12(self, U: np.ndarray, V: np.ndarray) -> np.ndarray:
        """c[k, p, q] = sum_ij a_ijk U[i, p] V[j, q]; shape (n, r1, r2)."""
        tmp = mode_multiply(self, U.T, 1)  # (r1, m, n)
        return np.einsum("pjk,jq->kpq", tmp, V)

    def norm_squared(self) -> float:
        return math.fsum(self.vals * self.vals)

    def norm(self) -> float:
        return math.sqrt(self.norm_squared())


# ---------------------------------------------------------------------------
# free-function operations
# ---------------------------------------------------------------------------


def mode_multiply(T: SparseTensor3, M: np.ndarray, mode: int) -> np.ndarray:
    """Multiply all mode-``mode`` fibers of ``T`` by the matrix ``M``.

    For mode 1, b_ijk = sum_a M[i, a] * T[a, j, k]; modes 2 and 3 are
    analogous.  ``M.shape[1]`` must equal the extent of ``T`` in ``mode``.
    Returns a dense array with the extent in ``mode`` replaced by
    ``M.shape[0]``.
    """
    M = _check_matrix(M, "M")
    l, m, n = T.dims
    extent = (l, m, n)[mode - 1]
    if M.shape[1] != extent:
        raise TensorShapeError(
            f"M has {M.shape[1]} columns but mode-{mode} extent is {extent}"
        )
    flat = M @ T.unfolding(mode)
    flat = np.asarray(flat)
    p = M.shape[0]
    if mode == 1:
        return flat.reshape(p, m, n)
    if mode == 2:
        return flat.reshape(p, l, n).transpose(1, 0, 2)
    return flat.reshape(p, l, m).transpose(1, 2, 0)


def multi_multiply(T: SparseTensor3, X: np.ndarray, Y: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """All-modes contraction b_pqr = sum_ijk a_ijk X[i,p] Y[j,q] Z[k,r].

    This is the transposed-multiplication form used by the approximation
    objective: the result has shape (X.cols, Y.cols, Z.cols) and equals
    sequential single-mode contractions in any order.
    """
    X, Y, Z = (_check_matrix(A, nm) for A, nm in ((X, "X"), (Y, "Y"), (Z, "Z")))
    l, m, n = T.dims
    if X.shape[0] != l or Y.shape[0] != m or Z.shape[0] != n:
        raise TensorShapeError(
            f"factor row counts {(X.shape[0], Y.shape[0], Z.shape[0])} "
            f"do not match tensor dims {T.dims}"
        )
    tmp = mode_multiply(T, X.T, 1)  # (p, m, n)
    return np.einsum("pjk,jq,kr->pqr", tmp, Y, Z)


def inner(A, B) -> float:
    """Inner product <A, B> = sum over all elements of a_xyz * b_xyz.

    Accepts sparse tensors and dense 3-arrays in any combination.  The
    accumulation uses ``math.fsum`` and is therefore deterministic and
    independent of entry order.
    """
    a_sparse = isinstance(A, SparseTensor3)
    b_sparse = isinstance(B, SparseTensor3)
    dims_a = A.dims if a_sparse else np.asarray(A).shape
    dims_b = B.dims if b_sparse else np.asarray(B).shape
    if tuple(dims_a) != tuple(dims_b):
        raise TensorShapeError(f"shape mismatch: {dims_a} vs {dims_b}")

    if a_sparse and b_sparse:
        l, m, _ = A.dims
        lin_a = (A.k * l + A.i) * m + A.j
        lin_b = (B.k * l + B.i) * m + B.j
        _, ia, ib = np.intersect1d(lin_a, lin_b, assume_unique=True, return_indices=True)
        return math.fsum(A.vals[ia] * B.vals[ib])
    if a_sparse:
        B = np.asarray(B, dtype=float)
        return math.fsum(A.vals * B[A.i, A.j, A.k])
    if b_sparse:
        return inner(B, A)
    prod = np.asarray(A, dtype=float) * np.asarray(B, dtype=float)
    return math.fsum(prod.ravel())


def frobenius_norm(A) -> float:
    """sqrt(<A, A>); zero iff the tensor has no stored entries."""
    if isinstance(A, SparseTensor3):
        return A.norm()
    A = np.asarray(A, dtype=float)
    return math.sqrt(math.fsum((A * A).ravel()))


def is_12_symmetric(T: SparseTensor3, tol: float = 0.0) -> bool:
    """True iff every 3-slice is symmetric: |a_ijk - a_jik| <= tol.

    Missing entries count as zero; requires equal mode-1/2 extents.
    """
    l, m, _ = T.dims
    if l != m:
        return False
    lin = (T.k * l + T.i) * m + T.j
    lin_t = (T.k * l + T.j) * m + T.i
    order = np.argsort(lin_t, kind="stable")
    lin_t, vals_t = lin_t[order], T.vals[order]
    # values at positions present in both / only one of the patterns
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


def symmetric_embed(T: SparseTensor3) -> SparseTensor3:
    """Embed T into the (1,2)-symmetric block tensor [[0, T], [T', 0]].

    The 3-slices of T' are the transposes of the corresponding slices of T.
    A tensor of dims (l, m, n) becomes (l+m, l+m, n).
    """
    l, m, n = T.dims
    i = np.concatenate((T.i, T.j + l))
    j = np.concatenate((T.j + l, T.i))
    k = np.concatenate((T.k, T.k))
    v = np.concatenate((T.vals, T.vals))
    return SparseTensor3((l + m, l + m, n), i, j, k, v)


def _check_permutation(perm: Sequence[int], extent: int) -> np.ndarray:
    perm = np.asarray(perm, dtype=np.int64).ravel()
    if perm.size != extent or not np.array_equal(np.sort(perm), np.arange(extent)):
        raise ValueError(f"perm is not a bijection on range({extent})")
    return perm


def permute_mode(T: SparseTensor3, perm: Sequence[int], mode: int) -> SparseTensor3:
    """Reorder one mode of the tensor: result[..., p, ...] = T[..., perm[p], ...].

    ``perm`` uses the gather convention also produced by ``argsort``, so
    applying the permutation returned by monotone reordering moves the
    corresponding rows/columns/slices of the tensor in lockstep with the
    reordered factor columns.
    """
    extent = T.dims[mode - 1]
    perm = _check_permutation(perm, extent)
    inv = np.empty_like(perm)
    inv[perm] = np.arange(extent)
    idx = [T.i, T.j, T.k]
    idx[mode - 1] = inv[idx[mode - 1]]
    return SparseTensor3(T.dims, idx[0], idx[1], idx[2], T.vals)


def subtensor(T: SparseTensor3, I, J, K) -> SparseTensor3:
    """Extract the block T[I, J, K], densely reindexed to (|I|, |J|, |K|).

    The index sets must be sorted subsets of the respective extents.
    """
    sets = []
    for S, extent, name in ((I, T.dims[0], "I"), (J, T.dims[1], "J"), (K, T.dims[2], "K")):
        S = np.asarray(S, dtype=np.int64).ravel()
        if S.size == 0:
            raise ValueError(f"index set {name} is empty")
        if S.min() < 0 or S.max() >= extent:
            raise IndexError(f"index set {name} out of range for extent {extent}")
        if np.any(np.diff(S) <= 0):
            raise ValueError(f"index set {name} must be strictly increasing")
        sets.append(S)
    I, J, K = sets

    mask = np.ones(T.nnz, dtype=bool)
    for idx, S in ((T.i, I), (T.j, J), (T.k, K)):
        pos = np.searchsorted(S, idx)
        pos = np.clip(pos, 0, S.size - 1)
        mask &= S[pos] == idx
    new_idx = []
    for idx, S in ((T.i[mask], I), (T.j[mask], J), (T.k[mask], K)):
        new_idx.append(np.searchsorted(S, idx))
    return SparseTensor3(
        (I.size, J.size, K.size), new_idx[0], new_idx[1], new_idx[2], T.vals[mask]
    )
