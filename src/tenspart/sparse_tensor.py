"""Sparse 3-mode tensor in coordinate format and the multilinear primitives.

The central object is :class:`SparseTensor3`, a real tensor of order three
stored as coordinate (COO) triples.  Entries are kept in canonical
lexicographic order by (slice, row, column), i.e. by (k, i, j), so that the
3-slices are contiguous runs; per-slice and per-block sums take a group id
per entry from the index arrays and add up all groups at once.

Canonical order is established once.  ``SparseTensor3(...)`` is the only
validating constructor: it checks extents, indices and values, sorts with
one stable sort (:func:`_stable_sort`), sums duplicates in input order and
drops explicit zeros.  Each entry's cell is the int64 code
(k*l + i)*m + j, so the constructor refuses extents with l*m*n >= 2**63
before any code is formed.  It builds the codes in one buffer, sorts them
in place, gathers only the values and decodes the indices from the
sorted codes (:func:`_decode`), freeing each nnz-sized temporary once it
is read: about 32 bytes per input entry at its peak, the 32 bytes per
stored entry of the result included.  Input whose codes strictly increase
(canonical order without duplicates, as a written ``.tns`` file holds
them) skips the sort, the value gather, the sums and the decode, with the
same bits as a result: the codes are freed, zeros are dropped, and an
input array is copied only if the caller can still write its memory (a
writable array, or a view of one).  A fresh conversion, and a read-only
array that owns its data, are kept as they are.  Operations whose result is
canonical by construction (value-only normalizations, permutations that
sort their own codes, the binning of a record log) go through the private trusted constructor
``SparseTensor3._canonical``, which only drops explicit zeros and may share
index arrays with its source; a value-only map (``_with_values``) shares
its source's canonical stack pattern as well.  A reordering of all three
modes (:func:`permute_modes`) builds its codes the same way, from the
inverse permutations, and peaks at about 33 bytes per entry.

Tensors are immutable after construction: the ``i``, ``j``, ``k`` and
``vals`` arrays are read-only (``writeable=False``), and every operation
returns a new tensor or a dense array.  Immutability is what makes the
per-tensor cache safe: there is one slice stack, the 3-slices stacked as
one CSR matrix in canonical order, and on first use by a transposed
half product one more column index over it (4 bytes per entry), both
computed at most once.  The (1,2)-symmetry check reads the canonical
stack in blocks of whole slices and transposes one block at a time.

Dense factor matrices, vectors and small core tensors are plain numpy
arrays.  Contractions that shrink a mode (multiplication by a matrix with
few rows) always produce dense arrays, since in the intended workloads the
small side is never larger than a handful of columns.  Each contraction is
one ``half_product``, the only code that multiplies by a slice stack,
finished by one ``reduce_half``, a dense reduction with the other factor;
the ``contract_modes23/13/12`` shorthands, one of each, are defined once
for every operator with these two methods.  The canonical stack's half
product with V serves both the modes-(2,3) contraction with V and the
modes-(1,2) one, so the solver forms it once.  Only the modes-(1,3)
contraction, which the symmetric solver never makes, and a mode-1
:func:`mode_multiply` multiply by the transposed slices: the stack with
the extra column index is the block-diagonal matrix of the slices, and
its transpose times the mode-1 factor tiled once per slice is that half
product.  :func:`mode_multiply` forms no identity: modes 1 and 2 reorder
the axes of a half product, and mode 3 scatters the entries by cell.

Inner products, Frobenius norms and the grouped sums of squares behind
block norms and slice normalization all come from :func:`_scaled_sum`:
factors scaled by exact powers of two, products summed exactly and rounded
once.  So they are invariant under entry reordering, bitwise equal to
``math.fsum`` of the unscaled terms wherever those are normal, and they
scale exactly with the entries, past the range of their squares.
"""

from __future__ import annotations

import math
import os
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
    "permute_modes",
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


def _exponent(A: np.ndarray) -> int:
    """The e with max|A| in [2**(e-1), 2**e); 0 for an all-zero or empty A."""
    return math.frexp(max(A.max(initial=0.0), -A.min(initial=0.0)))[1]


def _scaled_sum(*factors, groups=None, count: int = 1, total: bool = False):
    """(s, e) with s * 2**e the correctly rounded sum of the elementwise product
    of ``factors``, or with s one such sum per group (as in :func:`_exact_sum`,
    which also reads ``total``).

    Each factor f is scaled exactly by 2**(d - e_f), with 2**e_f bounding |f|
    and d = (1020 - bitlen(n)) // len(factors), so the largest product is
    just below what :func:`_exact_sum` sums without fsum; a scale to [1/2, 1)
    would flush squares of entries spread over 2**±500.  s * 2**e has the
    bits of fsum of the unscaled products where those are normal, and is
    finite where not; a factor value over 2**(1074 + d) below its factor's
    largest is lost.  A square (one array twice) gets an even e.
    """
    first, *rest = factors
    d = (1020 - np.size(first).bit_length()) // len(factors)
    x = _exponent(first)
    prod = np.ldexp(first, d - x).ravel()
    e = x - d
    for f in rest:
        if f is first and len(rest) == 1:  # a square: square the one scaled copy
            prod *= prod
        else:
            x = _exponent(f)
            prod *= np.ldexp(f, d - x).ravel()
        e += x - d
    return _exact_sum(prod, groups, count, overwrite=True, total=total), e


def _ldexp(s: float, e: int) -> float:
    """s * 2**e, inf past the float range (where math.ldexp raises)."""
    try:
        return math.ldexp(s, e)
    except OverflowError:
        return math.copysign(math.inf, s)


def _norm(x: np.ndarray, groups=None, count: int = 1, total: bool = False):
    """sqrt(sum(x * x)), or an array of it per group, through :func:`_scaled_sum`.

    With ``groups`` and ``total``, returns (the array, the norm of all of
    x): the total from the same exact level sums, bitwise ``_norm(x)``.
    """
    s, e = _scaled_sum(x, x, groups=groups, count=count, total=total)
    if total:
        s, whole = s
        return np.ldexp(np.sqrt(s), e // 2), float(np.ldexp(np.sqrt(whole), e // 2))
    root = np.ldexp(np.sqrt(s), e // 2)
    return float(root) if groups is None else root


def _exact_sum(x, groups=None, count: int = 1, overwrite: bool = False, total: bool = False):
    """Correctly rounded sum of ``x``, or of each group of it; bitwise ``math.fsum``.

    With ``groups`` (non-negative ids below ``count``, one per element of
    ``x``), returns an array of ``count`` sums, 0.0 for an empty group;
    with ``total`` as well, the pair (that array, the sum of all of ``x``),
    the total being fsum of every level sum of every group, so bitwise the
    ungrouped sum.  With ``overwrite`` a float ``x`` holds the remainder
    from the first level on, which saves one temporary of its size.

    Error-free extraction (Rump, Ogita and Oishi, SIAM J. Sci. Comput.
    31(1), 2008): each level takes sigma = 2**s with 2**s > 2 * len(x) *
    max|r| for the remainder r (initially ``x``), splits r exactly into
    hi = (r + sigma) - sigma, on the grid ulp(sigma)/2, and r - hi, and adds
    up hi.  Every partial sum of the hi lies on that grid below sigma/2, so
    ``np.sum`` or ``np.bincount`` adds them without error in any order.
    Once the remainder is zero the level sums split the exact total, and
    fsum of these few numbers rounds it once: the one correctly rounded
    sum, which fsum of ``x`` returns as well (Shewchuk 1997).  Non-finite
    input, or a sigma past the float range, is left to fsum itself, so its
    values and errors (inf, nan, ``OverflowError``) are kept; only the
    first level can do so, since every later remainder is smaller.  Uses
    two temporaries of the size of ``x``, one with ``overwrite``.
    """
    x = np.asarray(x, dtype=float).ravel()
    n = x.size
    levels = []
    r, hi = x, None
    while n:
        top, bottom = float(r.max()), float(r.min())
        if not (math.isfinite(top) and math.isfinite(bottom)):
            return _fsum_fallback(x, groups, count, total)
        big = max(top, -bottom)
        if big == 0.0:
            break
        s = math.frexp(big)[1] + n.bit_length() + 1
        if s > 1023:
            return _fsum_fallback(x, groups, count, total)
        sigma = math.ldexp(1.0, s)
        if hi is None:  # first level: x is left as it is, unless overwrite
            hi = x + sigma
            hi -= sigma
            r = np.subtract(x, hi, out=x if overwrite else None)
        else:
            np.add(r, sigma, out=hi)
            hi -= sigma
            r -= hi
        levels.append(np.sum(hi) if groups is None else np.bincount(groups, weights=hi, minlength=count))
    if groups is None:
        return math.fsum(levels)
    if len(levels) <= 1:
        sums = levels[0] if levels else np.zeros(count)
    else:
        sums = np.array([math.fsum(col) for col in zip(*(lv.tolist() for lv in levels))])
    return (sums, math.fsum(v for lv in levels for v in lv.tolist())) if total else sums


def _fsum_fallback(x: np.ndarray, groups, count: int, total: bool):
    """``math.fsum`` of ``x``, or of each group in input order (and of all of
    ``x`` with ``total``)."""
    if groups is None:
        return math.fsum(x)
    order = np.argsort(groups, kind="stable")
    cuts = np.searchsorted(groups[order], np.arange(1, count))
    sums = np.array([math.fsum(part) for part in np.split(x[order], cuts)])
    return (sums, math.fsum(x)) if total else sums


def _stable_sort(codes: np.ndarray, bound: int) -> tuple[np.ndarray, np.ndarray]:
    """(order, codes[order]) for the stable sort of int64 codes in [0, bound).

    ``codes`` is consumed: callers pass a temporary they do not read again.
    Each code is packed with its position as (code << b) | position, with
    b = bits(len - 1), in ``codes`` itself, and the packed keys are sorted
    with ``np.sort``: equal codes are ordered by position, so the order is
    the stable one, at a fraction of the cost of an ``argsort`` (on 500k
    codes and a 2-vCPU host, about 4 ms against 9 ms unstable and 41 ms
    stable), and the sorted codes come back in the same buffer.  When a
    packed key would need more than 63 bits, the sort falls back to
    ``np.argsort(kind="stable")``.
    """
    n = codes.size
    b = (n - 1).bit_length() if n else 0
    if (bound - 1).bit_length() + b > 63:
        order = np.argsort(codes, kind="stable")
        return order, codes[order]
    key = np.left_shift(codes, b, out=codes)
    key |= np.arange(n)
    key.sort()
    order = key & ((1 << b) - 1)
    key >>= b
    return order, key


def _physical_memory() -> float:
    """Bytes of physical memory, from ``os.sysconf``; inf where it cannot tell."""
    try:
        return float(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"))
    except (AttributeError, ValueError, OSError):
        return math.inf


def _check_size(what: str, entries: int, entry_bytes: int = 8) -> None:
    """Raise ``ValueError`` before allocating ``entries`` of ``entry_bytes`` bytes
    when they would not fit in physical memory."""
    need = entries * entry_bytes
    have = _physical_memory()
    if need > have:
        raise ValueError(
            f"{what} needs {entries} entries ({need} bytes), more than the "
            f"{have:.0f} bytes of physical memory"
        )


# entries computed at once by a blockwise pass (2 MB of float64)
_BLOCK_ENTRIES = 1 << 18

# the most cells l*m*n of a tensor: every cell's code (k*l + i)*m + j, and
# their count, fit in int64
_MAX_CELLS = 2**63 - 1


def _check_cells(dims: tuple[int, int, int]) -> None:
    """Raise ``TensorShapeError`` when extents (l, m, n) have too many cells for int64 codes."""
    l, m, n = dims
    if l * m * n > _MAX_CELLS:
        raise TensorShapeError(
            f"dims {dims} have l*m*n = {l * m * n} cells; entry codes need l*m*n < 2**63"
        )


def _decode(lin: np.ndarray, l: int, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(i, j, k) of the codes lin = (k*l + i)*m + j; ``lin`` is overwritten and returned as j.

    Floor divisions by a scalar, with the exact products undone in place:
    two new arrays and no temporaries, at about half the cost of two
    ``np.divmod`` calls (3.5 against 6.5 ms on 500k codes, 2-vCPU host).
    """
    i = lin // m  # k*l + i
    i *= m
    lin -= i  # j
    i //= m
    k = i // l
    k *= l
    i -= k
    k //= l
    return i, lin, k


def _find(sorted_codes: np.ndarray, codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(where, at) with codes[where] == sorted_codes[at], over the codes present."""
    if not sorted_codes.size:
        return np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp)
    at = np.searchsorted(sorted_codes, codes)
    np.minimum(at, sorted_codes.size - 1, out=at)
    hit = sorted_codes[at] == codes
    at = at[hit]
    return np.flatnonzero(hit), at


def _column(x, dtype) -> tuple[np.ndarray, bool]:
    """(``x`` as a 1-D array of ``dtype``, whether the caller can still write its memory).

    A fresh conversion (of a list or tuple, or an array copied to convert
    or flatten it) is the constructor's own; so is a read-only array that
    owns its data.  Any other array is, or views, memory of the caller's.
    """
    a = np.asarray(x, dtype=dtype).ravel()
    if isinstance(x, (list, tuple)) or not np.may_share_memory(a, x):
        return a, False
    owner = x if isinstance(x, np.ndarray) else a  # ravel views even a 1-D array
    return a, owner.flags.writeable or not owner.flags.owndata


class _Contractions:
    """Contraction shorthands, each one :meth:`half_product` finished by one
    :meth:`reduce_half` of the operator that inherits them; the solvers
    reduce half products directly."""

    __slots__ = ()

    def contract_modes23(self, V: np.ndarray, W: np.ndarray) -> np.ndarray:
        """c[i, q, r] = sum_jk a_ijk V[j, q] W[k, r]; shape (l, r2, r3)."""
        return self.reduce_half(self.half_product(V), 1, W)

    def contract_modes13(self, U: np.ndarray, W: np.ndarray) -> np.ndarray:
        """c[j, p, r] = sum_ik a_ijk U[i, p] W[k, r]; shape (m, r1, r3)."""
        return self.reduce_half(self.half_product(U, transposed=True), 1, W)

    def contract_modes12(self, U: np.ndarray, V: np.ndarray) -> np.ndarray:
        """c[k, p, q] = sum_ij a_ijk U[i, p] V[j, q]; shape (n, r1, r2)."""
        return self.reduce_half(self.half_product(V), 3, U)


class SparseTensor3(_Contractions):
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
        (k, i, j) order.  Entries given in that order without duplicates
        are taken without a sort; the tensor then keeps a read-only input
        array that owns its data, and copies any array whose memory the
        caller can still write.
    """

    __slots__ = ("dims", "i", "j", "k", "vals", "_stacks")

    def __init__(self, dims, i=(), j=(), k=(), vals=()):
        dims = tuple(int(d) for d in dims)
        if len(dims) != 3 or any(d <= 0 for d in dims):
            raise TensorShapeError(f"dims must be three positive extents, got {dims}")
        _check_cells(dims)
        l, m, n = dims
        (i, j, k, vals), writable = zip(
            *(_column(x, dtype) for x, dtype in ((i, np.int64), (j, np.int64), (k, np.int64), (vals, float)))
        )
        if not (len(i) == len(j) == len(k) == len(vals)):
            raise TensorShapeError("index and value arrays must have equal length")
        if not np.all(np.isfinite(vals)):
            raise ValueError("tensor values must be finite")
        for idx, extent, name in ((i, l, "i"), (j, m, "j"), (k, n, "k")):
            if idx.size and (idx.min() < 0 or idx.max() >= extent):
                raise IndexError(f"index {name} out of range for extent {extent}")

        # codes increase along canonical (k, i, j) order, built in one buffer
        lin = k * l
        lin += i
        lin *= m
        lin += j
        if np.all(lin[1:] > lin[:-1]):  # canonical already: no sort, sum or decode
            del lin
            keep = vals != 0.0  # drop explicit zeros
            if keep.all():  # keep no memory that the caller can still write
                cols = (x.copy() if w else x for x, w in zip((i, j, k, vals), writable))
            else:
                cols = (x[keep] for x in (i, j, k, vals))
            self._set(dims, *cols)
            return
        # sorted in place; the sort is stable, so each run of duplicates sums in
        # input order (reduceat adds the sum of a run's rest to its first value)
        del i, j, k  # copies of the caller's indices, when converted, go now
        order, lin = _stable_sort(lin, l * m * n)
        vals = vals[order]
        del order
        first = np.ones(lin.size, dtype=bool)  # first entry of each run of equal codes
        np.not_equal(lin[1:], lin[:-1], out=first[1:])
        start = None if first.all() else np.flatnonzero(first)
        del first
        if start is not None:  # sum duplicates
            vals = np.add.reduceat(vals, start)
            lin = lin[start]
            del start
        keep = vals != 0.0  # drop explicit zeros
        if not keep.all():
            lin, vals = lin[keep], vals[keep]
        self._set(dims, *_decode(lin, l, m), vals)

    def _set(self, dims, i, j, k, vals) -> None:
        for arr in (i, j, k, vals):
            arr.flags.writeable = False
        self.dims = dims
        self.i, self.j, self.k, self.vals = i, j, k, vals
        self._stacks: dict[int, sp.csr_matrix] = {}

    @classmethod
    def _canonical(cls, dims, i, j, k, vals) -> "SparseTensor3":
        """Trusted constructor for arrays already in canonical (k, i, j) order.

        The caller guarantees valid int64 indices, finite float values,
        strictly increasing (k, i, j) codes and a tuple ``dims``; only
        explicit zeros are dropped.  When none are, the index arrays are
        stored as given, so the new tensor shares them with their source.
        """
        keep = vals != 0.0
        if not keep.all():
            i, j, k, vals = i[keep], j[keep], k[keep], vals[keep]
        T = cls.__new__(cls)
        T._set(dims, i, j, k, vals)
        return T

    def _with_values(self, vals: np.ndarray) -> "SparseTensor3":
        """This tensor's pattern with new finite values, one per entry: value-only maps.

        The result shares the index arrays and, once this tensor has built
        its canonical stack, that stack's ``indptr`` and ``indices``, so its
        contractions build no stack of their own.  An explicit zero in
        ``vals`` changes the pattern, and then neither is shared.
        """
        T = SparseTensor3._canonical(self.dims, self.i, self.j, self.k, vals)
        S = self._stacks.get(2)
        if S is not None and T.i is self.i:
            T._stacks[2] = sp.csr_matrix((T.vals, S.indices, S.indptr), shape=S.shape)
        return T

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_entries(cls, dims, entries: Iterable[tuple[int, int, int, float]]) -> "SparseTensor3":
        ent = list(entries)
        if not ent:
            return cls(dims)
        i, j, k, v = zip(*ent)
        return cls(dims, i, j, k, v)

    @classmethod
    def from_dense(cls, array: np.ndarray) -> "SparseTensor3":
        """The tensor of the nonzero cells of a dense 3-array; NaN and inf are refused."""
        array = np.asarray(array, dtype=float)
        if array.ndim != 3:
            raise TensorShapeError("from_dense expects a 3-dimensional array")
        i, j, k = np.nonzero(array)
        return cls(array.shape, i, j, k, array[i, j, k])

    # -- basic protocol -------------------------------------------------------

    @property
    def nnz(self) -> int:
        return self.vals.size

    def entries(self):
        """Iterate (i, j, k, value) in canonical order."""
        return zip(self.i.tolist(), self.j.tolist(), self.k.tolist(), self.vals.tolist())

    def to_dense(self) -> np.ndarray:
        _check_size("a dense tensor", math.prod(self.dims))
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

    # -- the contraction kernel -----------------------------------------------

    def _slice_stack(self, col_mode: int) -> sp.csr_matrix:
        """The 3-slices as one CSR matrix with mode ``col_mode`` in its columns, cached.

        2: the canonical stack, rows k*l + i and columns j, which is
        canonical order, so the entry arrays are used as they stand; its
        row pointers are checked against memory before they are built.  1:
        D = diag(A_1, ..., A_n), rows k*l + i and columns k*m + j, which
        shares the canonical stack's row pointers and values and adds one
        column index (int32 while n*m < 2**31, so 4 bytes per entry).
        """
        if col_mode not in self._stacks:
            l, m, n = self.dims
            if col_mode == 2:
                _check_size("a slice stack", 2 * n * l + 1)  # its row pointers and their bincount
                # in place: one more temporary here fragmented expand's heap (+4 MB peak)
                indptr = np.zeros(n * l + 1, dtype=np.int64)
                np.cumsum(np.bincount(self.k * l + self.i, minlength=n * l), out=indptr[1:])
                S = sp.csr_matrix((self.vals, self.j, indptr), shape=(n * l, m))
            else:
                S = self._slice_stack(2)
                col = np.multiply(self.k, m, dtype=S.indices.dtype if n * m < 2**31 else np.int64)
                col += S.indices
                S = sp.csr_matrix((S.data, col, S.indptr), shape=(n * l, n * m))
            self._stacks[col_mode] = S
        return self._stacks[col_mode]

    def half_product(self, V: np.ndarray, transposed: bool = False) -> np.ndarray:
        """P[k, i, q] = sum_j a_ijk V[j, q], shape (n, l, V.cols): the canonical stack times V.

        The one sparse product of every contraction, which :meth:`reduce_half`
        finishes.  With ``transposed``, the transposed slices times a mode-1
        factor, P[k, j, p] = sum_i a_ijk V[i, p] of shape (n, m, V.cols),
        computed as D' (V tiled n times) for the D of :meth:`_slice_stack`;
        scipy's CSC product adds each a_ijk V[i, p] into row k*m + j in
        increasing i, the order a stack of the transposed slices would use.
        The result, and the tiled V, are checked against memory before any
        stack, index or tile is built.
        """
        l, m, n = self.dims
        p = V.shape[1]
        if not transposed:
            _check_size("a half product", n * l * p)
            return (self._slice_stack(2) @ V).reshape(n, l, p)
        _check_size("a transposed half product and its tiled factor", n * (m + l) * p)
        return (self._slice_stack(1).T @ np.tile(V, (n, 1))).reshape(n, m, p)

    def reduce_half(self, P: np.ndarray, mode: int, X: np.ndarray, cols=slice(None)) -> np.ndarray:
        """Finish a contraction from a half product P[k, a, q] with the dense X.

        Mode 1 contracts the slice axis: c[a, q, r] = sum_k P[k, a, q] X[k, r].
        Mode 3 contracts the row axis: c[k, p, q] = sum_a X[a, p] P[k, a, q].
        One batched matmul either way.  Batched because OpenBLAS threads one
        big gemm here: 8x slower at the start's sketch sizes on 2 vCPUs, and
        a 5 MB higher expand_sym peak RSS.  ``cols`` picks one factor's block of
        columns from a half product of several factors side by side; the
        block is copied to the layout of that factor's own half product, so
        the reduction has the same bits.
        """
        P = np.ascontiguousarray(P[..., cols])
        if mode == 3:
            return np.matmul(X.T, P)
        return np.matmul(P.transpose(1, 2, 0), X)

    def norm_squared(self) -> float:
        return _ldexp(*_scaled_sum(self.vals, self.vals))

    def norm(self) -> float:
        return _norm(self.vals)


# ---------------------------------------------------------------------------
# free-function operations
# ---------------------------------------------------------------------------


def mode_multiply(T: SparseTensor3, M: np.ndarray, mode: int) -> np.ndarray:
    """Multiply all mode-``mode`` fibers of ``T`` by the matrix ``M``.

    For mode 1, b_ijk = sum_a M[i, a] * T[a, j, k]; modes 2 and 3 are
    analogous.  ``M.shape[1]`` must equal the extent of ``T`` in ``mode``.
    Returns a dense array with the extent in ``mode`` replaced by
    ``M.shape[0]``.  Modes 1 and 2 reorder the axes of one half product
    with M', and form no identity; mode 3 fills each plane q with one
    ``bincount`` of a_ijk M[q, k] over the cells (i, j), in increasing k,
    and forms no dense tensor.
    """
    if mode not in (1, 2, 3):
        raise ValueError(f"mode must be 1, 2 or 3, got {mode!r}")
    M = _check_matrix(M, "M")
    extent = T.dims[mode - 1]
    if M.shape[1] != extent:
        raise TensorShapeError(
            f"M has {M.shape[1]} columns but mode-{mode} extent is {extent}"
        )
    if mode == 1:
        return T.half_product(M.T, transposed=True).transpose(2, 1, 0)
    if mode == 2:
        return T.half_product(M.T).transpose(1, 2, 0)
    l, m, _ = T.dims
    _check_size("mode-3 mode_multiply", l * m * (M.shape[0] + 1))
    out = np.empty((l, m, M.shape[0]))
    cell = T.i * m + T.j
    for q, row in enumerate(M):
        out[:, :, q] = np.bincount(cell, weights=T.vals * row[T.k], minlength=l * m).reshape(l, m)
    return out


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
    return np.tensordot(X, T.contract_modes23(Y, Z), axes=(0, 0))


def inner(A, B) -> float:
    """Inner product <A, B> = sum over all elements of a_xyz * b_xyz.

    Accepts sparse tensors and dense 3-arrays in any combination.  The
    elementwise products are rounded as usual; their sum is exact and
    rounded once (:func:`_scaled_sum`), so the result is bitwise equal to
    ``math.fsum`` of the products where those are normal, in any entry order.
    """
    a_sparse = isinstance(A, SparseTensor3)
    b_sparse = isinstance(B, SparseTensor3)
    dims_a = A.dims if a_sparse else np.asarray(A).shape
    dims_b = B.dims if b_sparse else np.asarray(B).shape
    if tuple(dims_a) != tuple(dims_b):
        raise TensorShapeError(f"shape mismatch: {dims_a} vs {dims_b}")

    if a_sparse and b_sparse:
        # the cell codes of a canonical tensor are sorted and distinct
        l, m, _ = A.dims
        where, at = _find((A.k * l + A.i) * m + A.j, (B.k * l + B.i) * m + B.j)
        a, b = A.vals[at], B.vals[where]
        del where, at  # the sum's scaled copies then take their place
        return _ldexp(*_scaled_sum(a, b))
    if a_sparse:
        return _ldexp(*_scaled_sum(A.vals, np.asarray(B, dtype=float)[A.i, A.j, A.k]))
    if b_sparse:
        return inner(B, A)
    return _ldexp(*_scaled_sum(np.asarray(A, dtype=float), np.asarray(B, dtype=float)))


def frobenius_norm(A) -> float:
    """sqrt(<A, A>); zero iff the tensor has no stored entries."""
    return A.norm() if isinstance(A, SparseTensor3) else _norm(np.asarray(A, dtype=float))


def is_12_symmetric(T: SparseTensor3, tol: float = 0.0) -> bool:
    """True iff every 3-slice is symmetric: |a_ijk - a_jik| <= tol.

    Missing entries count as zero; requires equal mode-1/2 extents.  Reads
    the canonical stack in blocks of whole slices, each of at most
    ``_BLOCK_ENTRIES // 2`` entries and rows together, or of one slice, and
    stops at the first block that is not symmetric.  A block's slices form
    one block-diagonal CSR matrix, whose transpose (scipy's CSR-to-CSC
    conversion) holds a_jik where the matrix holds a_ijk.  On equal
    patterns the values are compared position by position, otherwise
    their sparse difference is.  A block's temporaries (its column index,
    scipy's copy of its values and the transpose's indices and values) take
    about 25 bytes per entry, so the check holds a few MB beyond the
    canonical stack unless one slice is larger; no stack of the transposed
    slices is built or cached.
    """
    l, m, n = T.dims
    if l != m:
        return False
    S = T._slice_stack(2)
    cost = S.indptr[::l] + np.arange(n + 1) * l  # entries and rows before each slice
    k0 = 0
    while k0 < n:
        stop = int(np.searchsorted(cost, cost[k0] + _BLOCK_ENTRIES // 2, side="right")) - 1
        k1 = max(k0 + 1, stop)
        if not _symmetric_block(T, S, k0, k1, tol):
            return False
        k0 = k1
    return True


def _symmetric_block(T: SparseTensor3, S: sp.csr_matrix, k0: int, k1: int, tol: float) -> bool:
    """:func:`is_12_symmetric` on the slices k0 <= k < k1 of the canonical stack S."""
    l = T.dims[0]
    r0, r1 = k0 * l, k1 * l
    a, b = int(S.indptr[r0]), int(S.indptr[r1])
    if a == b:
        return True
    col = np.subtract(T.k[a:b], k0, dtype=S.indices.dtype)  # column (k - k0)*l + j
    col *= l
    col += S.indices[a:b]
    A = sp.csr_matrix((S.data[a:b], col, S.indptr[r0 : r1 + 1] - a), shape=(r1 - r0, r1 - r0))
    At = A.T.tocsr()
    if np.array_equal(A.indptr, At.indptr) and np.array_equal(A.indices, At.indices):
        diff = np.subtract(A.data, At.data, out=At.data)
    else:
        diff = (A - At).data
    return bool(np.all(np.abs(diff, out=diff) <= tol))


def _require_12_symmetric(T: SparseTensor3, message: str) -> None:
    """The (1,2)-symmetry gate: ``ValueError(message)`` unless :func:`is_12_symmetric`
    holds to 1e-12 of the largest |entry|."""
    tol = 1e-12 * float(max(T.vals.max(initial=0.0), -T.vals.min(initial=0.0)))
    if not is_12_symmetric(T, tol=tol):
        raise ValueError(message)


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
    perms = [np.arange(d) for d in T.dims]
    perms[mode - 1] = perm
    return permute_modes(T, *perms)


def permute_modes(
    T: SparseTensor3, perm1: Sequence[int], perm2: Sequence[int], perm3: Sequence[int]
) -> SparseTensor3:
    """Reorder all three modes at once, each as in :func:`permute_mode`.

    Equals chained single-mode permutations; the entries are sorted into
    canonical order once.  The new codes come from the inverse permutations
    in one buffer that is sorted in place; only the values are gathered,
    and the indices are decoded from the sorted codes.
    """
    l, m, n = T.dims
    inv = []
    for perm, extent in zip((perm1, perm2, perm3), T.dims):
        perm = _check_permutation(perm, extent)
        table = np.empty_like(perm)
        table[perm] = np.arange(extent)
        inv.append(table)
    lin = (inv[2] * l)[T.k]
    lin += inv[0][T.i]
    lin *= m
    lin += inv[1][T.j]
    order, lin = _stable_sort(lin, l * m * n)
    vals = T.vals[order]
    del order
    return SparseTensor3._canonical(T.dims, *_decode(lin, l, m), vals)


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
    # the remaps are increasing, so the kept entries stay in canonical order
    new_idx = [np.searchsorted(S, idx[mask]) for idx, S in ((T.i, I), (T.j, J), (T.k, K))]
    return SparseTensor3._canonical(
        (I.size, J.size, K.size), new_idx[0], new_idx[1], new_idx[2], T.vals[mask]
    )
