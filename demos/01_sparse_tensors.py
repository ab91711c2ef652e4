"""Sparse 3-tensors: construction, contraction, norms.

A walk through the core data structure.  Entries live in coordinate form,
slices are matrices, and all the multilinear algebra (mode products, inner
products, Frobenius norms) runs on the sparse entries directly.
"""

import numpy as np

from tenspart import (
    SparseTensor3,
    frobenius_norm,
    inner,
    mode_multiply,
    multi_multiply,
    permute_modes,
)

# A 4x4x2 tensor from its coordinate columns i, j, k and values.  Duplicate
# coordinates are summed; explicit zeros are dropped.
T = SparseTensor3(
    (4, 4, 2),
    [0, 1, 2, 3, 0],
    [1, 0, 3, 2, 1],
    [0, 0, 1, 1, 0],
    [2.0, 2.0, -1.5, -1.5, 1.0],  # the last entry is summed with the first
)
print("dims", T.dims, " nnz", T.nnz)
print("slice 0:\n", T.to_dense()[:, :, 0])

# Mode products contract one index against a matrix.  Contracting mode 3
# with a row of ones sums the slices.
ones = np.ones((1, 2))
summed = mode_multiply(T, ones, 3)
print("\nslice sum (mode-3 product with ones):\n", summed[:, :, 0])

# A full multilinear transform (U, V, W) . T applies one matrix per mode.
U = np.linalg.qr(np.random.default_rng(0).standard_normal((4, 4)))[0]
rotated = multi_multiply(T, U, U, np.eye(2))
print("\nnorm before", frobenius_norm(T), " after orthogonal transform",
      np.linalg.norm(rotated))

# Inner products work sparsely: only shared coordinates contribute.
S = SparseTensor3((4, 4, 2), [0, 3], [1, 3], [0, 0], [1.0, 9.0])
print("\n<T, S> =", inner(T, S))

# Mode permutations relabel indices; the entry set just moves.  Here mode 1
# is reversed and the identity leaves modes 2 and 3 as they are.
P = permute_modes(T, [3, 2, 1, 0], np.arange(4), np.arange(2))
print("norm preserved under permutation:", frobenius_norm(P) == frobenius_norm(T))
