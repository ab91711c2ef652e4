import numpy as np
import pytest

from tenspart import SparseTensor3


def random_sparse(rng, dims, density=0.3):
    """Random sparse tensor with roughly `density` fill."""
    dense = rng.standard_normal(dims)
    dense[rng.random(dims) > density] = 0.0
    return SparseTensor3.from_dense(dense)


def random_orthogonal(rng, n):
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return Q


def random_symmetric(rng, m, n, density=0.3):
    """Random (1,2)-symmetric tensor of dims (m, m, n)."""
    T = random_sparse(rng, (m, m, n), density)
    dense = T.to_dense()
    return SparseTensor3.from_dense(0.5 * (dense + dense.transpose(1, 0, 2)))


def pow2_scaled(T, s):
    """T times 2**s: exact, since only the exponents of the values change."""
    return SparseTensor3(T.dims, T.i, T.j, T.k, np.ldexp(T.vals, s))


# squares of O(1) entries times 2**(2s) pass the top of the float range at
# s = 531 and fall below the subnormals at s = -565
BEYOND_SQUARE_RANGE = (531, -565)


def planted_bipartite(m1, m2, n, tau, w, seed):
    """Exact two-group block structure: [[0, C], [C', 0]] with C = tau u v w.

    Returns (tensor, u, v, w) with unit nonnegative u, v and the given
    unit temporal profile w.
    """
    rng = np.random.default_rng(seed)
    u = rng.random(m1) + 0.1
    v = rng.random(m2) + 0.1
    u /= np.linalg.norm(u)
    v /= np.linalg.norm(v)
    w = np.asarray(w, dtype=float)
    C = SparseTensor3.from_dense(tau * np.einsum("i,j,k->ijk", u, v, w))
    return bipartite_embed(C), u, v, w


def bipartite_embed(C):
    """The (1,2)-symmetric block tensor [[0, C], [C', 0]] of dims (l+m, l+m, n)."""
    l, m, n = C.dims
    return SparseTensor3(
        (l + m, l + m, n),
        np.concatenate((C.i, C.j + l)),
        np.concatenate((C.j + l, C.i)),
        np.concatenate((C.k, C.k)),
        np.concatenate((C.vals, C.vals)),
    )


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
