"""The affine recursion behind the rollout, the steady filter and the smoother.

All three hot loops have the form x[t+1] = F x[t] + u[t+1]. ``affine_scan``
runs it in place on a time-major array X that holds x[0] in its first row and
the inputs u in the others; with ``reverse=True`` it runs from the last row
backwards, x[t] = F x[t+1] + u[t]. The callers compute the inputs of every
step with one matrix product before the scan.

The scan is blocked in time (the block form of a linear prefix scan). With
M = N-1 steps and the block length L the power of two nearest sqrt(M)
(in ratio):

1. local responses: the response of every block to its own inputs from a
   zero start, as L-1 lock-step products (blocks x n)(n x n) over strided
   views of X;
2. carry: the block-start states in turn, x[(b+1)L] += F^L x[bL], with a
   dense F^L that takes log2(L) squarings (6 products at M=5999, not the 9
   of L = ceil(sqrt(M)) = 78);
3. fix-up: F^j x[bL] added to position j of every block, again as L-1
   lock-step products.

The last block may be short; it simply drops out of the lock-step products
at the positions it does not have. The recursion thus costs about 2L
matrix-matrix products instead of M matrix-vector products, and agrees with
the per-step loop to rounding.

F may be dense or a scipy.sparse matrix; a sparse F runs the lock-step
products of phases 1 and 3 through its nonzeros. The rollout passes A as
CSR: the mesh makes it a graph operator with about 7 nonzeros per row, and
a 6000-step rollout at n=817 takes 0.13 s instead of 0.27 s (2 vCPUs, 2
OpenBLAS threads). The filter's (I - K C) A and the smoother's J are dense.
A sparse A plus a rank-n_y term for the filter ran 168 against 276 ms at
n=817 but 17.1 against 15.4 ms at n=178, so they keep the dense products.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp

# Rows per chunk of the smoother's input products.
_INPUT_ROWS = 1024


def _c64(x):
    return np.ascontiguousarray(np.asarray(x, dtype=np.float64))


def affine_scan(F, X, reverse=False):
    """In place: X[t+1] += F X[t] in time order (X[t] += F X[t+1] if reverse)."""
    M = X.shape[0] - 1
    if M < 1:
        return X
    L = 1 << round(math.log2(M) / 2)  # the power of two nearest sqrt(M) in ratio
    FT = F.T  # for a sparse F, lane @ FT runs as F @ lane.T

    # Rows at position j of every block that has one, ordered by row index:
    # block order when running forward, reversed block order backwards.
    # Every view has a positive row stride, so dense products go to BLAS.
    if reverse:
        def lane(j):
            return X[(M - j) % L : M - j + 1 : L]

        def first(V, k):  # the rows of blocks 0..k-1
            return V[V.shape[0] - k :]
    else:
        def lane(j):
            return X[j::L]

        def first(V, k):
            return V[:k]

    # 1. Local responses; position 1 of each block is its own input.
    for j in range(2, L + 1):
        dst = lane(j)
        dst += first(lane(j - 1), dst.shape[0]) @ FT
    # 2. Carry across the block starts.
    starts = lane(0)
    chain = starts[::-1] if reverse else starts
    FLT = np.linalg.matrix_power(F.toarray() if sp.issparse(F) else F, L).T
    for b in range(1, chain.shape[0]):
        chain[b] += chain[b - 1] @ FLT
    # 3. Fix-up: position j of block b gains F^j x[bL].
    Y = starts
    for j in range(1, L):
        dst = lane(j)
        Y = first(Y, dst.shape[0]) @ FT
        dst += Y
    return X


def rollout(A, B, T1, P, W=None):
    """T[t+1] = A T[t] + B P[t] (+ W[t]); T[0] = T1. P has N-1 rows here."""
    P = _c64(P)
    T = np.empty((P.shape[0] + 1, np.shape(T1)[0]))
    T[0] = T1
    np.matmul(P, _c64(B).T, out=T[1:])
    if W is not None:
        T[1:] += W
    with np.errstate(over="ignore", invalid="ignore"):  # the caller checks for inf/NaN
        return affine_scan(sp.csr_array(_c64(A)), T)


def filter_steady(A, B, C, K, x1, P, Y):
    """Steady-gain filter means and innovations.

    xf[t+1] = (I - K C)(A xf[t] + B P[t]) + K Y[t+1], and the innovation
    e[t] = Y[t+1] - C (A xf[t] + B P[t]).
    """
    A, B, C, K, P, Y = map(_c64, (A, B, C, K, P, Y))
    N = Y.shape[0]
    P = P[: N - 1]
    IKC = np.eye(A.shape[0]) - K @ C
    xf = np.empty((N, A.shape[0]))
    xf[0] = x1
    np.matmul(np.hstack([P, Y[1:]]), np.hstack([IKC @ B, K]).T, out=xf[1:])
    affine_scan(IKC @ A, xf)
    innov = Y[1:] - xf[:-1] @ (C @ A).T - P @ (C @ B).T
    return xf, innov


def smooth_steady(A, B, J, Xf, P):
    """Steady-gain smoother means xs[t] = Xf[t] + J (xs[t+1] - A Xf[t] - B P[t]), written
    over ``Xf`` and returned if it is C-contiguous float64; other layouts are copied first."""
    A, B, J, xs, P = map(_c64, (A, B, J, Xf, P))
    N = xs.shape[0]
    G_x, G_p = (np.eye(A.shape[0]) - J @ A).T, (J @ B).T
    # Inputs Xf[t] G_x - P[t] G_p, in row chunks so that no N x n temporary
    # joins xs in memory; xs[-1] = Xf[-1] stays as it is.
    for i in range(0, N - 1, _INPUT_ROWS):
        rows = slice(i, min(i + _INPUT_ROWS, N - 1))
        chunk = xs[rows] @ G_x
        chunk -= P[rows] @ G_p
        xs[rows] = chunk
    return affine_scan(J, xs, reverse=True)
