"""The affine recursion behind the rollout, the steady filter and the smoother.

All three hot loops have the form x[t+1] = F x[t] + u[t+1]. The callers
compute the inputs of every step with record-wide matrix products and then
run the recursion in place on a time-major array X that holds x[0] in its
first row and the inputs u in the others; with ``reverse=True`` it runs from
the last row backwards, x[t] = F x[t+1] + u[t]. One evaluator,
``sequential_scan``, steps every pass one product at a time over a CSR
operator plus an optional rank-r term, F = A - U W.

The filter and the smoother run in predicted form on one gain and one
closed loop: the predictor gain K (K_p = A V^- C' S^-1 in ``smoother``) and
F_p = A - K C, which reaches the scan in one of two forms, factored or
folded:

- rollout: F = A, x[t+1] = A x[t] + u[t+1], u[t+1] = B P[t] (+ noise);
- filter: F = F_p with u[t+1] = B P[t] + K y[t], so
  xp[t+1] = A xp[t] + B P[t] + K (y[t] - C xp[t]); factored, it is the CSR
  A with U = K and W = C; folded, the CSR of F_p and no rank term;
- smoother: F = F_p' = A' - C' K' backwards; factored, the CSR A' with
  U = C' and W = K'; folded, the CSR of F_p'.

Each step is one call of scipy's compiled CSR kernel ``csr_matvec``, which
adds F x[t] straight into the row of X that holds the step's input: no
scipy dispatch, no temporary and no separate addition. The gain term forms
z = W x[t] (n_y values) in a buffer and subtracts U z, a sparse factor by
the same kernel and a dense one by ``np.dot(..., out=)``. The kernel's
contract, pinned by tests/test_kernels.py: y += A x in float64, written
into the output row in place even when that row is a strided view, with
int32 or int64 indices. The rollout and the filter add B P[t] over the
nonzero rows of B only (``_add_input``).

The filter starts from xp[0] = x1 and reads y[0] as C x1, so its first
innovation e[0] is 0 and it returns N innovation rows. The smoother has one
form at every size, the modified Bryson-Frazier adjoint recursion in
predicted form (Bierman, *Factorization Methods for Discrete Sequential
Estimation*, 1977): lam[t] = F_p' lam[t+1] + C' S^-1 e[t] with lam[N] = 0;
then xs[t] = xp[t] + V^- lam[t]. ``smooth_steady`` runs it in chunks of
_INPUT_ROWS steps from the record end: the lam rows of a chunk live in one
buffer above the carry lam[stop] from the chunk after it, and the V^-
product is one GEMM per chunk written into xp, so the smoothed means
overwrite the predicted ones and no second record-length array is held.

The rollout always steps over A. The filter and the smoother step their
closed loop factored from n >= FACTORED_MIN_N (the rule ``factored``) and
folded below it. With the model's dense gain, K C fills the n_y observed
columns of F_p, so a folded step reads about nnz(A) + n n_y values through
the CSR kernel, and a factored one nnz(A) through it plus the n x n_y gain
through BLAS, at the fixed overhead of two more calls. On 3-D grid
operators with about 7 nonzeros per row, every 20th state observed and a
dense gain (``benchmarks/kernels.py``; the per-step table is in the README
and the runs in ``BENCH_kernels.json``), a filter step plus a smoother step
cost less folded at n=250 and less factored from n=325 on in every run,
hence FACTORED_MIN_N = 325.
"""

from __future__ import annotations

from functools import partial

import numpy as np
import scipy.sparse as sp

# scipy's compiled CSR product y += A x, the routine that ``A @ x`` runs after
# scipy's Python-side dispatch. Called directly, it adds A x[t] into the row
# that already holds the step's input, with no dispatch and no temporary. The
# module is private, but the kernel has been at this path since scipy 1.8
# (the floor is 1.10); tests/test_kernels.py pins the contract relied on here.
from scipy.sparse._sparsetools import csr_matvec

# Rows per chunk of the rollout's and the smoother's input and output products.
_INPUT_ROWS = 1024
# Operator size from which the filter and the smoother step their closed
# loop as A plus the rank-n_y gain term instead of folded into one CSR.
FACTORED_MIN_N = 325


def _c64(x):
    return np.ascontiguousarray(np.asarray(x, dtype=np.float64))


def factored(A):
    """True if the filter and the smoother on the n x n operator A step their
    closed loop as A plus the rank-n_y gain term; below the rule they step it
    folded into one CSR. The rollout steps A alone."""
    return A.shape[0] >= FACTORED_MIN_N


def _csr_args(M):
    """The leading arguments (shape, indptr, indices, data) of ``csr_matvec`` for M."""
    M = sp.csr_array(M)
    return (*M.shape, M.indptr, M.indices, M.data)


def sequential_scan(A, X, reverse=False, U=None, W=None):
    """In place: X[t+1] += (A - U W) X[t] in time order (X[t] += ... X[t+1]
    if reverse); without U and W, F = A. A is sparse; U (n x r) and W (r x n)
    may each be sparse or dense.

    Each step adds A x into the next row by one ``csr_matvec`` call. The
    rank-r term forms z = W x in a buffer and subtracts U z, a sparse factor
    by ``csr_matvec`` and a dense one by ``np.dot(..., out=)``.
    """
    M = X.shape[0] - 1
    steps = range(M - 1, -1, -1) if reverse else range(1, M + 1)
    prev = X[M] if reverse else X[0]
    a = _csr_args(A)
    if U is None:
        for t in steps:
            cur = X[t]
            csr_matvec(*a, prev, cur)
            prev = cur
        return X
    sparse_w, sparse_u = sp.issparse(W), sp.issparse(U)
    w = _csr_args(W) if sparse_w else np.ascontiguousarray(W)
    # -U so that the kernel subtracts; a dense U column-major, where BLAS's
    # product with a vector ran faster than row-major at n=817.
    u = _csr_args(-U) if sparse_u else np.asfortranarray(U)
    z, Uz = np.zeros(U.shape[1]), np.empty(X.shape[1])
    for t in steps:
        cur = X[t]
        if sparse_w:
            z.fill(0.0)
            csr_matvec(*w, prev, z)
        else:
            np.dot(w, prev, out=z)
        csr_matvec(*a, prev, cur)
        if sparse_u:
            csr_matvec(*u, z, cur)
        else:
            cur -= np.dot(u, z, out=Uz)
        prev = cur
    return X


def _add_input(X, B, P):
    """X[t] += B P[t] over B's nonzero rows only, in row chunks: no record-length temporary."""
    rows = np.flatnonzero(B.any(axis=1))
    Bt = B[rows].T
    for i in range(0, P.shape[0], _INPUT_ROWS):
        X[i : i + _INPUT_ROWS, rows] += P[i : i + _INPUT_ROWS] @ Bt


def rollout(A, B, T1, P, W=None):
    """T[t+1] = A T[t] + B P[t] (+ W[t]); T[0] = T1. P has N-1 rows here.

    Stepped at every size; an unstable A leaves inf/NaN rows, which the
    caller checks for."""
    P, B = _c64(P), _c64(B)
    T = np.zeros((P.shape[0] + 1, np.shape(T1)[0]))
    T[0] = T1
    _add_input(T[1:], B, P)
    if W is not None:
        T[1:] += W
    return sequential_scan(sp.csr_array(_c64(A)), T)


def filter_steady(A, B, C, K, x1, P, Y):
    """Predicted means xp[t+1] = F_p xp[t] + B P[t] + K Y[t], F_p = A - K C with K
    the predictor gain, from xp[0] = x1 with Y[0] read as C x1, and the N
    innovations e[t] = Y[t] - C xp[t], e[0] = 0."""
    A, B, C, K, P, Y = map(_c64, (A, B, C, K, P, Y))
    N = Y.shape[0]
    xp = np.empty((N, A.shape[0]))
    xp[0] = x1
    np.matmul(Y[: N - 1], K.T, out=xp[1:])
    xp[1] = K @ (C @ xp[0])
    _add_input(xp[1:], B, P[: N - 1])
    if factored(A):
        sequential_scan(sp.csr_array(A), xp, U=K, W=sp.csr_array(C))
    else:
        sequential_scan(sp.csr_array(A - K @ C), xp)
    innov = Y - xp @ C.T
    innov[0] = 0.0
    return xp, innov


def smooth_steady(A, C, K, Xp, SinvE, V_minus):
    """Smoother means xs[t] = Xp[t] + V^- lam[t], lam[t] = F_p' lam[t+1] + C' SinvE[t],
    F_p = A - K C, lam[N] = 0, from the predicted means Xp and N rows SinvE;
    written over ``Xp`` and returned if it is C-contiguous float64, other
    layouts are copied first."""
    A, C, K, SinvE, V_minus, xs = map(_c64, (A, C, K, SinvE, V_minus, Xp))
    N = xs.shape[0]
    if factored(A):
        scan = partial(sequential_scan, sp.csr_array(A).T.tocsr(), reverse=True,
                       U=sp.csr_array(C.T), W=np.ascontiguousarray(K.T))
    else:
        scan = partial(sequential_scan, sp.csr_array((A - K @ C).T), reverse=True)  # F_p'
    # Z holds lam over the rows [start, stop) of one chunk in time order, and
    # below them the carry lam[stop] (zero for the last chunk of the record).
    rows = min(_INPUT_ROWS, N)
    lam = np.zeros((rows + 1, A.shape[0]))
    for stop in range(N, 0, -rows):
        start = max(stop - rows, 0)
        Z = lam[rows - (stop - start) :]
        body = np.matmul(SinvE[start:stop], C, out=Z[:-1])  # the inputs C' SinvE[t]
        scan(Z)
        xs[start:stop] += body @ V_minus.T
        lam[-1] = Z[0]
    return xs
