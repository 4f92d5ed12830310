"""The affine recursion behind the rollout, the steady filter and the smoother.

All three hot loops have the form x[t+1] = F x[t] + u[t+1]. The callers
compute the inputs of every step with one matrix product and then run the
recursion in place on a time-major array X that holds x[0] in its first row
and the inputs u in the others; with ``reverse=True`` it runs from the last
row backwards, x[t] = F x[t+1] + u[t]. There are two evaluators of it.

``sequential_scan`` steps the recursion one product at a time over a CSR A
plus an optional rank-r term, F = (I - U W) A:

- rollout: x[t+1] = A x[t] + u[t+1];
- filter: F = (I - K C) A, so each step is xp = A xf[t] (+ B P[t] in the
  input), less K (C xp), plus K Y[t+1] in the input;
- smoother: F = F_p' = (I - C' K') A' backwards, U = C' and W = K'.

Each step is one call of scipy's compiled CSR kernel ``csr_matvec``, which
adds A x[t] straight into the row of X that holds the step's input: no
scipy dispatch, no temporary and no separate addition. The gain term forms
z = (W A) x[t] (n_y values) in a buffer and subtracts U z, a sparse factor
by the same kernel and a dense one by ``np.dot(..., out=)``. The kernel's
contract, pinned by tests/test_kernels.py: y += A x in float64, written
into the output row in place even when that row is a strided view, with
int32 or int64 indices.

``affine_scan`` is blocked in time (the block form of a linear prefix scan)
over a dense F: the filter's (I - K C) A and the smoother's F_p'. With M
steps and the block length L = round(M^(1/3)):

1. local responses: the response of every block to its own inputs from a
   zero start, as L-1 lock-step products (blocks x n)(n x n) over strided
   views of X;
2. carry: the block-start states in turn, x[(b+1)L] += F^L x[bL];
3. fix-up: F^j x[bL] added to position j of every block, again as L-1
   lock-step products.

The last block may be short; it simply drops out of the lock-step products
at the positions it does not have. The recursion thus costs about 2L
matrix-matrix products and M/L carry steps instead of M matrix-vector
products, and agrees with the per-step loop to rounding. The cube-root L
(10 for a 1024-step chunk) ran a dense scan at N=5000 5-8% faster than the
power of two nearest sqrt(M) that it replaced, and it keeps pace with the
smoother's chunks.

The smoother has one form at every size, the modified Bryson-Frazier
adjoint recursion (Bierman, *Factorization Methods for Discrete Sequential
Estimation*, 1977): mu[t] = F_p' (mu[t+1] + C' S^-1 e[t]) with
F_p' = (I - C' K') A', the transposed predictor-form closed loop, and
mu[N-1] = 0; then xs[t] = xf[t] + V^- mu[t]. ``smooth_steady`` runs it in
chunks of _INPUT_ROWS steps from the record end: the mu rows of a chunk live
in one buffer above the carry mu[stop] from the chunk after it, and the V^-
product is one GEMM per chunk written into xf, so the smoothed means
overwrite the filtered ones and no second record-length array is held. Its
one branch picks the evaluator of a chunk.

The rollout always steps. The filter and the smoother step from
n >= SEQUENTIAL_MIN_N (the rule ``sequential``) and run the blocked scan
below it. Per step in us, sequential against blocked (``benchmarks/kernels.py``
on 3-D grid operators of the module's sizes, N=5000, best of 7 in each of
two runs, a shared 2-vCPU machine, 2 OpenBLAS threads; ``BENCH_kernels.json``;
the smoother's blocked figure is its chunked scan over F_p'):

=========  ======================  ======================
pass       n=817 (paper's module)  n=178 (reduced module)
=========  ======================  ======================
rollout    4.3-4.4                 1.5-2.8
filter     11.4-11.7 vs 36.7-37.3  3.9-7.0 vs 2.3-3.1
smoother   10.6-11.7 vs 67-79      3.4-6.3 vs 3.2-4.3
=========  ======================  ======================

The blocked scan's dense lanes cost about n^2 per step, the sequential step
a fixed call overhead plus the nonzeros of A and 2 n n_y for the gain term.
On 3-D grid operators with about 7 nonzeros per row and every 20th state
observed, the filter and smoother passes met between n=250 and n=325 and
stepped faster from n=325 on in every run, hence SEQUENTIAL_MIN_N = 325
(the smoother's chunked blocked scan has not been re-timed between them).
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
# Operator size from which the filter and the smoother step instead of
# running the blocked scan.
SEQUENTIAL_MIN_N = 325


def _c64(x):
    return np.ascontiguousarray(np.asarray(x, dtype=np.float64))


def sequential(A):
    """True if the filter and the smoother on the n x n operator A run step
    by step; the rollout always does."""
    return A.shape[0] >= SEQUENTIAL_MIN_N


def _csr_args(M):
    """The leading arguments (shape, indptr, indices, data) of ``csr_matvec`` for M."""
    M = sp.csr_array(M)
    return (*M.shape, M.indptr, M.indices, M.data)


def sequential_scan(A, X, reverse=False, U=None, W=None):
    """In place: X[t+1] += (I - U W) A X[t] in time order (X[t] += ... X[t+1]
    if reverse); without U and W, F = A. A is sparse; U (n x r) and W (r x n)
    may each be sparse or dense.

    Each step adds A x into the next row by one ``csr_matvec`` call. The
    rank-r term forms z = (W A) x in a buffer and subtracts U z, a sparse
    factor by ``csr_matvec`` and a dense one by ``np.dot(..., out=)``.
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
    WA = W @ sp.csr_array(A)
    sparse_w, sparse_u = sp.issparse(WA), sp.issparse(U)
    wa = _csr_args(WA) if sparse_w else np.ascontiguousarray(WA)
    # -U so that the kernel subtracts; a dense U column-major, where BLAS's
    # product with a vector ran faster than row-major at n=817.
    u = _csr_args(-U) if sparse_u else np.asfortranarray(U)
    z, Uz = np.zeros(U.shape[1]), np.empty(X.shape[1])
    for t in steps:
        cur = X[t]
        if sparse_w:
            z.fill(0.0)
            csr_matvec(*wa, prev, z)
        else:
            np.dot(wa, prev, out=z)
        csr_matvec(*a, prev, cur)
        if sparse_u:
            csr_matvec(*u, z, cur)
        else:
            cur -= np.dot(u, z, out=Uz)
        prev = cur
    return X


def affine_scan(F, X, reverse=False):
    """In place: X[t+1] += F X[t] in time order (X[t] += F X[t+1] if reverse);
    F is dense."""
    M = X.shape[0] - 1
    if M < 1:
        return X
    L = round(M ** (1 / 3))
    FT = F.T

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
    FLT = np.linalg.matrix_power(F, L).T
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
    """T[t+1] = A T[t] + B P[t] (+ W[t]); T[0] = T1. P has N-1 rows here.

    Stepped at every size; an unstable A leaves inf/NaN rows, which the
    caller checks for."""
    P, B = _c64(P), _c64(B)
    T = np.zeros((P.shape[0] + 1, np.shape(T1)[0]))
    T[0] = T1
    # B P[t] over the nonzero rows of B only (the other entries stay exact
    # zeros), in row chunks so that no record-length temporary is made.
    rows = np.flatnonzero(B.any(axis=1))
    Bt = B[rows].T
    for i in range(0, P.shape[0], _INPUT_ROWS):
        T[1 + i : 1 + i + _INPUT_ROWS, rows] = P[i : i + _INPUT_ROWS] @ Bt
    if W is not None:
        T[1:] += W
    return sequential_scan(sp.csr_array(_c64(A)), T)


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
    if sequential(A):
        sequential_scan(sp.csr_array(A), xf, U=K, W=sp.csr_array(C))
    else:
        affine_scan(IKC @ A, xf)
    innov = Y[1:] - xf[:-1] @ (C @ A).T - P @ (C @ B).T
    return xf, innov


def smooth_steady(A, C, K, Xf, SinvE, V_minus):
    """Smoother means xs[t] = Xf[t] + V^- mu[t], mu[t] = F_p'(mu[t+1] + C' SinvE[t]),
    F_p' = (I - C' K') A', mu[N-1] = 0; written over ``Xf`` and returned if it is
    C-contiguous float64, other layouts are copied first."""
    A, C, K, SinvE, V_minus, xs = map(_c64, (A, C, K, SinvE, V_minus, Xf))
    N = xs.shape[0]
    # The inputs F_p' C' SinvE[t] as rows: SinvE[t] C A (I - K C).
    CA = C @ A
    G_in = CA - (CA @ K) @ C
    if sequential(A):
        scan = partial(sequential_scan, sp.csr_array(A).T.tocsr(), reverse=True,
                       U=sp.csr_array(C.T), W=np.ascontiguousarray(K.T))
    else:
        scan = partial(affine_scan, A.T - C.T @ (A @ K).T, reverse=True)  # F_p'
    # Z holds mu over the rows [start, stop) of one chunk in time order, and
    # below them the carry mu[stop] (zero for the last chunk of the record).
    rows = min(_INPUT_ROWS, max(N - 1, 1))
    mu = np.zeros((rows + 1, A.shape[0]))
    for stop in range(N - 1, 0, -rows):
        start = max(stop - rows, 0)
        Z = mu[rows - (stop - start) :]
        body = np.matmul(SinvE[start:stop], G_in, out=Z[:-1])
        scan(Z)
        xs[start:stop] += body @ V_minus.T
        mu[-1] = Z[0]
    return xs
