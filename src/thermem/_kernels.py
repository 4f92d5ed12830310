"""The affine recursion behind the rollout, the steady filter and the smoother.

All three hot loops have the form x[t+1] = F x[t] + u[t+1]. The callers
compute the inputs of every step with one matrix product and then run the
recursion in place on a time-major array X that holds x[0] in its first row
and the inputs u in the others; with ``reverse=True`` it runs from the last
row backwards, x[t] = F x[t+1] + u[t]. One rule on the operator size n,
``sequential``, picks one of two evaluators of it:

``sequential_scan`` (n >= SEQUENTIAL_MIN_N) steps the recursion one product
at a time over a CSR A plus an optional rank-r term, F = (I - U W) A:

- rollout: x[t+1] = A x[t] + u[t+1];
- filter: F = (I - K C) A, so each step is xp = A xf[t] (+ B P[t] in the
  input), less K (C xp), plus K Y[t+1] in the input;
- smoother, in the modified Bryson-Frazier adjoint form (Bierman,
  *Factorization Methods for Discrete Sequential Estimation*, 1977):
  mu[t] = F_p' (mu[t+1] + C' S^-1 e[t]) with F_p' = (I - C' K') A', the
  transposed predictor-form closed loop, and mu[N-1] = 0; then
  xs[t] = xf[t] + V^- mu[t]. The mu rows live in one chunk buffer and the
  V^- product is one GEMM per chunk written into xf, so the smoothed means
  still overwrite the filtered ones and no second record-length array is
  held. The dense J_S is not needed for the means.

Each step is one sparse product with A (about 7 nonzeros per row on the
mesh) and, with the gain term, one product with each n_y-wide factor; at
n=817 a step takes 10-25 us, most of it the call overhead of those products.

``affine_scan`` (n < SEQUENTIAL_MIN_N) is blocked in time (the block form of
a linear prefix scan). With M = N-1 steps and the block length L the power
of two nearest sqrt(M) (in ratio):

1. local responses: the response of every block to its own inputs from a
   zero start, as L-1 lock-step products (blocks x n)(n x n) over strided
   views of X;
2. carry: the block-start states in turn, x[(b+1)L] += F^L x[bL], with a
   dense F^L that takes log2(L) squarings (6 products at M=5999);
3. fix-up: F^j x[bL] added to position j of every block, again as L-1
   lock-step products.

The last block may be short; it simply drops out of the lock-step products
at the positions it does not have. The recursion thus costs about 2L
matrix-matrix products instead of M matrix-vector products, and agrees with
the per-step loop to rounding. F may be dense or a scipy.sparse matrix; a
sparse F runs the lock-step products of phases 1 and 3 through its
nonzeros (the rollout passes A as CSR). The filter's (I - K C) A and the
smoother's J are dense.

Per pass, blocked against sequential (2 vCPUs, 2 OpenBLAS threads, best of
5-10 in each of three runs of a throwaway script on a shared machine;
N=5000 for the filter and the smoother, a 6000-step rollout at n=817 and
an 18000-step one at n=178):

=========  =========================  ======================
pass       n=817 (paper's module)     n=178 (reduced module)
=========  =========================  ======================
filter     252-318 vs 131-191 ms      16-20 vs 53-57 ms
smoother   291-386 vs 194-249 ms      20-25 vs 58-98 ms
rollout    129-173 vs 95-100 ms       38-44 vs 90-158 ms
=========  =========================  ======================

The blocked scan's dense lanes cost about n^2 per step and the sequential
step about a fixed call overhead plus the nonzeros of A and 2 n n_y for the
gain term. On 3-D grid operators with 7 nonzeros per row and every 20th
state observed, the two met between n=400 and n=500 in all three passes,
so the rule switches at SEQUENTIAL_MIN_N = 450.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp

# Rows per chunk of the smoother's input and output products.
_INPUT_ROWS = 1024
# Operator size from which the per-step recursion beats the blocked scan.
SEQUENTIAL_MIN_N = 450


def _c64(x):
    return np.ascontiguousarray(np.asarray(x, dtype=np.float64))


def sequential(A):
    """True if recursions on the n x n operator A run step by step."""
    return A.shape[0] >= SEQUENTIAL_MIN_N


def sequential_scan(A, X, reverse=False, U=None, W=None):
    """In place: X[t+1] += (I - U W) A X[t] in time order (X[t] += ... X[t+1]
    if reverse), one ``A @ x`` product per step; without U and W, F = A."""
    M = X.shape[0] - 1
    steps = range(M - 1, -1, -1) if reverse else range(1, M + 1)
    prev = X[M] if reverse else X[0]
    for t in steps:
        y = A @ prev
        if U is not None:
            y -= U @ (W @ y)
        prev = X[t]
        prev += y
    return X


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
    A = sp.csr_array(_c64(A))
    with np.errstate(over="ignore", invalid="ignore"):  # the caller checks for inf/NaN
        return sequential_scan(A, T) if sequential(A) else affine_scan(A, T)


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


def smooth_steady(A, B, J, Xf, P, C=None, K=None, SinvE=None, V_minus=None):
    """Steady-gain smoother means xs[t] = Xf[t] + J (xs[t+1] - A Xf[t] - B P[t]), written
    over ``Xf`` and returned if it is C-contiguous float64; other layouts are copied first.

    Where ``sequential(A)``, the means come from the adjoint form instead and
    need the filter's C, gain K, innovations S^-1 e[t] as rows and V^-.
    """
    if sequential(A):
        if any(arg is None for arg in (C, K, SinvE, V_minus)):
            raise ValueError(f"the adjoint smoother at n={A.shape[0]} needs C, K, SinvE and V_minus")
        return smooth_adjoint(A, C, K, SinvE, V_minus, Xf)
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


def smooth_adjoint(A, C, K, SinvE, V_minus, Xf):
    """Smoother means xs[t] = Xf[t] + V^- mu[t], mu[t] = F_p'(mu[t+1] + C' SinvE[t]),
    F_p' = (I - C' K') A', mu[N-1] = 0; written over ``Xf`` as ``smooth_steady``."""
    A, C, K, SinvE, V_minus, xs = map(_c64, (A, C, K, SinvE, V_minus, Xf))
    N = xs.shape[0]
    At, Ct, Kt = sp.csr_array(A).T.tocsr(), sp.csr_array(C.T), np.ascontiguousarray(K.T)
    # The inputs F_p' C' SinvE[t] as rows: SinvE[t] C A (I - K C).
    CA = C @ A
    G_in = CA - (CA @ K) @ C
    # Z holds mu over the rows [start, stop) of one chunk in time order, and
    # below them the carry mu[stop] (zero for the last chunk of the record).
    rows = min(_INPUT_ROWS, max(N - 1, 1))
    mu = np.zeros((rows + 1, A.shape[0]))
    for stop in range(N - 1, 0, -rows):
        start = max(stop - rows, 0)
        Z = mu[rows - (stop - start) :]
        body = np.matmul(SinvE[start:stop], G_in, out=Z[:-1])
        sequential_scan(At, Z, reverse=True, U=Ct, W=Kt)
        xs[start:stop] += body @ V_minus.T
        mu[-1] = Z[0]
    return xs
