"""Steady-covariance fixed-interval (RTS) smoothing and sufficient statistics.

Every covariance of the textbook two-pass recursion is replaced by its
stationary limit: the predicted covariance V^- comes from the DARE, and both
passes then propagate means only. The smoothed means overwrite the predicted
ones, so memory is one N x n array of means plus O(n^2).

Both passes run in predicted form (Anderson & Moore, *Optimal Filtering*,
1979, ch. 3) on one gain and one closed loop: the predictor gain
K_p = A V^- C' S^-1, S = C V^- C' + R (the gain of the DARE's Newton step,
``solvers._riccati_defect``), and F_p = A - K_p C. The filter runs
xp[t+1] = F_p xp[t] + B P[t] + K_p y[t] from xp[0] = x_1, with y[0] read as
C x_1 so that the innovation e[0] is 0. The backward pass is the modified
Bryson-Frazier adjoint recursion (Bierman, *Factorization Methods for
Discrete Sequential Estimation*, 1977), lam[t] = F_p' lam[t+1] + C' S^-1 e[t]
from lam[N] = 0, and xs[t] = xp[t] + V^- lam[t] (``_kernels.smooth_steady``).
One Stein solve in the same F_p gives

    Lambda = F_p' Lambda F_p + C' S^-1 C,
    V_S^N = V^- - V^- Lambda V^-,
    Cov(x[t], x[t+1] | Y) = G' - (V^- Lambda G)',  G = A V^+ = A V^- - K_p C V^-,

with no inverse of V^- and no filter gain or V^+ formed. One Cholesky factor
of S serves K_p, the rows S^-1 e[t], the log-likelihood and C' S^-1 C. On the
178-compartment module (q from 1e-2 to 1e-8, R 1e-6 and 1e-12) both
covariances lie within 2.8e-14 (relative) of scipy's solution of the RTS
form's Lyapunov equation in J = V^+ A' (V^-)^-1 (``solve_dlyap``, whose
tolerance is absolute for that equation's small W, was 1.1e-10 to 3.5e-10
off for q <= 1e-4).

The smoother takes the initial state as known (x_1 = T_1) and uses the
steady filtered covariance as the initial covariance, so the forward pass is
the exact time-varying Kalman filter and the innovation log-likelihood it
accumulates (the EM progress monitor) is exact. So are the smoothed means.
Only the sufficient statistics are approximate: the exact backward
covariance recursion starts from the filtered covariance at the record end
and relaxes towards the stationary smoothed covariance, which the statistics
use throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from thermem import _kernels
from thermem.errors import NumericalError
from thermem.model import StateSpaceModel
from thermem.solvers import DareProblem, solve_dare, solve_dlyap


@dataclass(eq=False)
class SmootherOutput:
    """Steady-smoother result: means plus the stationary covariance set."""

    x_smooth: np.ndarray
    V_S_minus: np.ndarray
    V_S_N: np.ndarray
    V_S_lag: np.ndarray  # Cov(x[t], x[t+1] | Y)
    loglik: float

    @property
    def N(self) -> int:
        return self.x_smooth.shape[0]


@dataclass(eq=False)
class SmootherStats:
    """The M-step's three moments, summed over t = 1..N-1, of the regressor
    r[t] = [x[t]; P[t]] and the step d[t] = x[t+1] - x[t] (not divided by dtau):
    rr = sum E{r r'}, dr = sum E{d r'} and dd = sum E{d d'}. In the textbook
    sums (Shumway & Stoffer, J. Time Series Anal. 3:253, 1982) XX, XZ, ZZ of
    E{x[t] x[t]'}, E{x[t] x[t+1]'}, E{x[t+1] x[t+1]'} and XU, ZU, UU of
    E{x[t]} P[t]', E{x[t+1]} P[t]', P[t] P[t]': rr = [[XX, XU], [XU', UU]],
    dr = [XZ' - XX, ZU - XU] and dd = XX - XZ - XZ' + ZZ."""

    rr: np.ndarray
    dr: np.ndarray
    dd: np.ndarray
    N: int


def _check_inputs(model: StateSpaceModel, Y, P, T_1):
    Y = np.atleast_2d(np.asarray(Y, dtype=np.float64))
    P = np.atleast_2d(np.asarray(P, dtype=np.float64))
    T_1 = np.asarray(T_1, dtype=np.float64)
    N = Y.shape[0]
    if N < 2:
        raise ValueError("smoothing needs N >= 2 observations")
    if Y.shape[1] != model.n_y:
        raise ValueError(f"observations have {Y.shape[1]} channels, model has {model.n_y}")
    if T_1.shape[0] != model.n:
        raise ValueError("initial state dimension mismatch")
    if P.shape[0] not in (N, N - 1):
        raise ValueError(f"inputs must cover N or N-1 steps, got {P.shape[0]} for N={N}")
    if P.shape[1] != model.n_P:
        raise ValueError(f"inputs have {P.shape[1]} channels, model has {model.n_P}")
    return Y, P[: N - 1], T_1, N


def rtss_steady(model: StateSpaceModel, Y, P, T_1, V0=None) -> SmootherOutput:
    """Two-pass steady smoother in predicted form; ``V0`` warm-starts the DARE."""
    Y, P_dyn, T_1, N = _check_inputs(model, Y, P, T_1)
    A, C, Q, R = model.A, model.C, model.Q, model.R

    V_minus = solve_dare(DareProblem(A=A, C=C, Q=Q, R=R), V0=V0)
    # numpy's Cholesky and products, not scipy's LAPACK, which runs on its own
    # OpenBLAS threads: after scipy solves the mean passes ran up to 3x slower
    # (2 vCPUs). S^-1 = L^-T L^-1 is n_y x n_y.
    try:
        L = np.linalg.cholesky(C @ V_minus @ C.T + R)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"innovation covariance not SPD: {exc}") from exc
    L_inv = np.linalg.inv(L)
    S_inv = L_inv.T @ L_inv
    Sinv_C = S_inv @ C
    AV = A @ V_minus
    K_p = AV @ Sinv_C.T
    F_p = A - K_p @ C

    xp, innov = _kernels.filter_steady(A, model.B, C, K_p, T_1, P_dyn, Y)
    SinvE = innov @ S_inv
    quad = float(np.sum(SinvE * innov))
    del innov  # SinvE takes its place: one N x n_y array stays
    logdet = 2.0 * float(np.sum(np.log(np.diag(L))))
    loglik = -0.5 * (quad + (N - 1) * (logdet + model.n_y * np.log(2.0 * np.pi)))

    # The steady Lambda already holds the C' S^-1 C term, so
    # V_S^N = V^- - V^- Lambda V^-.
    VL = V_minus @ solve_dlyap(F_p.T, C.T @ Sinv_C)
    V_S_N = V_minus - VL @ V_minus
    G = AV - K_p @ (C @ V_minus)  # A V^+

    return SmootherOutput(
        x_smooth=_kernels.smooth_steady(A, C, K_p, xp, SinvE, V_minus),
        V_S_minus=V_minus,
        V_S_N=(V_S_N + V_S_N.T) / 2,
        V_S_lag=(G - VL @ G).T,
        loglik=loglik,
    )


def accumulate_stats(out: SmootherOutput, P) -> SmootherStats:
    """The M-step's three moments from a steady-smoother run.

    Covariance contributions enter through the stationary smoothed covariance
    (N-1 copies of V_S^N, and of V_S_lag for the lagged cross term).
    """
    N = out.N
    if N < 2:
        raise ValueError("statistics need N >= 2")
    P = np.atleast_2d(np.asarray(P, dtype=np.float64))
    if P.shape[0] not in (N, N - 1):
        raise ValueError(f"inputs must cover N or N-1 steps, got {P.shape[0]} for N={N}")
    Pd = P[: N - 1]
    x = out.x_smooth
    X = x[: N - 1]
    Z = x[1:]
    V = out.V_S_N
    # One gram matrix serves both XX and ZZ (they differ by the end terms).
    G = x.T @ x
    XX = (N - 1) * V + G - np.outer(x[N - 1], x[N - 1])
    ZZ = (N - 1) * V + G - np.outer(x[0], x[0])
    XZ = (N - 1) * out.V_S_lag + X.T @ Z
    XU = X.T @ Pd
    ZU = Z.T @ Pd
    return SmootherStats(rr=np.block([[XX, XU], [XU.T, Pd.T @ Pd]]), dr=np.hstack([XZ.T - XX, ZU - XU]),
                         dd=XX - XZ - XZ.T + ZZ, N=N)
