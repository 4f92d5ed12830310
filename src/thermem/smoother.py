"""Steady-covariance fixed-interval (RTS) smoothing and sufficient statistics.

Every covariance of the textbook two-pass recursion is replaced by its
stationary limit: the predicted covariance comes from the DARE, the smoothed
covariance from a discrete Lyapunov equation, and both passes then propagate
means only. The smoothed means overwrite the filtered ones, so memory is one
N x n array of means plus O(n^2).

The mean passes take one of two forms, by the operator-size rule
``_kernels.sequential``. Below its size, the filter scans the dense
(I - K C) A and the smoother the RTS form with the dense gain J_S, both by
the blocked scan. From it on (the 817-compartment module), the filter steps
the sparse A plus the rank-n_y gain term and the smoother runs the modified
Bryson-Frazier adjoint recursion on the same operator transposed, fed by the
innovations S^-1 e[t] that the log-likelihood forms anyway; J_S then serves
only the Lyapunov equation and the lagged statistic XZ. The two forms agree
to rounding (see ``thermem._kernels`` for the recursions and the measured
crossover).

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
import scipy.linalg as sla

from thermem import _kernels
from thermem.errors import NumericalError
from thermem.model import StateSpaceModel
from thermem.solvers import DareProblem, solve_dare, solve_dlyap


@dataclass(eq=False)
class SmootherOutput:
    """Steady-smoother result: means plus the stationary covariance set."""

    x_smooth: np.ndarray
    V_S_minus: np.ndarray
    V_S_plus: np.ndarray
    V_S_N: np.ndarray
    J_S: np.ndarray
    loglik: float

    @property
    def N(self) -> int:
        return self.x_smooth.shape[0]


@dataclass(eq=False)
class SmootherStats:
    """The six sufficient-statistic matrices, summed over t = 1..N-1."""

    XX: np.ndarray
    XU: np.ndarray
    ZZ: np.ndarray
    ZU: np.ndarray
    XZ: np.ndarray
    UU: np.ndarray
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


def _innovation_terms(innov: np.ndarray, S: np.ndarray):
    """The innovation log-likelihood and the rows S^-1 e[t]."""
    try:
        cho = sla.cho_factor(S, lower=True)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"innovation covariance not SPD: {exc}") from exc
    n_y = S.shape[0]
    S_inv = sla.cho_solve(cho, np.eye(n_y))
    SinvE = innov @ S_inv
    quad = float(np.sum(SinvE * innov))
    logdet = 2.0 * float(np.sum(np.log(np.diag(cho[0]))))
    return -0.5 * (quad + innov.shape[0] * (logdet + n_y * np.log(2.0 * np.pi))), SinvE


def rtss_steady(model: StateSpaceModel, Y, P, T_1, V0=None) -> SmootherOutput:
    """Two-pass smoother with stationary gains K and J_S; ``V0`` warm-starts the DARE."""
    Y, P_dyn, T_1, N = _check_inputs(model, Y, P, T_1)
    A, C, Q, R = model.A, model.C, model.Q, model.R

    V_minus = solve_dare(DareProblem(A=A, C=C, Q=Q, R=R), V0=V0)
    S = C @ V_minus @ C.T + R
    try:
        K = np.linalg.solve(S.T, (V_minus @ C.T).T).T
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"singular innovation covariance: {exc}") from exc
    V_plus = V_minus - K @ (C @ V_minus)
    V_plus = (V_plus + V_plus.T) / 2

    xf, innov = _kernels.filter_steady(A, model.B, C, K, T_1, P_dyn, Y)
    loglik, SinvE = _innovation_terms(innov, S)
    del innov  # SinvE takes its place: one (N-1) x n_y array stays

    try:
        J_S = np.linalg.solve(V_minus, A @ V_plus).T
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"predicted covariance singular in backward gain: {exc}") from exc
    W = V_plus - J_S @ V_minus @ J_S.T
    V_S_N = solve_dlyap(J_S, W)

    return SmootherOutput(
        x_smooth=_kernels.smooth_steady(A, model.B, J_S, xf, P_dyn, C, K, SinvE, V_minus),
        V_S_minus=V_minus,
        V_S_plus=V_plus,
        V_S_N=V_S_N,
        J_S=J_S,
        loglik=loglik,
    )


def accumulate_stats(out: SmootherOutput, P) -> SmootherStats:
    """Sufficient statistics from a steady-smoother run.

    Covariance contributions enter through the stationary smoothed covariance
    (N-1 copies of V_S^N, and J_S V_S^N' for the lagged cross term).
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
    XZ = (N - 1) * (out.J_S @ V.T) + X.T @ Z
    XU = X.T @ Pd
    ZU = Z.T @ Pd
    UU = Pd.T @ Pd
    return SmootherStats(XX=XX, XU=XU, ZZ=ZZ, ZU=ZU, XZ=XZ, UU=UU, N=N)
