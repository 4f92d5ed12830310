"""Fixed-interval smoothing: full RTS and the steady-covariance variant.

The full smoother runs the textbook two-pass recursion with time-varying
covariances and is the reference implementation (it also produces the
sufficient statistics by direct per-step summation, which the fast path is
tested against). The steady variant replaces every covariance by its
stationary limit: the predicted covariance comes from the DARE, the smoothed
covariance from a discrete Lyapunov equation, and both passes then propagate
means only, so memory is O(n^2) regardless of the record length.

Both smoothers take the initial state as known (x_1 = T_1) and use the
steady filtered covariance as the initial covariance. The innovation
log-likelihood accumulated in the forward pass is the EM progress monitor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from thermem import _kernels
from thermem.errors import NumericalError
from thermem.model import StateSpaceModel
from thermem.solvers import DareProblem, DlyapProblem, solve_dare, solve_dlyap


@dataclass(eq=False)
class SmootherOutput:
    """Steady-smoother result: means plus the stationary covariance set."""

    x_smooth: np.ndarray
    x_filt: np.ndarray
    V_S_minus: np.ndarray
    V_S_plus: np.ndarray
    V_S_N: np.ndarray
    K_S: np.ndarray
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


@dataclass(eq=False)
class FullSmootherResult:
    x_smooth: np.ndarray
    x_filt: np.ndarray
    V_smooth: np.ndarray
    V_filt: np.ndarray
    V_lag: np.ndarray
    stats: SmootherStats
    loglik: float


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


def _loglik_from_innovations(innov: np.ndarray, S: np.ndarray) -> float:
    try:
        cho = sla.cho_factor(S, lower=True)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"innovation covariance not SPD: {exc}") from exc
    n_y = S.shape[0]
    S_inv = sla.cho_solve(cho, np.eye(n_y))
    quad = float(np.sum((innov @ S_inv) * innov))
    logdet = 2.0 * float(np.sum(np.log(np.diag(cho[0]))))
    return -0.5 * (quad + innov.shape[0] * (logdet + n_y * np.log(2.0 * np.pi)))


def rtss_steady(model: StateSpaceModel, Y, P, T_1, V0=None) -> SmootherOutput:
    """Two-pass smoother with stationary gains K_S and J_S; ``V0`` warm-starts the DARE."""
    Y, P_dyn, T_1, N = _check_inputs(model, Y, P, T_1)
    A, C, Q, R = model.A, model.C, model.Q, model.R

    V_minus = solve_dare(DareProblem(A=A, C=C, Q=Q, R=R), V0=V0)
    S = C @ V_minus @ C.T + R
    try:
        K_S = np.linalg.solve(S.T, (V_minus @ C.T).T).T
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"singular innovation covariance: {exc}") from exc
    V_plus = (V_minus + V_minus.T) / 2 - K_S @ (C @ V_minus)
    V_plus = (V_plus + V_plus.T) / 2

    x_filt, innov = _kernels.filter_steady(A, model.B, C, K_S, T_1, P_dyn, Y)

    try:
        J_S = np.linalg.solve(V_minus, A @ V_plus).T
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"predicted covariance singular in backward gain: {exc}") from exc
    W = V_plus - J_S @ V_minus @ J_S.T
    V_S_N = solve_dlyap(DlyapProblem(J=J_S, W=(W + W.T) / 2))

    x_smooth = _kernels.smooth_steady(A, model.B, J_S, x_filt, P_dyn)
    loglik = _loglik_from_innovations(innov, S)

    return SmootherOutput(
        x_smooth=x_smooth,
        x_filt=x_filt,
        V_S_minus=V_minus,
        V_S_plus=V_plus,
        V_S_N=V_S_N,
        K_S=K_S,
        J_S=J_S,
        loglik=loglik,
    )


def rtss_full(model: StateSpaceModel, Y, P, T_1, V_1=None) -> FullSmootherResult:
    """Reference smoother with time-varying covariances and per-step statistics.

    ``V_1`` is the initial filtered covariance; by default the steady filtered
    covariance is used, matching the steady-state variant's convention.
    """
    Y, P_dyn, T_1, N = _check_inputs(model, Y, P, T_1)
    A, B, C, Q, R = model.A, model.B, model.C, model.Q, model.R
    n, n_y = model.n, model.n_y

    if V_1 is None:
        V_minus = solve_dare(DareProblem(A=A, C=C, Q=Q, R=R))
        S = C @ V_minus @ C.T + R
        K = np.linalg.solve(S.T, (V_minus @ C.T).T).T
        V_1 = V_minus - K @ (C @ V_minus)
    V_1 = np.asarray(V_1, dtype=np.float64)

    x_filt = np.empty((N, n))
    x_pred = np.empty((N - 1, n))
    V_filt = np.empty((N, n, n))
    V_pred = np.empty((N - 1, n, n))
    x_filt[0] = T_1
    V_filt[0] = (V_1 + V_1.T) / 2
    loglik = 0.0

    for t in range(N - 1):
        x_pred[t] = A @ x_filt[t] + B @ P_dyn[t]
        Vp = A @ V_filt[t] @ A.T + Q
        V_pred[t] = (Vp + Vp.T) / 2
        S = C @ V_pred[t] @ C.T + R
        try:
            cho = sla.cho_factor(S, lower=True)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"innovation covariance not SPD at step {t}: {exc}") from exc
        K = sla.cho_solve(cho, C @ V_pred[t]).T
        e = Y[t + 1] - C @ x_pred[t]
        x_filt[t + 1] = x_pred[t] + K @ e
        Vf = V_pred[t] - K @ (C @ V_pred[t])
        V_filt[t + 1] = (Vf + Vf.T) / 2
        logdet = 2.0 * float(np.sum(np.log(np.diag(cho[0]))))
        loglik += -0.5 * (float(e @ sla.cho_solve(cho, e)) + logdet + n_y * np.log(2.0 * np.pi))

    x_smooth = np.empty_like(x_filt)
    V_smooth = np.empty_like(V_filt)
    V_lag = np.empty((N - 1, n, n))
    x_smooth[N - 1] = x_filt[N - 1]
    V_smooth[N - 1] = V_filt[N - 1]
    for t in range(N - 2, -1, -1):
        try:
            J_t = np.linalg.solve(V_pred[t], (V_filt[t] @ A.T).T).T
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"predicted covariance singular at step {t}: {exc}") from exc
        Vs = V_filt[t] + J_t @ (V_smooth[t + 1] - V_pred[t]) @ J_t.T
        V_smooth[t] = (Vs + Vs.T) / 2
        V_lag[t] = V_smooth[t + 1] @ J_t.T
        x_smooth[t] = x_filt[t] + J_t @ (x_smooth[t + 1] - x_pred[t])

    stats = _stats_from_full(x_smooth, V_smooth, V_lag, P_dyn)
    return FullSmootherResult(
        x_smooth=x_smooth,
        x_filt=x_filt,
        V_smooth=V_smooth,
        V_filt=V_filt,
        V_lag=V_lag,
        stats=stats,
        loglik=loglik,
    )


def _stats_from_full(x_smooth, V_smooth, V_lag, P_dyn) -> SmootherStats:
    """Direct time-varying summation of the sufficient statistics."""
    N, n = x_smooth.shape
    n_P = P_dyn.shape[1]
    XX = np.zeros((n, n))
    ZZ = np.zeros((n, n))
    XZ = np.zeros((n, n))
    XU = np.zeros((n, n_P))
    ZU = np.zeros((n, n_P))
    UU = np.zeros((n_P, n_P))
    for t in range(N - 1):
        XX += V_smooth[t] + np.outer(x_smooth[t], x_smooth[t])
        ZZ += V_smooth[t + 1] + np.outer(x_smooth[t + 1], x_smooth[t + 1])
        # E{T_t T_{t+1}'} = (V_{t+1,t})' + x_t x_{t+1}'
        XZ += V_lag[t].T + np.outer(x_smooth[t], x_smooth[t + 1])
        XU += np.outer(x_smooth[t], P_dyn[t])
        ZU += np.outer(x_smooth[t + 1], P_dyn[t])
        UU += np.outer(P_dyn[t], P_dyn[t])
    return SmootherStats(XX=XX, XU=XU, ZZ=ZZ, ZU=ZU, XZ=XZ, UU=UU, N=N)


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
