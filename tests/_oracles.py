"""Brute-force reference implementations used as independent test oracles.

Everything here is deliberately written as plain per-step/per-edge loops over
dense arrays, re-deriving the operator structure from the mesh adjacency and
scheme directly, so the statistics-based fast paths in the package are checked
against a genuinely different computation. ``rtss_full`` is the textbook RTS
smoother with time-varying covariances that the steady smoother is checked
against.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from thermem.errors import NumericalError
from thermem.model import StateSpaceModel
from thermem.smoother import SmootherStats, _check_inputs
from thermem.solvers import DareProblem, solve_dare


def grid_cells(nx, ny, nz, role_map, refine=()):
    """Footprints (layer, oy, ox, span, role) of the pruned grid with the
    ``refine`` base cells (layer, ix, iy) split, in canonical order.

    A base cell covers the fine-grid square [2 ix, 2 ix + 2) x [2 iy, 2 iy + 2);
    each of a split cell's four children covers one unit square of it.
    Inactive cells are left out.
    """
    out = []
    for layer in range(1, nz + 1):
        for iy in range(ny):
            for ix in range(nx):
                role = role_map(ix, iy, layer)
                if role == "inactive":
                    continue
                if (layer, ix, iy) in refine:
                    out += [(layer, 2 * iy + dy, 2 * ix + dx, 1, role) for dy in (0, 1) for dx in (0, 1)]
                else:
                    out.append((layer, 2 * iy, 2 * ix, 2, role))
    return sorted(out)


def adjacency_pairs(mesh):
    """Ordered coupling entries (i, j, weight) of a mesh by a loop over all
    compartment pairs, from each compartment's ox, oy, span and layer.

    Same-layer cells whose footprints touch along x (y) share a face weighted
    by their y (x) overlap over the base-cell edge; cells of adjacent layers
    share their footprint overlap area over the base-cell footprint; every
    bottom-layer cell couples to the ambient by its own footprint.
    """
    s = 2  # fine-grid units per base-cell edge

    def overlap(lo_a, lo_b, span_a, span_b):
        return max(0, min(lo_a + span_a, lo_b + span_b) - max(lo_a, lo_b))

    cells = [c for c in mesh.compartments if not c.is_ambient]
    out = []
    for a in cells:
        for b in cells:
            x = overlap(a.ox, b.ox, a.span, b.span)
            y = overlap(a.oy, b.oy, a.span, b.span)
            w = 0.0
            if a.layer == b.layer and (a.ox + a.span == b.ox or b.ox + b.span == a.ox):
                w = y / s
            elif a.layer == b.layer and (a.oy + a.span == b.oy or b.oy + b.span == a.oy):
                w = x / s
            elif abs(a.layer - b.layer) == 1:
                w = x * y / s**2
            if w > 0:
                out.append((a.index, b.index, w))
        if a.layer == mesh.nz:
            w = a.span**2 / s**2
            out += [(a.index, mesh.ambient_index, w), (mesh.ambient_index, a.index, w)]
    return sorted(out)


def dense_structure(mesh, scheme):
    """Per-class coupling matrices and the source map from first principles.

    Returns (S_list, src) where S_list[a][h, :] accumulates w * (e_h - e_t)'
    over the class-a edges whose head is not ambient, and src is a list of
    (compartment, z_class) pairs ordered by compartment index.
    """
    n = mesh.n_compartments
    amb = mesh.ambient_index
    comps = mesh.compartments
    n_k = scheme.n_k
    S_list = [np.zeros((n, n)) for _ in range(n_k)]
    for (i, j, w) in mesh.adjacency:
        if j == amb:
            continue  # the ambient temperature is a boundary condition
        a = scheme.edge_class(comps[i], comps[j])
        # The edge heats its head: row j gains w*(T_i - T_j) under class a.
        S_list[a][j, j] += w
        S_list[a][j, i] -= w
    src = [
        (c.index, scheme.source_class(c))
        for c in comps
        if c.has_source
    ]
    return S_list, src


def dense_M(S_list, src, n_k, n_z, T_t, P_t):
    """Regression matrix at one step, assembled column by column."""
    n = T_t.shape[0]
    M = np.zeros((n, n_k + n_z))
    for a in range(n_k):
        M[:, a] = -S_list[a] @ T_t
    for p, (comp, zc) in enumerate(src):
        M[comp, n_k + zc] += P_t[p]
    return M


def bruteforce_terms(mesh, scheme, x, P, Q_inv, theta, V=None, V_S_lag=None):
    """The five expected-term aggregates by explicit summation over t.

    ``x`` are smoothed means (N x n); with V (steady smoothed covariance) and
    V_S_lag (the lag-one covariance Cov(T_t, T_{t+1})) given, the Gaussian
    covariance corrections are added per step using Cov(T_{t+1}, T_t) =
    V_S_lag' and Cov(T_t, T_t) = V.
    """
    N, n = x.shape
    n_k, n_z = scheme.n_k, scheme.n_z
    p = n_k + n_z
    dtau = theta.dtau
    S_list, src = dense_structure(mesh, scheme)
    S = sum(theta.k[a] * S_list[a] for a in range(n_k))
    Bt = np.zeros((n, len(src)))
    for j, (comp, zc) in enumerate(src):
        Bt[comp, j] = theta.z[zc]

    if V is None:
        V = np.zeros((n, n))
        V_S_lag = np.zeros((n, n))
    V_lag = V_S_lag.T  # Cov(T_{t+1}, T_t)

    sum_dTdT = np.zeros((n, n))
    sum_MQM = np.zeros((p, p))
    sum_MththM = np.zeros((n, n))
    sum_MQdT = np.zeros(p)
    sum_dTthM = np.zeros((n, n))

    for t in range(N - 1):
        xt, xt1, Pt = x[t], x[t + 1], P[t]
        dx = (xt1 - xt) / dtau
        M_mean = dense_M(S_list, src, n_k, n_z, xt, Pt)
        Mth_mean = -S @ xt + Bt @ Pt

        # E{dT dT'} = dx dx' + (V_{t+1} + V_t - Cov(T_{t+1},T_t) - Cov') / dtau^2
        sum_dTdT += np.outer(dx, dx) + (2 * V - V_lag - V_lag.T) / dtau**2

        # E{M' Qi M}: mean part plus a kk-block trace correction.
        MQM = M_mean.T @ Q_inv @ M_mean
        for a in range(n_k):
            for b in range(n_k):
                MQM[a, b] += np.trace(S_list[a].T @ Q_inv @ S_list[b] @ V)
        sum_MQM += MQM

        # E{(M theta)(M theta)'}: mean part plus S V S'.
        sum_MththM += np.outer(Mth_mean, Mth_mean) + S @ V @ S.T

        # E{M' Qi dT}: mean part plus a k-block correction from the joint law.
        MQdT = M_mean.T @ Q_inv @ dx
        for a in range(n_k):
            MQdT[a] += -np.trace(S_list[a].T @ Q_inv @ (V_lag - V)) / dtau
        sum_MQdT += MQdT

        # E{dT (M theta)'}: mean part minus (Cov(T_{t+1},T_t) - V) S' / dtau.
        sum_dTthM += np.outer(dx, Mth_mean) - (V_lag - V) @ S.T / dtau

    return sum_dTdT, sum_MQM, sum_MththM, sum_MQdT, sum_dTthM


def affine_loop(F, X, reverse=False):
    """x[t+1] = F x[t] + u[t+1] one step at a time (x[t] = F x[t+1] + u[t]
    backwards), from X holding the start state and the inputs."""
    X = np.array(X, dtype=np.float64)
    steps = range(X.shape[0] - 2, -1, -1) if reverse else range(1, X.shape[0])
    for t in steps:
        X[t] += F @ (X[t + 1] if reverse else X[t - 1])
    return X


def rollout_loop(A, B, T1, P, W=None):
    """Textbook rollout T[t+1] = A T[t] + B P[t] (+ W[t])."""
    T = np.empty((P.shape[0] + 1, len(T1)))
    T[0] = T1
    for t in range(P.shape[0]):
        T[t + 1] = A @ T[t] + B @ P[t] + (0.0 if W is None else W[t])
    return T


def filter_loop(A, B, C, K, x1, P, Y):
    """Textbook steady-gain filter: predict, innovate, correct."""
    N = Y.shape[0]
    xf = np.empty((N, len(x1)))
    innov = np.empty((N - 1, C.shape[0]))
    xf[0] = x1
    for t in range(N - 1):
        xp = A @ xf[t] + B @ P[t]
        innov[t] = Y[t + 1] - C @ xp
        xf[t + 1] = xp + K @ innov[t]
    return xf, innov


def smooth_loop(A, B, J, Xf, P):
    """Textbook steady-gain RTS backward pass."""
    xs = np.empty_like(Xf)
    xs[-1] = Xf[-1]
    for t in range(Xf.shape[0] - 2, -1, -1):
        xs[t] = Xf[t] + J @ (xs[t + 1] - A @ Xf[t] - B @ P[t])
    return xs


def predictor_loop(A, B, C, K, x1, P, Y):
    """Textbook steady-gain filter in predictor form, K the predictor gain:
    e[t] = Y[t] - C xp[t], xp[t+1] = A xp[t] + B P[t] + K e[t], from
    xp[0] = x1 with e[0] = 0."""
    N = Y.shape[0]
    xp = np.empty((N, len(x1)))
    innov = np.zeros((N, C.shape[0]))
    xp[0] = x1
    for t in range(N - 1):
        if t > 0:
            innov[t] = Y[t] - C @ xp[t]
        xp[t + 1] = A @ xp[t] + B @ P[t] + K @ innov[t]
    innov[N - 1] = Y[N - 1] - C @ xp[N - 1]
    return xp, innov


def adjoint_loop(A, C, K, Xp, SinvE, V_minus):
    """Steady-gain smoother in the modified Bryson-Frazier adjoint form, one
    step at a time: lam[t] = F_p' lam[t+1] + C' SinvE[t] with F_p = A - K C,
    K the predictor gain and lam[N] = 0, then xs[t] = Xp[t] + V^- lam[t]."""
    F_p = A - K @ C
    xs = np.array(Xp, dtype=np.float64)
    lam = np.zeros(A.shape[0])
    for t in range(xs.shape[0] - 1, -1, -1):
        lam = F_p.T @ lam + C.T @ SinvE[t]
        xs[t] += V_minus @ lam
    return xs


def newton_hewer_dare(p: DareProblem, V0, max_steps=4):
    """Float64 Newton-Hewer reference for the filter DARE from ``V0``.

    Each step solves the Stein equation X = F X F' + Ric(V) - V, with
    F = A - K C, by scipy's direct solver and sets V <- V + X, until the
    residual is below solve_dare's certificate max(1e-10 max(1, |Q|),
    5e-9 max(1, |V|)) (Frobenius norms). Returns (V, Stein solves taken).
    """
    A, C, Q, R, V = (np.asarray(M, dtype=np.float64) for M in (p.A, p.C, p.Q, p.R, V0))
    Q, R, V = (Q + Q.T) / 2, (R + R.T) / 2, (V + V.T) / 2
    tol = 1e-10 * max(1.0, np.linalg.norm(Q))
    for steps in range(max_steps + 1):
        S_inv = np.linalg.inv(C @ V @ C.T + R)
        K = A @ V @ C.T @ S_inv
        D = A @ V @ A.T - A @ V @ C.T @ S_inv @ C @ V @ A.T + Q - V
        if np.linalg.norm(D) < max(tol, 5e-9 * max(1.0, np.linalg.norm(V))):
            return V, steps
        V = V + sla.solve_discrete_lyapunov(A - K @ C, (D + D.T) / 2)
    raise AssertionError(f"reference Newton-Hewer not certified in {max_steps} steps")


def savetxt_12g(path, header, data):
    """Reference for thermem.io's CSV writer: np.savetxt at %.12g."""
    np.savetxt(path, data, delimiter=",", header=header, comments="", fmt="%.12g")


@dataclass(eq=False)
class FullSmootherResult:
    x_smooth: np.ndarray
    x_filt: np.ndarray
    V_smooth: np.ndarray
    V_filt: np.ndarray
    V_lag: np.ndarray
    stats: SmootherStats
    loglik: float


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
    """Direct time-varying summation of the six textbook sums, handed over as moments."""
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
    return stats_from_sums(XX, XU, ZZ, ZU, XZ, UU, N)


def stats_from_sums(XX, XU, ZZ, ZU, XZ, UU, N) -> SmootherStats:
    """The moments from the six textbook sums, by the formulas of SmootherStats' docstring."""
    return SmootherStats(rr=np.block([[XX, XU], [XU.T, UU]]), dr=np.hstack([XZ.T - XX, ZU - XU]),
                         dd=XX - XZ - XZ.T + ZZ, N=N)


def sums_from_stats(stats: SmootherStats) -> dict:
    """The six textbook sums read back from the moments (stats_from_sums inverted)."""
    n = stats.dd.shape[0]
    XX, XU, UU = stats.rr[:n, :n], stats.rr[:n, n:], stats.rr[n:, n:]
    XZ = (stats.dr[:, :n] + XX).T
    return {"XX": XX, "XU": XU, "ZZ": stats.dd - XX + XZ + XZ.T, "ZU": stats.dr[:, n:] + XU,
            "XZ": XZ, "UU": UU}


def moments_from_states(x, P) -> SmootherStats:
    """The moments of known states x (N x n) and inputs P (N or N-1 rows):
    rr = R'R, dr = D'R and dd = D'D for the rows R = [x[t], P[t]] and the
    steps D = x[t+1] - x[t], t < N-1."""
    N = x.shape[0]
    R = np.hstack([x[:-1], P[: N - 1]])
    D = x[1:] - x[:-1]
    return SmootherStats(rr=R.T @ R, dr=D.T @ R, dd=D.T @ D, N=N)
