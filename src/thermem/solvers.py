"""Discrete algebraic Riccati and Lyapunov solvers for steady-state smoothing.

The filter-form DARE solved here is the fixed point of the predicted state
covariance,
    V = A V A' - A V C' (C V C' + R)^{-1} C V A' + Q,
computed by the structure-preserving doubling iteration (quadratically
convergent, no eigen-decompositions), with a plain fixed-point sweep of the
covariance recursion as fallback when doubling hits an ill-conditioned
intermediate. The Lyapunov equation V = J V J' + W is solved by the
squaring iteration
    V <- V + J^(2^k) V (J^(2^k))'.
Every accepted solution is certified by its fixed-point residual; iterates
are symmetrized each step to suppress drift.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from thermem.errors import ConvergenceError, NumericalError


@dataclass(eq=False)
class DareProblem:
    A: np.ndarray
    C: np.ndarray
    Q: np.ndarray
    R: np.ndarray


@dataclass(eq=False)
class DlyapProblem:
    J: np.ndarray
    W: np.ndarray


def _sym(M):
    return (M + M.T) / 2.0


def dare_residual(V, p: DareProblem) -> float:
    A, C, Q, R = p.A, p.C, p.Q, p.R
    S = C @ V @ C.T + R
    K = np.linalg.solve(S.T, (A @ V @ C.T).T).T
    rhs = A @ V @ A.T - K @ (A @ V @ C.T).T + Q
    return float(np.linalg.norm(V - rhs, "fro"))


def _dare_fixed_point(p: DareProblem, V0, tol, max_iter):
    """Plain covariance recursion V <- A(V - V C'(CVC'+R)^{-1} C V)A' + Q."""
    A, C, Q, R = p.A, p.C, p.Q, p.R
    V = _sym(V0)
    for _ in range(max_iter):
        S = C @ V @ C.T + R
        try:
            G = np.linalg.solve(S, C @ V)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"singular innovation covariance: {exc}") from exc
        V_new = _sym(A @ (V - V @ C.T @ G) @ A.T + Q)
        if np.linalg.norm(V_new - V, "fro") <= 0.1 * tol:
            return V_new
        V = V_new
    return V


def solve_dare(p: DareProblem, tol: float = None, max_iter: int = 200) -> np.ndarray:
    """Stabilizing solution of the filter DARE, residual-certified.

    Requires R invertible and (A, C) detectable in every mode not excited by
    Q; with the marginal all-ones thermal mode this holds when the ambient
    temperature is among the observations.
    """
    A = np.asarray(p.A, dtype=np.float64)
    C = np.asarray(p.C, dtype=np.float64)
    Q = _sym(np.asarray(p.Q, dtype=np.float64))
    R = _sym(np.asarray(p.R, dtype=np.float64))
    prob = DareProblem(A, C, Q, R)
    n = A.shape[0]
    if tol is None:
        tol = 1e-10 * max(1.0, np.linalg.norm(Q, "fro"))

    # Doubling iteration on the dual (control-form) equation with
    # (A, B, H) = (A', C', Q): Hk increases to the stabilizing solution.
    try:
        G = C.T @ np.linalg.solve(R, C)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"R is singular: {exc}") from exc
    Ak = A.T.copy()
    Gk = _sym(G)
    Hk = Q.copy()
    converged = False
    for _ in range(max_iter):
        M = np.eye(n) + Gk @ Hk
        try:
            solved = np.linalg.solve(M, np.hstack([Ak, Gk]))
        except np.linalg.LinAlgError:
            break  # fall back to the fixed-point sweep
        Minv_Ak, Minv_Gk = solved[:, :n], solved[:, n:]
        H_next = _sym(Hk + Ak.T @ Hk @ Minv_Ak)
        G_next = _sym(Gk + Ak @ Minv_Gk @ Ak.T)
        A_next = Ak @ Minv_Ak
        step = np.linalg.norm(H_next - Hk, "fro")
        Ak, Gk, Hk = A_next, G_next, H_next
        if step <= 0.1 * tol * max(1.0, np.linalg.norm(Hk, "fro")):
            converged = True
            break
    V = _sym(Hk)

    # Certify against the requested tolerance, but never below the float64
    # residual floor of the problem scale (the cancellation in the gain term
    # caps attainable residuals near 1e-9 relative when R << V; 5e-9 stays
    # 2x inside the 1e-8 relative acceptance bound).
    def threshold(M):
        return max(tol, 5e-9 * max(1.0, np.linalg.norm(M, "fro")))

    res = dare_residual(V, prob) if converged else np.inf
    if res >= threshold(V):
        V = _dare_fixed_point(prob, V if converged else Q, tol, 10 * max_iter)
        res = dare_residual(V, prob)
    if not np.isfinite(res) or res >= threshold(V):
        raise ConvergenceError(
            f"DARE did not reach residual tolerance {threshold(V):.3g} "
            f"(final residual {res:.3g})"
        )
    eigs = np.linalg.eigvalsh(V)
    if eigs.min() < -1e-10 * max(1.0, eigs.max()):
        raise NumericalError(f"DARE solution indefinite (min eigenvalue {eigs.min():.3g})")
    return V


def dlyap_residual(V, p: DlyapProblem) -> float:
    return float(np.linalg.norm(V - p.J @ V @ p.J.T - p.W, "fro"))


def solve_dlyap(p: DlyapProblem, tol: float = None, max_iter: int = 200) -> np.ndarray:
    """Solution of V = J V J' + W for spectral radius(J) < 1."""
    J = np.asarray(p.J, dtype=np.float64)
    W = _sym(np.asarray(p.W, dtype=np.float64))
    prob = DlyapProblem(J, W)
    if tol is None:
        tol = 1e-10 * max(1.0, np.linalg.norm(W, "fro"))

    V = W.copy()
    Jk = J.copy()
    w0 = np.linalg.norm(W, "fro")
    for _ in range(max_iter):
        V = _sym(V + Jk @ V @ Jk.T)
        if not np.isfinite(V).all() or np.linalg.norm(V, "fro") > 1e12 * max(1.0, w0):
            raise ConvergenceError("Lyapunov squaring iteration diverging (rho(J) >= 1)")
        Jk = Jk @ Jk
        if np.linalg.norm(Jk, "fro") ** 2 * np.linalg.norm(V, "fro") <= 0.1 * tol:
            break

    res = dlyap_residual(V, prob)
    threshold = max(tol, 5e-9 * max(1.0, np.linalg.norm(V, "fro")))
    if not np.isfinite(res) or res >= threshold:
        raise ConvergenceError(
            f"DLYAP did not reach residual tolerance {threshold:.3g} "
            f"(final residual {res:.3g})"
        )
    return V
